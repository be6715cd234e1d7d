"""Structural invariants checked over randomly generated spaces."""

import itertools
import math

from hypothesis import given, settings, strategies as st

from ultrabase import (
    Partnered,
    ball,
    classify_point,
    dimensions,
    is_k_generator,
    metric_bases,
    nearest_set,
    partner_partition,
    pseudopartnering_trace,
    random_dendrogram_space,
    subdominant_ultrametric,
    triangle_profile,
    two_metric_basis,
    verify_roundtrip,
)
from test_reference import is_k_generator_reference

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")

spaces = st.builds(
    random_dendrogram_space,
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    value_count=st.integers(min_value=1, max_value=5),
)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(st.integers(min_value=1, max_value=12))
    return matrix


@given(spaces)
def test_every_triangle_is_isosceles(space):
    for x, y, z in itertools.combinations(space.labels, 3):
        assert triangle_profile(space, x, y, z).isosceles


def _all_balls(space):
    for center in space.labels:
        for radius in space.table.values:
            for closed in (False, True):
                yield ball(space, center, radius, closed=closed)


@settings(max_examples=20, deadline=None)
@given(spaces)
def test_intersecting_balls_nest(space):
    members = [b.members for b in _all_balls(space)]
    for a, b_ in itertools.combinations(members, 2):
        if a & b_:
            assert a <= b_ or b_ <= a


@settings(max_examples=20, deadline=None)
@given(spaces)
def test_every_member_of_a_ball_is_a_center(space):
    for center in space.labels:
        for radius in space.table.values:
            b = ball(space, center, radius)
            for other in b.members:
                assert ball(space, other, radius).members == b.members


@settings(max_examples=20, deadline=None)
@given(spaces)
def test_outside_points_cannot_distinguish_inside_pairs(space):
    for center in space.labels:
        for radius in space.table.values:
            inside = ball(space, center, radius).members
            outside = [z for z in space.labels if z not in inside]
            for x, y in itertools.combinations(sorted(inside), 2):
                for z in outside:
                    assert space.rank(x, z) == space.rank(y, z)


@given(spaces)
def test_partner_partition_is_a_partition(space):
    part = partner_partition(space)
    labs = [lab for cls in part.classes for lab in cls] + list(part.pseudopartnered)
    assert sorted(labs) == sorted(space.labels)
    assert part.classes  # at least one class in any finite space


@given(spaces)
def test_class_members_share_their_minimum(space):
    for cls in partner_partition(space).classes:
        base = space.d(cls[0], cls[1])
        for a, b in itertools.combinations(cls, 2):
            assert space.d(a, b) == base
        for member in cls:
            assert nearest_set(space, member)[1] == base


@given(spaces)
def test_traces_descend_to_a_partnered_terminal(space):
    for start in space.labels:
        trace = pseudopartnering_trace(space, start)
        assert trace.steps[0].point == start and trace.steps[0].dist == math.inf
        assert all(a.dist > b.dist for a, b in zip(trace.steps, trace.steps[1:]))
        assert isinstance(trace.terminal_class, Partnered)
        assert isinstance(classify_point(space, trace.terminal), Partnered)


@given(spaces)
def test_dimension_bounds(space):
    dims = dimensions(space)
    assert 1 <= dims.dim1 <= space.n - 1
    assert 2 <= dims.dim2 <= space.n
    assert dims.dim1 <= dims.dim2


@given(spaces)
def test_two_metric_basis_is_a_2_generator(space):
    basis = two_metric_basis(space)
    assert is_k_generator(space, basis, 2).ok
    assert is_k_generator_reference(space, basis, 2).ok
    assert not is_k_generator(space, space.labels, 3).ok
    assert not is_k_generator_reference(space, space.labels, 3).ok


@settings(max_examples=25, deadline=None)
@given(spaces)
def test_first_bases_are_minimal_generators(space):
    family = metric_bases(space)
    for basis in family.bases(cap=5):
        assert len(basis) == family.dim1
        assert is_k_generator(space, basis, 1).ok
        assert is_k_generator_reference(space, basis, 1).ok
        for drop in basis:
            assert not is_k_generator(space, [s for s in basis if s != drop], 1).ok
            assert not is_k_generator_reference(space, [s for s in basis if s != drop], 1).ok


@settings(max_examples=25, deadline=None)
@given(spaces)
def test_roundtrip_through_coordinates(space):
    basis = next(metric_bases(space).bases(cap=1))
    assert verify_roundtrip(space, basis)


@given(symmetric_matrices())
def test_subdominant_is_below_input_and_idempotent(matrix):
    space = subdominant_ultrametric(matrix)
    values = space.value_matrix()
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            assert values[i][j] <= matrix[i][j]
    assert subdominant_ultrametric(values, labels=space.labels) == space
