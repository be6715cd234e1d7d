"""Rank-level paths checked against the `Fraction`-matrix code they replaced.

Each reference below builds its result the way the library once did: a
matrix of exact values handed to `build_space`, which quantizes and
validates it from scratch. The rank-level code must give an equal space
(labels, table, ranks) and the same CSV bytes (spellings included).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ultrabase import (
    CoordinateTable,
    CoordinateTableError,
    UltrametricViolationError,
    build_space,
    coordinates,
    metric_bases,
    parse_distance_csv,
    random_dendrogram_space,
    reconstruct,
    subdominant_ultrametric,
    write_distance_csv,
)
from ultrabase.values import group_values, to_fraction

F = Fraction


def restrict_reference(space, subset):
    keep = set(subset)
    labels = [lab for lab in space.labels if lab in keep]
    matrix = [[space.d(a, b) for b in labels] for a in labels]
    return build_space(labels, matrix, value_texts=space.value_texts())


def reconstruct_reference(table):
    """Pair loop over `Fraction`s; the input checks shared with `reconstruct` are left out."""
    pts, rows = table.points, table.rows
    n = len(pts)
    matrix = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = next(max(u, v) for u, v in zip(rows[i], rows[j]) if u != v)
            matrix[i][j] = matrix[j][i] = d
    try:
        space = build_space(pts, matrix, value_texts=table.value_texts)
    except UltrametricViolationError as exc:
        first = exc.report.violations[0]
        raise CoordinateTableError(f"inconsistent coordinates: {first.detail}") from exc
    for i, lab in enumerate(pts):
        for c, s in enumerate(table.landmarks):
            if space.d(lab, s) != rows[i][c]:
                raise CoordinateTableError(
                    f"inconsistent coordinates: rebuilt d({lab},{s}) = "
                    f"{space.d(lab, s)} but the table says {rows[i][c]}"
                )
    return space


def subdominant_reference(matrix, labels, epsilon):
    """Merge values within epsilon, then the per-k min-max closure on `Fraction`s."""
    n = len(matrix)
    vals = [[to_fraction(v) for v in row] for row in matrix]
    upper = [vals[i][j] for i in range(n) for j in range(i + 1, n)]
    reps, rank_of = group_values(upper, to_fraction(epsilon))
    d = [
        [reps[rank_of[vals[min(i, j)][max(i, j)]] - 1] if i != j else F(0) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], max(d[i][k], d[k][j]))
    return build_space(labels, d)


def spelled(space):
    """The same space parsed from a CSV whose every value has its own spelling."""
    cells = ["0"] + [f"{v}.{'0' * r}" for r, v in enumerate(space.table.values, start=1)]
    lines = [",".join(space.labels)]
    lines += [",".join(cells[r] for r in row) for row in space.ranks.tolist()]
    return parse_distance_csv("\n".join(lines) + "\n")


def assert_same(actual, expected):
    assert actual == expected
    assert hash(actual) == hash(expected)
    assert actual.table.texts == expected.table.texts
    assert write_distance_csv(actual) == write_distance_csv(expected)


dendrograms = st.builds(
    random_dendrogram_space,
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    value_count=st.integers(min_value=1, max_value=6),
)


@settings(max_examples=40, deadline=None)
@given(dendrograms, st.data())
def test_restrict_matches_fraction_rebuild(space, data):
    space = data.draw(st.sampled_from([space, spelled(space)]))
    subset = data.draw(
        st.lists(st.sampled_from(space.labels), min_size=2, unique=True)
    )
    assert_same(space.restrict(subset), restrict_reference(space, subset))


@settings(max_examples=30, deadline=None)
@given(dendrograms, st.data())
def test_reconstruct_matches_fraction_pair_loop(space, data):
    space = spelled(space)
    basis = data.draw(st.sampled_from(list(metric_bases(space).bases(cap=20))))
    extra = data.draw(st.lists(st.sampled_from(space.labels), unique=True))
    landmarks = data.draw(st.permutations(sorted(set(basis) | set(extra))))
    table = coordinates(space, landmarks)
    rebuilt = reconstruct(table)
    assert_same(rebuilt, reconstruct_reference(table))
    assert_same(rebuilt, space)


@settings(max_examples=60, deadline=None)
@given(dendrograms, st.data())
def test_corrupted_coordinates_fail_like_the_pair_loop(space, data):
    basis = data.draw(st.sampled_from(list(metric_bases(space).bases(cap=20))))
    table = coordinates(space, basis)
    rows = [list(row) for row in table.rows]
    i = data.draw(st.integers(0, space.n - 1))
    c = data.draw(st.integers(0, len(basis) - 1))
    assume(table.points[i] != table.landmarks[c])
    choices = sorted(set(space.table.values) | {F(1, 2), F(1000)})
    rows[i][c] = data.draw(st.sampled_from(choices))
    assume(len({tuple(r) for r in rows}) == space.n)
    bad = CoordinateTable(
        landmarks=table.landmarks,
        points=table.points,
        rows=tuple(tuple(r) for r in rows),
        value_texts=table.value_texts,
    )
    try:
        expected = reconstruct_reference(bad)
    except CoordinateTableError as exc:
        with pytest.raises(CoordinateTableError) as got:
            reconstruct(bad)
        assert str(got.value) == str(exc)
    else:
        assert_same(reconstruct(bad), expected)


def test_corrupted_coordinates_examples():
    # one rebuilt value contradicts the table; one table breaks a triangle
    cases = [
        (["s", "t"], [("s", [0, 5]), ("t", [5, 0]), ("a", [1, 1])]),
        (["s", "t"], [("s", [0, 9]), ("t", [9, 0]), ("x", [1, 3]), ("y", [2, 3]), ("z", [1, 1])]),
    ]
    for landmarks, rows in cases:
        table = CoordinateTable(
            landmarks=tuple(landmarks),
            points=tuple(lab for lab, _ in rows),
            rows=tuple(tuple(F(v) for v in vals) for _, vals in rows),
        )
        with pytest.raises(CoordinateTableError) as want:
            reconstruct_reference(table)
        with pytest.raises(CoordinateTableError) as got:
            reconstruct(table)
        assert str(got.value) == str(want.value)


@st.composite
def dissimilarities(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    matrix = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = F(draw(st.integers(1, 24)), 8)
    return matrix


@settings(max_examples=60, deadline=None)
@given(dissimilarities(), st.sampled_from([0, F(1, 8), F(1, 4), F(3, 4)]))
def test_subdominant_matches_fraction_closure(matrix, epsilon):
    labels = [f"x{i}" for i in range(len(matrix))]
    assert_same(
        subdominant_ultrametric(matrix, labels, epsilon=epsilon),
        subdominant_reference(matrix, labels, epsilon),
    )


@settings(max_examples=40, deadline=None)
@given(dissimilarities())
def test_subdominant_matches_scipy_single_linkage(matrix):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    dense = np.array(matrix, dtype=float)  # eighths: exact in binary floating point
    cophenetic = squareform(hierarchy.cophenet(hierarchy.linkage(squareform(dense), method="single")))
    space = subdominant_ultrametric(matrix)
    assert np.array_equal(np.array(space.value_matrix(), dtype=float), cophenetic)
