"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Everything here is exact (rank-encoded integer comparisons or exact
rationals); the only tolerances are the wall-clock budgets stated inline.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from ultrabase import (
    Partnered,
    brute_force_dim,
    classify_point,
    coordinates,
    dimensions,
    distinguishers,
    is_basis_of_subspace,
    is_k_generator,
    metric_bases,
    minimal_subspace,
    parse_distance_csv,
    parse_newick,
    partner_partition,
    pseudopartnering_trace,
    random_dendrogram_space,
    reciprocal_min_space,
    reconstruct,
    triangle_profile,
    two_metric_basis,
    uniform_space,
    write_distance_csv,
)
from test_reference import is_k_generator_reference

DATA = Path(__file__).parent / "data"


def criterion(num, desc, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL  {desc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"\n[criterion {num}] PASS  {desc} ({elapsed:.2f}s)")
            if budget is not None:
                assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"
        return wrapper
    return deco


@pytest.fixture(scope="module")
def sharp_fixtures():
    return [(n, uniform_space(n), reciprocal_min_space(n)) for n in range(2, 11)]


@pytest.fixture(scope="module")
def random_suite():
    # 100 seeded spaces with n = 8 covering value_count 1..5
    return [
        random_dendrogram_space(8, seed=seed, value_count=seed % 5 + 1)
        for seed in range(100)
    ]


@criterion(1, "sharp dimension bounds on the uniform and 1/min fixtures", budget=1.0)
def test_criterion_1_sharp_bounds(sharp_fixtures):
    for n, uniform, recmin in sharp_fixtures:
        dims = dimensions(uniform)
        assert (dims.dim1, dims.dim2) == (n - 1, n)
        assert metric_bases(uniform).count == n

        dims = dimensions(recmin)
        assert (dims.dim1, dims.dim2) == (1, 2)
        assert set(two_metric_basis(recmin)) == {str(n - 1), str(n)}


@criterion(2, "theorem-derived bases match brute force on 100 random spaces", budget=60.0)
def test_criterion_2_oracle_equivalence(random_suite):
    assert len(random_suite) >= 100
    for space in random_suite:
        family = metric_bases(space)
        oracle1 = brute_force_dim(space, 1)
        assert tuple(sorted(family.bases(cap=None))) == oracle1.generators
        assert family.dim1 == oracle1.min_cardinality

        oracle2 = brute_force_dim(space, 2)
        assert oracle2.generators == (two_metric_basis(space),)
        assert oracle2.min_cardinality == dimensions(space).dim2


@criterion(3, "no 3-generator exists; witness is a partner pair distinguished only by itself")
def test_criterion_3_no_3_generator(sharp_fixtures, random_suite):
    spaces = [s for _, u, r in sharp_fixtures for s in (u, r)] + random_suite
    for space in spaces:
        check = is_k_generator(space, space.labels, 3)
        assert check == is_k_generator_reference(space, space.labels, 3)
        assert not check.ok
        x, y = check.witness
        assert check.witness_count == 2
        assert distinguishers(space, x, y) == tuple(sorted((x, y)))
        cls = classify_point(space, x)
        assert isinstance(cls, Partnered) and y in cls.partners


@criterion(4, "exact reconstruction and landmark-choice independence, 50 spaces up to n=64", budget=60.0)
def test_criterion_4_reconstruction(random_suite):
    rng = random.Random("reconstruction-acceptance")
    spaces = [
        random_dendrogram_space(
            rng.randint(2, 64), seed=1000 + i, value_count=rng.randint(1, 6)
        )
        for i in range(50)
    ]
    bases_seen = 0
    for space in spaces:
        ranks = space._rows()
        for basis in metric_bases(space).bases(cap=10):
            bases_seen += 1
            rebuilt = reconstruct(coordinates(space, basis))
            assert rebuilt.labels == space.labels
            assert np.array_equal(rebuilt._rows(), ranks)
            assert rebuilt.table.values == space.table.values

            # any distinguishing landmark yields the same maximum, for every pair
            cols = [space.index(s) for s in basis]
            sub = ranks[:, cols]
            for i, j in itertools.combinations(range(space.n), 2):
                diff = sub[i] != sub[j]
                maxima = np.maximum(sub[i], sub[j])[diff]
                assert maxima.size > 0 and (maxima == maxima[0]).all()
    assert bases_seen >= 50


@criterion(5, "minimal subspace equals P(X); subspace transfer cross-checked directly")
def test_criterion_5_minimal_subspace(random_suite):
    rng = random.Random("subspace-acceptance")
    corner_cases = 0
    for space in random_suite[:40]:
        part = partner_partition(space)
        px = set(part.partnered)
        basis = next(metric_bases(space).bases(cap=1))

        assert minimal_subspace(space, basis) == space.restrict(part.partnered)

        others = [lab for lab in space.labels if lab not in basis]
        for _ in range(20):
            subset = set(basis) | set(rng.sample(others, rng.randint(0, len(others))))
            answer = is_basis_of_subspace(space, basis, subset)
            assert answer == (px <= subset)

            if len(subset) < 2:
                continue
            restricted = space.restrict(subset)
            direct = is_k_generator(restricted, basis, 1).ok and all(
                not is_k_generator(restricted, [t for t in basis if t != d], 1).ok
                for d in basis
            )
            assert direct == (is_k_generator_reference(restricted, basis, 1).ok and all(
                not is_k_generator_reference(restricted, [t for t in basis if t != d], 1).ok
                for d in basis
            ))
            if answer:
                assert direct  # the structural transfer is confirmed directly
            elif direct:
                # accidental basis of the smaller space: possible only when
                # the restriction rearranges the partner partition, never
                # when all of P(X) is present
                corner_cases += 1
                assert not px <= subset
                induced = tuple(
                    sorted(
                        tuple(sorted(set(cls) & subset))
                        for cls in part.classes
                        if len(set(cls) & subset) >= 2
                    )
                )
                actual = tuple(sorted(partner_partition(restricted).classes))
                assert actual != induced
    print(f"  (structural/direct divergence on {corner_cases} accidental-basis restrictions)")


@criterion(6, "pseudopartnering traces strictly descend and end at a partnered point")
def test_criterion_6_traces(sharp_fixtures, random_suite):
    spaces = [s for _, u, r in sharp_fixtures for s in (u, r)] + random_suite
    spaces.append(parse_newick((DATA / "balanced4.nwk").read_text()))
    for space in spaces:
        for start in space.labels:
            trace = pseudopartnering_trace(space, start)
            dists = trace.dists
            assert dists[0] == math.inf
            assert all(a > b for a, b in zip(dists, dists[1:]))
            assert len(trace.steps) <= space.n
            assert trace.steps[-1].point == trace.terminal
            assert isinstance(trace.terminal_class, Partnered)
            assert isinstance(classify_point(space, trace.terminal), Partnered)


@criterion(7, "isosceles, ball-nesting and inside/outside indistinguishability at n=32")
def test_criterion_7_structural_properties():
    spaces = [
        random_dendrogram_space(32, seed=seed, value_count=vc)
        for seed, vc in [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6)]
    ]
    for space in spaces:
        ranks = space._rows()

        # every triangle is isosceles with a short base, exhaustively
        for x, y, z in itertools.combinations(space.labels, 3):
            assert triangle_profile(space, x, y, z).isosceles

        # collect every distinct ball as a member bitmask
        balls = []
        for i in range(space.n):
            for r in range(1, len(space.table) + 2):
                balls.append(ranks[i] < r)   # open ball of radius values[r-1]
                balls.append(ranks[i] <= r)  # closed ball
        members = {tuple(np.flatnonzero(b)) for b in balls}

        # intersecting balls nest
        sets = [frozenset(m) for m in members]
        for a, b in itertools.combinations(sets, 2):
            if a & b:
                assert a <= b or b <= a

        # points outside a ball cannot tell inside points apart
        for mask in members:
            inside = list(mask)
            outside = [j for j in range(space.n) if j not in mask]
            if len(inside) < 2 or not outside:
                continue
            block = ranks[np.ix_(inside, outside)]
            assert (block == block[0]).all()


@criterion(8, "parser golden files: Newick fixture and byte-stable CSV round trips")
def test_criterion_8_parser_goldens():
    tree = parse_newick((DATA / "balanced4.nwk").read_text())
    assert tree.labels == ("A", "B", "C", "D")
    expected = {
        ("A", "B"): 2, ("C", "D"): 2,
        ("A", "C"): 4, ("A", "D"): 4, ("B", "C"): 4, ("B", "D"): 4,
    }
    for (x, y), d in expected.items():
        assert tree.d(x, y) == d
    dims = dimensions(tree)
    assert (dims.dim1, dims.dim2) == (2, 4)
    assert write_distance_csv(tree) == (DATA / "balanced4.csv").read_text()

    for name, epsilon in [
        ("balanced4.csv", 0),
        ("recmin4.csv", 0),
        ("recmin4_6dec.csv", "1e-9"),
    ]:
        text = (DATA / name).read_text()
        space = parse_distance_csv(text, epsilon=epsilon)
        assert write_distance_csv(space) == text

    quantized = parse_distance_csv((DATA / "recmin4_6dec.csv").read_text(), epsilon="1e-9")
    exact = reciprocal_min_space(4)
    assert np.array_equal(quantized._rows(), exact._rows())
    assert dimensions(quantized) == dimensions(exact)
