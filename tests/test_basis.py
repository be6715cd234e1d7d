import itertools

import pytest

from ultrabase import (
    NotBasisError,
    PartnerPartition,
    UsageError,
    brute_force_dim,
    dimensions,
    distinguishers,
    distinguishes,
    is_basis_of_subspace,
    is_k_generator,
    metric_bases,
    minimal_subspace,
    partner_partition,
    random_dendrogram_space,
    reciprocal_min_space,
    two_metric_basis,
    uniform_space,
)
from ultrabase.errors import InternalInvariantError, UnknownLabelError
from test_reference import is_k_generator_reference


def test_distinguishes(recmin4, uniform3):
    assert distinguishes(uniform3, "1", "1", "2")  # a point always separates itself
    assert not distinguishes(uniform3, "3", "1", "2")
    assert distinguishes(recmin4, "3", "1", "2")
    with pytest.raises(UsageError):
        distinguishes(uniform3, "3", "1", "1")


def test_distinguishers(recmin4, uniform3):
    assert distinguishers(uniform3, "1", "2") == ("1", "2")  # partners: only themselves
    assert distinguishers(recmin4, "1", "2") == ("1", "2", "3", "4")
    two = uniform_space(2)
    assert distinguishers(two, "1", "2") == ("1", "2")
    with pytest.raises(UsageError, match="^distinguishers needs two distinct points$"):
        distinguishers(uniform3, "1", "1")


def test_is_k_generator_examples(recmin4, uniform3):
    assert is_k_generator(recmin4, ["3"], 1).ok

    check = is_k_generator(uniform3, ["1"], 1)
    assert not check.ok
    assert check.witness == ("2", "3") and check.witness_count == 0

    for space in (uniform3, recmin4):
        check = is_k_generator(space, space.labels, 3)
        assert not check.ok
        assert check.witness_count == 2  # a partner pair, distinguished only by itself


def test_is_k_generator_edge_cases(uniform3):
    assert not is_k_generator(uniform3, [], 1).ok
    with pytest.raises(UsageError):
        is_k_generator(uniform3, ["1"], 0)
    with pytest.raises(UnknownLabelError):
        is_k_generator(uniform3, ["nope"], 1)
    # duplicates in the landmark list collapse
    assert is_k_generator(uniform3, ["1", "1", "2"], 1).ok


def test_is_k_generator_memory_is_linear_in_n():
    import tracemalloc

    space = random_dendrogram_space(400, seed=1, value_count=8)
    tracemalloc.start()
    try:
        check = is_k_generator(space, space.labels, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.ok
    assert peak < 8 * 2**20  # an n x n x |S| comparison needs about 64 MB here


def test_metric_bases_uniform(uniform3):
    family = metric_bases(uniform3)
    assert family.classes == (("1", "2", "3"),)
    assert family.count == 3
    assert set(family.bases()) == {("1", "2"), ("1", "3"), ("2", "3")}
    assert next(family.bases(cap=1)) == ("1", "2")  # lexicographically first


def test_metric_bases_recmin(recmin4):
    family = metric_bases(recmin4)
    assert family.classes == (("3", "4"),)
    assert family.count == 2
    assert list(family.bases()) == [("3",), ("4",)]


def test_metric_bases_two_point():
    family = metric_bases(uniform_space(2))
    assert family.count == 2
    assert set(family.bases()) == {("1",), ("2",)}


def test_basis_family_membership(recmin4, uniform3):
    fam = metric_bases(uniform3)
    assert fam.is_basis(["1", "2"])
    assert not fam.is_basis(["1"])
    assert not fam.is_basis(["1", "2", "3"])  # generator, but not minimal
    fam = metric_bases(recmin4)
    assert fam.is_basis(["4"])
    assert not fam.is_basis(["1"])  # pseudopartnered point
    assert not fam.is_basis(["3", "4"])


def test_basis_family_cap_and_core():
    family = metric_bases(uniform_space(6))
    assert family.count == 6
    assert len(list(family.bases(cap=4))) == 4


def test_every_enumerated_basis_is_minimal_generator():
    for seed in range(6):
        space = random_dendrogram_space(8, seed=seed, value_count=3)
        for basis in metric_bases(space).bases(cap=20):
            assert is_k_generator(space, basis, 1).ok
            assert is_k_generator_reference(space, basis, 1).ok
            for drop in basis:
                rest = [s for s in basis if s != drop]
                assert not is_k_generator(space, rest, 1).ok
                assert not is_k_generator_reference(space, rest, 1).ok


def test_each_basis_misses_at_most_one_per_class():
    for seed in range(6):
        space = random_dendrogram_space(8, seed=seed, value_count=4)
        classes = partner_partition(space).classes
        for basis in metric_bases(space).bases(cap=20):
            chosen = set(basis)
            for cls in classes:
                assert len(set(cls) - chosen) == 1


def test_two_metric_basis(recmin4, uniform4):
    assert two_metric_basis(uniform4) == ("1", "2", "3", "4")
    assert two_metric_basis(recmin4) == ("3", "4")
    assert two_metric_basis(uniform_space(2)) == ("1", "2")
    assert is_k_generator(recmin4, two_metric_basis(recmin4), 2).ok


def test_partner_pairs_sit_in_every_2_generator():
    for seed in range(4):
        space = random_dendrogram_space(7, seed=seed, value_count=3)
        classes = [set(cls) for cls in partner_partition(space).classes]
        for gen in brute_force_dim(space, 2).generators:
            for cls in classes:
                assert cls <= set(gen)


def test_dimensions(recmin7):
    dims = dimensions(uniform_space(5))
    assert (dims.dim1, dims.dim2) == (4, 5)
    dims = dimensions(recmin7)
    assert (dims.dim1, dims.dim2) == (1, 2)
    dims = dimensions(uniform_space(2))
    assert (dims.dim1, dims.dim2) == (1, 2)


def test_dimension_bounds_hold_on_random_spaces():
    for seed in range(12):
        space = random_dendrogram_space(9, seed=seed, value_count=(seed % 4) + 1)
        dims = dimensions(space)
        assert 1 <= dims.dim1 <= space.n - 1
        assert 2 <= dims.dim2 <= space.n


def test_no_3_generator_anywhere():
    spaces = [uniform_space(4), reciprocal_min_space(6)]
    spaces += [random_dendrogram_space(8, seed=s, value_count=3) for s in range(4)]
    for space in spaces:
        check = is_k_generator(space, space.labels, 3)
        assert not check.ok
        x, y = check.witness
        assert distinguishers(space, x, y) == tuple(sorted((x, y)))


def test_minimal_subspace(recmin4, uniform3):
    sub = minimal_subspace(recmin4, ["3"])
    assert sub.labels == ("3", "4")
    assert sub == recmin4.restrict(["3", "4"])

    assert minimal_subspace(uniform3, ["1", "2"]) == uniform3


def test_minimal_subspace_rejects_non_basis(recmin4):
    with pytest.raises(NotBasisError) as exc:
        minimal_subspace(recmin4, ["1"])
    assert exc.value.witness == ("2", "3")

    with pytest.raises(NotBasisError, match="not a basis"):
        minimal_subspace(recmin4, ["3", "4"])  # generator but too big


def test_is_basis_of_subspace(recmin4):
    assert is_basis_of_subspace(recmin4, ["3"], ["1", "3", "4"])
    assert not is_basis_of_subspace(recmin4, ["3"], ["2", "3"])
    assert is_basis_of_subspace(recmin4, ["3"], recmin4.labels)
    with pytest.raises(UsageError):
        is_basis_of_subspace(recmin4, ["3"], ["1", "2"])  # landmark not inside
    with pytest.raises(UnknownLabelError):
        is_basis_of_subspace(recmin4, ["3"], ["3", "4", "zz"])


def test_is_basis_of_subspace_agrees_with_direct_check():
    import random

    rng = random.Random(7)
    for seed in range(5):
        space = random_dendrogram_space(8, seed=seed, value_count=3)
        basis = next(metric_bases(space).bases(cap=1))
        px = set(partner_partition(space).partnered)
        rest = [lab for lab in space.labels if lab not in basis]
        for _ in range(10):
            extra = rng.sample(rest, rng.randint(0, len(rest)))
            subset = sorted(set(basis) | set(extra))
            # when True, the function re-verifies directly on the restriction
            assert is_basis_of_subspace(space, basis, subset) == (px <= set(subset))


def test_subspace_transfer_is_structural_not_accidental(recmin4):
    # cutting 4 away lets 3 re-partner with 2, so {3} is a basis of the
    # two-point restriction in its own right; the transfer check still
    # answers False because the partnered set of the full space is gone
    assert not is_basis_of_subspace(recmin4, ["3"], ["2", "3"])
    restricted = recmin4.restrict(["2", "3"])
    assert metric_bases(restricted).is_basis(["3"])
    assert brute_force_dim(restricted, 1).generators == (("2",), ("3",))


def test_large_family_stays_in_product_form():
    # 12 partner pairs: 2^12 bases, enumeration must stay lazy and capped
    from fractions import Fraction as F

    n = 24
    matrix = [
        [F(0) if i == j else (F(1) if i // 2 == j // 2 else F(2)) for j in range(n)]
        for i in range(n)
    ]
    from ultrabase import build_space, verify_roundtrip

    space = build_space([f"q{i:02d}" for i in range(n)], matrix)
    family = metric_bases(space)
    assert family.count == 2**12 and family.dim1 == 12
    shown = list(family.bases(cap=10))
    assert len(shown) == 10
    for basis in shown:
        assert is_k_generator(space, basis, 1).ok
    assert verify_roundtrip(space, shown[0])


def test_oracle_equivalence_small():
    spaces = [uniform_space(4), reciprocal_min_space(5)]
    spaces += [random_dendrogram_space(6, seed=s, value_count=2) for s in range(4)]
    for space in spaces:
        family = metric_bases(space)
        oracle = brute_force_dim(space, 1)
        assert sorted(family.bases(cap=None)) == sorted(oracle.generators)
        assert family.dim1 == oracle.min_cardinality
        oracle2 = brute_force_dim(space, 2)
        assert oracle2.generators == (two_metric_basis(space),)


@pytest.mark.parametrize("n", range(2, 13))
def test_verdicts_match_brute_force(n):
    # a set is a k-generator iff it contains a minimum one (generators are upward closed)
    for space in (random_dendrogram_space(n, seed=n, value_count=n % 4 + 1), reciprocal_min_space(n)):
        labels = sorted(space.labels)
        subsets = [set(c) for size in range(n + 1) for c in itertools.combinations(labels, size)]
        for k in (1, 2, 3):
            minimum = [set(g) for g in brute_force_dim(space, k).generators]
            for s in subsets:
                assert is_k_generator(space, s, k).ok == any(g <= s for g in minimum), (k, s)


def test_true_verdicts_never_reach_the_row_search(monkeypatch):
    import ultrabase.basis as basis_module

    calls = []
    search = basis_module._first_short_pair
    monkeypatch.setattr(basis_module, "_first_short_pair",
                        lambda space, cols, k: calls.append(k) or search(space, cols, k))
    for seed in range(6):
        space = random_dendrogram_space(10, seed=seed, value_count=seed % 3 + 1)
        for basis in metric_bases(space).bases(cap=5):
            assert is_k_generator(space, basis, 1).ok
        assert is_k_generator(space, two_metric_basis(space), 2).ok
        assert is_k_generator(space, space.labels, 1).ok
        assert minimal_subspace(space, next(metric_bases(space).bases(cap=1)))
    assert calls == []
    assert not is_k_generator(space, space.labels, 3).ok
    assert calls == [3]


def test_false_verdict_without_a_witness_is_an_internal_error(monkeypatch, recmin4):
    import ultrabase.basis as basis_module

    # {4} is a basis, but a wrong partition says it misses both of 1 and 2
    wrong = PartnerPartition(classes=(("1", "2"),), pseudopartnered=("3", "4"))
    monkeypatch.setattr(basis_module, "partner_partition", lambda space: wrong)
    with pytest.raises(InternalInvariantError):
        is_k_generator(recmin4, ["4"], 1)
