"""Brute-force references and instance generators for cross-validation.

Everything here works straight from the definitions by exhaustive
enumeration, deliberately ignoring the structure theory, so that the
theorem-driven answers in :mod:`ultrabase.basis` have something
independent to be compared against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basis import dimensions, metric_bases, two_metric_basis
from .core import UltrametricSpace, _Gaps, build_space
from .errors import UsageError
from .values import ValueList

BRUTE_FORCE_CAP = 16
CROSS_CHECK_CAP = 12


@dataclass(frozen=True)
class OracleResult:
    """Minimum k-generator size and the complete list of minimum generators."""

    k: int
    min_cardinality: int | None  # None when not even S = X works
    generators: tuple[tuple[str, ...], ...]


def brute_force_dim(space: UltrametricSpace, k: int) -> OracleResult:
    """Exhaustive search for all minimum k-generators, smallest size first.

    Checks subsets in increasing cardinality and returns every generator
    of the first size that admits one. Capped at 16 points.
    """
    if space.n > BRUTE_FORCE_CAP:
        raise UsageError(f"brute force is capped at {BRUTE_FORCE_CAP} points, got {space.n}")
    if k < 1:
        raise UsageError("k must be a positive integer")

    order = sorted(space.labels)
    idx = [space.index(lab) for lab in order]
    n = space.n

    # differs[z, p]: does point z tell pair p apart (pairs in combinations order)
    sub = space._rows()[np.ix_(idx, idx)]
    first, second = np.triu_indices(n, 1)
    differs = (sub[first] != sub[second]).T.astype(np.int8)

    def generates(subset: tuple[int, ...]) -> bool:
        return bool((differs[list(subset)].sum(axis=0) >= k).all())

    if not generates(tuple(range(n))):
        return OracleResult(k=k, min_cardinality=None, generators=())

    for size in range(1, n + 1):
        found = [
            tuple(order[z] for z in subset)
            for subset in itertools.combinations(range(n), size)
            if generates(subset)
        ]
        if found:
            return OracleResult(k=k, min_cardinality=size, generators=tuple(found))
    raise AssertionError("unreachable: the full set was already checked")


def uniform_space(n: int, value: int | Fraction = 1) -> UltrametricSpace:
    """n points, every pairwise distance equal. One partner class of all points."""
    if n < 2:
        raise UsageError("need at least two points")
    v = Fraction(value)
    labels = [str(i + 1) for i in range(n)]
    matrix = [[v if i != j else Fraction(0) for j in range(n)] for i in range(n)]
    return build_space(labels, matrix)


def reciprocal_min_space(n: int) -> UltrametricSpace:
    """Points 1..n with d(a,b) = 1/min(a,b); only n-1 and n are partners."""
    if n < 2:
        raise UsageError("need at least two points")
    labels = [str(i + 1) for i in range(n)]
    matrix = [
        [Fraction(0) if i == j else Fraction(1, min(i + 1, j + 1)) for j in range(n)]
        for i in range(n)
    ]
    return build_space(labels, matrix)


def random_dendrogram_space(n: int, seed: int, value_count: int = 3) -> UltrametricSpace:
    """Random hierarchy with at most ``value_count`` distinct merge heights.

    Blocks are split recursively into random sub-blocks; cross-block
    pairs get the current height, and a block that reaches the deepest
    level becomes a uniform cluster (hence a partner class). Ultrametric
    by construction, deterministic per (n, seed, value_count). The split
    records the points in leaf order and the level of the gap before
    each leaf, which fixes the space without an n x n matrix.
    """
    if n < 2:
        raise UsageError("need at least two points")
    if value_count < 1:
        raise UsageError("value_count must be positive")
    rng = random.Random(f"dendrogram:{n}:{seed}:{value_count}")
    heights = sorted(rng.sample(range(1, 10 * value_count + 1), value_count), reverse=True)

    width = len(str(n))
    labels = [f"p{i + 1:0{width}d}" for i in range(n)]
    order: list[int] = []
    levels: list[int] = []  # levels[k]: level of the gap between leaves k - 1 and k
    stack = [(list(range(n)), 0, 0)]  # block, its level, the level of the gap before it
    while stack:
        block, level, gap = stack.pop()
        if len(block) == 1 or level == value_count - 1:
            order += block
            levels += [gap] + [level] * (len(block) - 1)
            continue
        shuffled = block[:]
        rng.shuffle(shuffled)
        part_count = rng.randint(2, len(block))
        cuts = sorted(rng.sample(range(1, len(block)), part_count - 1))
        parts = [shuffled[s:e] for s, e in zip([0, *cuts], [*cuts, len(block)])]
        # depth first, parts in order: the draws come in the order of a recursive fill
        stack += [(part, level + 1, level) for part in reversed(parts[1:])]
        stack.append((parts[0], level + 1, gap))

    # the zero, then the heights increasing: level l's height is at position value_count - l
    ids = value_count - np.array(levels[1:], dtype=np.int32)
    return build_space(labels, _Gaps(order, ids, ValueList.of_units([0, *reversed(heights)], 0)))


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CrossCheckReport:
    passed: bool
    checks: tuple[CheckOutcome, ...]

    def first_failure(self) -> CheckOutcome | None:
        return next((c for c in self.checks if not c.passed), None)


def cross_check(space: UltrametricSpace) -> CrossCheckReport:
    """Compare every theorem-derived result against brute force.

    Covers: the set of metric bases, dim1, the unique minimum
    2-generator, dim2, the nonexistence of 3-generators, and oracle
    monotonicity. Capped at 12 points.
    """
    if space.n > CROSS_CHECK_CAP:
        raise UsageError(f"cross_check is capped at {CROSS_CHECK_CAP} points, got {space.n}")

    checks: list[CheckOutcome] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckOutcome(name=name, passed=passed, detail=detail))

    dims = dimensions(space)
    family = metric_bases(space)
    oracle1 = brute_force_dim(space, 1)

    derived = sorted(family.bases(cap=None))
    record(
        "metric-bases",
        tuple(derived) == oracle1.generators,
        f"derived {len(derived)} bases vs brute-force {len(oracle1.generators)}; "
        f"first difference: "
        f"{next(iter(set(derived) ^ set(oracle1.generators)), None)}",
    )
    record(
        "dim1",
        oracle1.min_cardinality == dims.dim1,
        f"derived {dims.dim1} vs brute-force {oracle1.min_cardinality}",
    )

    oracle2 = brute_force_dim(space, 2)
    px = two_metric_basis(space)
    record(
        "two-metric-basis",
        oracle2.generators == (px,),
        f"derived {px} vs brute-force {oracle2.generators[:3]}",
    )
    record(
        "dim2",
        oracle2.min_cardinality == dims.dim2,
        f"derived {dims.dim2} vs brute-force {oracle2.min_cardinality}",
    )

    oracle3 = brute_force_dim(space, 3)
    record(
        "no-3-generator",
        oracle3.min_cardinality is None,
        f"brute force found a 3-generator of size {oracle3.min_cardinality}",
    )
    record(
        "monotone",
        oracle1.min_cardinality <= oracle2.min_cardinality,
        f"min size for k=1 is {oracle1.min_cardinality}, for k=2 is {oracle2.min_cardinality}",
    )

    return CrossCheckReport(passed=all(c.passed for c in checks), checks=tuple(checks))
