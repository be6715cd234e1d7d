"""Metric generators, bases and dimensions of a finite ultrametric space.

The structure theory makes these computations combinatorial instead of
exhaustive: a set is a metric basis exactly when it takes every partner
class except one freely chosen element of each, the set of all partnered
points P(X) is the unique 2-metric basis, and no set whatsoever is a
3-metric generator (a partner pair is distinguished only by itself).
The brute-force counterparts used to cross-check all of this live in
:mod:`ultrabase.oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import UltrametricSpace
from .errors import InternalInvariantError, NotBasisError, UsageError
from .partner import partner_partition

DEFAULT_ENUMERATION_CAP = 10_000


def distinguishes(space: UltrametricSpace, z: str, x: str, y: str) -> bool:
    """True when d(x,z) != d(y,z)."""
    if x == y:
        raise UsageError("distinguishes needs two distinct points")
    return space.rank(x, z) != space.rank(y, z)


def distinguishers(space: UltrametricSpace, x: str, y: str) -> tuple[str, ...]:
    """All points telling x and y apart; always contains x and y themselves."""
    if x == y:
        raise UsageError("distinguishers needs two distinct points")
    differ = np.not_equal(*space._rows([space.index(x), space.index(y)])).tolist()
    return tuple(lab for lab in sorted(space.labels) if differ[space.index(lab)])


@dataclass(frozen=True)
class GeneratorCheck:
    """Outcome of a k-generator test, with a witness pair on failure."""

    ok: bool
    k: int
    witness: tuple[str, str] | None = None
    witness_count: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_k_generator(space: UltrametricSpace, landmarks: Iterable[str], k: int) -> GeneratorCheck:
    """Does every pair of points have at least k distinguishers in the set?

    The verdict comes from the partner classes: a set is a metric
    generator iff it misses at most one point of each class, a 2-metric
    generator iff it contains P(X), and never a 3-metric generator. On
    failure the witness is the lexicographically first failing pair,
    together with how many landmarks actually distinguish it. An empty
    landmark set simply fails (witness: the first pair), it is not an
    error.
    """
    if k < 1:
        raise UsageError("k must be a positive integer")
    chosen = {space.index(s) for s in landmarks}
    if k <= 2:
        missed = (sum(space.index(lab) not in chosen for lab in cls)
                  for cls in partner_partition(space).classes)
        if all(m <= 2 - k for m in missed):
            return GeneratorCheck(ok=True, k=k)
    check = _first_short_pair(space, sorted(chosen), k)
    if check is None:
        raise InternalInvariantError(
            f"no pair has fewer than {k} distinguishers, but the partner classes "
            f"say the landmarks are not a {k}-metric generator"
        )
    return check


def _first_short_pair(space: UltrametricSpace, cols: list[int], k: int) -> GeneratorCheck | None:
    """The lexicographically first pair with fewer than k distinguishers
    among the columns, or None. Each point is compared with the later
    ones in label order, so memory is O(n * |cols|)."""
    labels = sorted(space.labels)
    sub = space._rows(cols).T[[space.index(lab) for lab in labels]]
    for i in range(len(labels) - 1):
        counts = (sub[i + 1:] != sub[i]).sum(axis=1)
        short = np.flatnonzero(counts < k)
        if short.size:
            j = int(short[0])
            return GeneratorCheck(
                ok=False,
                k=k,
                witness=(labels[i], labels[i + 1 + j]),
                witness_count=int(counts[j]),
            )
    return None


@dataclass(frozen=True)
class BasisFamily:
    """All metric bases, in product form.

    A concrete basis drops exactly one freely chosen element from each
    partner class and keeps everything else of P(X); pseudopartnered
    points never appear. The family is kept unexpanded because ``count``
    (the product of the class sizes) can be exponential in n.
    """

    classes: tuple[tuple[str, ...], ...]
    count: int

    @property
    def dim1(self) -> int:
        return sum(len(cls) - 1 for cls in self.classes)

    def bases(self, cap: int | None = DEFAULT_ENUMERATION_CAP) -> Iterator[tuple[str, ...]]:
        """Yield concrete bases as sorted tuples, at most ``cap`` of them.

        The first basis yielded drops the largest element of every class,
        which makes it the lexicographically smallest basis.
        """
        pool = sorted(lab for cls in self.classes for lab in cls)
        dropped_choices = [tuple(sorted(cls, reverse=True)) for cls in self.classes]
        for i, dropped in enumerate(itertools.product(*dropped_choices)):
            if cap is not None and i >= cap:
                return
            out = set(dropped)
            yield tuple(lab for lab in pool if lab not in out)

    def is_basis(self, landmarks: Iterable[str]) -> bool:
        """Membership test against the product form, without enumeration."""
        s = set(landmarks)
        covered = 0
        for cls in self.classes:
            inside = sum(1 for lab in cls if lab in s)
            if inside < len(cls) - 1:
                return False
            covered += inside
        # every landmark must lie in some class, and each class misses one element
        return covered == len(s) and len(s) == self.dim1


def metric_bases(space: UltrametricSpace) -> BasisFamily:
    """Product-form description of every metric basis of the space."""
    partition = partner_partition(space)
    count = math.prod(len(cls) for cls in partition.classes)
    return BasisFamily(classes=partition.classes, count=count)


def two_metric_basis(space: UltrametricSpace) -> tuple[str, ...]:
    """P(X), the unique set distinguishing every pair twice at minimum size."""
    return partner_partition(space).partnered


@dataclass(frozen=True)
class DimensionReport:
    n: int
    dim1: int
    dim2: int

    def __post_init__(self):
        if not (1 <= self.dim1 <= self.n - 1 and 2 <= self.dim2 <= self.n):
            raise InternalInvariantError(
                f"dimension bounds violated: n={self.n} dim1={self.dim1} dim2={self.dim2}"
            )


def dimensions(space: UltrametricSpace) -> DimensionReport:
    """Metric dimensions from the partner classes.

    dim1 sums (class size - 1) over the partner classes, dim2 counts the
    partnered points. Both always satisfy 1 <= dim1 <= n-1 and
    2 <= dim2 <= n.
    """
    partition = partner_partition(space)
    return DimensionReport(
        n=space.n,
        dim1=sum(len(cls) - 1 for cls in partition.classes),
        dim2=sum(len(cls) for cls in partition.classes),
    )


def _require_basis(space: UltrametricSpace, landmarks: Iterable[str]) -> tuple[str, ...]:
    """Normalize a landmark set and raise NotBasisError unless it is a basis."""
    s = tuple(sorted({lab for lab in landmarks}))
    for lab in s:
        space.index(lab)
    check = is_k_generator(space, s, 1)
    if not check.ok:
        assert check.witness is not None
        x, y = check.witness
        raise NotBasisError(
            f"{{{', '.join(s)}}} is not a metric generator: "
            f"pair ({x},{y}) has no distinguisher in it",
            witness=(x, y),
        )
    family = metric_bases(space)
    if not family.is_basis(s):
        raise NotBasisError(
            f"{{{', '.join(s)}}} is a metric generator but not a basis "
            f"(size {len(s)}, dimension {family.dim1})"
        )
    return s


def minimal_subspace(space: UltrametricSpace, landmarks: Iterable[str]) -> UltrametricSpace:
    """Smallest subspace still having the given basis as a metric basis.

    That subspace is the restriction to P(X): dropping any partnered
    point breaks some partner class and with it the basis property, while
    every pseudopartnered point is redundant.
    """
    _require_basis(space, landmarks)
    return space.restrict(partner_partition(space).partnered)


def is_basis_of_subspace(
    space: UltrametricSpace, landmarks: Iterable[str], subspace_points: Iterable[str]
) -> bool:
    """Does the basis transfer structurally to the restriction?

    Returns whether the restriction contains all of P(X). When it does,
    the partner classes survive unchanged and the landmark set is a
    metric basis of the restriction for the same structural reason it is
    one of the full space; that implication is re-verified here by a
    direct generator-plus-minimality check on the restricted space.

    The converse does not hold: cutting away a point's only partners can
    let the survivor pair up with a formerly pseudopartnered point, and
    the landmark set may then be a basis of the small space by accident
    (e.g. 1/min on {1..4}: {3} is a basis of the restriction to {2,3}
    even though the partnered set {3,4} does not survive). This function
    reports False for such restrictions; use
    ``metric_bases(space.restrict(points)).is_basis(landmarks)`` to query
    the restriction in its own right.
    """
    s = _require_basis(space, landmarks)
    sub = {lab for lab in subspace_points}
    for lab in sub:
        space.index(lab)
    if not set(s) <= sub:
        raise UsageError("the subspace must contain every landmark")

    structural = set(partner_partition(space).partnered) <= sub

    if structural:
        restricted = space.restrict(sub)
        direct = is_k_generator(restricted, s, 1).ok and all(
            not is_k_generator(restricted, [t for t in s if t != drop], 1).ok
            for drop in s
        )
        if not direct:
            raise InternalInvariantError(
                f"restriction to {sorted(sub)} contains every partnered point "
                f"but the direct basis check failed"
            )
    return structural
