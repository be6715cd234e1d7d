"""Partner structure of a finite ultrametric space.

Two points are partners when their mutual distance is simultaneously the
minimum distance from each of them to the rest of the space. Being
partners is an equivalence relation on the set of partnered points, and
the resulting classes drive everything else in this package: they
describe all metric bases, the unique 2-metric basis, and the minimal
basis-preserving subspace.

A point that is not partnered still attains its minimum somewhere (the
space is finite); it is called pseudopartnered. Every point is one or
the other: points whose minimum is not attained exist only in infinite
spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import UltrametricSpace
from .errors import InternalInvariantError

INFINITY = math.inf


@dataclass(frozen=True)
class Partnered:
    """The point reciprocates minimum distance with every listed partner."""

    partners: tuple[str, ...]
    min_dist: Fraction


@dataclass(frozen=True)
class Pseudopartnered:
    """Minimum attained on ``nearest``, but no element reciprocates it."""

    nearest: tuple[str, ...]
    min_dist: Fraction


PointClass = Partnered | Pseudopartnered


@dataclass(frozen=True)
class PartnerPartition:
    """Every point of the space, sorted into partner classes or the rest.

    ``classes`` are the equivalence classes of the partner relation (each
    of size >= 2, all pairwise distances within a class equal).
    """

    classes: tuple[tuple[str, ...], ...]
    pseudopartnered: tuple[str, ...]

    @property
    def partnered(self) -> tuple[str, ...]:
        """P(X): all partnered points, sorted."""
        return tuple(sorted(lab for cls in self.classes for lab in cls))

    def class_of(self, label: str) -> tuple[str, ...] | None:
        for cls in self.classes:
            if label in cls:
                return cls
        return None


def _min_offdiag_ranks(space: UltrametricSpace) -> np.ndarray:
    """Per-point minimum off-diagonal rank (the rank of its nearest distance),
    computed once per space and kept on it."""
    mins = vars(space).get("_min_offdiag_ranks")
    if mins is None:
        arr = space.ranks.copy()
        np.fill_diagonal(arr, len(space.table) + 1)
        mins = vars(space)["_min_offdiag_ranks"] = arr.min(axis=1)
        mins.setflags(write=False)
    return mins


def nearest_set(space: UltrametricSpace, x: str) -> tuple[tuple[str, ...], Fraction]:
    """All points realizing min_{z != x} d(x, z), with that minimum."""
    i = space.index(x)
    m = int(_min_offdiag_ranks(space)[i])
    # m >= 1, and rank 0 sits only on the diagonal, so x is not among the hits
    hits = np.flatnonzero(space.ranks[i] == m).tolist()
    return tuple(sorted(map(space.labels.__getitem__, hits))), space.table.value(m)


def classify_point(space: UltrametricSpace, x: str) -> PointClass:
    """Partnered with its full reciprocating set, else pseudopartnered."""
    nearest, min_dist = nearest_set(space, x)
    mins = _min_offdiag_ranks(space)
    m = mins[space.index(x)]
    partners = tuple(lab for lab in nearest if mins[space.index(lab)] == m)
    if partners:
        return Partnered(partners=partners, min_dist=min_dist)
    return Pseudopartnered(nearest=nearest, min_dist=min_dist)


def partner_partition(space: UltrametricSpace) -> PartnerPartition:
    """Split X into partner classes and pseudopartnered points.

    Classes are connected components of the partner relation; the theory
    makes the relation transitive on partnered points, so components are
    genuine equivalence classes. That and the equal-distance invariant
    are re-checked here because the rest of the package builds on them.
    The space and the partition are immutable, so the partition is
    computed once per space and kept on it.
    """
    cached = vars(space).get("_partner_partition")
    if cached is None:
        cached = vars(space)["_partner_partition"] = _partition(space)
    return cached


def _partition(space: UltrametricSpace) -> PartnerPartition:
    mins = _min_offdiag_ranks(space)
    n = space.n
    ranks = space.ranks

    partners_of: dict[int, list[int]] = {}
    for i in range(n):
        # the diagonal (rank 0) never equals a minimum, so i is not its own mate
        mates = np.flatnonzero((ranks[i] == mins[i]) & (mins == mins[i])).tolist()
        if mates:
            partners_of[i] = mates

    classes: list[tuple[str, ...]] = []
    seen: set[int] = set()
    for i in sorted(partners_of, key=lambda i: space.labels[i]):
        if i in seen:
            continue
        stack, component = [i], {i}
        while stack:
            cur = stack.pop()
            for j in partners_of[cur]:
                if j not in component:
                    component.add(j)
                    stack.append(j)
        seen |= component
        members = sorted(space.labels[j] for j in component)
        common = mins[i]
        for a in component:
            for b in component:
                if a != b and ranks[a][b] != common:
                    raise InternalInvariantError(
                        f"partner class {members} has unequal internal distances"
                    )
        classes.append(tuple(members))

    classes.sort(key=lambda cls: cls[0])
    partnered = {lab for cls in classes for lab in cls}
    pseudo = tuple(sorted(set(space.labels) - partnered))
    if not classes:
        raise InternalInvariantError("finite space without partner points")
    return PartnerPartition(classes=tuple(classes), pseudopartnered=pseudo)


@dataclass(frozen=True)
class TraceStep:
    point: str
    dist: Fraction | float  # math.inf on the first step only


@dataclass(frozen=True)
class PseudopartneringTrace:
    """Greedy nearest-point descent from ``start``.

    ``steps[k]`` holds the k-th visited point together with the distance
    at which it was entered (infinity for the start). The walk stops when
    the open ball of the current radius around the current point contains
    nothing else; that last point is ``terminal`` and is always partnered.
    """

    start: str
    steps: tuple[TraceStep, ...]
    terminal: str
    terminal_class: Partnered

    @property
    def dists(self) -> tuple[Fraction | float, ...]:
        return tuple(s.dist for s in self.steps)


def pseudopartnering_trace(space: UltrametricSpace, x: str) -> PseudopartneringTrace:
    """Run the descent from ``x``, breaking ties by smallest label.

    Each move goes to the nearest point strictly inside the current ball,
    so the entry distances strictly decrease and (the space being finite)
    the walk visits at most n points.
    """
    cur = space.index(x)
    radius = len(space.table) + 1  # sentinel rank above every real distance
    steps = [TraceStep(point=x, dist=INFINITY)]

    for _ in range(space.n):
        row = space.ranks[cur]
        inside = row[(row > 0) & (row < radius)]  # rank 0 only on the diagonal
        if not inside.size:
            break
        best = int(inside.min())
        nxt = min(np.flatnonzero(row == best).tolist(), key=space.labels.__getitem__)
        steps.append(TraceStep(point=space.labels[nxt], dist=space.table.value(best)))
        cur, radius = nxt, best
    else:
        raise InternalInvariantError("pseudopartnering trace exceeded the point count")

    terminal = space.labels[cur]
    cls = classify_point(space, terminal)
    if not isinstance(cls, Partnered):
        raise InternalInvariantError(
            f"trace terminal {terminal!r} is not partnered; finite theory forbids this"
        )
    return PseudopartneringTrace(
        start=x, steps=tuple(steps), terminal=terminal, terminal_class=cls
    )
