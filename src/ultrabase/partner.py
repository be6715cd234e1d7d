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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
        return next((cls for cls in self.classes if label in cls), None)


class _Partners(NamedTuple):
    mins: np.ndarray  # each point's minimum off-diagonal rank (its nearest distance)
    class_at: list[tuple[str, ...] | None]  # each point's class; None: pseudopartnered
    partition: PartnerPartition


def _partners(space: UltrametricSpace) -> _Partners:
    """The space's partner record, computed once and kept on the (immutable) space."""
    cached = vars(space).get("_partners")
    if cached is None:
        cached = vars(space)["_partners"] = _mate_classes(space)
    return cached


def _mate_classes(space: UltrametricSpace) -> _Partners:
    """Read the classes off the mate mask in one O(n²) pass.

    Points i != j are mates when d(i, j) is the minimum of both. On an
    ultrametric that is transitive: if i~j and j~k at minimum m, then
    m <= d(i, k) <= max(d(i, j), d(j, k)) = m. So a point's class is the
    point and its mates, and each row of the mask with the diagonal set
    equals the row of its first member, which is re-checked here.
    """
    labels, ranks = space.labels, space.ranks
    # rank 0 sits only on the diagonal, so no point is its own nearest or mate
    mins = ranks.min(axis=1, where=ranks > 0, initial=len(space.table) + 1)
    rows = ranks == mins[:, None]
    rows &= mins == mins[:, None]
    np.fill_diagonal(rows, True)  # a row: the point's class, or the point alone
    first = rows.argmax(axis=1)
    bad = np.flatnonzero((rows != rows[first]).any(axis=1))
    if bad.size:
        # a bad row and its first member's row differ, so their union is no clique
        members = sorted(itertools.compress(labels, rows[rows[bad[0]]].any(axis=0).tolist()))
        raise InternalInvariantError(f"partner class {members} has unequal internal distances")
    first = first.tolist()
    groups: dict[int, list[str]] = {}  # opened in label order: sorted by first label
    for i in sorted(range(space.n), key=labels.__getitem__):
        groups.setdefault(first[i], []).append(labels[i])
    classes = {r: tuple(members) for r, members in groups.items() if len(members) > 1}
    if not classes:
        raise InternalInvariantError("finite space without partner points")
    pseudo = tuple(members[0] for members in groups.values() if len(members) == 1)
    partition = PartnerPartition(classes=tuple(classes.values()), pseudopartnered=pseudo)
    return _Partners(mins, list(map(classes.get, first)), partition)


def nearest_set(space: UltrametricSpace, x: str) -> tuple[tuple[str, ...], Fraction]:
    """All points realizing min_{z != x} d(x, z), with that minimum."""
    i = space.index(x)
    m = int(_partners(space).mins[i])
    # m >= 1, and rank 0 sits only on the diagonal, so x is not among the hits
    hits = np.flatnonzero(space.ranks[i] == m).tolist()
    return tuple(sorted(map(space.labels.__getitem__, hits))), space.table.value(m)


def classify_point(space: UltrametricSpace, x: str) -> PointClass:
    """Partnered with its full reciprocating set, else pseudopartnered."""
    nearest, min_dist = nearest_set(space, x)
    cls = _partners(space).class_at[space.index(x)]
    if cls is not None:
        return Partnered(partners=tuple(lab for lab in cls if lab != x), min_dist=min_dist)
    return Pseudopartnered(nearest=nearest, min_dist=min_dist)


def partner_partition(space: UltrametricSpace) -> PartnerPartition:
    """Split X into partner classes (see :func:`_mate_classes`) and
    pseudopartnered points."""
    return _partners(space).partition


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
