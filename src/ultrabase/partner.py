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
        cached = vars(space)["_partners"] = _gap_classes(space)
    return cached


def _gap_classes(space: UltrametricSpace) -> _Partners:
    """Read the classes off the space's gap form in O(n), plus a sort of
    the labels.

    A point's minimum m is the smaller of the gaps on either side of its
    leaf. The points within m of it are the run of leaves around it that
    no gap above m cuts, and each of them with minimum m is at distance
    exactly m: its partner. So a class is the points of one minimum m in
    one such run, named by the run's first leaf. That is the point's own
    leaf when the gap on its left exceeds m, else the leaf after the last
    gap above m before it, which one pass with a stack of the gaps not yet
    exceeded finds for every gap. A gap form is ultrametric by
    construction, so no class needs checking against the distances.
    """
    labels, n = space.labels, space.n
    points, values = space.order.tolist(), space.gaps.tolist()
    keys: list[tuple[int, int]] = [(0, 0)] * n  # per point: its minimum and its run's first leaf
    keys[points[0]] = values[0], 0
    high: list[int] = []  # earlier gaps above every later one, increasing to the left
    for k, g in enumerate(values):  # gap k joins leaves k and k + 1
        while high and values[high[-1]] <= g:
            high.pop()
        right = values[k + 1] if k + 2 < n else g
        keys[points[k + 1]] = (g, high[-1] + 1 if high else 0) if g <= right else (right, k + 1)
        high.append(k)
    groups: dict[tuple[int, int], list[str]] = {}  # opened in label order: sorted by first label
    for i in sorted(range(n), key=labels.__getitem__):
        groups.setdefault(keys[i], []).append(labels[i])
    classes = {k: tuple(members) for k, members in groups.items() if len(members) > 1}
    if not classes:
        raise InternalInvariantError("finite space without partner points")
    pseudo = tuple(members[0] for members in groups.values() if len(members) == 1)
    partition = PartnerPartition(classes=tuple(classes.values()), pseudopartnered=pseudo)
    return _Partners(space._nearest, list(map(classes.get, keys)), partition)


def nearest_set(space: UltrametricSpace, x: str) -> tuple[tuple[str, ...], Fraction]:
    """All points realizing min_{z != x} d(x, z), with that minimum: the
    cached minimum, then x's one row of distances, in O(n)."""
    i = space.index(x)
    m = int(_partners(space).mins[i])
    # m >= 1, and rank 0 sits only on the diagonal, so x is not among the hits
    hits = np.flatnonzero(space._rows([i])[0] == m).tolist()
    return tuple(sorted(map(space.labels.__getitem__, hits))), space.table.value(m)


def classify_point(space: UltrametricSpace, x: str) -> PointClass:
    """Partnered with its full reciprocating set, else pseudopartnered;
    only a pseudopartnered point reads its row, for its nearest set."""
    partners, i = _partners(space), space.index(x)
    cls = partners.class_at[i]
    if cls is not None:
        min_dist = space.table.value(int(partners.mins[i]))
        return Partnered(partners=tuple(lab for lab in cls if lab != x), min_dist=min_dist)
    nearest, min_dist = nearest_set(space, x)
    return Pseudopartnered(nearest=nearest, min_dist=min_dist)


def partner_partition(space: UltrametricSpace) -> PartnerPartition:
    """Split X into partner classes (see :func:`_gap_classes`) and
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
    the walk visits at most n points. The points at a point's minimum m
    are the other leaves of the run around its leaf that no gap above m
    cuts, found in O(n) on the gaps; the stop reads none.
    """
    cur = space.index(x)
    radius = len(space.table) + 1  # sentinel rank above every real distance
    steps = [TraceStep(point=x, dist=INFINITY)]

    mins = _partners(space).mins
    for _ in range(space.n):
        # the nearest point inside the ball is at the point's own minimum
        best = int(mins[cur])
        if best >= radius:
            break
        leaf = int(space._leaf[cur])
        cuts = np.flatnonzero(space.gaps[:leaf] > best)  # gap k lies between leaves k and k + 1
        lo = int(cuts[-1]) + 1 if len(cuts) else 0
        cuts = np.flatnonzero(space.gaps[leaf:] > best)
        hi = leaf + int(cuts[0]) + 1 if len(cuts) else space.n
        run = space.order[lo:hi].tolist()
        run.remove(cur)
        nxt = min(run, key=space.labels.__getitem__)
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
