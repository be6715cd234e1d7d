"""Landmark coordinates and exact rebuild of the full distance matrix.

Knowing the distances from every point to a landmark set that
distinguishes all pairs is enough to recover the whole ultrametric: for
any pair pick one landmark s telling them apart and take
d(x,y) = max(d(x,s), d(y,s)). Which landmark is picked does not matter.
Sorted, the coordinate rows are a leaf order of the space, and the rule
between neighbouring rows gives its gap form, with no n x n array. Only
a table no ultrametric fits falls back to the rule at every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NoReturn, Sequence

import numpy as np

from .basis import is_k_generator
from .core import (
    UltrametricSpace,
    _check_labels,
    _leaf_gaps,
    _row_keys,
    _triangle_report,
    _used_ids,
)
from .errors import (
    CoordinateTableError,
    InternalInvariantError,
    NotGeneratorError,
    UsageError,
)
from .values import ValueList, quantize


@dataclass(frozen=True, init=False, eq=False)
class CoordinateTable:
    """Distances from every point (rows) to an ordered landmark set (columns).

    The table is held in one canonical encoding, like a space's distances:
    a :class:`ValueList` of its distinct values, increasing and each used,
    and a read-only int32 points x landmarks array of positions in it.
    :attr:`encoding` (the values as a tuple, and that array), ``texts``
    (each positive value's source spelling, else None) and ``rows`` are
    read-only views, built when first read. A table built from ``rows``
    orders its cells by float (see :func:`ultrabase.values.quantize`) and
    looks its spellings up in ``value_texts`` once per value. Equality and
    hashing go by landmarks, points and encoding. Point labels, like
    landmarks, are distinct.
    """

    landmarks: tuple[str, ...]
    points: tuple[str, ...]
    encoding: tuple[tuple[Fraction, ...], np.ndarray] = field(
        default=cached_property(lambda self: (tuple(self._list), self._index)), repr=False)
    rows: tuple[tuple[Fraction, ...], ...] = cached_property(
        lambda self: tuple(tuple(map(self.encoding[0].__getitem__, row)) for row in self._index.tolist()))
    texts: tuple[str | None, ...] = cached_property(lambda self: tuple(self._list.texts()))

    def __init__(self, landmarks, points, rows, value_texts=None):
        if not landmarks:
            raise UsageError("a coordinate table needs at least one landmark")
        if len(set(landmarks)) != len(landmarks):
            raise UsageError("duplicate landmark column")
        for lab in (*landmarks, *points):  # each would break the CSV line it is written in
            if not isinstance(lab, str):
                raise UsageError(f"invalid label {lab!r}: labels are text")
            if "," in lab or lab.splitlines() not in ([lab], []):
                raise UsageError(f"invalid label {lab!r}: no commas or line breaks")
        seen: set[str] = set()
        for lab in points:
            if not lab:
                raise UsageError("empty point label")
            if lab in seen:
                raise UsageError(f"duplicate point label {lab!r}")
            seen.add(lab)
        if len(rows) != len(points):
            raise UsageError("coordinate rows must align with point labels")
        for lab, row in zip(points, rows):
            if len(row) != len(landmarks):
                raise UsageError(f"row for {lab!r} has {len(row)} values, "
                                 f"expected {len(landmarks)}")

        def bad(p, exc):
            i, c = divmod(p, len(landmarks))
            raise UsageError(f"coordinate ({points[i]}, {landmarks[c]}) is not a finite number") from None

        ids, values = quantize([c for row in rows for c in row], bad)
        if value_texts:
            values = ValueList.of(list(values), [value_texts.get(v) or None for v in values])
        self._set(landmarks, points, ids.reshape(len(points), len(landmarks)), values)

    @classmethod
    def _encoded(cls, landmarks, points, ids, values: ValueList) -> "CoordinateTable":
        """The table whose cells hold ``values[ids]``, ``values`` being
        increasing, and its labels, unchecked."""
        table = cls.__new__(cls)
        table._set(landmarks, points, ids, values)
        return table

    def _set(self, landmarks, points, ids, values: ValueList) -> None:
        """Store the canonical encoding of ``values[ids]``: the values in
        use, and the cells renumbered to match."""
        kept, index = _used_ids(ids, len(values))
        index.setflags(write=False)
        vars(self).update(landmarks=tuple(landmarks), points=tuple(points),
                          _list=values.take(kept), _index=index)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.points)}

    def __eq__(self, other):
        if not isinstance(other, CoordinateTable):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self):
        values, index = self.encoding
        return self.landmarks, self.points, values, index.tobytes()


def coordinates(space: UltrametricSpace, landmarks: Sequence[str]) -> CoordinateTable:
    """The distances from every point to each landmark: the landmarks'
    rows, read off the gap form in O(n) each, as columns.

    Landmark order is the caller's; rows follow the space's label order.
    """
    if not landmarks:
        raise UsageError("need at least one landmark")
    if len(set(landmarks)) != len(landmarks):
        raise UsageError("duplicate landmark in list")
    cols = [space.index(s) for s in landmarks]
    return CoordinateTable._encoded(landmarks, space.labels, space._rows(cols).T, space.table._list)


def _table_ranks(table: CoordinateTable) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Run the input checks of :func:`reconstruct`, in order; return the
    cells as ranks (the encoding's index, whose values then start at
    zero), each landmark's row and the rows' lexicographic order."""
    pts, landmarks = table.points, table.landmarks
    values, index = table._list, table._index
    k = index.shape[1]

    signs = values.signs()
    below = int(np.count_nonzero(signs < 0))  # the values increase: negatives come first
    zero = below if below < len(signs) and signs[below] == 0 else -1
    bad = index < max(below, zero + 1)  # negative or zero cells
    column = {s: c for c, s in enumerate(landmarks)}
    own_rows = [i for i, lab in enumerate(pts) if lab in column]
    own = own_rows, [column[pts[i]] for i in own_rows]  # where a landmark meets its own row
    bad[own] = index[own] < below
    if bad.any():
        i, c = divmod(int(bad.argmax()), k)
        if index[i, c] < below:
            raise CoordinateTableError(f"negative distance {values[index[i, c]]} at ({pts[i]}, {landmarks[c]})")
        raise CoordinateTableError(f"zero distance between distinct points {pts[i]} and {landmarks[c]}")
    at = [table._position.get(s, -1) for s in landmarks]
    for c, s in enumerate(landmarks):
        if at[c] < 0:
            raise CoordinateTableError(f"landmark {s} has no coordinate row")
        if index[at[c], c] != zero:
            raise CoordinateTableError(f"landmark {s} is not at distance 0 from itself")

    keys = _row_keys(index)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():  # equal rows are neighbours once sorted
        # The first repeated row in sorted-label order, with the first row equal to it.
        first: dict[bytes, str] = {}
        for lab in sorted(pts):
            a = first.setdefault(index[table._position[lab]].tobytes(), lab)
            if a != lab:
                raise NotGeneratorError(f"not a metric generator: points {a} and {lab} have identical "
                                        "coordinates", witness=(a, lab))
    return index, at, order


def _max_rule(rows: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i against each later row: where they differ, the max rule at
    every landmark, and the max rule at their first distinguishing one."""
    rest = rows[i + 1:]
    diff = rest != rows[i]
    maxima = np.maximum(rest, rows[i])
    return diff, maxima, maxima[np.arange(len(rest)), diff.argmax(axis=1)]


def _rebuild_pairwise(table: CoordinateTable, ranks: np.ndarray, at: list[int]) -> NoReturn:
    """Rebuild by the max rule at each pair's first distinguishing
    landmark, then validate, to name why an inconsistent table fails."""
    pts, landmarks, values = table.points, table.landmarks, table._list
    rank_arr = np.zeros((len(pts), len(pts)), dtype=np.int32)
    for i in range(len(pts) - 1):  # the rows are distinct: each pair has a first distinguishing landmark
        rank_arr[i, i + 1:] = rank_arr[i + 1:, i] = _max_rule(ranks, i)[2]

    report, _ = _triangle_report(pts, values, rank_arr)
    if not report.ok:
        raise CoordinateTableError(f"inconsistent coordinates: {report.violations[0].detail}")
    mismatch = np.argwhere(rank_arr[:, at] != ranks)
    if mismatch.size:
        i, c = mismatch[0].tolist()
        raise CoordinateTableError(
            f"inconsistent coordinates: rebuilt d({pts[i]},{landmarks[c]}) = "
            f"{values[rank_arr[i, at[c]]]} but the table says {values[ranks[i, c]]}"
        )
    # an ultrametric with the table's coordinates: its sorted rows fit
    raise InternalInvariantError("the pair rule fits a table its sorted rows do not")


def reconstruct(table: CoordinateTable) -> UltrametricSpace:
    """Rebuild the unique ultrametric space consistent with the table: its
    sorted rows and the max rule between neighbours (:func:`_leaf_gaps`),
    in one sort and O(n * k). Raises :class:`NotGeneratorError` when two
    rows coincide (the landmarks cannot tell those points apart) and
    :class:`CoordinateTableError` when no ultrametric space has them.
    """
    ranks, at, order = _table_ranks(table)
    _check_labels(table.points)
    gaps = _leaf_gaps(ranks, order, at)
    if gaps is None:
        _rebuild_pairwise(table, ranks, at)
    # the checks leave the zero first: the table's list is the space's
    return UltrametricSpace._of(table.points, order, gaps, table._list)


def verify_roundtrip(space: UltrametricSpace, landmarks: Sequence[str]) -> bool:
    """Exact equality of the space with its rebuild from landmark coordinates."""
    check = is_k_generator(space, landmarks, 1)
    if not check.ok:
        assert check.witness is not None
        x, y = check.witness
        raise NotGeneratorError(
            f"landmarks do not distinguish ({x},{y})", witness=(x, y)
        )
    return reconstruct(coordinates(space, landmarks)) == space


def landmark_independence_witness(
    table: CoordinateTable,
) -> tuple[str, str, str, str] | None:
    """Search for a pair whose rebuilt distance depends on the landmark chosen.

    Returns (x, y, s, s') with both landmarks distinguishing x,y but
    max(d(x,s), d(y,s)) != max(d(x,s'), d(y,s')), or None when the max
    rule is single-valued everywhere (as it must be for a table that came
    from a real space). A table that passes the input checks and whose
    sorted rows fit it is one, by the strong triangle inequality.
    """
    try:
        ranks, at, order = _table_ranks(table)
    except (CoordinateTableError, NotGeneratorError):
        pass
    else:
        if _leaf_gaps(ranks, order, at) is not None:
            return None
    arr = table._index
    for i in range(len(arr) - 1):
        diff, maxima, at_first = _max_rule(arr, i)
        disagree = diff & (maxima != at_first[:, None])
        hits = np.flatnonzero(disagree.any(axis=1))
        if hits.size:
            j = int(hits[0])
            return (
                table.points[i],
                table.points[i + 1 + j],
                table.landmarks[int(diff[j].argmax())],
                table.landmarks[int(disagree[j].argmax())],
            )
    return None
