"""Landmark coordinates and exact rebuild of the full distance matrix.

Knowing the distances from every point to a landmark set that
distinguishes all pairs is enough to recover the whole ultrametric: for
any pair pick one landmark s telling them apart and take
d(x,y) = max(d(x,s), d(y,s)). Which landmark is picked does not matter;
reconstruction here always uses the first distinguishing column so runs
are reproducible, and the choice-independence is asserted in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .basis import is_k_generator
from .core import DistanceTable, UltrametricSpace, _space_from_ranks
from .errors import (
    CoordinateTableError,
    NotGeneratorError,
    UsageError,
)
from .values import to_fraction


@dataclass(frozen=True)
class CoordinateTable:
    """Distances from every point (rows) to an ordered landmark set (columns)."""

    landmarks: tuple[str, ...]
    points: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    value_texts: dict[Fraction, str] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.landmarks:
            raise UsageError("a coordinate table needs at least one landmark")
        if len(set(self.landmarks)) != len(self.landmarks):
            raise UsageError("duplicate landmark column")
        if len(self.rows) != len(self.points):
            raise UsageError("coordinate rows must align with point labels")
        for lab, row in zip(self.points, self.rows):
            if len(row) != len(self.landmarks):
                raise UsageError(f"row for {lab!r} has {len(row)} values, "
                                 f"expected {len(self.landmarks)}")

    def row(self, point: str) -> tuple[Fraction, ...]:
        try:
            return self.rows[self.points.index(point)]
        except ValueError:
            raise UsageError(f"no coordinate row for {point!r}") from None


def _coordinate_ranks(table: CoordinateTable) -> tuple[list[Fraction], np.ndarray]:
    """The sorted distinct table values and the rows as int32 indices into them."""
    flat = sorted({v for row in table.rows for v in row})
    rank_of = {v: i for i, v in enumerate(flat)}
    arr = np.array([[rank_of[v] for v in row] for row in table.rows], dtype=np.int32)
    return flat, arr.reshape(len(table.rows), len(table.landmarks))


def coordinates(space: UltrametricSpace, landmarks: Sequence[str]) -> CoordinateTable:
    """Project the distance matrix onto the landmark columns.

    Landmark order is the caller's; rows follow the space's label order.
    """
    if not landmarks:
        raise UsageError("need at least one landmark")
    if len(set(landmarks)) != len(landmarks):
        raise UsageError("duplicate landmark in list")
    cols = [space.index(s) for s in landmarks]
    value = space.table.value
    rows = tuple(tuple(map(value, row)) for row in space.ranks[:, cols].tolist())
    return CoordinateTable(
        landmarks=tuple(landmarks),
        points=space.labels,
        rows=rows,
        value_texts=space.value_texts(),
    )


def reconstruct(table: CoordinateTable) -> UltrametricSpace:
    """Rebuild the unique ultrametric space consistent with the table.

    Raises :class:`NotGeneratorError` when two rows coincide (the
    landmarks cannot tell those points apart) and
    :class:`CoordinateTableError` when no ultrametric space at all has
    these coordinates.
    """
    pts = table.points

    for lab, row in zip(pts, table.rows):
        for c, v in enumerate(row):
            if v < 0:
                raise CoordinateTableError(
                    f"negative distance {v} at ({lab}, {table.landmarks[c]})"
                )
            if v == 0 and lab != table.landmarks[c]:
                raise CoordinateTableError(
                    f"zero distance between distinct points {lab} and {table.landmarks[c]}"
                )
    for c, s in enumerate(table.landmarks):
        if s not in pts:
            raise CoordinateTableError(f"landmark {s} has no coordinate row")
        if table.row(s)[c] != 0:
            raise CoordinateTableError(f"landmark {s} is not at distance 0 from itself")

    by_row: dict[tuple[Fraction, ...], str] = {}
    for lab in sorted(pts):
        row = table.row(lab)
        if row in by_row:
            a, b = sorted((by_row[row], lab))
            raise NotGeneratorError(
                f"not a metric generator: points {a} and {b} have identical coordinates",
                witness=(a, b),
            )
        by_row[row] = lab

    # Landmark rows carry a zero, so rank 0 of the encoding is the zero distance.
    flat, arr = _coordinate_ranks(table)
    values = tuple(map(to_fraction, flat[1:]))
    dtable = DistanceTable(values, tuple(map(table.value_texts.get, values)))
    n = len(pts)
    rank_arr = np.zeros((n, n), dtype=np.int32)
    for i in range(n - 1):
        rest = arr[i + 1:]
        # first landmark telling i apart from each later row (rows are distinct)
        first = (rest != arr[i]).argmax(axis=1)
        d = np.maximum(arr[i, first], rest[np.arange(len(rest)), first])
        rank_arr[i, i + 1:] = rank_arr[i + 1:, i] = d

    report, space = _space_from_ranks(pts, dtable, rank_arr)
    if space is None:
        raise CoordinateTableError(f"inconsistent coordinates: {report.violations[0].detail}")

    cols = [pts.index(s) for s in table.landmarks]
    mismatch = np.argwhere(space.ranks[:, cols] != arr)
    if mismatch.size:
        i, c = mismatch[0].tolist()
        raise CoordinateTableError(
            f"inconsistent coordinates: rebuilt d({pts[i]},{table.landmarks[c]}) = "
            f"{space.table.value(int(space.ranks[i, cols[c]]))} "
            f"but the table says {table.rows[i][c]}"
        )
    return space


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
    from a real space).
    """
    _, arr = _coordinate_ranks(table)
    for i, j in itertools.combinations(range(len(table.points)), 2):
        diff = arr[i] != arr[j]
        if not diff.any():
            continue
        maxima = np.maximum(arr[i], arr[j])[diff]
        if (maxima != maxima[0]).any():
            cols = np.flatnonzero(diff)
            first = cols[0]
            other = cols[int(np.argmax(maxima != maxima[0]))]
            return (
                table.points[i],
                table.points[j],
                table.landmarks[first],
                table.landmarks[other],
            )
    return None
