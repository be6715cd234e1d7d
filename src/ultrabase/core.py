"""Finite ultrametric spaces with exact, rank-encoded distances.

A space stores its distances as small-integer ranks into a sorted table
of distinct positive values, in gap form: a leaf order of its points and
the n - 1 ranks between neighbouring leaves, and nothing else. One
dendrogram kernel reads rows of distances off it, or the whole n x n
picture for a caller that writes it out, and keeps none. Every comparison
the theory depends on (equality of two distances, which of two distances is
larger) is an exact integer comparison; the actual magnitudes only
matter at ingestion and serialization time.

Rank 0 is reserved for distance zero (the diagonal); rank ``i >= 1``
denotes ``table.values[i - 1]``. A table holds its values as one
:class:`ValueList`, the zero at position 0, so rank r is position r; the
same list, taken at the ranks in use, is a coordinate table's, and the
list says whether its text cells are source spellings. Every space is
built in one place, :meth:`UltrametricSpace._of`, from a gap form whose
ids index such a list.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InternalInvariantError,
    UltrametricViolationError,
    UnknownLabelError,
    UsageError,
)
from .values import (
    Numeric,
    ValueList,
    format_value,
    group_values,
    quantize,
    to_fraction,
)

DEFAULT_MAX_VIOLATIONS = 16
_BLOCK_CELLS = 2**18  # cells per block of rows: about 1 MB of int32
_UNREACHED = np.iinfo(np.int64).max

ZERO = Fraction(0)
# a comma, a control character, a BOM, or another line break to str.splitlines
_BAD_LABEL_CHAR = re.compile(r"[\x00-\x1f,\x7f\x85\u2028\u2029\ufeff]")


def _check_labels(labels: Sequence[str]) -> None:
    if len(labels) < 2:
        raise UsageError("an ultrametric space needs at least two points")
    try:
        joined = "".join(labels)  # TypeError: a label that is not text
    except TypeError:
        joined = None
    if (joined is not None and all(labels) and not _BAD_LABEL_CHAR.search(joined)
            and len(set(labels)) == len(labels)):
        return
    # a label is bad: name the first one
    seen: set[str] = set()
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise UsageError(f"invalid point label {lab!r}: labels are nonempty text")
        if _BAD_LABEL_CHAR.search(lab):
            raise UsageError(f"invalid point label {lab!r}: no commas or control characters")
        if lab in seen:
            raise UsageError(f"duplicate point label {lab!r}")
        seen.add(lab)


@dataclass(frozen=True, init=False)
class DistanceTable:
    """The strictly increasing tuple of distinct positive distance values.

    ``texts`` optionally remembers the decimal spelling each value had in
    its source document, so reports and CSV output can reproduce it. Both
    are read-only views, built when first read, of one :class:`ValueList`:
    the zero, then the values. Equality and hashing go by values.
    """

    values: tuple[Fraction, ...] = cached_property(lambda self: tuple(self._list)[1:])
    texts: tuple[str | None, ...] = field(
        default=cached_property(lambda self: tuple(self._list.texts()[1:])), compare=False)

    def __init__(self, values: Sequence[Fraction], texts: Sequence[str | None] = ()):
        if texts and len(texts) != len(values):
            raise UsageError("distance table texts must align with values")
        listed = ValueList.of((ZERO, *values), (None, *texts) if texts else None)
        # rounding is monotone: only neighbours with equal floats need exact comparison
        floats = listed.floats[1:]
        if (floats[1:] < floats[:-1]).any() or any(
            not values[k] < values[k + 1] for k in np.flatnonzero(floats[1:] == floats[:-1]).tolist()
        ):
            raise UsageError("distance table values must be strictly increasing")
        if values and values[0] <= 0:
            raise UsageError("distance table values must be positive")
        vars(self).update(_list=listed)

    @classmethod
    def _of(cls, values: ValueList) -> "DistanceTable":
        """The table of ``values``, the zero then increasing positive values, unchecked."""
        table = cls.__new__(cls)
        vars(table).update(_list=values)
        return table

    def __len__(self) -> int:
        return len(self._list) - 1

    def value(self, rank: int) -> Fraction:
        return self._list[rank]


@dataclass(frozen=True)
class Violation:
    kind: str  # "nonfinite" | "negative" | "diagonal" | "positivity" | "asymmetry" | "triangle"
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    truncated: bool = False

    def __post_init__(self):
        if self.ok != (not self.violations):
            raise UsageError("a validation report is ok exactly when it has no violations")


@dataclass(frozen=True, init=False, eq=False)
class UltrametricSpace:
    """An immutable finite ultrametric space.

    A space is held in gap form: its points in a leaf ``order`` (indices
    into ``labels``) and ``gaps[k]``, the rank-encoded distance between
    the points at leaf positions k and k + 1. The distance between the
    points at positions i < j is the largest of ``gaps[i..j-1]``, so a
    gap form is ultrametric by construction (Sibson's pointer
    representation). Rows of distances are read off the gaps in O(n)
    each, and no matrix of them is kept.

    Every instance is built by :meth:`_of` from a gap form and its value
    list; all methods are pure reads and safe to call concurrently.
    """

    def __init__(self, labels: tuple[str, ...], table: DistanceTable, order: Sequence[int],
                 gaps: np.ndarray):
        order = np.asarray(order, dtype=np.intp)
        gaps = np.asarray(gaps, dtype=np.int32)
        order.setflags(write=False)
        gaps.setflags(write=False)
        vars(self).update(labels=labels, table=table, order=order, gaps=gaps)

    @staticmethod
    def _of(labels: Sequence[str], order: Sequence[int], ids: np.ndarray, values: ValueList,
            epsilon: Fraction = ZERO) -> "UltrametricSpace":
        """The space of a gap form, unchecked: its points in leaf ``order``,
        and ``ids[k] >= 1`` the position in ``values``, the zero and then
        distinct positive values, of the distance between leaves k and
        k + 1. The table keeps the values the ids use, grouped within
        ``epsilon``."""
        used, position = _used_ids(ids, len(values))
        # ranking is monotone, so the ranks are the maxima of the ranked gaps
        reps, rank = group_values(values.take(used), epsilon)
        table = DistanceTable._of(values.take(np.append(0, used[reps])))
        return UltrametricSpace(tuple(labels), table, order, rank[position])

    def __repr__(self) -> str:
        return f"UltrametricSpace(labels={self.labels!r}, table={self.table!r})"

    def __eq__(self, other):
        """Same labels, table and distances: B's ranks between A's
        neighbouring leaves are A's gaps, and vice versa. Along A's chain
        of leaves the ultrametric inequality makes the first d_B <= d_A,
        and the second gives d_A <= d_B; so the gap forms decide it."""
        if not isinstance(other, UltrametricSpace):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.table == other.table
            and np.array_equal(other._between(other._leaf[self.order]), self.gaps)
            and np.array_equal(self._between(self._leaf[other.order]), other.gaps)
        )

    def __hash__(self) -> int:
        # each point's nearest distance is a function of the distances, read in O(n)
        return hash((self.labels, self.table, self._nearest.astype(np.int64).tobytes()))

    def _rows(self, points: Sequence[int] | None = None) -> np.ndarray:
        """The rank rows of the given points, |points| x n, off the gaps;
        without ``points``, the whole n x n matrix, row i for ``labels[i]``."""
        return _cophenetic(self.order, self.gaps, points)

    def _between(self, leaves: np.ndarray) -> np.ndarray:
        """The largest gap between each two neighbours in ``leaves``, leaf positions."""
        pairs = np.sort(np.stack((leaves[:-1], leaves[1:]), axis=1), axis=1)
        # reduceat reads gaps[lo:hi] at each even index; the 0 lets hi be n - 1
        return np.maximum.reduceat(np.append(self.gaps, 0), pairs.ravel())[::2]

    @cached_property
    def _leaf(self) -> np.ndarray:
        """Each point's leaf position."""
        return np.argsort(self.order)

    @cached_property
    def _nearest(self) -> np.ndarray:
        """Each point's distance rank to its nearest other point: the
        smaller of the gaps on either side of its leaf."""
        ends = np.concatenate((self.gaps[:1], self.gaps, self.gaps[-1:]))
        return np.minimum(ends[:-1], ends[1:])[self._leaf]

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def rank(self, x: str, y: str) -> int:
        a, b = sorted(self._leaf[[self.index(x), self.index(y)]].tolist())
        return int(self.gaps[a:b].max()) if a < b else 0

    def d(self, x: str, y: str) -> Fraction:
        return self.table.value(self.rank(x, y))

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All unordered label pairs in lexicographic order."""
        return itertools.combinations(sorted(self.labels), 2)

    def value_matrix(self) -> list[list[Fraction]]:
        return [[self.table.value(r) for r in row] for row in self._rows().tolist()]

    def restrict(self, subset: Iterable[str]) -> "UltrametricSpace":
        """The induced subspace on ``subset``, in this space's label order."""
        idx = sorted(self.index(lab) for lab in set(subset))
        labels = tuple(self.labels[i] for i in idx)
        _check_labels(labels)
        # the kept points keep their leaf order; the gap between two kept
        # neighbours is the largest gap between them, so no revalidation
        new = np.full(self.n, -1, dtype=np.intp)
        new[idx] = np.arange(len(idx))
        kept = np.flatnonzero(new[self.order] >= 0)
        return UltrametricSpace._of(labels, new[self.order[kept]], self._between(kept), self.table._list)


def _used_ids(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids among 0..size-1 that ``ids`` uses, increasing, and ``ids``
    renumbered by position among them, as int32."""
    used = np.zeros(size, dtype=bool)
    used[ids] = True
    return np.flatnonzero(used), (np.add.accumulate(used, dtype=np.int32) - 1)[ids]


def _rank_ids(ids: np.ndarray, values: ValueList, epsilon: Fraction) -> tuple[ValueList, np.ndarray]:
    """The values of a value-id matrix with the zero on its diagonal,
    grouped: the zero, then the representatives of its upper triangle's
    values in increasing value, taken from ``values``; and the symmetric
    int32 ranks, rank r holding position r. A group that holds the zero,
    which only zero cells off the diagonal bring, is the zero's rank 0."""
    n = len(ids)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)  # a mask: n² bytes, not n² int64 indices
    used, position = _used_ids(ids[upper], len(values))
    reps, rank = group_values(values.take(used), epsilon)
    glued = used[reps[0]] == ids[0, 0]  # the zero is the least value, so its group's representative
    taken = values.take(used[reps] if glued else np.append(ids[0, 0], used[reps]))  # before the n x n arrays
    arr = np.zeros((n, n), dtype=np.int32)
    arr[upper] = rank[position] - glued
    return taken, arr + arr.T


def _triangle_violations(rank_arr, closure, labels, values, max_violations):
    """Witness triples (x, y, z) with d(x,y) > max(d(x,z), d(z,y)), by z,
    then row-major by (x, y); rank r holds ``values[r]``, and a witness
    reads no zero.

    The long side of a witness exceeds the single-linkage ``closure`` C:
    C(x,y) <= max(C(x,z), C(z,y)) <= max(d(x,z), d(z,y)) < d(x,y). So only
    the pairs above C are tested, against blocks of third points that
    double from one z, as witnesses often come early, to _BLOCK_CELLS cells.
    """
    found: list[Violation] = []
    rows, cols = np.nonzero(np.triu(rank_arr > closure, 1))
    long = rank_arr[rows, cols]
    most = max(1, _BLOCK_CELLS // max(1, len(long)))
    start, step = 0, 1
    while start < len(labels):
        z = np.arange(start, min(start + step, len(labels)))[:, None]
        bad = np.flatnonzero(long > np.maximum(rank_arr[rows, z], rank_arr[z, cols]))
        bad = bad[:max_violations + 1 - len(found)]  # one past the cap tells truncation
        pairs = bad % len(long)
        for i, j, k in zip(rows[pairs].tolist(), cols[pairs].tolist(), (start + bad // len(long)).tolist()):
            if len(found) >= max_violations:
                return found, True
            x, y, z = labels[i], labels[j], labels[k]
            dxy, dxz, dzy = (values[rank_arr[a, b]] for a, b in ((i, j), (i, k), (k, j)))
            found.append(Violation("triangle", (x, y, z), (dxy, dxz, dzy), (
                f"d({x},{y})={format_value(dxy)} > "
                f"max(d({x},{z})={format_value(dxz)}, d({z},{y})={format_value(dzy)})")))
        start, step = start + step, min(2 * step, most)
    return found, False


def _epsilon(epsilon: Numeric) -> Fraction:
    eps = to_fraction(epsilon)
    if eps < 0:
        raise UsageError("epsilon must be nonnegative")
    return eps


@dataclass(frozen=True, eq=False)
class _ValueIds:
    """A square matrix a parser has already quantized: int32 ids (-1: not
    a finite number) into distinct ``values`` in increasing value, each
    held by some cell, as :func:`quantize` numbers them (only a matrix
    that fails the cell checks may leave a value unused)."""

    ids: np.ndarray
    values: ValueList


@dataclass(frozen=True, eq=False)
class _Gaps:
    """A dendrogram: its points in leaf ``order``, and ``ids[k]`` the
    position in ``values``, the zero and then distinct positive values,
    of the distance between leaves k and k + 1. The distance between
    leaves i < j is the largest value among ids[i..j-1]. Such a matrix is
    ultrametric by construction: it is the gap form
    :meth:`UltrametricSpace._of` builds."""

    order: Sequence[int]
    ids: np.ndarray
    values: ValueList


def _accepts(ids: np.ndarray, signs: np.ndarray) -> bool:
    """Whether a matrix of ids into values of these ``signs``, numbered in
    increasing value, passes every cell check and is exactly symmetric, in
    a few whole-array passes: the ``low`` ids of values <= 0 (and id -1, no
    number) are held by the diagonal alone, all of it the zero, id low - 1."""
    low = int(np.count_nonzero(signs <= 0))
    return bool(low and not signs[low - 1] and (ids.diagonal() == low - 1).all()
                and np.count_nonzero(ids < low) == len(ids) and np.array_equal(ids, ids.T))


def _analyze(
    labels: Sequence[str],
    matrix: Sequence[Sequence[Numeric]] | _ValueIds | _Gaps,
    epsilon: Numeric,
    max_violations: int,
):
    """Check a matrix and build its space.

    Violations come in row-major order: first the per-cell ones
    (nonfinite, diagonal, negative, positivity), then asymmetric pairs.
    A `_Gaps` dendrogram has none and is built without checks.
    """
    _check_labels(labels)
    if isinstance(matrix, _Gaps):
        space = UltrametricSpace._of(labels, matrix.order, matrix.ids, matrix.values, _epsilon(epsilon))
        return ValidationReport(ok=True, violations=()), space
    n = len(labels)
    quantized = isinstance(matrix, _ValueIds)
    if not quantized and (len(matrix) != n or any(len(row) != n for row in matrix)):
        raise UsageError(f"distance matrix must be {n}x{n} to match the labels")
    eps = _epsilon(epsilon)
    if quantized:
        ids, values, cells = matrix.ids, matrix.values, None
    else:
        cells = [c for row in matrix for c in row]
        ids, values = quantize(cells)
        ids = ids.reshape(n, n)

    signs = values.signs()
    if not _accepts(ids, signs):  # the per-cell masks name faults, or let asymmetry within eps through
        # values are distinct, so two ids differ exactly when their values do
        finite = ids >= 0
        sign = np.append(signs, np.int8(1))[ids]  # id -1 reads the appended 1
        neg, zero = sign < 0, sign == 0
        diagonal = np.eye(n, dtype=bool)
        upper = np.triu(~diagonal)
        cell_bad = ~finite | (diagonal & finite & ~zero) | (upper & (neg | zero))
        asym = upper & finite & finite.T & (ids != ids.T)
        if eps > 0 and asym.any():
            pairs, inverse = np.unique(
                np.stack([ids[asym], ids.T[asym]], axis=1), axis=0, return_inverse=True
            )
            asym[asym] = values.apart(pairs[:, 0], pairs[:, 1], eps)[inverse.ravel()]
        first, second = np.flatnonzero(cell_bad), np.flatnonzero(asym)

        if len(first) or len(second):
            total = len(first) + len(second)
            violations = []
            for k, p in enumerate(np.concatenate([first, second])[:max_violations].tolist()):
                i, j = divmod(p, n)
                x, y = labels[i], labels[j]
                v = values[ids[i, j]] if finite[i, j] else None
                if k >= len(first):
                    w = values[ids[j, i]]
                    found = ("asymmetry", (x, y), (v, w),
                             f"d({x},{y})={format_value(v)} differs from d({y},{x})={format_value(w)}")
                elif v is None:
                    found = ("nonfinite", (x, y), (),
                             f"entry ({x},{y}) is not a finite number: {cells[p]!r}")
                elif i == j:
                    found = ("diagonal", (x,), (v,),
                             f"diagonal entry for {x} is {format_value(v)}, expected 0")
                elif neg[i, j]:
                    found = ("negative", (x, y), (v,), f"d({x},{y})={format_value(v)} is negative")
                else:
                    found = ("positivity", (x, y), (v,), f"d({x},{y})=0 for distinct points")
                violations.append(Violation(*found))
            report = ValidationReport(
                ok=False, violations=tuple(violations), truncated=total > max_violations
            )
            return report, None

    # Every cell passed: id 0 is the zero diagonal and every other id is
    # a positive value some pair uses. At epsilon 0 no values merge, so
    # the ids are the ranks.
    if eps:
        values, ids = _rank_ids(ids, values, eps)
    report, form = _triangle_report(labels, values, ids, max_violations)
    if not report.ok:
        return report, None
    return report, UltrametricSpace._of(labels, *form, values)


def _cophenetic(order: Sequence[int], gaps: np.ndarray, points: Sequence[int] | None = None) -> np.ndarray:
    """The dendrogram matrix of a gap form in O(n²), or only the rows of
    ``points`` in O(n) each.

    Between the points at leaf positions i < j it holds the largest of
    ``gaps[i..j-1]``, the gaps between neighbouring leaves, and the
    diagonal is 0. Every cluster is a run of consecutive leaves, so this
    is ultrametric, and every finite ultrametric arises this way. The
    gaps are nonnegative. The result is filled a block of at most about
    _BLOCK_CELLS cells at a time, so the temporaries stay small beside it.
    """
    order = np.asarray(order)
    n = len(gaps) + 1
    leaf = np.empty(n, dtype=np.intp)
    leaf[order] = np.arange(n)  # each point's leaf position
    before = np.zeros(n, dtype=gaps.dtype)  # the gap before each leaf
    before[1:] = gaps
    after = np.zeros(n, dtype=gaps.dtype)  # the gap after each leaf
    after[:-1] = gaps
    positions = np.arange(n)
    if points is None:  # the whole matrix, filled in leaf order: row order[k] at leaf k
        at_leaf, target = positions, order
    else:
        at_leaf = leaf[np.asarray(points, dtype=np.intp)]
        target = np.arange(len(at_leaf))
    out = np.empty((len(at_leaf), n), dtype=gaps.dtype)
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, len(at_leaf), step):
        at = at_leaf[start:start + step, None]
        # right of leaf i: a running maximum of the gaps from i on; left of
        # it, one from i - 1 down. The two parts meet at the diagonal's 0.
        rows = np.where(positions > at, before, 0)
        np.maximum.accumulate(rows, axis=1, out=rows)
        if points is None and step >= n:  # one block: its left part is its right part transposed
            rows += rows.T
        else:
            left = np.where(positions < at, after, 0)[:, ::-1]
            np.maximum.accumulate(left, axis=1, out=left)
            np.maximum(rows, left[:, ::-1], out=rows)
        out[target[start:start + step]] = rows.take(leaf, axis=1)
    return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of nonnegative integers as one record, a big-endian unsigned
    copy, so records compare as their rows do lexicographically."""
    keys = rows.astype(">u2" if rows.max(initial=0) < 2**16 else ">u4", order="C")
    return keys.view(np.dtype((np.void, keys.itemsize * rows.shape[1]))).ravel()


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The row indices, stably sorted by row in lexicographic order.

    So sorted, the distinct rows of distances to a metric generator of an
    ultrametric are a leaf order: for x, y in a ball B, z outside it and s
    the first coordinate where the three rows are not all equal, d(x,s) =
    d(y,s) if s is outside B, else d(z,s) > diam B >= d(x,s), d(y,s)."""
    return np.argsort(_row_keys(rows), kind="stable")


def _leaf_gaps(matrix: np.ndarray, order: np.ndarray, own: Sequence[int],
               gaps: np.ndarray | None = None) -> np.ndarray | None:
    """The gaps of the gap form in leaf ``order`` whose dendrogram has the
    columns of ``matrix``, column c being 0 at row ``own[c]``, or None.
    Without ``gaps``, neighbouring rows are apart by the max rule at the
    first column where they differ.

    Past the gap g between leaves q and q + 1, a column whose own leaf is
    at most q grows to max(its value at q, g), and a later one falls from
    max(its value at q + 1, g). From the 0, that fixes each column: one
    pass over neighbouring rows, a block at a time, to the first misfit.
    """
    n, k = matrix.shape
    own_leaf = np.argsort(order)[own]
    out = np.empty(n - 1, dtype=np.int32) if gaps is None else gaps
    step = max(1, _BLOCK_CELLS // k)
    for start in range(0, n - 1, step):
        stop = min(start + step, n - 1)
        rows = matrix[order[start:stop + 1]]
        this, after = rows[:-1], rows[1:]
        if gaps is None:
            pick = np.arange(stop - start), (this != after).argmax(axis=1)
            out[start:stop] = np.maximum(this[pick], after[pick])
        passed = own_leaf <= np.arange(start, stop)[:, None]
        if not np.array_equal(np.where(passed, after, this),
                              np.maximum(np.where(passed, this, after), out[start:stop, None])):
            return None
    return out


def _single_linkage(rank_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gap form of the minimum spanning tree, in O(n²): Prim's
    visiting order from point 0, and each later point's rank to the tree
    so far as the gap before it.

    Its dendrogram matrix is the subdominant ultrametric: entry (x, y) is
    the least, over paths from x to y, of the largest rank on the path.
    Every single-linkage cluster is a run of consecutive points in Prim's
    order.
    """
    n = len(rank_arr)
    order = np.zeros(n, dtype=np.intp)
    gaps = np.zeros(n - 1, dtype=rank_arr.dtype)
    dist = rank_arr[0].astype(np.int64)
    dist[0] = _UNREACHED
    open_ = np.ones(n, dtype=bool)
    open_[0] = False
    for k in range(1, n):
        j = int(dist.argmin())
        order[k], gaps[k - 1] = j, dist[j]
        open_[j] = False
        np.minimum(dist, rank_arr[j], out=dist, where=open_)
        dist[j] = _UNREACHED
    return order, gaps


def _triangle_report(labels, values, rank_arr, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Check the triangles of a symmetric rank matrix with a zero diagonal,
    rank r holding ``values[r]``; returns the report and, for a valid
    matrix, its gap form.

    A matrix is ultrametric exactly when its sorted rows and the ranks
    between them are a gap form with its columns, in O(n²). Only one that
    is not pays for its single-linkage closure and the witness sweep.
    """
    order = _sorted_rows(rank_arr)
    gaps = _leaf_gaps(rank_arr, order, np.arange(len(rank_arr)), rank_arr[order[:-1], order[1:]])
    if gaps is not None:
        return ValidationReport(ok=True, violations=()), (order, gaps)
    closure = _cophenetic(*_single_linkage(rank_arr))
    tri, truncated = _triangle_violations(rank_arr, closure, list(labels), values, max_violations)
    if not tri:
        raise InternalInvariantError("the sorted rows and the triangle sweep disagree")
    return ValidationReport(ok=False, violations=tuple(tri), truncated=truncated), None


def validate_ultrametric(
    matrix: Sequence[Sequence[Numeric]],
    labels: Sequence[str] | None = None,
    epsilon: Numeric = 0,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
) -> ValidationReport:
    """Check a raw square matrix for the ultrametric axioms.

    Reports violations of symmetry, zero diagonal, positivity and the
    strong triangle inequality, each with a concrete witness. Structural
    problems (non-square input, fewer than two points) raise instead of
    being reported, since no meaningful check can run.
    """
    if max_violations < 1:
        raise UsageError("max_violations must be at least 1")
    if labels is None:
        labels = [str(i + 1) for i in range(len(matrix))]
    report, _ = _analyze(labels, matrix, epsilon, max_violations)
    return report


def build_space(
    labels: Sequence[str],
    matrix: Sequence[Sequence[Numeric]] | _ValueIds | _Gaps,
    epsilon: Numeric = 0,
) -> UltrametricSpace:
    """Validate and construct a space, raising on any violation.

    Cells are quantized by :func:`quantize`: ordered by float, with only
    the values something reads built exactly. A float means the decimal
    of its repr, so float 0.1 and ``Fraction(0.1)`` stay apart.
    """
    report, space = _analyze(labels, matrix, epsilon, DEFAULT_MAX_VIOLATIONS)
    if space is None:
        raise UltrametricViolationError(report)
    return space


@dataclass(frozen=True)
class Ball:
    center: str
    radius: Fraction
    closed: bool
    members: frozenset[str]


def ball(space: UltrametricSpace, x: str, radius: Numeric, closed: bool = False) -> Ball:
    """The open ball {p : d(x,p) < r}, or the closed one with <=."""
    r = to_fraction(radius)
    if r <= 0:
        raise UsageError("ball radius must be positive")
    i = space.index(x)
    members = frozenset(
        lab
        for lab, rank in zip(space.labels, space._rows([i])[0].tolist())
        if (v := space.table.value(rank)) < r or (closed and v == r)
    )
    return Ball(center=x, radius=r, closed=closed, members=members)


@dataclass(frozen=True)
class TriangleProfile:
    points: tuple[str, str, str]
    distances: tuple[Fraction, Fraction, Fraction]  # ascending
    isosceles: bool  # the two largest sides are equal

    @property
    def base(self) -> Fraction:
        return self.distances[0]


def triangle_profile(space: UltrametricSpace, x: str, y: str, z: str) -> TriangleProfile:
    """Sorted side lengths of a triangle; in a valid space the top two are equal."""
    if len({x, y, z}) != 3:
        raise UsageError("triangle_profile needs three distinct points")
    sides = sorted((space.d(x, y), space.d(x, z), space.d(y, z)))
    return TriangleProfile(
        points=(x, y, z),
        distances=(sides[0], sides[1], sides[2]),
        isosceles=sides[1] == sides[2],
    )
