"""Finite ultrametric spaces with exact, rank-encoded distances.

A space stores its distance matrix as small-integer ranks into a sorted
table of distinct positive values. Every comparison the theory depends on
(equality of two distances, which of two distances is larger) is an exact
integer comparison; the actual magnitudes only matter at ingestion and
serialization time.

Rank 0 is reserved for distance zero (the diagonal); rank ``i >= 1``
denotes ``table.values[i - 1]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import UltrametricViolationError, UnknownLabelError, UsageError
from .values import Numeric, format_value, group_values, to_fraction

DEFAULT_MAX_VIOLATIONS = 16

ZERO = Fraction(0)


def _check_labels(labels: Sequence[str]) -> None:
    if len(labels) < 2:
        raise UsageError("an ultrametric space needs at least two points")
    seen: set[str] = set()
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise UsageError(f"invalid point label {lab!r}: labels are nonempty text")
        if "," in lab or any(ord(c) < 32 or ord(c) == 127 for c in lab):
            raise UsageError(f"invalid point label {lab!r}: no commas or control characters")
        if lab in seen:
            raise UsageError(f"duplicate point label {lab!r}")
        seen.add(lab)


@dataclass(frozen=True)
class DistanceTable:
    """The strictly increasing tuple of distinct positive distance values.

    ``texts`` optionally remembers the decimal spelling each value had in
    its source document, so reports and CSV output can reproduce it.
    """

    values: tuple[Fraction, ...]
    texts: tuple[str | None, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.texts:
            object.__setattr__(self, "texts", (None,) * len(self.values))
        if len(self.texts) != len(self.values):
            raise UsageError("distance table texts must align with values")
        for a, b in itertools.pairwise(self.values):
            if not a < b:
                raise UsageError("distance table values must be strictly increasing")
        if self.values and self.values[0] <= 0:
            raise UsageError("distance table values must be positive")

    def __len__(self) -> int:
        return len(self.values)

    def value(self, rank: int) -> Fraction:
        return ZERO if rank == 0 else self.values[rank - 1]

    def text(self, rank: int) -> str:
        """Decimal rendering of the value at ``rank``, preferring source spelling."""
        if rank == 0:
            return "0"
        stored = self.texts[rank - 1]
        return stored if stored is not None else format_value(self.values[rank - 1])


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


@dataclass(frozen=True, eq=False)
class UltrametricSpace:
    """An immutable finite ultrametric space.

    ``ranks[i, j]`` is the rank-encoded distance between ``labels[i]`` and
    ``labels[j]``, held in a read-only int32 array. Instances are only
    built through :func:`build_space`, the rank-level constructor it
    shares with derived spaces, or by restricting a valid space, so the
    strong triangle inequality holds; all methods are pure reads and safe
    to call concurrently.
    """

    labels: tuple[str, ...]
    table: DistanceTable
    ranks: np.ndarray

    def __post_init__(self):
        self.ranks.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, UltrametricSpace):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.table == other.table
            and np.array_equal(self.ranks, other.ranks)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.table, self.ranks.tobytes()))

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
        return int(self.ranks[self.index(x), self.index(y)])

    def d(self, x: str, y: str) -> Fraction:
        return self.table.value(self.rank(x, y))

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All unordered label pairs in lexicographic order."""
        return itertools.combinations(sorted(self.labels), 2)

    def value_matrix(self) -> list[list[Fraction]]:
        return [[self.table.value(r) for r in row] for row in self.ranks.tolist()]

    def value_texts(self) -> dict[Fraction, str]:
        """Source spellings of the table values, where known."""
        return {
            v: t for v, t in zip(self.table.values, self.table.texts) if t is not None
        }

    def restrict(self, subset: Iterable[str]) -> "UltrametricSpace":
        """The induced subspace on ``subset``, in this space's label order."""
        idx = sorted(self.index(lab) for lab in set(subset))
        labels = tuple(self.labels[i] for i in idx)
        _check_labels(labels)
        # a principal submatrix of an ultrametric is ultrametric: no revalidation
        table, ranks = _compact(self.table, self.ranks[np.ix_(idx, idx)])
        return UltrametricSpace(labels=labels, table=table, ranks=ranks)


def _rank_matrix(cells, epsilon: Fraction) -> tuple[tuple[Fraction, ...], np.ndarray]:
    """Representatives and symmetric int32 ranks of a square matrix's upper triangle."""
    n = len(cells)
    upper = [cells[i][j] for i in range(n) for j in range(i + 1, n)]
    reps, rank_of = group_values(upper, epsilon)
    arr = np.zeros((n, n), dtype=np.int32)
    arr[np.triu_indices(n, 1)] = [rank_of[v] for v in upper]
    return reps, arr + arr.T


def _compact(table: DistanceTable, rank_arr: np.ndarray) -> tuple[DistanceTable, np.ndarray]:
    """Drop the ranks a matrix (diagonal included) does not use, keeping spellings."""
    used, inverse = np.unique(rank_arr, return_inverse=True)
    kept = used[1:].tolist()
    compact = DistanceTable(
        values=tuple(table.values[r - 1] for r in kept),
        texts=tuple(table.texts[r - 1] for r in kept),
    )
    return compact, inverse.reshape(rank_arr.shape).astype(np.int32)


def _triangle_violations(rank_arr, labels, table, max_violations):
    """Witness triples (x, y, z) with d(x,y) > max(d(x,z), d(z,y))."""
    found: list[Violation] = []
    truncated = False
    n = len(labels)
    for k in range(n):
        allowed = np.maximum.outer(rank_arr[:, k], rank_arr[k, :])
        bad = np.triu(rank_arr > allowed, 1)
        for i, j in np.argwhere(bad):
            if len(found) >= max_violations:
                truncated = True
                break
            dij, dik, dkj = (
                table.value(rank_arr[i, j]),
                table.value(rank_arr[i, k]),
                table.value(rank_arr[k, j]),
            )
            found.append(
                Violation(
                    kind="triangle",
                    labels=(labels[i], labels[j], labels[k]),
                    values=(dij, dik, dkj),
                    detail=(
                        f"d({labels[i]},{labels[j]})={format_value(dij)} > "
                        f"max(d({labels[i]},{labels[k]})={format_value(dik)}, "
                        f"d({labels[k]},{labels[j]})={format_value(dkj)})"
                    ),
                )
            )
        if truncated:
            break
    return found, truncated


def _analyze(
    labels: Sequence[str],
    matrix: Sequence[Sequence[Numeric]],
    epsilon: Numeric,
    max_violations: int,
    value_texts: Mapping[Fraction, str] | None,
):
    _check_labels(labels)
    n = len(labels)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise UsageError(f"distance matrix must be {n}x{n} to match the labels")
    eps = to_fraction(epsilon)
    if eps < 0:
        raise UsageError("epsilon must be nonnegative")

    violations: list[Violation] = []
    cells: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            try:
                v = to_fraction(matrix[i][j])
            except (ValueError, TypeError):
                violations.append(
                    Violation(
                        kind="nonfinite",
                        labels=(labels[i], labels[j]),
                        values=(),
                        detail=f"entry ({labels[i]},{labels[j]}) is not a finite number: {matrix[i][j]!r}",
                    )
                )
                continue
            cells[i][j] = v
            if i == j and v != 0:
                violations.append(
                    Violation(
                        kind="diagonal",
                        labels=(labels[i],),
                        values=(v,),
                        detail=f"diagonal entry for {labels[i]} is {format_value(v)}, expected 0",
                    )
                )
            elif i < j and v < 0:
                violations.append(
                    Violation(
                        kind="negative",
                        labels=(labels[i], labels[j]),
                        values=(v,),
                        detail=f"d({labels[i]},{labels[j]})={format_value(v)} is negative",
                    )
                )
            elif i < j and v == 0:
                violations.append(
                    Violation(
                        kind="positivity",
                        labels=(labels[i], labels[j]),
                        values=(v,),
                        detail=f"d({labels[i]},{labels[j]})=0 for distinct points",
                    )
                )

    for i in range(n):
        for j in range(i + 1, n):
            a, b = cells[i][j], cells[j][i]
            if a is None or b is None:
                continue
            if abs(a - b) > eps:
                violations.append(
                    Violation(
                        kind="asymmetry",
                        labels=(labels[i], labels[j]),
                        values=(a, b),
                        detail=(
                            f"d({labels[i]},{labels[j]})={format_value(a)} differs from "
                            f"d({labels[j]},{labels[i]})={format_value(b)}"
                        ),
                    )
                )

    if violations:
        report = ValidationReport(
            ok=False,
            violations=tuple(violations[:max_violations]),
            truncated=len(violations) > max_violations,
        )
        return report, None

    reps, rank_arr = _rank_matrix(cells, eps)
    texts = value_texts or {}
    table = DistanceTable(values=reps, texts=tuple(texts.get(v) for v in reps))
    return _space_from_ranks(labels, table, rank_arr, max_violations)


def _space_from_ranks(labels, table, rank_arr, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Check labels and triangles of a symmetric rank matrix with a zero diagonal.

    Returns the report and the space, or None in its place when invalid.
    """
    _check_labels(labels)
    tri, truncated = _triangle_violations(rank_arr, list(labels), table, max_violations)
    if tri:
        return ValidationReport(ok=False, violations=tuple(tri), truncated=truncated), None
    space = UltrametricSpace(labels=tuple(labels), table=table, ranks=rank_arr)
    return ValidationReport(ok=True, violations=()), space


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
    if labels is None:
        labels = [str(i + 1) for i in range(len(matrix))]
    report, _ = _analyze(labels, matrix, epsilon, max_violations, None)
    return report


def build_space(
    labels: Sequence[str],
    matrix: Sequence[Sequence[Numeric]],
    epsilon: Numeric = 0,
    value_texts: Mapping[Fraction, str] | None = None,
) -> UltrametricSpace:
    """Validate and construct a space, raising on any violation."""
    report, space = _analyze(
        labels, matrix, epsilon, DEFAULT_MAX_VIOLATIONS, value_texts
    )
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
        for lab, rank in zip(space.labels, space.ranks[i].tolist())
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
