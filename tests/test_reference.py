"""Rank-level paths checked against the `Fraction`-matrix code they replaced.

Each reference below builds its result the way the library once did: a
matrix of exact values, checked and quantized cell by cell, then
validated by the O(n³) triangle sweep. The rank-level code must give an
equal space (labels, table, ranks) and the same CSV bytes (spellings
included), or the same validation report. Coordinate tables are checked
the same way against per-cell `Fraction` loops, `is_k_generator`
against the n x n x |S| comparison it replaced, the partner classes
against the component search over mate lists and, read off the gap
form, against the O(n²) mate mask, the dendrogram kernel against the
broadcast gap triangle it replaced, the sorted rows against Prim's
order, `reconstruct` against the landmark-star closure it replaced and
the pair loop, epsilon grouping on
integer units against the `Fraction` chain, the CSV row split
against the version that strips every field, the accept test against
the per-cell masks, the value sort against numpy's stable sort and the
separator gather against the newline and comma counts, the plain
reader's spellings from its key words against slicing each out of the
text, the subdominant closure on value ids against the ranks
`_rank_ids` gave, and the tables that hold one value list, built when
read, against the eager tuples every layer once built, and the one
gap-form constructor against `_compact`, the `_Gaps` branch and the
compaction each producer did itself. Spellings travel here the way they
once did, in dicts keyed by `Fraction`.
"""

import itertools
import math
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ultrabase import (
    Ball,
    CoordinateTable,
    CoordinateTableError,
    NotGeneratorError,
    Partnered,
    ParseError,
    Pseudopartnered,
    UltrametricViolationError,
    UsageError,
    ball,
    build_space,
    classify_point,
    coordinates,
    distinguishers,
    is_k_generator,
    landmark_independence_witness,
    metric_bases,
    nearest_set,
    parse_coordinate_csv,
    parse_distance_csv,
    parse_newick,
    partner_partition,
    pseudopartnering_trace,
    random_dendrogram_space,
    reciprocal_min_space,
    reconstruct,
    subdominant_ultrametric,
    uniform_space,
    validate_ultrametric,
    write_coordinate_csv,
    write_distance_csv,
)
from ultrabase.basis import GeneratorCheck
from ultrabase.core import (
    DEFAULT_MAX_VIOLATIONS,
    DistanceTable,
    UltrametricSpace,
    ValidationReport,
    Violation,
    _check_labels,
    _cophenetic,
    _leaf_gaps,
    _single_linkage,
    _sorted_rows,
    _triangle_violations,
)
from ultrabase.errors import InternalInvariantError
from ultrabase.partner import INFINITY, PartnerPartition, PseudopartneringTrace, TraceStep
import ultrabase.ingest as ingest_module
import ultrabase.values as values_module
from ultrabase.ingest import _csv_rows
from ultrabase.values import (
    MAX_DIGITS,
    ValueList,
    _parse_general,
    format_value,
    group_values,
    parse_decimal,
    quantize,
    ratio_text,
    to_fraction,
)

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def analyze_reference(labels, matrix, epsilon, max_violations, value_texts):
    """Per-cell checks, per-cell quantization, then the triangle sweep."""
    _check_labels(labels)
    n = len(labels)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise UsageError(f"distance matrix must be {n}x{n} to match the labels")
    eps = to_fraction(epsilon)
    if eps < 0:
        raise UsageError("epsilon must be nonnegative")

    violations = []
    cells = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            try:
                v = to_fraction(matrix[i][j])
            except (ValueError, TypeError, ParseError):
                violations.append(Violation(
                    kind="nonfinite",
                    labels=(labels[i], labels[j]),
                    values=(),
                    detail=f"entry ({labels[i]},{labels[j]}) is not a finite number: {matrix[i][j]!r}",
                ))
                continue
            cells[i][j] = v
            if i == j and v != 0:
                violations.append(Violation(
                    kind="diagonal",
                    labels=(labels[i],),
                    values=(v,),
                    detail=f"diagonal entry for {labels[i]} is {format_value(v)}, expected 0",
                ))
            elif i < j and v < 0:
                violations.append(Violation(
                    kind="negative",
                    labels=(labels[i], labels[j]),
                    values=(v,),
                    detail=f"d({labels[i]},{labels[j]})={format_value(v)} is negative",
                ))
            elif i < j and v == 0:
                violations.append(Violation(
                    kind="positivity",
                    labels=(labels[i], labels[j]),
                    values=(v,),
                    detail=f"d({labels[i]},{labels[j]})=0 for distinct points",
                ))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cells[i][j], cells[j][i]
            if a is None or b is None:
                continue
            if abs(a - b) > eps:
                violations.append(Violation(
                    kind="asymmetry",
                    labels=(labels[i], labels[j]),
                    values=(a, b),
                    detail=(
                        f"d({labels[i]},{labels[j]})={format_value(a)} differs from "
                        f"d({labels[j]},{labels[i]})={format_value(b)}"
                    ),
                ))
    if violations:
        return ValidationReport(
            ok=False,
            violations=tuple(violations[:max_violations]),
            truncated=len(violations) > max_violations,
        ), None

    upper = [cells[i][j] for i in range(n) for j in range(i + 1, n)]
    reps, rank_of = group_values_by_value(upper, eps)
    arr = np.zeros((n, n), dtype=np.int32)
    arr[np.triu_indices(n, 1)] = [rank_of[v] for v in upper]
    arr = arr + arr.T
    texts = value_texts or {}
    table = DistanceTable(values=reps, texts=tuple(texts.get(v) for v in reps))
    tri, truncated = triangle_violations_reference(arr, list(labels), table, max_violations)
    if tri:
        return ValidationReport(ok=False, violations=tuple(tri), truncated=truncated), None
    space = UltrametricSpace(tuple(labels), table, *_single_linkage(arr))
    return ValidationReport(ok=True, violations=()), space


def triangle_violations_reference(rank_arr, labels, table, max_violations):
    """Witness triples by a sweep of every k over the whole matrix."""
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


def space_spellings(space):
    """The source spellings of a space's values, by value."""
    return {v: t for v, t in zip(space.table.values, space.table.texts) if t is not None}


def table_spellings(table):
    """The source spellings of a coordinate table's values, by value."""
    return {v: t for v, t in zip(table.encoding[0], table.texts) if t is not None}


def build_space_reference(labels, matrix, epsilon=0, value_texts=None):
    report, space = analyze_reference(labels, matrix, epsilon, DEFAULT_MAX_VIOLATIONS, value_texts)
    if space is None:
        raise UltrametricViolationError(report)
    return space


def csv_rows_reference(text):
    """Nonblank lines split at commas, every field stripped."""
    rows = []
    for line in text.removeprefix("\ufeff").splitlines():
        if line.strip():
            rows.append(list(map(str.strip, line.split(","))))
    if not rows:
        raise ParseError("empty document")
    return rows


def parse_distance_csv_reference(text, epsilon=0):
    """One `parse_decimal` per cell; the first spelling of each value wins."""
    rows = csv_rows_reference(text)
    labels = rows[0]
    n = len(labels)
    if len(rows) != n + 1:
        raise ParseError(f"expected {n} data rows after the header, found {len(rows) - 1}")
    matrix, texts = [], {}
    for r, fields in enumerate(rows[1:], start=2):
        if len(fields) != n:
            raise ParseError(f"expected {n} fields, found {len(fields)}", line=r)
        row = []
        for i, tok in enumerate(fields):
            try:
                v = parse_decimal(tok)
            except ParseError as exc:
                raise ParseError(str(exc), line=r) from None
            row.append(v)
            if i != r - 2:
                texts.setdefault(v, tok)
        matrix.append(row)
    return build_space_reference(labels, matrix, epsilon=epsilon, value_texts=texts)


class _NewickNode:
    """A parsed tree node; its leaves are leaves ``lo``..``hi - 1`` in document order."""

    __slots__ = ("children", "leaf_label", "length", "lo", "hi")

    def __init__(self, children, leaf_label, length, lo, hi):
        self.children = children
        self.leaf_label = leaf_label
        self.length = length
        self.lo = lo
        self.hi = hi


class _NewickParser:
    """Iterative descent over the equidistant-tree subset of Newick, one
    character per step, one exact length per branch.

    Grammar: tree := subtree ";" ; subtree := leaf ":" length
    | "(" subtree ("," subtree)+ ")" [label] [":" length]. Branch lengths
    are mandatory except on the root. Open parentheses live on an
    explicit stack.
    """

    _DELIMITERS = set("(),:;")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.leaves = 0

    def error(self, message: str):
        raise ParseError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def token(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in self._DELIMITERS or c.isspace():
                break
            self.pos += 1
        return self.text[start:self.pos]

    def branch_length(self, required: bool):
        self.skip_ws()
        if self.peek() != ":":
            if required:
                self.error("missing branch length")
            return None
        self.pos += 1
        self.skip_ws()
        tok = self.token()
        try:
            length = parse_decimal(tok)
        except ParseError:
            self.error(f"invalid branch length {tok!r}")
        if length < 0:
            self.error(f"negative branch length {tok!r}")
        return length

    def subtree(self) -> _NewickNode:
        open_nodes = []  # children read so far, per open "("
        while True:
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                open_nodes.append([])
                continue
            label = self.token()
            if not label:
                self.error("expected a leaf label or '('")
            length = self.branch_length(required=bool(open_nodes))
            node = _NewickNode([], label, length, self.leaves, self.leaves + 1)
            self.leaves += 1
            while open_nodes:
                open_nodes[-1].append(node)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                if self.peek() != ")":
                    self.error("expected ',' or ')'")
                self.pos += 1
                children = open_nodes.pop()
                if len(children) < 2:
                    self.error("an internal node needs at least two children")
                self.skip_ws()
                self.token()  # optional internal label, discarded
                length = self.branch_length(required=bool(open_nodes))
                node = _NewickNode(children, None, length, children[0].lo, children[-1].hi)
            else:
                return node

    def parse(self) -> _NewickNode:
        root = self.subtree()
        self.skip_ws()
        if self.peek() != ";":
            self.error("expected ';'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing content after ';'")
        return root


def parse_newick_reference(text, epsilon=F(1, 10**9)):
    """The character-by-character parser, then a recursive leaf collection
    with `Fraction` path sums and a pair loop over the parsed tree."""
    root = _NewickParser(text.removeprefix("\ufeff")).parse()
    leaves = []

    def collect(node, depth):
        depth = depth + (node.length or 0)
        if node.leaf_label is not None:
            leaves.append((node.leaf_label, depth))
            return
        for child in node.children:
            collect(child, depth)

    collect(root, F(0))
    labels = [lab for lab, _ in leaves]
    if len(labels) < 2:
        raise ParseError("a tree needs at least two leaves")
    for k, lab in enumerate(labels):
        if lab in labels[:k]:
            raise ParseError(f"duplicate leaf label {lab!r}")
    lo, hi = min(leaves, key=lambda t: t[1]), max(leaves, key=lambda t: t[1])
    if hi[1] - lo[1] > to_fraction(epsilon):
        raise UltrametricViolationError(ValidationReport(ok=False, violations=(Violation(
            kind="equidistance",
            labels=(lo[0], hi[0]),
            values=(lo[1], hi[1]),
            detail=(
                f"tree is not equidistant: root-to-leaf path sums "
                f"{format_value(lo[1])} ({lo[0]}) and {format_value(hi[1])} ({hi[0]}) differ"
            ),
        ),)))
    depths = dict(leaves)
    index = {lab: i for i, lab in enumerate(labels)}
    matrix = [[F(0)] * len(labels) for _ in labels]

    def pair_up(node, depth):
        depth = depth + (node.length or 0)
        if node.leaf_label is not None:
            return [node.leaf_label]
        groups = [pair_up(child, depth) for child in node.children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi]:
                    for b in groups[gj]:
                        i, j = index[a], index[b]
                        matrix[i][j] = matrix[j][i] = depths[a] + depths[b] - 2 * depth
        return [lab for grp in groups for lab in grp]

    pair_up(root, F(0))
    return build_space_reference(labels, matrix, epsilon=epsilon)


def restrict_reference(space, subset):
    keep = set(subset)
    labels = [lab for lab in space.labels if lab in keep]
    matrix = [[space.d(a, b) for b in labels] for a in labels]
    return build_space_reference(labels, matrix, value_texts=space_spellings(space))


def reconstruct_reference(table):
    """Pair loop over `Fraction`s; the input checks shared with `reconstruct` are left out."""
    pts, rows = table.points, table.rows
    n = len(pts)
    matrix = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = next(max(u, v) for u, v in zip(rows[i], rows[j]) if u != v)
            matrix[i][j] = matrix[j][i] = d
    try:
        space = build_space_reference(pts, matrix, value_texts=table_spellings(table))
    except UltrametricViolationError as exc:
        first = exc.report.violations[0]
        raise CoordinateTableError(f"inconsistent coordinates: {first.detail}") from exc
    for i, lab in enumerate(pts):
        for c, s in enumerate(table.landmarks):
            if space.d(lab, s) != rows[i][c]:
                raise CoordinateTableError(
                    f"inconsistent coordinates: rebuilt d({lab},{s}) = "
                    f"{space.d(lab, s)} but the table says {rows[i][c]}"
                )
    return space


def subdominant_reference(matrix, labels, epsilon):
    """Merge values within epsilon, then the per-k min-max closure on `Fraction`s."""
    n = len(matrix)
    vals = [[to_fraction(v) for v in row] for row in matrix]
    upper = [vals[i][j] for i in range(n) for j in range(i + 1, n)]
    reps, rank_of = group_values_by_value(upper, to_fraction(epsilon))
    d = [
        [reps[rank_of[vals[min(i, j)][max(i, j)]] - 1] if i != j else F(0) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], max(d[i][k], d[k][j]))
    return build_space_reference(labels, d)


def spelled_text(space):
    """A CSV of the space whose every value has its own spelling."""
    cells = ["0"] + [f"{v}.{'0' * r}" for r, v in enumerate(space.table.values, start=1)]
    lines = [",".join(space.labels)]
    lines += [",".join(cells[r] for r in row) for row in space._rows().tolist()]
    return "\n".join(lines) + "\n"


def spelled(space):
    """The same space parsed from a CSV whose every value has its own spelling."""
    return parse_distance_csv(spelled_text(space))


def assert_same(actual, expected):
    assert actual == expected
    assert hash(actual) == hash(expected)
    assert actual.table.texts == expected.table.texts
    assert write_distance_csv(actual) == write_distance_csv(expected)


dendrograms = st.builds(
    random_dendrogram_space,
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    value_count=st.integers(min_value=1, max_value=6),
)


@settings(max_examples=40, deadline=None)
@given(dendrograms, st.data())
def test_restrict_matches_fraction_rebuild(space, data):
    space = data.draw(st.sampled_from([space, spelled(space)]))
    subset = data.draw(
        st.lists(st.sampled_from(space.labels), min_size=2, unique=True)
    )
    assert_same(space.restrict(subset), restrict_reference(space, subset))


@settings(max_examples=30, deadline=None)
@given(dendrograms, st.data())
def test_reconstruct_matches_fraction_pair_loop(space, data):
    space = spelled(space)
    basis = data.draw(st.sampled_from(list(metric_bases(space).bases(cap=20))))
    extra = data.draw(st.lists(st.sampled_from(space.labels), unique=True))
    landmarks = data.draw(st.permutations(sorted(set(basis) | set(extra))))
    table = coordinates(space, landmarks)
    rebuilt = reconstruct(table)
    assert_same(rebuilt, reconstruct_reference(table))
    assert_same(rebuilt, space)


@settings(max_examples=60, deadline=None)
@given(dendrograms, st.data())
def test_corrupted_coordinates_fail_like_the_pair_loop(space, data):
    basis = data.draw(st.sampled_from(list(metric_bases(space).bases(cap=20))))
    table = coordinates(space, basis)
    rows = [list(row) for row in table.rows]
    i = data.draw(st.integers(0, space.n - 1))
    c = data.draw(st.integers(0, len(basis) - 1))
    assume(table.points[i] != table.landmarks[c])
    choices = sorted(set(space.table.values) | {F(1, 2), F(1000)})
    rows[i][c] = data.draw(st.sampled_from(choices))
    assume(len({tuple(r) for r in rows}) == space.n)
    bad = CoordinateTable(
        landmarks=table.landmarks,
        points=table.points,
        rows=tuple(tuple(r) for r in rows),
        value_texts=table_spellings(table),
    )
    try:
        expected = reconstruct_reference(bad)
    except CoordinateTableError as exc:
        with pytest.raises(CoordinateTableError) as got:
            reconstruct(bad)
        assert str(got.value) == str(exc)
    else:
        assert_same(reconstruct(bad), expected)


def test_corrupted_coordinates_examples():
    # one rebuilt value contradicts the table; one table breaks a triangle
    cases = [
        (["s", "t"], [("s", [0, 5]), ("t", [5, 0]), ("a", [1, 1])]),
        (["s", "t"], [("s", [0, 9]), ("t", [9, 0]), ("x", [1, 3]), ("y", [2, 3]), ("z", [1, 1])]),
    ]
    for landmarks, rows in cases:
        table = CoordinateTable(
            landmarks=tuple(landmarks),
            points=tuple(lab for lab, _ in rows),
            rows=tuple(tuple(F(v) for v in vals) for _, vals in rows),
        )
        with pytest.raises(CoordinateTableError) as want:
            reconstruct_reference(table)
        with pytest.raises(CoordinateTableError) as got:
            reconstruct(table)
        assert str(got.value) == str(want.value)


@st.composite
def dissimilarities(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    matrix = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = F(draw(st.integers(1, 24)), 8)
    return matrix


@settings(max_examples=60, deadline=None)
@given(dissimilarities(), st.sampled_from([0, F(1, 8), F(1, 4), F(3, 4)]))
def test_subdominant_matches_fraction_closure(matrix, epsilon):
    labels = [f"x{i}" for i in range(len(matrix))]
    assert_same(
        subdominant_ultrametric(matrix, labels, epsilon=epsilon),
        subdominant_reference(matrix, labels, epsilon),
    )


@settings(max_examples=40, deadline=None)
@given(dissimilarities())
def test_subdominant_matches_scipy_single_linkage(matrix):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    dense = np.array(matrix, dtype=float)  # eighths: exact in binary floating point
    cophenetic = squareform(hierarchy.cophenet(hierarchy.linkage(squareform(dense), method="single")))
    space = subdominant_ultrametric(matrix)
    assert np.array_equal(np.array(space.value_matrix(), dtype=float), cophenetic)


def outcome(fn, *args, **kwargs):
    """What a call gives: a space, a validation report, or a usage error's text."""
    try:
        return "space", fn(*args, **kwargs)
    except UltrametricViolationError as exc:
        return "invalid", exc.report
    except UsageError as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(actual, expected):
    assert actual[0] == expected[0], (actual, expected)
    if actual[0] == "space":
        assert_same(actual[1], expected[1])
    else:
        assert actual[1] == expected[1]


def spellings(v):
    """Texts that all denote the exact value v."""
    base = format_value(v)
    if F(base) != v:  # not a terminating decimal
        return [f"{v.numerator}/{v.denominator}"]
    padded = base + ("0" if "." in base else ".0")
    return [base, padded, f"{v.numerator}/{v.denominator}", base + "e0"]


@st.composite
def raw_matrices(draw, max_n=9):
    """A valid dendrogram matrix in eighths, then some cells overwritten.

    Overwrites hit one side of a pair or both, and use existing values,
    values near the mirror entry, new values, zero, negatives, nonzero
    diagonals, NaN, infinity, None and text that is no number.
    Cells are drawn as `Fraction`, int, float or decimal text.
    """
    n = draw(st.integers(2, max_n))
    space = random_dendrogram_space(n, seed=draw(st.integers(0, 10_000)),
                                    value_count=draw(st.integers(1, 5)))
    m = [[v / 8 for v in row] for row in space.value_matrix()]
    edits = draw(st.integers(0, 3)) if draw(st.booleans()) else draw(st.integers(0, 3 * n * n))
    pool = sorted({v for row in m for v in row} | {F(1, 8), F(3, 2), F(0)})
    for _ in range(edits):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mirror = m[j][i] if isinstance(m[j][i], Fraction) else F(1)
        v = draw(st.one_of(
            st.integers(-4, 4).map(lambda k: mirror + F(k, 8)),  # gaps at epsilon
            st.sampled_from(pool),
            st.sampled_from(pool).map(lambda x: -x - F(1, 8)),
            st.fractions(min_value=0, max_value=4, max_denominator=16),
            st.sampled_from([math.nan, math.inf, None, "x", "", "nan"]),
        ))
        m[i][j] = v
        if draw(st.booleans()) and v is not None:
            m[j][i] = v

    def dress(v):
        if not isinstance(v, Fraction):
            return v
        kind = draw(st.sampled_from(["fraction", "int", "float", "text"]))
        if kind == "int" and v.denominator == 1:
            return int(v)
        if kind == "float" and float(v) == v:
            return float(v)
        if kind == "text":
            return draw(st.sampled_from(spellings(v)))
        return v

    return space.labels, [[dress(v) for v in row] for row in m]


epsilons = st.sampled_from([0, F(1, 8), F(1, 2), "0.2"])
# the epsilons of the command-line checks: none, Newick's default, and three more
unit_epsilons = st.sampled_from([F(0), F(1, 10**9), F(5, 10**4), F(1, 1000), F(1, 2)])


@settings(max_examples=150, deadline=None)
@given(raw_matrices(), epsilons)
def test_build_space_matches_per_cell_reference(case, epsilon):
    labels, matrix = case
    assert_same_outcome(outcome(build_space, labels, matrix, epsilon),
                        outcome(build_space_reference, labels, matrix, epsilon))


@settings(max_examples=100, deadline=None)
@given(raw_matrices(), epsilons, st.sampled_from([1, 3, 16, 1000]))
def test_validate_ultrametric_matches_per_cell_reference(case, epsilon, max_violations):
    labels, matrix = case
    expected = outcome(lambda: analyze_reference(labels, matrix, epsilon, max_violations, None)[0])
    actual = outcome(validate_ultrametric, matrix, labels, epsilon, max_violations)
    assert actual == expected


def test_validate_ultrametric_needs_room_for_a_witness():
    # The reference, capped at 0, passed this triangle violation as valid.
    matrix = [[0, 3, 2], [3, 0, 2], [2, 2, 0]]
    assert analyze_reference(["a", "b", "c"], matrix, 0, 0, None)[0].ok
    assert not validate_ultrametric(matrix).ok
    for cap in (0, -1):
        with pytest.raises(UsageError, match="max_violations must be at least 1"):
            validate_ultrametric(matrix, max_violations=cap)


def test_build_space_keeps_equal_float_and_fraction_apart():
    # float 0.1 means 1/10; the Fraction of its binary expansion is another value
    binary = F(0.1)
    matrix = [[0, 0.1, binary], [0.1, 0, binary], [binary, binary, 0]]
    assert build_space(["a", "b", "c"], matrix).table.values == (F(1, 10), binary)
    unhashable = [[0, [1]], [[1], 0]]
    report = validate_ultrametric(unhashable)
    assert report == analyze_reference(["1", "2"], unhashable, 0, 16, None)[0]
    assert [v.kind for v in report.violations] == ["nonfinite", "nonfinite"]
    # sequence cells stay cells in object arrays: every cell a list, or one numpy array
    lists = [[[0], [1]], [[1], [0]]]
    array = [[0, np.array([1.0, 2.0])], [1, 0]]
    for matrix, bad in ((lists, [(0, 0), (0, 1), (1, 0), (1, 1)]), (array, [(0, 1)])):
        report = validate_ultrametric(matrix)
        assert report == analyze_reference(["1", "2"], matrix, 0, 16, None)[0]
        assert [(v.kind, v.detail) for v in report.violations] == [
            ("nonfinite", f"entry ({i + 1},{j + 1}) is not a finite number: {matrix[i][j]!r}") for i, j in bad
        ]
        i, j = bad[0]
        with pytest.raises(UsageError, match=rf"^entry \({i + 1},{j + 1}\) is not a finite number$"):
            subdominant_ultrametric(matrix)
        with pytest.raises(UsageError, match=rf"^coordinate \({'ab'[i]}, {'ab'[j]}\) is not a finite number$"):
            CoordinateTable(("a", "b"), ("a", "b"), matrix)


def test_numpy_cells_are_numbers():
    for matrix in (np.array([[0, 1.5], [1.5, 0]]), np.array([[0, 3], [3, 0]])):
        assert validate_ultrametric(matrix) == validate_ultrametric(matrix.tolist())
        assert validate_ultrametric(matrix).ok
        assert build_space(["a", "b"], matrix) == build_space(["a", "b"], matrix.tolist())
        assert subdominant_ultrametric(matrix) == subdominant_ultrametric(matrix.tolist())


@st.composite
def csv_texts(draw):
    """A distance CSV of a raw matrix in mixed spellings; sometimes with
    one bad token and one row with a wrong field count."""
    labels, matrix = draw(raw_matrices(max_n=7))
    cells = []
    for row in matrix:
        line = []
        for v in row:
            if v is None or (isinstance(v, float) and not math.isfinite(v)):
                v = F(5, 4)
            line.append(v if isinstance(v, str) else draw(st.sampled_from(spellings(to_fraction(v)))))
        cells.append(line)
    n = len(labels)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(["x", "", "1/0", "nan", "0x1"]))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        cells[r] = cells[r][:-1] if draw(st.booleans()) else cells[r] + ["1"]
    return "\n".join([",".join(labels)] + [",".join(row) for row in cells]) + "\n"


@settings(max_examples=150, deadline=None)
@given(csv_texts(), epsilons)
def test_parse_distance_csv_matches_per_cell_reference(text, epsilon):
    assert_same_outcome(outcome(parse_distance_csv, text, epsilon),
                        outcome(parse_distance_csv_reference, text, epsilon))


@st.composite
def plain_csv_texts(draw):
    """A dendrogram CSV in plain decimals (thousandths, sometimes padded
    with zeros), with a few cells nudged by ten-thousandths on one side of
    their pair: asymmetry within epsilon or beyond it, or a zero."""
    n = draw(st.integers(2, 6))
    space = random_dendrogram_space(n, seed=draw(st.integers(0, 10_000)), value_count=draw(st.integers(1, 4)))
    m = [[v / 1000 for v in row] for row in space.value_matrix()]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            m[i][j] = max(m[i][j] + F(draw(st.integers(-10, 10)), 10**4), F(0))

    def spell(v):
        text = format_value(v)
        return text + "0" * draw(st.integers(0, 2)) if "." in text else text

    rows = [",".join(space.labels)] + [",".join(spell(v) for v in row) for row in m]
    return "\n".join(rows) + "\n"


@settings(max_examples=150, deadline=None)
@given(plain_csv_texts(), unit_epsilons)
@example("a,b\n0,0.001\n0.002,0\n", F(1, 1000))  # asymmetric by exactly epsilon
@example("a,b\n0,0.001\n0.0025,0\n", F(1, 1000))
def test_plain_csv_asymmetry_within_epsilon_matches_per_cell_reference(text, epsilon):
    assert_same_outcome(outcome(parse_distance_csv, text, epsilon),
                        outcome(parse_distance_csv_reference, text, epsilon))


def test_parse_error_precedence_examples():
    head = "a,b,c\n"
    cases = [
        "0,1,2\n1,0,x\n2,2\n",  # bad token (line 3) before a short row (line 4)
        "0,1,2\n1,0\n2,x,0\n",  # short row (line 3) before a bad token (line 4)
        "0,1,2\n1,0,y,5\n2,2,0\n",  # one row with both: its field count wins
        "0,1,z\n1,0,1\nz,1,0\n",  # one bad spelling used twice: its first line
        "0,5e-1,2\n0.5,0,2\n2,2,x\n",  # a bad token after plain and other spellings
        "0,1,2\n1,0,1e0\n2,1e,0\n",  # a bad token after a valid spelling that is not plain
    ]
    for body in cases:
        with pytest.raises(ParseError) as want:
            parse_distance_csv_reference(head + body)
        with pytest.raises(ParseError) as got:
            parse_distance_csv(head + body)
        assert str(got.value) == str(want.value)


# Whitespace that `str.strip` and `str.split` remove; some of it also ends a line.
CSV_SPACES = [" ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
CSV_LINE_ENDS = ["\n", "\r\n", "\r", "\x1c", "\x1f", "\x85", "\u2028"]


@st.composite
def spaced_csv_texts(draw):
    """CSV-like text with whitespace around fields, blank and
    whitespace-only lines, assorted line ends and maybe a leading BOM."""
    pad = st.text(st.sampled_from(CSV_SPACES), max_size=2)
    field = st.builds(lambda a, t, b: a + t + b, pad, st.text("01.a/", max_size=3), pad)
    line = st.one_of(
        st.lists(field, min_size=1, max_size=4).map(",".join),
        pad,  # blank or whitespace-only
    )
    lines = draw(st.lists(line, max_size=6))
    text = "".join(ln + draw(st.sampled_from(CSV_LINE_ENDS)) for ln in lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text


def rows_outcome(fn, text):
    try:
        return "rows", fn(text)
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(spaced_csv_texts(),
                 st.lists(st.sampled_from(CSV_SPACES + CSV_LINE_ENDS + ["1", ",", "\ufeff"])).map("".join)))
@example("")
@example("\ufeff")
@example(" \t\r\n\xa0\u2028")
@example("a, b\xa0,c\n\x1c1,\t2 ,3\r\n")
def test_csv_rows_strip_only_where_there_is_whitespace(text):
    assert rows_outcome(_csv_rows, text) == rows_outcome(csv_rows_reference, text)


@st.composite
def newick_trees(draw):
    """Random equidistant rooted trees with heights in quarters, rendered as
    Newick; sometimes one branch is longer by a quarter or by 10^-12."""
    nodes = [(f"L{i}", F(0)) for i in range(draw(st.integers(2, 12)))]
    while len(nodes) > 1:
        k = draw(st.integers(2, len(nodes)))
        start = draw(st.integers(0, len(nodes) - k))
        group = nodes[start:start + k]
        height = max(h for _, h in group) + F(draw(st.integers(0, 3)), 4)
        merged = ",".join(f"{t}:{format_value(height - h)}" for t, h in group)
        nodes[start:start + k] = [(f"({merged})", height)]
    text = nodes[0][0] + ";"
    if draw(st.booleans()):
        cut = draw(st.sampled_from([i for i, c in enumerate(text) if c == ":"]))
        end = min(i for i in range(cut + 1, len(text) + 1) if i == len(text) or text[i] in ",);")
        bump = draw(st.sampled_from([F(1, 4), F(1, 10**12)]))
        text = text[:cut + 1] + str(F(text[cut + 1:end]) + bump) + text[end:]
    return text


# lengths of 25 fraction digits: the gaps, in units of 10**-25, are beyond int64
WIDE_TREE = "((A:0.1234567890123456789012345,B:0.1234567890123456789012345):0.0000000000000000000000001," \
            "C:0.1234567890123456789012346);"


@settings(max_examples=150, deadline=None)
@given(newick_trees(), st.sampled_from([F(1, 10**9), F(1, 4), F(1), 0]))
@example(WIDE_TREE, F(2 * 10**5, 10**30))  # the two gaps differ by exactly epsilon
@example(WIDE_TREE, F(2 * 10**5 - 1, 10**30))
def test_parse_newick_matches_pair_loop(text, epsilon):
    assert_same_outcome(outcome(parse_newick, text, epsilon),
                        outcome(parse_newick_reference, text, epsilon))


NEWICK_SPACES = [" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000"]


@st.composite
def odd_newick_trees(draw):
    """Trees like `newick_trees`, with every length in one of many spellings
    (decimal, exponent, n/d, underscore), odd whitespace around tokens,
    internal labels, sometimes a root length or a BOM inside a label."""
    space = st.text(st.sampled_from(NEWICK_SPACES), max_size=2)
    count = draw(st.integers(2, 9))
    nodes = [(f"L{i}", F(0)) for i in range(count)]
    if draw(st.booleans()):
        i = draw(st.integers(0, count - 1))
        nodes[i] = (f"L\ufeff{i}", F(0))
    bumped = draw(st.integers(0, 3 * count))  # a leaf index beyond count bumps none
    bump = draw(st.sampled_from([F(1, 4), F(1, 10**12)]))
    while len(nodes) > 1:
        k = draw(st.integers(2, len(nodes)))
        start = draw(st.integers(0, len(nodes) - k))
        group = nodes[start:start + k]
        height = max(h for _, h in group) + F(draw(st.integers(0, 3)), 4)
        parts = []
        for t, h in group:
            length = height - h + (bump if t == f"L{bumped}" else 0)
            parts.append(f"{draw(space)}{t}{draw(space)}:{draw(space)}"
                         f"{draw(st.sampled_from(wide_spellings(length)))}{draw(space)}")
        label = draw(st.sampled_from(["", "", "in", "1.5", "x\ufeffy"]))
        nodes[start:start + k] = [(f"({','.join(parts)}){draw(space)}{label}", height)]
    text = nodes[0][0]
    if draw(st.booleans()):
        text += ":" + draw(st.sampled_from(wide_spellings(F(draw(st.integers(0, 6)), 4))))
    return text + draw(space) + ";" + draw(space)


@st.composite
def mutated_newick_trees(draw):
    """`odd_newick_trees` with up to three delimiters deleted, duplicated or inserted."""
    text = draw(odd_newick_trees())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from("(),:;")) + text[at:]
            continue
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c in "(),:;"]))
        text = text[:at] + (text[at] * 2 if kind == "duplicate" else "") + text[at + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_newick_trees(), st.sampled_from([0, F(1, 10**9), F(1, 4), F(1)]))
@example("(A:1,B:1", F(1, 10**9))
@example("(A:1,B:-1e0,C:x);", 0)
@example("(A:1,A:1);", 0)
@example("A:1;", 0)
@example("(A:1,(B:1,C:1)x:0)\u3000:2\x85;\u2028", 0)
def test_parse_newick_token_scan_matches_character_parser(text, epsilon):
    """Same space, report, or error text and offset as the parser that read
    one character per step and one length per branch."""
    assert_same_outcome(outcome(parse_newick, text, epsilon),
                        outcome(parse_newick_reference, text, epsilon))


def test_newick_gaps_beyond_int64_are_compared_as_python_ints(monkeypatch):
    import ultrabase.core as core

    grouped = []
    group = core.group_values
    monkeypatch.setattr(core, "group_values", lambda values, eps: grouped.append(values) or group(values, eps))
    for epsilon in [F(0), F(1, 10**9), F(2 * 10**5, 10**30), F(2 * 10**5 - 1, 10**30)]:
        grouped.clear()
        space = parse_newick(WIDE_TREE, epsilon)
        assert_same(space, parse_newick_reference(WIDE_TREE, epsilon))
        units, digits = grouped[0].units()
        assert units.dtype == object and digits == 25
        assert len(space.table) == (1 if F(2, 10**25) <= epsilon else 2)


def exact_trees(seed, n):
    """A random multifurcating equidistant tree with integer heights, and a
    caterpillar with strictly increasing heights, each with n leaves."""
    rng = random.Random(seed)
    nodes = [(f"t{i}", 0) for i in range(n)]
    while len(nodes) > 1:
        k = rng.randint(2, min(4, len(nodes)))
        start = rng.randint(0, len(nodes) - k)
        group = nodes[start:start + k]
        height = max(h for _, h in group) + rng.randint(1, 5)
        merged = ",".join(f"{t}:{height - h}" for t, h in group)
        nodes[start:start + k] = [(f"({merged})", height)]
    caterpillar, height = "c0", 0
    for i in range(1, n):
        step = rng.randint(1, 9)
        caterpillar, height = f"({caterpillar}:{step},c{i}:{height + step})", height + step
    return nodes[0][0] + ";", caterpillar + ";"


def bump_first_leaf(text, bump):
    """The tree with its first leaf's length raised by ``bump``, written n/d."""
    start = text.index(":") + 1
    end = min(i for i in range(start, len(text)) if text[i] in ",);")
    length = F(text[start:end]) + bump
    return f"{text[:start]}{length.numerator}/{length.denominator}{text[end:]}"


@pytest.mark.parametrize("seed", [1, 2])
def test_parse_newick_matches_pair_loop_on_large_trees(seed):
    for text in exact_trees(seed, 300):
        assert_same(parse_newick(text), parse_newick_reference(text))
        # equidistant only within epsilon: the full checks on n x n units,
        # the last in units of 1 / (3 * 10**12), as the length does not terminate
        for bump, epsilon in [(F(1, 10**12), F(1, 10**9)), (F(1, 4), F(1)), (F(1, 3 * 10**12), F(1, 10**9))]:
            bumped = bump_first_leaf(text, bump)
            assert_same(parse_newick(bumped, epsilon), parse_newick_reference(bumped, epsilon))


def closure_reference(arr):
    """The per-k min-max closure on ranks."""
    for k in range(len(arr)):
        arr = np.minimum(arr, np.maximum.outer(arr[:, k], arr[k, :]))
    return arr


@st.composite
def rank_matrices(draw):
    """Symmetric rank matrices with a zero diagonal: dendrograms, perturbed
    dendrograms and arbitrary dissimilarities."""
    n = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["valid", "perturbed", "random"]))
    if kind == "random":
        arr = np.zeros((n, n), dtype=np.int32)
        arr[np.triu_indices(n, 1)] = draw(st.lists(
            st.integers(1, 6), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        return arr + arr.T
    arr = random_dendrogram_space(n, seed=draw(st.integers(0, 10_000)),
                                  value_count=draw(st.integers(1, 5)))._rows().copy()
    if kind == "perturbed":
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                arr[i, j] = arr[j, i] = draw(st.integers(1, int(arr.max()) + 1))
    return arr


@st.composite
def late_witness_matrices(draw):
    """d(a, b) = n - min(a, b), an ultrametric, with d(n-2, n-1) raised from
    2; raised to 4 or more, its only witness is the point n - 3."""
    n = draw(st.integers(4, 14))
    arr = n - np.minimum.outer(np.arange(n), np.arange(n))
    arr[n - 2, n - 1] = arr[n - 1, n - 2] = draw(st.integers(3, n + 1))
    np.fill_diagonal(arr, 0)
    return arr.astype(np.int32)


def gap_forms(most):
    """Rank matrices of ultrametrics with 2 to ``most`` points, relabelled
    by a random leaf order: random gaps (random trees), increasing gaps
    (caterpillars) and few distinct gaps (dendrograms of few heights)."""
    def matrix(n, seed, shape):
        rng = np.random.default_rng(seed)
        gaps = {"tree": lambda: rng.integers(1, n, n - 1),
                "caterpillar": lambda: np.cumsum(rng.integers(1, 3, n - 1)),
                "dendrogram": lambda: rng.integers(1, 4, n - 1)}[shape]()
        return cophenetic_reference(rng.permutation(n), gaps).astype(np.int32)

    return st.builds(matrix, st.integers(2, most), st.integers(0, 2**32 - 1),
                     st.sampled_from(["tree", "caterpillar", "dendrogram"]))


@st.composite
def valid_rank_matrices(draw):
    """Rank matrices of ultrametrics with 2-120 points: random dendrogram
    spaces relabelled, the gap forms above, and either with ranks merged
    in pairs, as epsilon merges neighbouring values."""
    arr = draw(st.one_of(gap_forms(120), st.builds(
        lambda n, seed, count: random_dendrogram_space(n, seed=seed, value_count=count)._rows(),
        st.integers(2, 120), st.integers(0, 10_000), st.integers(1, 6))))
    perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(arr))
    arr = arr[np.ix_(perm, perm)]
    return (arr + 1) // 2 if draw(st.booleans()) else arr


@settings(max_examples=300, deadline=None)
@given(valid_rank_matrices())
def test_sorted_rows_are_prims_order_on_valid_matrices(arr):
    order, gaps = _single_linkage(arr)
    assert np.array_equal(_sorted_rows(arr), order)
    assert np.array_equal(arr[order[:-1], order[1:]], gaps)
    everyone = np.arange(len(arr))
    assert np.array_equal(_leaf_gaps(arr, order, everyone, arr[order[:-1], order[1:]]), gaps)
    assert np.array_equal(_leaf_gaps(arr, order, everyone), gaps)  # the max rule at the first difference


@settings(max_examples=300, deadline=None)
@given(st.one_of(rank_matrices(), late_witness_matrices()), st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 7]))
def test_leaf_gaps_accept_exactly_the_ultrametrics(arr, seed, cells):
    import ultrabase.core as core

    ultrametric = np.array_equal(closure_reference(arr), arr)
    everyone = np.arange(len(arr))
    with patch.object(core, "_BLOCK_CELLS", cells or core._BLOCK_CELLS):
        order = _sorted_rows(arr)
        assert (_leaf_gaps(arr, order, everyone, arr[order[:-1], order[1:]]) is not None) == ultrametric
        # in any order, a gap form that passes has the matrix as its dendrogram
        order = np.random.default_rng(seed).permutation(len(arr))
        for gaps in (_leaf_gaps(arr, order, everyone), _leaf_gaps(arr, order, everyone, arr[order[:-1], order[1:]])):
            assert gaps is None or np.array_equal(cophenetic_reference(order, gaps), arr)


@settings(max_examples=300, deadline=None)
@given(rank_matrices())
def test_single_linkage_verdict_matches_triangle_sweep(arr):
    labels = [f"x{i}" for i in range(len(arr))]
    table = DistanceTable(values=tuple(F(v) for v in range(1, int(arr.max()) + 1)))
    witnesses, truncated = triangle_violations_reference(arr, labels, table, 16)
    closed = _cophenetic(*_single_linkage(arr))
    assert np.array_equal(closed, closure_reference(arr))
    assert np.array_equal(closed, arr) == (not witnesses and not truncated)


@settings(max_examples=300, deadline=None)
@given(st.one_of(rank_matrices(), late_witness_matrices()), st.sampled_from([1, 3, 16, 1000]),
       st.sampled_from([None, 1, 5, 64]))
def test_triangle_witnesses_from_pairs_above_the_closure_match_the_sweep(arr, max_violations, cells):
    import ultrabase.core as core

    labels = [f"x{i}" for i in range(len(arr))]
    table = DistanceTable(values=tuple(F(v) for v in range(1, int(arr.max()) + 1)))
    expected = triangle_violations_reference(arr, labels, table, max_violations)
    closed = _cophenetic(*_single_linkage(arr))
    with patch.object(core, "_BLOCK_CELLS", cells or core._BLOCK_CELLS):  # blocks of third points
        assert _triangle_violations(arr, closed, labels, table._list, max_violations) == expected
        # a witness never reads rank 0: it raises KeyError here
        assert _triangle_violations(arr, closed, labels, dict(enumerate(table.values, 1)), max_violations) == expected


def group_values_by_value(values, epsilon):
    """The dict mode `group_values` had: duplicates allowed, the representatives
    as a tuple and a dict from each value to its rank; sorted by float, then exactly."""
    distinct = list(dict.fromkeys(values))
    floats = [values_module._float(v) for v in distinct]
    order = sorted(range(len(distinct)), key=lambda i: (floats[i], distinct[i]))
    reps = order[:1]
    for a, b in zip(order, order[1:]):
        if distinct[b] - distinct[a] > epsilon:
            reps.append(b)
    rank = np.zeros(len(distinct), dtype=np.int32)
    rank[reps] = 1
    rank[order] = np.cumsum(rank[order])
    return tuple(distinct[i] for i in reps), dict(zip(distinct, rank.tolist()))


def group_values_reference(values, epsilon):
    """Chaining over values sorted by exact `Fraction` comparison."""
    reps, rank_of, prev = [], {}, None
    for v in sorted(set(values)):
        if prev is None or v - prev > epsilon:
            reps.append(v)
        rank_of[v] = len(reps)
        prev = v
    return tuple(reps), rank_of


huge_or_close = st.one_of(
    st.fractions(),
    st.integers(-2, 2).map(lambda e: F(10) ** (400 * e)),  # beyond float range
    st.integers(-3, 3).map(lambda k: 1 + F(k, 10**30)),  # one float, distinct values
)


@settings(max_examples=200, deadline=None)
@given(st.lists(huge_or_close, max_size=30), st.sampled_from([F(0), F(1, 10**30), F(1, 2)]))
@example([1 + F(k, 10**30) for k in (2, 1, 3)], F(0))  # one float, out of exact order
def test_group_values_orders_exactly(values, epsilon):
    assert_same_grouping(ValueList.of(list(dict.fromkeys(values))), epsilon)
    assert group_values_by_value(values, epsilon) == group_values_reference(values, epsilon)


plain_spellings = st.one_of(st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,4})?", fullmatch=True),
                            st.from_regex(r"[0-9]{1,8}\.[0-9]{1,8}", fullmatch=True))  # up to 16 digits
BEYOND_INT64 = ["0.1234567890123456789012345", "0.1234567890123456789012346", "0.1234567890123456789012348"]


@settings(max_examples=300, deadline=None)
@given(st.lists(plain_spellings, min_size=1, max_size=30), unit_epsilons)
@example(["0.001", "0.002", "0.0035", "0.0045", "0.0055"], F(1, 1000))  # gaps exactly at epsilon
@example(["0.5", "0.50", "1"], F(1, 2))  # mixed fraction lengths, one value spelled twice
@example(["0.5", "0.50", "1"], F(5, 10**4))
@example(["123456789012345", "123456789012344", "12345678901234.5"], F(1, 2))  # 15 digits: units
@example(["1234567890123456", "1234567890123455"], F(1))  # 16 digits: the Fraction chain
@example(["0.000000000000001", "0.000000000000003"], F(1, 10**15))  # 15 fraction digits: units
@example(["0.0000000000000001", "0.0000000000000003"], F(1, 10**16))  # 16: the Fraction chain
@example(BEYOND_INT64, F(10**5 + 1, 10**30))  # units of 10**-25 beyond int64: Python ints
@example(BEYOND_INT64, F(1, 10**30))
@example(["1", "2", "3.5"], F(0))
@example(["0." + "0" * 399 + "1", "1"], F(1, 2))  # 400 fraction digits: no power of ten as a float
@example(["9" * 400, "1"], F(1, 2))  # a float beyond the float range
@example(["1", "2.5"], F(10**20))  # a bound on units beyond int64
def test_integer_units_group_like_the_fraction_chain(spellings, epsilon):
    """Grouping on integer units, of plain text and of a list made from
    units, gives the representatives and ranks of the `Fraction` chain."""
    _, values = quantize(spellings)
    exact = [F(c) for c in values.cells]
    digits = max(len(c.partition(".")[2]) for c in values.cells)
    units = values.units()
    assert (units is not None) == (digits <= 15 and max(exact) * 10**digits < 10**15)
    if units is not None:
        assert units[1] == digits and units[0].dtype == np.int64
        assert units[0].tolist() == [v * 10**digits for v in exact]
    assert_same_grouping(values, epsilon)

    counted = ValueList.of_units([int(v * 10**digits) for v in exact], digits)
    beyond = max(exact) * 10**digits > np.iinfo(np.int64).max
    assert counted.units()[0].dtype == (object if beyond else np.int64)
    assert counted.floats.tolist() == [values_module._float(v) for v in exact]
    assert_same_grouping(counted, epsilon)
    assert list(counted) == exact


def quantize_reference(keys, convert):
    """Value ids from one dict keyed by `Fraction`, in order of first occurrence."""
    first, slots, ids = {}, {}, []
    for p, key in enumerate(keys):
        if key not in first:
            v = convert(p)
            first[key] = -1 if v is None else slots.setdefault(v, len(slots))
        ids.append(first[key])
    return np.array(ids, dtype=np.int32), list(slots)


def by_value(ids, values):
    """A reference quantizer's ids and values renumbered through the
    sorted order of its values (-1 stays -1)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    relabel = np.full(len(values) + 1, -1, dtype=np.int32)
    relabel[order] = np.arange(len(values), dtype=np.int32)
    return relabel[ids], [values[i] for i in order]


def assert_numbered_by_value(values):
    """Quantized values come in increasing value: floats nondecreasing,
    exact values strictly increasing."""
    assert (values.floats[1:] >= values.floats[:-1]).all()
    assert all(a < b for a, b in zip(values, list(values)[1:]))


def _first_spellings(tokens, ids, count, where):
    """Each of ``count`` value ids' first spelling in row-major order among
    the cells ``where`` selects (None for an id none of them holds), by a
    sort of the selected cells' ids."""
    cells = np.flatnonzero(where)
    used, first = np.unique(ids.ravel()[cells], return_index=True)
    texts = [None] * count
    for v, p in zip(used.tolist(), cells[first].tolist()):
        texts[v] = tokens[p]
    return texts


def first_spellings_reference(tokens, ids, values, where):
    """Each value's first spelling in row-major order, in a dict keyed by `Fraction`."""
    texts = {}
    for p in np.flatnonzero(where).tolist():
        texts.setdefault(values[ids.flat[p]], tokens[p])
    return texts


def wide_spellings(v):
    """Texts `parse_decimal` reads as the nonnegative value v, in many styles."""
    base = format_value(v)
    forms = [base, f"{v.numerator}/{v.denominator}", "+" + base]
    if F(base) != v:  # not a terminating decimal
        return forms[1:2]
    if "." in base:
        whole, frac = base.split(".")
        forms += [base + "0", "00" + base, f"{int(whole + frac)}e-{len(frac)}"]
        if whole == "0":
            forms.append("+." + frac)
    else:
        forms += [base + ".", base + ".0", base + "e0", base + "000e-3"]
        if len(base) > 1:
            forms.append(base[0] + "_" + base[1:])
    return forms


value_pool = st.one_of(
    st.integers(0, 40).map(lambda k: F(k, 8)),
    st.integers(0, 3).map(lambda k: F(10**k)),
    st.integers(0, 3).map(lambda k: 1 + F(k, 10**30)),  # one float, distinct values
    st.sampled_from([F(1, 3), F(2, 3), F(5, 10**40)]),
)


edge_values = st.one_of(
    value_pool,  # 1/2 among them: "0.5", "0.50", "00.5", "5e-1", ...
    st.integers(0, 3).map(lambda k: 1 + F(k, 10**20)),  # 21 significant digits, one float
    st.integers(0, 3).map(lambda k: F(k, 10**400)),  # plain, underflows to 0.0
    st.integers(1, 3).map(lambda k: F(k * 10**400)),  # plain, overflows to inf
)


@st.composite
def edge_tokens(draw):
    """Decimal tokens over a value pool, each value in several spellings:
    distinct values that share a float, plain tokens beyond the float
    range, padded tokens, tokens longer than MAX_DIGITS, and a few tokens
    that are no number."""
    tokens = []
    for v in draw(st.lists(edge_values, min_size=1, max_size=12)):
        for _ in range(draw(st.integers(1, 3))):
            token = draw(st.sampled_from(wide_spellings(v)))
            shape = draw(st.sampled_from(["as is"] * 4 + ["padded", "long"]))
            if shape == "padded":
                token = f" {token}\t"
            elif shape == "long" and token[0].isdigit():
                token = "0" * MAX_DIGITS + token
            tokens.append(token)
    tokens += draw(st.lists(st.sampled_from(["x", "", "nan", "1/0"]), max_size=2))
    return draw(st.permutations(tokens))


def parse_or_none(tokens):
    """The exact value of ``tokens[p]``, or None where it is no number."""
    def convert(p):
        try:
            return parse_decimal(tokens[p])
        except ParseError:
            return None
    return convert


@st.composite
def raw_cells(draw):
    """Matrix cells as `Fraction`, int, bool, float, numpy int64 or float64,
    or decimal text, equal values in several types; sometimes all of them
    text."""
    cells = []
    text_only = draw(st.booleans())
    for v in draw(st.lists(value_pool, min_size=1, max_size=20)):
        kinds = (["fraction", "text"] + ["int", "np.int64"] * (v.denominator == 1)
                 + ["float", "np.float64"] * (float(v) == v) + ["bool"] * (v in (0, 1)))
        if text_only:
            kinds = ["text"]
        kind = draw(st.sampled_from(kinds))
        make = {"fraction": lambda v: v, "int": int, "np.int64": lambda v: np.int64(int(v)),
                "float": float, "np.float64": lambda v: np.float64(float(v)), "bool": bool,
                "text": lambda v: draw(st.sampled_from(wide_spellings(v)))}[kind]
        cells.append(make(v))
    return cells


value_epsilons = st.sampled_from([F(0), F(1, 10**30), F(1, 2)])


def assert_same_grouping(values, epsilon):
    reps, rank = group_values(values, epsilon)
    expected_reps, expected_rank = group_values_reference(values, epsilon)
    assert tuple(values[r] for r in reps) == expected_reps
    assert rank.tolist() == [expected_rank[v] for v in values]


@settings(max_examples=200, deadline=None)
@given(edge_tokens(), value_epsilons, st.data())
def test_token_value_ids_match_fraction_keys(tokens, epsilon, data):
    convert = parse_or_none(tokens)
    ids, values = quantize(tokens)
    expected_ids, expected_values = by_value(*quantize_reference(tokens, convert))
    assert np.array_equal(ids, expected_ids)
    assert_same_grouping(values, epsilon)  # while most values are still unbuilt
    assert list(values) == expected_values
    assert_numbered_by_value(values)
    assert values.floats.tolist() == [values_module._float(v) for v in expected_values]
    assert values.signs().tolist() == [(v > 0) - (v < 0) for v in expected_values]
    where = np.array(data.draw(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens))))
    where &= ids >= 0
    texts = _first_spellings(tokens, ids, len(values), where)
    assert {values[i]: t for i, t in enumerate(texts) if t is not None} == (
        first_spellings_reference(tokens, ids, values, where)
    )
    # the parsers' rule: quantize keeps each value's first spelling over all numeric cells
    everywhere = _first_spellings(tokens, ids, len(values), ids >= 0)
    assert values.cells.tolist() == everywhere
    # a taken list holds the cells of the list it came from and the values it built
    used = ids[ids >= 0]
    _, fresh = quantize(tokens)
    built = [v is not None for v in fresh._exact]
    taken = fresh.take(used)
    assert taken.cells.tolist() == [values.cells[v] for v in used.tolist()]
    assert [v is not None for v in taken._exact] == [built[v] for v in used.tolist()]
    assert list(taken) == [values[v] for v in used.tolist()]


hostile_spellings = ["", ".", ".5", "5.", "1.2.3", "1..2", "1_0", "+1", "1e0", " 1", "1\t", "1\n",
                     "\n1", "1\n2", "\n", "\u0661", "nan", "inf", "\ud800", "9" * MAX_DIGITS,
                     "9" * (MAX_DIGITS + 1), "0." + "5" * (MAX_DIGITS - 2), "0." + "5" * (MAX_DIGITS - 1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,4})?", fullmatch=True),
                          st.sampled_from(hostile_spellings),
                          st.text("0123456789.\n \t", max_size=5)), max_size=8),
       st.sampled_from([None, 1, 0.5, F(1, 2), b"1"]))
def test_plain_document_check_matches_the_per_spelling_regex(spellings, odd):
    if odd is not None:  # a cell that is not text, mixed into text
        spellings = [*spellings, odd]
    floats = values_module._plain_floats(spellings)
    plain = all(isinstance(t, str) and values_module._PLAIN.fullmatch(t) for t in spellings)
    assert (floats is not None) == plain
    if plain:
        assert floats.tolist() == [float(t) for t in spellings]


@settings(max_examples=200, deadline=None)
@given(raw_cells(), value_epsilons)
def test_cell_value_ids_match_fraction_keys(cells, epsilon):
    ids, values = quantize(cells)
    expected_ids, expected_values = by_value(*quantize_reference(
        [(type(c), c) for c in cells], lambda p: to_fraction(cells[p])
    ))
    assert np.array_equal(ids, expected_ids)
    assert_same_grouping(values, epsilon)
    assert list(values) == expected_values
    assert_numbered_by_value(values)


def keyed_quantize_reference(keys, convert):
    """The keyed quantizer number cells took: ``convert`` once per distinct
    key, at its first position, and values told apart by numerator, then
    by ratio; ids in order of first occurrence (-1 where ``convert`` gave None)."""
    index = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    dense = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    slots, values, remap = {}, [], []
    for p in np.flatnonzero(np.diff(np.maximum.accumulate(dense), prepend=-1)).tolist():
        v = convert(p)
        if v is None:
            remap.append(-1)
            continue
        key = v.numerator
        if key in slots and values[slots[key]] != v:
            key = v.as_integer_ratio()
        slot = slots.setdefault(key, len(values))
        if slot == len(values):
            values.append(v)
        remap.append(slot)
    return np.array(remap, dtype=np.int32)[dense], values


odd_cells = st.sampled_from([math.nan, -math.inf, None, "x", " 1 ", 10**400, -F(10**400, 3),
                             F(1, 10**400), 0.1, F(0.1), np.float64(math.nan), [1]])


@settings(max_examples=200, deadline=None)
@given(raw_cells(), st.lists(odd_cells, max_size=3), st.data())
def test_cell_ids_match_the_keyed_quantizer(cells, odd, data):
    cells = data.draw(st.permutations(cells + odd))

    def convert(p):
        try:
            return to_fraction(cells[p])
        except (ValueError, TypeError, ParseError):
            return None

    keys = [(t, c.numerator, c.denominator) if (t := type(c)) is F else (t, c) for c in cells]
    if any(isinstance(c, list) for c in cells):  # unhashable: every cell its own key
        keys = range(len(cells))
    ids, values = quantize(cells)
    expected_ids, expected_values = by_value(*keyed_quantize_reference(keys, convert))
    assert np.array_equal(ids, expected_ids)
    assert list(values) == expected_values
    assert_numbered_by_value(values)


huge_cells = st.sampled_from([10**400, -10**400, F(10**400, 3), -F(10**400, 3)])


def typed_keys(cells):
    """The keyed quantizer's key per hashable cell: its type and value."""
    return [(t, c.numerator, c.denominator) if (t := type(c)) is F else (t, c) for c in cells]


@settings(max_examples=100, deadline=None)
@given(raw_cells(), st.lists(huge_cells, min_size=1, max_size=3), st.data())
def test_cells_beyond_the_float_range_match_the_keyed_quantizer(cells, huge, data):
    cells = data.draw(st.permutations(cells + huge))
    ids, values = quantize(cells)
    expected_ids, expected_values = by_value(*keyed_quantize_reference(typed_keys(cells),
                                                                      lambda p: to_fraction(cells[p])))
    assert np.array_equal(ids, expected_ids)
    assert list(values) == expected_values
    assert_numbered_by_value(values)


@settings(max_examples=60, deadline=None)
@given(raw_matrices(), st.lists(huge_cells, min_size=1, max_size=3), st.data(),
       st.sampled_from([1, 3, 16, 1000]))
def test_cells_beyond_the_float_range_report_like_the_per_cell_reference(case, huge, data, max_violations):
    labels, matrix = case
    n = len(labels)
    for v in huge:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        matrix[i][j] = v
        if data.draw(st.booleans()):
            matrix[j][i] = v
    expected = outcome(lambda: analyze_reference(labels, matrix, 0, max_violations, None)[0])
    assert outcome(validate_ultrametric, matrix, labels, 0, max_violations) == expected


def test_a_cell_beyond_the_float_range_is_the_only_one_converted(monkeypatch):
    rng = np.random.default_rng(5)
    cells = rng.random(3600).tolist() + [10**400, 0.5, -F(10**400, 3), 10**400]
    calls = []
    monkeypatch.setattr(values_module, "to_fraction", lambda c: calls.append(c) or to_fraction(c))
    ids, values = quantize(cells)
    # the first cell of each out-of-range value, nothing else
    assert len(calls) == 2 and calls[0] is cells[3600] and calls[1] is cells[3602]
    expected = by_value(*keyed_quantize_reference(typed_keys(cells), lambda p: to_fraction(cells[p])))
    assert list(values) == expected[1] and np.array_equal(ids, expected[0])


def test_invalid_csv_builds_only_its_witness_values(monkeypatch):
    """A random 120-point dissimilarity has thousands of distinct tokens;
    parsing it builds the exact values of zero and its witnesses only."""
    rng = random.Random(7)
    n = 120
    upper = np.zeros((n, n), dtype=np.int64)
    upper[np.triu_indices(n, 1)] = [rng.randint(1, 10**6) for _ in range(n * (n - 1) // 2)]
    lines = [",".join(f"q{i}" for i in range(n))]
    for row in (upper + upper.T).tolist():
        lines.append(",".join(format_value(F(v, 1000)) for v in row))
    text = "\n".join(lines) + "\n"
    parsed = []
    for module in list(sys.modules.values()):
        if module.__name__.startswith("ultrabase") and getattr(module, "parse_decimal", None) is parse_decimal:
            monkeypatch.setattr(module, "parse_decimal", lambda token: parsed.append(token) or parse_decimal(token))
    with pytest.raises(UltrametricViolationError) as err:
        parse_distance_csv(text)
    witnessed = {F(0)} | {v for w in err.value.report.violations for v in w.values}
    assert len(set(text.replace("\n", ",").split(",")[n:])) > 5000
    assert len(parsed) == len(set(parsed)) <= len(witnessed)
    assert {parse_decimal(t) for t in parsed} <= witnessed


def parse_outcome(fn, token):
    try:
        return "value", fn(token)
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"\A0{0,3}[0-9]{0,25}0{0,3}(\.0{0,3}[0-9]{0,25}0{0,3})?\Z"))
def test_parse_decimal_fast_path_matches_general_path(token):
    assert parse_outcome(parse_decimal, token) == parse_outcome(_parse_general, token)


@st.composite
def terminating_values(draw):
    """Terminating decimals whose numerator and denominator have at most
    MAX_DIGITS digits, many of them with expansions longer than that."""
    twos = draw(st.integers(0, int(MAX_DIGITS / math.log10(2))))
    fives = draw(st.integers(0, int((MAX_DIGITS - twos * math.log10(2)) / math.log10(5))))
    den = 2**twos * 5**fives
    assume(den < 10**MAX_DIGITS)
    bound = 10**MAX_DIGITS - 1
    num = draw(st.one_of(
        st.integers(-10**6, 10**6),
        st.integers(0, MAX_DIGITS).map(lambda k: 10**k - 1),
        st.integers(-bound, bound),
    ))
    return F(num, den)


@settings(max_examples=200, deadline=None)
@given(terminating_values())
@example(F(1, 2**5000))
@example(F(10**MAX_DIGITS - 1, 2))
@example(-F(10**(MAX_DIGITS - 1)))
def test_format_value_round_trips_terminating_values(value):
    text = format_value(value)
    assert parse_decimal(text) == value
    if "/" not in text:
        assert len(text) <= MAX_DIGITS


def check_labels_reference(labels):
    """Label checks with one generator over each label's characters."""
    if len(labels) < 2:
        raise UsageError("an ultrametric space needs at least two points")
    seen = set()
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise UsageError(f"invalid point label {lab!r}: labels are nonempty text")
        if "," in lab or any(ord(c) < 32 or c in "\x7f\ufeff" for c in lab):
            raise UsageError(f"invalid point label {lab!r}: no commas or control characters")
        if lab in seen:
            raise UsageError(f"duplicate point label {lab!r}")
        seen.add(lab)


def label_outcome(check, labels):
    try:
        check(labels)
    except UsageError as exc:
        return str(exc)
    return None


def test_check_labels_matches_per_character_reference():
    for code in range(0x10000):
        labels = ["a", f"b{chr(code)}"]
        assert label_outcome(_check_labels, labels) == label_outcome(check_labels_reference, labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=4), st.none(), st.integers()), max_size=6))
def test_check_labels_reports_the_first_bad_label(labels):
    assert label_outcome(_check_labels, labels) == label_outcome(check_labels_reference, labels)


MESSAGES = {
    "": "invalid point label '': labels are nonempty text",
    "a,b": "invalid point label 'a,b': no commas or control characters",
    "d": "duplicate point label 'd'",
}


@pytest.mark.parametrize("bad", list(itertools.permutations(["", "a,b", "d"])))
def test_check_labels_names_the_first_of_several_bad_labels(bad):
    """An empty label, a comma label and a duplicate, in every order among
    good labels: the message names the first offender, as the per-label
    loop did. The duplicate offends at its second occurrence."""
    labels = ["x", "d", "y", *bad, "z"]
    first = bad[0]
    assert label_outcome(_check_labels, labels) == MESSAGES[first]
    assert label_outcome(_check_labels, labels) == label_outcome(check_labels_reference, labels)
    assert label_outcome(_check_labels, ["x", *bad]) == label_outcome(check_labels_reference, ["x", *bad])


def test_parse_decimal_fast_path_declines_other_tokens(monkeypatch):
    general = []
    monkeypatch.setattr(values_module, "_parse_general",
                        lambda token: general.append(token) or _parse_general(token))
    for token in ["1", "0.50", "007.250", " 12 "]:
        parse_decimal(token)
    assert general == []
    declined = ["1.", ".5", "+1", "1_0", "٣", "0" * 4000 + "1", "", "1/2", "1e3", "-0.5"]
    for token in declined:
        assert parse_outcome(parse_decimal, token) == parse_outcome(_parse_general, token)
    assert general == declined


def test_distance_table_orders_values_that_share_a_float():
    close = [1 + F(k, 10**30) for k in range(4)]
    assert len({float(v) for v in close}) == 1
    assert DistanceTable(tuple(close)).values == tuple(close)
    for wrong in ([close[1], close[0], close[2]], [close[0], close[2], close[2]], [F(2), *close]):
        with pytest.raises(UsageError, match="strictly increasing"):
            DistanceTable(tuple(wrong))
    huge = [F(10) ** 400, F(10) ** 400 + 1]  # both beyond the float range
    assert DistanceTable(tuple(huge)).values == tuple(huge)
    with pytest.raises(UsageError, match="strictly increasing"):
        DistanceTable(tuple(reversed(huge)))


def check_table_reference(table):
    """The per-cell input checks `reconstruct` ran on `Fraction` rows."""
    pts = table.points
    for lab, row in zip(pts, table.rows):
        for c, v in enumerate(row):
            if v < 0:
                raise CoordinateTableError(f"negative distance {v} at ({lab}, {table.landmarks[c]})")
            if v == 0 and lab != table.landmarks[c]:
                raise CoordinateTableError(
                    f"zero distance between distinct points {lab} and {table.landmarks[c]}"
                )
    for c, s in enumerate(table.landmarks):
        if s not in pts:
            raise CoordinateTableError(f"landmark {s} has no coordinate row")
        if table.rows[pts.index(s)][c] != 0:
            raise CoordinateTableError(f"landmark {s} is not at distance 0 from itself")
    by_row = {}
    for lab in sorted(pts):
        row = table.rows[pts.index(lab)]
        if row in by_row:
            a, b = sorted((by_row[row], lab))
            raise NotGeneratorError(
                f"not a metric generator: points {a} and {b} have identical coordinates",
                witness=(a, b),
            )
        by_row[row] = lab


def distinct_texts_reference(values, render):
    """Render each value into a dict keyed by value, falling back to exact
    n/d when spellings collide."""
    texts = {v: render(v) for v in values}
    by_text = {}
    for v, t in texts.items():
        by_text.setdefault(t, []).append(v)
    for clashing in by_text.values():
        if len(clashing) > 1:
            for v in clashing:
                texts[v] = f"{v.numerator}/{v.denominator}"
    return texts


def write_coordinate_csv_reference(table):
    """One `Fraction` hash per cell: a set of the positive values, then a dict lookup."""
    positive = {v for row in table.rows for v in row if v > 0}
    spelled = table_spellings(table)
    texts = distinct_texts_reference(positive, lambda v: spelled.get(v) or format_value(v))
    texts[F(0)] = "0"
    lines = ["label," + ",".join(table.landmarks)]
    for lab, row in zip(table.points, table.rows):
        lines.append(lab + "," + ",".join(texts[v] for v in row))
    return "\n".join(lines) + "\n"


def is_k_generator_reference(space, landmarks, k):
    """Distinguisher counts of all pairs at once, in an n x n x |S| array."""
    if k < 1:
        raise UsageError("k must be a positive integer")
    cols = sorted({space.index(s) for s in landmarks})
    counts = np.zeros((space.n, space.n), dtype=int)
    if cols:
        sub = space._rows()[:, cols]
        counts = (sub[:, None, :] != sub[None, :, :]).sum(axis=2)
    for x, y in space.pairs():
        count = int(counts[space.index(x), space.index(y)])
        if count < k:
            return GeneratorCheck(ok=False, k=k, witness=(x, y), witness_count=count)
    return GeneratorCheck(ok=True, k=k)


def landmark_independence_reference(table):
    """Pair loop over the rows, ranked through a dict of the distinct values."""
    position = {v: i for i, v in enumerate(sorted({v for row in table.rows for v in row}))}
    arr = np.array([[position[v] for v in row] for row in table.rows])
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            diff = arr[i] != arr[j]
            maxima = np.maximum(arr[i], arr[j])[diff]
            if diff.any() and (maxima != maxima[0]).any():
                cols = np.flatnonzero(diff)
                other = cols[int(np.argmax(maxima != maxima[0]))]
                return table.points[i], table.points[j], table.landmarks[cols[0]], table.landmarks[other]
    return None


def table_outcome(fn, table):
    """A space, or the error's type, text and witness."""
    try:
        return "space", fn(table)
    except (CoordinateTableError, NotGeneratorError, UsageError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def reconstruct_full_reference(table):
    check_table_reference(table)
    return reconstruct_reference(table)


@st.composite
def faulty_tables(draw):
    """Arguments of a `CoordinateTable` of a dendrogram's coordinates,
    after one to three faults: a negative cell, a zero off the landmark,
    a missing landmark row, a nonzero self-distance, a duplicated row, a
    repeated point label, or cells turned into floats (halves and
    quarters: exact in binary)."""
    space = draw(dendrograms)
    labels = list(space.labels)
    landmarks = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
    points = list(labels)
    scale = draw(st.sampled_from([F(1), F(1, 2), F(1, 4)]))
    rows = [[v * scale for v in row] for row in coordinates(space, landmarks).rows]
    k = len(landmarks)
    faults = draw(st.lists(st.sampled_from(
        ["negative", "zero", "missing", "self", "duplicate", "label", "float"]), min_size=1, max_size=3))
    for fault in faults:
        i, c = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, k - 1))
        if fault == "negative":
            rows[i][c] = -draw(st.sampled_from([F(1, 2), F(3), F(0) - scale]))
        elif fault == "zero":
            rows[i][c] = F(0)
        elif fault == "missing" and landmarks[c] in points and len(points) > 1:
            j = points.index(landmarks[c])
            del points[j], rows[j]
        elif fault == "self" and landmarks[c] in points:
            rows[points.index(landmarks[c])][c] = draw(st.sampled_from([F(1), scale, F(5, 2)]))
        elif fault == "duplicate":
            rows[i] = list(rows[draw(st.integers(0, len(points) - 1))])
        elif fault == "label":
            points[i] = points[draw(st.integers(0, len(points) - 1))]
        elif fault == "float":
            for row in rows:
                for col, v in enumerate(row):
                    if draw(st.booleans()):
                        row[col] = float(v)
    return dict(
        landmarks=tuple(landmarks),
        points=tuple(points),
        rows=tuple(map(tuple, rows)),
        value_texts=space_spellings(space),
    )


@settings(max_examples=200, deadline=None)
@given(faulty_tables())
def test_reconstruct_checks_match_per_cell_reference(args):
    points = args["points"]
    repeated = [lab for k, lab in enumerate(points) if lab in points[:k]]
    if repeated:  # a repeated point label is refused at construction
        with pytest.raises(UsageError) as exc:
            CoordinateTable(**args)
        assert str(exc.value) == f"duplicate point label {repeated[0]!r}"
        return
    table = CoordinateTable(**args)
    actual = table_outcome(reconstruct, table)
    expected = table_outcome(reconstruct_full_reference, table)
    assert actual[0] == expected[0], (actual, expected)
    if actual[0] == "space":
        assert_same(actual[1], expected[1])
    else:
        assert actual == expected


def test_reconstruct_checks_examples():
    # each fault alone, and the first one wins when several are present
    cases = [
        ([("s", [0]), ("a", [-1]), ("b", [0])], "negative distance -1 at (a, s)"),
        ([("s", [0]), ("a", [0]), ("b", [-1])], "zero distance between distinct points a and s"),
        ([("a", [1]), ("b", [2])], "landmark s has no coordinate row"),
        ([("s", [3]), ("a", [1])], "landmark s is not at distance 0 from itself"),
        ([("s", [0]), ("b", [1.5]), ("a", [F(3, 2)])], "points a and b have identical coordinates"),
    ]
    for rows, message in cases:
        table = CoordinateTable(("s",), tuple(lab for lab, _ in rows), tuple(tuple(r) for _, r in rows))
        actual = table_outcome(reconstruct, table)
        assert actual == table_outcome(reconstruct_full_reference, table)
        assert message in actual[1]
    with pytest.raises(UsageError, match="^duplicate point label 's'$"):
        CoordinateTable(("s",), ("s", "b", "s"), ((0,), (2,), (1,)))


@st.composite
def coordinate_tables(draw):
    """Tables from `coordinates` on spaces with source spellings, and the
    same tables parsed back from CSV with each cell in a drawn spelling."""
    space = draw(dendrograms)
    space = draw(st.sampled_from([space, spelled(space)]))
    landmarks = draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True))
    table = coordinates(space, landmarks)
    if draw(st.booleans()):
        return table
    lines = ["label," + ",".join(landmarks)]
    for lab, row in zip(table.points, table.rows):
        lines.append(",".join([lab] + [draw(st.sampled_from(spellings(v))) if v else "0" for v in row]))
    return parse_coordinate_csv("\n".join(lines) + "\n")


@settings(max_examples=100, deadline=None)
@given(coordinate_tables())
def test_write_coordinate_csv_matches_per_cell_reference(table):
    text = write_coordinate_csv(table)
    assert text == write_coordinate_csv_reference(table)
    again = parse_coordinate_csv(text)
    assert again == table and hash(again) == hash(table)
    assert write_coordinate_csv(again) == text


landmark_lists = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 15), max_size=8),  # partial, possibly with repeats
    st.just(None),  # every point
)


@settings(max_examples=150, deadline=None)
@given(dendrograms, landmark_lists, st.sampled_from([1, 2, 3]))
def test_is_k_generator_matches_pairwise_reference(space, picks, k):
    labels = space.labels
    landmarks = list(labels) if picks is None else [labels[p % space.n] for p in picks]
    assert is_k_generator(space, landmarks, k) == is_k_generator_reference(space, landmarks, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.integers(1, 4), st.data())
def test_landmark_independence_matches_pair_loop(n, k, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 3).map(F), min_size=k, max_size=k), min_size=n, max_size=n))
    table = CoordinateTable(tuple(f"s{c}" for c in range(k)), tuple(f"x{i}" for i in range(n)),
                            tuple(map(tuple, rows)))
    assert landmark_independence_witness(table) == landmark_independence_reference(table)


def star_closure_reference(ranks, at):
    """The single-linkage closure of the landmark star and its gap form,
    or None when its landmark columns differ from the table, as
    `reconstruct` built it before it sorted the rows.

    The star joins every point to every landmark by the table's distance;
    every other pair gets a rank above all of them. When some ultrametric
    has these coordinates and distinct rows, each star edge is one of its
    distances, so no path undercuts d(x,y) (strong triangle inequality),
    and the path x-s-y through a landmark s telling x and y apart attains
    it: the closure is that ultrametric. Conversely a closure whose
    landmark columns equal the table is such an ultrametric.
    """
    n = len(ranks)
    star = np.full((n, n), int(ranks.max()) + 1, dtype=np.int32)
    star[:, at] = ranks
    star[at, :] = ranks.T
    np.fill_diagonal(star, 0)
    form = _single_linkage(star)
    closed = _cophenetic(*form)
    return (closed, form) if np.array_equal(closed[:, at], ranks) else None


def reconstruct_star_reference(table):
    """The input checks, then the star closure; a table it does not fit
    goes to the pair loop, which names the inconsistency."""
    check_table_reference(table)
    _check_labels(table.points)
    values, index = table.encoding
    closure = star_closure_reference(index, [table.points.index(s) for s in table.landmarks])
    if closure is None:
        reconstruct_reference(table)
        raise AssertionError("the pair loop rebuilt a table the star closure does not fit")
    return UltrametricSpace(table.points, DistanceTable(values[1:], table.texts[1:]), *closure[1])


@st.composite
def generator_tables(draw):
    """Coordinate tables of metric generators, a basis and any other
    points with the columns shuffled, on dendrograms and on gap forms
    of up to 40 points: random gaps (random trees) or increasing ones
    (caterpillars)."""
    space = draw(st.one_of(dendrograms, gap_forms(40).map(lambda arr: build_space(
        [f"p{i}" for i in range(len(arr))], arr.tolist()))))
    basis = draw(st.sampled_from(list(metric_bases(space).bases(cap=20))))
    extra = draw(st.lists(st.sampled_from(space.labels), unique=True))
    landmarks = draw(st.permutations(sorted(set(basis) | set(extra))))
    return space, coordinates(space, landmarks)


def assert_sorted_rows_rebuild_like_the_star(table):
    actual = table_outcome(reconstruct, table)
    expected = table_outcome(reconstruct_star_reference, table)
    assert actual[0] == expected[0], (actual, expected)
    if actual[0] == "space":
        assert_same(actual[1], expected[1])
    else:
        assert actual == expected
    assert landmark_independence_witness(table) == landmark_independence_reference(table)


@settings(max_examples=150, deadline=None)
@given(generator_tables(), st.sampled_from([None, 1, 7, 64]))
def test_sorted_rows_rebuild_generator_tables_like_the_star_closure(case, cells):
    import ultrabase.core as core

    space, table = case
    with patch.object(core, "_BLOCK_CELLS", cells or core._BLOCK_CELLS):
        assert_sorted_rows_rebuild_like_the_star(table)
        assert reconstruct(table) == space


@st.composite
def star_tables(draw):
    """A dendrogram, a landmark list and a `CoordinateTable` over it:
    the landmarks' coordinates (a generator's, in any order), or those
    of a generator with one cell off the landmarks' own changed, with a
    row copied over another, or with one cell of the landmark-landmark
    block changed so the block is asymmetric, or the coordinates of a
    landmark list that is not a generator."""
    space = draw(dendrograms)
    kind = draw(st.sampled_from(["consistent", "corrupted", "duplicate", "asymmetric", "non-generator"]))
    if kind == "non-generator":
        landmarks = draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True))
        assume(not is_k_generator_reference(space, landmarks, 1).ok)
    else:
        basis = draw(st.sampled_from(list(metric_bases(space).bases(cap=20))))
        extra = draw(st.lists(st.sampled_from(space.labels), unique=True))
        landmarks = draw(st.permutations(sorted(set(basis) | set(extra))))
    table = coordinates(space, landmarks)
    rows = [list(row) for row in table.rows]
    choices = sorted(set(space.table.values) | {F(1, 2), F(1000)})
    k = len(landmarks)
    if kind == "corrupted":
        i, c = draw(st.integers(0, space.n - 1)), draw(st.integers(0, k - 1))
        assume(table.points[i] != landmarks[c])
        rows[i][c] = draw(st.sampled_from(choices))
    elif kind == "duplicate":
        i, j = draw(st.lists(st.integers(0, space.n - 1), min_size=2, max_size=2, unique=True))
        rows[i] = list(rows[j])
    elif kind == "asymmetric":
        assume(k >= 2)
        c, other = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        row = rows[table.points.index(landmarks[c])]
        row[other] = draw(st.sampled_from([v for v in choices if v != row[other]]))
    bad = CoordinateTable(table.landmarks, table.points, tuple(map(tuple, rows)), table_spellings(table))
    return space, landmarks, bad


@settings(max_examples=200, deadline=None)
@given(star_tables(), st.sampled_from([1, 2, 3]), st.sampled_from([None, 1, 7]))
def test_star_closure_and_verdicts_match_the_pair_loops(case, k, cells):
    import ultrabase.core as core

    space, landmarks, table = case
    with patch.object(core, "_BLOCK_CELLS", cells or core._BLOCK_CELLS):
        assert_sorted_rows_rebuild_like_the_star(table)
    actual = table_outcome(reconstruct, table)
    expected = table_outcome(reconstruct_full_reference, table)
    assert actual[0] == expected[0], (actual, expected)
    if actual[0] == "space":
        assert_same(actual[1], expected[1])
    else:
        assert actual == expected
    assert landmark_independence_witness(table) == landmark_independence_reference(table)
    assert is_k_generator(space, landmarks, k) == is_k_generator_reference(space, landmarks, k)


def nearest_set_reference(space, x):
    """The nearest points from a whole rank row filtered in Python."""
    i = space.index(x)
    row = space._rows()[i].tolist()
    m = min(r for j, r in enumerate(row) if j != i)
    members = tuple(sorted(space.labels[j] for j, r in enumerate(row) if j != i and r == m))
    return members, space.table.value(m)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dendrograms, st.integers(2, 16).map(reciprocal_min_space)), st.data())
def test_nearest_set_matches_row_filter(space, data):
    # relabelled, so sorted labels are not in index order
    labels = data.draw(st.permutations(space.labels))
    space = data.draw(st.sampled_from([space, build_space(labels, space.value_matrix())]))
    for x in space.labels:
        assert nearest_set(space, x) == nearest_set_reference(space, x)


def classify_point_reference(space, x):
    """The per-point minima from a copy of the whole rank matrix, on every call."""
    arr = space._rows().copy()
    np.fill_diagonal(arr, len(space.table) + 1)
    mins = arr.min(axis=1)
    nearest, min_dist = nearest_set(space, x)
    m = mins[space.index(x)]
    partners = tuple(lab for lab in nearest if mins[space.index(lab)] == m)
    if partners:
        return Partnered(partners=partners, min_dist=min_dist)
    return Pseudopartnered(nearest=nearest, min_dist=min_dist)


@settings(max_examples=100, deadline=None)
@given(dendrograms)
def test_classify_point_matches_copy_per_call(space):
    for x in space.labels:
        assert classify_point(space, x) == classify_point_reference(space, x)


def partner_partition_reference(space):
    """Classes as connected components of per-point mate lists, found by a
    depth-first search and re-checked by a pair loop over each class."""
    arr = space._rows().copy()
    np.fill_diagonal(arr, len(space.table) + 1)
    mins = arr.min(axis=1)
    n = space.n
    ranks = space._rows()

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


partner_spaces = st.one_of(
    st.builds(random_dendrogram_space, n=st.integers(2, 24), seed=st.integers(0, 10_000),
              value_count=st.integers(1, 5)),
    st.integers(2, 16).map(reciprocal_min_space),
    st.integers(2, 16).map(uniform_space),
)


@settings(max_examples=200, deadline=None)
@given(partner_spaces, st.data())
def test_partner_partition_matches_component_search(space, data):
    # relabelled, so sorted labels are not in index order
    labels = data.draw(st.permutations([f"q{i}" for i in range(space.n)]))
    space = data.draw(st.sampled_from([space, build_space(labels, space.value_matrix())]))
    assert partner_partition(space) == partner_partition_reference(space)
    for x in space.labels:
        assert classify_point(space, x) == classify_point_reference(space, x)


def random_dendrogram_space_reference(n, seed, value_count=3):
    """The generator filling an n x n `Fraction` matrix block by block."""
    rng = random.Random(f"dendrogram:{n}:{seed}:{value_count}")
    heights = sorted(rng.sample(range(1, 10 * value_count + 1), value_count), reverse=True)
    width = len(str(n))
    labels = [f"p{i + 1:0{width}d}" for i in range(n)]
    matrix = [[F(0)] * n for _ in range(n)]

    def fill(block, level):
        if len(block) == 1:
            return
        h = F(heights[level])
        if level == value_count - 1:
            for a in block:
                for b in block:
                    if a != b:
                        matrix[a][b] = h
            return
        shuffled = block[:]
        rng.shuffle(shuffled)
        part_count = rng.randint(2, len(block))
        cuts = sorted(rng.sample(range(1, len(block)), part_count - 1))
        parts = [shuffled[s:e] for s, e in zip([0, *cuts], [*cuts, len(block)])]
        for x, pa in enumerate(parts):
            for pb in parts[x + 1:]:
                for a in pa:
                    for b in pb:
                        matrix[a][b] = matrix[b][a] = h
        for part in parts:
            fill(part, level + 1)

    fill(list(range(n)), 0)
    return build_space_reference(labels, matrix)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000), st.sampled_from([1, 2, 3, 5, 8, 40]))
@example(2, 0, 1)
@example(40, 29, 8)
def test_random_dendrogram_space_matches_matrix_fill(n, seed, value_count):
    space = random_dendrogram_space(n, seed, value_count)
    expected = random_dendrogram_space_reference(n, seed, value_count)
    assert space == expected and hash(space) == hash(expected)


def pseudopartnering_trace_reference(space, x):
    """The descent filtering each whole rank row as a Python list."""
    cur = space.index(x)
    radius = len(space.table) + 1
    steps = [TraceStep(point=x, dist=INFINITY)]
    ranks = space._rows()
    for _ in range(space.n):
        row = ranks[cur].tolist()
        inside = [j for j in range(space.n) if j != cur and row[j] < radius]
        if not inside:
            break
        best = min(row[j] for j in inside)
        nxt = min((j for j in inside if row[j] == best), key=lambda j: space.labels[j])
        steps.append(TraceStep(point=space.labels[nxt], dist=space.table.value(best)))
        cur, radius = nxt, best
    else:
        raise InternalInvariantError("pseudopartnering trace exceeded the point count")
    terminal = space.labels[cur]
    cls = classify_point(space, terminal)
    assert isinstance(cls, Partnered)
    return PseudopartneringTrace(start=x, steps=tuple(steps), terminal=terminal, terminal_class=cls)


@settings(max_examples=80, deadline=None)
@given(st.one_of(dendrograms, st.integers(2, 16).map(reciprocal_min_space)), st.data())
def test_pseudopartnering_trace_matches_list_filter(space, data):
    # relabelled, so the smallest label among tied points is not the first index
    labels = data.draw(st.permutations(space.labels))
    space = data.draw(st.sampled_from([space, build_space(labels, space.value_matrix())]))
    for x in space.labels:
        assert pseudopartnering_trace(space, x) == pseudopartnering_trace_reference(space, x)


@settings(max_examples=100, deadline=None)
@given(dendrograms, st.data())
def test_coordinate_tables_have_one_canonical_encoding(space, data):
    """`coordinates`, the CSV round trip and a table built from rows give one table."""
    space = data.draw(st.sampled_from([space, spelled(space)]))
    landmarks = data.draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True))
    table = coordinates(space, landmarks)
    text = write_coordinate_csv(table)
    values, index = table.encoding
    assert all(a < b for a, b in zip(values, values[1:]))
    assert np.array_equal(np.unique(index), np.arange(len(values)))  # every value is used
    assert index.dtype == np.int32 and not index.flags.writeable
    assert len(table.texts) == len(values)
    routes = [
        parse_coordinate_csv(text),
        CoordinateTable(table.landmarks, table.points, table.rows, table_spellings(table)),
    ]
    for other in routes:
        assert other == table and hash(other) == hash(table)
        assert other.encoding[0] == values and np.array_equal(other.encoding[1], index)
        assert write_coordinate_csv(other) == text


def mate_classes_reference(space):
    """The partner record read off the mate mask in one O(n²) pass over
    the rank matrix, as `partner` once computed it.

    Points i != j are mates when d(i, j) is the minimum of both. On an
    ultrametric that is transitive, so a point's class is the point and
    its mates, and each row of the mask with the diagonal set equals the
    row of its first member, which is re-checked here.
    """
    labels, ranks = space.labels, space._rows()
    # rank 0 sits only on the diagonal, so no point is its own nearest or mate
    mins = ranks.min(axis=1, where=ranks > 0, initial=len(space.table) + 1)
    rows = ranks == mins[:, None]
    rows &= mins == mins[:, None]
    np.fill_diagonal(rows, True)  # a row: the point's class, or the point alone
    first = rows.argmax(axis=1)
    bad = np.flatnonzero((rows != rows[first]).any(axis=1))
    if bad.size:
        members = sorted(itertools.compress(labels, rows[rows[bad[0]]].any(axis=0).tolist()))
        raise InternalInvariantError(f"partner class {members} has unequal internal distances")
    first = first.tolist()
    groups: dict[int, list[str]] = {}  # opened in label order: sorted by first label
    for i in sorted(range(space.n), key=labels.__getitem__):
        groups.setdefault(first[i], []).append(labels[i])
    classes = {r: tuple(members) for r, members in groups.items() if len(members) > 1}
    pseudo = tuple(members[0] for members in groups.values() if len(members) == 1)
    partition = PartnerPartition(classes=tuple(classes.values()), pseudopartnered=pseudo)
    return mins, list(map(classes.get, first)), partition


def cophenetic_reference(order, gaps):
    """The dendrogram matrix of a gap form from the running maxima of the
    whole broadcast gap triangle, as `core._cophenetic` once built it."""
    n = len(gaps) + 1
    runs = np.maximum.accumulate(np.triu(np.broadcast_to(np.insert(gaps, 0, 0), (n, n)), 1), axis=1)
    leaf = np.argsort(order)
    return (runs + runs.T).take(leaf, axis=0).take(leaf, axis=1)


@st.composite
def gap_trees(draw):
    """Exactly equidistant multifurcating Newick trees whose heights come
    from a few integers, so many gaps are equal."""
    nodes = [(f"L{i}", 0) for i in range(draw(st.integers(2, 16)))]
    while len(nodes) > 1:
        k = draw(st.integers(2, len(nodes)))
        start = draw(st.integers(0, len(nodes) - k))
        group = nodes[start:start + k]
        height = max(h for _, h in group) + draw(st.integers(1, 2))
        merged = ",".join(f"{t}:{height - h}" for t, h in group)
        nodes[start:start + k] = [(f"({merged})", height)]
    return nodes[0][0] + ";"


@st.composite
def built_spaces(draw):
    """A space built one of the ways the library builds them, from a
    Newick tree or a random dendrogram."""
    source = draw(st.one_of(gap_trees().map(parse_newick), dendrograms))
    way = draw(st.sampled_from(["source", "csv", "restrict", "reconstruct", "subdominant", "ranks"]))
    if way == "csv":
        return parse_distance_csv(write_distance_csv(source))
    if way == "restrict":
        return source.restrict(draw(st.lists(st.sampled_from(source.labels), min_size=2, unique=True)))
    if way == "reconstruct":
        return reconstruct(coordinates(source, next(metric_bases(source).bases(cap=1))))
    if way == "subdominant":
        matrix = source.value_matrix()
        for _ in range(draw(st.integers(0, 3))):  # raise a few distances: the closure repairs them
            i, j = draw(st.integers(0, source.n - 1)), draw(st.integers(0, source.n - 1))
            if i != j:
                matrix[i][j] = matrix[j][i] = matrix[i][j] + 1
        return subdominant_ultrametric(matrix, source.labels)
    if way == "ranks":
        return UltrametricSpace(source.labels, source.table, *_single_linkage(source._rows()))
    return source


def whole_matrices():
    """A patch of the dendrogram kernel, and the list of the sizes of the
    whole matrices it is asked for while the patch is on."""
    import ultrabase.core as core

    calls, kernel = [], core._cophenetic

    def counted(order, gaps, points=None):
        if points is None:
            calls.append(len(gaps) + 1)
        return kernel(order, gaps, points)

    return patch.object(core, "_cophenetic", counted), calls


@settings(max_examples=300, deadline=None)
@given(built_spaces())
@example(parse_newick("((A:2.5,(B:0.5,C:0.5):2):0,D:2.5);"))  # gaps 5, 1, 5: A and D are partners
def test_gap_form_partners_and_ranks_match_the_matrix(space):
    import ultrabase.partner as partner

    order, gaps = space.order, space.gaps
    assert sorted(order.tolist()) == list(range(space.n)) and len(gaps) == space.n - 1
    gap_built = UltrametricSpace(space.labels, space.table, order, gaps)
    matrix_built = UltrametricSpace(space.labels, space.table, *_single_linkage(cophenetic_reference(order, gaps)))
    # the rows read whole are the matrix the gap form always stood for
    assert np.array_equal(gap_built._rows(), matrix_built._rows())
    assert np.array_equal(space._rows(), matrix_built._rows())
    others = (space, matrix_built, build_space(space.labels, space.value_matrix()))
    patched, calls = whole_matrices()
    with patched:
        for other in others:
            assert gap_built == other and hash(gap_built) == hash(other)
    assert calls == []
    for built in (UltrametricSpace(space.labels, space.table, order, gaps), matrix_built):
        mins, class_at, partition = mate_classes_reference(built)
        record = partner._partners(built)
        assert record.partition == partition and record.class_at == class_at
        assert np.array_equal(record.mins, mins)


@st.composite
def space_pairs(draw):
    """Two spaces: a built space and the same space in another leaf order,
    or with one gap, one label or one table value changed, in either order."""
    a = draw(built_spaces())
    b = a
    change = draw(st.sampled_from(["none", "gap", "label", "value"]))
    if change == "gap":
        assume(len(a.table) > 1)
        k = draw(st.integers(0, a.n - 2))
        gaps = a.gaps.copy()
        gaps[k] = draw(st.sampled_from([r for r in range(1, len(a.table) + 1) if r != gaps[k]]))
        b = UltrametricSpace(a.labels, a.table, a.order, gaps)
    elif change == "label":
        k = draw(st.integers(0, a.n - 1))
        b = UltrametricSpace((*a.labels[:k], "renamed", *a.labels[k + 1:]), a.table, a.order, a.gaps)
    elif change == "value":
        values = list(a.table.values)
        values[-1] += 1
        b = UltrametricSpace(a.labels, DistanceTable(values=tuple(values)), a.order, a.gaps)
    reorder = draw(st.sampled_from(["same", "reversed", "prim", "csv"]))
    if reorder == "reversed":  # the same dendrogram read from its other end
        b = UltrametricSpace(b.labels, b.table, b.order[::-1], b.gaps[::-1])
    elif reorder == "prim":
        b = UltrametricSpace(b.labels, b.table, *_single_linkage(b._rows()))
    elif reorder == "csv" and change == "none":
        b = parse_distance_csv(write_distance_csv(b))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(space_pairs())
def test_equality_matches_the_whole_rank_matrices(pair):
    a, b = pair
    same = a.labels == b.labels and a.table == b.table and np.array_equal(a._rows(), b._rows())
    patched, calls = whole_matrices()
    with patched:
        assert (a == b) == same and (b == a) == same
        assert not same or hash(a) == hash(b)
    assert calls == []


def test_equality_of_a_large_tree_and_its_reconstruction_reads_only_the_gaps():
    import tracemalloc

    sys.path.insert(0, str(ROOT / "scripts"))
    import scale

    space = parse_newick(scale.random_tree_text(random.Random("equality"), 4000))
    rebuilt = reconstruct(coordinates(space, next(metric_bases(space).bases(cap=1))))
    assert not np.array_equal(space.order, rebuilt.order)
    tracemalloc.start()
    try:
        equal = space == rebuilt
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert equal and peak <= 2**20  # the two rank matrices took 137 MB
    gaps = rebuilt.gaps.copy()
    gaps[len(gaps) // 2] = 1 if gaps[len(gaps) // 2] > 1 else 2
    assert space != UltrametricSpace(rebuilt.labels, rebuilt.table, rebuilt.order, gaps)


def test_readers_of_the_whole_picture_keep_no_matrix():
    space = random_dendrogram_space(40, seed=3, value_count=5)
    other = parse_distance_csv(write_distance_csv(space))
    assert space == other and hash(space) == hash(other)
    space.value_matrix()
    for held in (space, other):
        assert all(np.size(v) < held.n ** 2 for v in vars(held).values())


def first_short_pair_reference(space, landmarks, k):
    """The lexicographically first pair with fewer than k distinguishers
    among the landmarks, counted cell by cell in the rank matrix."""
    cols = [space.index(s) for s in landmarks]
    ranks = space._rows()
    for x, y in space.pairs():
        row_x, row_y = ranks[space.index(x)], ranks[space.index(y)]
        count = sum(int(row_x[c] != row_y[c]) for c in cols)
        if count < k:
            return GeneratorCheck(ok=False, k=k, witness=(x, y), witness_count=count)
    return None


@settings(max_examples=150, deadline=None)
@given(built_spaces(), st.data())
def test_row_readers_match_the_rank_matrix_without_building_it(space, data):
    gap = UltrametricSpace(space.labels, space.table, space.order, space.gaps)
    labels, ranks, table = space.labels, space._rows(), space.table
    x, y = data.draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    i, j = space.index(x), space.index(y)
    landmarks = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    cols = [space.index(s) for s in landmarks]
    radius = data.draw(st.sampled_from([*table.values, table.values[-1] + 1]))
    closed = data.draw(st.booleans())
    k = data.draw(st.integers(1, 3))

    expected_table = CoordinateTable(landmarks, labels, [list(map(table.value, row)) for row in ranks[:, cols].tolist()])
    m = ranks[i][ranks[i] > 0].min()
    nearest = tuple(sorted(labels[p] for p in np.flatnonzero(ranks[i] == m).tolist()))
    mates = tuple(sorted(labels[p] for p in np.flatnonzero(ranks[i] == m).tolist()
                         if ranks[p][ranks[p] > 0].min() == m))
    members = frozenset(lab for lab, r in zip(labels, ranks[i].tolist())
                        if table.value(r) < radius or (closed and table.value(r) == radius))
    short = first_short_pair_reference(space, landmarks, k)
    trace, unshort = pseudopartnering_trace_reference(space, x), first_short_pair_reference(space, [], 1)

    patched, calls = whole_matrices()
    with patched:
        assert coordinates(gap, landmarks) == expected_table
        assert nearest_set(gap, x) == (nearest, table.value(int(m)))
        assert classify_point(gap, x) == (Partnered(partners=mates, min_dist=table.value(int(m))) if mates
                                          else Pseudopartnered(nearest=nearest, min_dist=table.value(int(m))))
        assert pseudopartnering_trace(gap, x) == trace
        assert ball(gap, x, radius, closed) == Ball(center=x, radius=radius, closed=closed, members=members)
        assert distinguishers(gap, x, y) == tuple(sorted(labels[p] for p in np.flatnonzero(ranks[i] != ranks[j])))
        assert is_k_generator(gap, landmarks, k) == (GeneratorCheck(ok=True, k=k) if short is None else short)
        assert is_k_generator(gap, [], 1) == unshort
    assert calls == []


@pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
def test_cophenetic_blocks_match_the_broadcast_triangle(monkeypatch, dtype):
    import ultrabase.core as core

    rng = np.random.default_rng(5)
    for n in (2, 3, 17, 40):
        order = rng.permutation(n)
        gaps = rng.integers(0, 9, n - 1).astype(dtype)
        expected = cophenetic_reference(order, gaps)
        points = rng.choice(n, rng.integers(0, n + 1))  # repeats and any order
        for cells in (1, 64, 2**18):  # a row per block, a few rows, one block
            monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
            assert np.array_equal(_cophenetic(order, gaps), expected)
            assert np.array_equal(_cophenetic(order, gaps, points), expected[points])


def test_cophenetic_fills_one_array_at_size():
    import tracemalloc

    rng = np.random.default_rng(7)
    n = 2000
    order, gaps = rng.permutation(n), rng.integers(1, 60, n - 1).astype(np.int32)
    tracemalloc.start()
    try:
        matrix = _cophenetic(order, gaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * matrix.nbytes  # the broadcast triangle took about three times the result
    assert np.array_equal(matrix, cophenetic_reference(order, gaps))


def test_coordinates_read_rows_without_the_matrix():
    import tracemalloc

    sys.path.insert(0, str(ROOT / "scripts"))
    import scale

    space = parse_newick(scale.random_tree_text(random.Random("rows"), 2000))
    landmarks = next(metric_bases(space).bases(cap=1))
    patched, calls = whole_matrices()
    tracemalloc.start()
    try:
        with patched:
            table = coordinates(space, landmarks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak <= 2.5 * space.n * len(landmarks) * 4  # the n x |S| int32 table it returns
    assert table.encoding[1].shape == (space.n, len(landmarks))


def pseudopartnering_trace_rows_reference(space, x):
    """The descent reading each move's row of distances off the gaps."""
    cur = space.index(x)
    radius = len(space.table) + 1
    steps = [TraceStep(point=x, dist=INFINITY)]
    for _ in range(space.n):
        row = space._rows([cur])[0]
        best = int(row[row > 0].min())
        if best >= radius:
            break
        nxt = min(np.flatnonzero(row == best).tolist(), key=space.labels.__getitem__)
        steps.append(TraceStep(point=space.labels[nxt], dist=space.table.value(best)))
        cur, radius = nxt, best
    else:
        raise InternalInvariantError("pseudopartnering trace exceeded the point count")
    terminal = space.labels[cur]
    return PseudopartneringTrace(start=x, steps=tuple(steps), terminal=terminal,
                                 terminal_class=classify_point(space, terminal))


@settings(max_examples=100, deadline=None)
@given(st.one_of(built_spaces(), partner_spaces), st.data())
def test_pseudopartnering_trace_on_the_gaps_matches_the_row_reader(space, data):
    labels = data.draw(st.permutations(space.labels))
    space = data.draw(st.sampled_from([space, build_space(labels, space.value_matrix())]))
    for x in space.labels:
        assert pseudopartnering_trace(space, x) == pseudopartnering_trace_rows_reference(space, x)


def eager_distinct_texts(values, texts):
    """`ingest._distinct_texts` as it was: every value read and rendered,
    "0" for zero, else its aligned spelling in ``texts`` or its canonical
    form, and every nonzero text checked for collisions. Then each
    rendered text that reads back as another value, at or past a value
    whose text is exact, is written as its ratio."""
    cells = ["0" if not v else (format_value(v) if t is None else t) for v, t in zip(values, texts)]
    by_text: dict[str, list[int]] = {}
    for i, v in enumerate(values):
        if v:
            by_text.setdefault(cells[i], []).append(i)
    for clashing in by_text.values():
        if len(clashing) > 1:
            for i in clashing:
                cells[i] = ratio_text(values[i])
    inexact = [i for i, v in enumerate(values) if to_fraction(cells[i]) != v]
    for i in inexact:
        back = to_fraction(cells[i])
        if any(j < i and back <= values[j] or j > i and back >= values[j]
               for j in range(len(values)) if j not in inexact):
            cells[i] = ratio_text(values[i])
    return cells


def write_distance_csv_reference(space):
    """The writer joining a rank row at a time through a list lookup."""
    cells = ["0", *eager_distinct_texts(space.table.values, space.table.texts)]
    lines = [",".join(space.labels)]
    lines += [",".join(map(cells.__getitem__, row)) for row in space._rows().tolist()]
    return "\n".join(lines) + "\n"


def write_coordinate_csv_rows_reference(table):
    """The writer joining a row of the encoding at a time through a list lookup."""
    values, index = table.encoding
    cells = eager_distinct_texts(values, table.texts)
    lines = ["label," + ",".join(table.landmarks)]
    lines += [lab + "," + ",".join(map(cells.__getitem__, row))
              for lab, row in zip(table.points, index.tolist())]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.one_of(built_spaces(), dendrograms.map(spelled)), st.data())
def test_writers_match_the_row_joins(space, data):
    landmarks = data.draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True))
    table = coordinates(space, landmarks)
    assert write_distance_csv(space) == write_distance_csv_reference(space)
    assert write_coordinate_csv(table) == write_coordinate_csv_rows_reference(table)


# The plain-document CSV reader against the general path: `_csv_rows`
# splits the rows and `quantize` numbers their tokens.

def general_rows(text, skip):
    rows = _csv_rows(text)
    ids, values = ingest_module._token_ids(rows[1:], len(rows[0]) - skip, skip)
    return rows[0], [fields[0] for fields in rows[1:]] if skip else [], ids, values


def plain_rows(text, skip):
    """`_plain_rows` on a document of any size."""
    with patch.object(ingest_module, "_PLAIN_MIN_BYTES", 0):
        return ingest_module._plain_rows(text, skip)


def reader_outcomes(fn, *args):
    """``fn`` with the plain reader on documents of any size, and without it."""
    with patch.object(ingest_module, "_PLAIN_MIN_BYTES", 0):
        plain = outcome(fn, *args)
    with patch.object(ingest_module, "_plain_rows", lambda text, skip: None):
        return plain, outcome(fn, *args)


def assert_same_rows(text, skip):
    header, labels, ids, values = plain_rows(text, skip)
    expected = general_rows(text, skip)
    assert (header, labels) == expected[:2]
    assert ids.dtype == np.int32 and np.array_equal(ids, expected[2])
    cells = values.cells.tolist()
    assert cells == expected[3].cells.tolist() and values._plain and expected[3]._plain
    floats = np.array(list(map(float, cells)))  # bit for bit
    assert values.floats.tobytes() == expected[3].floats.tobytes() == floats.tobytes()


@st.composite
def plain_decimals(draw, count):
    """``count`` distinct positive terminating decimals of at most 12 characters, increasing."""
    digits = draw(st.integers(0, 4))
    units = draw(st.lists(st.integers(1, 10**7), min_size=count, max_size=count, unique=True))
    return sorted(F(u, 10**digits) for u in units)


def plain_spelling(draw, v):
    """A plain spelling of v in at most 15 characters: canonical, with leading
    or trailing zeros, or padded with zeros to exactly 15 characters."""
    base = format_value(v)
    dotted = base if "." in base else base + "."
    return draw(st.sampled_from([
        base,
        "0" * draw(st.integers(1, 2)) + base,
        dotted + "0" * draw(st.integers(1, 2)),
        dotted.ljust(15, "0"),
    ]))


@st.composite
def plain_tables(draw):
    """A symmetric CSV of plain decimals, mostly a dendrogram, each cell
    spelled on its own; sometimes one pair is changed, breaking it."""
    n = draw(st.integers(2, 10))
    space = random_dendrogram_space(n, seed=draw(st.integers(0, 10_000)), value_count=draw(st.integers(1, 5)))
    ranks = space._rows().copy()
    if n > 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        ranks[i, j] = ranks[j, i] = draw(st.integers(1, int(ranks.max())))
    values = [F(0), *draw(plain_decimals(int(ranks.max())))]
    rows = [[draw(st.sampled_from(["0", "00", "0.0"])) if r == 0 else plain_spelling(draw, values[r])
             for r in row] for row in ranks.tolist()]
    return "\n".join([",".join(space.labels), *map(",".join, rows)]) + "\n"


@settings(max_examples=150, deadline=None)
@given(plain_tables(), st.sampled_from([F(0), F(1, 1000), F(1, 2)]))
@example("a,b\n0,1.5\n1.50,0\n", F(0))  # one value spelled twice: the first spelling wins
@example("a,b\n00,123456789012.5\n0123456789012.5,0\n", F(0))
def test_plain_reader_matches_the_general_path(text, epsilon):
    assert_same_rows(text, 0)
    plain, general = reader_outcomes(parse_distance_csv, text, epsilon)
    assert_same_outcome(plain, general)
    if plain[0] == "space":
        assert np.array_equal(plain[1].order, general[1].order)
        assert np.array_equal(plain[1].gaps, general[1].gaps)


@st.composite
def plain_coordinate_texts(draw):
    space = draw(dendrograms)
    landmarks = draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True))
    values = [F(0), *draw(plain_decimals(len(space.table)))]
    cols = [space.index(s) for s in landmarks]
    lines = ["label," + ",".join(landmarks)]
    for lab, row in zip(space.labels, space._rows()[:, cols].tolist()):
        lines.append(lab + "," + ",".join("0" if r == 0 else plain_spelling(draw, values[r]) for r in row))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(plain_coordinate_texts())
def test_plain_reader_matches_the_general_path_on_coordinates(text):
    assert_same_rows(text, 1)
    plain, general = reader_outcomes(parse_coordinate_csv, text)
    assert plain == general and plain[1].texts == general[1].texts


PLAIN_TABLE = "a,b,c\n0,2.5,4\n2.5,0,4\n4,4,0\n"
NEAR_PLAIN_TABLES = [
    "\ufeff" + PLAIN_TABLE,  # BOM
    PLAIN_TABLE.replace("\n", "\r\n"),  # CRLF
    PLAIN_TABLE.replace("2.5,0", " 2.5 ,0"),  # spaces
    PLAIN_TABLE.replace("0,2.5", "0,2.5 "),  # a trailing space
    PLAIN_TABLE.replace(",4\n2.5", ",4\n\n2.5"),  # a blank line
    PLAIN_TABLE + "\n",  # a blank last line
    PLAIN_TABLE[:-1],  # no final newline
    PLAIN_TABLE.replace("4,4,0", "4.,4,0"),  # 1.
    PLAIN_TABLE.replace("0,2.5,4", "0,.5,4"),  # .5
    PLAIN_TABLE.replace("0,2.5,4", "0,2.5.0,4"),  # 1.2.3
    PLAIN_TABLE.replace("4,4,0", "4e0,4,0"),  # 1e3
    PLAIN_TABLE.replace("4,4,0", "8/2,4,0"),  # n/d
    PLAIN_TABLE.replace("4,4,0", "4.00000000000000,4,0"),  # 16 characters
    PLAIN_TABLE.replace("4,4,0", "0004.00000000000,4,0"),  # 16 characters, leading zeros
    PLAIN_TABLE.replace("4,4,0", ",4,0"),  # an empty field
    PLAIN_TABLE.replace("4,4,0", "4,,0"),
    PLAIN_TABLE.replace("4,4,0", "4,4,0,"),  # a trailing comma
    PLAIN_TABLE.replace("4,4,0", "4,4"),  # a short row
    PLAIN_TABLE.replace("4,4,0", "4,4,0,4"),  # a long row
    PLAIN_TABLE.replace("0,2.5,4\n", ""),  # a missing row
    PLAIN_TABLE + "1,2,3\n",  # an extra row
    PLAIN_TABLE.replace("4,4,0", "-4,4,0"),
    PLAIN_TABLE.replace("4,4,0", "+4,4,0"),
    PLAIN_TABLE.replace("4,4,0", "n/d,4,0"),
    PLAIN_TABLE.replace("4,4,0", "4\x00,4,0"),
    PLAIN_TABLE.replace("4,4,0", "4\t,4,0"),
    PLAIN_TABLE.replace("4,4,0", "\u0664,4,0"),  # a non-ASCII digit
    PLAIN_TABLE.replace("a,b,c", "a,b c,d"),  # whitespace in the header
]


@pytest.mark.parametrize("text", NEAR_PLAIN_TABLES)
def test_near_plain_tables_fall_back_to_the_general_path(text):
    assert plain_rows(text, 0) is None
    plain, general = reader_outcomes(parse_distance_csv, text)
    assert_same_outcome(plain, general)


PLAIN_COORDINATES = "label,a,c\na,0,4\nb,2.5,4\nc,4,0\nd,4,2.5\n"
NEAR_PLAIN_COORDINATES = [
    "\ufeff" + PLAIN_COORDINATES,
    PLAIN_COORDINATES.replace("\n", "\r\n"),
    PLAIN_COORDINATES.replace("\nb,", "\n,"),  # an empty point label
    PLAIN_COORDINATES.replace("\nb,", "\na,"),  # a duplicate point label
    PLAIN_COORDINATES.replace("\nb,", "\n b ,"),  # a padded point label
    PLAIN_COORDINATES.replace("\nb,", "\nb b,"),  # whitespace inside a label
    PLAIN_COORDINATES.replace("\nb,", "\n\u00e9,"),  # a non-ASCII label
    PLAIN_COORDINATES.replace("b,2.5,4", "b,2.5,4,"),
    PLAIN_COORDINATES.replace("b,2.5,4", "b,2.5"),
    PLAIN_COORDINATES.replace("b,2.5,4", "b,2.50000000000000"),
    PLAIN_COORDINATES.replace("b,2.5,4", "b,5/2,4"),
    PLAIN_COORDINATES[:-1],
    PLAIN_COORDINATES.replace("label,a,c", "label"),
    "label,a,c\n",
]


@pytest.mark.parametrize("text", NEAR_PLAIN_COORDINATES)
def test_near_plain_coordinate_tables_fall_back_to_the_general_path(text):
    assert plain_rows(text, 1) is None
    plain, general = reader_outcomes(parse_coordinate_csv, text)
    assert plain == general


@pytest.mark.parametrize("fn, text", [
    (parse_distance_csv, PLAIN_TABLE.replace("a,b,c", "a,,c")),
    (parse_distance_csv, PLAIN_TABLE.replace("a,b,c", "a,b,a")),
    (parse_coordinate_csv, PLAIN_COORDINATES.replace("label,", "point,")),
    (parse_coordinate_csv, PLAIN_COORDINATES.replace("label,a,c", "label,a,a")),
])
def test_plain_reader_leaves_header_faults_to_the_shared_checks(fn, text):
    plain, general = reader_outcomes(fn, text)
    assert plain == general
    assert plain[0] == ("ParseError" if fn is parse_coordinate_csv else "UsageError")


def test_plain_reader_skips_small_documents():
    assert ingest_module._plain_rows(PLAIN_TABLE, 0) is None
    assert plain_rows(PLAIN_TABLE, 0) is not None
    assert ingest_module._plain_rows(PLAIN_COORDINATES, 1) is None
    assert plain_rows(PLAIN_COORDINATES, 1) is not None


# The accept test, the unstable value sort and the separator gather,
# each against the code it replaced.

def cell_checks_reference(ids, values, epsilon):
    """The per-cell masks every matrix once ran: each cell that fails a
    cell check (no number, a nonzero diagonal, a negative or zero upper
    cell) or is asymmetric beyond ``epsilon``."""
    n = len(ids)
    finite = ids >= 0
    sign = np.append(values.signs(), np.int8(1))[ids]
    neg, zero = sign < 0, sign == 0
    diagonal = np.eye(n, dtype=bool)
    upper = np.triu(~diagonal)
    cell_bad = ~finite | (diagonal & finite & ~zero) | (upper & (neg | zero))
    asym = upper & finite & finite.T & (ids != ids.T)
    if epsilon > 0 and asym.any():
        pairs, inverse = np.unique(np.stack([ids[asym], ids.T[asym]], axis=1), axis=0, return_inverse=True)
        asym[asym] = values.apart(pairs[:, 0], pairs[:, 1], epsilon)[inverse.ravel()]
    return cell_bad | asym


@st.composite
def id_matrices(draw):
    """A dendrogram's value ids, values in eighths increasing from up to two
    negatives, usually with a zero, and some cells overwritten on one side
    of their pair or both: by another id (a nonzero diagonal, a zero or
    negative off-diagonal cell, asymmetry), a neighbouring id (asymmetry
    within epsilon) or -1 (no number)."""
    n = draw(st.integers(2, 40))
    space = random_dendrogram_space(n, seed=draw(st.integers(0, 10_000)), value_count=draw(st.integers(1, 5)))
    ranks = space._rows()
    negatives = [F(-k, 8) for k in range(draw(st.integers(0, 2)), 0, -1)]
    zero = [F(0)] if draw(st.sampled_from([True, True, True, False])) else []
    values = ValueList.of(negatives + zero + [F(r + 4, 8) for r in range(1, int(ranks.max()) + 2)])
    base = len(negatives) + len(zero) - 1  # rank r >= 1 is id base + r
    ids = np.where(ranks > 0, ranks + base, max(base, 0)).astype(np.int32)
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = draw(st.one_of(st.integers(-1, len(values) - 1),
                           st.integers(-1, 1).map(lambda d: int(np.clip(ids[j, i] + d, 0, len(values) - 1)))))
        ids[i, j] = v
        if draw(st.booleans()):
            ids[j, i] = v
    return ids, values


@settings(max_examples=300, deadline=None)
@given(id_matrices(), st.sampled_from([F(0), F(1, 8), F(1, 2)]))
def test_accept_test_passes_exactly_when_the_cell_checks_find_nothing(case, epsilon):
    import ultrabase.core as core

    ids, values = case
    accepted = core._accepts(ids, values.signs())
    assert accepted == (not cell_checks_reference(ids, values, F(0)).any())
    if accepted:  # at a positive epsilon only asymmetry within it passes the masks and not the test
        assert not cell_checks_reference(ids, values, epsilon).any()


# Spellings of a few values, and of distinct values that share one float.
TIED_SPELLINGS = ["5", "5.0", "05", "5.00", "005", "05.0", "5e0", "10/2",
                  "2.5", "2.50", "02.5", "5/2", "1", "1.0", "01", "1/1",
                  "1.00000000000000000001", "1.000000000000000000010", "1.00000000000000000002",
                  "0", "0.0", "00", "0/1", "7.25", "7.250", "29/4"]


def order_reference(values):
    """`values._order` with numpy's stable argsort."""
    order = np.argsort(values.floats, kind="stable")
    ties = values_module._tie_runs(values.floats[order])
    for start, stop in ties:
        order[start:stop] = sorted(order[start:stop].tolist(), key=values.__getitem__)
    return order, ties


@settings(max_examples=200, deadline=None)
@given(st.permutations(TIED_SPELLINGS), st.integers(17, len(TIED_SPELLINGS)))
def test_order_matches_a_stable_sort_on_tied_spellings(spellings, count):
    spellings = spellings[:count]  # more than 16, so numpy's unstable sort runs
    exact = [to_fraction(s) for s in spellings]
    floats = np.array([values_module._float(v) for v in exact])
    cells = np.array(spellings, dtype=object)
    order, ties = values_module._order(ValueList(floats, cells, np.empty(count, dtype=object)))
    expected = order_reference(ValueList(floats, cells, np.empty(count, dtype=object)))
    assert np.array_equal(order, expected[0]) and ties == expected[1]
    with patch.object(values_module, "_order", order_reference):
        ids, kept = quantize(spellings)
    got, values = quantize(spellings)
    assert np.array_equal(got, ids) and values.cells.tolist() == kept.cells.tolist()


def separator_rule_reference(text, skip):
    """The separator rule `_plain_rows` had: newlines and commas counted with
    `bytes.count`, then a newline at every ``width``-th byte up to ","."""
    start = text.find("\n") + 1
    width = len(text[:start - 1].split(","))
    buf = text.encode()
    rows = buf.count(b"\n", start)
    if not rows or width <= skip or (not skip and rows != width) or buf.count(b",", start) != rows * (width - 1):
        return False
    raw = np.frombuffer(buf, dtype=np.uint8)[start:]
    ends = np.flatnonzero(raw <= 44)
    return len(ends) == rows * width and bool((raw[ends[width - 1::width]] == 10).all())


@st.composite
def separator_documents(draw):
    """A plain dendrogram CSV of 8 KB or more, as a distance table (skip 0)
    or a coordinate table in every point (skip 1), maybe with one byte
    from 0 to 44 inserted or in place of a comma, one comma moved to the
    next row, or a trailing comma."""
    n = draw(st.integers(36, 44))
    space = random_dendrogram_space(n, seed=draw(st.integers(0, 10_000)), value_count=draw(st.integers(1, 5)))
    units = draw(st.lists(st.integers(10_000, 99_999), min_size=len(space.table), max_size=len(space.table),
                          unique=True))
    cells = ["0", *(f"{u // 1000}.{u % 1000:03}" for u in sorted(units))]  # six characters each
    skip = draw(st.integers(0, 1))
    lines = [[*(["label"] if skip else []), *space.labels]]
    lines += [[*([lab] if skip else []), *(cells[r] for r in row)]
              for lab, row in zip(space.labels, space._rows().tolist())]
    text = "\n".join(map(",".join, lines)) + "\n"
    start = text.find("\n") + 1
    assert len(text) - start >= ingest_module._PLAIN_MIN_BYTES
    kind = draw(st.sampled_from(["none", "byte", "replace", "comma", "trailing"]))
    if kind == "byte":
        at = draw(st.integers(start, len(text)))
        text = text[:at] + chr(draw(st.integers(0, 44))) + text[at:]
    elif kind == "replace":
        at = text.index(",", draw(st.integers(start, len(text) - 8)))
        text = text[:at] + chr(draw(st.integers(0, 44))) + text[at + 1:]
    elif kind == "comma":
        r = draw(st.integers(1, n - 1))
        line, after = text.splitlines()[r:r + 2]
        commas = [k for k, c in enumerate(line) if c == ","]
        k = draw(st.sampled_from(commas))
        at = draw(st.integers(0, len(after)))
        moved = line[:k] + line[k + 1:] + "\n" + after[:at] + "," + after[at:]
        text = text.replace(line + "\n" + after, moved, 1)
    elif kind == "trailing":
        r = draw(st.integers(1, n))
        rows = text.splitlines()
        rows[r] += ","
        text = "\n".join(rows) + "\n"
    return text, skip


@settings(max_examples=100, deadline=None)
@given(separator_documents())
def test_separator_gather_matches_the_count_rule(case):
    text, skip = case
    if separator_rule_reference(text, skip):
        assert_same_rows(text, skip)
    else:
        assert ingest_module._plain_rows(text, skip) is None


# The plain reader's spellings and plainness check, and the subdominant
# closure at epsilon 0, each against the code it replaced.

def plain_floats_reference(spellings):
    """`_plain_floats` as it was: the checks on the joined str, and a
    length taken per spelling."""
    try:
        doc = "\n".join(spellings)
        if (not doc.encode().translate(None, b"0123456789.\n")
                and not doc.startswith(("\n", ".")) and not doc.endswith(("\n", "."))
                and not any(map(doc.__contains__, ("\n\n", "\n.", ".\n")))
                and max(map(len, spellings), default=0) <= MAX_DIGITS):
            return np.fromiter(map(float, spellings), dtype=float, count=len(spellings))
    except (TypeError, ValueError):
        pass
    return None


def plain_spellings_reference(text, skip):
    """`_plain_rows` as it was: each distinct field sliced out of the text
    at its first occurrence, then checked by `plain_floats_reference`."""
    start = text.find("\n") + 1
    head, size = text[:start - 1], len(text) - start
    if (not start or not ingest_module._PLAIN_MIN_BYTES <= size < 2**31 - 16 or text[-1] != "\n"
            or not text.isascii() or head.split() != [head]):
        return None
    header = head.split(",")
    width = len(header)
    buf = text.encode() + bytes(16)
    raw = np.frombuffer(buf, dtype=np.uint8, count=size, offset=start)
    ends = np.flatnonzero(raw <= 44).astype(np.int32)
    rows = len(ends) // width
    if not rows or width <= skip or len(ends) != rows * width or (not skip and rows != width):
        return None
    if (raw[ends].reshape(rows, width) != np.append(np.full(width - 1, 44, np.uint8), np.uint8(10))).any():
        return None
    starts = np.append(0, ends[:-1] + 1).astype(np.int32)

    def fields(at, stops):
        bounds = map(slice, (starts[at] + start).tolist(), (stops + start).tolist())
        return list(map(text.__getitem__, bounds))

    labels = []
    if skip:
        labels = fields(slice(None, None, width), ends[::width])
        if not all(labels) or len(set(labels)) != rows:
            return None
    lengths = ends - starts
    if skip:
        starts = starts.reshape(rows, width)[:, 1:].ravel()
        lengths = lengths.reshape(rows, width)[:, 1:].ravel()
    if lengths.min() < 1 or lengths.max() > 15:
        return None
    words = np.ndarray((size + 8,), dtype="<u8", buffer=buf, offset=start, strides=(1,))
    shifts = ingest_module._SHIFTS
    keys = [words[starts] << shifts[np.minimum(lengths, 8)], words[starts + 8] << shifts[np.maximum(lengths, 8) - 8]]
    order = np.lexsort(keys)
    new = np.ones(len(order), dtype=bool)  # where a spelling starts, in sorted order
    new[1:] = (keys[0][order][1:] != keys[0][order][:-1]) | (keys[1][order][1:] != keys[1][order][:-1])
    spelling = np.empty(len(order), dtype=np.int32)
    spelling[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    renumber = np.empty(len(first), dtype=np.int32)
    renumber[by_first] = np.arange(len(first), dtype=np.int32)
    at = first[by_first]
    spellings = fields(at, starts[at] + lengths[at])
    floats = plain_floats_reference(spellings)
    if floats is None:
        return None
    ids, values = values_module._quantize_spellings(renumber[spelling], spellings, floats)
    return header, labels, ids.reshape(rows, width - skip), values


def odd_plain_token(draw):
    """A token of 9 to 16 characters, or a spelling the plain check rejects."""
    return draw(st.sampled_from([
        "1." + "0" * draw(st.integers(7, 14)),
        "0" * draw(st.integers(9, 16)),
        str(draw(st.integers(10**8, 10**15))),
        ".5", "5.", "1.2.3", ".", "5..0",
    ]))


@st.composite
def spelling_tables(draw):
    """An n x n CSV of plain decimals, its diagonal 0, with more distinct
    spellings than rows (each pair its own value, spelled its own way) or
    fewer (at most n - 1 values of at most 7 characters, spelled one way);
    maybe with one mirrored pair spelled ``1.5`` and ``1.50``, or one cell
    and its mirror spelled by :func:`odd_plain_token`. Returns the text, as
    a distance table (skip 0) or with a label column (skip 1), and skip."""
    n = draw(st.integers(2, 12))
    pairs = n * (n - 1) // 2
    if draw(st.booleans()):  # many: more spellings than rows
        pool = draw(plain_decimals(pairs))
        picks = draw(st.permutations(range(pairs)))
        cells = [plain_spelling(draw, pool[k]) for k in picks]
        mirror = [plain_spelling(draw, pool[k]) for k in picks]
    else:
        pool = sorted({F(draw(st.integers(1, 10**5)), 10**draw(st.integers(0, 2)))
                       for _ in range(draw(st.integers(1, max(1, n - 1))))})
        cells = [format_value(draw(st.sampled_from(pool))) for _ in range(pairs)]
        mirror = cells
    grid = [["0"] * n for _ in range(n)]
    for (i, j), a, b in zip(itertools.combinations(range(n), 2), cells, mirror):
        grid[i][j], grid[j][i] = a, b
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["none", "respelled", "odd"]))
    if kind == "respelled":
        grid[i][j], grid[j][i] = "1.5", "1.50"
    elif kind == "odd":
        grid[i][j] = grid[j][i] = odd_plain_token(draw)
    labels = [f"p{k}" for k in range(n)]
    skip = draw(st.integers(0, 1))
    lines = [["label", *labels] if skip else labels]
    lines += [[lab, *row] if skip else row for lab, row in zip(labels, grid)]
    return "\n".join(map(",".join, lines)) + "\n", skip


@settings(max_examples=300, deadline=None)
@given(spelling_tables())
@example(("a,b\n0,1.5\n1.50,0\n", 0))
@example(("a,b,c\n0,2,.5\n2,0,2\n.5,2,0\n", 0))
@example(("a,b,c\n0,2,5.\n2,0,2\n5.,2,0\n", 0))
@example(("a,b,c\n0,5.,2\n5.,0,2\n2,2,0\n", 0))  # a trailing dot before a newline
@example(("a,b,c\n0,2,1.2.3\n2,0,2\n1.2.3,2,0\n", 0))
@example(("label,a,b\na,0,123456789.5\nb,123456789.5,0\n", 1))  # long keys, fewer spellings than rows
@example(("label,a,b\na,0,1234567890123456\nb,1234567890123456,0\n", 1))  # 16 characters
def test_plain_reader_spellings_match_the_slicing_reference(case):
    text, skip = case
    with patch.object(ingest_module, "_PLAIN_MIN_BYTES", 0):
        got = ingest_module._plain_rows(text, skip)
        want = plain_spellings_reference(text, skip)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[:2] == want[:2]
            assert got[2].dtype == np.int32 and np.array_equal(got[2], want[2])
            assert got[3].floats.tobytes() == want[3].floats.tobytes()  # bit for bit
            assert got[3].cells.tolist() == want[3].cells.tolist() and got[3]._plain == want[3]._plain
        fn = parse_coordinate_csv if skip else parse_distance_csv
        new = outcome(fn, text)
        with patch.object(ingest_module, "_plain_rows", plain_spellings_reference):
            old = outcome(fn, text)
    if not skip:
        assert_same_outcome(new, old)
    else:
        assert new == old and (new[0] != "space" or new[1].texts == old[1].texts)


@pytest.mark.parametrize("spellings", [
    [],
    ["1", "2.5", "0.125"],
    ["1", "", "2"], ["1\n", "2"], ["1", "\n2"], ["1\n2"], [".5"], ["5."], ["5.", "1"], ["1", ".5"], ["1.2.3"], ["1", 2],
    ["1", "\ud800"], ["1", "٤"],
    ["1.5"] * 900 + ["0." + "1" * 3998],  # a document of more than MAX_DIGITS characters
    *(["1.5"] * 1100 + [bad, "2"] for bad in ("5.", ".5", "", "1.2.3", "1 ")),
    ["1.5"] * 900 + ["0." + "1" * 3999],  # one spelling of MAX_DIGITS + 1 characters
    ["0." + "1" * 3999],
    ["1" * 4001, "2"],
    ["2", "1" * 4001],
])
def test_plain_floats_match_the_str_checks(spellings):
    got, want = values_module._plain_floats(spellings), plain_floats_reference(spellings)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()


def test_quantize_reads_a_long_document_with_one_long_spelling_exactly():
    cells = ["0.5", "1", "0." + "1" * 3999, "1.5"] * 3 + [str(k) for k in range(2, 1000)]
    assert len("\n".join(cells)) > MAX_DIGITS
    ids, values = quantize(cells)
    assert not values._plain  # the long spelling took the exact path
    assert [values[i] for i in ids[:4].tolist()] == [F(1, 2), F(1), parse_decimal(cells[2]), F(3, 2)]
    with patch.object(values_module, "_plain_floats", plain_floats_reference):
        expected, kept = quantize(cells)
    assert np.array_equal(ids, expected) and values.cells.tolist() == kept.cells.tolist()


def rank_ids_reference(ids, values, epsilon):
    """`core._rank_ids` as it was: the representatives of a value-id
    matrix's upper triangle, taken from ``values``, and its ranks, rank r
    holding representative r - 1."""
    from ultrabase.core import _used_ids

    n = len(ids)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    used, position = _used_ids(ids[upper], len(values))
    taken = values.take(used)
    reps, rank = group_values(taken, epsilon)
    arr = np.zeros((n, n), dtype=np.int32)
    arr[upper] = rank[position]
    return taken.take(reps), arr + arr.T


def subdominant_rank_ids_reference(matrix, labels, epsilon=0):
    """`subdominant_ultrametric` as it ran at every epsilon: the closure on
    the ranks `_rank_ids` renumbered from the value ids, rank r holding
    representative r - 1, and a table of the ranks the closure keeps."""
    from ultrabase.core import _ValueIds, _epsilon, _used_ids

    n = len(matrix)
    if len(labels) != n or any(len(row) != n for row in matrix):
        raise UsageError("dissimilarity matrix must be square and match the labels")
    if n < 2:
        raise UsageError("need at least two points")
    eps = _epsilon(epsilon)

    def bad(p, exc):
        i, j = divmod(p, n)
        raise UsageError(f"entry ({labels[i]},{labels[j]}) is not a finite number") from None

    ids, values = quantize([c for row in matrix for c in row], bad)
    ids = ids.reshape(n, n)
    signs = values.signs()
    neg, zero = signs[ids] < 0, signs[ids] == 0
    diagonal = np.eye(n, dtype=bool)
    bad = (diagonal & ~zero) | (np.triu(~diagonal) & ((ids != ids.T) | neg))
    if bad.any():
        i, j = divmod(int(np.flatnonzero(bad)[0]), n)
        if i == j:
            raise UsageError(f"nonzero diagonal at {labels[i]}")
        if ids[i, j] != ids[j, i]:
            raise UsageError(f"asymmetric entries at ({labels[i]},{labels[j]})")
        raise UsageError(f"negative entry at ({labels[i]},{labels[j]})")
    reps, arr = rank_ids_reference(ids, values, eps)
    order, gaps = _single_linkage(arr)
    if not reps[0]:
        return build_space(labels, _ValueIds(np.maximum(_cophenetic(order, gaps) - 1, 0), reps))
    _check_labels(labels)
    kept, position = _used_ids(gaps, len(reps) + 1)
    table = DistanceTable(values=tuple(reps[r - 1] for r in kept.tolist()))
    return UltrametricSpace(labels=tuple(labels), table=table, order=order, gaps=position + 1)


def typed_cell(draw, v):
    """The value v as an int, a float, a `Fraction` or text, spelled one of several ways."""
    kinds = [v, str(v) if v.denominator == 1 else format_value(v), format_value(v) + ("0" if "." in
             format_value(v) else ".0"), float(v)]
    if v.denominator == 1:
        kinds.append(int(v))
    return draw(st.sampled_from(kinds))


@st.composite
def typed_dissimilarities(draw):
    """A symmetric matrix of quarters from 0 to 3, maybe with zero pairs,
    each cell and its mirror an int, float, `Fraction` or text of the same
    value, drawn on their own; sometimes one cell is changed, so the matrix
    is asymmetric, negative or has a nonzero diagonal."""
    n = draw(st.integers(2, 8))
    matrix = [[typed_cell(draw, F(0)) for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        v = F(draw(st.integers(0 if draw(st.booleans()) else 1, 12)), 4)
        matrix[i][j], matrix[j][i] = typed_cell(draw, v), typed_cell(draw, v)
    if draw(st.integers(0, 5)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i][j] = draw(st.sampled_from([F(-1, 4), F(13, 4), "x"]))
    return matrix


@settings(max_examples=300, deadline=None)
@given(typed_dissimilarities())
@example([[0, 0], [0.0, "0"]])  # two points glued
@example([[0, "1.5", 2], ["1.50", 0, F(3, 2)], [2.0, 1.5, "0.0"]])
def test_subdominant_on_value_ids_matches_the_rank_ids_closure(matrix):
    labels = [f"x{i}" for i in range(len(matrix))]
    got = outcome(subdominant_ultrametric, matrix, labels)
    want = outcome(subdominant_rank_ids_reference, matrix, labels)
    assert_same_outcome(got, want)
    if got[0] == "space":
        assert np.array_equal(got[1].order, want[1].order) and np.array_equal(got[1].gaps, want[1].gaps)
    with patch.object(ingest_module, "_rank_ids", side_effect=AssertionError("ranked at epsilon 0")):
        assert_same_outcome(outcome(subdominant_ultrametric, matrix, labels), want)
    for epsilon in (F(1, 4), F(1)):  # values merge, zero pairs with the zero
        assert_same_outcome(outcome(subdominant_ultrametric, matrix, labels, epsilon),
                            outcome(subdominant_rank_ids_reference, matrix, labels, epsilon))


# The eager tables: a distance table as a tuple of values and a tuple of
# spellings, and a coordinate table's encoding as tuples, each built when
# the table is, as every layer built them before a table held one value
# list. Each step below is the tuple code that step ran.

@dataclass(frozen=True)
class EagerTable:
    """`DistanceTable` as it was: values and spellings as tuples, built up
    front; equality and hashing by values."""

    values: tuple
    texts: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.texts:
            object.__setattr__(self, "texts", (None,) * len(self.values))

    def value(self, rank):
        return F(0) if rank == 0 else self.values[rank - 1]


def eager_table_reference(matrix, epsilon=0, spellings=None):
    """The eager table of an ultrametric `Fraction` matrix, and its rank
    matrix: the distinct values above the diagonal grouped within
    epsilon, each representative with its spelling in ``spellings``."""
    n = len(matrix)
    upper = [matrix[i][j] for i in range(n) for j in range(i + 1, n)]
    reps, rank_of = group_values_by_value(upper, to_fraction(epsilon))
    spellings = spellings or {}
    ranks = np.array([[rank_of[v] if i != j else 0 for j, v in enumerate(row)] for i, row in enumerate(matrix)])
    return EagerTable(reps, tuple(spellings.get(v) for v in reps)), ranks


def eager_restrict(table, ranks, idx):
    """The old `_compact`: the values and spellings the points at ``idx`` use."""
    sub = ranks[np.ix_(idx, idx)]
    kept = np.unique(sub).tolist()  # 0 first, from the diagonal
    return (EagerTable(tuple(table.values[r - 1] for r in kept[1:]), tuple(table.texts[r - 1] for r in kept[1:])),
            np.searchsorted(kept, sub))


def eager_coordinates(table, ranks, cols):
    """The old `coordinates`: the zero and the values, with None and the
    spellings, kept where the landmark columns use them; and the index."""
    cells = ranks[:, cols]
    kept = np.unique(cells).tolist()
    values, texts = (F(0), *table.values), (None, *table.texts)
    return tuple(values[r] for r in kept), np.searchsorted(kept, cells), tuple(texts[r] for r in kept)


def eager_reconstruct(table, ranks, cols):
    """The old `reconstruct` of a basis's coordinates: the table's values
    and spellings after the zero, and the space's ranks among them."""
    values, _, texts = eager_coordinates(table, ranks, cols)
    return EagerTable(values[1:], texts[1:]), np.searchsorted(np.unique(ranks[:, cols]), ranks)


def eager_write_distance_csv(labels, table, ranks):
    cells = ["0", *eager_distinct_texts(table.values, table.texts)]
    return "\n".join([",".join(labels), *(",".join(cells[r] for r in row) for row in ranks.tolist())]) + "\n"


def eager_write_coordinate_csv(landmarks, points, values, index, texts):
    cells = eager_distinct_texts(values, texts)
    lines = ["label," + ",".join(landmarks)]
    lines += [lab + "," + ",".join(cells[r] for r in row) for lab, row in zip(points, index.tolist())]
    return "\n".join(lines) + "\n"


def eager_parse_coordinates(text):
    """A coordinate CSV read cell by cell: the distinct values, the index
    and each positive value's first spelling."""
    cells = [line.split(",")[1:] for line in text.splitlines()[1:]]
    first = {}
    for cell in itertools.chain.from_iterable(cells):
        first.setdefault(to_fraction(cell), cell)
    values = tuple(sorted(first))
    index = np.array([[values.index(to_fraction(c)) for c in row] for row in cells])
    return values, index, tuple(first[v] if v > 0 else None for v in values)


def assert_eager_space(space, table, ranks):
    assert space.table.values == table.values and space.table.texts == table.texts
    assert space.table == DistanceTable(table.values, table.texts) and hash(space.table) == hash(table)
    assert space.value_matrix() == [[table.value(r) for r in row] for row in ranks.tolist()]
    assert write_distance_csv(space) == eager_write_distance_csv(space.labels, table, ranks)


def assert_eager_coordinates(coords, values, index, texts):
    assert coords.encoding[0] == values and np.array_equal(coords.encoding[1], index) and coords.texts == texts
    assert coords == CoordinateTable(coords.landmarks, coords.points, [[values[r] for r in row] for row in index.tolist()])
    assert hash(coords) == hash((coords.landmarks, coords.points, values, index.astype(np.int32).tobytes()))
    assert write_coordinate_csv(coords) == eager_write_coordinate_csv(coords.landmarks, coords.points, *(values, index, texts))


# Values whose shortest-float renderings collide: 1/3 and 0.3333333333333333,
# 2/3 and 0.6666666666666666.
TABLE_VALUES = (F(1, 3), F(3333333333333333, 10**16), F(1, 2), F(2, 3), F(6666666666666666, 10**16), F(5, 4), F(7))


def spellings_of(v):
    """Texts that denote v: its ratio and, if it terminates, its decimal, also with a zero more."""
    decimal = format_value(v)
    texts = [f"{v.numerator}/{v.denominator}"]
    if parse_decimal(decimal) == v:
        texts += [decimal, decimal + ("0" if "." in decimal else ".0")]
    return texts


@st.composite
def eager_sources(draw):
    """A space as the library builds it, with its eager table and ranks: a
    drawn dendrogram; one spelled in a CSV, read at an epsilon; an
    equidistant Newick tree with decimal lengths (integer units) or with
    lengths in thirds or sevenths (rest != 1), read at an epsilon; or a
    drawn gap form over a public table with some values spelled, whose
    renderings may collide."""
    kind = draw(st.sampled_from(["dendrogram", "spelled", "units", "ratio", "table"]))
    if kind in ("dendrogram", "spelled"):
        n, seed, count = draw(st.integers(2, 12)), draw(st.integers(0, 10_000)), draw(st.integers(1, 5))
        space = random_dendrogram_space(n, seed, count)
        if kind == "dendrogram":
            return (space, *eager_table_reference(random_dendrogram_space_reference(n, seed, count).value_matrix()))
        text = spelled_text(space)
        cells = [line.split(",") for line in text.splitlines()[1:]]
        first = {}
        for cell in itertools.chain.from_iterable(cells):
            first.setdefault(to_fraction(cell), cell)
        epsilon = draw(st.sampled_from([0, 1, 5]))
        matrix = [list(map(to_fraction, row)) for row in cells]
        return (parse_distance_csv(text, epsilon), *eager_table_reference(matrix, epsilon, first))
    if kind in ("units", "ratio"):
        scale = draw(st.sampled_from([F(1, 2), F(1, 4), F(3, 2), F(1, 100)] if kind == "units"
                                     else [F(1, 3), F(2, 7), F(5, 6)]))
        length = format_value if kind == "units" else (lambda v: f"{v.numerator}/{v.denominator}")
        text = re.sub(r":(\d+)", lambda m: ":" + length(int(m.group(1)) * scale), draw(gap_trees()))
        epsilon = draw(st.sampled_from([F(1, 10**9), F(0), F(1, 2), F(1)]))
        matrix = parse_newick_reference(text, epsilon).value_matrix()
        return (parse_newick(text, epsilon), *eager_table_reference(matrix))
    values = sorted(draw(st.sets(st.sampled_from(TABLE_VALUES), min_size=1, max_size=5)))
    texts = tuple(draw(st.sampled_from([None, *spellings_of(v)])) for v in values)
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    gaps = np.array(draw(st.lists(st.integers(1, len(values)), min_size=n - 1, max_size=n - 1)))
    table = EagerTable(tuple(values), texts)
    space = UltrametricSpace(tuple(f"x{i}" for i in range(n)), DistanceTable(values, texts), order, gaps)
    return space, table, cophenetic_reference(order, gaps)


@settings(max_examples=200, deadline=None)
@given(eager_sources(), st.data())
def test_lazy_tables_match_the_eager_tables(source, data):
    space, table, ranks = source
    assert_eager_space(space, table, ranks)

    idx = sorted(data.draw(st.lists(st.integers(0, space.n - 1), min_size=2, unique=True)))
    assert_eager_space(space.restrict([space.labels[i] for i in idx]), *eager_restrict(table, ranks, idx))

    landmarks = data.draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True))
    assert_eager_coordinates(coordinates(space, landmarks),
                             *eager_coordinates(table, ranks, [space.index(s) for s in landmarks]))

    basis = next(metric_bases(space).bases(cap=1))
    cols = [space.index(s) for s in basis]
    coords = coordinates(space, basis)
    assert_eager_space(reconstruct(coords), *eager_reconstruct(table, ranks, cols))
    # through the written table, read back as the general reader reads it
    text = write_coordinate_csv(coords)
    parsed = parse_coordinate_csv(text)
    read = eager_parse_coordinates(text)
    assert_eager_coordinates(parsed, *read)
    assert_eager_space(reconstruct(parsed), EagerTable(read[0][1:], read[2][1:]),
                       eager_reconstruct(table, ranks, cols)[1])

    matrix = [[table.value(r) for r in row] for row in ranks.tolist()]
    for _ in range(data.draw(st.integers(0, 3))):  # raise a few distances: the closure repairs them
        i, j = data.draw(st.integers(0, space.n - 1)), data.draw(st.integers(0, space.n - 1))
        if i != j:
            matrix[i][j] = matrix[j][i] = matrix[i][j] + 1
    if data.draw(st.booleans()):
        matrix = [[format_value(v) for v in row] for row in matrix]
    epsilon = data.draw(st.sampled_from([0, F(1, 2), 1, 3]))
    closed = subdominant_reference(matrix, space.labels, epsilon)
    assert_eager_space(subdominant_ultrametric(matrix, space.labels, epsilon),
                       *eager_table_reference(closed.value_matrix()))


def test_rendered_values_that_collide_are_written_as_the_eager_tables_write_them():
    values = tuple(sorted(TABLE_VALUES[:5]))  # 0.3333333333333333 < 1/3 < 1/2 < 0.6666666666666666 < 2/3
    labels = tuple("abcdef")
    for texts in ((), (None, "1/3", None, "0.6666666666666666", None), ("0.3333333333333333", None, None, None, None)):
        space = UltrametricSpace(labels, DistanceTable(values, texts), range(6), [1, 2, 3, 4, 5])
        table = EagerTable(values, texts)
        ranks = cophenetic_reference(range(6), np.array([1, 2, 3, 4, 5]))
        assert_eager_space(space, table, ranks)
        assert_eager_coordinates(coordinates(space, labels), *eager_coordinates(table, ranks, list(range(6))))
        if not texts:  # both pairs collide: each value is written as its ratio
            assert "3333333333333333/10000000000000000,1/3" in write_distance_csv(space)


# One gap-form constructor against the builds it replaced: `_compact`
# behind `restrict` and `subdominant_ultrametric`, the coordinate table's
# list that `reconstruct` handed on whole, `_analyze`'s `_Gaps` branch and
# the compaction `random_dendrogram_space` did itself. Each reference is
# the code that step ran.

def compact_reference(table, gaps):
    """`core._compact`: the table of the zero and the ranks a gap form
    uses, with their spellings, and the gaps renumbered from 1."""
    from ultrabase.core import _used_ids

    kept, position = _used_ids(gaps, len(table) + 1)
    return DistanceTable._of(table._list.take(np.append(0, kept))), position + 1


def restrict_compact_reference(space, subset):
    """`UltrametricSpace.restrict` through `_compact`."""
    idx = sorted(space.index(lab) for lab in set(subset))
    new = np.full(space.n, -1, dtype=np.intp)
    new[idx] = np.arange(len(idx))
    kept = np.flatnonzero(new[space.order] >= 0)
    table, gaps = compact_reference(space.table, space._between(kept))
    return UltrametricSpace(tuple(space.labels[i] for i in idx), table, new[space.order[kept]], gaps)


def subdominant_compact_reference(matrix, labels, epsilon):
    """`subdominant_ultrametric` of a dissimilarity with no zero off the
    diagonal: the closure's gap form through `_compact`."""
    from ultrabase.core import _rank_ids

    n = len(matrix)
    ids, values = quantize([c for row in matrix for c in row])
    ids = ids.reshape(n, n)
    values, arr = _rank_ids(ids, values, epsilon) if epsilon else (values, ids)
    order, gaps = _single_linkage(arr)
    table, gaps = compact_reference(DistanceTable._of(values), gaps)
    return UltrametricSpace(tuple(labels), table, order, gaps)


def reconstruct_list_reference(table):
    """`reconstruct` of a consistent table, its list handed on whole."""
    from ultrabase.reconstruct import _table_ranks

    ranks, at, order = _table_ranks(table)
    gaps = _leaf_gaps(ranks, order, at)
    return UltrametricSpace(tuple(table.points), DistanceTable._of(table._list), order, gaps)


def gaps_branch_reference(labels, form, epsilon):
    """`_analyze`'s `_Gaps` branch: every value after the zero, all of
    them used, grouped; the ranks are the maxima of the ranked gaps."""
    reps, rank = group_values(form.values.take(slice(1, None)), epsilon)
    table = DistanceTable._of(form.values.take(np.append(0, reps + 1)))
    return UltrametricSpace(tuple(labels), table, form.order, np.append(0, rank)[form.ids])


def random_dendrogram_compact_reference(n, seed, value_count):
    """`random_dendrogram_space` numbering the levels in use by height
    itself, through the `_Gaps` branch."""
    from ultrabase.core import _Gaps

    rng = random.Random(f"dendrogram:{n}:{seed}:{value_count}")
    heights = sorted(rng.sample(range(1, 10 * value_count + 1), value_count), reverse=True)
    width = len(str(n))
    labels = [f"p{i + 1:0{width}d}" for i in range(n)]
    order, levels = [], []
    stack = [(list(range(n)), 0, 0)]
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
        stack += [(part, level + 1, level) for part in reversed(parts[1:])]
        stack.append((parts[0], level + 1, gap))
    used = sorted(set(levels[1:]), reverse=True)
    slot = {level: i for i, level in enumerate(used, 1)}
    ids = np.array([slot[level] for level in levels[1:]], dtype=np.int32)
    values = ValueList.of_units([0, *(heights[level] for level in used)], 0)
    return gaps_branch_reference(labels, _Gaps(order, ids, values), F(0))


def newick_gaps_reference(text, epsilon):
    """`parse_newick` of an exactly equidistant tree through the `_Gaps`
    branch, on the gap form the parser hands to `build_space`."""
    from ultrabase.core import _Gaps

    forms, build = [], ingest_module.build_space
    with patch.object(ingest_module, "build_space", lambda *args: forms.append(args) or build(*args)):
        parse_newick(text, epsilon)
    (labels, form, eps), = forms
    assert isinstance(form, _Gaps)
    return gaps_branch_reference(labels, form, eps)


@st.composite
def gap_form_builds(draw):
    """A space one of the producers builds, and the space the code it
    replaced built."""
    kind = draw(st.sampled_from(["restrict", "subdominant", "reconstruct", "newick", "dendrogram"]))
    n, seed, count = draw(st.integers(2, 14)), draw(st.integers(0, 10_000)), draw(st.integers(1, 6))
    if kind == "dendrogram":
        return random_dendrogram_space(n, seed, count), random_dendrogram_compact_reference(n, seed, count)
    if kind == "newick":
        scale = draw(st.sampled_from([1, F(1, 4)]))  # quarters: neighbouring gaps 1/2 apart
        text = re.sub(r":(\d+)", lambda m: ":" + format_value(int(m.group(1)) * scale), draw(gap_trees()))
        epsilon = draw(st.sampled_from([F(0), F(1, 2)]))
        return parse_newick(text, epsilon), newick_gaps_reference(text, epsilon)
    space = spelled(random_dendrogram_space(n, seed, count))
    if kind == "restrict":
        subset = draw(st.lists(st.sampled_from(space.labels), min_size=2, unique=True))
        return space.restrict(subset), restrict_compact_reference(space, subset)
    if kind == "reconstruct":
        table = coordinates(space, next(metric_bases(space).bases(cap=1)))
        table = draw(st.sampled_from([table, parse_coordinate_csv(write_coordinate_csv(table))]))
        return reconstruct(table), reconstruct_list_reference(table)
    matrix = [[v / 5 for v in row] for row in space.value_matrix()]  # heights 1/5 apart
    for _ in range(draw(st.integers(0, 3))):  # raise a few distances: the closure repairs them
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            matrix[i][j] = matrix[j][i] = matrix[i][j] + 1
    if draw(st.booleans()):
        matrix = [[format_value(v) for v in row] for row in matrix]
    epsilon = draw(st.sampled_from([F(0), F(1, 4)]))
    return subdominant_ultrametric(matrix, space.labels, epsilon), subdominant_compact_reference(matrix, space.labels, epsilon)


@settings(max_examples=200, deadline=None)
@given(gap_form_builds())
def test_the_gap_form_constructor_builds_what_each_producer_built(case):
    space, expected = case
    assert space.labels == expected.labels
    assert np.array_equal(space.order, expected.order) and np.array_equal(space.gaps, expected.gaps)
    assert space.table.values == expected.table.values and space.table.texts == expected.table.texts
    # the table holds exactly the ranks the gaps use
    assert np.array_equal(np.unique(space.gaps), np.arange(1, len(space.table) + 1))
