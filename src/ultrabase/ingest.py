"""File formats and instance sources: distance CSV, coordinate CSV, Newick.

Also provides the subdominant ultrametric (single linkage: minimize over
paths the maximum edge), which turns an arbitrary dissimilarity into the
largest ultrametric below it and so is a convenient instance source.

CSV conventions: UTF-8, "." decimal separator, "," field separator, one
header row. A distance file has the n labels as header and an n x n body;
a coordinate file has header ``label,s1,...,sk`` and one row per point.
Parsed decimal spellings are remembered per value so writing a space back
out reproduces them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    DistanceTable,
    UltrametricSpace,
    ValidationReport,
    Violation,
    _compact,
    _rank_matrix,
    _space_from_ranks,
    build_space,
)
from .errors import ParseError, UltrametricViolationError, UsageError
from .reconstruct import CoordinateTable
from .values import Numeric, format_value, parse_decimal, to_fraction

NEWICK_EPSILON = Fraction(1, 10**9)


def _csv_rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        if line.strip():
            rows.append([field.strip() for field in line.split(",")])
    if not rows:
        raise ParseError("empty document")
    return rows


def parse_distance_csv(text: str, epsilon: Numeric = 0) -> UltrametricSpace:
    """Read a labeled distance matrix and build the validated space.

    Values closer than ``epsilon`` collapse into one distance rank; the
    default 0 keeps values apart unless they denote the same number.
    """
    rows = _csv_rows(text)
    labels = rows[0]
    n = len(labels)
    if len(rows) != n + 1:
        raise ParseError(f"expected {n} data rows after the header, found {len(rows) - 1}")

    matrix: list[list[Fraction]] = []
    texts: dict[Fraction, str] = {}
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

    return build_space(labels, matrix, epsilon=epsilon, value_texts=texts)


def _distinct_texts(values, render) -> dict[Fraction, str]:
    """Render each value, falling back to exact n/d when spellings collide.

    Shortest-float rendering could in principle map two distinct exact
    values to one string, which would corrupt the rank structure on the
    next parse; the fraction form always round-trips.
    """
    texts = {v: render(v) for v in values}
    by_text: dict[str, list[Fraction]] = {}
    for v, t in texts.items():
        by_text.setdefault(t, []).append(v)
    for clashing in by_text.values():
        if len(clashing) > 1:
            for v in clashing:
                texts[v] = f"{v.numerator}/{v.denominator}"
    return texts


def write_distance_csv(space: UltrametricSpace) -> str:
    """Inverse of :func:`parse_distance_csv`: the rank structure survives
    the round trip exactly, and the output is byte-stable under further
    parse/write cycles."""
    rank_of = {v: i + 1 for i, v in enumerate(space.table.values)}
    texts = _distinct_texts(space.table.values, lambda v: space.table.text(rank_of[v]))
    cells = ["0", *(texts[v] for v in space.table.values)]
    lines = [",".join(space.labels)]
    for row in space.ranks.tolist():
        lines.append(",".join(cells[r] for r in row))
    return "\n".join(lines) + "\n"


def parse_coordinate_csv(text: str) -> CoordinateTable:
    """Read a ``label,s1,...,sk`` table of landmark distances."""
    rows = _csv_rows(text)
    header = rows[0]
    if len(header) < 2 or header[0] != "label":
        raise ParseError('coordinate header must be "label,s1,...,sk"', line=1)
    landmarks = tuple(header[1:])
    if len(set(landmarks)) != len(landmarks):
        raise ParseError("duplicate landmark column", line=1)

    points: list[str] = []
    table_rows: list[tuple[Fraction, ...]] = []
    texts: dict[Fraction, str] = {}
    for r, fields in enumerate(rows[1:], start=2):
        if len(fields) != len(landmarks) + 1:
            raise ParseError(
                f"expected {len(landmarks) + 1} fields, found {len(fields)}", line=r
            )
        label = fields[0]
        if not label:
            raise ParseError("empty point label", line=r)
        if label in points:
            raise ParseError(f"duplicate point label {label!r}", line=r)
        row = []
        for tok in fields[1:]:
            try:
                v = parse_decimal(tok)
            except ParseError as exc:
                raise ParseError(str(exc), line=r) from None
            row.append(v)
            if v > 0:
                texts.setdefault(v, tok)
        points.append(label)
        table_rows.append(tuple(row))

    return CoordinateTable(
        landmarks=landmarks,
        points=tuple(points),
        rows=tuple(table_rows),
        value_texts=texts,
    )


def write_coordinate_csv(table: CoordinateTable) -> str:
    positive = {v for row in table.rows for v in row if v > 0}
    texts = _distinct_texts(
        positive, lambda v: table.value_texts.get(v) or format_value(v)
    )
    texts[Fraction(0)] = "0"
    lines = ["label," + ",".join(table.landmarks)]
    for lab, row in zip(table.points, table.rows):
        lines.append(lab + "," + ",".join(texts[v] for v in row))
    return "\n".join(lines) + "\n"


class _NewickNode:
    __slots__ = ("children", "leaf_label", "length")

    def __init__(self, children, leaf_label, length):
        self.children = children
        self.leaf_label = leaf_label
        self.length = length


class _NewickParser:
    """Recursive descent over the equidistant-tree subset of Newick.

    Grammar: tree := subtree ";" ; subtree := leaf ":" length
    | "(" subtree ("," subtree)+ ")" [label] [":" length]. Branch lengths
    are mandatory except on the root, whose length (having no parent
    edge) is parsed and ignored. Quoted labels, comments and hybrid
    notation are out of scope.
    """

    _DELIMITERS = set("(),:;")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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

    def branch_length(self, required: bool) -> Fraction | None:
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

    def subtree(self, at_root: bool) -> _NewickNode:
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            children = [self.subtree(False)]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                children.append(self.subtree(False))
                self.skip_ws()
            if self.peek() != ")":
                self.error("expected ',' or ')'")
            self.pos += 1
            if len(children) < 2:
                self.error("an internal node needs at least two children")
            self.skip_ws()
            self.token()  # optional internal label, discarded
            length = self.branch_length(required=not at_root)
            return _NewickNode(children, None, length)
        label = self.token()
        if not label:
            self.error("expected a leaf label or '('")
        length = self.branch_length(required=not at_root)
        return _NewickNode([], label, length)

    def parse(self) -> _NewickNode:
        root = self.subtree(at_root=True)
        self.skip_ws()
        if self.peek() != ";":
            self.error("expected ';'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing content after ';'")
        return root


def parse_newick(text: str, epsilon: Numeric = NEWICK_EPSILON) -> UltrametricSpace:
    """Leaf space of an equidistant rooted tree, metrized by path length.

    The distance between two leaves is the sum of branch lengths along
    the path connecting them. Trees whose root-to-leaf sums differ by
    more than ``epsilon`` are rejected: their leaf path metric would not
    be ultrametric.
    """
    root = _NewickParser(text).parse()
    eps = to_fraction(epsilon)

    leaves: list[tuple[str, Fraction]] = []

    def collect(node: _NewickNode, depth: Fraction):
        depth = depth + (node.length or 0)
        if node.leaf_label is not None:
            leaves.append((node.leaf_label, depth))
            return
        for child in node.children:
            collect(child, depth)

    collect(root, Fraction(0))
    if len(leaves) < 2:
        raise ParseError("a tree needs at least two leaves")
    labels = [lab for lab, _ in leaves]
    if len(set(labels)) != len(labels):
        dup = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise ParseError(f"duplicate leaf label {dup!r}")

    depths = {lab: d for lab, d in leaves}
    lo = min(leaves, key=lambda t: t[1])
    hi = max(leaves, key=lambda t: t[1])
    if hi[1] - lo[1] > eps:
        report = ValidationReport(
            ok=False,
            violations=(
                Violation(
                    kind="equidistance",
                    labels=(lo[0], hi[0]),
                    values=(lo[1], hi[1]),
                    detail=(
                        f"tree is not equidistant: root-to-leaf path sums "
                        f"{format_value(lo[1])} ({lo[0]}) and {format_value(hi[1])} ({hi[0]}) differ"
                    ),
                ),
            ),
        )
        raise UltrametricViolationError(report)

    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    matrix = [[Fraction(0)] * n for _ in range(n)]

    def pair_up(node: _NewickNode, depth: Fraction) -> list[str]:
        depth = depth + (node.length or 0)
        if node.leaf_label is not None:
            return [node.leaf_label]
        groups = [pair_up(child, depth) for child in node.children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi]:
                    for b in groups[gj]:
                        d = depths[a] + depths[b] - 2 * depth
                        i, j = index[a], index[b]
                        matrix[i][j] = matrix[j][i] = d
        return [lab for grp in groups for lab in grp]

    pair_up(root, Fraction(0))
    return build_space(labels, matrix, epsilon=eps)


def subdominant_ultrametric(
    matrix: Sequence[Sequence[Numeric]],
    labels: Sequence[str] | None = None,
    epsilon: Numeric = 0,
) -> UltrametricSpace:
    """Largest ultrametric below a dissimilarity (single-linkage closure).

    Entry (x,y) becomes the minimum over all paths from x to y of the
    largest edge used. Already-ultrametric input passes through
    unchanged; the operator is idempotent and never exceeds its input.
    """
    n = len(matrix)
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    if len(labels) != n or any(len(row) != n for row in matrix):
        raise UsageError("dissimilarity matrix must be square and match the labels")
    if n < 2:
        raise UsageError("need at least two points")

    vals: list[list[Fraction]] = []
    for i in range(n):
        row = []
        for j in range(n):
            try:
                v = to_fraction(matrix[i][j])
            except (ValueError, TypeError):
                raise UsageError(f"entry ({labels[i]},{labels[j]}) is not a finite number")
            row.append(v)
        vals.append(row)
    for i in range(n):
        if vals[i][i] != 0:
            raise UsageError(f"nonzero diagonal at {labels[i]}")
        for j in range(i + 1, n):
            if vals[i][j] != vals[j][i]:
                raise UsageError(f"asymmetric entries at ({labels[i]},{labels[j]})")
            if vals[i][j] < 0:
                raise UsageError(f"negative entry at ({labels[i]},{labels[j]})")

    # Work on ranks: the min-max closure only compares values, so the
    # quantized integer picture is exact and lets numpy do the sweeps.
    reps, arr = _rank_matrix(vals, to_fraction(epsilon))
    for k in range(n):
        arr = np.minimum(arr, np.maximum.outer(arr[:, k], arr[k, :]))
    if reps[0] == 0:
        # Zero dissimilarities glue distinct points; build_space reports each pair.
        return build_space(labels, [[reps[r - 1] if r else 0 for r in row] for row in arr.tolist()])
    report, space = _space_from_ranks(labels, *_compact(DistanceTable(values=reps), arr))
    if space is None:
        raise UltrametricViolationError(report)
    return space
