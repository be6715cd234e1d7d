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
    UltrametricSpace,
    ValidationReport,
    Violation,
    _Gaps,
    _ValueIds,
    _cell_ids,
    _compact,
    _epsilon,
    _rank_ids,
    _single_linkage,
    _space_from_ranks,
    build_space,
)
from .errors import ParseError, UltrametricViolationError, UsageError
from .reconstruct import CoordinateTable
from .values import (
    Numeric,
    ValueList,
    format_value,
    parse_decimal,
    quantize,
    quantize_tokens,
    ratio_text,
    to_fraction,
)

NEWICK_EPSILON = Fraction(1, 10**9)


def _csv_rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.removeprefix("\ufeff").splitlines():
        if line.strip():
            rows.append(list(map(str.strip, line.split(","))))
    if not rows:
        raise ParseError("empty document")
    return rows


def _token_ids(
    body: list[list[str]], width: int, skip: int = 0
) -> tuple[list[str], np.ndarray, ValueList]:
    """Quantize the numeric fields of CSV rows with :func:`quantize_tokens`.

    Each row holds ``skip`` leading non-numeric fields, then ``width``
    numbers. Returns the tokens (row-major), their value ids as a rows x
    ``width`` array and the distinct values. A bad token raises with the
    line of its first use (rows start at line 2).
    """
    tokens = [tok for fields in body for tok in fields[skip:]]

    def convert(p):
        try:
            return parse_decimal(tokens[p])
        except ParseError as exc:
            raise ParseError(str(exc), line=p // width + 2) from None

    ids, values = quantize_tokens(tokens, convert)
    return tokens, ids.reshape(len(body), width), values


def _first_spellings(tokens, ids, count, where) -> list[str | None]:
    """Each of ``count`` value ids' first spelling in row-major order among
    the cells ``where`` selects (None for an id none of them holds)."""
    cells = np.flatnonzero(where)
    used, first = np.unique(ids.ravel()[cells], return_index=True)
    texts: list[str | None] = [None] * count
    for v, p in zip(used.tolist(), cells[first].tolist()):
        texts[v] = tokens[p]
    return texts


def parse_distance_csv(text: str, epsilon: Numeric = 0) -> UltrametricSpace:
    """Read a labeled distance matrix and build the validated space.

    Values closer than ``epsilon`` collapse into one distance rank; the
    default 0 keeps values apart unless they denote the same number.
    Distinct spellings are ordered by float, and a value becomes an exact
    `Fraction` only when it is read: a valid space builds the values its
    table keeps, an invalid one those its witnesses name.
    """
    rows = _csv_rows(text)
    labels = rows[0]
    n = len(labels)
    if len(rows) != n + 1:
        raise ParseError(f"expected {n} data rows after the header, found {len(rows) - 1}")

    # A row's field count is checked before its tokens, so a bad token
    # only wins when it sits in an earlier row.
    good = next((r for r, fields in enumerate(rows[1:]) if len(fields) != n), n)
    tokens, ids, values = _token_ids(rows[1:good + 1], n)
    if good < n:
        raise ParseError(f"expected {n} fields, found {len(rows[good + 1])}", line=good + 2)
    texts = _first_spellings(tokens, ids, len(values), ~np.eye(n, dtype=bool))
    return build_space(labels, _ValueIds(ids, values, texts), epsilon)


def _distinct_texts(values, texts) -> list[str]:
    """Each of the distinct ``values`` rendered: "0" for zero, else its
    aligned source spelling in ``texts``, or the canonical form where that
    is None; nonzero values whose renderings collide get exact n/d.

    Shortest-float rendering could in principle map two distinct exact
    values to one string, which would corrupt the rank structure on the
    next parse; the fraction form always round-trips.
    """
    cells = ["0" if not v else (format_value(v) if t is None else t) for v, t in zip(values, texts)]
    by_text: dict[str, list[int]] = {}
    for i, v in enumerate(values):
        if v:
            by_text.setdefault(cells[i], []).append(i)
    for clashing in by_text.values():
        if len(clashing) > 1:
            for i in clashing:
                cells[i] = ratio_text(values[i])
    return cells


def write_distance_csv(space: UltrametricSpace) -> str:
    """Inverse of :func:`parse_distance_csv`: the rank structure survives
    the round trip exactly, and the output is byte-stable under further
    parse/write cycles."""
    cells = ["0", *_distinct_texts(space.table.values, space.table.texts)]
    lines = [",".join(space.labels)]
    for row in space.ranks.tolist():
        lines.append(",".join(map(cells.__getitem__, row)))
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

    # As in parse_distance_csv, row-level errors come before the row's tokens.
    error = None
    points: list[str] = []
    seen: set[str] = set()
    for r, fields in enumerate(rows[1:], start=2):
        if len(fields) != len(landmarks) + 1:
            error = ParseError(f"expected {len(landmarks) + 1} fields, found {len(fields)}", line=r)
        elif not fields[0]:
            error = ParseError("empty point label", line=r)
        elif fields[0] in seen:
            error = ParseError(f"duplicate point label {fields[0]!r}", line=r)
        if error:
            break
        points.append(fields[0])
        seen.add(fields[0])
    tokens, ids, values = _token_ids(rows[1:len(points) + 1], len(landmarks), skip=1)
    if error:
        raise error

    positive = (values.signs() > 0)[ids]
    texts = _first_spellings(tokens, ids, len(values), positive)
    return CoordinateTable._encoded(landmarks, points, ids, values, texts)


def write_coordinate_csv(table: CoordinateTable) -> str:
    """Inverse of :func:`parse_coordinate_csv`; each value is rendered once."""
    values, index = table.encoding
    cells = _distinct_texts(values, table.texts)
    lines = ["label," + ",".join(table.landmarks)]
    for lab, row in zip(table.points, index.tolist()):
        lines.append(lab + "," + ",".join(map(cells.__getitem__, row)))
    return "\n".join(lines) + "\n"


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
    """Iterative descent over the equidistant-tree subset of Newick.

    Grammar: tree := subtree ";" ; subtree := leaf ":" length
    | "(" subtree ("," subtree)+ ")" [label] [":" length]. Branch lengths
    are mandatory except on the root, whose length (having no parent
    edge) is parsed and ignored. Quoted labels, comments and hybrid
    notation are out of scope. Nesting depth is bounded by memory only:
    open parentheses live on an explicit stack.
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

    def subtree(self) -> _NewickNode:
        open_nodes: list[list[_NewickNode]] = []  # children read so far, per open "("
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


def parse_newick(text: str, epsilon: Numeric = NEWICK_EPSILON) -> UltrametricSpace:
    """Leaf space of an equidistant rooted tree, metrized by path length.

    The distance between two leaves is the sum of branch lengths along
    the path connecting them. Trees whose root-to-leaf sums differ by
    more than ``epsilon`` are rejected: their leaf path metric would not
    be ultrametric. A tree whose sums are exactly equal is built from
    its leaf order and the gaps between neighbouring leaves, with no
    n x n keys and no validation pass; other trees have each pair keyed
    by its three depths and go through the full checks.
    """
    root = _NewickParser(text.removeprefix("\ufeff")).parse()
    eps = to_fraction(epsilon)

    # Pre-order walk: leaves in document order with their root path sums,
    # and per internal node the blocks of leaf pairs it is the LCA of
    # (leaves lo..mid-1 of one child against mid..hi-1 of later siblings).
    labels: list[str] = []
    depths: list[Fraction] = []
    blocks: list[tuple[int, int, int, Fraction]] = []
    stack = [(root, Fraction(0))]
    while stack:
        node, depth = stack.pop()
        depth = depth + (node.length or 0)
        if node.leaf_label is not None:
            labels.append(node.leaf_label)
            depths.append(depth)
            continue
        blocks.extend((child.lo, child.hi, node.hi, depth) for child in node.children[:-1])
        stack.extend((child, depth) for child in reversed(node.children))

    if len(labels) < 2:
        raise ParseError("a tree needs at least two leaves")
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise ParseError(f"duplicate leaf label {lab!r}")
        seen.add(lab)

    leaves = list(zip(labels, depths))
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
    height = depths[0]
    if lo[1] == hi[1]:
        # With every leaf at one height, d(a, b) = 2 (height - depth(lca)),
        # and the lca of leaves i < j is the shallowest node whose children
        # meet at a boundary in i+1..j: one gap per boundary fixes the space.
        gap_ids: dict[Fraction, int] = {}
        ids = np.zeros(n, dtype=np.int32)
        ids[[mid for _, mid, _, _ in blocks]] = [
            gap_ids.setdefault(depth, len(gap_ids)) for _, _, _, depth in blocks
        ]
        if height not in gap_ids:  # else a zero distance, which the keyed path reports
            return build_space(labels, _Gaps(range(n), ids, [2 * (height - d) for d in gap_ids]), eps)

    # d(a, b) = depth(a) + depth(b) - 2 depth(lca): key each pair by the
    # three depth ids and compute each distinct key once.
    depth_ids: dict[Fraction, int] = {}
    leaf_ids = np.array([depth_ids.setdefault(d, len(depth_ids)) for d in depths])
    lca_depth = np.diag(leaf_ids)
    for start, mid, end, depth in blocks:
        at = depth_ids.setdefault(depth, len(depth_ids))
        lca_depth[start:mid, mid:end] = lca_depth[mid:end, start:mid] = at
    k = len(depth_ids)
    low, high = np.minimum.outer(leaf_ids, leaf_ids), np.maximum.outer(leaf_ids, leaf_ids)
    keys = (low * k + high) * k + lca_depth
    distinct, inverse = np.unique(keys, return_inverse=True)
    by_id = list(depth_ids)

    def distance(p):
        a, rest = divmod(int(distinct[p]), k * k)
        b, c = divmod(rest, k)
        return by_id[a] + by_id[b] - 2 * by_id[c]

    ids, values = quantize(range(len(distinct)), distance)
    return build_space(labels, _ValueIds(ids[inverse].reshape(n, n), values), eps)


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
    eps = _epsilon(epsilon)

    def nonfinite(p):
        i, j = divmod(p, n)
        raise UsageError(f"entry ({labels[i]},{labels[j]}) is not a finite number")

    ids, values = _cell_ids([c for row in matrix for c in row], nonfinite)
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

    # Work on ranks: the closure only compares values, so the quantized
    # integer picture is exact.
    rep_ids, arr = _rank_ids(ids, values, eps)
    reps = values.take(rep_ids)  # each built only if the closure keeps it
    closed = _single_linkage(arr)
    if signs[rep_ids[0]] == 0:
        # Zero dissimilarities glue distinct points; report each such pair.
        # Rank r holds reps[r - 1], and reps[0] = 0 also serves the diagonal.
        return build_space(labels, _ValueIds(np.maximum(closed - 1, 0), reps))
    # the closure keeps at most n - 1 ranks: the table holds only those
    report, space = _space_from_ranks(labels, *_compact(reps, [None] * len(reps), closed))
    if space is None:
        raise UltrametricViolationError(report)
    return space
