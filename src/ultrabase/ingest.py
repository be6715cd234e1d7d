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

import bisect
import collections
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    UltrametricSpace,
    ValidationReport,
    Violation,
    _BLOCK_CELLS,
    _Gaps,
    _ValueIds,
    _check_labels,
    _cophenetic,
    _epsilon,
    _rank_ids,
    _single_linkage,
    build_space,
)
from .errors import ParseError, UltrametricViolationError, UsageError
from .reconstruct import CoordinateTable
from .values import (
    Numeric,
    ValueList,
    _plain_floats,
    _quantize_spellings,
    _terminates,
    _unit_array,
    format_value,
    parse_decimal,
    quantize,
    ratio_text,
)

NEWICK_EPSILON = Fraction(1, 10**9)
_PLAIN_MIN_BYTES = 8192  # below this much text after the header, the general path is faster
_SHIFTS = np.array([64 - 8 * k for k in range(9)], dtype=np.uint8)  # keep a word's first k bytes


def _csv_rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.removeprefix("\ufeff").splitlines():
        if line.split() == [line]:  # no whitespace, so no field needs a strip
            rows.append(line.split(","))
        elif line.strip():
            rows.append(list(map(str.strip, line.split(","))))
    if not rows:
        raise ParseError("empty document")
    return rows


def _plain_rows(text: str, skip: int) -> tuple[list[str], list[str], np.ndarray, ValueList] | None:
    """Read a CSV of plain decimals at C speed, as :func:`_csv_rows` and
    :func:`_token_ids` would; None for any other document, which is left
    to them, so they alone raise parse errors.

    The document is ASCII text with at least _PLAIN_MIN_BYTES after its
    header line, which holds ``width`` fields and no whitespace. Every
    line after it, ``width`` of them without labels, ends in a newline and
    holds exactly ``width`` fields: ``skip`` (0 or 1) labels, nonempty and
    unique, then tokens of 1 to 15 characters, whose distinct spellings
    are plain ``digits[.digits]`` (checked by :func:`_plain_floats`). So
    no field has a space to strip, and no line is blank. Returns the
    header fields, each row's label (none with ``skip`` 0), the rows x
    (width - skip) value ids and the values, numbered by
    :func:`_quantize_spellings` as :func:`quantize` numbers the same
    tokens.

    A token is told by its bytes, read as one little-endian word (two past
    8 characters) and shifted up so the bytes after it drop out. A table
    of a space holds at most one value per row, met in runs, so few
    distinct words are looked up in their sorted list; many are numbered
    by one sort. Only the distinct tokens become strings: their words'
    bytes, NULs then the token, with a newline between tokens, lose the
    NULs and are split once. Positions are int32, so a body of 2 GB or
    more is left to the general path, and the text is copied once, as
    bytes, freed once the words are read.
    """
    start = text.find("\n") + 1  # where the body starts
    head, size = text[:start - 1], len(text) - start
    if (not start or not _PLAIN_MIN_BYTES <= size < 2**31 - 16 or text[-1] != "\n" or not text.isascii()
            or head.split() != [head]):
        return None
    header = head.split(",")
    width = len(header)
    buf = text.encode() + bytes(16)  # a token's words are read up to 16 bytes past its start
    raw = np.frombuffer(buf, dtype=np.uint8, count=size, offset=start)
    # the commas and newlines, and any other byte up to "," (44), such as whitespace
    ends = np.flatnonzero(raw <= 44).astype(np.int32)
    rows = len(ends) // width
    if not rows or width <= skip or len(ends) != rows * width or (not skip and rows != width):
        return None
    # each line: width - 1 commas, then its newline, and no other separator
    if (raw[ends].reshape(rows, width) != np.append(np.full(width - 1, 44, np.uint8), np.uint8(10))).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])

    labels: list[str] = []
    if skip:
        bounds = map(slice, (starts[::width] + start).tolist(), (ends[::width] + start).tolist())
        labels = list(map(text.__getitem__, bounds))
        if not all(labels) or len(set(labels)) != rows:
            return None
    lengths = ends  # in place: each array is freed as soon as its successor exists
    lengths -= starts
    del ends
    if skip:
        starts = starts.reshape(rows, width)[:, 1:].ravel()
        lengths = lengths.reshape(rows, width)[:, 1:].ravel()
    if lengths.min() < 1 or lengths.max() > 15:
        return None
    lengths = lengths.astype(np.uint8)

    cells = len(starts)
    words = np.ndarray((size + 8,), dtype="<u8", buffer=buf, offset=start, strides=(1,))
    long = lengths.max() > 8
    low = words[starts]
    np.left_shift(low, _SHIFTS[np.minimum(lengths, 8) if long else lengths], out=low)
    keys = (low,)
    if long:
        high = words[starts + 8]
        np.left_shift(high, _SHIFTS[np.maximum(lengths, 8) - 8], out=high)
        keys = (low, high)
    del words, raw, buf, starts, lengths
    if not long:
        ordered = np.sort(low)
        distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        del ordered
    if not long and len(distinct) <= rows:
        spelling = np.empty(cells, dtype=np.int32)
        for block in range(0, cells, _BLOCK_CELLS):  # int64 positions a block at a time
            spelling[block:block + _BLOCK_CELLS] = np.searchsorted(distinct, low[block:block + _BLOCK_CELLS])
        del keys, low
        first = np.full(len(distinct), cells, dtype=np.int32)
        np.minimum.at(first, spelling, np.arange(cells, dtype=np.int32))
        keys = (distinct,)
    else:
        order = (np.lexsort(keys) if long else np.argsort(low)).astype(np.int32)
        new = np.zeros(cells, dtype=bool)  # where a spelling starts, in sorted order
        new[0] = True
        for key in keys:
            ordered = key[order]
            new[1:] |= ordered[1:] != ordered[:-1]
        del low, ordered
        keys = tuple(key[order[new]] for key in keys)  # each spelling's key words, by spelling id
        spelling = np.empty(cells, dtype=np.int32)
        spelling[order] = np.cumsum(new, dtype=np.int32) - 1
        first = np.minimum.reduceat(order, np.flatnonzero(new))
    # spellings numbered in order of first occurrence, as quantize numbers them
    by_first = np.argsort(first)
    renumber = np.empty(len(first), dtype=np.int32)
    renumber[by_first] = np.arange(len(first), dtype=np.int32)
    grid = np.full((len(first), 8 * len(keys) + 1), 10, dtype=np.uint8)
    grid[:, :-1] = np.stack(keys, axis=1)[by_first].view(np.uint8)
    grid[-1, -1] = 0  # no newline after the last spelling
    doc = grid.tobytes().translate(None, b"\0").decode()
    del keys, first, by_first, grid
    spellings = doc.split("\n")
    floats = _plain_floats(spellings, doc)
    del doc
    if floats is None:
        return None
    ids, values = _quantize_spellings(renumber[spelling], spellings, floats)
    return header, labels, ids.reshape(rows, width - skip), values


def _token_ids(body: list[list[str]], width: int, skip: int = 0) -> tuple[np.ndarray, ValueList]:
    """Quantize the numeric fields of CSV rows with :func:`quantize`.

    Each row holds ``skip`` leading non-numeric fields, then ``width``
    numbers. Returns the tokens' value ids as a rows x ``width`` array and
    the distinct values. A bad token raises with the line of its first use
    (rows start at line 2).
    """
    tokens = list(itertools.chain.from_iterable(fields[skip:] for fields in body))

    def bad(p, exc):
        raise ParseError(str(exc), line=p // width + 2) from None

    ids, values = quantize(tokens, bad)
    return ids.reshape(len(body), width), values


def parse_distance_csv(text: str, epsilon: Numeric = 0) -> UltrametricSpace:
    """Read a labeled distance matrix and build the validated space.

    Values closer than ``epsilon`` collapse into one distance rank; the
    default 0 keeps values apart unless they denote the same number.
    Distinct spellings are ordered by float, and a value becomes an exact
    `Fraction` only when it is read: a valid space's table builds a value
    when it is first read, an invalid one those its witnesses name.
    """
    plain = _plain_rows(text, skip=0)
    if plain is not None:
        labels, _, ids, values = plain
    else:
        rows = _csv_rows(text)
        labels = rows[0]
        n = len(labels)
        if len(rows) != n + 1:
            raise ParseError(f"expected {n} data rows after the header, found {len(rows) - 1}")

        # A row's field count is checked before its tokens, so a bad token
        # only wins when it sits in an earlier row.
        good = next((r for r, fields in enumerate(rows[1:]) if len(fields) != n), n)
        ids, values = _token_ids(rows[1:good + 1], n)
        if good < n:
            raise ParseError(f"expected {n} fields, found {len(rows[good + 1])}", line=good + 2)
    # Spellings are gathered only for the values of an accepted table, all
    # of them positive and so never on the diagonal.
    values.spelled = True
    return build_space(labels, _ValueIds(ids, values), epsilon)


def _distinct_texts(values: ValueList) -> list[str]:
    """Each of the distinct ``values`` rendered: "0" for zero, else its
    source spelling (see :meth:`ValueList.texts`), which no other value has,
    or else its canonical form. Shortest-float rendering could map two
    distinct values to one text, or to a text that reads back as another
    value or past it, which would corrupt the rank structure on the next
    parse. So every value with a text that a rendered nonzero value has
    gets exact n/d, which always round-trips, and so does a rendered float
    text that does not read back strictly between the nearest values
    whose texts are exact. Rounding to float is monotone, so float texts
    keep their order among themselves.
    """
    cells, signs = values.texts(), values.signs()
    rendered = [i for i, cell in enumerate(cells) if cell is None]
    for i in rendered:
        cells[i] = format_value(values[i]) if signs[i] else "0"
    counts = collections.Counter(cells)
    clashing = {cells[i] for i in rendered if signs[i] and counts[cells[i]] > 1}
    texts = [ratio_text(values[i]) if cell in clashing else cell for i, cell in enumerate(cells)]
    decimals = [i for i in rendered if signs[i] and "/" not in texts[i]]
    # no float text, or every value terminates
    if not decimals or ((units := values.units()) is not None and _terminates(units[1])):
        return texts
    floated = {i: back for i in decimals if (back := parse_decimal(texts[i])) != values[i]}
    exact = [i for i in range(len(values)) if i not in floated]
    for i, back in floated.items():
        k = bisect.bisect(exact, i)  # exact[k - 1] < i < exact[k]
        if (k and back <= values[exact[k - 1]]) or (k < len(exact) and back >= values[exact[k]]):
            texts[i] = ratio_text(values[i])
    return texts


def write_distance_csv(space: UltrametricSpace) -> str:
    """Inverse of :func:`parse_distance_csv`: the rank structure survives
    the round trip exactly, and the output is byte-stable under further
    parse/write cycles."""
    cells = np.array(_distinct_texts(space.table._list), dtype=object)
    lines = [",".join(space.labels), *map(",".join, cells[space._rows()].tolist())]
    return "\n".join(lines) + "\n"


def parse_coordinate_csv(text: str) -> CoordinateTable:
    """Read a ``label,s1,...,sk`` table of landmark distances."""
    plain = _plain_rows(text, skip=1)
    rows = _csv_rows(text) if plain is None else None
    header = rows[0] if plain is None else plain[0]
    if len(header) < 2 or header[0] != "label":
        raise ParseError('coordinate header must be "label,s1,...,sk"', line=1)
    landmarks = tuple(header[1:])
    if len(set(landmarks)) != len(landmarks):
        raise ParseError("duplicate landmark column", line=1)

    if plain is not None:
        _, points, ids, values = plain
    else:
        # As in parse_distance_csv, row-level errors come before the row's tokens.
        error = None
        points = []
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
        ids, values = _token_ids(rows[1:len(points) + 1], len(landmarks), skip=1)
        if error:
            raise error

    values.spelled = True
    return CoordinateTable._encoded(landmarks, points, ids, values)


def write_coordinate_csv(table: CoordinateTable) -> str:
    """Inverse of :func:`parse_coordinate_csv`; each value is rendered once."""
    cells = np.array(_distinct_texts(table._list), dtype=object)
    grid = np.empty((len(table.points), len(table.landmarks) + 1), dtype=object)
    grid[:, 0] = table.points
    grid[:, 1:] = cells[table._index]
    lines = ["label," + ",".join(table.landmarks), *map(",".join, grid.tolist())]
    return "\n".join(lines) + "\n"


# A Newick token: one delimiter, or a maximal run of other characters that
# are not whitespace (``\s`` matches exactly what `str.isspace` accepts).
_NEWICK_TOKEN = re.compile(r"[(),:;]|[^(),:;\s]+")
_STOPS = frozenset(["(", ")", ",", ":", ";", ""])  # "" stands for the end of the text


def _newick_error(text: str, message: str, token: int, extra: int = 0) -> ParseError:
    """A ParseError ``extra`` characters past the start of the ``token``-th
    token of ``text``, or past its end when it has fewer tokens."""
    found = next(itertools.islice(_NEWICK_TOKEN.finditer(text), token, None), None)
    return ParseError(message, position=(len(text) if found is None else found.start()) + extra)


def _read_newick(text: str) -> tuple[list[str], list[int], list[int], int]:
    """Scan the equidistant-tree subset of Newick into leaves and path sums.

    Grammar: tree := subtree ";" ; subtree := leaf ":" length
    | "(" subtree ("," subtree)+ ")" [label] [":" length]. Branch lengths
    are mandatory except on the root, whose length counts in every path
    sum. Internal labels are discarded. Quoted labels, comments and
    hybrid notation are out of scope. The text is split into tokens by
    one regex and read in one loop; nesting depth is bounded by memory
    only, as open parentheses live on a list. The first fault in the text
    raises, syntax and lengths alike, with its offset.

    Each distinct length spelling is parsed once, where it first occurs.
    Lengths are counted in units of 1 / scale, the largest unit that makes
    every length an int: scale is the lcm of the distinct denominators.
    Returns the leaf labels in document order, each leaf's root path sum
    in units, per boundary j between leaves j - 1 and j (j >= 1) the path
    sum of the node where those two leaves meet, and the scale.
    """
    tokens = _NEWICK_TOKEN.findall(text)
    tokens.append("")
    spelling_ids: dict[str, int] = {}
    lengths: list[Fraction] = []  # by spelling id

    def read(i: int) -> int:
        """The spelling id of the length at token i, seen for the first time."""
        tok = tokens[i]
        if tok in _STOPS:
            tok = ""
        try:
            value = parse_decimal(tok)
        except ParseError:
            raise _newick_error(text, f"invalid branch length {tok!r}", i, len(tok)) from None
        if value.numerator < 0:
            raise _newick_error(text, f"negative branch length {tok!r}", i, len(tok))
        s = spelling_ids[tok] = len(lengths)
        lengths.append(value)
        return s

    labels: list[str] = []
    leaf_parents: list[int] = []
    leaf_lengths: list[int] = []  # per leaf, its spelling id
    parents: list[int] = []  # per internal node, in pre-order; -1: the root
    node_lengths: list[int] = []  # per internal node, its spelling id; -1: none
    open_nodes: list[list[int]] = []  # per open "(": [node, children]
    meets: list[int] = []  # per boundary between leaves, the node where they meet
    i = 0
    while True:
        tok = tokens[i]
        up = open_nodes[-1][0] if open_nodes else -1
        if tok == "(":
            open_nodes.append([len(parents), 1])
            parents.append(up)
            node_lengths.append(-1)
            i += 1
            continue
        if tok in _STOPS:
            raise _newick_error(text, "expected a leaf label or '('", i)
        labels.append(tok)
        leaf_parents.append(up)
        i += 1
        if tokens[i] == ":":
            s = spelling_ids.get(tokens[i + 1])
            leaf_lengths.append(read(i + 1) if s is None else s)
            i += 2
        elif open_nodes:
            raise _newick_error(text, "missing branch length", i)
        else:
            leaf_lengths.append(-1)
        while open_nodes:
            node = open_nodes[-1]
            tok = tokens[i]
            i += 1
            if tok == ",":
                node[1] += 1
                meets.append(node[0])
                break
            if tok != ")":
                raise _newick_error(text, "expected ',' or ')'", i - 1)
            if node[1] < 2:
                raise _newick_error(text, "an internal node needs at least two children", i - 1, 1)
            open_nodes.pop()
            if tokens[i] not in _STOPS:
                i += 1  # internal label
            if tokens[i] == ":":
                s = spelling_ids.get(tokens[i + 1])
                node_lengths[node[0]] = read(i + 1) if s is None else s
                i += 2
            elif open_nodes:
                raise _newick_error(text, "missing branch length", i)
        else:
            break
    if tokens[i] != ";":
        raise _newick_error(text, "expected ';'", i)
    if i + 2 != len(tokens):
        raise _newick_error(text, "trailing content after ';'", i + 1)

    denominators = set(map(operator.attrgetter("denominator"), lengths))
    scale = math.lcm(*denominators)
    times = {den: scale // den for den in denominators}
    scaled = [v.numerator * times[v.denominator] for v in lengths]
    scaled.append(0)  # spelling id -1: no length
    depths = [0] * (len(parents) + 1)  # the extra entry serves the root's parent, -1
    for u, (up, s) in enumerate(zip(parents, node_lengths)):
        depths[u] = depths[up] + scaled[s]
    leaf_depths = [depths[up] + scaled[s] for up, s in zip(leaf_parents, leaf_lengths)]
    return labels, leaf_depths, list(map(depths.__getitem__, meets)), scale


def parse_newick(text: str, epsilon: Numeric = NEWICK_EPSILON) -> UltrametricSpace:
    """Leaf space of an equidistant rooted tree, metrized by path length.

    The distance between two leaves is the sum of branch lengths along
    the path connecting them. Trees whose root-to-leaf sums differ by
    more than ``epsilon`` are rejected: their leaf path metric would not
    be ultrametric. :func:`_read_newick` reads the text into path sums in
    one integer unit.

    Every tree then has one gap form. With ``high`` the largest leaf
    depth, leaf i sits ``off[i] = depth(i) - high <= 0`` below it, and
    the boundary between leaves k - 1 and k has the gap ``2 (high -
    meet(k))``, meet(k) the depth of the node where they meet. The lca of
    leaves i < j is the shallowest node met at a boundary in i+1..j, so
    d(i, j) = off[i] + off[j] + the largest gap in i+1..j. An exactly
    equidistant tree with no zero gap is a dendrogram of its gaps alone:
    no n x n values and no validation pass. Any other tree gets its n x n
    units from the dendrogram kernel plus the offsets, numbered by one
    sort, and goes through the full checks.
    """
    labels, depths, meets, scale = _read_newick(text.removeprefix("\ufeff"))
    eps = _epsilon(epsilon)
    if len(labels) < 2:
        raise ParseError("a tree needs at least two leaves")
    if len(set(labels)) != len(labels):
        seen: set[str] = set()
        for lab in labels:
            if lab in seen:
                raise ParseError(f"duplicate leaf label {lab!r}")
            seen.add(lab)

    low, high = min(depths), max(depths)
    if high - low > eps * scale:
        a, b = labels[depths.index(low)], labels[depths.index(high)]
        low, high = Fraction(low, scale), Fraction(high, scale)
        detail = (f"tree is not equidistant: root-to-leaf path sums "
                  f"{format_value(low)} ({a}) and {format_value(high)} ({b}) differ")
        violation = Violation(kind="equidistance", labels=(a, b), values=(low, high), detail=detail)
        raise UltrametricViolationError(ValidationReport(ok=False, violations=(violation,)))

    n = len(labels)
    if low == high:
        gap_ids: dict[int, int] = {}  # position 0 is the zero's
        ids = np.array([gap_ids.setdefault(meet, len(gap_ids) + 1) for meet in meets], dtype=np.int32)
        if high not in gap_ids:  # else a zero distance, which the full checks report
            gaps = ValueList.of_units([0, *(2 * (high - meet) for meet in gap_ids)], scale)
            return build_space(labels, _Gaps(range(n), ids, gaps), eps)

    units = _unit_array([*(2 * (high - meet) for meet in meets), *(depth - high for depth in depths)])
    # a leaf is no shallower than the nodes where it meets its neighbours, so
    # 2 |off[i]| <= a gap and no sum below leaves the range of the gaps' int64
    matrix = _cophenetic(range(n), units[:n - 1])
    off = units[n - 1:]
    matrix += off[:, None]
    matrix += off
    np.fill_diagonal(matrix, 0)
    ordered = np.sort(matrix, axis=None)  # faster than np.unique, which hashes int64
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    del ordered
    ids = np.searchsorted(distinct, matrix).astype(np.int32)
    del matrix
    return build_space(labels, _ValueIds(ids, ValueList.of_units(distinct, scale)), eps)


def subdominant_ultrametric(
    matrix: Sequence[Sequence[Numeric]],
    labels: Sequence[str] | None = None,
    epsilon: Numeric = 0,
) -> UltrametricSpace:
    """Largest ultrametric below a dissimilarity (single-linkage closure).

    Entry (x,y) becomes the minimum over all paths from x to y of the
    largest edge used. Already-ultrametric input passes through
    unchanged; the operator is idempotent and never exceeds its input.
    The closure only compares values, so it runs on integer ranks and is
    exact: at epsilon 0 on the value ids of :func:`quantize`, which number
    the values in increasing order; :func:`core._rank_ids` groups values
    into ranks only at a positive epsilon.
    """
    n = len(matrix)
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    if len(labels) != n or any(len(row) != n for row in matrix):
        raise UsageError("dissimilarity matrix must be square and match the labels")
    if n < 2:
        raise UsageError("need at least two points")
    eps = _epsilon(epsilon)

    def bad(p, exc):
        i, j = divmod(p, n)
        raise UsageError(f"entry ({labels[i]},{labels[j]}) is not a finite number") from None

    ids, values = quantize(list(itertools.chain.from_iterable(matrix)), bad)
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

    # no value is negative, so id 0 is the zero, and rank r holds values[r]
    values, arr = _rank_ids(ids, values, eps) if eps else (values, ids)
    order, gaps = _single_linkage(arr)
    if not gaps.min():  # zero dissimilarities glue distinct points; report each such pair
        return build_space(labels, _ValueIds(_cophenetic(order, gaps), values))
    # the closure's gap form is its space, and keeps at most n - 1 ranks: the table holds only those
    _check_labels(labels)
    return UltrametricSpace._of(labels, order, gaps, values)
