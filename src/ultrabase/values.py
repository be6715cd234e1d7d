"""Exact distance values: parsing, quantization, canonical formatting, epsilon grouping.

All distances are `fractions.Fraction` internally, so equality tests are
exact. Decimal text maps to the exact rational it denotes ("0.50" and
"0.5" are the same value). Floats are converted through their repr, i.e.
the shortest decimal that round-trips, which keeps ingestion deterministic.

Ingestion orders values by float and builds a `Fraction` only for a value
something reads. :func:`quantize` serves every cell: it reads a plain
decimal token (ASCII ``digits[.digits]``) with `float`, which rounds
correctly and so orders tokens as their exact values do, and an int,
float or `Fraction` cell with `float` too. A cell is read exactly up front
only where floats tie, or where its float is not finite or the cell is
other text; ``quantize(cells, bad)`` owns that reading, and ``bad(p, exc)``
only says what a cell it cannot read means: None (no number) or an
exception. Values come as a :class:`ValueList` numbered in increasing
value: each value's float, its first cell, and its exact value,
``to_fraction`` of that cell, built when a distance table, a witness, a
sign test at float 0 or an exact epsilon comparison first reads it. From
there on, work is on integer value ids, and comparing two values is
comparing their ids.

Epsilon grouping compares gaps on exact integer units where it can: value
i = units[i] * 10**-d. A list of plain decimal text whose values have at
most 15 digits reads its units off its floats, when an epsilon comparison
first asks; a Newick tree's gaps come as units. One vectorised comparison
then tells every gap above epsilon. Any other list, such as text with
more digits, other spellings or `Fraction` and float cells, compares exact
`Fraction` differences.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
import operator
import re
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError, UsageError

Numeric = Fraction | int | float | str

MAX_DIGITS = 4000  # bound on a parsed value's numerator and denominator
_DIGIT_LIMIT = 10**MAX_DIGITS
_INT64_MAX = np.iinfo(np.int64).max


def to_fraction(value: Numeric) -> Fraction:
    """Convert a number-like value to an exact Fraction.

    Integers, numpy's included, are read exactly. Floats, numpy's
    included, go through the repr of their Python float, so that 0.1
    becomes 1/10, not the underlying binary expansion; NaN and infinities
    are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_decimal(value)
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as a distance value")


# ASCII digits[.digits] of at most MAX_DIGITS characters
_PLAIN = re.compile(rf"(?=.{{1,{MAX_DIGITS}}}\Z)[0-9]+(?:\.[0-9]+)?")


def parse_decimal(token: str) -> Fraction:
    """Parse a decimal token ("1", "0.25", "2.5e-3") to an exact Fraction.

    A value whose reduced numerator or denominator has more than
    MAX_DIGITS decimal digits is rejected. `Fraction` would build the
    power of ten an exponent asks for, so a token that is out of bounds
    by its exponent alone is rejected from its text.
    """
    text = token.strip()
    if _PLAIN.fullmatch(text):  # the ratio is read off the text; an integer needs no gcd
        whole, _, frac = text.partition(".")
        return Fraction(int(whole + frac), 10 ** len(frac)) if frac else Fraction(int(whole))
    return _parse_general(token)


def _parse_general(token: str) -> Fraction:
    """:func:`parse_decimal` for any token `Fraction` accepts."""
    text = token.strip()
    if not text:
        raise ParseError("empty numeric field")
    # without an exponent, numerator and denominator are no longer than the text
    short = len(text) <= MAX_DIGITS and "e" not in text and "E" not in text
    if not short:
        text, out_of_bounds = _scaled_text(text)
        if out_of_bounds:
            raise _too_large(token)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid numeric field {token!r}") from exc
    if not short and max(abs(value.numerator), value.denominator) >= _DIGIT_LIMIT:
        raise _too_large(token)
    return value


def _too_large(token: str) -> ParseError:
    return ParseError(f"numeric field {token!r} has more than {MAX_DIGITS} digits")


def _scaled_text(text: str) -> tuple[str, bool]:
    """Judge a token ``mantissa[e exponent]`` from its digits alone.

    Write its value as D * 10**scale, D the mantissa's digits without
    leading and trailing zeros (L of them). For scale >= 0 the numerator
    has exactly L + scale digits; for scale < 0 the reduced denominator
    exceeds 10**(-scale - L). Returns the text to hand to `Fraction` and
    whether the value is certainly out of bounds. A zero mantissa gets
    its exponent digits zeroed: same syntax and value, no power of ten.
    Text that is not a decimal passes through for `Fraction` to reject.
    """
    cut = max(text.find("e"), text.find("E"))
    mantissa, exponent = (text[:cut], text[cut + 1:]) if cut >= 0 else (text, "0")
    unsigned = [s[1:] if s[:1] in ("+", "-") else s for s in (mantissa, exponent)]
    whole, _, frac = unsigned[0].replace("_", "").partition(".")
    digits = (whole + frac).lstrip("0")
    significant = digits.rstrip("0")
    body = unsigned[1].replace("_", "")
    if not (whole + frac).isdecimal() or not body.isdecimal():
        return text, False
    if not significant:
        if cut < 0:
            return text, False
        return mantissa + "e" + "".join("0" if c.isdecimal() else c for c in exponent), False
    body = body.lstrip("0")
    magnitude = int(body or "0") if len(body) <= 18 else 10**18
    scale = (-magnitude if exponent.startswith("-") else magnitude) - len(frac)
    scale += len(digits) - len(significant)
    if scale >= 0:
        return text, len(significant) + scale > MAX_DIGITS
    return text, -scale - len(significant) >= MAX_DIGITS


def format_value(value: Fraction) -> str:
    """Canonical decimal rendering of an exact value.

    Terminating decimals are printed exactly ("0.5", "3", "0.125");
    anything else falls back to the shortest round-trip float string,
    e.g. 1/3 -> "0.3333333333333333". A value neither form can show
    (an expansion longer than MAX_DIGITS characters, which
    :func:`parse_decimal` would not read back, or a float that overflows
    or underflows to 0) is printed exactly as "n/d", which parses back
    while both parts have at most MAX_DIGITS digits.
    """
    num, den = value.numerator, value.denominator
    twos, fives = _two_five_exponents(den)
    if den == 2**twos * 5**fives:
        digits = max(twos, fives)
        scaled = num * 10**digits // den
        if abs(scaled) < _DIGIT_LIMIT:  # `str` renders it
            if not digits:
                text = str(scaled)
            else:
                sign = "-" if scaled < 0 else ""
                text = str(abs(scaled)).rjust(digits + 1, "0")
                text = f"{sign}{text[:-digits]}.{text[-digits:]}"
            if len(text) <= MAX_DIGITS:
                return text
    elif (approx := _float(value)) and math.isfinite(approx):
        return repr(approx)
    return ratio_text(value)


def ratio_text(value: Fraction) -> str:
    """The exact "n/d" form of a value, however many digits it has."""
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _int_text(i: int) -> str:
    """``str(i)``, in pieces when it is longer than `str` renders at once."""
    if abs(i) < _DIGIT_LIMIT:
        return str(i)
    high, low = divmod(abs(i), _DIGIT_LIMIT)
    return ("-" if i < 0 else "") + _int_text(high) + str(low).rjust(MAX_DIGITS, "0")


def _two_five_exponents(n: int) -> tuple[int, int]:
    """The exponents of 2 and of 5 in a positive integer."""
    twos = (n & -n).bit_length() - 1  # trailing zero bits
    rest, fives = n >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    return twos, fives


def _float(value: Fraction | int, scale: int = 1) -> float:
    """The float nearest ``value / scale``, or an infinity beyond the float range.

    Rounding is monotone, so of two values the one with the larger float
    is the larger; only equal floats need the exact comparison.
    """
    try:
        return value.numerator / (value.denominator * scale)
    except OverflowError:
        return math.inf if value.numerator > 0 else -math.inf


def _float_or_nan(spelling) -> float:
    """``float(spelling)``, or NaN (no float: read it exactly) where that overflows."""
    try:
        return float(spelling)
    except OverflowError:
        return math.nan


class ValueList:
    """Distinct values by id, in aligned arrays.

    ``floats[i]`` is the float nearest value i, or an infinity beyond the
    float range (see :func:`_float`), so floats order the values up to
    ties. ``cells[i]``, an object array, holds the first cell that held
    value i, and value i is ``to_fraction(cells[i])``: built when first
    read, then kept among the values built so far (None elsewhere).

    A list made :meth:`of` built values holds them, and a cell is then
    the value or its source spelling. ``spelled`` says whether text cells
    are source spellings (:meth:`texts`): :meth:`of` with texts and the CSV
    parsers set it, and :meth:`take` keeps it. A list may also know its
    values as integer units (see :meth:`units`):
    value i is ``units[i] * 10**-digits``. A list made :meth:`of_units`
    holds them and has no cells; its values are built from them. A list
    whose cells are all plain decimal text (``plain``) reads them from its
    floats each time they are asked for.
    """

    __slots__ = ("floats", "cells", "_exact", "_units", "_plain", "spelled")

    def __init__(self, floats: np.ndarray, cells: np.ndarray | None, exact: np.ndarray,
                 units: tuple[np.ndarray, int] | None = None, plain: bool = False, spelled: bool = False):
        self.floats = floats
        self.cells = cells
        self._exact = exact
        self._units = units
        self._plain = plain
        self.spelled = spelled

    @classmethod
    def of(cls, values: Sequence[Fraction | int], texts: Sequence[str | None] | None = None) -> "ValueList":
        """The list of values already built, each its own cell, or its
        spelling in ``texts`` where that is not None: text that
        :func:`parse_decimal` reads as that value."""
        k = len(values)
        for v, t in zip(values, texts or ()):
            if t is not None and not _denotes(t, v):
                raise UsageError(f"spelling {t!r} is not decimal text for the value {v}")
        built = np.fromiter(values, dtype=object, count=k)
        cells = built if texts is None else np.fromiter(
            (v if t is None else t for v, t in zip(values, texts)), dtype=object, count=k)
        return cls(np.fromiter(map(_float, values), dtype=float, count=k), cells, built, spelled=texts is not None)

    @classmethod
    def of_units(cls, units: Sequence[int] | np.ndarray, digits: int) -> "ValueList":
        """The values ``units[i] * 10**-digits``, for nonnegative integer
        ``units``, none of them built yet."""
        k, scale = len(units), 10**digits
        units = _unit_array(units)
        if units.dtype == np.int64 and digits <= 22 and (abs(units) < 2**53).all():
            floats = units / float(scale)  # exact operands: one correctly rounded division
        else:
            floats = np.fromiter(map(_float, units.tolist(), itertools.repeat(scale)), dtype=float, count=k)
        return cls(floats, None, np.empty(k, dtype=object), (units, digits))

    def __len__(self) -> int:
        return len(self.floats)

    def __getitem__(self, i: int) -> Fraction:
        v = self._exact[i]
        if v is None:
            if self.cells is None:
                units, digits = self._units
                v = Fraction(int(units[i]), 10**digits) if digits else Fraction(int(units[i]))  # no gcd
            else:
                v = to_fraction(self.cells[i])
            self._exact[i] = v
        return v

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def take(self, ids: np.ndarray | slice) -> "ValueList":
        """The values at ``ids``, in that order, with the ones built so far;
        a slice shares them, so a value built in either list is built in both."""
        units = None if self._units is None else (self._units[0][ids], self._units[1])
        cells = None if self.cells is None else self.cells[ids]
        return ValueList(self.floats[ids], cells, self._exact[ids], units, self._plain, self.spelled)

    def texts(self) -> list[str | None]:
        """Each value's source spelling: on a ``spelled`` list, a positive
        value's text cell; else None."""
        if not self.spelled:
            return [None] * len(self)
        signs = self.signs().tolist()
        return [c if s > 0 and isinstance(c, str) else None for c, s in zip(self.cells.tolist(), signs)]

    def units(self) -> tuple[np.ndarray, int] | None:
        """Each value as an integer count of 10**-digits, and digits; None
        where the list does not know them.

        Plain text ``digits[.digits]`` is N * 10**-d, d the most fraction
        digits of any cell. Where d <= 15 and every N < 10**15 < 2**50,
        ``rint(float(text) * 10.0**d)`` is exactly N: `float` rounds
        correctly, and the two roundings err by less than N * 2**-52 < 1/2.
        Rounding is monotone, so an N >= 10**15 gives a product >= 1e15.
        """
        if self._units is not None or not self._plain:
            return self._units
        fractions = map(operator.itemgetter(2), map(str.partition, self.cells.tolist(), itertools.repeat(".")))
        digits = max(map(len, fractions), default=0)
        if digits > 15:
            return None
        scaled = self.floats * float(10**digits)
        if not (scaled < 1e15).all():  # an infinite float too
            return None
        return np.rint(scaled).astype(np.int64), digits

    def apart(self, a: np.ndarray, b: np.ndarray, epsilon: Fraction) -> np.ndarray:
        """Whether values ``a[k]`` and ``b[k]`` differ by more than
        ``epsilon``, as a bool array: one vectorised comparison on the
        :meth:`units` where the list knows them, else exact differences.

        A gap of g units exceeds epsilon = p/q exactly when g * q > p *
        10**digits, that is when g > (p * 10**digits) // q, as g is an
        integer: int64 units are compared with that bound in int64, and
        units beyond int64 as Python ints.
        """
        units = self.units()
        if units is None:
            exact = (abs(self[x] - self[y]) > epsilon for x, y in zip(a.tolist(), b.tolist()))
            return np.fromiter(exact, dtype=bool, count=len(a))
        units, digits = units
        gaps = abs(units[a] - units[b])
        bound = epsilon.numerator * 10**digits // epsilon.denominator
        if units.dtype == np.int64 and bound > _INT64_MAX:  # every int64 gap is within epsilon
            return np.zeros(len(gaps), dtype=bool)
        return gaps > bound

    def signs(self) -> np.ndarray:
        """Each value's exact sign (-1, 0 or 1) as int8; only values whose
        float is 0 are built to tell zero from a tiny nonzero value."""
        signs = np.sign(self.floats).astype(np.int8)
        for i in np.flatnonzero(self.floats == 0).tolist():
            num = self[i].numerator
            signs[i] = (num > 0) - (num < 0)
        return signs


def _denotes(text, value: Fraction | int) -> bool:
    """Whether ``text`` is text that :func:`parse_decimal` reads as ``value``."""
    try:
        return isinstance(text, str) and parse_decimal(text) == value
    except ParseError:
        return False


def _unit_array(units: Sequence[int] | np.ndarray) -> np.ndarray:
    """Integer units as an int64 array, or as Python ints in an object
    array where one is beyond int64."""
    try:
        return np.array(units, dtype=np.int64)
    except OverflowError:
        return np.fromiter(units, dtype=object, count=len(units))


def _tie_runs(ordered: np.ndarray) -> list[tuple[int, int]]:
    """The runs ``[start, stop)`` of two or more equal entries in a sorted array."""
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return []
    edges = np.flatnonzero(np.diff(same.astype(np.int8), prepend=0, append=0))
    return list(zip(edges[::2].tolist(), (edges[1::2] + 1).tolist()))


def _order(values: ValueList) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Positions of ``values`` sorted by float, runs of equal floats sorted
    exactly (reading only their values), and the runs ``[start, stop)``.
    Equal values stay in increasing position: a run is put in position
    order before the stable exact sort."""
    order = np.argsort(values.floats)
    ties = _tie_runs(values.floats[order])
    for start, stop in ties:
        order[start:stop] = sorted(sorted(order[start:stop].tolist()), key=values.__getitem__)
    return order, ties


def group_values(values: ValueList, epsilon: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """Collapse near-equal values and assign ranks.

    ``values`` must be distinct. Sorted, they are chained into one group
    while consecutive gaps stay <= epsilon; each group is represented by
    its smallest member. Returns the positions of the representatives in
    ``values``, in increasing value, and an int32 array of each value's
    1-based rank (rank 0 is reserved for distance zero). No value is
    hashed: values are sorted by float, and only values whose floats tie
    are read exactly. At a positive ``epsilon`` each gap between neighbours
    is judged by :meth:`ValueList.apart`: on the list's integer units where
    it knows them, else on exact values, all of them built. At epsilon 0,
    values whose floats increase, as :func:`quantize` numbers them, are
    ranked in place.
    """
    floats = values.floats
    if not epsilon and (floats[1:] > floats[:-1]).all():
        return np.arange(len(values)), np.arange(1, len(values) + 1, dtype=np.int32)
    order, _ = _order(values)
    reps = order
    if epsilon:
        starts = np.ones(len(order), dtype=bool)  # where a group starts, in sorted order
        starts[1:] = values.apart(order[1:], order[:-1], epsilon)
        reps = order[starts]
    rank = np.zeros(len(values), dtype=np.int32)
    rank[reps] = 1
    rank[order] = np.cumsum(rank[order])
    return reps, rank


def _first_positions(dense: np.ndarray) -> np.ndarray:
    """Each id's first position in ``dense``, whose ids first appear in
    increasing order: the running maximum steps up exactly there."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(dense), prepend=-1))


# the numbers :func:`to_fraction` reads, the common types first
_REALS = (float, int, Fraction, np.floating, numbers.Integral)


def _readable(cell) -> bool:
    """Whether `float` reads a cell as :func:`to_fraction` orders it."""
    return bool(_PLAIN.fullmatch(cell)) if isinstance(cell, str) else isinstance(cell, _REALS)


def _spellings(cells: Sequence, kinds: set[type]) -> tuple[np.ndarray, list]:
    """Each cell's spelling id, in order of first occurrence, and each
    spelling's first cell: equal cells of one type, ``kinds`` being the
    cells' types, share a spelling; an unhashable cell has its own."""
    if kinds == {Fraction}:  # `Fraction.__hash__` runs in Python; a ratio hashes in C
        keys = map(Fraction.as_integer_ratio, cells)
    elif len(kinds) > 1:  # float 0.1 (1/10) equals Fraction(0.1), another value
        keys = zip(map(type, cells), cells)
    else:
        keys = cells
    spelling_ids = collections.defaultdict(itertools.count().__next__)
    try:
        dense = np.fromiter(map(spelling_ids.__getitem__, keys), dtype=np.int32, count=len(cells))
    except TypeError:  # an unhashable cell
        dense, spelling_ids = np.arange(len(cells), dtype=np.int32), cells
    return dense, (list(spelling_ids) if keys is cells
                   else list(map(cells.__getitem__, _first_positions(dense).tolist())))


def _plain_floats(spellings: list, doc: str | None = None) -> np.ndarray | None:
    """The floats of spellings that are all plain text, ASCII ``digits[.digits]``
    of at most MAX_DIGITS characters, checked at C speed over ``doc``, them
    joined by newlines (built here where not given); None otherwise."""
    try:
        doc = "\n".join(spellings) if doc is None else doc  # TypeError: a spelling that is not text
        data = doc.encode()  # ValueError: a lone surrogate
        if data.translate(None, b"0123456789.\n") or doc.startswith(("\n", ".")) or doc.endswith(("\n", ".")):
            return None
        if len(data) <= MAX_DIGITS:  # and so is every spelling
            bad = any(map(doc.__contains__, ("\n\n", "\n.", ".\n")))
        else:  # a digit on each side of every newline, and no line too long
            raw = np.frombuffer(data, dtype=np.uint8)
            ends = np.flatnonzero(raw == 10)
            bad = ((raw[ends + 1] < 48).any() or (raw[ends - 1] == 46).any()
                   or np.diff(ends, prepend=-1, append=len(data)).max() > MAX_DIGITS + 1)
        # a spelling left with two dots, or a newline inside, fails `float`
        return None if bad else np.fromiter(map(float, spellings), dtype=float, count=len(spellings))
    except (TypeError, ValueError):
        return None


def quantize(cells: Sequence,
             bad: Callable[[int, Exception], None] = lambda p, exc: None) -> tuple[np.ndarray, ValueList]:
    """Give cells of equal value one id, merging and ordering by float.

    A spelling (see :func:`_spellings`) is read with `float` where it is
    plain text, ASCII ``digits[.digits]`` of at most MAX_DIGITS characters,
    or a number :func:`to_fraction` reads. Any other spelling, and one whose
    float is not finite, is read exactly by :func:`to_fraction`, in
    increasing first position p; where that fails with ``exc``,
    ``bad(p, exc)`` returns None, for a cell that is not a finite number
    (id -1), or raises. Spellings whose floats tie are read exactly; every
    other value is built when the returned list is read. Returns an int32
    id per cell and the values, numbered in increasing value, each with
    its first cell.
    """
    # Text, the common case, is guessed from the first cell and confirmed on
    # the spellings, as no number equals text: its cells are not scanned.
    kinds = {str} if cells and type(cells[0]) is str else set(map(type, cells))
    dense, spellings = _spellings(cells, kinds)
    if kinds == {str} and not all(map(isinstance, spellings, itertools.repeat(str))):
        kinds = set(map(type, cells))
        dense, spellings = _spellings(cells, kinds)
    floats = _plain_floats(spellings) if kinds == {str} else None
    return _quantize_spellings(dense, spellings, floats, kinds, bad)


def _quantize_spellings(dense: np.ndarray, spellings: list, floats: np.ndarray | None,
                        kinds: set[type] = frozenset({str}),
                        bad: Callable[[int, Exception], None] = lambda p, exc: None,
                        ) -> tuple[np.ndarray, ValueList]:
    """:func:`quantize` from its cells' spellings: ``dense`` holds each
    cell's spelling id, numbered in order of first occurrence, and
    ``floats`` the spellings' floats where :func:`_plain_floats` accepts
    them all, else None."""
    k = len(spellings)
    plain = floats is not None
    if not plain:
        readable = map(_PLAIN.fullmatch if kinds == {str} else _readable, spellings)  # text: no Python call
        read = np.fromiter(map(bool, readable), dtype=bool, count=k)
        floats = np.full(k, np.nan)  # NaN: no number, sorted last and never tied
        try:
            floats[read] = np.fromiter(map(float, itertools.compress(spellings, read)), dtype=float)
        except OverflowError:  # an int or Fraction beyond the float range: convert it alone
            floats[read] = list(map(_float_or_nan, itertools.compress(spellings, read)))
    # object arrays filled item by item: numpy never reads a sequence cell as a row
    listed = ValueList(floats, np.fromiter(spellings, dtype=object, count=k), np.empty(k, dtype=object),
                       plain=plain)
    first = np.arange(k)  # each spelling's first spelling of equal value; -1: no number
    if not np.isfinite(floats).all():
        position = _first_positions(dense)
        for s in np.flatnonzero(~np.isfinite(floats)).tolist():
            try:
                floats[s] = _float(listed[s])
            except (ValueError, TypeError, ParseError) as exc:
                bad(int(position[s]), exc)
                first[s], floats[s] = -1, np.nan
    order, ties = _order(listed)
    # equal values lie in one run of tied floats, in increasing spelling id
    for start, stop in ties:
        for a, b in itertools.pairwise(order[start:stop].tolist()):
            if listed[a] == listed[b]:
                first[b] = first[a]
    reps = order[(first == np.arange(k))[order]]  # each value's first spelling, by value
    value_id = np.full(k + 1, -1, dtype=np.int32)  # the extra entry serves first == -1
    value_id[reps] = np.arange(len(reps), dtype=np.int32)
    return value_id[first][dense], listed.take(reps)
