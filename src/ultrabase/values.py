"""Exact distance values: parsing, quantization, canonical formatting, epsilon grouping.

All distances are `fractions.Fraction` internally, so equality tests are
exact. Decimal text maps to the exact rational it denotes ("0.50" and
"0.5" are the same value). Floats are converted through their repr, i.e.
the shortest decimal that round-trips, which keeps ingestion deterministic.

Ingestion orders values by float and builds a `Fraction` only for a value
something reads. :func:`quantize_tokens` reads a plain decimal token
(ASCII ``digits[.digits]``) with `float`, which rounds correctly and so
orders tokens as their exact values do; a token is parsed exactly up
front only where floats tie or the spelling is not plain. Values come as
a :class:`ValueList`: each value's float, and its exact value built when
a distance table, a witness, a sign test at float 0 or an epsilon
comparison first reads it. Cells that are not all text are converted
once per distinct cell (:func:`quantize`). From there on, work is on
integer value ids.
"""

from __future__ import annotations

import collections
import itertools
import math
import re
from fractions import Fraction
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import ParseError

Numeric = Fraction | int | float | str

MAX_DIGITS = 4000  # bound on a parsed value's numerator and denominator
_DIGIT_LIMIT = 10**MAX_DIGITS


def to_fraction(value: Numeric) -> Fraction:
    """Convert a number-like value to an exact Fraction.

    Floats go through repr so that 0.1 becomes 1/10, not the underlying
    binary expansion; NaN and infinities are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite value {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        return parse_decimal(value)
    raise TypeError(f"cannot interpret {value!r} as a distance value")


def parse_decimal(token: str) -> Fraction:
    """Parse a decimal token ("1", "0.25", "2.5e-3") to an exact Fraction.

    A value whose reduced numerator or denominator has more than
    MAX_DIGITS decimal digits is rejected. `Fraction` would build the
    power of ten an exponent asks for, so a token that is out of bounds
    by its exponent alone is rejected from its text.
    """
    text = token.strip()
    # ASCII digits[.digits] within the bound: the ratio is read off the text
    whole, dot, frac = text.partition(".")
    if len(text) <= MAX_DIGITS and text.isascii() and whole.isdigit() and (
        not dot or frac.isdigit()
    ):
        return Fraction(int(whole + frac), 10 ** len(frac))
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


def _float(value: Fraction) -> float:
    """The float nearest ``value``, or an infinity beyond the float range.

    Rounding is monotone, so of two values the one with the larger float
    is the larger; only equal floats need the exact comparison.
    """
    try:
        return value.numerator / value.denominator
    except OverflowError:
        return math.inf if value.numerator > 0 else -math.inf


class ValueList:
    """Distinct values by id: each value's float up front, and its exact
    `Fraction`, built by ``make(i)`` when first read and then kept.

    ``floats[i]`` is the float nearest value i, or an infinity beyond the
    float range (see :func:`_float`), so floats order the values up to
    ties. ``exact[i]`` holds the values already built, None elsewhere.
    """

    __slots__ = ("floats", "_exact", "_make")

    def __init__(self, floats: np.ndarray, exact: list[Fraction | None],
                 make: Callable[[int], Fraction] | None = None):
        self.floats = floats
        self._exact = exact
        self._make = make

    @classmethod
    def of(cls, values: Sequence[Fraction]) -> "ValueList":
        """The list of values already built."""
        values = list(values)
        return cls(np.array([_float(v) for v in values], dtype=float), values)

    def __len__(self) -> int:
        return len(self._exact)

    def __getitem__(self, i: int) -> Fraction:
        v = self._exact[i]
        if v is None:
            v = self._exact[i] = self._make(i)
        return v

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def take(self, ids: np.ndarray) -> "ValueList":
        """The values at ``ids``, in that order, each still built when first read."""
        ids = ids.tolist()
        return ValueList(self.floats[ids], list(map(self._exact.__getitem__, ids)),
                         lambda j: self[ids[j]])

    def signs(self) -> np.ndarray:
        """Each value's exact sign (-1, 0 or 1) as int8; only values whose
        float is 0 are built to tell zero from a tiny nonzero value."""
        signs = np.sign(self.floats).astype(np.int8)
        for i in np.flatnonzero(self.floats == 0).tolist():
            num = self[i].numerator
            signs[i] = (num > 0) - (num < 0)
        return signs


def _tie_runs(ordered: np.ndarray) -> list[tuple[int, int]]:
    """The runs ``[start, stop)`` of two or more equal entries in a sorted array."""
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return []
    edges = np.flatnonzero(np.diff(same.astype(np.int8), prepend=0, append=0))
    return list(zip(edges[::2].tolist(), (edges[1::2] + 1).tolist()))


def _order(values: ValueList) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Positions of ``values`` sorted by float, runs of equal floats sorted
    exactly (reading only their values), and the runs ``[start, stop)``."""
    order = np.argsort(values.floats, kind="stable")
    ties = _tie_runs(values.floats[order])
    for start, stop in ties:
        order[start:stop] = sorted(order[start:stop].tolist(), key=values.__getitem__)
    return order, ties


def group_values(values: Sequence[Fraction | int] | ValueList, epsilon: Fraction) -> tuple[list[int], np.ndarray]:
    """Collapse near-equal values and assign ranks.

    ``values`` must be distinct. Sorted, they are chained into one group
    while consecutive gaps stay <= epsilon; each group is represented by
    its smallest member. Returns the positions of the representatives in
    ``values``, in increasing value, and an int32 array of each value's
    1-based rank (rank 0 is reserved for distance zero). No value is
    hashed: values are sorted by float, and only values whose floats tie
    are read exactly, or all of them when ``epsilon`` is positive.
    """
    if not isinstance(values, ValueList):
        values = ValueList.of(values)
    order, _ = _order(values)
    if not epsilon:
        reps = order.tolist()
    else:
        reps = order[:1].tolist()
        for a, b in itertools.pairwise(order.tolist()):
            if values[b] - values[a] > epsilon:
                reps.append(b)
    rank = np.zeros(len(values), dtype=np.int32)
    rank[reps] = 1
    rank[order] = np.cumsum(rank[order])
    return reps, rank


def quantize(
    keys: Sequence[Hashable], convert: Callable[[int], Fraction | None]
) -> tuple[np.ndarray, ValueList]:
    """Convert each distinct key once and give keys of equal value one id.

    ``convert(p)`` returns the exact value of ``keys[p]``, or None when the
    key is not a finite number (its id is then -1). It is called once per
    distinct key, at the key's first position, in increasing position, so
    an exception it raises concerns the earliest offending key. Returns an
    int32 id per key and the distinct values, numbered in order of first
    occurrence. Values are told apart by their reduced numerator and
    denominator, so no `Fraction` is hashed.
    """
    index = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    dense = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    slots: dict[int | tuple[int, int], int] = {}
    values: list[Fraction] = []
    remap = []
    for p in _first_positions(dense).tolist():
        v = convert(p)
        if v is None:
            remap.append(-1)
            continue
        # Key on the numerator, an int the value already holds; a value that
        # shares it with an earlier, different value is keyed on its ratio.
        key = v.numerator
        if key in slots and values[slots[key]] != v:
            key = v.as_integer_ratio()
        slot = slots.setdefault(key, len(values))
        if slot == len(values):
            values.append(v)
        remap.append(slot)
    return np.array(remap, dtype=np.int32)[dense], ValueList.of(values)


def _first_positions(dense: np.ndarray) -> np.ndarray:
    """Each id's first position in ``dense``, whose ids first appear in
    increasing order: the running maximum steps up exactly there."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(dense), prepend=-1))


# ASCII digits[.digits] of at most MAX_DIGITS characters
_PLAIN = re.compile(rf"(?=.{{1,{MAX_DIGITS}}}\Z)[0-9]+(?:\.[0-9]+)?")


def quantize_tokens(
    tokens: Sequence[str], convert: Callable[[int], Fraction | None]
) -> tuple[np.ndarray, ValueList]:
    """:func:`quantize` for decimal text, merging and ordering by float.

    Each distinct spelling gets an id in order of first occurrence. A
    plain spelling, ASCII ``digits[.digits]`` of at most MAX_DIGITS
    characters, is read with `float`, which rounds correctly and so
    orders like its exact value. Any other spelling goes to ``convert(p)``
    at its first position p, in increasing position, as in
    :func:`quantize`. Spellings whose floats tie are parsed with
    :func:`parse_decimal` to merge equal values and order the rest; every
    other plain value is parsed only when the returned list is read.
    Returns an int32 id per token (-1 where ``convert`` gave None), the
    values numbered in order of first occurrence, and the values.
    """
    spelling_ids = collections.defaultdict(itertools.count().__next__)
    dense = np.fromiter(map(spelling_ids.__getitem__, tokens), dtype=np.int32, count=len(tokens))
    spellings = list(spelling_ids)
    k = len(spellings)
    plain = np.fromiter(map(bool, map(_PLAIN.fullmatch, spellings)), dtype=bool, count=k)
    floats = np.full(k, np.nan)  # NaN: no number, sorted last and never tied
    floats[plain] = np.fromiter(map(float, itertools.compress(spellings, plain)), dtype=float)
    exact: list[Fraction | None] = [None] * k
    first = np.arange(k)  # each spelling's first spelling of equal value; -1: no number
    if not plain.all():
        position = _first_positions(dense)
        for s in np.flatnonzero(~plain).tolist():
            v = exact[s] = convert(int(position[s]))
            if v is None:
                first[s] = -1
            else:
                floats[s] = _float(v)
    spelled = ValueList(floats, exact, lambda s: parse_decimal(spellings[s]))
    order, ties = _order(spelled)
    # equal values lie in one run of tied floats, in increasing spelling id
    for start, stop in ties:
        for a, b in itertools.pairwise(order[start:stop].tolist()):
            if spelled[a] == spelled[b]:
                first[b] = first[a]
    reps = np.flatnonzero(first == np.arange(k))
    value_id = np.full(k + 1, -1, dtype=np.int32)  # the extra entry serves first == -1
    value_id[reps] = np.arange(len(reps), dtype=np.int32)
    reps = reps.tolist()
    built = list(map(exact.__getitem__, reps))  # a value of several spellings is built
    return value_id[first][dense], ValueList(floats[reps], built,
                                             lambda v: parse_decimal(spellings[reps[v]]))
