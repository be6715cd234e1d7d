"""Exact distance values: parsing, quantization, canonical formatting, epsilon grouping.

All distances are `fractions.Fraction` internally, so equality tests are
exact. Decimal text maps to the exact rational it denotes ("0.50" and
"0.5" are the same value). Floats are converted through their repr, i.e.
the shortest decimal that round-trips, which keeps ingestion deterministic.
Ingestion converts each distinct cell once (:func:`quantize`) and works on
integer value ids from there on.
"""

from __future__ import annotations

import itertools
import math
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
    twos = (den & -den).bit_length() - 1  # trailing zero bits
    fives = _strip_factor(den >> twos, 5)
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


def _strip_factor(n: int, p: int) -> int:
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def _float(value: Fraction) -> float:
    """The float nearest ``value``, or an infinity beyond the float range.

    Rounding is monotone, so of two values the one with the larger float
    is the larger; only equal floats need the exact comparison.
    """
    try:
        return value.numerator / value.denominator
    except OverflowError:
        return math.inf if value.numerator > 0 else -math.inf


def group_values(values: Sequence[Fraction], epsilon: Fraction) -> tuple[list[int], np.ndarray]:
    """Collapse near-equal values and assign ranks.

    ``values`` must be distinct. Sorted, they are chained into one group
    while consecutive gaps stay <= epsilon; each group is represented by
    its smallest member. Returns the positions of the representatives in
    ``values``, in increasing value, and an int32 array of each value's
    1-based rank (rank 0 is reserved for distance zero). No value is
    hashed: values are sorted by float, and only when two floats tie is
    the order settled exactly.
    """
    floats = np.array([_float(v) for v in values])
    order = np.argsort(floats, kind="stable")
    ordered = floats[order]
    order = order.tolist()
    if (ordered[1:] == ordered[:-1]).any():
        order.sort(key=lambda i: (floats[i], values[i]))
    if not epsilon:
        reps = order
    else:
        reps = order[:1]
        for a, b in itertools.pairwise(order):
            if values[b] - values[a] > epsilon:
                reps.append(b)
    rank = np.zeros(len(values), dtype=np.int32)
    rank[reps] = 1
    rank[order] = np.cumsum(rank[order])
    return reps, rank


def quantize(
    keys: Sequence[Hashable], convert: Callable[[int], Fraction | None]
) -> tuple[np.ndarray, list[Fraction]]:
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
    # dense ids first appear in increasing order, so the running maximum
    # steps up exactly at each key's first position
    starts = np.flatnonzero(np.diff(np.maximum.accumulate(dense), prepend=-1))
    slots: dict[int | tuple[int, int], int] = {}
    values: list[Fraction] = []
    remap = []
    for p in starts.tolist():
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
    return np.array(remap, dtype=np.int32)[dense], values
