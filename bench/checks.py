"""Output checks against the generator's truth.

Each check raises :class:`Mismatch` with a short reason; the caller counts
it as a failed operation. Values are compared exactly, as fractions, so a
change of decimal spelling is not a failure but a change of value is.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from gen import Case, has_violation

try:
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform
except ImportError:  # the fallback check below needs numpy only
    linkage = None


class Mismatch(Exception):
    """An output that disagrees with the truth."""


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


class Codec:
    """Maps decimal tokens to codes into a sorted value list, memoised per spelling."""

    def __init__(self, values: list[Fraction]):
        self.code_of = {v: c for c, v in enumerate(values)}
        self.memo: dict[str, int] = {}

    def code(self, token: str) -> int:
        code = self.memo.get(token)
        if code is None:
            try:
                code = self.code_of[Fraction(token)]
            except (KeyError, ValueError, ZeroDivisionError):
                raise Mismatch(f"value {token!r} is not a distance of the input") from None
            self.memo[token] = code
        return code


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line.strip()]


def matrix_codes(text: str, labels: list[str], values: list[Fraction]) -> np.ndarray:
    """Codes of a distance CSV whose header must be ``labels``."""
    rows = _rows(text)
    expect(rows[0] == labels, "distance CSV header differs from the expected labels")
    expect(len(rows) == len(labels) + 1, f"distance CSV has {len(rows) - 1} rows, expected {len(labels)}")
    codec = Codec(values)
    return np.array([[codec.code(tok) for tok in row] for row in rows[1:]], dtype=np.int32)


def distance_csv(text: str, labels: list[str], values: list[Fraction], codes: np.ndarray) -> None:
    """The CSV holds exactly the matrix ``values[codes]`` under ``labels``."""
    got = matrix_codes(text, labels, values)
    expect(got.shape == codes.shape and (got == codes).all(), "distance CSV differs from the expected matrix")


def coords(text: str, case: Case) -> None:
    """Coordinate columns equal the input matrix's columns at the first basis."""
    rows = _rows(text)
    basis = case.first_basis
    expect(rows[0] == ["label", *basis], "coordinate header is not the first metric basis")
    expect([r[0] for r in rows[1:]] == case.labels, "coordinate rows are not the input points in order")
    codec = Codec(case.values)
    got = np.array([[codec.code(tok) for tok in row[1:]] for row in rows[1:]], dtype=np.int32)
    cols = [case.labels.index(s) for s in basis]
    expect((got == case.codes[:, cols]).all(), "coordinates differ from the input matrix's landmark columns")


def validate_ok(text: str, case: Case) -> None:
    distinct = len(case.values) - 1
    expect(text.startswith("OK:"), "validate did not report OK")
    expect(f"({case.n} points, {distinct} distinct distances)" in text, "validate reported wrong sizes")


_WITNESS = re.compile(
    r"d\(([^,()]+),([^,()]+)\)=(\S+) > max\(d\(([^,()]+),([^,()]+)\)=(\S+), d\(([^,()]+),([^,()]+)\)=(\S+)\)"
)


def validate_invalid(text: str, case: Case) -> None:
    """Every reported witness violates the strong triangle inequality in the input."""
    lines = text.splitlines()
    expect(lines[0].startswith("INVALID:"), "validate did not report INVALID")
    reported = [line for line in lines[1:] if line.strip() != "- (more violations omitted)"]
    found = [_WITNESS.search(line) for line in reported]
    expect(bool(found) and all(found), "validate reported something other than triangle witnesses")
    found = [m.groups() for m in found]
    index = {lab: i for i, lab in enumerate(case.labels)}
    for x, y, dxy, x2, z, dxz, z2, y2, dzy in found:
        expect((x2, z2, y2) == (x, z, y), f"malformed witness d({x},{y}) via {z}")
        try:
            i, j, k = index[x], index[y], index[z]
        except KeyError as exc:
            raise Mismatch(f"witness names unknown point {exc}") from None
        c = case.codes
        expect(c[i, j] > max(c[i, k], c[k, j]), f"witness ({x},{y},{z}) is not a violation")
        shown = [Fraction(dxy), Fraction(dxz), Fraction(dzy)]
        expect(shown == [case.values[c[i, j]], case.values[c[i, k]], case.values[c[k, j]]],
               f"witness ({x},{y},{z}) shows wrong distances")


def analyze(text: str, labels: list[str], classes: list[tuple[str, ...]]) -> None:
    """Partner classes, dimensions and basis count of ``analyze --json``."""
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError) as exc:
        raise Mismatch(f"analyze output is not a JSON report: {exc}") from None
    expect(result["labels"] == labels, "analyze labels differ from the input")
    expect([tuple(c) for c in result["partner_classes"]] == classes, "partner classes differ")
    expect(result["dim1"] == sum(len(c) - 1 for c in classes), "dim1 differs")
    expect(result["dim2"] == sum(len(c) for c in classes), "dim2 differs")
    expect(result["basis_count"] == math.prod(len(c) for c in classes), "basis_count differs")


def subdominant_codes(codes: np.ndarray) -> np.ndarray | None:
    """Single-linkage cophenetic matrix of the input, or None without scipy.

    Single linkage only compares distances, so running it on the codes is
    exact and the merge heights it returns are codes again.
    """
    if linkage is None:
        return None
    merged = cophenet(linkage(squareform(codes.astype(np.float64), checks=False), method="single"))
    return squareform(merged).astype(np.int32)


def subdominant(text: str, case: Case, truth: np.ndarray | None) -> np.ndarray:
    """Check the repaired CSV; returns its codes for the analyze truth.

    With scipy, it must equal single linkage followed by cophenet. Without,
    it must lie below the input and be an ultrametric, so that closing it
    again changes nothing.
    """
    got = matrix_codes(text, case.labels, case.values)
    expect(got.shape == case.codes.shape, "repaired matrix has the wrong shape")
    if truth is not None:
        expect((got == truth).all(), "repaired matrix differs from single linkage")
        return got
    expect((got <= case.codes).all(), "repaired matrix exceeds the input")
    expect(not has_violation(got), "repaired matrix is not an ultrametric")
    return got
