"""Golden corpus: the exact bytes the command line writes for fixed inputs.

Each case runs one command through ``ultrabase.cli.main`` in the
directory ``tests/data/golden/inputs``, so reports name their input by a
fixed relative path. The corpus holds the inputs, ``cases.json`` (each
case's name, argv, exit code and the files under ``expected/`` that hold
its stdout and stderr, where non-empty; cases with equal output share
one file). ``tests/test_golden.py`` reruns every case and compares bytes.

Inputs are seeded ``bench/gen.py`` dendrograms of 8 and 36 points, a
36-point random dissimilarity, coordinate tables cut from the dendrograms'
own cells, and copies of the 36-point documents with one odd feature
each: a BOM, CRLF line ends, spaces, blank lines, other spellings of the
same values, bad tokens, ragged rows and bad point labels. The 36-point
documents are above the size where the CSV readers try their
plain-document path, the 8-point ones below it.

Usage, from the repository root::

    python scripts/golden.py          # rewrite the corpus from this checkout
    python scripts/golden.py --check  # exit 1, naming each file that differs
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden"
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (stdlib + numpy only; it does not import ultrabase)


def _cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _join(rows: list[list[str]], end: str = "\n") -> str:
    return end.join(map(",".join, rows)) + end


def _coordinates(case: gen.Case, landmarks: list[str]) -> str:
    """The ``label,s1,...`` table of a case's cells in the landmark columns."""
    header, *body = _cells(case.text)
    cols = [header.index(s) for s in landmarks]
    return _join([["label", *landmarks], *([lab, *(row[c] for c in cols)] for lab, row in zip(header, body))])


def _respelled(rows: list[list[str]], spell) -> list[list[str]]:
    """A copy of distance rows with cell (1, 2) of the body and its mirror spelled ``spell(token)``."""
    rows = [list(r) for r in rows]
    for i, j in ((2, 2), (3, 1)):  # body rows start at row 1; cell (i - 1, j)
        rows[i][j] = spell(rows[i][j])
    return rows


def _ratio(token: str) -> str:
    """The n/d spelling of a plain decimal token."""
    whole, _, frac = token.partition(".")
    return f"{whole}{frac}/1{'0' * len(frac)}"


def _inputs() -> dict[str, str]:
    """Every input document by file name."""
    small = gen.dendrogram_case(random.Random("golden:8"), 8, 4)
    large = gen.dendrogram_case(random.Random("golden:36"), 36, 8)
    noisy = gen.dissimilarity_case(random.Random("golden:dissimilarity"), 36)
    docs = {
        "dendro8.csv": small.text,
        "dendro36.csv": large.text,
        "dissimilarity36.csv": noisy.text,
        "dendro8_basis.csv": _coordinates(small, small.first_basis),
        "dendro36_basis.csv": _coordinates(large, large.first_basis),
        "dendro36_all.csv": _coordinates(large, large.labels),
    }
    rows = _cells(large.text)
    docs.update({
        "bom.csv": "\ufeff" + large.text,
        "crlf.csv": _join(rows, "\r\n"),
        "spaces.csv": _join(_respelled(rows, lambda t: f" {t} ")),
        "blank_lines.csv": large.text.replace("\n", "\n\n", 3) + "\n",
        "no_final_newline.csv": large.text[:-1],
        "leading_zeros.csv": _join(_respelled(rows, lambda t: "00" + t)),
        "trailing_zeros.csv": _join(_respelled(rows, lambda t: t + ("0" if "." in t else ".000"))),
        "digits15.csv": _join(_respelled(rows, lambda t: (t if "." in t else t + ".").ljust(15, "0"))),
        "digits16.csv": _join(_respelled(rows, lambda t: (t if "." in t else t + ".").ljust(16, "0"))),
        "ratio.csv": _join(_respelled(rows, _ratio)),
        "exponent.csv": _join(_respelled(rows, lambda t: "1e3")),
        "trailing_dot.csv": _join(_respelled(rows, lambda t: "1.")),
        "leading_dot.csv": _join(_respelled(rows, lambda t: ".5")),
        "two_dots.csv": _join(_respelled(rows, lambda t: "1.2.3")),
        "empty_field.csv": _join(_respelled(rows, lambda t: "")),
        "ragged.csv": _join([*rows[:5], rows[5][:-1], *rows[6:]]),
    })
    table = _cells(docs["dendro36_all.csv"])
    docs.update({
        "coords_crlf.csv": _join(table, "\r\n"),
        "coords_padded_label.csv": _join([*table[:3], [f" {table[3][0]} ", *table[3][1:]], *table[4:]]),
        "coords_empty_label.csv": _join([*table[:3], ["", *table[3][1:]], *table[4:]]),
        "coords_duplicate_label.csv": _join([*table[:3], [table[2][0], *table[3][1:]], *table[4:]]),
    })
    return docs


def _cases(docs: dict[str, str]) -> list[tuple[str, list[str]]]:
    """Each case's name and argv."""
    cases = []
    for stem in ("dendro8", "dendro36"):
        name = f"{stem}.csv"
        cases += [
            (f"{stem}.validate", ["validate", name]),
            (f"{stem}.validate_json", ["validate", name, "--json"]),
            (f"{stem}.validate_epsilon", ["validate", name, "--epsilon", "5"]),
            (f"{stem}.analyze", ["analyze", name]),
            (f"{stem}.analyze_json", ["analyze", name, "--json"]),
            (f"{stem}.coords_auto", ["coords", name, "--auto"]),
            (f"{stem}.reconstruct_basis", ["reconstruct", f"{stem}_basis.csv"]),
        ]
    cases += [
        ("dendro8.analyze_json_epsilon", ["analyze", "dendro8.csv", "--json", "--epsilon", "5"]),
        ("dendro36.reconstruct_all", ["reconstruct", "dendro36_all.csv"]),
        ("dissimilarity36.validate", ["validate", "dissimilarity36.csv"]),
        ("dissimilarity36.validate_json", ["validate", "dissimilarity36.csv", "--json"]),
        ("dissimilarity36.validate_epsilon", ["validate", "dissimilarity36.csv", "--epsilon", "0.001"]),
    ]
    for name in docs:
        stem = name.removesuffix(".csv")
        if name.startswith("coords_"):
            cases.append((f"{stem}.reconstruct", ["reconstruct", name]))
        elif not name.startswith(("dendro", "dissimilarity")):
            cases += [(f"{stem}.validate_json", ["validate", name, "--json"]),
                      (f"{stem}.coords_auto", ["coords", name, "--auto"])]
    return cases


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command run in the current directory."""
    from ultrabase import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build() -> dict[str, bytes]:
    """Every corpus file, by path relative to the corpus directory."""
    docs = _inputs()
    files = {f"inputs/{name}": text.encode() for name, text in docs.items()}
    manifest = []
    shared: dict[str, str] = {}  # output text -> its file
    cwd = os.getcwd()
    saved = os.environ.pop("ULTRABASE_MAX_BASES", None)
    try:
        os.chdir(CORPUS / "inputs")
        for name, argv in _cases(docs):
            code, out, err = run_case(argv)
            case = {"name": name, "argv": argv, "exit": code}
            for key, suffix, text in (("stdout", ".out", out), ("stderr", ".err", err)):
                if text:  # cases with equal output share its file
                    case[key] = shared.setdefault(text, f"expected/{name}{suffix}")
                    files[case[key]] = text.encode()
            manifest.append(case)
    finally:
        os.chdir(cwd)
        if saved is not None:
            os.environ["ULTRABASE_MAX_BASES"] = saved
    files["cases.json"] = ("[\n" + ",\n".join(map(json.dumps, manifest)) + "\n]\n").encode()
    return files


def _existing() -> dict[str, bytes]:
    return {p.relative_to(CORPUS).as_posix(): p.read_bytes() for p in CORPUS.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the corpus instead of writing it")
    check = parser.parse_args(argv).check
    (CORPUS / "inputs").mkdir(parents=True, exist_ok=True)
    if check:
        # the commands read the stored inputs; regenerated ones are compared as files
        expected = _existing()
        built = build()
        differ = sorted(p for p in expected.keys() | built.keys() if expected.get(p) != built.get(p))
        for path in differ:
            print(f"differs: {path}")
        return 1 if differ else 0
    for name, text in _inputs().items():
        (CORPUS / "inputs" / name).write_bytes(text.encode())
    files = build()
    for path in _existing().keys() - files.keys():
        (CORPUS / path).unlink()
    for path, data in files.items():
        (CORPUS / path).parent.mkdir(parents=True, exist_ok=True)
        (CORPUS / path).write_bytes(data)
    print(f"{len(files)} files, {sum(map(len, files.values()))} bytes in {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
