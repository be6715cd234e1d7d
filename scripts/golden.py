"""Golden corpus: the exact bytes the command line writes for fixed inputs.

Each case runs one command through ``ultrabase.cli.main`` in the
directory ``tests/data/golden/inputs``, so reports name their input by a
fixed relative path. The corpus holds the inputs, ``cases.json`` (each
case's name, argv, exit code, the file a case reads as stdin if any (an
input, or an earlier case's stdout), and the files under ``expected/``
that hold its stdout and stderr, where non-empty; cases with equal output
share one file).
``tests/test_golden.py`` reruns every case and compares bytes.

Inputs are seeded ``bench/gen.py`` dendrograms of 8 and 36 points, a
36-point random dissimilarity, coordinate tables cut from the dendrograms'
own cells, and copies of the 36-point documents with one odd feature
each: a BOM, CRLF line ends, spaces, blank lines, other spellings of the
same values, bad tokens, ragged rows and bad point labels. The 36-point
dendrogram also gives the tables of a landmark generator that is not a
basis and of a set that is not a generator; the generator's table with
a landmark's row dropped and, twice, with one cell changed; and a copy of its CSV
with one cell and its mirror raised, so that one triangle breaks. Eight
more copies of that CSV are read by ``validate`` and ``--json``: four the
plain-document reader rejects by their separators (a tab inside a field, a
``+`` sign, quotes, one comma moved to the next row) and four that fail
the cell checks (a nonzero diagonal, a zero pair, an asymmetric pair, and
a pair asymmetric only within the ``--epsilon`` it is also validated
with). Five copies of the dissimilarity are read by ``validate`` and
``--json``: one spells a mirrored pair ``x.5`` and ``x.50``, and the others
spell it with a leading dot, a trailing dot, two dots or 16 characters.
A coordinate table with a trailing comma is reconstructed. ``coords
--auto --epsilon 0.001`` runs on the dendrogram copy and the tree that
are valid only within that epsilon, the first one's table is
reconstructed from stdin, and so is the ``coords --auto`` table of the
copy spelled in ratios. The
36-point documents are above the size where the CSV readers try their
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
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden"
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))  # the corpus is this checkout's output
import gen  # noqa: E402  (stdlib + numpy only; it does not import ultrabase)
import numpy as np  # noqa: E402


def _cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _join(rows: list[list[str]], end: str = "\n") -> str:
    return end.join(map(",".join, rows)) + end


def _coordinates(case: gen.Case, landmarks: list[str]) -> str:
    """The ``label,s1,...`` table of a case's cells in the landmark columns."""
    header, *body = _cells(case.text)
    cols = [header.index(s) for s in landmarks]
    return _join([["label", *landmarks], *([lab, *(row[c] for c in cols)] for lab, row in zip(header, body))])


def _generator(case: gen.Case) -> list[str]:
    """A metric generator that is not a basis: the first basis and three
    more points, in a shuffled order."""
    rest = [lab for lab in case.labels if lab not in case.first_basis]
    landmarks = case.first_basis + rest[:3]
    random.Random("golden:generator").shuffle(landmarks)
    return landmarks


def _respelled(rows: list[list[str]], spell) -> list[list[str]]:
    """A copy of distance rows with cell (1, 2) of the body and its mirror spelled ``spell(token)``."""
    rows = [list(r) for r in rows]
    for i, j in ((2, 2), (3, 1)):  # body rows start at row 1; cell (i - 1, j)
        rows[i][j] = spell(rows[i][j])
    return rows


def _raised(case: gen.Case) -> str:
    """The case's CSV with the first pair (i, j), row-major, raised to the
    next larger height that leaves exactly one third point z below it;
    the triangle (i, j, z) is then the only one broken."""
    codes = case.codes
    for i, j in zip(*np.triu_indices(case.n, 1)):
        for higher in range(codes[i, j] + 1, len(case.values)):
            if ((codes[i] < higher) & (codes[j] < higher)).sum() == 3:  # i, j and z
                raised = codes.copy()
                raised[i, j] = raised[j, i] = higher
                return gen._csv(case.labels, [gen._spell(v) for v in case.values], raised)
    raise AssertionError("no pair of the case has a single witness")


def _changed(rows: list[list[str]], i: int, j: int, token: str) -> list[list[str]]:
    """A copy of table rows with cell (i, j) spelled ``token``."""
    rows = [list(r) for r in rows]
    rows[i][j] = token
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
        "dendro36_generator.csv": _coordinates(large, _generator(large)),
        "dendro36_nongenerator.csv": _coordinates(large, large.first_basis[:-1]),
        "dendro36_raised.csv": _raised(large),
    }
    generator = _cells(docs["dendro36_generator.csv"])
    landmark_row = next(k for k, row in enumerate(generator) if row[0] == generator[0][1])
    smallest = min((cell for row in generator[1:] for cell in row[1:] if cell != "0"), key=float)
    docs.update({
        "dendro36_missing_row.csv": _join(generator[:landmark_row] + generator[landmark_row + 1:]),
        # the pair rule breaks a triangle; the pair rule gives a space whose landmark columns differ
        "dendro36_inconsistent.csv": _join(_changed(generator, 1, 3, generator[2][3])),
        "dendro36_mismatch.csv": _join(_changed(generator, 1, 1, smallest)),
    })
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
        # near-plain documents the plain reader rejects by their separators
        "dendro36_tab.csv": _join(_changed(rows, 2, 3, rows[2][3][:2] + "\t" + rows[2][3][2:])),
        "dendro36_plus.csv": _join(_respelled(rows, lambda t: "+" + t)),
        "dendro36_quote.csv": _join(_respelled(rows, lambda t: f'"{t}"')),
        "dendro36_comma_moved.csv": _join([*rows[:5], [*rows[5][:-2], rows[5][-2] + rows[5][-1]],
                                           [rows[6][0][:2], rows[6][0][2:], *rows[6][1:]], *rows[7:]]),
        # plain documents that fail the cell checks: a diagonal, a zero pair, asymmetry
        "dendro36_diagonal.csv": _join(_changed(rows, 4, 3, "1")),
        "dendro36_zero_pair.csv": _join(_changed(_changed(rows, 2, 2, "0"), 3, 1, "0")),
        "dendro36_asymmetric.csv": _join(_changed(rows, 2, 2, rows[2][4])),
        "dendro36_within_epsilon.csv": _join(_changed(rows, 2, 2, rows[2][2] + "5")),
    })
    rows = _cells(noisy.text)
    whole = rows[2][2].partition(".")[0]
    docs.update({
        # near-plain copies of the dissimilarity: one value spelled two ways, and four bad spellings
        "dissimilarity36_respelled.csv": _join(_changed(_changed(rows, 2, 2, whole + ".5"), 3, 1, whole + ".50")),
        "dissimilarity36_leading_dot.csv": _join(_respelled(rows, lambda t: "." + t.partition(".")[2])),
        "dissimilarity36_trailing_dot.csv": _join(_respelled(rows, lambda t: t.partition(".")[0] + ".")),
        "dissimilarity36_two_dots.csv": _join(_respelled(rows, lambda t: t + ".5")),
        "dissimilarity36_digits16.csv": _join(_respelled(rows, lambda t: t.ljust(16, "0"))),
    })
    table = _cells(docs["dendro36_all.csv"])
    docs.update({
        "coords_crlf.csv": _join(table, "\r\n"),
        "coords_padded_label.csv": _join([*table[:3], [f" {table[3][0]} ", *table[3][1:]], *table[4:]]),
        "coords_empty_label.csv": _join([*table[:3], ["", *table[3][1:]], *table[4:]]),
        "coords_duplicate_label.csv": _join([*table[:3], [table[2][0], *table[3][1:]], *table[4:]]),
        "coords_trailing_comma.csv": _join([*table[:3], [*table[3], ""], *table[4:]]),
    })
    docs.update(_trees())
    return docs


def _trees() -> dict[str, str]:
    """The Newick inputs by file name."""
    docs = {}
    for kind, make in (("tree", gen.random_tree_case), ("caterpillar", gen.caterpillar_case)):
        for n in (8, 36):
            docs[f"{kind}{n}.nwk"] = make(random.Random(f"golden:{kind}{n}"), n).text
    # one leaf's length 0.0005 longer: equidistant within --epsilon 0.001 only
    docs["tree8_within_epsilon.nwk"] = re.sub(r"(t\d+:\d+)", r"\g<1>.0005", docs["tree8.nwk"], count=1)
    c = "2000000000000000000000000000003/6000000000000000000000000000000"  # 2c and 2/3 share a float
    e = "3999999999999999999999999999997/6000000000000000000000000000000"  # 1 - c
    docs.update({
        "leaf_height.nwk": "((A:0,B:0):1,C:1);\n",
        "newick_missing_length.nwk": "((A:1,B):1,C:2);\n",
        "newick_unbalanced.nwk": "((A:1,B:1):1,C:2;\n",
        "newick_trailing.nwk": "((A:1,B:1):1,C:2);x\n",
        "newick_negative.nwk": "((A:1,B:-1):1,C:2);\n",
        "float_collision.nwk": f"((A:1/3,B:1/3):2/3,(C:{c},D:{c}):{e});\n",
    })
    return docs


def _cases(docs: dict[str, str]) -> list[tuple]:
    """Each case's name, argv and, for a case that reads stdin, the input fed to it."""
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
    generator = _cells(docs["dendro36_generator.csv"])[0][1:]
    nongenerator = _cells(docs["dendro36_nongenerator.csv"])[0][1:]
    cases += [
        ("dendro36.coords_generator", ["coords", "dendro36.csv", "--landmarks", ",".join(generator)]),
        ("dendro36.coords_nongenerator", ["coords", "dendro36.csv", "--landmarks", ",".join(nongenerator)]),
        ("dendro36_generator.reconstruct_stdin", ["reconstruct", "-"], "dendro36_generator.csv"),
        ("dendro8.validate_json_stdin", ["validate", "-", "--format", "csv", "--json"], "dendro8.csv"),
    ]
    cases += [(f"dendro36_{kind}.reconstruct", ["reconstruct", f"dendro36_{kind}.csv"])
              for kind in ("generator", "nongenerator", "missing_row", "inconsistent", "mismatch")]
    cases += [("dendro36_raised.validate", ["validate", "dendro36_raised.csv"]),
              ("dendro36_raised.validate_json", ["validate", "dendro36_raised.csv", "--json"])]
    for name in docs:
        stem = name.removesuffix(".csv")
        if name.startswith("coords_"):
            cases.append((f"{stem}.reconstruct", ["reconstruct", name]))
        elif name.endswith(".csv") and not name.startswith(("dendro", "dissimilarity")):
            cases += [(f"{stem}.validate_json", ["validate", name, "--json"]),
                      (f"{stem}.coords_auto", ["coords", name, "--auto"])]
    for kind in ("tab", "plus", "quote", "comma_moved", "diagonal", "zero_pair", "asymmetric", "within_epsilon"):
        cases += [(f"dendro36_{kind}.validate", ["validate", f"dendro36_{kind}.csv"]),
                  (f"dendro36_{kind}.validate_json", ["validate", f"dendro36_{kind}.csv", "--json"])]
    for kind in ("respelled", "leading_dot", "trailing_dot", "two_dots", "digits16"):
        cases += [(f"dissimilarity36_{kind}.validate", ["validate", f"dissimilarity36_{kind}.csv"]),
                  (f"dissimilarity36_{kind}.validate_json", ["validate", f"dissimilarity36_{kind}.csv", "--json"])]
    cases += [
        ("dendro36_within_epsilon.validate_epsilon",
         ["validate", "dendro36_within_epsilon.csv", "--epsilon", "0.001"]),
        ("dendro36_within_epsilon.coords_auto_epsilon",
         ["coords", "dendro36_within_epsilon.csv", "--auto", "--epsilon", "0.001"]),
        ("dendro36_within_epsilon.coords_auto_epsilon_reconstruct", ["reconstruct", "-"],
         "dendro36_within_epsilon.coords_auto_epsilon"),
        ("ratio.coords_auto_reconstruct", ["reconstruct", "-"], "ratio.coords_auto"),
    ]
    for stem in ("tree8", "tree36", "caterpillar8", "caterpillar36"):
        name = f"{stem}.nwk"
        cases += [
            (f"{stem}.validate", ["validate", name]),
            (f"{stem}.validate_json", ["validate", name, "--json"]),
            (f"{stem}.analyze", ["analyze", name]),
            (f"{stem}.analyze_json", ["analyze", name, "--json"]),
            (f"{stem}.coords_auto", ["coords", name, "--auto"]),
            (f"{stem}.coords_auto_reconstruct", ["reconstruct", "-"], f"{stem}.coords_auto"),
        ]
    cases += [
        ("tree8_within_epsilon.validate", ["validate", "tree8_within_epsilon.nwk"]),
        ("tree8_within_epsilon.validate_epsilon", ["validate", "tree8_within_epsilon.nwk", "--epsilon", "0.001"]),
        ("tree8_within_epsilon.analyze_json_epsilon",
         ["analyze", "tree8_within_epsilon.nwk", "--json", "--epsilon", "0.001"]),
        ("tree8_within_epsilon.coords_auto_epsilon",
         ["coords", "tree8_within_epsilon.nwk", "--auto", "--epsilon", "0.001"]),
        ("leaf_height.validate", ["validate", "leaf_height.nwk"]),
        ("tree36.analyze_max_bases_0", ["analyze", "tree36.nwk", "--max-bases", "0"]),
        ("tree36.analyze_max_bases_3", ["analyze", "tree36.nwk", "--max-bases", "3"]),
        ("tree36.analyze_json_max_bases_3", ["analyze", "tree36.nwk", "--json", "--max-bases", "3"]),
        ("oracle_check", ["oracle-check", "--n", "6", "--seeds", "3"]),
        ("oracle_check_json", ["oracle-check", "--n", "6", "--seeds", "3", "--json"]),
        ("float_collision.coords_auto_epsilon_0", ["coords", "float_collision.nwk", "--auto", "--epsilon", "0"]),
    ]
    cases += [(f"newick_{kind}.validate", ["validate", f"newick_{kind}.nwk"])
              for kind in ("missing_length", "unbalanced", "trailing", "negative")]
    return cases


def stdin_of(data: bytes) -> io.TextIOWrapper:
    """A text stream over bytes, decoded as a console's stdin is."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run_case(argv: list[str], stdin: bytes | None = None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command run in the current
    directory, with ``stdin`` as its standard input."""
    from ultrabase import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    try:
        if stdin is not None:
            sys.stdin = stdin_of(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def build() -> dict[str, bytes]:
    """Every corpus file, by path relative to the corpus directory."""
    docs = _inputs()
    files = {f"inputs/{name}": text.encode() for name, text in docs.items()}
    manifest = []
    shared: dict[str, str] = {}  # output text -> its file
    stdout_of: dict[str, str] = {}  # case name -> its stdout file
    cwd = os.getcwd()
    saved = os.environ.pop("ULTRABASE_MAX_BASES", None)
    try:
        os.chdir(CORPUS / "inputs")
        for name, argv, *stdin in _cases(docs):
            # stdin names an input, or an earlier case whose stdout it reads
            source = stdin and (f"inputs/{stdin[0]}" if stdin[0] in docs else stdout_of[stdin[0]])
            code, out, err = run_case(argv, files[source] if source else None)
            case = {"name": name, "argv": argv, "exit": code}
            if source:
                case["stdin"] = source
            for key, suffix, text in (("stdout", ".out", out), ("stderr", ".err", err)):
                if text:  # cases with equal output share its file
                    case[key] = shared.setdefault(text, f"expected/{name}{suffix}")
                    files[case[key]] = text.encode()
            if out:
                stdout_of[name] = case["stdout"]
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
