import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultrabase import (
    build_space,
    parse_distance_csv,
    reciprocal_min_space,
    uniform_space,
    write_distance_csv,
)
from ultrabase import cli
from ultrabase.cli import main
from ultrabase.values import format_value, ratio_text

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (stdlib + numpy only)


@pytest.fixture
def recmin_csv(tmp_path):
    path = tmp_path / "recmin4.csv"
    path.write_text(write_distance_csv(reciprocal_min_space(4)))
    return path


@pytest.fixture
def bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,1,3\n1,0,1\n3,1,0\n")
    return path


def test_validate_ok(recmin_csv, capsys):
    assert main(["validate", str(recmin_csv)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "4 points" in out


def test_validate_violation_exits_1(bad_csv, capsys):
    assert main(["validate", str(bad_csv)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "d(a,c)=3" in out


def test_validate_json_report(bad_csv, capsys):
    assert main(["validate", str(bad_csv), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["command"] == "validate"
    assert report["result"]["valid"] is False
    assert report["result"]["violations"][0]["kind"] == "triangle"
    assert len(report["input"]["sha256"]) == 64


def test_input_is_hashed_only_for_a_json_report(recmin_csv, tmp_path, monkeypatch, capsys):
    import hashlib

    text = "\ufeff" + recmin_csv.read_text()
    recmin_csv.write_text(text)  # the hash is of the text as read, BOM included
    hashed = []
    real = hashlib.sha256
    monkeypatch.setattr(cli.hashlib, "sha256", lambda data: hashed.append(data) or real(data))
    for argv in (["validate", str(recmin_csv)], ["analyze", str(recmin_csv)]):
        assert main(argv) == 0
    capsys.readouterr()
    assert main(["coords", str(recmin_csv), "--auto"]) == 0
    coords = tmp_path / "coords.csv"
    coords.write_text(capsys.readouterr().out)
    assert main(["reconstruct", str(coords)]) == 0
    assert hashed == []
    for command in ("validate", "analyze"):
        capsys.readouterr()
        assert main([command, str(recmin_csv), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["sha256"] == real(text.encode()).hexdigest()
    assert len(hashed) == 2


def test_input_hash_reads_universal_newlines_and_keeps_a_bom(recmin_csv, tmp_path, capsys, monkeypatch):
    import hashlib

    lf = recmin_csv.read_bytes()
    copies = {"lf": lf, "crlf": lf.replace(b"\n", b"\r\n"), "cr": lf.replace(b"\n", b"\r"),
              "bom": b"\xef\xbb\xbf" + lf}
    hashes = {}
    for name, data in copies.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        assert main(["validate", str(path), "--json"]) == 0
        hashes[name] = json.loads(capsys.readouterr().out)["input"]["sha256"]
    assert hashes["lf"] == hashes["crlf"] == hashes["cr"] == hashlib.sha256(lf).hexdigest()
    assert hashes["crlf"] != hashlib.sha256(copies["crlf"]).hexdigest()
    assert hashes["bom"] == hashlib.sha256(copies["bom"]).hexdigest() != hashes["lf"]
    # stdin too, though a POSIX console's stdin splits lines at LF alone
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(copies["crlf"]), encoding="utf-8", newline="\n"))
    assert main(["validate", "-", "--format", "csv", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["sha256"] == hashes["lf"]


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_extension_needs_format_flag(tmp_path, capsys):
    path = tmp_path / "matrix.data"
    path.write_text(write_distance_csv(uniform_space(3)))
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(path), "--format", "csv"]) == 0


def test_stdin_input(recmin_csv, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(recmin_csv.read_text()))
    assert main(["validate", "-", "--format", "csv"]) == 0
    assert "<stdin>" in capsys.readouterr().out


def test_bad_epsilon_is_a_usage_error(recmin_csv, capsys):
    assert main(["validate", str(recmin_csv), "--epsilon", "abc"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--epsilon" in err
    assert "Traceback" not in err


def test_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch):
    import io

    raw = b"\xff\xfea,b\n0,1\n1,0\n"
    path = tmp_path / "utf16.csv"
    path.write_bytes(raw)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "UTF-8" in err

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    assert main(["validate", "-", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "<stdin>" in err

    # stdin as Python's UTF-8 mode (a C or POSIX locale) opens it: bad bytes would
    # decode to lone surrogates, which no hash or report can encode
    for argv, data in ((["validate", "-", "--format", "csv", "--json"], b"a,b\n0,1\n1,0\xff\n"),
                       (["analyze", "-", "--format", "csv", "--json"], b"a,b\xff\n0,1\n1,0\n")):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: cannot read <stdin>: not valid UTF-8\n"


def test_leading_bom_is_stripped(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b,c\n0,1,2\n1,0,2\n2,2,0\n")
    assert main(["analyze", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["labels"] == ["a", "b", "c"]
    assert result["partner_classes"] == [["a", "b"]]


def test_huge_exponent_is_a_usage_error(tmp_path, capsys):
    # the value is rejected at parsing; printing it raised a ValueError traceback
    csv = tmp_path / "huge.csv"
    csv.write_text("a,b,c\n0,1e5000,1\n1e5000,0,1\n1,1,0\n")
    assert main(["validate", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "more than 4000 digits (line 2)" in err and "Traceback" not in err
    tree = tmp_path / "huge.nwk"
    tree.write_text("(a:1e5000,b:1e5000);")
    assert main(["coords", str(tree), "--auto"]) == 2
    err = capsys.readouterr().err
    assert "invalid branch length '1e5000'" in err and "Traceback" not in err


@pytest.mark.parametrize("small", [
    f"1/{2**13000}",  # its decimal expansion has 13000 digits
    f"1/{3 * 2**1100}",  # its float underflows to 0
], ids=["long-expansion", "float-underflow"])
def test_violation_with_a_tiny_value_prints_its_fraction(tmp_path, capsys, small):
    path = tmp_path / "tiny.csv"
    path.write_text(f"a,b,c\n0,{small},1\n{small},0,{small}\n1,{small},0\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"d(a,c)=1 > max(d(a,b)={small}, d(b,c)={small})" in captured.out
    assert "Traceback" not in captured.err
    assert main(["validate", str(path), "--json"]) == 1
    values = json.loads(capsys.readouterr().out)["result"]["violations"][0]["values"]
    assert values == ["1", small, small]


def test_violation_with_a_huge_value_prints_its_fraction(tmp_path, capsys):
    huge = f"{10**400}/3"  # its float overflows
    path = tmp_path / "huge.csv"
    path.write_text(f"a,b,c\n0,1,{huge}\n1,0,1\n{huge},1,0\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"d(a,c)={huge} > max(d(a,b)=1, d(b,c)=1)" in captured.out
    assert "Traceback" not in captured.err


def test_fraction_longer_than_str_prints(tmp_path, capsys):
    # depth(a) = 1/A + 1/B has a 7410-digit denominator, more than `str` prints at once
    a, b = 3 * 2**13000, 7 * 5**5000
    path = tmp_path / "deep.nwk"
    path.write_text(f"((a:1/{a},b:1/{a}):1/{b},c:1/11);")
    assert main(["validate", str(path), "--epsilon", "0"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    numerator, denominator = captured.out.split("path sums ")[1].split(" (a)")[0].split("/")
    assert len(denominator) == 7410
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert F(int(numerator), int(denominator)) == F(1, a) + F(1, b)
    finally:
        sys.set_int_max_str_digits(limit)
    assert ratio_text(F(-1, 10**5000)) == "-1/1" + "0" * 5000


def test_unprintable_values_round_trip_as_fractions(tmp_path, capsys):
    values = [F(1, 2**13000), F(1, 3 * 2**1100), F(10**400, 3)]
    space = build_space(["a", "b", "c", "d"], [
        [0, values[0], values[1], values[2]],
        [values[0], 0, values[1], values[2]],
        [values[1], values[1], 0, values[2]],
        [values[2], values[2], values[2], 0],
    ])
    text = write_distance_csv(space)
    assert text.splitlines()[1] == f"0,1/{2**13000},1/{3 * 2**1100},{10**400}/3"
    assert parse_distance_csv(text) == space
    path = tmp_path / "space.csv"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert main(["coords", str(path), "--auto"]) == 0
    table = tmp_path / "coords.csv"
    table.write_text(capsys.readouterr().out)
    assert main(["reconstruct", str(table)]) == 0
    assert capsys.readouterr().out == text


def test_validate_deep_caterpillar_newick(tmp_path, capsys):
    n = 2000
    text = "A0:1"
    for i in range(1, n):
        text = f"({text},A{i}:{i}):1"
    path = tmp_path / "caterpillar.nwk"
    path.write_text(text.rsplit(":", 1)[0] + ";\n")
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"OK: {path} is an ultrametric space ({n} points, {n - 1} distinct")
    assert captured.err == ""


def test_analyze_human(recmin_csv, capsys):
    assert main(["analyze", str(recmin_csv)]) == 0
    out = capsys.readouterr().out
    assert "dim1: 1, dim2: 2" in out
    assert "{3,4}" in out


def test_analyze_json_is_deterministic(recmin_csv, capsys):
    assert main(["analyze", str(recmin_csv), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", str(recmin_csv), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second

    report = json.loads(first)
    result = report["result"]
    assert result["dim1"] == 1 and result["dim2"] == 2 and result["max_k"] == 2
    assert result["partner_classes"] == [["3", "4"]]
    assert result["two_metric_basis"] == ["3", "4"]
    assert result["basis_count"] == 2
    assert result["bases"] == [["3"], ["4"]]


def test_analyze_newick(tmp_path, capsys):
    path = tmp_path / "tree.nwk"
    path.write_text((DATA / "balanced4.nwk").read_text())
    assert main(["analyze", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["dim1"] == 2 and result["dim2"] == 4
    assert result["basis_count"] == 4


def test_analyze_max_bases_flag(tmp_path, capsys):
    path = tmp_path / "u6.csv"
    path.write_text(write_distance_csv(uniform_space(6)))
    assert main(["analyze", str(path), "--json", "--max-bases", "2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["basis_count"] == 6
    assert len(result["bases"]) == 2
    assert result["bases_truncated"] is True


def test_analyze_max_bases_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "u6.csv"
    path.write_text(write_distance_csv(uniform_space(6)))
    monkeypatch.setenv("ULTRABASE_MAX_BASES", "3")
    assert main(["analyze", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert len(result["bases"]) == 3

    monkeypatch.setenv("ULTRABASE_MAX_BASES", "1")  # the variable replaces the default, not the flag
    assert main(["analyze", str(path), "--json", "--max-bases", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["bases"]) == 3

    monkeypatch.setenv("ULTRABASE_MAX_BASES", "junk")
    assert main(["analyze", str(path), "--json"]) == 2


def test_analyze_negative_max_bases_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "u6.csv"
    path.write_text(write_distance_csv(uniform_space(6)))
    monkeypatch.delenv("ULTRABASE_MAX_BASES", raising=False)
    assert main(["analyze", str(path), "--max-bases", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --max-bases must be nonnegative, got -1\n"

    monkeypatch.setenv("ULTRABASE_MAX_BASES", "-1")
    assert main(["analyze", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ULTRABASE_MAX_BASES must be nonnegative, got -1\n"
    assert main(["analyze", str(path), "--max-bases", "0"]) == 0  # the flag wins over the variable
    assert "metric bases (6 total, showing first 0):" in capsys.readouterr().out


def test_coords_and_reconstruct_roundtrip(recmin_csv, tmp_path, capsys):
    assert main(["coords", str(recmin_csv), "--landmarks", "3"]) == 0
    coords_text = capsys.readouterr().out
    assert coords_text.splitlines()[0] == "label,3"

    table_path = tmp_path / "coords.csv"
    table_path.write_text(coords_text)
    assert main(["reconstruct", str(table_path)]) == 0
    assert capsys.readouterr().out == recmin_csv.read_text()


def test_coords_auto(tmp_path, capsys):
    path = tmp_path / "u3.csv"
    path.write_text(write_distance_csv(uniform_space(3)))
    assert main(["coords", str(path), "--auto"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "label,1,2"  # lexicographically first basis


def test_coords_warns_on_non_generator(tmp_path, capsys):
    path = tmp_path / "u3.csv"
    path.write_text(write_distance_csv(uniform_space(3)))
    assert main(["coords", str(path), "--landmarks", "1"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "(2,3)" in captured.err
    assert captured.out.splitlines()[0] == "label,1"


def test_coords_unknown_landmark_exits_2(recmin_csv, capsys):
    assert main(["coords", str(recmin_csv), "--landmarks", "99"]) == 2
    assert "unknown point label" in capsys.readouterr().err


def test_coords_requires_selection(recmin_csv, capsys):
    assert main(["coords", str(recmin_csv)]) == 2
    assert main(["coords", str(recmin_csv), "--landmarks", " , "]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: empty landmark list"


def test_reconstruct_duplicate_rows_exits_1(tmp_path, capsys):
    table_path = tmp_path / "dup.csv"
    table_path.write_text("label,s\ns,0\na,1\nb,1\n")
    assert main(["reconstruct", str(table_path)]) == 1
    assert "identical coordinates" in capsys.readouterr().err


def test_reconstruct_two_point_table(tmp_path, capsys):
    table_path = tmp_path / "two.csv"
    table_path.write_text("label,a\na,0\nb,3\n")
    assert main(["reconstruct", str(table_path)]) == 0
    assert capsys.readouterr().out == "a,b\n0,3\n3,0\n"


def test_coords_reconstruct_preserves_spellings(tmp_path, capsys):
    # noncanonical decimal spellings survive the whole pipeline byte-for-byte
    text = (DATA / "recmin4_6dec.csv").read_text()
    src = tmp_path / "m.csv"
    src.write_text(text)
    assert main(["coords", str(src), "--landmarks", "3", "--epsilon", "1e-9"]) == 0
    table_path = tmp_path / "t.csv"
    table_path.write_text(capsys.readouterr().out)
    assert main(["reconstruct", str(table_path)]) == 0
    assert capsys.readouterr().out == text


def test_oracle_check(capsys):
    assert main(["oracle-check", "--n", "6", "--seeds", "3"]) == 0
    assert "all passed" in capsys.readouterr().out

    assert main(["oracle-check", "--n", "20"]) == 2
    assert "capped" in capsys.readouterr().err

    assert main(["oracle-check", "--n", "1"]) == 2
    assert capsys.readouterr().err == "error: need n >= 2, seeds >= 1, values >= 1\n"


def test_oracle_check_json(capsys):
    assert main(["oracle-check", "--n", "2", "--seeds", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["all_passed"] is True
    assert report["result"]["spaces_checked"] == 1


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


CSV, NWK = str(DATA / "balanced4.csv"), str(DATA / "balanced4.nwk")
SEQUENCE = [
    ["validate", CSV, "--json"],
    ["validate", CSV],
    ["analyze", CSV, "--max-bases", "1"],
    ["analyze", CSV],
    ["coords", CSV, "--landmarks", "A,C"],
    ["coords", CSV, "--auto"],
    ["coords", CSV],  # neither flag: exit 2
    ["coords", CSV, "--auto", "--landmarks", "A"],  # both flags: exit 2
    ["validate", CSV, "--epsilon", "-1"],  # exit 2
    ["validate", CSV, "--epsilon", "0.5"],
    ["--version"],
    ["no-such-command"],
    ["analyze", NWK, "--json"],
]


def test_repeated_main_calls_share_no_state(capsys, monkeypatch):
    monkeypatch.delenv("ULTRABASE_MAX_BASES", raising=False)

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    fresh = {}
    for argv in SEQUENCE:
        cli._parser.cache_clear()
        fresh[tuple(argv)] = run(argv)
    assert [fresh[tuple(argv)][0] for argv in SEQUENCE] == [0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 2, 0]

    cli._parser.cache_clear()
    for argv in SEQUENCE + SEQUENCE[::-1]:
        assert run(argv) == fresh[tuple(argv)], argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser()
    per_build = len(built)
    assert per_build > 1  # the top-level parser and one per command

    built.clear()
    cli._parser.cache_clear()
    for argv in (SEQUENCE * 2)[:20]:
        main(argv)
    capsys.readouterr()
    assert len(built) == per_build
    assert cli.build_parser() is not cli.build_parser()


def test_module_entry_point(recmin_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "ultrabase", "validate", str(recmin_csv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="address-space limits are Linux's")
def test_out_of_memory_exits_2(tmp_path):
    resource = pytest.importorskip("resource")
    # equidistant only within epsilon, so its n x n int64 units are built: 488 MiB
    n = 8000
    path = tmp_path / "caterpillar.nwk"
    path.write_text("(" * (n - 1) + "A0:1.000000000001" + "".join(f",A{i}:{i}):1" for i in range(1, n - 1))
                    + f",A{n - 1}:{n - 1});\n")
    limit = 250 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "ultrabase", "validate", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),  # the child only
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


NUMBERS = ["1", "2", "3", "0.5", "1/2", "5e-1", "+.5", "1.", "1_0", "0.50", "1e-400", "1e400",
           f"1/{2**13000}", f"{10**400}/3", f"1/{3 * 2**1100}"]
ODD_TOKENS = ["0", "-1", "", " ", "x", "nan", "inf", "1/0", "0x1", "٣", "1e5000",
              "1e999999999999", "\ufeff1", "1,5"]
numbers = st.sampled_from(NUMBERS)
any_tokens = st.sampled_from(NUMBERS * 3 + ODD_TOKENS)
odd_names = st.sampled_from(["a", "", "a b", "x\x01", "\ufeffa", "é", "(", ":"])
noise = st.sampled_from([False] * 4 + [True])


@st.composite
def near_csv(draw):
    """A distance CSV: often symmetric with a zero diagonal, sometimes with odd parts."""
    n = draw(st.integers(1, 5))
    tokens = any_tokens if draw(noise) else numbers
    rows = [[draw(tokens) for _ in range(n)] for _ in range(n)]
    if not draw(noise):
        for i in range(n):
            rows[i][i] = "0"
            for j in range(i):
                rows[i][j] = rows[j][i]
    labels = [draw(odd_names) if draw(noise) else chr(97 + i) for i in range(n)]
    lines = [",".join(labels)] + [",".join(r) for r in rows]
    if draw(noise):
        i = draw(st.integers(0, n))
        lines[i] = draw(st.sampled_from([lines[i] + ",1", lines[i].rpartition(",")[0], ""]))
    return "\n".join(lines)


@st.composite
def near_newick(draw):
    """An equidistant Newick tree, with some lengths and labels from the odd pools."""
    leaves = iter(range(1000))

    def subtree(depth):
        """Text and height of a subtree; a leaf has height 0."""
        if depth >= 3 or draw(st.booleans()):
            return (draw(odd_names) if draw(noise) else f"L{next(leaves)}"), 0
        children = [subtree(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        height = max(h for _, h in children) + 1
        parts = [t + ":" + (draw(any_tokens) if draw(noise) else str(height - h)) for t, h in children]
        return "(" + ",".join(parts) + ")" + draw(st.sampled_from(["", "x"])), height

    return subtree(0)[0] + draw(st.sampled_from([";", ";", ";", "", ";x", ":1;"]))


@st.composite
def near_coordinates(draw):
    """A coordinate CSV over some of its own points as landmarks."""
    n = draw(st.integers(0, 5))
    points = [draw(odd_names) if draw(noise) else f"p{i}" for i in range(n)]
    landmarks = draw(st.lists(st.sampled_from(points or ["p0"]), min_size=1, max_size=3))
    header = "label," + ",".join(landmarks)
    tokens = any_tokens if draw(noise) else numbers
    rows = [p + "," + ",".join("0" if p == s and not draw(noise) else draw(tokens) for s in landmarks)
            for p in points]
    return "\n".join([header, *rows])


@st.composite
def mutated(draw, texts):
    """Text with up to two characters deleted or inserted."""
    text = draw(texts)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(list("(),:;./e-\n"))) + text[i:]
    return text.encode()


fuzz_cases = st.one_of(
    st.tuples(st.binary(max_size=120), st.sampled_from(
        [["validate", "--format", "csv"], ["analyze", "--json", "--format", "newick"], ["reconstruct"]])),
    st.tuples(mutated(near_csv()), st.sampled_from(
        [["validate", "--format", "csv"], ["analyze", "--json", "--format", "csv"],
         ["validate", "--format", "csv", "--epsilon", "0.5"]])),
    st.tuples(mutated(near_newick()), st.sampled_from(
        [["validate", "--format", "newick"], ["analyze", "--json", "--format", "newick"]])),
    st.tuples(mutated(near_coordinates()), st.just(["reconstruct"])),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=300, deadline=None)
@given(fuzz_cases)
def test_any_input_exits_0_1_or_2_without_a_traceback(fuzz_path, case):
    data, (command, *flags) = case
    fuzz_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(fuzz_path), *flags])  # an uncaught exception fails the test
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def exact_reads(monkeypatch):
    """The values `ValueList.__getitem__` returns from now on, each built
    or read exactly."""
    from ultrabase.values import ValueList

    reads, getitem = [], ValueList.__getitem__

    def spy(self, i):
        reads.append(getitem(self, i))
        return reads[-1]

    monkeypatch.setattr(ValueList, "__getitem__", spy)
    return reads


def test_an_equidistant_tree_is_validated_and_analyzed_without_an_exact_value(tmp_path, capsys, monkeypatch):
    """The lengths in hundredths, then in thirds: integer units of 1/100 or 1/3."""
    text = gen.random_tree_case(random.Random("exact reads"), 200).text
    path = tmp_path / "tree.nwk"
    reads = exact_reads(monkeypatch)
    for spell in (lambda m: format_value(F(m, 100)), lambda m: f"{m}/3"):
        path.write_text(re.sub(r":(\d+)", lambda m: ":" + spell(int(m.group(1))), text))
        assert main(["validate", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert "ultrametric space (200 points" in out and json.loads(out[out.index("{"):])["result"]["n"] == 200
        assert reads == []


def test_a_plain_dendrogram_reads_no_positive_value_exactly(tmp_path, capsys, monkeypatch):
    csv = DATA / "golden" / "inputs" / "dendro36.csv"
    table = tmp_path / "coordinates.csv"
    reads = exact_reads(monkeypatch)
    assert main(["validate", str(csv)]) == 0
    assert main(["analyze", str(csv), "--json"]) == 0
    capsys.readouterr()
    assert main(["coords", str(csv), "--auto"]) == 0
    table.write_text(capsys.readouterr().out)
    assert main(["reconstruct", str(table)]) == 0
    assert capsys.readouterr().out == csv.read_text()
    assert reads and not any(reads)  # the zero alone, to tell it from a tiny value


def test_the_ci_twin_of_a_dissimilarity_takes_the_general_csv_path(capsys, monkeypatch):
    """The CI step's twin: a CRLF copy without its last line end, which the
    plain reader declines and reading with universal newlines keeps."""
    import ultrabase.ingest as ingest

    lf = gen.dissimilarity_case(random.Random(1), 200).text.encode()
    twin = lf.replace(b"\n", b"\r\n")[:-2]
    plain_rows, outcomes, reports = ingest._plain_rows, [], []
    monkeypatch.setattr(ingest, "_plain_rows", lambda *a, **kw: outcomes.append(plain_rows(*a, **kw)) or outcomes[-1])
    for data in (lf, twin):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["validate", "-", "--format", "csv", "--json"]) == 1
        reports.append(json.loads(capsys.readouterr().out))
        reports[-1]["input"].pop("sha256")
    assert outcomes[0] is not None and outcomes[1:] == [None]
    assert reports[0] == reports[1]
