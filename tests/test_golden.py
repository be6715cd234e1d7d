"""Every golden case gives the stored stdout, stderr and exit code byte for byte.

The corpus under ``tests/data/golden`` is written by ``scripts/golden.py``;
a change to an expected file is a change to the program's output.
"""

import json
import sys
from pathlib import Path

import pytest

from ultrabase import cli

CORPUS = Path(__file__).resolve().parent / "data" / "golden"
sys.path.insert(0, str(CORPUS.parents[2] / "scripts"))
import golden  # noqa: E402

CASES = json.loads((CORPUS / "cases.json").read_text())


def _expected(case, key):
    return (CORPUS / case[key]).read_bytes().decode() if key in case else ""


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, monkeypatch, capsys):
    monkeypatch.chdir(CORPUS / "inputs")
    monkeypatch.delenv("ULTRABASE_MAX_BASES", raising=False)
    if "stdin" in case:
        monkeypatch.setattr(sys, "stdin", golden.stdin_of((CORPUS / case["stdin"]).read_bytes()))
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], _expected(case, "stdout"), _expected(case, "stderr"))


def test_corpus_has_no_stray_files():
    used = {"cases.json"} | {c[key] for c in CASES for key in ("stdout", "stderr") if key in c}
    inputs = {f"inputs/{arg}" for c in CASES for arg in c["argv"] if (CORPUS / "inputs" / arg).is_file()}
    files = {p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*") if p.is_file()}
    assert files == used | inputs | {c["stdin"] for c in CASES if "stdin" in c}


def test_corpus_inputs_match_the_script():
    stored = {p.name: p.read_bytes() for p in (CORPUS / "inputs").iterdir()}
    assert stored == {name: text.encode() for name, text in golden._inputs().items()}
