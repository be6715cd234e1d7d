"""Tiny-size smoke test of the benchmark itself.

Run from the repository root: python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"dendro-csv": 24, "newick-trees": 20, "small-spaces": 0, "noisy-dissimilarity": 16}
ADDED_BY_RUN = {"peak_rss_mb"}  # measured when the worker process ends


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_without_errors(tmp_path, name, trace):
    result = worker.run_workload(name, 3, 0, trace, tmp_path, size=TINY[name])
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    missing = {m["name"] for m in declared} - ADDED_BY_RUN - set(result["metrics"])
    assert not missing


@pytest.mark.parametrize("seed", range(5))
def test_tree_truth_matches_the_definition(seed):
    rng = random.Random(seed)
    for case in (gen.dendrogram_case(rng, 30, 4), gen.small_case(rng), gen.random_tree_case(rng, 25),
                 gen.caterpillar_case(rng, 12), gen.perturbed_case(rng, 20, 3)):
        codes = case.codes
        if not case.valid:  # the truth given is that of the subdominant repair
            assert gen.has_violation(codes)
            codes = checks.subdominant_codes(codes)
        assert gen.classes_from_codes(codes, case.labels) == case.classes


def test_run_prints_the_declared_metrics():
    cmd = [sys.executable, "bench/run.py", "--workload", "small-spaces", "--seed", "1", "--seconds", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True).stdout
    line = json.loads(out.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert "error_rate           0 ratio" in out
