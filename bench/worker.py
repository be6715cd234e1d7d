"""Runs one workload in this process and prints its measurements as JSON.

Load is a closed loop with one client: each operation starts after the
previous one has returned. CLI commands run in-process through
``ultrabase.cli.main(argv)`` with stdout and stderr captured; library
operations call the public functions. Every output is checked against the
generator's truth; a wrong exit code, a failed check or an exception counts
as a failed operation and never stops the run.

A sample is one round of the workload's input cycle (one input, or one input
of each kind). Timings are averaged over a sample's calls, so a workload that
mixes two kinds of input still yields one steady number per sample.

Untraced runs also time a fixed reference computation (``reference.py``)
between operations. ``relative_space_time`` divides the op time per input of
each stretch of samples by the mean reading of that stretch, which cancels
most of the shared machine's drift in speed.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR
with ``src`` on PYTHONPATH; ``run.py`` starts it that way.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ultrabase as ub
from ultrabase import cli
from ultrabase.ingest import write_distance_csv as untraced_write_distance_csv  # for checks

import checks
import gen
import reference
from spans import LAYERS, Tracer

# Per-input operations; their time is the denominator of spaces_per_s.
PIPELINE_OPS = ("validate", "analyze", "coords", "reconstruct", "subspace", "subdominant", "write")
P90_MIN_CALLS = 100  # so at least ten calls lie beyond the 90th percentile
SETUP_RUNS = 9
REFERENCE_EVERY_S = 0.1  # one reference reading per this much wall time
READINGS_AT_ONCE = 5  # at most this many readings after one operation
STRETCH_S = 1.5  # least time a stretch of samples, divided by its mean reading, spans
SETUP_CODE = (
    "import time; t = time.perf_counter(); import ultrabase.cli as c; c.build_parser(); "
    "print(time.perf_counter() - t)"
)


def measure_setup() -> float:
    """Seconds of ``import ultrabase.cli`` plus ``build_parser()`` in a fresh interpreter.

    The interpreter imports the same ultrabase package as this process.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(ub.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout)


class Runner:
    """Times operations, checks their outputs and counts failures."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.times: dict[str, list[tuple[int, float]]] = {}
        self.busy = 0.0  # seconds spent in PIPELINE_OPS
        self.attempted = 0
        self.failures: list[str] = []
        self.sample = 0
        self.counts: dict[str, float] = {}  # input-derived counts, traced runs only
        self.readings: list[float] | None = None  # reference readings, untraced runs only
        self.last_reading = 0.0

    def count(self, name: str, amount: float) -> None:
        if self.tracer is not None:
            self.counts[name] = self.counts.get(name, 0) + amount

    def fail(self, op: str, case: gen.Case, reason: str) -> None:
        self.attempted += 1
        self.failures.append(f"{op} on {case.kind}: {reason}"[:300])

    def op(self, name: str, case: gen.Case, call: Callable, check: Callable | None = None):
        """Time ``call()``, then ``check(result)``; returns the result, or None on failure."""
        try:
            t0 = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - t0
            self.times.setdefault(name, []).append((self.sample, seconds))
            if name in PIPELINE_OPS:
                self.busy += seconds
            if check is not None:
                check(result)
        except Exception as exc:  # a failed operation is counted, never fatal
            self.fail(name, case, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.read_reference()
        self.attempted += 1
        return result

    def read_reference(self) -> None:
        """Time the reference computation once for each REFERENCE_EVERY_S since the last reading.

        Long operations are thus followed by several readings, so the mean
        reading weighs the machine's speed by the time the workload spends.
        """
        if self.readings is None:
            return
        due = int((time.perf_counter() - self.last_reading) / REFERENCE_EVERY_S)
        if due:
            self.readings += [reference.seconds() for _ in range(min(due, READINGS_AT_ONCE))]
            self.last_reading = time.perf_counter()

    def untimed(self, name: str, case: gen.Case, call: Callable):
        """Preparation for op ``name``; if it raises, that op counts as failed."""
        try:
            return call()
        except Exception as exc:
            self.fail(name, case, f"preparation raised {type(exc).__name__}: {exc}")
            return None

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def cli(self, name: str, case: gen.Case, argv: list[str], expect: int,
            check: Callable[[str], None], document: tuple[str, str] | None = None) -> str | None:
        """One CLI command; returns its stdout when exit code and check pass."""
        if document is not None:
            self.count_document(*document)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    code = self.tracer.call(f"cli.{argv[0]}", cli.main, argv)
            return code, out.getvalue(), err.getvalue()

        def verify(result):
            code, out, err = result
            self.count("cli.errors", code != 0)
            if "--json" in argv:
                self.count("cli.json_bytes", len(out.encode()))
            checks.expect(code == expect, f"exit code {code}, expected {expect}: {err.strip()[:200]}")
            check(out)

        result = self.op(name, case, call, verify)
        return None if result is None else result[1]

    def count_document(self, fmt: str, text: str) -> None:
        """Decimal tokens and bytes of a document the program ingests."""
        if self.tracer is None:
            return
        if fmt == "newick":
            tokens = re.findall(r":\s*([^,();\s]+)", text)
        else:
            rows = [line.split(",") for line in text.splitlines() if line.strip()][1:]
            tokens = [tok for row in rows for tok in (row[1:] if fmt == "coords" else row)]
        self.count("values.tokens", len(tokens))
        self.count("values.distinct_tokens", len(set(tokens)))
        self.count("ingest.bytes_in", len(text.encode()))


def valid_pipeline(r: Runner, case: gen.Case, space, steps: tuple[str, ...]):
    """validate -> analyze --json, then the optional ``coords`` (-> reconstruct) and ``subspace``."""
    path = r.write("input.csv" if case.fmt == "csv" else "input.nwk", case.text)
    doc = (case.fmt, case.text)
    r.cli("validate", case, ["validate", path], 0, lambda out: checks.validate_ok(out, case), doc)
    r.cli("analyze", case, ["analyze", path, "--json"], 0,
          lambda out: checks.analyze(out, case.labels, case.classes), doc)
    r.count("partner.classes", len(case.classes))
    r.count("partner.partnered", case.dim2)

    if "coords" in steps:
        coords = r.cli("coords", case, ["coords", path, "--auto"], 0, lambda out: checks.coords(out, case), doc)
        r.count("basis.landmarks", case.dim1)
        if coords is None:
            r.fail("reconstruct", case, "not run: coords failed")
        else:
            r.count("reconstruct.pairs", case.n * (case.n - 1) // 2)
            r.count("ingest.bytes_out", len(coords.encode()))
            rebuilt = r.cli("reconstruct", case, ["reconstruct", r.write("coords.csv", coords)], 0,
                            lambda out: checks.distance_csv(out, case.labels, case.values, case.codes),
                            ("coords", coords))
            r.count("ingest.bytes_out", len(rebuilt.encode()) if rebuilt else 0)

    if "subspace" in steps:
        if space is None:  # its preparation failed and was counted
            return space
        keep = [i for i, lab in enumerate(case.labels) if any(lab in c for c in case.classes)]
        labels = [case.labels[i] for i in keep]
        sub_codes = case.codes[keep][:, keep]
        r.op("subspace", case, lambda: ub.minimal_subspace(space, case.first_basis),
             lambda sub: checks.distance_csv(untraced_write_distance_csv(sub), labels, case.values, sub_codes))
    return space


def noisy_pipeline(r: Runner, case: gen.Case, _space):
    """validate (exit 1) -> subdominant_ultrametric -> write_distance_csv -> analyze --json."""
    path = r.write("input.csv", case.text)
    r.cli("validate", case, ["validate", path], 1, lambda out: checks.validate_invalid(out, case),
          ("csv", case.text))
    rows = [line.split(",") for line in case.text.splitlines()]
    r.count_document("csv", case.text)
    repaired = r.op("subdominant", case, lambda: ub.subdominant_ultrametric(rows[1:], rows[0]))
    if repaired is None:
        r.fail("write", case, "not run: subdominant failed")
        r.fail("analyze", case, "not run: subdominant failed")
        return None
    truth = checks.subdominant_codes(case.codes)
    repaired_codes = []
    text = r.op("write", case, lambda: ub.write_distance_csv(repaired),
                lambda out: repaired_codes.append(checks.subdominant(out, case, truth)))
    if text is None:
        r.fail("analyze", case, "not run: the repaired CSV failed its check")
        return None
    classes = case.classes or gen.classes_from_codes(repaired_codes[0], case.labels)
    r.count("ingest.bytes_out", len(text.encode()))
    r.count("partner.classes", len(classes))
    r.count("partner.partnered", sum(len(c) for c in classes))
    r.cli("analyze", case, ["analyze", r.write("repaired.csv", text), "--json"], 0,
          lambda out: checks.analyze(out, case.labels, classes), ("csv", text))
    return repaired


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, int], list[gen.Case]]
    size: int  # points per input; small-spaces picks its own
    steps: tuple[str, ...] | None  # valid_pipeline steps; None for the noisy pipeline
    oracle_check: bool = False  # one `oracle-check --n 10` per run

    def pipeline(self, r: Runner, case: gen.Case, space):
        if self.steps is None:
            return noisy_pipeline(r, case, space)
        return valid_pipeline(r, case, space, self.steps)


WORKLOADS = {
    "dendro-csv": Workload(lambda rng, n: [gen.dendrogram_case(rng, n, 8)], 160, ("coords", "subspace")),
    "newick-trees": Workload(
        lambda rng, n: [gen.random_tree_case(rng, n), gen.caterpillar_case(rng, n)], 200, ()),
    "small-spaces": Workload(lambda rng, n: [gen.small_case(rng)], 0, ("coords",), oracle_check=True),
    "noisy-dissimilarity": Workload(
        lambda rng, n: [gen.perturbed_case(rng, n, 8), gen.dissimilarity_case(rng, n)], 120, None),
}


def oracle_check(r: Runner) -> None:
    case = gen.Case("oracle", "none", "", [], [], None, None)
    r.cli("oracle_check", case, ["oracle-check", "--n", "10"], 0,
          lambda out: checks.expect("all passed" in out, "oracle-check did not pass"))


def probes(r: Runner, case: gen.Case, space) -> None:
    """Traced-only calls of public functions the CLI path does not reach."""
    matrix = [[case.values[c] for c in row] for row in case.codes.tolist()]
    report = r.op("validate_ultrametric", case, lambda: ub.validate_ultrametric(matrix, case.labels),
                  lambda rep: checks.expect(rep.ok == case.valid, "validate_ultrametric disagrees with the truth"))
    r.count("core.violations", len(report.violations) if report else 0)
    if space is not None:
        partnered = {lab for c in case.classes or () for lab in c}
        r.op("pseudopartnering_trace", case, lambda: [ub.pseudopartnering_trace(space, x) for x in space.labels],
             lambda traces: checks.expect(not partnered or all(t.terminal in partnered for t in traces),
                                          "a trace ended at an unpartnered point"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, size: int | None = None) -> dict:
    """Run ``name`` for ``seconds`` (at least one sample) and summarise it."""
    wl = WORKLOADS[name]
    n = size or wl.size
    rng = random.Random(f"{name}:{seed}")
    r = Runner(workdir)
    tracer = Tracer()
    layer_samples: list[dict[str, float]] = []
    setup: list[float] = []
    if not trace:
        measure_setup()  # untimed: compiles the bytecode every later start reuses
    cases_done = 0
    # Untraced runs divide each stretch's pipeline seconds per input by the
    # mean of the reference readings taken between its operations.
    relative: list[float] = []
    stretch_busy, stretch_inputs = 0.0, 0
    if not trace:
        r.readings = []
    start = time.perf_counter()
    stretch_start = start
    while r.sample == 0 or time.perf_counter() - start < seconds:
        # Set-up starts are spread over the run, between samples, so they see
        # the same machine as the workload does.
        if not trace and len(setup) < SETUP_RUNS and time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup())
        cases = wl.make(rng, n)
        gc.collect()
        if wl.oracle_check and r.sample == 0:
            oracle_check(r)
        needs_space = trace or "subspace" in (wl.steps or ())
        spaces = [r.untimed("parse", c, lambda c=c: parse_space(c)) if needs_space and c.valid else None
                  for c in cases]
        before = r.busy
        for case, space in zip(cases, spaces):
            wl.pipeline(r, case, space)
        untraced = r.busy - before
        if trace:
            layer_samples.append(traced_sample(r, tracer, wl, cases, spaces, untraced))
        cases_done += len(cases)
        r.sample += 1
        stretch_busy += untraced
        stretch_inputs += len(cases)
        if not trace and time.perf_counter() - stretch_start >= STRETCH_S:
            close_stretch(r, relative, stretch_busy, stretch_inputs)
            stretch_busy, stretch_inputs, stretch_start = 0.0, 0, time.perf_counter()
    result = {
        "workload": name,
        "seed": seed,
        "samples": r.sample,
        "inputs": cases_done,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "failures": r.failures[:10],
    }
    if trace:
        result["metrics"] = layer_metrics(layer_samples)
        result["spans"] = tracer.spans
    else:
        if stretch_inputs:
            close_stretch(r, relative, stretch_busy, stretch_inputs)
        setup += [measure_setup() for _ in range(SETUP_RUNS - len(setup))]
        result["metrics"] = end_to_end_metrics(r, cases_done)
        result["metrics"]["relative_space_time"] = {"value": statistics.median(relative), "unit": "ratio",
                                                    "samples": len(relative)}
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}
    return result


def close_stretch(r: Runner, relative: list[float], busy: float, inputs: int) -> None:
    """Record a stretch's pipeline seconds per input over its mean reference reading."""
    if not r.readings:
        r.readings.append(reference.seconds())
    relative.append(busy / inputs / statistics.fmean(r.readings))
    r.readings = []


def parse_space(case: gen.Case):
    return ub.parse_distance_csv(case.text) if case.fmt == "csv" else ub.parse_newick(case.text)


def traced_sample(r: Runner, tracer: Tracer, wl: Workload, cases, spaces, untraced: float) -> dict[str, float]:
    """Re-run the sample's inputs with spans on; returns the sample's layer numbers."""
    r.counts = {}
    r.tracer = tracer
    tracer.install()
    try:
        tracer.begin_sample(r.sample)
        if wl.oracle_check and r.sample == 0:
            oracle_check(r)
        before = r.busy
        analyzed = [wl.pipeline(r, case, space) for case, space in zip(cases, spaces)]
        traced = r.busy - before
        totals = tracer.end_sample()
        tracer.begin_sample(r.sample)
        for case, space in zip(cases, analyzed):
            probes(r, case, space)
        probe_totals = tracer.end_sample()
    finally:
        tracer.uninstall()
        r.tracer = None
    for name in ("core.validate_ultrametric", "partner.pseudopartnering_trace"):
        totals[name] = probe_totals.get(name, 0.0)
        totals[name + ".calls"] = probe_totals.get(name + ".calls", 0)
    totals.update(r.counts)
    totals["values.distinct_values"] = sum(len(c.values) - 1 for c in cases)
    totals["core.cells"] = sum(c.n ** 2 for c in cases)
    totals["core.triples"] = sum(c.n * c.n * (c.n - 1) // 2 for c in cases)
    totals["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return totals


# Per-layer metrics: name -> (unit, source in the sample totals). A source of
# a span name ending in ".self" is a derived self time (span minus children).
LAYER_METRICS = {
    "values.parse_decimal_s": ("s", "values.parse_decimal"),
    "values.parse_decimal_calls": ("count", "values.parse_decimal.calls"),
    "values.tokens": ("count", "values.tokens"),
    "values.distinct_tokens": ("count", "values.distinct_tokens"),
    "values.group_values_s": ("s", "values.group_values"),
    "values.distinct_values": ("count", "values.distinct_values"),
    "core.build_space_s": ("s", "core.build_space"),
    "core.cells": ("count", "core.cells"),
    "core.triples": ("count", "core.triples"),
    "core.validate_ultrametric_s": ("s", "core.validate_ultrametric"),
    "core.violations": ("count", "core.violations"),
    "core.restrict_s": ("s", "core.restrict"),
    "ingest.parse_distance_csv_s": ("s", "ingest.parse_distance_csv"),
    "ingest.csv_self_s": ("s", "ingest.parse_distance_csv.self"),
    "ingest.parse_newick_s": ("s", "ingest.parse_newick"),
    "ingest.newick_self_s": ("s", "ingest.parse_newick.self"),
    "ingest.parse_coordinate_csv_s": ("s", "ingest.parse_coordinate_csv"),
    "ingest.write_coordinate_csv_s": ("s", "ingest.write_coordinate_csv"),
    "ingest.write_distance_csv_s": ("s", "ingest.write_distance_csv"),
    "ingest.subdominant_ultrametric_s": ("s", "ingest.subdominant_ultrametric"),
    "ingest.subdominant_self_s": ("s", "ingest.subdominant_ultrametric.self"),
    "ingest.bytes_in": ("count", "ingest.bytes_in"),
    "ingest.bytes_out": ("count", "ingest.bytes_out"),
    "partner.partner_partition_s": ("s", "partner.partner_partition"),
    "partner.pseudopartnering_trace_s": ("s", "partner.pseudopartnering_trace"),
    "partner.classes": ("count", "partner.classes"),
    "partner.partnered": ("count", "partner.partnered"),
    "basis.metric_bases_s": ("s", "basis.metric_bases"),
    "basis.dimensions_s": ("s", "basis.dimensions"),
    "basis.bases_s": ("s", "basis.bases"),
    "basis.is_k_generator_s": ("s", "basis.is_k_generator"),
    "basis.is_k_generator_alloc_mb": ("MB", "basis.is_k_generator.alloc_mb"),
    "basis.landmarks": ("count", "basis.landmarks"),
    "basis.minimal_subspace_s": ("s", "basis.minimal_subspace"),
    "reconstruct.coordinates_s": ("s", "reconstruct.coordinates"),
    "reconstruct.reconstruct_s": ("s", "reconstruct.reconstruct"),
    "reconstruct.self_s": ("s", "reconstruct.reconstruct.self"),
    "reconstruct.pairs": ("count", "reconstruct.pairs"),
    "oracle.cross_check_s": ("s", "oracle.cross_check"),
    "oracle.brute_force_dim_s": ("s", "oracle.brute_force_dim"),
    "cli.json_bytes": ("count", "cli.json_bytes"),
    "trace.overhead_ratio": ("ratio", "trace.overhead_ratio"),
}
DERIVED = {name for name, (_, source) in LAYER_METRICS.items() if source.endswith(".self")} | {
    "ingest.parse_self_s", "cli.overhead_s"}


def _derive(totals: dict[str, float]) -> dict[str, float]:
    """Combined metrics computed from one sample's totals."""
    out = {
        "ingest.parse_s": totals.get("ingest.parse_distance_csv", 0.0) + totals.get("ingest.parse_newick", 0.0),
        "ingest.parse_self_s": totals.get("ingest.parse_distance_csv.self", 0.0)
        + totals.get("ingest.parse_newick.self", 0.0),
        "cli.overhead_s": sum(v for k, v in totals.items() if k.startswith("cli.") and k.endswith(".self")),
    }
    calls = totals.get("values.parse_decimal.calls", 0)
    if calls:
        out["values.distinct_ratio"] = totals.get("values.distinct_tokens", 0) / calls
    for layer in LAYERS.keys() | {"cli"}:
        out[f"{layer}.errors"] = totals.get(f"{layer}.errors", 0)
    return out


def layer_metrics(samples: list[dict[str, float]]) -> dict[str, dict]:
    """Median over samples of each per-layer metric the workload exercised.

    A time counts as exercised in samples where its function was called; a
    count is always reported.
    """
    rows: dict[str, tuple[str, list[float]]] = {}
    for totals in samples:
        for name, (unit, source) in LAYER_METRICS.items():
            function = source.removesuffix(".self").removesuffix(".alloc_mb")
            if unit in ("count", "ratio") or totals.get(function + ".calls"):
                rows.setdefault(name, (unit, []))[1].append(totals.get(source, 0))
        for name, value in _derive(totals).items():
            unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("ratio") else "count")
            rows.setdefault(name, (unit, []))[1].append(value)
    return {
        name: {"value": statistics.median(values), "unit": unit, "samples": len(values),
               "derived": name in DERIVED}
        for name, (unit, values) in rows.items()
    }


def end_to_end_metrics(r: Runner, cases_done: int) -> dict[str, dict]:
    metrics = {}
    for op, calls in r.times.items():
        if op not in PIPELINE_OPS and op != "oracle_check":
            continue
        per_sample: dict[int, list[float]] = {}
        for sample, seconds in calls:
            per_sample.setdefault(sample, []).append(seconds)
        means = [statistics.fmean(v) for v in per_sample.values()]
        metrics[f"{op}_s"] = {"value": statistics.median(means), "unit": "s", "samples": len(means),
                              "calls": len(calls)}
        if len(calls) >= P90_MIN_CALLS:
            p90 = statistics.quantiles([s for _, s in calls], n=10)[8]
            metrics[f"{op}_p90_s"] = {"value": p90, "unit": "s", "samples": len(calls), "calls": len(calls)}
    metrics["spaces_per_s"] = {"value": cases_done / r.busy if r.busy else 0.0, "unit": "1/s",
                               "samples": cases_done}
    return metrics


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", Path(argv[5])
    result = run_workload(name, seed, seconds, trace, workdir)
    # ru_maxrss is in KiB on Linux; this process ran only this workload.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
