"""The ultrabase benchmark: one workload, one seed, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload dendro-csv --seed 1 --seconds 20 --trace 0

Without ``--workload`` it runs every workload in turn. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same inputs again
with spans around each module's public functions and reports the per-layer
metrics and the tracing overhead. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and the metrics
that ``BENCHMARK.json`` declares; the lines before it print every metric by
name, unit and sample count.

The workload runs in a fresh worker process, so its peak RSS is its own;
set-up time is measured in fresh interpreters that the worker starts between
samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170

# Every end-to-end metric the benchmark can print, in report order.
END_TO_END = [
    ("setup_s", "s"), ("validate_s", "s"), ("analyze_s", "s"), ("coords_s", "s"),
    ("reconstruct_s", "s"), ("subspace_s", "s"), ("subdominant_s", "s"), ("oracle_check_s", "s"),
    ("validate_p90_s", "s"), ("analyze_p90_s", "s"), ("coords_p90_s", "s"), ("reconstruct_p90_s", "s"),
    ("spaces_per_s", "1/s"), ("relative_space_time", "ratio"), ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
]


def worker_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ULTRABASE_MAX_BASES", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(workdir.parent / "pycache"),  # compiled once, kept between runs
        PYTHONHASHSEED="0",  # same set and dict order, hence same work, in every run
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def warm_bytecode(env: dict[str, str]) -> None:
    """Import what the worker imports in a process of its own.

    The first run in a checkout compiles every module into the bytecode
    cache; done here, that work stays out of the worker's peak RSS.
    """
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import worker"
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, check=True,
                   timeout=WORKER_TIMEOUT_S)


def run_worker(workload: str, args, env: dict[str, str], workdir: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(args.seed), str(args.seconds),
           str(args.trace), str(workdir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def report_end_to_end(result: dict, metrics: dict, bounds: dict[str, float]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  samples {result['samples']}  "
          f"inputs {result['inputs']}  (closed loop, 1 client, 1 process)")
    for name, unit in END_TO_END:
        m = metrics.get(name)
        if m is None:
            print(f"  {name:<20} not measured on this workload")
            continue
        counts = f"samples={m['samples']}" + (f" calls={m['calls']}" if "calls" in m else "")
        gate = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"  {name:<20} {m['value']:.6g} {unit}  ({counts}){gate}")


def report_layers(result: dict, metrics: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  traced samples {result['samples']}")
    for name in sorted(metrics):
        m = metrics[name]
        note = "  derived" if m["derived"] else ""
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}  (samples={m['samples']}){note}")
    overhead = metrics["trace.overhead_ratio"]["value"]
    print(f"  tracing overhead: traced / untraced pipeline time = {overhead:.3f}")
    print("  wait times: none exist (one thread, no queue or lock), so none are reported")


def run_one(workload: str, args, spec: dict) -> dict | None:
    """Run one workload and print its report; returns the result line, or None on error."""
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = worker_env(workdir)
        warm_bytecode(env)
        started = time.perf_counter()
        result = run_worker(workload, args, env, workdir)
        metrics = result["metrics"]
        if args.trace:
            declared = spec["per_layer"]
            spans = ROOT / ".bench_work" / f"spans-{workload}-{args.seed}.json"
            spans.write_text(json.dumps(result.pop("spans")))
            report_layers(result, metrics)
            print(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            declared = spec["end_to_end"]
            metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB", "samples": 1}
            metrics["error_rate"] = {"value": result["failed"] / max(result["attempted"], 1),
                                     "unit": "ratio", "samples": result["attempted"]}
            report_end_to_end(result, metrics, {m["name"]: m["bound"] for m in declared})
        print(f"  attempted {result['attempted']}  failed {result['failed']}  "
              f"wall {time.perf_counter() - started:.1f} s")
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return None
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them, in turn, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the worker, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ultrabase" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the repository root; src/ultrabase or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    for workload in [args.workload] if args.workload else names:
        line = run_one(workload, args, spec)
        if line is None:
            return 1
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
