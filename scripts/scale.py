"""Scaling tier: wall time and memory of calls on large spaces.

For each size n in SIZES the input is a valid dendrogram CSV from
``bench/gen.py`` (8 distinct heights, seed SEED), and the landmarks are its
first metric basis as the generator knows it. Each call runs REPEATS times,
each time in a new child: ``wall_s`` is the median of those runs and
``wall_s_runs`` lists them all, in order. Every measurement runs in a
fresh Python process:

- ``is_k_generator``, ``reconstruct``, ``landmark_independence_witness``
  and ``minimal_subspace``: the child parses the CSV and builds what the
  call needs (the coordinate table for the reconstruct calls), then runs
  the call alone. ``partner_partition`` runs the same way on a dendrogram
  CSV with 2 heights (seed SEED), whose partner classes are large.
  ``parse_distance_csv`` reads the dendrogram CSV's text and
  ``parse_distance_csv_dissimilarity`` that of the random dissimilarity
  CSV described below, which it rejects with its witnesses; reading the
  file is outside the call. ``validate_ultrametric_floats`` reads the CSV's cells as
  Python floats and runs ``validate_ultrametric`` on them. ``subdominant_ultrametric`` runs on the
  text cells of the random dissimilarity CSV described below, split into rows
  outside the call. Each timing child times it once (``wall_s``); one more
  child runs it under ``tracemalloc`` and records ``call_peak_mb``, the
  peak of the Python and numpy memory the call itself holds. Parsing is in
  none of them but the two ``parse_distance_csv`` calls.
- ``cli_coords_auto`` (``coords FILE --auto`` on the dendrogram CSV) and
  ``cli_validate`` (``validate FILE`` on a random dissimilarity CSV from
  ``gen.dissimilarity_case``, which exits 1 with its witnesses): the child
  runs the command through ``ultrabase.cli.main`` and checks its exit code;
  ``cli_validate_epsilon`` runs ``validate FILE --epsilon 0.001`` (exit 1)
  on the same dissimilarity, whose values then group on integer units;
  ``cli_validate_late_witness`` runs ``validate FILE`` (exit 1) on
  d(a, b) = n - min(a, b) with d(n-2, n-1) raised from 2 to 4, whose only
  witness is the point n - 3; ``cli_analyze_json`` runs
  ``analyze FILE --json`` (exit 0) on the 2-height dendrogram CSV;
  ``cli_reconstruct`` runs ``reconstruct FILE`` (exit 0) on the
  dendrogram's coordinate table in its first metric basis, the bytes
  ``coords FILE --auto`` writes; ``wall_s`` and ``peak_rss_mb`` are those of the whole child process,
  interpreter start and parse included, and ``peak_rss_mb`` is the largest
  of the runs. The child reads its peak from
  its own ``VmHWM``: the ``ru_maxrss`` that ``wait4`` returns starts, on
  Linux, from the peak of the process that started the child, which
  holds the generated inputs.

Newick trees have their own sizes, NEWICK_SIZES leaves, in three shapes:
the texts of ``gen.random_tree_case`` and ``gen.caterpillar_case`` (seed
SEED), written by :func:`random_tree_text` and :func:`caterpillar_text`
without the n x n truth matrix those cases carry, and
``caterpillar-epsilon``, the caterpillar with its first leaf length raised
by 10^-12, which is equidistant only within Newick's default epsilon.
``parse_newick`` is timed and traced like the library calls above, with
reading the file outside the call; ``cli_validate_newick`` runs
``validate FILE`` and ``cli_analyze_json_newick`` runs ``analyze FILE
--json`` (both exit 0) like the other command-line calls. An exactly
equidistant tree is held in its gap form, so it runs at every size. A
``caterpillar-epsilon`` size whose n x n int32 rank matrix alone would
fill half of BUDGET_MB is recorded as ``"skipped": "budget"`` without
being generated or run: that tree's units are built as an n x n int64
matrix and checked like a CSV.

``cli_coords_auto_newick`` runs ``coords FILE --auto`` (exit 0) on the
random tree at TREE_TABLE_SIZES leaves, and ``cli_reconstruct_newick``
runs ``reconstruct FILE`` (exit 0) on the table that command writes, made
by one more child of the measured checkout before the runs; both are
measured like the other command-line calls.

``verify_roundtrip`` runs on the random tree at ROUNDTRIP_SIZES leaves: the
child parses the tree and finds its first metric basis, and the call
rebuilds the space from its coordinates in that basis and compares the
two; a space that differs from its rebuild stops the run. It is timed and
traced like the library calls above.

Budgets: BUDGET_S wall seconds per call and BUDGET_MB of memory. A child is
killed as soon as its resident set passes BUDGET_MB (polled while it runs),
a call is stopped at BUDGET_S, and either is recorded as
``"skipped": "budget"`` with the limit it hit. No test or CI step reads the
output.

Usage, from the repository root::

    python scripts/scale.py [--src DIR]

``--src`` measures another checkout's ``src`` directory (default: this
one). The result goes to ``BENCH_scale_<commit>.json`` at the repository
root, where ``<commit>`` is the short git HEAD of that checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (stdlib + numpy only; it does not import ultrabase)

CALLS = ("is_k_generator", "reconstruct", "landmark_independence_witness",
         "minimal_subspace", "validate_ultrametric_floats", "partner_partition",
         "subdominant_ultrametric", "parse_distance_csv", "parse_distance_csv_dissimilarity", "cli_coords_auto",
         "cli_validate", "cli_validate_epsilon", "cli_validate_late_witness", "cli_analyze_json",
         "cli_reconstruct")
NEWICK_CALLS = ("parse_newick", "cli_validate_newick", "cli_analyze_json_newick")
TREE_TABLE_CALLS = ("cli_coords_auto_newick", "cli_reconstruct_newick")
ROUNDTRIP_CALL = "verify_roundtrip"


def random_tree_text(rng: random.Random, n: int) -> str:
    """The text of ``gen.random_tree_case(rng, n)``, without its truth."""
    labels = gen._labels(rng, n, "t")
    return gen._newick(gen._random_tree(rng, list(range(n))), None, labels) + ";\n"


def caterpillar_text(rng: random.Random, n: int) -> str:
    """The text of ``gen.caterpillar_case(rng, n)``, without its truth."""
    labels = gen._labels(rng, n, "c")
    heights = list(itertools.accumulate(rng.randint(1, 9) for _ in range(n - 1)))
    parts = ["(" * (n - 1), f"{labels[0]}:{heights[0]},{labels[1]}:{heights[0]})"]
    for k in range(1, n - 1):
        parts.append(f":{heights[k] - heights[k - 1]},{labels[k + 1]}:{heights[k]})")
    return "".join(parts) + ";\n"


def _bumped_caterpillar(rng: random.Random, n: int) -> str:
    """:func:`caterpillar_text` with its first leaf length raised by 10^-12."""
    head, _, rest = caterpillar_text(rng, n).partition(":")
    length, _, tail = rest.partition(",")
    return f"{head}:{decimal.Decimal(length) + decimal.Decimal('1e-12')},{tail}"


NEWICK_SHAPES = {"random-tree": random_tree_text, "caterpillar": caterpillar_text,
                 "caterpillar-epsilon": _bumped_caterpillar}
MATRIX_SHAPES = {"caterpillar-epsilon"}  # shapes whose parse builds n x n arrays
# command-line calls: argv before and after the file, and the expected exit code
CLI = {"cli_coords_auto": (["coords"], ["--auto"], 0), "cli_validate": (["validate"], [], 1),
       "cli_validate_epsilon": (["validate"], ["--epsilon", "0.001"], 1),
       "cli_validate_late_witness": (["validate"], [], 1), "cli_validate_newick": (["validate"], [], 0),
       "cli_analyze_json": (["analyze"], ["--json"], 0),
       "cli_analyze_json_newick": (["analyze"], ["--json"], 0), "cli_reconstruct": (["reconstruct"], [], 0),
       "cli_coords_auto_newick": (["coords"], ["--auto"], 0), "cli_reconstruct_newick": (["reconstruct"], [], 0)}
SIZES = (400, 1000, 2000)
NEWICK_SIZES = (1000, 4000, 20000)
TREE_TABLE_SIZES = (1000, 4000)
ROUNDTRIP_SIZES = (400, 1000, 2000, 4000)
LEVELS = 8
REPEATS = 3  # runs per call, each in a new child
PARTNER_LEVELS = 2  # the partner calls' dendrogram: few heights, large classes
SEED = 1
BUDGET_S = 30.0
BUDGET_MB = 2048.0
SETUP_S = 600.0  # parsing and set-up in a library child, outside the call's budget
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class OverBudget(Exception):
    pass


def _case(n: int) -> gen.Case:
    return gen.dendrogram_case(random.Random(f"scale:{n}:{SEED}"), n, LEVELS)


def _partner_case(n: int) -> gen.Case:
    return gen.dendrogram_case(random.Random(f"scale:{n}:{SEED}:partner"), n, PARTNER_LEVELS)


def _dissimilarity(n: int) -> gen.Case:
    return gen.dissimilarity_case(random.Random(f"scale:{n}:{SEED}:dissimilarity"), n)


def _tree(shape: str, n: int) -> str:
    return NEWICK_SHAPES[shape](random.Random(f"scale:{n}:{SEED}:{shape}"), n)


def _late_witness(n: int) -> str:
    """The late-witness CSV: d(a, b) = n - min(a, b), an ultrametric, with
    d(n-2, n-1) raised from 2 to 4, so its only witness is the point n - 3."""
    d = n - np.minimum.outer(np.arange(n), np.arange(n))
    d[n - 2, n - 1] = d[n - 1, n - 2] = 4
    np.fill_diagonal(d, 0)
    lines = [",".join(f"p{i}" for i in range(n))] + [",".join(map(str, row)) for row in d.tolist()]
    return "\n".join(lines) + "\n"


def _coordinates(case: gen.Case) -> str:
    """The case's ``label,s1,...`` table in its first basis: its own cells,
    as ``coords --auto`` writes them."""
    header, *body = (line.split(",") for line in case.text.splitlines())
    cols = [header.index(s) for s in case.first_basis]
    lines = [",".join(["label", *case.first_basis])]
    lines += [",".join([lab, *(row[c] for c in cols)]) for lab, row in zip(header, body)]
    return "\n".join(lines) + "\n"


def _rejected(ub, text: str) -> None:
    """Parse a CSV that is no ultrametric, as the library rejects it."""
    try:
        ub.parse_distance_csv(text)
    except ub.UltrametricViolationError:
        return
    raise RuntimeError("the dissimilarity was accepted as an ultrametric")


def _roundtrip(ub, space, landmarks) -> None:
    """Compare a space with its rebuild from the landmarks' coordinates."""
    if not ub.verify_roundtrip(space, landmarks):
        raise RuntimeError("the space differs from its reconstruction")


def _rank_matrix_mb(n: int) -> float:
    return 4 * n * n / 2**20


def child(call: str, path: str, landmarks: list[str], mode: str) -> dict:
    """Run one call in this (fresh) process.

    A command-line call returns its exit code; a library call is timed, or
    traced for memory.
    """
    if call in CLI:
        from ultrabase import cli

        before, after, _ = CLI[call]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return {"exit": cli.main([*before, path, *after])}

    import ultrabase as ub

    text = Path(path).read_text()
    text_only = ("parse_newick", "validate_ultrametric_floats", "subdominant_ultrametric",
                 "parse_distance_csv", "parse_distance_csv_dissimilarity", ROUNDTRIP_CALL)
    space = None if call in text_only else ub.parse_distance_csv(text)
    if call == ROUNDTRIP_CALL:
        space = ub.parse_newick(text)
        basis = next(ub.metric_bases(space).bases(cap=1))
        run = lambda: _roundtrip(ub, space, basis)  # noqa: E731
    elif call == "parse_newick":
        run = lambda: ub.parse_newick(text)  # noqa: E731
    elif call == "parse_distance_csv":
        run = lambda: ub.parse_distance_csv(text)  # noqa: E731
    elif call == "parse_distance_csv_dissimilarity":
        run = lambda: _rejected(ub, text)  # noqa: E731
    elif call == "subdominant_ultrametric":
        labels, *rows = (line.split(",") for line in text.splitlines())
        run = lambda: ub.subdominant_ultrametric(rows, labels)  # noqa: E731
    elif call == "validate_ultrametric_floats":
        matrix = [list(map(float, line.split(","))) for line in text.splitlines()[1:]]
        run = lambda: ub.validate_ultrametric(matrix)  # noqa: E731
    elif call == "is_k_generator":
        run = lambda: ub.is_k_generator(space, landmarks, 1)  # noqa: E731
    elif call == "minimal_subspace":
        run = lambda: ub.minimal_subspace(space, landmarks)  # noqa: E731
    elif call == "partner_partition":
        run = lambda: ub.partner_partition(space)  # noqa: E731
    else:
        table = ub.coordinates(space, landmarks)
        run = lambda: getattr(ub, call)(table)  # noqa: E731
    if mode == "memory":
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"call_peak_mb": round(peak / 2**20, 1)}

    def stop(*_):
        raise OverBudget

    signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        start = time.perf_counter()
        run()
        wall = time.perf_counter() - start
    except OverBudget:
        return {"skipped": "budget", "limit": "wall_s"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"wall_s": round(wall, 4)}


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _rss_mb(pid: int) -> float:
    try:
        return int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0


def _own_peak_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return round(int(line.split()[1]) / 1024, 1)
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run(args: list[str], src: Path, deadline_s: float):
    """Run a child under the budgets.

    Returns (stdout, wall seconds) once it exits 0, or a skip record when
    it ran past ``deadline_s`` or its resident set past BUDGET_MB. stdout
    and stderr go to files, so neither can fill a pipe.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(args, env=_env(src), stdout=out, stderr=err)
        start = time.perf_counter()
        while True:
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            if pid:
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            limit = ("wall_s" if time.perf_counter() - start > deadline_s
                     else "peak_rss_mb" if _rss_mb(proc.pid) > BUDGET_MB else None)
            if limit:
                proc.kill()
                proc.wait()
                return {"skipped": "budget", "limit": limit}
            time.sleep(0.002)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{args[1:]} exited {proc.returncode}: {err.read()!r}")
        out.seek(0)
        return out.read(), wall


def measure(call: str, path: Path, landmarks: list[str], src: Path) -> dict:
    def child_args(mode):
        return [sys.executable, str(Path(__file__).resolve()), "--child", call, str(path),
                ",".join(landmarks), mode]

    walls = []
    if call in CLI:
        peak = 0.0
        for _ in range(REPEATS):
            done = _run(child_args("time"), src, BUDGET_S)
            if isinstance(done, dict):
                return done
            out, wall = done
            part = json.loads(out)
            if part["peak_rss_mb"] > BUDGET_MB:
                return {"skipped": "budget", "limit": "peak_rss_mb"}
            code, expected = part["exit"], CLI[call][2]
            if code != expected:
                raise RuntimeError(f"{call} on {path} exited {code}, expected {expected}")
            walls.append(round(wall, 4))
            peak = max(peak, part["peak_rss_mb"])
        return {"wall_s": statistics.median(walls), "wall_s_runs": walls, "peak_rss_mb": peak}
    result = {}
    for mode in ("time",) * REPEATS + ("memory",):
        done = _run(child_args(mode), src, BUDGET_S + SETUP_S)
        if isinstance(done, dict):
            return done
        part = json.loads(done[0])
        if "skipped" in part:
            return part
        if mode == "time":
            walls.append(part["wall_s"])
        else:
            result.update(part)
    if result["call_peak_mb"] > BUDGET_MB:
        return {"skipped": "budget", "limit": "call_peak_mb"}
    return {"wall_s": statistics.median(walls), "wall_s_runs": walls, **result}


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="src directory to measure")
    src = parser.parse_args(argv).src.resolve()
    commit = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()

    report = {
        "commit": commit,
        "machine": machine(),
        "input": f"bench/gen.py dendrogram_case, {LEVELS} heights, seed {SEED}; "
                 "landmarks: the first metric basis; cli_validate, cli_validate_epsilon, subdominant_ultrametric "
                 "and parse_distance_csv_dissimilarity: "
                 f"bench/gen.py dissimilarity_case, seed {SEED}; cli_validate_late_witness: "
                 "d(a, b) = n - min(a, b) with d(n-2, n-1) raised from 2 to 4; partner_partition "
                 f"and cli_analyze_json: bench/gen.py dendrogram_case, {PARTNER_LEVELS} heights; "
                 "cli_reconstruct: the dendrogram's coords --auto table",
        "budget": {"wall_s": BUDGET_S, "memory_mb": BUDGET_MB},
        "newick_input": f"the texts of bench/gen.py random-tree and caterpillar cases, seed {SEED}; "
                        "caterpillar-epsilon: the caterpillar with its first leaf length raised by 10^-12",
        "sizes": {},
        "newick_sizes": {},
        "tree_table_input": f"cli_coords_auto_newick: the random-tree text, seed {SEED}; "
                            "cli_reconstruct_newick: the table coords --auto writes for it",
        "tree_table_sizes": {},
        "roundtrip_input": f"the text of a bench/gen.py random-tree case, seed {SEED}; "
                           "landmarks: its first metric basis",
        "results": {call: {} for call in (*CALLS, *NEWICK_CALLS, *TREE_TABLE_CALLS, ROUNDTRIP_CALL)},
    }
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            case = _case(n)
            path = Path(work) / f"dendrogram_{n}.csv"
            path.write_text(case.text)
            landmarks = case.first_basis
            noisy = Path(work) / f"dissimilarity_{n}.csv"
            noisy.write_text(_dissimilarity(n).text)
            late = Path(work) / f"late_witness_{n}.csv"
            late.write_text(_late_witness(n))
            few = Path(work) / f"dendrogram_{PARTNER_LEVELS}_{n}.csv"
            few.write_text(_partner_case(n).text)
            table = Path(work) / f"coordinates_{n}.csv"
            table.write_text(_coordinates(case))
            report["sizes"][str(n)] = {"landmarks": len(landmarks), "csv_bytes": len(case.text),
                                       "dissimilarity_csv_bytes": noisy.stat().st_size,
                                       "late_witness_csv_bytes": late.stat().st_size,
                                       "partner_csv_bytes": few.stat().st_size,
                                       "coordinates_csv_bytes": table.stat().st_size}
            inputs = {"cli_validate": noisy, "cli_validate_epsilon": noisy, "subdominant_ultrametric": noisy,
                      "parse_distance_csv_dissimilarity": noisy,
                      "cli_validate_late_witness": late,
                      "partner_partition": few, "cli_analyze_json": few, "cli_reconstruct": table}
            for call in CALLS:
                if call in inputs:
                    result = measure(call, inputs[call], [], src)
                else:
                    result = measure(call, path, landmarks, src)
                report["results"][call][str(n)] = result
                print(f"n={n} {call}: {result}", file=sys.stderr)
        for n in NEWICK_SIZES:
            matrix_mb = _rank_matrix_mb(n)
            report["newick_sizes"][str(n)] = {"rank_matrix_mb": round(matrix_mb, 1)}
            for call in NEWICK_CALLS:
                report["results"][call][str(n)] = {}
            for shape in NEWICK_SHAPES:
                if shape in MATRIX_SHAPES and matrix_mb > BUDGET_MB / 2:
                    results = dict.fromkeys(NEWICK_CALLS, {"skipped": "budget", "limit": "rank_matrix_mb"})
                else:
                    path = Path(work) / f"{shape}_{n}.nwk"
                    path.write_text(_tree(shape, n))
                    report["newick_sizes"][str(n)][f"{shape}_bytes"] = path.stat().st_size
                    results = {call: measure(call, path, [], src) for call in NEWICK_CALLS}
                for call, result in results.items():
                    report["results"][call][str(n)][shape] = result
                    print(f"n={n} {shape} {call}: {result}", file=sys.stderr)
        for n in TREE_TABLE_SIZES:
            tree = Path(work) / f"tree_{n}.nwk"
            tree.write_text(_tree("random-tree", n))
            table = Path(work) / f"tree_{n}_coordinates.csv"
            done = _run([sys.executable, "-m", "ultrabase", "coords", str(tree), "--auto"], src, SETUP_S)
            if isinstance(done, dict):
                raise RuntimeError(f"coords --auto on the {n}-leaf tree ran past the budget: {done}")
            table.write_bytes(done[0])
            report["tree_table_sizes"][str(n)] = {"tree_bytes": tree.stat().st_size,
                                                  "coordinates_csv_bytes": table.stat().st_size}
            for call, path in zip(TREE_TABLE_CALLS, (tree, table)):
                result = report["results"][call][str(n)] = measure(call, path, [], src)
                print(f"n={n} {call}: {result}", file=sys.stderr)
        for n in ROUNDTRIP_SIZES:
            path = Path(work) / f"roundtrip_{n}.nwk"
            path.write_text(_tree("random-tree", n))
            result = report["results"][ROUNDTRIP_CALL][str(n)] = measure(ROUNDTRIP_CALL, path, [], src)
            print(f"n={n} {ROUNDTRIP_CALL}: {result}", file=sys.stderr)
    out = ROOT / f"BENCH_scale_{commit}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _, _, call, path, landmarks, mode = sys.argv
        result = child(call, path, landmarks.split(","), mode)
        if call in CLI:
            result["peak_rss_mb"] = _own_peak_mb()
        print(json.dumps(result))
    else:
        sys.exit(main())
