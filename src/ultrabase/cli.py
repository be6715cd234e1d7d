"""Command line front end.

Exit codes: 0 success, 1 domain failure (invalid space, not a basis,
failed cross-check), 2 usage or I/O error, or not enough memory. Reports are deterministic:
the same input bytes, flags and ULTRABASE_MAX_BASES (``analyze``'s cap on listed
bases where ``--max-bases`` is not given) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .basis import dimensions, is_k_generator, metric_bases, two_metric_basis
from .core import UltrametricSpace, ValidationReport
from .errors import DomainError, ParseError, UltrametricViolationError, UsageError
from .ingest import (
    NEWICK_EPSILON,
    parse_coordinate_csv,
    parse_distance_csv,
    parse_newick,
    write_coordinate_csv,
    write_distance_csv,
)
from .oracle import CROSS_CHECK_CAP, cross_check, random_dendrogram_space
from .partner import partner_partition
from .reconstruct import coordinates, reconstruct
from .values import format_value, parse_decimal

SCHEMA_VERSION = 1
DEFAULT_MAX_BASES = 10


def _epsilon_arg(text: str) -> Fraction:
    try:
        eps = parse_decimal(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if eps < 0:
        raise argparse.ArgumentTypeError("epsilon must be nonnegative")
    return eps


def _read_text(path: str, digest: bool = False) -> tuple[str, dict]:
    """The text, without a BOM, and its ``input`` report: its path, and
    with ``digest`` the sha256 of the text as read."""
    shown = "<stdin>" if path == "-" else path
    try:
        if path == "-":  # its bytes decoded as a file's, whatever the locale: strict UTF-8, universal newlines
            stream = getattr(sys.stdin, "buffer", None)
            text = (sys.stdin if stream is None else io.TextIOWrapper(io.BytesIO(stream.read()), "utf-8")).read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {shown}: not valid UTF-8") from None
    info = {"path": shown}
    if digest:
        info["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text.removeprefix("\ufeff"), info


def _infer_format(path: str, flag: str | None) -> str:
    if flag:
        return flag
    lower = path.lower()
    if lower.endswith(".csv"):
        return "csv"
    if lower.endswith((".nwk", ".newick", ".tree")):
        return "newick"
    raise UsageError(
        f"cannot infer input format from {path!r}; pass --format csv|newick"
    )


def _load_space(args) -> tuple[UltrametricSpace, dict]:
    """The input space and its ``input`` report; an invalid space raises
    :class:`UltrametricViolationError` with that report as ``exc.input``."""
    text, info = _read_text(args.input, digest=getattr(args, "json", False))  # only a JSON report shows it
    fmt = info["format"] = _infer_format(args.input, args.format)
    eps = args.epsilon
    try:
        if fmt == "csv":
            return parse_distance_csv(text, 0 if eps is None else eps), info
        return parse_newick(text, NEWICK_EPSILON if eps is None else eps), info
    except UltrametricViolationError as exc:
        exc.input = info
        raise


def _report(command: str, input_info: dict, result: dict, warnings: list[str]) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "input": input_info,
        "result": result,
        "warnings": warnings,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _violations_json(report: ValidationReport) -> list[dict]:
    return [
        {
            "kind": v.kind,
            "points": list(v.labels),
            "values": [format_value(x) for x in v.values],
            "detail": v.detail,
        }
        for v in report.violations
    ]


def _cmd_validate(args) -> int:
    try:
        space, info = _load_space(args)
    except UltrametricViolationError as exc:
        info = exc.input
        result = {"valid": False, "violations": _violations_json(exc.report)}
        if args.json:
            sys.stdout.write(_report("validate", info, result, []))
        else:
            print(f"INVALID: {info['path']}")
            for v in exc.report.violations:
                print(f"  - {v.detail}")
            if exc.report.truncated:
                print("  - (more violations omitted)")
        return 1
    result = {
        "valid": True,
        "n": space.n,
        "distinct_distances": len(space.table),
    }
    if args.json:
        sys.stdout.write(_report("validate", info, result, []))
    else:
        print(
            f"OK: {info['path']} is an ultrametric space "
            f"({space.n} points, {len(space.table)} distinct distances)"
        )
    return 0


def _max_bases(args) -> int:
    cap, source = args.max_bases, "--max-bases"
    if cap is None:
        env = os.environ.get("ULTRABASE_MAX_BASES")
        if env is None:
            return DEFAULT_MAX_BASES
        try:
            cap, source = int(env), "ULTRABASE_MAX_BASES"
        except ValueError:
            raise UsageError(f"ULTRABASE_MAX_BASES must be an integer, got {env!r}")
    if cap < 0:
        raise UsageError(f"{source} must be nonnegative, got {cap}")
    return cap


def _set_text(labels) -> str:
    return "{" + ",".join(labels) + "}"


def _cmd_analyze(args) -> int:
    space, info = _load_space(args)
    partition = partner_partition(space)
    dims = dimensions(space)
    family = metric_bases(space)
    max_k = 2  # no set is a 3-metric generator, and P(X) is a 2-metric basis
    cap = _max_bases(args)
    shown = list(family.bases(cap=cap))

    result = {
        "n": space.n,
        "labels": list(space.labels),
        "distinct_distances": len(space.table),
        "partner_classes": [list(cls) for cls in partition.classes],
        "pseudopartnered": list(partition.pseudopartnered),
        "dim1": dims.dim1,
        "dim2": dims.dim2,
        "max_k": max_k,
        "two_metric_basis": list(two_metric_basis(space)),
        "basis_count": family.count,
        "bases": [list(b) for b in shown],
        "bases_truncated": family.count > len(shown),
    }
    if args.json:
        sys.stdout.write(_report("analyze", info, result, []))
    else:
        print(f"points: {space.n}, distinct distances: {len(space.table)}")
        print("partner classes: " + " ".join(_set_text(c) for c in partition.classes))
        print("pseudopartnered: " + (_set_text(partition.pseudopartnered) if partition.pseudopartnered else "(none)"))
        print(f"dim1: {dims.dim1}, dim2: {dims.dim2}, max k with a basis: {max_k}")
        print(f"2-metric basis: {_set_text(two_metric_basis(space))}")
        suffix = ", showing first " + str(len(shown)) if family.count > len(shown) else ""
        print(f"metric bases ({family.count} total{suffix}): "
              + " ".join(_set_text(b) for b in shown))
    return 0


def _cmd_coords(args) -> int:
    space, _ = _load_space(args)
    if args.auto:
        landmarks = next(metric_bases(space).bases(cap=1))
    elif args.landmarks:
        landmarks = tuple(tok.strip() for tok in args.landmarks.split(",") if tok.strip())
        if not landmarks:
            raise UsageError("empty landmark list")
    else:
        raise UsageError("pass --landmarks s1,s2,... or --auto")
    check = is_k_generator(space, landmarks, 1)
    if not check.ok:
        assert check.witness is not None
        print(
            f"warning: landmarks do not form a metric generator; "
            f"pair ({check.witness[0]},{check.witness[1]}) is undistinguished",
            file=sys.stderr,
        )
    sys.stdout.write(write_coordinate_csv(coordinates(space, landmarks)))
    return 0


def _cmd_reconstruct(args) -> int:
    text, _ = _read_text(args.table)
    table = parse_coordinate_csv(text)
    space = reconstruct(table)
    sys.stdout.write(write_distance_csv(space))
    return 0


def _cmd_oracle_check(args) -> int:
    if args.n > CROSS_CHECK_CAP:
        raise UsageError(f"oracle-check is capped at {CROSS_CHECK_CAP} points")
    if args.n < 2 or args.seeds < 1 or args.values < 1:
        raise UsageError("need n >= 2, seeds >= 1, values >= 1")

    failures = []
    for seed in range(args.seeds):
        value_count = seed % args.values + 1
        space = random_dendrogram_space(args.n, seed=seed, value_count=value_count)
        outcome = cross_check(space)
        if not outcome.passed:
            first = outcome.first_failure()
            assert first is not None
            failures.append(
                {
                    "seed": seed,
                    "value_count": value_count,
                    "check": first.name,
                    "detail": first.detail,
                }
            )

    result = {
        "n": args.n,
        "seeds": args.seeds,
        "value_count_cycle": args.values,
        "spaces_checked": args.seeds,
        "all_passed": not failures,
        "failures": failures[:10],
    }
    info = {"path": None, "sha256": None, "format": None}
    if args.json:
        sys.stdout.write(_report("oracle-check", info, result, []))
    else:
        status = "all passed" if not failures else f"{len(failures)} FAILED"
        print(f"cross-checked {args.seeds} random spaces with n={args.n}: {status}")
        for f in failures[:10]:
            print(f"  - seed {f['seed']}: {f['check']}: {f['detail']}")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrabase",
        description="Analyze finite ultrametric spaces: partner structure, "
        "metric bases, dimensions, landmark reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="distance CSV or Newick file, or - for stdin")
        p.add_argument("--format", choices=["csv", "newick"], default=None,
                       help="input format (default: inferred from the extension)")
        p.add_argument("--epsilon", type=_epsilon_arg, default=None,
                       help="absolute tolerance for merging ingested values "
                            "(default 0 for CSV, 1e-9 for Newick)")

    p = sub.add_parser("validate", help="check the ultrametric axioms")
    add_input(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="partner classes, dimensions and all metric bases")
    add_input(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--max-bases", type=int, default=None,
                   help="cap on concrete bases listed (default 10; "
                        "env ULTRABASE_MAX_BASES replaces the default)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("coords", help="write landmark coordinates as CSV")
    add_input(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--landmarks", default=None, help="comma-separated landmark labels")
    group.add_argument("--auto", action="store_true",
                       help="use the lexicographically first metric basis")
    p.set_defaults(func=_cmd_coords)

    p = sub.add_parser("reconstruct", help="rebuild a distance CSV from a coordinate CSV")
    p.add_argument("table", help="coordinate CSV file, or - for stdin")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("oracle-check", help="cross-check theory against brute force "
                                            "on random instances")
    p.add_argument("--n", type=int, default=8, help="points per space (max 12)")
    p.add_argument("--seeds", type=int, default=20, help="number of random spaces")
    p.add_argument("--values", type=int, default=3,
                   help="cycle value_count through 1..VALUES across seeds")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses; parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # not a verdict: the input could not be answered
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
