"""Command line front end.

Subcommands:
  list    catalog of solitons and registered checks
  check   run identity checks on soliton charts (jet route)
  grid    run finite-difference convergence scenarios (grid route)
  report  run both routes and emit a combined document

The jet order is not an option: ``check`` and ``report`` run every check at
``solitons.JET_ORDER``, the most derivatives any identity reads.

Exit status: 0 when everything passed or was skipped as not applicable,
1 when any check failed or a convergence run was inconclusive, 2 on usage
errors (a one-line ``error:`` message on stderr, never a traceback), and 1
without a traceback when the reader closes standard output early or the
output cannot be written (a one-line ``error:`` message for the latter). JSON
output is always valid JSON, emitted with sorted keys so two runs with the
same arguments differ only in the timing fields; a non-finite number is
written as null and marks its report as failed.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

from . import __version__, checks, gridlab
from .solitons import CATALOG, UnknownSolitonError

_FORMATS = ("text", "json", "csv")
# Ceilings on the run's size, far above the default 32 points and n = 128,
# so that a mistyped size ends in a usage error rather than an allocation
# failure deep inside the sampler or the grid.
MAX_POINTS = 4096
MAX_GRID_SIZE = 1024


class _WriteError(Exception):
    """An OSError from writing the output; its cause is that error."""


def _write(text: str, output: str | None):
    try:
        if output is None:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()  # a failed write shows up here, not at exit
        else:
            with open(output, "w") as f:
                f.write(text)
    except OSError as e:
        raise _WriteError(e) from e


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _finite(obj):
    """(obj with non-finite floats as None, whether it held any); a dict that
    held one and has a ``status`` gets status "fail"."""
    if isinstance(obj, float):
        return (obj, False) if math.isfinite(obj) else (None, True)
    if isinstance(obj, dict):
        pairs = {k: _finite(v) for k, v in obj.items()}
        out = {k: v for k, (v, _) in pairs.items()}
        bad = any(b for _, b in pairs.values())
        if bad and "status" in out:
            out["status"] = "fail"
        return out, bad
    if isinstance(obj, (list, tuple)):
        pairs = [_finite(v) for v in obj]
        return [v for v, _ in pairs], any(b for _, b in pairs)
    return obj, False


def _json_doc(payload: dict) -> str:
    return json.dumps(_finite(payload)[0], sort_keys=True, indent=2,
                      allow_nan=False)


def _args_error(args) -> str | None:
    for name, least, most in (("seed", 0, math.inf), ("points", 1, MAX_POINTS)):
        value = getattr(args, name, least)
        if value < least:
            return f"--{name} must be at least {least}, got {value}"
        if value > most:
            return f"--{name} must be at most {most}, got {value}"
    if max(getattr(args, "sizes", ()), default=0) > MAX_GRID_SIZE:
        return f"--sizes must each be at most {MAX_GRID_SIZE}, got {max(args.sizes)}"
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
        return f"--tolerance must be a finite number > 0, got {tolerance}"
    output = getattr(args, "output", None)
    if output is not None:
        # a writable file, or a new one in a writable directory
        target = output if os.path.exists(output) else os.path.dirname(output) or "."
        if os.path.isdir(output) or not os.access(target, os.W_OK):
            return f"--output must name a writable file, got {output}"
    return None


def _emit(args, doc: dict, text: str, csv_rows: list | None = None):
    """Write the command's result in ``args.format``: ``doc`` as JSON, with
    the package version added, ``csv_rows`` (header first) as CSV, or else
    ``text``."""
    if args.format == "json":
        text = _json_doc({"version": __version__} | doc)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    _write(text, args.output)


def _check_rows_text(reports) -> str:
    lines = []
    width = max(len(r.check_id) for r in reports)
    swidth = max(len(r.soliton) for r in reports)
    for r in reports:
        if r.status == checks.STATUS_SKIPPED:
            lines.append(f"[skip] {r.check_id:<{width}} {r.soliton:<{swidth}}")
            continue
        mark = "ok " if r.status == checks.STATUS_PASS else "FAIL"
        lines.append(
            f"[{mark}] {r.check_id:<{width}} {r.soliton:<{swidth}} "
            f"max={r.max_rel_residual:.3e} tol={r.tolerance:.1e} "
            f"({r.millis:.0f} ms)")
    ran = [r for r in reports if r.status != checks.STATUS_SKIPPED]
    n_fail = sum(r.status == checks.STATUS_FAIL for r in ran)
    lines.append(f"{len(ran)} run, {len(reports) - len(ran)} skipped, "
                 f"{n_fail} failed")
    return "\n".join(lines)


def _check_rows_csv(reports) -> list:
    return [["check_id", "soliton", "point_index", "residual"]] + [
        [r.check_id, r.soliton, i, repr(float(v))] for r in reports
        if r.point_residuals is not None for i, v in enumerate(r.point_residuals)]


def _grid_rows_text(reports) -> str:
    lines = []
    for r in reports:
        mark = {"pass": "ok ", "fail": "FAIL"}.get(r.status, "????")
        pair = ", ".join(f"{p:.2f}" for p in r.pairwise_orders)
        lines.append(
            f"[{mark}] {r.check_id:<8} grids={list(r.grid_sizes)} "
            f"order={r.fitted_order:.2f} (pairwise {pair}) "
            f"({r.millis:.0f} ms)")
        for n, res in zip(r.grid_sizes, r.residuals):
            lines.append(f"         n={n:<4d} residual={res:.6e}")
    return "\n".join(lines)


def _grid_rows_csv(reports) -> list:
    # a row's order is the one observed between its n and the previous size
    return [["check_id", "n", "residual", "observed_order"]] + [
        [r.check_id, n, repr(float(res)), order] for r in reports
        for n, res, order in zip(r.grid_sizes, r.residuals,
                                 [""] + [repr(float(p)) for p in r.pairwise_orders])]


def _cmd_list(args) -> int:
    doc = {
        "solitons": {name: {"kind": spec.kind,
                            "description": spec.description,
                            "grid_only": spec.grid_only}
                     for name, spec in CATALOG.items()},
        "checks": {cid: {"statement": spec.statement,
                         "tolerance": spec.tolerance,
                         "applies_to": list(spec.applies_to)}
                   for cid, spec in checks.REGISTRY.items()},
        "grid_checks": list(gridlab.GRID_CHECKS),
    }
    lines = ["solitons:"]
    for name, spec in CATALOG.items():
        suffix = " (grid only)" if spec.grid_only else ""
        lines.append(f"  {name:<20} {spec.kind:<9} {spec.description}{suffix}")
    lines.append("checks:")
    for cid in sorted(checks.REGISTRY):
        spec = checks.REGISTRY[cid]
        grid = " [grid]" if cid in gridlab.GRID_CHECKS else ""
        lines.append(f"  {cid:<9} tol={spec.tolerance:.0e}{grid}  {spec.statement}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    check_ids = args.checks or None
    solitons = args.soliton or None
    try:
        reports = checks.run_suite(
            checks=check_ids, solitons=solitons, seed=args.seed,
            n_points=args.points, tolerance=args.tolerance)
    except (checks.UnknownCheckError, UnknownSolitonError) as e:
        return _usage_error(e.args[0])
    doc = {"seed": args.seed,
           "config": {"points": args.points, "tolerance": args.tolerance},
           "reports": [r.to_dict() for r in reports]}
    _emit(args, doc, _check_rows_text(reports), _check_rows_csv(reports))
    return 1 if any(r.status == checks.STATUS_FAIL for r in reports) else 0


def _cmd_grid(args) -> int:
    check_ids = args.checks or list(gridlab.GRID_CHECKS)
    sizes = tuple(args.sizes)
    try:
        reports = [gridlab.run_grid_check(c, seed=args.seed, grid_sizes=sizes)
                   for c in check_ids]
    except (KeyError, ValueError) as e:
        return _usage_error(e.args[0])
    doc = {"seed": args.seed, "config": {"sizes": list(sizes)},
           "reports": [r.to_dict() for r in reports]}
    _emit(args, doc, _grid_rows_text(reports), _grid_rows_csv(reports))
    return 0 if all(r.status == gridlab.STATUS_PASS for r in reports) else 1


def _cmd_report(args) -> int:
    srep = checks.run_suite(seed=args.seed, n_points=args.points)
    grep = gridlab.run_grid_suite(seed=args.seed)
    ran = [r for r in srep if r.status != checks.STATUS_SKIPPED]
    n_fail = (sum(r.status == checks.STATUS_FAIL for r in srep)
              + sum(r.status != gridlab.STATUS_PASS for r in grep))
    doc = {
        "seed": args.seed,
        "config": {"points": args.points},
        "checks": [r.to_dict() for r in srep],
        "grid": [r.to_dict() for r in grep],
        "summary": {
            "checks_run": len(ran),
            "checks_skipped": len(srep) - len(ran),
            "failures": n_fail,
        },
    }
    _emit(args, doc, _check_rows_text(srep) + "\n\n" + _grid_rows_text(grep)
          + f"\n\ntotal failures: {n_fail}")
    return 1 if n_fail else 0


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as one ``error:`` line and exits 2; subparsers
    are made of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="harnacklab",
        description="Identity checks for Harnack quantities on Ricci solitons.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("list", help="list solitons and checks")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.add_argument("--output", default=None)
    pl.set_defaults(fn=_cmd_list)

    pc = sub.add_parser("check", help="run identity checks on soliton charts")
    pc.add_argument("checks", nargs="*", metavar="CHECK_ID",
                    help="check ids to run (default: whole registry)")
    pc.add_argument("--soliton", action="append",
                    help="restrict to this soliton (repeatable)")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--points", type=int, default=32,
                    help=f"sample points per chart, 1 to {MAX_POINTS}")
    pc.add_argument("--tolerance", type=float, default=None,
                    help="pass threshold for every check run (default: each "
                         f"check's own); a value above {checks.TOLERANCE_CAP:g} "
                         "is lowered to it, and each report states the "
                         "tolerance applied")
    pc.add_argument("--format", choices=_FORMATS, default="text")
    pc.add_argument("--output", default=None)
    pc.set_defaults(fn=_cmd_check)

    pg = sub.add_parser("grid", help="run grid convergence scenarios")
    pg.add_argument("checks", nargs="*", metavar="CHECK_ID",
                    help="grid scenario ids (default: all)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--sizes", type=int, nargs="+", default=gridlab.GRID_SIZES,
                    help="increasing grid resolutions, each at most "
                         f"{MAX_GRID_SIZE}")
    pg.add_argument("--format", choices=_FORMATS, default="text")
    pg.add_argument("--output", default=None)
    pg.set_defaults(fn=_cmd_grid)

    pr = sub.add_parser("report", help="run both routes, emit a combined report")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--points", type=int, default=32,
                    help=f"sample points per chart, 1 to {MAX_POINTS}")
    pr.add_argument("--format", choices=("text", "json"), default="json")
    pr.add_argument("--output", default=None)
    pr.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if (bad := _args_error(args)):
        return _usage_error(bad)
    try:
        return args.fn(args)
    except _WriteError as e:
        # a reader that closed standard output early is not an error
        if not isinstance(e.__cause__, BrokenPipeError):
            print(f"error: cannot write output: {e}", file=sys.stderr)
        if args.output is None:
            # Point stdout at devnull so the interpreter's final flush is quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
