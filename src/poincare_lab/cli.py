"""Command-line front door.

Subcommands: check, sweep, lemma, uniform, thickness, regdir, cells,
trace, raster.  Every run writes ``report.json`` (and command-specific
side files with stable names) under ``--out``; the exit code is a pure
function of the report's ``status`` field: 0 = all checks passed,
1 = a check failed, 2 = usage or parse error, 3 = solver failure.
``--help`` is the one exception: it prints and exits 0 with no report.
Each command returns its status and results as plain values; ``main``
alone adds the ``command`` and ``error`` keys, turns exceptions into
error reports, and encodes the whole report once with
``errors.jsonable``.  ``--out`` is read ahead of the full parse, so an
argparse error (a flag value that does not parse, an unknown flag) is
reported there too.  The DEFAULTS block below names every numeric
default; each is defined once, in the module that uses it.  ``_FLAGS``
declares each flag once with its argparse keywords; one ``_COMMANDS`` row
per command names its handler, its help, the flags it takes and the few
keywords that differ there, and both the parser and the dispatch in
``main`` are built from those rows.  ``--dir`` goes through
``harness``: the family commands pass it to ``sweep``, and ``thickness``
and ``check`` read it with ``unit_direction``, where ``check`` dispatches
``auto`` to ``resolve_direction`` itself.
``--seed 0 --jobs 1`` runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

from .cells import SAMPLES_PER_COLUMN, cell_decompose_2d, merge_vertical
from .corpus import load_corpus
from .dsl import parse_domain, print_domain
from .errors import (
    NotApplicableError,
    ParamOutOfRangeError,
    PoincareLabError,
    SolverDivergedError,
    SpecError,
    jsonable,
)
from .harness import (
    check_jobs,
    fibers_csv_text,
    grid_points,
    plot_data_texts,
    resolve_direction,
    sweep,
    unit_direction,
    verify_thickness_volume_bound,
    verify_uniform_trend,
)
from .raster import (
    check_resolution,
    rasterize,
    thickness,
    thickness_discrete,
    volume,
    write_mask,
    write_pgm,
)
from .sobolev import discrete_column_inequality, trace_ratio_battery, verify_thickness_bound
from .tangent import DIRECTIONS, SAMPLES, find_regular_direction

# every numeric default of the command line; flags override 1:1
DEFAULTS = {
    "tol": None,  # solver relative tolerance; None means each route's own default
    "samples": SAMPLES,  # boundary samples per fiber
    "dirs": DIRECTIONS,  # candidate directions for the regular-direction search
    "seed": 0,
    "jobs": 1,  # sweep worker processes
    "resolution": 256,  # cells per axis
    "grid": 5,  # per-axis parameter grid count for sweeps
    "samples_per_column": SAMPLES_PER_COLUMN,  # abscissae per decomposition column
    "p": 2.0,
}

# every flag once, with its argparse keywords
_FLAGS = {
    "--spec": {"required": True, "help": "domain file or bundled name"},
    "--out": {"default": ".", "help": "output directory"},
    "--seed": {"type": int, "default": DEFAULTS["seed"]},
    "--jobs": {"type": int, "default": DEFAULTS["jobs"], "help": "sweep worker processes"},
    "--tol": {"type": float, "default": DEFAULTS["tol"]},
    "--t": {"default": "", "help": "comma-separated parameter values"},
    "--ts": {"default": None, "help": "semicolon-separated parameter tuples"},
    "--grid": {"default": None, "help": "per-axis grid counts, comma-separated"},
    "--p": {"type": float, "default": DEFAULTS["p"]},
    "--res": {"type": int, "default": DEFAULTS["resolution"]},
    "--dir": {"default": "auto", "help": "axis name, vector, or auto (search)"},
    "--dirs": {"type": int, "default": DEFAULTS["dirs"]},
    "--samples": {"type": int, "default": DEFAULTS["samples"]},
    "--samples-per-column": {"type": int, "default": DEFAULTS["samples_per_column"]},
    "--no-merge": {"action": "store_true", "help": "export the raw stacks"},
    "--battery": {"default": "polynomial", "choices": ["polynomial", "trigonometric", "bump"]},
    "--no-doubling": {"action": "store_true"},
    "--K": {"type": float, "default": None},
}

_EXIT_BY_STATUS = {"ok": 0, "fail": 1, "usage_error": 2, "solver_error": 3}


def exit_code_from_report(report: dict) -> int:
    """Exit code as a pure function of the structured report."""
    return _EXIT_BY_STATUS[report["status"]]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _load_spec(path_or_name: str):
    p = Path(path_or_name)
    if p.is_file():
        return parse_domain(p.read_text())
    if p.suffix == "" and "/" not in path_or_name:
        return load_corpus(path_or_name)
    raise FileNotFoundError(f"spec file not found: {path_or_name}")


def _parse_t(text: str | None) -> tuple:
    if not text:
        return ()
    return tuple(float(v) for v in text.split(","))


def _fiber(args):
    """The spec and the checked parameter tuple of a single-fiber command."""
    spec = _load_spec(args.spec)
    return spec, spec.check_params(_parse_t(args.t))


def _echo(args, spec, t) -> dict:
    """The inputs a single-fiber report echoes: the domain and the seed,
    and for one fiber (``t`` not None) its parameters and resolution."""
    echo = {"domain": print_domain(spec), "seed": args.seed}
    if t is not None:
        echo.update(t=t, resolution=args.res)
    return echo


def _parse_t_list(text: str) -> list:
    return [_parse_t(chunk) for chunk in text.split(";") if chunk.strip()]


def _t_values(args, spec, grid: int = DEFAULTS["grid"]) -> list:
    if args.ts:
        return [spec.check_params(t) for t in _parse_t_list(args.ts)]
    if args.grid:
        counts = [int(v) for v in args.grid.split(",")]
        if len(counts) == 1 and spec.n_params > 1:
            counts = counts * spec.n_params
        return grid_points(spec, counts)
    if spec.n_params == 0:
        return [()]
    return grid_points(spec, [grid] * spec.n_params)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors carry their message as the
    cause of the ``SystemExit``, so that ``main`` can report them."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as exc:
            raise exc from argparse.ArgumentError(None, message)


@cache
def _out_parser() -> argparse.ArgumentParser:
    """The parser of ``--out`` alone, built once per process."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--out", **_FLAGS["--out"])
    return pre


def _out_dir(argv) -> Path:
    """``--out`` read ahead of the full parse; ``.`` when it cannot be."""
    try:
        return Path(_out_parser().parse_known_args(argv)[0].out)
    except argparse.ArgumentError:
        return Path(".")


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    spec, t = _fiber(args)
    raster = rasterize(spec, t, args.res)
    direction = args.dir if args.dir is not None else f"e{spec.ambient_dim}"
    # resolve_direction only to search: its margin sampling for an explicit
    # direction gives an alpha that check does not report
    if direction.strip().lower() == "auto":
        lam = resolve_direction(spec, direction, [t], args.seed, DIRECTIONS, SAMPLES)[0]
    else:
        lam = unit_direction(spec.ambient_dim, direction)
    checks = [verify_thickness_bound(spec, t, raster, args.p, lam, tol=args.tol)]
    for axis in range(spec.ambient_dim):
        checks.append(discrete_column_inequality(raster, axis, args.p))
    report = {
        **_echo(args, spec, t),
        "p": args.p,
        "direction": lam,
        "checks": [vars(c) for c in checks],
        "status": "ok" if all(c.passed for c in checks) else "fail",
    }
    return report, {}


def _sweep_report(args, spec, resolution):
    t_values = _t_values(args, spec)
    return sweep(
        spec,
        args.p,
        t_values,
        resolution,
        direction=args.dir,
        seed=args.seed,
        jobs=args.jobs,
        tol=args.tol,
        dirs=args.dirs,
        count=args.samples,
    )


def _sweep_files(rep):
    files = {"fibers.csv": fibers_csv_text(rep)}
    files.update(plot_data_texts(rep))
    return files


def _cmd_sweep(args):
    spec = _load_spec(args.spec)
    rep = _sweep_report(args, spec, args.res)
    report = {"sweep": rep.to_json_dict(), "status": "ok" if rep.all_passed else "fail"}
    return report, _sweep_files(rep)


def _cmd_lemma(args):
    spec = _load_spec(args.spec)
    rep = _sweep_report(args, spec, args.res)
    try:
        check = vars(verify_thickness_volume_bound(rep, K=args.K))
        status = "ok" if (check["passed"] and rep.all_passed) else "fail"
    except NotApplicableError as exc:
        check = {
            "kind": "thickness-volume-bound",
            "passed": None,
            "data": {"not_applicable": str(exc)},
        }
        status = "fail"
    report = {"sweep": rep.to_json_dict(), "check": check, "status": status}
    return report, _sweep_files(rep)


def _cmd_uniform(args):
    spec = _load_spec(args.spec)
    resolutions = [int(v) for v in args.res.split(",")]
    if len(resolutions) < 2:
        raise ValueError("uniform needs two or more --res values")
    for r in resolutions:  # every one before the first sweep runs
        check_resolution(r)
    reps = [_sweep_report(args, spec, r) for r in resolutions]
    trend = verify_uniform_trend(reps)
    status = "ok" if (trend.passed and all(r.all_passed for r in reps)) else "fail"
    report = {
        "sweeps": [r.to_json_dict() for r in reps],
        "trend": vars(trend),
        "status": status,
    }
    return report, _sweep_files(reps[-1])


def _cmd_thickness(args):
    spec, t = _fiber(args)
    raster = rasterize(spec, t, args.res)
    lam = unit_direction(spec.ambient_dim, args.dir)
    T = thickness(spec, t, lam)
    discrete = {f"axis{a}": thickness_discrete(raster, a) for a in range(spec.ambient_dim)}
    report = {
        **_echo(args, spec, t),
        "direction": lam,
        "thickness": T,
        "unbounded": math.isinf(T),
        "discrete": discrete,
        "empty": raster.empty,
        "status": "ok",
    }
    return report, {}


def _cmd_regdir(args):
    spec = _load_spec(args.spec)
    rep = find_regular_direction(spec, _t_values(args, spec, grid=3), directions=args.dirs,
                                 seed=args.seed, count=args.samples)
    report = {
        **_echo(args, spec, None),
        "search": rep.to_json_dict(),
        "status": "ok" if rep.found else "fail",
    }
    return report, {}


def _cmd_cells(args):
    spec, t = _fiber(args)
    complex_ = cell_decompose_2d(spec, t, samples_per_column=args.samples_per_column)
    raw_count = complex_.inside_cell_count()
    merged = complex_ if args.no_merge else merge_vertical(complex_)
    report = {
        **_echo(args, spec, None),
        "inside_cells_raw": raw_count,
        "inside_cells": merged.inside_cell_count(),
        "merged": not args.no_merge,
        "volume_estimate": merged.inside_volume(),
        "decomposition": merged.to_json_dict(),
        "status": "ok",
    }
    return report, {"cells.dot": merged.to_dot() + "\n"}


def _cmd_trace(args):
    spec, t = _fiber(args)
    raster = rasterize(spec, t, args.res)
    rep = trace_ratio_battery(raster, args.p, battery=args.battery, doubling=not args.no_doubling)
    report = {
        **_echo(args, spec, t),
        **vars(rep),
        "status": "ok" if rep.stable is not False else "fail",
    }
    return report, {}


def _cmd_raster(args):
    spec, t = _fiber(args)
    raster = rasterize(spec, t, args.res)
    out = Path(args.out)
    written = ["mask.bin", "mask.json"]
    write_mask(raster, out / "mask.bin", out / "mask.json")
    if spec.ambient_dim == 2:
        write_pgm(raster, out / "mask.pgm")
        written.append("mask.pgm")
    report = {
        **_echo(args, spec, t),
        "h": raster.h,
        "empty": raster.empty,
        "volume": volume(raster),
        "interior_cells": raster.interior_count,
        "files": sorted(written),
        "status": "ok",
    }
    return report, {}


# One row per command: handler, help, the flags it takes after the four
# that every command takes (in declaration order), and the keywords that
# differ from _FLAGS for this command.
_FAMILY = "--tol --ts --grid --p --res --dir --dirs --samples"
_COMMANDS = {
    "check": (_cmd_check, "single-fiber bound check plus exact discrete inequality",
              "--tol --t --p --res --dir", {"--dir": {"default": None}}),
    "sweep": (_cmd_sweep, "bound check across a parameter family", _FAMILY, {}),
    "lemma": (_cmd_lemma, "sweep plus thickness-volume ratio bound", _FAMILY + " --K", {}),
    "uniform": (_cmd_uniform, "multi-resolution sweep refinement trend", _FAMILY, {
        "--res": {"type": str, "default": "256,512", "help": "comma-separated resolutions"}}),
    "thickness": (_cmd_thickness, "directional thickness of one fiber", "--t --res --dir",
                  {"--dir": {"required": True, "help": "axis name or vector"}}),
    "regdir": (_cmd_regdir, "regular-direction search", "--ts --grid --dirs --samples", {}),
    "cells": (_cmd_cells, "2D cell decomposition export",
              "--t --samples-per-column --no-merge", {}),
    "trace": (_cmd_trace, "boundary trace ratio battery",
              "--t --p --res --battery --no-doubling", {}),
    "raster": (_cmd_raster, "rasterize one fiber and dump masks", "--t --res", {}),
}


@cache
def _build_parser() -> _Parser:
    """The parser of every command, built once per process on first use
    (about 95 ``add_argument`` calls) and reused by every later ``main``
    call; argparse keeps no state between parses."""
    ap = _Parser(prog="poincare-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, hlp, flags, changes) in _COMMANDS.items():
        sp = sub.add_parser(name, help=hlp)
        for flag in ("--spec --out --seed --jobs " + flags).split():
            sp.add_argument(flag, **{**_FLAGS[flag], **changes.get(flag, {})})
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    out_dir = _out_dir(argv)
    files: dict = {}
    error = None
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.__cause__ is None:  # --help
            return 0
        args, report, error = None, {"status": "usage_error"}, exc.__cause__
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args is not None:
            check_jobs(args.jobs)
            report, files = _COMMANDS[command][0](args)
    except SolverDivergedError as exc:
        report, error = {"status": "solver_error"}, exc
    except (SpecError, ParamOutOfRangeError, FileNotFoundError, ValueError) as exc:
        report, error = {"status": "usage_error"}, exc
    except PoincareLabError as exc:
        report, error = {"status": "fail"}, exc
    report["command"] = command
    report["error"] = (
        None if error is None else {"type": type(error).__name__, "message": str(error)}
    )
    report = jsonable(report)
    (out_dir / "report.json").write_text(canonical_json(report))
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return exit_code_from_report(report)


if __name__ == "__main__":
    raise SystemExit(main())
