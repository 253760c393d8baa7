"""Command-line front door.

Subcommands: check, sweep, lemma, uniform, thickness, regdir, cells,
trace, raster.  Every run writes ``report.json`` (and command-specific
side files with stable names) under ``--out``; the exit code is a pure
function of the report's ``status`` field: 0 = all checks passed,
1 = a check failed, 2 = usage or parse error, 3 = solver failure.
Each command returns its status and results as plain values; ``main``
alone adds the ``command`` and ``error`` keys, turns exceptions into
error reports, and encodes the whole report once with
``harness.jsonable``.  All numeric defaults live in the DEFAULTS block
below; flags override them one-to-one, and ``--seed 0 --jobs 1`` runs
are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path

from .cells import cell_decompose_2d, merge_vertical
from .corpus import corpus_path
from .dsl import parse_domain, print_domain
from .errors import (
    NotApplicableError,
    ParamOutOfRangeError,
    PoincareLabError,
    SolverDivergedError,
    SpecError,
)
from .harness import (
    fibers_csv_text,
    grid_points,
    jsonable,
    plot_data_texts,
    sweep,
    unit_direction,
    verify_thickness_volume_bound,
    verify_uniform_trend,
)
from .raster import (
    rasterize,
    thickness,
    thickness_discrete,
    volume,
    write_mask,
    write_pgm,
)
from .sobolev import (
    discrete_column_inequality,
    trace_ratio_battery,
    verify_thickness_bound,
)
from .tangent import find_regular_direction

# single source of truth for every numeric default; flags override 1:1
DEFAULTS = {
    "tol": None,  # solver relative tolerance; None means each route's own default
    "step": None,  # chord-march step; None means h/4 of the fiber raster
    "samples": 4096,  # boundary samples per fiber
    "dirs": 512,  # candidate directions for the regular-direction search
    "seed": 0,
    "resolution": 256,  # cells per axis
    "grid": 5,  # per-axis parameter grid count for sweeps
    "samples_per_column": 129,  # abscissae per decomposition column
    "trials": 100,  # random fields per exact-inequality check
    "p": 2.0,
}

_EXIT_BY_STATUS = {"ok": 0, "fail": 1, "usage_error": 2, "solver_error": 3}


def exit_code_from_report(report: dict) -> int:
    """Exit code as a pure function of the structured report."""
    return _EXIT_BY_STATUS[report["status"]]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _jobs_default() -> int:
    try:
        return max(1, int(os.environ.get("POINCARE_LAB_JOBS", "1")))
    except ValueError:
        return 1


def _load_spec(path_or_name: str):
    p = Path(path_or_name)
    if p.is_file():
        return parse_domain(p.read_text())
    if p.suffix == "" and "/" not in path_or_name:
        return parse_domain(Path(str(corpus_path(path_or_name))).read_text())
    raise FileNotFoundError(f"spec file not found: {path_or_name}")


def _parse_t(text: str | None) -> tuple:
    if not text:
        return ()
    return tuple(float(v) for v in text.split(","))


def _fiber(args):
    """The spec and the checked parameter tuple of a single-fiber command."""
    spec = _load_spec(args.spec)
    return spec, spec.check_params(_parse_t(args.t))


def _parse_t_list(text: str) -> list:
    return [_parse_t(chunk) for chunk in text.split(";") if chunk.strip()]


def _parse_direction(text: str):
    low = text.strip().lower()
    if low == "auto":
        return "AUTO"
    if low.startswith("e") and low[1:].isdigit():
        return low
    return tuple(float(v) for v in text.split(","))


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


def _add_common(sp):
    sp.add_argument("--spec", required=True, help="domain file or bundled name")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    sp.add_argument("--jobs", type=int, default=None, help="worker cap (env POINCARE_LAB_JOBS)")


def _build_parser():
    ap = argparse.ArgumentParser(prog="poincare-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="single-fiber bound check plus exact discrete inequality")
    _add_common(sp)
    sp.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    sp.add_argument("--t", default="", help="comma-separated parameter values")
    sp.add_argument("--p", type=float, default=DEFAULTS["p"])
    sp.add_argument("--res", type=int, default=DEFAULTS["resolution"])
    sp.add_argument("--dir", default=None, help="axis name, vector, or auto")
    sp.add_argument("--step", type=float, default=DEFAULTS["step"])
    sp.add_argument("--trials", type=int, default=DEFAULTS["trials"])

    for name, hlp in (
        ("sweep", "bound check across a parameter family"),
        ("lemma", "sweep plus thickness-volume ratio bound"),
        ("uniform", "multi-resolution sweep refinement trend"),
    ):
        sp = sub.add_parser(name, help=hlp)
        _add_common(sp)
        sp.add_argument("--tol", type=float, default=DEFAULTS["tol"])
        sp.add_argument("--ts", default=None, help="semicolon-separated parameter tuples")
        sp.add_argument("--grid", default=None, help="per-axis grid counts, comma-separated")
        sp.add_argument("--p", type=float, default=DEFAULTS["p"])
        if name == "uniform":
            sp.add_argument("--res", default="256,512", help="comma-separated resolutions")
        else:
            sp.add_argument("--res", type=int, default=DEFAULTS["resolution"])
        sp.add_argument("--dir", default="auto", help="axis name, vector, or auto")
        sp.add_argument("--dirs", type=int, default=DEFAULTS["dirs"])
        sp.add_argument("--samples", type=int, default=DEFAULTS["samples"])
        if name == "lemma":
            sp.add_argument("--K", type=float, default=None)

    sp = sub.add_parser("thickness", help="directional thickness of one fiber")
    _add_common(sp)
    sp.add_argument("--t", default="")
    sp.add_argument("--res", type=int, default=DEFAULTS["resolution"])
    sp.add_argument("--dir", required=True)
    sp.add_argument("--step", type=float, default=DEFAULTS["step"])

    sp = sub.add_parser("regdir", help="regular-direction search")
    _add_common(sp)
    sp.add_argument("--ts", default=None, help="semicolon-separated parameter tuples")
    sp.add_argument("--grid", default=None)
    sp.add_argument("--dirs", type=int, default=DEFAULTS["dirs"])
    sp.add_argument("--samples", type=int, default=DEFAULTS["samples"])

    sp = sub.add_parser("cells", help="2D cell decomposition export")
    _add_common(sp)
    sp.add_argument("--t", default="")
    sp.add_argument("--samples-per-column", type=int, default=DEFAULTS["samples_per_column"])
    sp.add_argument("--no-merge", action="store_true", help="export the raw stacks")

    sp = sub.add_parser("trace", help="boundary trace ratio battery")
    _add_common(sp)
    sp.add_argument("--t", default="")
    sp.add_argument("--p", type=float, default=DEFAULTS["p"])
    sp.add_argument("--res", type=int, default=DEFAULTS["resolution"])
    sp.add_argument("--battery", default="polynomial",
                    choices=["polynomial", "trigonometric", "bump"])
    sp.add_argument("--no-doubling", action="store_true")

    sp = sub.add_parser("raster", help="rasterize one fiber and dump masks")
    _add_common(sp)
    sp.add_argument("--t", default="")
    sp.add_argument("--res", type=int, default=DEFAULTS["resolution"])

    return ap


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    spec, t = _fiber(args)
    raster = rasterize(spec, t, args.res)
    dir_text = args.dir if args.dir is not None else f"e{spec.ambient_dim}"
    parsed = _parse_direction(dir_text)
    if parsed == "AUTO":
        rep = find_regular_direction(
            spec, [t], directions=DEFAULTS["dirs"], seed=args.seed
        )
        lam = rep.direction
    else:
        lam = unit_direction(spec.ambient_dim, parsed)
    checks = [
        verify_thickness_bound(
            spec, t, raster, args.p, lam, step=args.step, tol=args.tol, seed=args.seed
        )
    ]
    for axis in range(spec.ambient_dim):
        checks.append(
            discrete_column_inequality(raster, axis, args.p, trials=args.trials, seed=args.seed)
        )
    report = {
        "domain": print_domain(spec),
        "t": t,
        "p": args.p,
        "resolution": args.res,
        "direction": lam,
        "seed": args.seed,
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
        direction=_parse_direction(args.dir),
        seed=args.seed,
        jobs=args.jobs if args.jobs else _jobs_default(),
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
    resolutions = [int(v) for v in str(args.res).split(",")]
    if len(resolutions) < 2:
        raise ValueError("uniform needs two or more --res values")
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
    lam = unit_direction(spec.ambient_dim, _parse_direction(args.dir))
    step = args.step if args.step is not None else (raster.h / 4.0 if not raster.empty else None)
    T = thickness(spec, t, lam, step=step)
    discrete = {
        f"axis{a}": (thickness_discrete(raster, a) if not raster.empty else 0.0)
        for a in range(spec.ambient_dim)
    }
    report = {
        "domain": print_domain(spec),
        "t": t,
        "direction": lam,
        "resolution": args.res,
        "thickness": T,
        "unbounded": math.isinf(T),
        "discrete": discrete,
        "empty": raster.empty,
        "seed": args.seed,
        "status": "ok",
    }
    return report, {}


def _cmd_regdir(args):
    spec = _load_spec(args.spec)
    rep = find_regular_direction(
        spec,
        _t_values(args, spec, grid=3),
        directions=args.dirs,
        seed=args.seed,
        count=args.samples,
    )
    report = {
        "domain": print_domain(spec),
        "seed": args.seed,
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
        "domain": print_domain(spec),
        "seed": args.seed,
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
    rep = trace_ratio_battery(
        raster, args.p, battery=args.battery, doubling=not args.no_doubling
    )
    report = {
        "domain": print_domain(spec),
        "t": t,
        "p": args.p,
        "resolution": args.res,
        "battery": rep.battery,
        "ratios": rep.ratios,
        "supremum": rep.supremum,
        "doubled_supremum": rep.doubled_supremum,
        "stable": rep.stable,
        "h": rep.h,
        "seed": args.seed,
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
        "domain": print_domain(spec),
        "t": t,
        "resolution": args.res,
        "h": raster.h,
        "empty": raster.empty,
        "volume": volume(raster),
        "interior_cells": raster.interior_count,
        "files": sorted(written),
        "seed": args.seed,
        "status": "ok",
    }
    return report, {}


_COMMANDS = {
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "lemma": _cmd_lemma,
    "uniform": _cmd_uniform,
    "thickness": _cmd_thickness,
    "regdir": _cmd_regdir,
    "cells": _cmd_cells,
    "trace": _cmd_trace,
    "raster": _cmd_raster,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict = {}
    error = None
    try:
        report, files = _COMMANDS[args.command](args)
    except SolverDivergedError as exc:
        report, error = {"status": "solver_error"}, exc
    except (
        SpecError, ParamOutOfRangeError, FileNotFoundError, ValueError, NotImplementedError
    ) as exc:
        report, error = {"status": "usage_error"}, exc
    except PoincareLabError as exc:
        report, error = {"status": "fail"}, exc
    report["command"] = args.command
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
