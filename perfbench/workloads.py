"""The three benchmark workloads and the checks on their outputs.

A workload is a list of operations.  Each operation calls into
poincare_lab the way a user would (library calls for the solver
workloads, in-process ``cli.main`` calls for the geometry workload) and
returns an ``Outcome``: a digest of everything it produced, the checks it
failed, and its relative errors against closed-form values.  Tolerances
are the acceptance suite's (tests/test_acceptance.py), unchanged.

The workload seed drives the solver and sampling seeds and the random
thickness directions; the oracle fibers stay fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import jn_zeros

from poincare_lab import cli, corpus, harness, raster, sobolev
from run import SPECS

SQRT3 = math.sqrt(3.0)


@dataclass
class Outcome:
    """What one operation produced and how it fared against its checks."""

    digest: str
    problems: list = field(default_factory=list)
    oracle_errs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    name: str
    run: object  # callable(seed, out_dir) -> Outcome


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _oracle(out: Outcome, label: str, value, exact: float, tol: float | None):
    """Record |value - exact| / exact; a tolerance of None records only."""
    if value is None or not math.isfinite(value):
        out.problems.append(f"{label}: no finite value ({value!r})")
        return
    err = abs(value - exact)
    out.oracle_errs[label] = err / abs(exact)
    if tol is not None and err > tol:
        out.problems.append(f"{label}: {value!r} vs {exact!r}, error {err:.3e} > {tol:.3e}")


# ---------------------------------------------------------------------------
# p2-family: criterion-01 eigen targets and criterion-07 uniform sweeps
# ---------------------------------------------------------------------------


def _eigen_target(spec, name: str, res: int, exact: float, rel_tol: float) -> Op:
    def run(seed, out_dir):
        est = sobolev.poincare_p2(raster.rasterize(spec, (), res))
        out = Outcome(_digest([est.constant, est.iterations, est.residual]))
        _oracle(out, f"C2 {name}@{res}", est.constant, exact, rel_tol * exact)
        return out

    return Op(f"eigen {name}@{res}", run)


def _uniform_sweeps(spec, name: str, resolutions) -> Op:
    def run(seed, out_dir):
        ts = harness.grid_points(spec, (5,))
        reps = [
            harness.sweep(spec, 2.0, ts, res, direction="e2", seed=seed, jobs=1)
            for res in resolutions
        ]
        out = Outcome(_digest([r.to_json_dict() for r in reps]))
        for rep in reps:
            for rec in rep.records:
                where = f"{name}@{rep.resolution} t={list(rec.t)}"
                if rec.error or rec.empty or rec.unbounded:
                    out.problems.append(f"{where}: skipped ({rec.error or 'empty'})")
                elif rec.passed is not True:
                    out.problems.append(f"{where}: bound check failed")
        trend = harness.verify_uniform_trend(reps)
        inc = trend.data["finest_increase"]
        if not trend.passed or inc is None or abs(inc) > 0.10:
            out.problems.append(f"{name}: uniform trend {trend.data}")
        return out

    return Op(f"uniform {name}@{','.join(map(str, resolutions))}", run)


def p2_family(specs, seed: int, smoke: bool) -> tuple:
    targets = [
        ("interval", 2048, 1.0 / math.pi, 0.01),
        ("square", 512, 1.0 / (math.pi * math.sqrt(2.0)), 0.01),
        ("disk", 512, 1.0 / float(jn_zeros(0, 1)[0]), 0.02),
    ]
    resolutions = (256, 512)
    if smoke:
        targets = [(n, r // 4, e, tol) for n, r, e, tol in targets]
        resolutions = (32, 64)
    ops = [_eigen_target(specs[n], n, r, e, tol) for n, r, e, tol in targets]
    ops += [_uniform_sweeps(specs[n], n, resolutions) for n in ("ellipse", "cusp")]
    return tuple(ops)


# ---------------------------------------------------------------------------
# general-p: the descent route through verify_thickness_bound
# ---------------------------------------------------------------------------


def _bound_check(spec, name: str, res: int, p: float, axis: int, oracle) -> Op:
    direction = (1.0, 0.0) if axis == 1 else (0.0, 1.0)

    def run(seed, out_dir):
        r = raster.rasterize(spec, (), res)
        rec = sobolev.verify_thickness_bound(spec, (), r, p, direction, seed=seed)
        out = Outcome(_digest(rec.data))
        if not rec.passed:
            out.problems.append(f"bound check failed: {rec.data}")
        if oracle is not None:
            _oracle(out, f"C{p:g} {name}@{res}", rec.data["constant"], oracle, None)
        return out

    return Op(f"bound {name}@{res} p={p:g} e{axis}", run)


def general_p(specs, seed: int, smoke: bool) -> tuple:
    disk_res, square_res = (13, 17) if smoke else (25, 33)
    return (
        # oracle C_1 = 1/Cheeger(unit disk) = 0.5; reported, no tolerance yet
        _bound_check(specs["disk"], "disk", disk_res, 1.0, 2, 0.5),
        # one constant solved twice, as criterion 02 does per axis
        _bound_check(specs["square"], "square", square_res, 3.0, 1, None),
        _bound_check(specs["square"], "square", square_res, 3.0, 2, None),
    )


# ---------------------------------------------------------------------------
# geometry-cli: in-process CLI calls that keep the solvers small
# ---------------------------------------------------------------------------


def _cli_op(name: str, argv: list, expect_exit: int = 0, check=None) -> Op:
    def run(seed, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
        code = cli.main(
            [*argv, "--out", str(out_dir), "--seed", str(seed), "--jobs", "1"]
        )
        out = Outcome(_dir_digest(out_dir))
        if code != expect_exit:
            out.problems.append(f"exit code {code}, expected {expect_exit}")
        report = json.loads((out_dir / "report.json").read_text())
        if report.get("error"):
            out.problems.append(f"error: {report['error']}")
        elif check is not None:
            check(report, out)
        return out

    return Op(name, run)


def _thickness_check(label: str, exact, tol):
    def check(report, out):
        if report["unbounded"]:
            out.problems.append(f"{label}: unexpected unbounded direction")
        elif exact is not None:
            _oracle(out, label, report["thickness"], exact, tol)
        elif not report["thickness"] > 0.0:
            out.problems.append(f"{label}: thickness {report['thickness']!r}")

    return check


def _cells_check(want):
    def check(report, out):
        if want is not None and report["inside_cells_raw"] != want:
            out.problems.append(f"{report['inside_cells_raw']} cells, expected {want}")

    return check


def _trace_check(report, out):
    root2 = math.sqrt(2.0)
    if abs(report["ratios"]["one"] - root2) > 0.03 * root2:
        out.problems.append(f"constant ratio {report['ratios']['one']!r} vs sqrt(2)")


def _status_ok(report, out):
    if report["status"] != "ok":
        out.problems.append(f"status {report['status']}")


def _random_directions(rng, count: int) -> list:
    dirs = []
    for _ in range(count):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        dirs.append(f"{float(v[0])!r},{float(v[1])!r}")
    return dirs


def geometry_cli(specs, seed: int, smoke: bool) -> tuple:
    res = 64 if smoke else 256
    grid = "3" if smoke else "9"
    rng = np.random.default_rng(seed)
    h = 1.0 / 256.0  # default 2D seed spacing on the cusp's unit box
    ops = [
        _cli_op("regdir cusp", ["regdir", "--spec", "cusp", "--grid", grid], 0),
        _cli_op("regdir ellipse", ["regdir", "--spec", "ellipse", "--grid", grid], 1),
        _cli_op("regdir disk", ["regdir", "--spec", "disk"], 1),
    ]
    oracles = {"square": None, "disk": (2.0, 1e-3), "annulus": (SQRT3, 1e-2), "slit_disk": None}
    for shape, oracle in oracles.items():
        exact, tol = oracle if oracle else (None, None)
        for k, d in enumerate(_random_directions(rng, 5)):
            label = f"thickness {shape} dir{k}"
            ops.append(
                _cli_op(
                    label,
                    ["thickness", "--spec", shape, f"--dir={d}", "--res", str(res)],
                    check=_thickness_check(label, exact, tol),
                )
            )
    for tv in ("0.1", "0.5", "1.0"):
        label = f"thickness cusp t={tv}"
        ops.append(
            _cli_op(
                label,
                ["thickness", "--spec", "cusp", "--t", tv, "--dir", "0,1", "--res", str(res)],
                check=_thickness_check(label, float(tv), 2.0 * h),
            )
        )
    for shape, want in (
        ("disk", 1), ("two_disks", 2), ("annulus", 4), ("split_disk", None), ("slit_disk", None)
    ):
        ops.append(_cli_op(f"cells {shape}", ["cells", "--spec", shape], check=_cells_check(want)))
    for shape, battery in (
        ("disk", "polynomial"), ("annulus", "polynomial"), ("square", "polynomial"), ("disk", "bump")
    ):
        check = _trace_check if (shape, battery) == ("disk", "polynomial") else None
        ops.append(
            _cli_op(
                f"trace {shape} {battery}",
                ["trace", "--spec", shape, "--res", str(res), "--battery", battery],
                check=check,
            )
        )
    ops += [
        _cli_op("raster disk", ["raster", "--spec", "disk", "--res", "512" if smoke else "2048"]),
        _cli_op(
            "check annulus",
            ["check", "--spec", "annulus", "--p", "2", "--res", "32" if smoke else "128"],
            check=_status_ok,
        ),
        _cli_op(
            "lemma ellipse",
            ["lemma", "--spec", "ellipse", "--dir", "auto", "--grid", "3" if smoke else "5",
             "--res", "32" if smoke else "128"],
            check=_status_ok,
        ),
    ]
    return tuple(ops)


BUILDERS = {"p2-family": p2_family, "general-p": general_p, "geometry-cli": geometry_cli}


def build(name: str, seed: int, smoke: bool) -> tuple:
    """Parse the workload's specs and list its operations."""
    specs = {n: corpus.load_corpus(n) for n in SPECS[name]}
    return BUILDERS[name](specs, seed, smoke)
