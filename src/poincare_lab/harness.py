"""Parameter-family sweeps and family-level bound checks.

A sweep runs the single-fiber machinery over a grid of parameter values
with one fixed direction for the whole family (picked once by the
direction search when requested), collects per-fiber records without ever
aborting on a fiber failure, and aggregates the two family ratios:
sup_t C_p / vol^{1/n} and sup_t thickness / vol^{1/n}.  On top of the
report sit two checks: the thickness-volume ratio against a margin-derived
sufficient constant, and the stability of the constant ratio under grid
refinement.  A sweep checks ``p``, the resolution and the family
direction once, before any fiber runs, so a bad value is one error
rather than one per fiber.
Records and checks are encoded with ``errors.jsonable``.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dsl import DomainSpec, print_domain
from .errors import (
    NotApplicableError,
    PoincareLabError,
    UnboundedDirectionError,
    jsonable,
)
from .raster import check_resolution, rasterize, unit_vector, volume
from .sobolev import CheckRecord, check_p, verify_thickness_bound
from .tangent import find_regular_direction, margin, sample_boundary


@dataclass(frozen=True)
class FiberRecord:
    """Outcome of the bound check on one parameter value."""

    t: tuple
    empty: bool
    volume: float | None = None
    thickness: float | None = None
    constant: float | None = None
    bound: float | None = None
    slack: float | None = None
    passed: bool | None = None
    error: str | None = None

    @property
    def unbounded(self) -> bool:
        return self.thickness is not None and math.isinf(self.thickness)

    def to_json_dict(self):
        return jsonable(dict(vars(self), unbounded=self.unbounded))


@dataclass(frozen=True)
class SweepReport:
    """Per-fiber records plus family aggregates for one resolution."""

    domain: str
    dim: int
    p: float
    resolution: int
    direction: tuple
    direction_mode: str
    alpha: float
    seed: int
    records: tuple
    sup_constant_ratio: float | None
    sup_thickness_ratio: float | None
    worst_constant_t: tuple | None
    worst_thickness_t: tuple | None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records if r.passed is not None) and not any(
            r.error for r in self.records
        )

    def to_json_dict(self):
        return jsonable(
            dict(
                vars(self),
                records=[r.to_json_dict() for r in self.records],
                all_passed=self.all_passed,
            )
        )


def grid_points(spec: DomainSpec, counts) -> list:
    """Uniform inclusive per-axis grid over the parameter box,
    lexicographically ordered."""
    counts = [int(c) for c in counts]
    if len(counts) != spec.n_params:
        raise ValueError(
            f"expected {spec.n_params} per-axis counts, got {len(counts)}"
        )
    axes = []
    for (lo, hi), c in zip(spec.param_box, counts):
        if c < 1:
            raise ValueError("grid counts must be >= 1")
        axes.append(
            [0.5 * (lo + hi)] if c == 1 else list(np.linspace(lo, hi, c))
        )
    return [tuple(pt) for pt in itertools.product(*axes)]


def axis_direction(dim: int, name: str):
    """Unit basis vector from a name like ``e1``/``e2``."""
    if not (name[:1].lower() == "e" and name[1:].isdigit()):
        raise ValueError(
            f"direction {name!r} is not an axis name like e1 or a vector; "
            "auto applies only where a direction search runs"
        )
    idx = int(name[1:]) - 1
    if not 0 <= idx < dim:
        raise ValueError(f"axis name {name!r} out of range for dim {dim}")
    v = [0.0] * dim
    v[idx] = 1.0
    return tuple(v)


def unit_direction(dim: int, direction) -> tuple:
    """Unit vector from an axis name like ``e2`` or, through
    ``raster.unit_vector``, from a vector."""
    if isinstance(direction, str):
        return axis_direction(dim, direction)
    return tuple(unit_vector(direction, dim).tolist())


def _coarse_subgrid(t_values):
    t_sorted = sorted(t_values)
    picks = {0, len(t_sorted) // 2, len(t_sorted) - 1}
    return [t_sorted[i] for i in sorted(picks)]


def resolve_direction(
    spec: DomainSpec,
    direction,
    t_values,
    seed: int = 0,
    dirs: int = 512,
    count: int = 4096,
):
    """Fix the family direction and its pooled margin.

    ``direction`` is ``"auto"`` in any case (search once on a coarse
    parameter sub-grid and keep that vector for every fiber), an axis
    name, or an explicit vector.  This is the package's one direction
    search for a family; an explicit direction goes through
    ``unit_direction``.
    Returns (unit vector, mode, alpha).  Alpha is the pooled boundary
    margin of the sub-grid fibers at the chosen vector, 0.0 when no
    boundary samples exist.
    """
    sub = _coarse_subgrid(t_values)
    if isinstance(direction, str) and direction.lower() == "auto":
        rep = find_regular_direction(spec, sub, directions=dirs, seed=seed, count=count)
        return rep.direction, "auto", rep.alpha
    lam = unit_direction(spec.ambient_dim, direction)
    alphas = []
    for t in sub:
        try:
            samples = sample_boundary(spec, t, count=count, seed=seed)
        except PoincareLabError:
            continue
        if len(samples):
            alphas.append(margin(samples, lam))
    alpha = float(min(alphas)) if alphas else 0.0
    return lam, "explicit", alpha


def _sweep_fiber(spec, t, p, resolution, direction, tol):
    try:
        raster = rasterize(spec, t, resolution)
        if raster.empty:
            return FiberRecord(t=t, empty=True, volume=0.0)
        vol = volume(raster)
        try:
            rec = verify_thickness_bound(spec, t, raster, p, direction, tol=tol)
        except UnboundedDirectionError:
            return FiberRecord(
                t=t,
                empty=False,
                volume=vol,
                thickness=math.inf,
                error="UnboundedDirectionError: fiber unbounded along the family direction",
            )
        return FiberRecord(
            t=t,
            empty=False,
            volume=vol,
            thickness=rec.data["thickness"],
            constant=rec.data["constant"],
            bound=rec.data["bound"],
            slack=rec.data["slack"],
            passed=rec.passed,
        )
    except (PoincareLabError, ArithmeticError, ValueError) as exc:
        return FiberRecord(t=t, empty=False, error=f"{type(exc).__name__}: {exc}")


def recompute_aggregates(records, dim: int):
    """Family suprema from per-fiber records; empty and errored fibers are
    excluded.  Returns (sup C/vol^{1/n}, sup T/vol^{1/n}, argmax ts)."""
    sup_c, sup_t = None, None
    arg_c, arg_t = None, None
    for r in records:
        if r.empty or r.error or not r.volume:
            continue
        root = r.volume ** (1.0 / dim)
        if r.constant is not None:
            rc = r.constant / root
            if sup_c is None or rc > sup_c:
                sup_c, arg_c = rc, r.t
        if r.thickness is not None and math.isfinite(r.thickness):
            rt = r.thickness / root
            if sup_t is None or rt > sup_t:
                sup_t, arg_t = rt, r.t
    return sup_c, sup_t, arg_c, arg_t


def sweep(
    spec: DomainSpec,
    p: float,
    t_values,
    resolution: int,
    direction="auto",
    seed: int = 0,
    jobs: int = 1,
    tol: float | None = None,
    dirs: int = 512,
    count: int = 4096,
) -> SweepReport:
    """Run the per-fiber bound check across a parameter family.

    Records are ordered by lexicographic t.  A bad ``p``, resolution or
    direction is rejected before any fiber runs; after that, per-fiber
    failures of any kind land in the fiber's record and the sweep itself
    never aborts.
    """
    check_p(p)
    check_resolution(resolution)
    t_values = sorted(spec.check_params(t) for t in t_values)
    if not t_values:
        raise ValueError("need at least one parameter value")
    lam, mode, alpha = resolve_direction(
        spec, direction, t_values, seed=seed, dirs=dirs, count=count
    )
    args = [(spec, t, p, resolution, lam, tol) for t in t_values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_sweep_fiber_star, args))
    else:
        records = [_sweep_fiber(*a) for a in args]
    sup_c, sup_t, arg_c, arg_t = recompute_aggregates(records, spec.ambient_dim)
    return SweepReport(
        domain=print_domain(spec),
        dim=spec.ambient_dim,
        p=float(p),
        resolution=int(resolution),
        direction=lam,
        direction_mode=mode,
        alpha=alpha,
        seed=int(seed),
        records=tuple(records),
        sup_constant_ratio=sup_c,
        sup_thickness_ratio=sup_t,
        worst_constant_t=arg_c,
        worst_thickness_t=arg_t,
    )


def _sweep_fiber_star(args):
    return _sweep_fiber(*args)


def lipschitz_bound_from_margin(alpha: float) -> float:
    """Graph slope bound sqrt(1 - alpha^2)/alpha induced by margin alpha."""
    if alpha <= 0.0:
        return math.inf
    a = min(alpha, 1.0)
    return math.sqrt(max(1.0 - a * a, 0.0)) / a


def verify_thickness_volume_bound(
    report: SweepReport, K: float | None = None
) -> CheckRecord:
    """Check sup_t thickness/vol^{1/n} <= K across the family.

    When ``K`` is omitted the margin-derived sufficient constant
    4 L^{1-1/n} (1+1e-6) with L = sqrt(1-alpha^2)/alpha is used.  A family
    without a positive-margin direction has no applicable bound.
    """
    if report.alpha <= 0.0:
        raise NotApplicableError(
            "no regular direction with positive margin for this family"
        )
    dim = report.dim
    k_star = report.sup_thickness_ratio
    if k_star is None:
        raise NotApplicableError("no non-empty fibers with finite thickness")
    L = lipschitz_bound_from_margin(report.alpha)
    k_sufficient = 4.0 * L ** (1.0 - 1.0 / dim) * (1.0 + 1e-6)
    k_used = K if K is not None else k_sufficient
    return CheckRecord(
        kind="thickness-volume-bound",
        passed=bool(k_star <= k_used),
        data=jsonable(
            {
                "empirical_sup": k_star,
                "worst_t": report.worst_thickness_t,
                "alpha": report.alpha,
                "lipschitz_bound": L,
                "sufficient_K": k_sufficient,
                "K": K,
                "direction": report.direction,
            }
        ),
    )


def verify_uniform_trend(reports) -> CheckRecord:
    """Stability of sup_t C_p/vol^{1/n} under resolution refinement.

    Requires reports at two or more strictly increasing resolutions with
    the same p and direction mode.  Passes when the relative increase at
    the finest pair is at most 10%; larger growth is reported as
    inconclusive refinement (and counts as a failure).
    """
    reports = sorted(reports, key=lambda r: r.resolution)
    if len(reports) < 2:
        raise ValueError("need reports at two or more resolutions")
    resolutions = [r.resolution for r in reports]
    if len(set(resolutions)) != len(resolutions):
        raise ValueError("resolutions must be distinct")
    values = [r.sup_constant_ratio for r in reports]
    if any(v is None for v in values):
        increase = asymptote = None
        passed = False
    else:
        increase = (values[-1] - values[-2]) / values[-2]
        asymptote = 2.0 * values[-1] - values[-2]
        passed = bool(increase <= 0.10)
    return CheckRecord(
        kind="uniform-trend",
        passed=passed,
        data=jsonable(
            {
                "resolutions": resolutions,
                "values": values,
                "finest_increase": increase,
                "asymptote": asymptote,
                "inconclusive": not passed,
            }
        ),
    )


# ---------------------------------------------------------------------------
# flat-file emission
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "volume",
    "thickness",
    "constant",
    "bound",
    "slack",
)


def fibers_csv_text(report: SweepReport) -> str:
    """One row per fiber, stable column order, repr floats."""
    k = len(report.records[0].t) if report.records else 0
    header = (
        [f"t{i}" for i in range(k)]
        + ["empty"]
        + list(_CSV_COLUMNS)
        + ["passed", "error"]
    )
    lines = [",".join(header)]
    for r in report.records:
        row = [repr(float(v)) for v in r.t]
        row.append("1" if r.empty else "0")
        for col in _CSV_COLUMNS:
            v = getattr(r, col)
            row.append("" if v is None else repr(float(v)))
        row.append("" if r.passed is None else ("1" if r.passed else "0"))
        row.append("" if r.error is None else r.error.replace(",", ";"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def plot_data_texts(report: SweepReport) -> dict:
    """Two-column plot files: parameters vs C_p and vs thickness/vol^{1/n}."""
    cp_lines = []
    ratio_lines = []
    for r in report.records:
        if r.empty or r.error:
            continue
        coords = " ".join(repr(float(v)) for v in r.t)
        if r.constant is not None:
            cp_lines.append(f"{coords} {repr(float(r.constant))}")
        if (
            r.thickness is not None
            and math.isfinite(r.thickness)
            and r.volume
        ):
            ratio = r.thickness / r.volume ** (1.0 / report.dim)
            ratio_lines.append(f"{coords} {repr(float(ratio))}")
    return {
        "plot_cp.dat": "\n".join(cp_lines) + ("\n" if cp_lines else ""),
        "plot_ratio.dat": "\n".join(ratio_lines) + ("\n" if ratio_lines else ""),
    }
