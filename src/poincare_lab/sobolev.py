"""Discrete Sobolev machinery on rasterized fibers.

Fields live on interior cells and are implicitly extended by zero, which
models the zero-trace condition.  The gradient is the forward difference
quotient, applied as array stencils on the full raster grid; only the
p = 2 Laplacian is assembled as a sparse matrix.  On top of the operator
this module computes discrete Poincare constants (exact eigensolve route
for p = 2, Rayleigh-quotient descent for general p, one trajectory per
face-connected component from the p = 2 eigenvector), verifies the
thickness bound C_p <= 2^(1/p) * |Omega|_dir, checks the sharper per-axis
discrete inequality exactly, and estimates boundary-trace interpolation
ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

from .dsl import DomainSpec
from .errors import (
    DegenerateGeometryError,
    EmptyFiberError,
    SolverDivergedError,
    UnboundedDirectionError,
    jsonable,
)
from .raster import (
    RasterDomain,
    boundary_points_1d,
    boundary_polyline,
    face_slices,
    rasterize,
    thickness,
    thickness_discrete,
    volume,
)

# ---------------------------------------------------------------------------
# the gradient operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientOperator:
    """Forward-difference gradient with zero extension outside the interior.

    Applied as array stencils on the full raster grid: interior values are
    scattered by flat index into a zero grid, and component j is each
    cell's forward neighbour along axis j minus the cell, divided by h.
    On the flattened grid the forward neighbour along axis j is the cell
    ``stride_j`` further on, so each component is one shifted difference;
    on the last plane along the axis (``raster.face_slices``) the forward
    neighbour is the zero past the grid.  The exterior apron keeps every
    interior cell off the grid edge, so that zero only ever meets exterior
    cells, and every interior cell's backward neighbour, which the adjoint
    reads, lies on the grid.
    """

    raster: RasterDomain

    @property
    def h(self) -> float:
        return self.raster.h

    @cached_property
    def _flat_interior(self) -> np.ndarray:
        return np.flatnonzero(self.raster.interior)

    @cached_property
    def _axes(self) -> tuple:
        """Per axis: its stride in flat cells and the index of its last plane."""
        r = self.raster
        strides = np.cumprod((1,) + r.counts[:0:-1])[::-1].tolist()
        return tuple((s, last) for s, (_, _, last, _) in zip(strides, face_slices(r.dim)))

    @cached_property
    def _adjoint_index(self) -> np.ndarray:
        """Per axis, the flat indices of every interior cell and of its
        backward neighbour, shape (dim, 2, n_interior)."""
        r = self.raster
        fi = self._flat_interior
        index = []
        for ax, (s, _) in enumerate(self._axes):
            if ((fi // s) % r.counts[ax] == 0).any():
                raise ValueError("interior cell on the grid edge: the raster has no exterior apron")
            index.append(np.stack([fi, fi - s]))
        return np.stack(index)

    def _scatter(self, values: np.ndarray, full: np.ndarray):
        """Interior values times 1/h into ``full``, a flat grid whose
        exterior cells are zero."""
        full[self._flat_interior] = values * (1.0 / self.raster.h)

    def _forward_difference(self, full: np.ndarray, axis: int, out: np.ndarray):
        """Component ``axis`` of the gradient of the scattered ``full`` into
        ``out``, both contiguous flat grids."""
        s, last = self._axes[axis]
        # one shifted difference; wherever it pairs a cell with the next
        # line's first cell, the cell is on the last plane
        np.subtract(full[s:], full[:-s], out=out[:-s])
        # there the forward neighbour is +0.0, as np.diff(append=0)
        grid = self.raster.counts
        np.subtract(0.0, full.reshape(grid)[last], out=out.reshape(grid)[last])

    def _gradient(self, values: np.ndarray, full: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gradient of an interior field into ``out``, shape (dim, n_full),
        through the zero-exterior flat grid ``full``."""
        self._scatter(values, full)
        for ax in range(self.raster.dim):
            self._forward_difference(full, ax, out[ax])
        return out

    def _adjoint(self, comps) -> np.ndarray:
        """Adjoint of ``_gradient``: components (dim, n_full) to interior
        values, minus the sum over axes of the backward differences at the
        interior cells."""
        terms = []
        for c, index in zip(comps, self._adjoint_index):
            c = c[index]
            c *= 1.0 / self.raster.h
            terms.append(c[0] - c[1])
        out = -terms[0]
        for d in terms[1:]:
            out -= d
        return out

    def apply_axis(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Gradient component ``axis`` of an interior field, shape (n_full_cells,)."""
        full = np.zeros(self.raster.interior.size)
        self._scatter(np.asarray(values), full)
        out = np.empty_like(full)
        self._forward_difference(full, axis, out)
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Gradient of an interior field, shape (dim, n_full_cells)."""
        full = np.zeros(self.raster.interior.size)
        return self._gradient(np.asarray(values), full, np.empty((self.raster.dim, full.size)))

    def apply_transpose(self, comps: np.ndarray) -> np.ndarray:
        """Adjoint of ``apply``: full-grid components to interior values."""
        return self._adjoint(np.asarray(comps))

    def laplacian(self):
        """grad^T grad on interior cells, as a CSR matrix: the Dirichlet
        difference Laplacian.

        The diagonal is 2 * dim / h^2 for every cell, since both neighbours
        along each axis enter the differences whether inside or not; each
        pair of face-adjacent interior cells adds -1/h^2 off the diagonal.
        """
        from scipy import sparse  # deferred: slow to import

        r = self.raster
        inv_h = 1.0 / r.h
        n = r.interior_count
        col = np.full(r.counts, -1, dtype=np.int64)
        col[r.interior] = np.arange(n)
        rows, cols = [np.arange(n)], [np.arange(n)]
        for ax in range(r.dim):
            c = np.moveaxis(col, ax, 0)
            lo, hi = c[:-1], c[1:]
            both = (lo >= 0) & (hi >= 0)
            rows += [lo[both], hi[both]]
            cols += [hi[both], lo[both]]
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        data = np.full(rows.size, -(inv_h * inv_h))
        data[:n] = 2 * r.dim * (inv_h * inv_h)
        return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def build_gradient(raster: RasterDomain) -> GradientOperator:
    if raster.empty:
        raise EmptyFiberError("cannot build a gradient operator on an empty raster")
    return GradientOperator(raster)


def check_p(p: float) -> None:
    """The package's one rule for an exponent: finite and at least 1."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and at least 1, got {p}")


def check_trials(trials: int) -> None:
    """The package's one rule for a trial count: at least 1."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def lp_norm(arr, p: float, raster: RasterDomain) -> float:
    """L^p norm with cell-volume weights.  1D arrays are scalar fields;
    2D arrays (components, cells) are vector fields measured with the
    per-cell euclidean magnitude."""
    check_p(p)
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        mag = np.abs(a)
    elif a.ndim == 2:
        mag = np.sqrt(np.sum(a * a, axis=0))
    else:
        raise ValueError("expected a scalar or vector field array")
    w = raster.h**raster.dim
    return float(np.sum(mag**p) * w) ** (1.0 / p)


# ---------------------------------------------------------------------------
# p = 2: eigensolve route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoincareEstimate:
    """A computed discrete Poincare constant and how it was obtained."""

    p: float
    constant: float
    method: str
    iterations: int
    residual: float
    tol: float
    h: float
    eigenvalue: float | None = None
    eigenvector: np.ndarray | None = dc_field(default=None, repr=False, compare=False)
    # 0.0 and False for general p, which has one start per component; kept
    # because the benchmark's tracer reads them
    spread: float | None = None
    stagnation: bool = False
    inner_iterations: int = 0  # CG steps over all levels; not reported

    def __post_init__(self):
        if not (self.constant > 0.0 and np.isfinite(self.constant)):
            raise SolverDivergedError("Poincare constant must be positive and finite")


def _cg(matvec, b, rtol: float, maxiter: int):
    """Plain conjugate gradients for SPD systems from a zero start; deterministic.

    The updates run in place through one scratch buffer; ``p *= beta;
    p += r`` gives the bits of ``r + beta * p``, since IEEE addition and
    multiplication commute."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    tmp = np.empty_like(b)
    rs = float(r @ r)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    tol2 = (rtol * bnorm) ** 2
    it = 0
    while rs > tol2 and it < maxiter:
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise ArithmeticError("matrix not positive definite in CG")
        alpha = rs / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        rs_new = float(r @ r)
        p *= rs_new / rs
        p += r
        rs = rs_new
        it += 1
    return x, it


_COARSE_MIN_CELLS = 4096  # interior cells from which a coarse solve supplies the start
_COARSE_TOL = 1e-4  # the tol of that coarse solve


def _coarsen(raster: RasterDomain) -> RasterDomain:
    """The raster on cells twice as wide, with the same origin: a coarse
    cell is interior iff all of its 2^dim fine cells are, so it is still an
    inner approximation, and the exterior apron carries over."""
    inside = np.pad(raster.interior, [(0, c % 2) for c in raster.counts])
    blocks = inside.reshape(sum(((c // 2, 2) for c in inside.shape), ()))
    interior = blocks.all(axis=tuple(range(1, 2 * raster.dim, 2)))
    return replace(raster, h=2.0 * raster.h, interior=interior, resolution=raster.resolution // 2)


def _coarse_start(raster: RasterDomain):
    """The start vector of ``poincare_p2`` on a raster, and the CG steps
    spent on it; all ones when there is no coarse raster to solve."""
    coarse = _coarsen(raster) if raster.interior_count >= _COARSE_MIN_CELLS else None
    if coarse is None or coarse.empty:
        return np.ones(raster.interior_count), 0
    est = _inverse_iteration(coarse, _COARSE_TOL, 200)
    grid = np.zeros(coarse.counts)
    grid[coarse.interior] = est.eigenvector
    for ax in range(raster.dim):
        grid = np.repeat(grid, 2, axis=ax)
    x = np.abs(grid[tuple(slice(0, c) for c in raster.counts)][raster.interior])
    return x + 1e-3 * x.max(), est.inner_iterations


def poincare_p2(
    raster: RasterDomain, tol: float = 1e-8, max_outer: int = 200
) -> PoincareEstimate:
    """Discrete Poincare constant for p = 2 as lambda_min(grad^T grad)^(-1/2).

    Shifted inverse iteration with a conjugate-gradient inner solve.  On a
    raster of at least ``_COARSE_MIN_CELLS`` interior cells the start is the
    eigenvector x_c of the raster coarsened by 2^dim blocks, solved the same
    way to ``_COARSE_TOL``, prolonged by nearest coarse cell as
    |P x_c| + 1e-3 max |P x_c| (nested iteration; the floor keeps the start
    positive, so it cannot miss the first eigenvector); otherwise all ones.
    Each CG solve stops at the relative residual min(1e-2, 0.1 res), and the
    shift 0.9 lambda starts once res < 0.1.  The iteration stops when the
    eigen-residual res = ||A x - lambda x|| / lambda is at most sqrt(tol) / 10,
    so the Rayleigh quotient's relative error, about res^2 lambda / gap, is
    far below ``tol``.  ``residual`` is that res, ``iterations`` counts the
    fine level's outer steps (at most ``max_outer``) and ``inner_iterations``
    the CG steps of every level.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster has no Poincare constant")
    return _inverse_iteration(raster, tol, max_outer)


def _inverse_iteration(raster: RasterDomain, tol: float, max_outer: int) -> PoincareEstimate:
    """``poincare_p2`` on a nonempty raster; recursive through ``_coarse_start``."""
    from scipy import sparse  # deferred: slow to import

    x, inner_total = _coarse_start(raster)
    # assembled after the coarse solve, so no two levels' matrices coexist
    A = build_gradient(raster).laplacian()
    n = A.shape[0]
    x /= np.linalg.norm(x)
    lam = float(x @ (A @ x))
    shift = 0.0
    res = 1.0

    def estimate(iterations: int) -> PoincareEstimate:
        return PoincareEstimate(
            p=2.0,
            constant=lam ** (-0.5),
            method="inverse-iteration-cg",
            iterations=iterations,
            residual=res,
            tol=tol,
            h=raster.h,
            eigenvalue=lam,
            eigenvector=x,
            inner_iterations=inner_total,
        )

    for outer in range(1, max_outer + 1):
        M = A if shift == 0.0 else A - shift * sparse.identity(n, format="csr")
        try:
            y, it = _cg(lambda v: M @ v, x, rtol=min(1e-2, 0.1 * res), maxiter=20 * n)
        except ArithmeticError:
            shift *= 0.5
            continue
        inner_total += it
        ny = float(np.linalg.norm(y))
        if ny == 0.0 or not np.isfinite(ny):
            raise SolverDivergedError("inverse iteration produced a zero vector")
        x = y / ny
        Ax = A @ x
        lam = float(x @ Ax)
        res = float(np.linalg.norm(Ax - lam * x)) / lam
        # a conservative shift accelerates once the eigenvector settles
        if res < 0.1:
            shift = 0.9 * lam
        if res <= math.sqrt(tol) / 10.0:
            return estimate(outer)
    raise SolverDivergedError(
        f"inverse iteration did not reach tol={tol} in {max_outer} steps",
        estimate=estimate(max_outer),
    )


# ---------------------------------------------------------------------------
# general p: Rayleigh-quotient descent
# ---------------------------------------------------------------------------

_STAGE_ITER = 300  # descent steps per annealed smoothing level
_FINAL_ITER = 3000  # descent steps at the declared kink smoothing


class _Ratio:
    """Smoothed Rayleigh ratio R(u) = ||grad u||_p / ||u||_p of one field
    on one operator, at one p and field smoothing.

    The gradient magnitude is smoothed by ``eps_g``, which the caller
    anneals; the field smoothing eps_u stays at the declared kink
    scale, since inflating it rescales the denominator and degenerates the
    functional.  The scalars are finished as Python floats, whose ``**`` is
    libm ``pow`` (numpy's can differ in the last bit).  The full-grid
    arrays live in scratch buffers allocated once: fresh ones per call
    fault their pages in again whenever the allocator has handed the
    memory back in between.
    """

    def __init__(self, op: GradientOperator, p: float, eps_u: float):
        r = op.raster
        self.op, self.p, self.eps_u = op, p, eps_u
        self.h_w = r.h**r.dim
        self._full = np.zeros(r.interior.size)  # only interior cells are ever written
        self._grad = np.empty((r.dim, r.interior.size))
        self._comps = np.empty((r.dim, r.interior.size))
        self._m2 = np.empty(r.interior.size)
        self._tmp = np.empty(r.interior.size)

    def _terms(self, u: np.ndarray, eps_g: float):
        """R, ||u||_p and the terms ``value_and_grad`` reuses."""
        p, h_w, tmp = self.p, self.h_w, self._tmp
        G = self.op._gradient(u, self._full, self._grad)
        # squared components added in axis order, as (g * g).sum(axis=0)
        M2 = np.multiply(G[0], G[0], out=self._m2)
        for g in G[1:]:
            M2 += np.multiply(g, g, out=tmp)
        M2 += eps_g * eps_g
        np.copyto(tmp, M2)
        tmp **= p / 2.0  # in place, through the same scalar-power path as **
        Ng = (float(tmp.sum()) * h_w) ** (1.0 / p)
        U2 = u * u + self.eps_u * self.eps_u
        Nu = (float((U2 ** (p / 2.0)).sum()) * h_w) ** (1.0 / p)
        return Ng / Nu, Nu, (G, M2, Ng, U2)

    def value(self, u: np.ndarray, eps_g: float):
        """R and ||u||_p."""
        R, Nu, _ = self._terms(u, eps_g)
        return R, Nu

    def value_and_grad(self, u: np.ndarray, eps_g: float):
        """R, ||u||_p and the gradient of R."""
        R, Nu, (G, M2, Ng, U2) = self._terms(u, eps_g)
        p, h_w, W = self.p, self.h_w, self._tmp
        np.copyto(W, M2)
        W **= p / 2.0 - 1.0
        dNg = self.op._adjoint(np.multiply(G, W, out=self._comps)) * (h_w * Ng ** (1.0 - p))
        dNu = u * U2 ** (p / 2.0 - 1.0) * (h_w * Nu ** (1.0 - p))
        return R, Nu, (dNg - R * dNu) / Nu


def _descend(ratio: _Ratio, u0, eps_g, max_iter, rtol):
    """Normalized gradient descent at one smoothing level.

    Barzilai-Borwein trial step with Armijo backtracking; the line search
    asks for the ratio only, so just the accepted point pays for the
    gradient.  The iterate is renormalized to ||u||_p = 1 after every
    accepted step.  Returns the best ratio seen, the final iterate,
    iterations used, and the relative change of R over the last 10
    iterations.
    """
    R, Nu = ratio.value(u0, eps_g)
    u = u0 / Nu
    best = R
    step = 1.0
    history = [R]
    resid = 1.0
    u_prev = None
    g_prev = None
    it = 0
    for it in range(1, max_iter + 1):
        R, _, gR = ratio.value_and_grad(u, eps_g)
        gnorm2 = float(gR @ gR)
        if gnorm2 == 0.0:
            resid = 0.0
            break
        if g_prev is not None:
            s = u - u_prev
            y = gR - g_prev
            sy = float(s @ y)
            if sy > 1e-300:
                step = max(float(s @ s) / sy, 1e-12)
        u_prev = u
        g_prev = gR
        accepted = False
        st = step
        for _ in range(50):
            cand = u - st * gR
            Rc, Nuc = ratio.value(cand, eps_g)
            if Rc <= R - 1e-4 * st * gnorm2:
                u = cand / Nuc
                R = Rc
                accepted = True
                break
            st *= 0.5
        if not accepted:
            resid = 0.0
            break
        best = min(best, R)
        history.append(R)
        if len(history) > 10:
            resid = abs(history[-11] - R) / max(R, 1e-300)
            if resid <= rtol:
                break
    return best, u, it, resid


def _trajectory(op: GradientOperator, u0: np.ndarray, p: float, eps_u: float, tol: float):
    """One start's descent: stages that anneal the gradient-magnitude
    smoothing geometrically from the start field's RMS gradient down to the
    kink scale, then the polish at the declared smoothing.  Returns the
    best ratio over all stages, the polish's residual and the iterations
    used."""
    ratio = _Ratio(op, p, eps_u)
    un = u0 / max(lp_norm(u0, p, op.raster), 1e-300)
    g0 = op.apply(un)
    eps_g = float(np.sqrt(np.mean(np.sum(g0 * g0, axis=0)))) or 1.0
    u = u0
    best = math.inf
    total_it = 0
    while eps_g > 10.0 * eps_u:
        b, u, it, _ = _descend(ratio, u, eps_g, _STAGE_ITER, 1e-8)
        best = min(best, b)
        total_it += it
        eps_g *= 0.3
    b, u, it, resid = _descend(ratio, u, eps_u, _FINAL_ITER, tol)
    return min(best, b), resid, total_it + it


def poincare_general_p(raster: RasterDomain, p: float, tol: float = 1e-6) -> PoincareEstimate:
    """Discrete Poincare constant for general p >= 1 by normalized descent
    on the Rayleigh ratio ||grad u||_p / ||u||_p, one trajectory per
    face-connected component of the interior.

    The kink smoothing is 1e-9 * h.  Because the p = 1 landscape is
    piecewise linear, each trajectory anneals the gradient-magnitude
    smoothing geometrically from the start field's RMS gradient down to the
    kink scale before the final polish at the declared smoothing; this lets
    plateau-type optimizers form instead of jamming the line search at the
    first kink.  The gradient couples only face neighbours, so the problem
    separates over the face-connected components, and on a connected domain
    the first p-Laplacian eigenfunction is simple and positive (Lindqvist,
    Proc. AMS 1990).  So each component gets one start: the p = 2
    eigenvector restricted to it.  The result is the best ratio over the
    trajectories; it comes from an explicit field, so the constant is a
    certified lower bound for the discrete supremum.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster has no Poincare constant")
    check_p(p)
    from scipy import ndimage  # deferred: slow to import

    op = build_gradient(raster)
    eps_u = 1e-9 * raster.h
    labels, count = ndimage.label(raster.interior)  # face connectivity, as the gradient
    labels = labels[raster.interior]
    eig = poincare_p2(raster, tol=min(1e-6, tol)).eigenvector
    outcomes = [
        _trajectory(op, np.where(labels == k, eig, 0.0), p, eps_u, tol)
        for k in range(1, count + 1)
    ]
    best_R, best_resid, _ = min(outcomes, key=lambda o: o[0])
    return PoincareEstimate(
        p=float(p),
        constant=1.0 / best_R,
        method="rayleigh-descent",
        iterations=sum(it for _, _, it in outcomes),
        residual=best_resid,
        tol=tol,
        h=raster.h,
        spread=0.0,
    )


def poincare_constant(raster: RasterDomain, p: float, tol: float | None = None) -> PoincareEstimate:
    """Route to the eigensolve for p = 2, descent otherwise."""
    if abs(p - 2.0) < 1e-12:
        return poincare_p2(raster, tol=1e-8 if tol is None else tol)
    return poincare_general_p(raster, p, tol=1e-6 if tol is None else tol)


# ---------------------------------------------------------------------------
# the thickness bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one verification check, JSON-friendly."""

    kind: str
    passed: bool
    data: dict


def verify_thickness_bound(
    spec: DomainSpec,
    t,
    raster: RasterDomain,
    p: float,
    direction,
    step: float | None = None,
    tol: float | None = None,
    seed: int = 0,
) -> CheckRecord:
    """Check C_p <= 2^(1/p) * |Omega_t|_dir * (1 + eta_h) on one fiber.

    The discretization allowance is eta_h = 10 h / |Omega_t|_dir.  Raises
    ``UnboundedDirectionError`` when the fiber is unbounded along the
    direction and ``EmptyFiberError`` for an empty raster.  ``seed`` is
    unused: the solvers draw no random numbers; it stays for callers that
    still pass it.
    """
    if raster.empty:
        raise EmptyFiberError(f"empty fiber at t={list(raster.t)}")
    T = thickness(spec, t, direction, step=step if step is not None else raster.h / 4.0)
    if math.isinf(T):
        raise UnboundedDirectionError(
            f"fiber unbounded along direction {np.round(np.asarray(direction, float), 12).tolist()}"
        )
    if T <= 0.0:
        raise EmptyFiberError("zero thickness: no chord found")
    est = poincare_constant(raster, p, tol=tol)
    bound = 2.0 ** (1.0 / p) * T
    eta = 10.0 * raster.h / T
    passed = est.constant <= bound * (1.0 + eta)
    return CheckRecord(
        kind="thickness-bound",
        passed=bool(passed),
        data=jsonable({
            "p": float(p),
            "direction": np.asarray(direction, float),
            "thickness": T,
            "constant": est.constant,
            "bound": bound,
            "slack": eta,
            "bound_with_slack": bound * (1.0 + eta),
            "margin": bound * (1.0 + eta) - est.constant,
            "method": est.method,
            "residual": est.residual,
            "h": raster.h,
        }),
    )


def discrete_column_inequality(
    raster: RasterDomain, axis: int, p: float, trials: int = 100, seed: int = 0
) -> CheckRecord:
    """Exact per-axis inequality ||u||_p <= T * ||D_axis u||_p with
    T the discrete thickness.  Holds with no slack for every field by a
    telescoping-and-Holder argument; each random trial is asserted at
    ratio <= 1.  Identically zero draws are skipped by convention.
    """
    check_trials(trials)
    if raster.empty:
        raise EmptyFiberError("empty raster")
    op = build_gradient(raster)
    T = thickness_discrete(raster, axis)
    rng = np.random.default_rng(seed)
    worst = 0.0
    skipped = 0
    violations = []
    for k in range(trials):
        u = rng.uniform(-1.0, 1.0, raster.interior_count)
        nu = lp_norm(u, p, raster)
        if nu == 0.0:
            skipped += 1
            continue
        du = lp_norm(np.abs(op.apply_axis(u, axis))[None, :], p, raster)
        ratio = nu / (T * du)
        worst = max(worst, ratio)
        if ratio > 1.0:
            violations.append({"trial": k, "ratio": ratio})
    return CheckRecord(
        kind="discrete-column-inequality",
        passed=not violations,
        data=jsonable({
            "axis": axis,
            "p": float(p),
            "trials": trials,
            "skipped": skipped,
            "thickness_discrete": T,
            "worst_ratio": worst,
            "violations": violations,
        }),
    )


# ---------------------------------------------------------------------------
# boundary trace ratios
# ---------------------------------------------------------------------------


def _one_sided_gradient(raster: RasterDomain, vals_grid: np.ndarray) -> np.ndarray:
    """Per-axis derivative estimates using interior-to-interior differences
    only (no zero extension): forward where possible, else backward, else 0.
    Each face difference is formed once and kept where both its cells are
    interior, as the tail cell's backward and the head cell's forward one."""
    inter = raster.interior
    out = np.zeros((raster.dim,) + raster.counts)
    for ax, (head, tail, _, _) in enumerate(face_slices(raster.dim)):
        both = inter[head] & inter[tail]
        face = np.where(both, (vals_grid[tail] - vals_grid[head]) / raster.h, 0.0)
        out[ax][tail] = face
        np.copyto(out[ax][head], face, where=both)
    return out


def _battery_functions(raster: RasterDomain, battery: str):
    """Ambient test functions as callables on point arrays."""
    dim = raster.dim
    lo = np.asarray(raster.origin)
    spans = np.array([c * raster.h for c in raster.counts])
    mid = lo + spans / 2.0
    scale = 2.0 / spans.max()

    fns = []
    if battery == "polynomial":
        fns.append(("one", lambda q: np.ones(q.shape[0])))
        for i in range(dim):
            fns.append((f"x{i}", lambda q, i=i: (q[:, i] - mid[i]) * scale))
            fns.append(
                (f"x{i}^2", lambda q, i=i: ((q[:, i] - mid[i]) * scale) ** 2)
            )
        if dim >= 2:
            fns.append(
                (
                    "x0*x1",
                    lambda q: (q[:, 0] - mid[0]) * (q[:, 1] - mid[1]) * scale**2,
                )
            )
            fns.append(
                (
                    "x0+x1",
                    lambda q: ((q[:, 0] - mid[0]) + (q[:, 1] - mid[1])) * scale,
                )
            )
    elif battery == "trigonometric":
        fns.append(("cos0", lambda q: np.cos(scale * (q[:, 0] - mid[0]))))
        fns.append(("sin0", lambda q: np.sin(2.0 * scale * (q[:, 0] - mid[0]))))
        if dim >= 2:
            fns.append(
                (
                    "coscos",
                    lambda q: np.cos(scale * (q[:, 0] - mid[0]))
                    * np.cos(scale * (q[:, 1] - mid[1])),
                )
            )
            fns.append(
                (
                    "sincos",
                    lambda q: np.sin(2.0 * scale * (q[:, 0] - mid[0]))
                    * np.cos(scale * (q[:, 1] - mid[1])),
                )
            )
    elif battery == "bump":
        # distance-like profiles vanishing within a few cells of the boundary
        from scipy import ndimage  # deferred: slow to import, needed only here

        edt = ndimage.distance_transform_edt(raster.interior) * raster.h
        idx_axes = [raster.axis_centers(i) for i in range(dim)]

        def make_bump(r0, power):
            def f(q):
                ij = []
                for i in range(dim):
                    k = np.clip(
                        np.round((q[:, i] - idx_axes[i][0]) / raster.h).astype(int),
                        0,
                        raster.counts[i] - 1,
                    )
                    ij.append(k)
                d = edt[tuple(ij)]
                return np.maximum(0.0, d - r0) ** power

            return f

        fns.append(("bump4h", make_bump(4.0 * raster.h, 1)))
        fns.append(("bump8h^2", make_bump(8.0 * raster.h, 2)))
    else:
        raise ValueError(f"unknown battery {battery!r}")
    return fns


@dataclass(frozen=True)
class TraceReport:
    """Trace-interpolation ratios R(phi) = ||phi||_boundary /
    (||phi||_p^(1-1/p) * ||phi||_W^(1/p)) over a battery of functions."""

    p: float
    battery: str
    ratios: dict
    supremum: float
    doubled_supremum: float | None
    stable: bool | None
    h: float


def trace_ratio_battery(
    raster: RasterDomain, p: float, battery: str = "polynomial", doubling: bool = True
) -> TraceReport:
    """Measure boundary-trace interpolation ratios for ambient smooth
    functions sampled without zero extension.

    Each function is evaluated once on all cell centers, which gives both
    its interior values and the one-sided interior differences; the
    W-norm adds their ``lp_norm``s.  The boundary norm integrates |phi|^p
    over the extracted boundary (polyline segments in 2D, crossing points
    in 1D), where the function is evaluated once more.  When ``doubling``
    is set, the battery is re-run at twice the resolution and the
    supremum's stability (within 10 percent) is recorded.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster")
    if raster.dim == 3:
        raise NotImplementedError("trace ratios are implemented for dim 1 and 2")

    if raster.dim == 2:
        segs = boundary_polyline(raster)
        if segs.shape[0] == 0:
            raise DegenerateGeometryError("degenerate boundary extraction: no polyline")
        mids = 0.5 * (segs[:, 0] + segs[:, 1])
        weights = np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1)
    else:
        pts = boundary_points_1d(raster)
        if pts.size == 0:
            raise DegenerateGeometryError("degenerate boundary extraction: no crossings")
        mids = pts.reshape(-1, 1)
        weights = np.ones(pts.size)

    grid_pts = raster.centers().reshape(-1, raster.dim)
    ratios = {}
    for name, fn in _battery_functions(raster, battery):
        vals_grid = fn(grid_pts).reshape(raster.counts)
        n_p = lp_norm(vals_grid[raster.interior], p, raster)
        if n_p == 0.0:
            continue
        g = _one_sided_gradient(raster, vals_grid)
        n_w = n_p + lp_norm(g[:, raster.interior], p, raster)
        n_b = float(np.sum(np.abs(fn(mids)) ** p * weights)) ** (1.0 / p)
        ratios[name] = n_b / (n_p ** (1.0 - 1.0 / p) * n_w ** (1.0 / p))

    if not ratios:
        raise DegenerateGeometryError("battery produced no usable function")
    sup = max(ratios.values())

    doubled = None
    stable = None
    if doubling:
        r2 = rasterize(raster.spec, raster.t, raster.resolution * 2)
        rep2 = trace_ratio_battery(r2, p, battery, doubling=False)
        doubled = rep2.supremum
        stable = abs(doubled - sup) <= 0.1 * max(sup, 1e-300)
    return TraceReport(
        p=float(p),
        battery=battery,
        ratios=ratios,
        supremum=sup,
        doubled_supremum=doubled,
        stable=stable,
        h=raster.h,
    )
