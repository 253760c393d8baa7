"""Discrete Sobolev machinery on rasterized fibers.

Fields live on interior cells and are implicitly extended by zero, which
models the zero-trace condition.  The gradient is the forward difference
quotient, applied as array stencils on the full raster grid to one field
or to a batch of fields at once; only the p = 2 Laplacian is assembled as
a sparse matrix.  On top of the operator this module computes discrete
Poincare constants (exact eigensolve route for p = 2, multi-start
Rayleigh-quotient descent for general p, its starts advanced in lockstep
so that one batched ratio evaluation serves them all), verifies the
thickness bound C_p <= 2^(1/p) * |Omega|_dir, checks the sharper per-axis
discrete inequality exactly, and estimates boundary-trace interpolation
ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .dsl import DomainSpec
from .errors import (
    DegenerateGeometryError,
    EmptyFiberError,
    SolverDivergedError,
    StagnationWarning,
    UnboundedDirectionError,
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
# fields and the gradient operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteField:
    """Scalar field on the interior cells of a raster (zero outside)."""

    raster: RasterDomain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.raster.interior_count:
            raise ValueError(
                f"field has {v.size} values for {self.raster.interior_count} interior cells"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, raster: RasterDomain) -> "DiscreteField":
        return cls(raster, np.zeros(raster.interior_count))

    @classmethod
    def from_function(cls, raster: RasterDomain, fn) -> "DiscreteField":
        pts = raster.interior_points()
        return cls(raster, np.asarray(fn(pts), dtype=np.float64))


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

    ``apply``, ``apply_axis`` and ``apply_transpose`` take leading batch
    axes: interior fields of shape ``(..., n_interior)`` map to gradients
    of shape ``(..., dim, n_full)`` and back.  Each row goes through the
    same elementwise operations as it would alone, so a batched result is
    byte-equal to its rows' results.
    Internally the gradient is component-major, ``(dim, ..., n_full)``, so
    that each component of a whole batch is one contiguous array; ``apply``
    returns it as a view with the component axis moved behind the batch.
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
        """Per axis: its stride in flat cells and the index of its last
        plane behind the batch axes."""
        r = self.raster
        strides = np.cumprod((1,) + r.counts[:0:-1])[::-1].tolist()
        return tuple(
            (s, (Ellipsis,) + last) for s, (_, _, last, _) in zip(strides, face_slices(r.dim))
        )

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
        """Interior values times 1/h into ``full``, flat grids (..., n_full)
        whose exterior cells are zero."""
        full[..., self._flat_interior] = values * (1.0 / self.raster.h)

    def _forward_difference(self, full: np.ndarray, axis: int, out: np.ndarray):
        """Component ``axis`` of the gradient of the scattered ``full`` into
        ``out``, both contiguous flat grids of shape (..., n_full)."""
        s, last = self._axes[axis]
        # one shifted difference runs over the whole batch; wherever it
        # pairs a cell with the next line's (or the next row's) first cell,
        # the cell is on the last plane
        flat, flat_out = full.reshape(-1), out.reshape(-1)
        np.subtract(flat[s:], flat[:-s], out=flat_out[:-s])
        # there the forward neighbour is +0.0, as np.diff(append=0)
        grid = full.shape[:-1] + self.raster.counts
        np.subtract(0.0, full.reshape(grid)[last], out=out.reshape(grid)[last])

    def _gradient(self, values: np.ndarray, full: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gradient of interior fields (..., n_interior) into ``out``, shape
        (dim, ..., n_full), through the zero-exterior flat grids ``full``."""
        self._scatter(values, full)
        for ax in range(self.raster.dim):
            self._forward_difference(full, ax, out[ax])
        return out

    def _adjoint(self, comps) -> np.ndarray:
        """Adjoint of ``_gradient``: component-major (dim, ..., n_full) to
        interior values, minus the sum over axes of the backward
        differences at the interior cells."""
        terms = []
        for c, index in zip(comps, self._adjoint_index):
            c = c.take(index, axis=-1)
            c *= 1.0 / self.raster.h
            terms.append(c[..., 0, :] - c[..., 1, :])
        out = -terms[0]
        for d in terms[1:]:
            out -= d
        return out

    def apply_axis(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Gradient component ``axis`` of interior fields, shape (..., n_full_cells)."""
        values = np.asarray(values)
        full = np.zeros(values.shape[:-1] + (self.raster.interior.size,))
        self._scatter(values, full)
        out = np.empty_like(full)
        self._forward_difference(full, axis, out)
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Gradient of interior fields, shape (..., dim, n_full_cells)."""
        values = np.asarray(values)
        full = np.zeros(values.shape[:-1] + (self.raster.interior.size,))
        out = np.empty((self.raster.dim,) + full.shape)
        return np.moveaxis(self._gradient(values, full, out), 0, -2)

    def apply_transpose(self, comps: np.ndarray) -> np.ndarray:
        """Adjoint of ``apply``: full-grid components to interior values."""
        return self._adjoint(np.moveaxis(np.asarray(comps), -2, 0))

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


def grad(op: GradientOperator, field) -> np.ndarray:
    """Forward-difference gradient; accepts a DiscreteField or a value array."""
    values = field.values if isinstance(field, DiscreteField) else np.asarray(field)
    return op.apply(values)


def lp_norm(arr, p: float, raster: RasterDomain) -> float:
    """L^p norm with cell-volume weights.  1D arrays are scalar fields;
    2D arrays (components, cells) are vector fields measured with the
    per-cell euclidean magnitude."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and at least 1, got {p}")
    if isinstance(arr, DiscreteField):
        arr = arr.values
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
    spread: float | None = None
    stagnation: bool = False

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


def poincare_p2(
    raster: RasterDomain, tol: float = 1e-8, max_outer: int = 200
) -> PoincareEstimate:
    """Discrete Poincare constant for p = 2 as lambda_min(grad^T grad)^(-1/2).

    Shifted inverse iteration with a conjugate-gradient inner solve and the
    deterministic all-ones start vector.  The final eigenvalue is the
    Rayleigh quotient of the returned eigenvector.
    """
    from scipy import sparse  # deferred: slow to import

    if raster.empty:
        raise EmptyFiberError("empty raster has no Poincare constant")
    op = build_gradient(raster)
    A = op.laplacian()
    n = A.shape[0]
    x = np.ones(n) / math.sqrt(n)
    lam = float(x @ (A @ x))
    shift = 0.0
    inner_total = 0
    rel_change = 1.0

    def estimate(iterations: int) -> PoincareEstimate:
        return PoincareEstimate(
            p=2.0,
            constant=lam ** (-0.5),
            method="inverse-iteration-cg",
            iterations=iterations,
            residual=rel_change,
            tol=tol,
            h=raster.h,
            eigenvalue=lam,
            eigenvector=x,
        )

    for outer in range(1, max_outer + 1):
        M = A if shift == 0.0 else A - shift * sparse.identity(n, format="csr")
        inner_rtol = min(1e-2, max(0.1 * rel_change, 0.01 * tol))
        try:
            y, it = _cg(lambda v: M @ v, x, rtol=inner_rtol, maxiter=20 * n)
        except ArithmeticError:
            shift *= 0.5
            continue
        inner_total += it
        ny = float(np.linalg.norm(y))
        if ny == 0.0 or not np.isfinite(ny):
            raise SolverDivergedError("inverse iteration produced a zero vector")
        x = y / ny
        lam_new = float(x @ (A @ x))
        rel_change = abs(lam_new - lam) / max(lam_new, 1e-300)
        lam = lam_new
        # a conservative shift accelerates once the estimate settles
        if outer >= 2:
            shift = 0.9 * lam
        if rel_change <= tol:
            return estimate(outer)
    raise SolverDivergedError(
        f"inverse iteration did not reach tol={tol} in {max_outer} steps",
        estimate=estimate(max_outer),
    )


# ---------------------------------------------------------------------------
# general p: Rayleigh-quotient descent
# ---------------------------------------------------------------------------

_RESTARTS = 8  # seeded random start fields, besides the p = 2 eigenvector
_STAGE_ITER = 300  # descent steps per annealed smoothing level
_FINAL_ITER = 3000  # descent steps at the declared kink smoothing


class _RatioBatch:
    """Smoothed Rayleigh ratios R(u) = ||grad u||_p / ||u||_p of batches of
    up to ``rows`` fields on one operator, at one p and field smoothing.

    Each row u of a batch ``U`` (shape (k, n)) is smoothed by its own
    gradient-magnitude ``eps_g[i]``, which the caller anneals; the field
    smoothing eps_u stays at the declared kink scale, since inflating it
    rescales the denominator and degenerates the functional.  The
    elementwise work and the row sums run once on the whole batch; the
    per-row scalars are finished as Python floats, whose ``**`` is libm
    ``pow`` (numpy's can differ in the last bit), so each row gets exactly
    the bits it would get alone.  The full-grid arrays live in scratch
    buffers allocated once: fresh ones per batch fault their pages in again
    whenever the allocator has handed the memory back in between.
    """

    def __init__(self, op: GradientOperator, p: float, eps_u: float, rows: int):
        r = op.raster
        self.op, self.p, self.eps_u = op, p, eps_u
        self.h_w = r.h**r.dim
        cells = rows * r.interior.size
        self._full = np.zeros(cells)  # only interior cells are ever written
        self._grad = np.empty(r.dim * cells)
        self._comps = np.empty(r.dim * cells)
        self._m2 = np.empty(cells)
        self._tmp = np.empty(cells)

    def _view(self, buf: np.ndarray, *shape) -> np.ndarray:
        """A contiguous prefix of a scratch buffer, shaped."""
        return buf[: math.prod(shape)].reshape(shape)

    def ratio(self, U: np.ndarray, eps_g: np.ndarray):
        """Lists of R and ||u||_p over the rows of ``U``, and the terms
        ``ratio_and_grad`` reuses for the gradient."""
        op, p, h_w = self.op, self.p, self.h_w
        k, n_full = U.shape[0], op.raster.interior.size
        G = op._gradient(
            U, self._view(self._full, k, n_full), self._view(self._grad, op.raster.dim, k, n_full)
        )
        # squared components added in axis order, as (g * g).sum(axis=0)
        M2 = np.multiply(G[0], G[0], out=self._view(self._m2, k, n_full))
        tmp = self._view(self._tmp, k, n_full)
        for g in G[1:]:
            M2 += np.multiply(g, g, out=tmp)
        M2 += (eps_g * eps_g)[:, None]
        np.copyto(tmp, M2)
        tmp **= p / 2.0  # in place, through the same scalar-power path as **
        Ng = [(s * h_w) ** (1.0 / p) for s in tmp.sum(axis=-1).tolist()]
        U2 = U * U + self.eps_u * self.eps_u
        Nu = [(s * h_w) ** (1.0 / p) for s in (U2 ** (p / 2.0)).sum(axis=-1).tolist()]
        R = [ng / nu for ng, nu in zip(Ng, Nu)]
        return R, Nu, (G, M2, Ng, U2)

    def ratio_and_grad(self, U: np.ndarray, eps_g: np.ndarray, k: int):
        """R and ||u||_p of every row of ``U``, and the gradient of R,
        shape (k, n), for its first ``k`` rows only (None when k is 0)."""
        R, Nu, (G, M2, Ng, U2) = self.ratio(U, eps_g)
        if k == 0:
            return R, None, Nu
        op, p, h_w = self.op, self.p, self.h_w
        n_full = M2.shape[-1]
        W = self._view(self._tmp, k, n_full)
        np.copyto(W, M2[:k])
        W **= p / 2.0 - 1.0
        C = np.multiply(G[:, :k], W, out=self._view(self._comps, op.raster.dim, k, n_full))
        cg = np.array([h_w * ng ** (1.0 - p) for ng in Ng[:k]])[:, None]
        cu = np.array([h_w * nu ** (1.0 - p) for nu in Nu[:k]])[:, None]
        dNg = op._adjoint(C) * cg
        dNu = U[:k] * U2[:k] ** (p / 2.0 - 1.0) * cu
        gradR = (dNg - np.array(R[:k])[:, None] * dNu) / np.array(Nu[:k])[:, None]
        return R, gradR, Nu


def _descend(u0, eps_g, max_iter, rtol):
    """Normalized gradient descent at one smoothing level, as a generator.

    Every ratio evaluation is a request ``yield (u, eps_g, want_grad)``,
    answered with ``(R, ||u||_p, gradR)``, where gradR is None unless
    asked for; ``poincare_general_p`` answers the requests of all starts
    in one batched pass.  Barzilai-Borwein trial step with Armijo
    backtracking; the line search asks for the ratio only, so just the
    accepted point pays for the gradient.  The iterate is renormalized to
    ||u||_p = 1 after every accepted step.  Returns the best ratio seen,
    the final iterate, iterations used, and the relative change of R over
    the last 10 iterations.
    """
    R, Nu, _ = yield u0, eps_g, False
    u = u0 / Nu
    best = R
    step = 1.0
    history = [R]
    resid = 1.0
    u_prev = None
    g_prev = None
    it = 0
    for it in range(1, max_iter + 1):
        R, _, gR = yield u, eps_g, True
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
            Rc, Nuc, _ = yield cand, eps_g, False
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
    """One start's descent, as a generator of ``_descend`` requests: stages
    that anneal the gradient-magnitude smoothing geometrically from the
    start field's RMS gradient down to the kink scale, then the polish at
    the declared smoothing.  Returns the best ratio over all stages, the
    polish's residual and the iterations used."""
    un = u0 / max(lp_norm(u0, p, op.raster), 1e-300)
    g0 = op.apply(un)
    eps_g = float(np.sqrt(np.mean(np.sum(g0 * g0, axis=0)))) or 1.0
    u = u0
    best = math.inf
    total_it = 0
    while eps_g > 10.0 * eps_u:
        b, u, it, _ = yield from _descend(u, eps_g, _STAGE_ITER, 1e-8)
        best = min(best, b)
        total_it += it
        eps_g *= 0.3
    b, u, it, resid = yield from _descend(u, eps_u, _FINAL_ITER, tol)
    return min(best, b), resid, total_it + it


def poincare_general_p(
    raster: RasterDomain,
    p: float,
    tol: float = 1e-6,
    seed: int = 0,
) -> PoincareEstimate:
    """Discrete Poincare constant for general p >= 1 by multi-start
    normalized descent on the Rayleigh ratio ||grad u||_p / ||u||_p.

    The kink smoothing is 1e-9 * h.  Because the p = 1 landscape is
    piecewise linear, each trajectory anneals the gradient-magnitude
    smoothing geometrically from the start field's RMS gradient down to the
    kink scale before the final polish at the declared smoothing; this lets
    plateau-type optimizers form instead of jamming the line search at the
    first kink.  Starts are eight seeded random fields plus the p = 2
    eigenvector; the result is the best ratio over all trajectories, so the
    constant is a certified lower bound for the discrete supremum.
    A spread above 5 percent between restart outcomes is flagged as
    stagnation (reported, not fatal).

    The starts advance in lockstep.  Each start is a ``_trajectory``
    generator that yields its ratio requests; each tick stacks the pending
    request of every unfinished trajectory into one batch, gradient
    requests first, answers them with one ``_RatioBatch.ratio_and_grad``
    pass and sends every trajectory its own row.  Every trajectory still
    runs exactly its own floating-point operations in its own order, so
    the result equals that of running the starts one after another, and
    a tick costs about as many numpy calls as one start's step.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster has no Poincare constant")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and at least 1, got {p}")
    op = build_gradient(raster)
    eps_u = 1e-9 * raster.h
    rng = np.random.default_rng(seed)
    n = raster.interior_count

    starts = [rng.uniform(-1.0, 1.0, n) for _ in range(_RESTARTS)]
    eig = poincare_p2(raster, tol=min(1e-6, tol))
    starts.append(eig.eigenvector.copy())

    trajectories = [_trajectory(op, u0, p, eps_u, tol) for u0 in starts]
    batch = _RatioBatch(op, p, eps_u, rows=len(trajectories))
    pending = {i: next(t) for i, t in enumerate(trajectories)}
    outcomes = [None] * len(trajectories)
    while pending:
        live = sorted(pending, key=lambda i: not pending[i][2])
        k = sum(pending[i][2] for i in live)
        U = np.stack([pending[i][0] for i in live])
        eps_g = np.array([pending[i][1] for i in live])
        R, gradR, Nu = batch.ratio_and_grad(U, eps_g, k)
        for j, i in enumerate(live):
            try:
                pending[i] = trajectories[i].send((R[j], Nu[j], gradR[j] if j < k else None))
            except StopIteration as done:
                outcomes[i] = done.value
                del pending[i]

    finals = [ratio for ratio, _, _ in outcomes]
    best_R = math.inf
    best_resid = 1.0
    for ratio, resid, _ in outcomes:
        if ratio < best_R:
            best_R, best_resid = ratio, resid
    spread = (max(finals) - min(finals)) / max(min(finals), 1e-300)
    stagnation = spread > 0.05
    if stagnation:
        warnings.warn(
            f"restart ratios disagree by {spread:.1%} for p={p}", StagnationWarning
        )
    return PoincareEstimate(
        p=float(p),
        constant=1.0 / best_R,
        method="rayleigh-descent",
        iterations=sum(it for _, _, it in outcomes),
        residual=best_resid,
        tol=tol,
        h=raster.h,
        spread=spread,
        stagnation=stagnation,
    )


def poincare_constant(raster: RasterDomain, p: float, tol: float | None = None, seed: int = 0) -> PoincareEstimate:
    """Route to the eigensolve for p = 2, descent otherwise."""
    if abs(p - 2.0) < 1e-12:
        return poincare_p2(raster, tol=1e-8 if tol is None else tol)
    return poincare_general_p(raster, p, tol=1e-6 if tol is None else tol, seed=seed)


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
    direction and ``EmptyFiberError`` for an empty raster.
    """
    if raster.empty:
        raise EmptyFiberError(f"empty fiber at t={list(raster.t)}")
    T = thickness(spec, t, direction, step=step if step is not None else raster.h / 4.0)
    if math.isinf(T):
        raise UnboundedDirectionError(
            f"fiber unbounded along direction {list(np.round(np.asarray(direction, float), 12))}"
        )
    if T <= 0.0:
        raise EmptyFiberError("zero thickness: no chord found")
    est = poincare_constant(raster, p, tol=tol, seed=seed)
    bound = 2.0 ** (1.0 / p) * T
    eta = 10.0 * raster.h / T
    passed = est.constant <= bound * (1.0 + eta)
    return CheckRecord(
        kind="thickness-bound",
        passed=bool(passed),
        data={
            "p": float(p),
            "direction": [float(v) for v in np.asarray(direction, float)],
            "thickness": T,
            "constant": est.constant,
            "bound": bound,
            "slack": eta,
            "bound_with_slack": bound * (1.0 + eta),
            "margin": bound * (1.0 + eta) - est.constant,
            "method": est.method,
            "residual": est.residual,
            "h": raster.h,
        },
    )


def discrete_column_inequality(
    raster: RasterDomain, axis: int, p: float, trials: int = 100, seed: int = 0
) -> CheckRecord:
    """Exact per-axis inequality ||u||_p <= T * ||D_axis u||_p with
    T the discrete thickness.  Holds with no slack for every field by a
    telescoping-and-Holder argument; each random trial is asserted at
    ratio <= 1.  Identically zero draws are skipped by convention.
    """
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
        data={
            "axis": axis,
            "p": float(p),
            "trials": trials,
            "skipped": skipped,
            "thickness_discrete": T,
            "worst_ratio": worst,
            "violations": violations,
        },
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
