"""Discrete Sobolev machinery on rasterized fibers.

Fields live on interior cells and are implicitly extended by zero, which
models the zero-trace condition.  The gradient is the forward difference
quotient, applied as array stencils on the full raster grid; only the
p = 2 Laplacian is assembled as a sparse matrix.  On top of the operator
this module computes discrete Poincare constants (LOBPCG with a V-cycle
for p = 2, Rayleigh-quotient descent for general p, one trajectory per
face-connected component from the p = 2 eigenvector), verifies the
thickness bound C_p <= 2^(1/p) * |Omega|_dir, checks the sharper per-axis
discrete inequality exactly, and estimates boundary-trace interpolation
ratios in any dimension, on the boundary quadrature of the line kernel.
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
    _longest_run,
    boundary_quadrature,
    rasterize,
    thickness,
    thickness_discrete,
    volume,
)

# ---------------------------------------------------------------------------
# the gradient operator
# ---------------------------------------------------------------------------


def _strides(counts: tuple) -> list:
    """Per axis, the flat offset of a cell's forward neighbour on a C-order
    grid of shape ``counts``."""
    return np.cumprod((1,) + counts[:0:-1])[::-1].tolist()


def _neighbours(rank: np.ndarray, inside: np.ndarray, o: int) -> np.ndarray:
    """``rank[k + o]`` for every cell ``k`` of the flat mask ``inside``, in
    flat order: one contiguous slice of the flat grid ``rank``, compressed
    by the mask.  For ``o`` plus or minus an axis's stride, ``k + o`` is the
    face neighbour of ``k`` under the apron rule (``RasterDomain``)."""
    lo, hi = max(o, 0), rank.size + min(o, 0)
    return rank[lo:hi][inside[lo - o : hi - o]]


@dataclass(frozen=True)
class GradientOperator:
    """Forward-difference gradient with zero extension outside the interior.

    Applied as array stencils on the full raster grid: interior values are
    scattered by flat index into a zero grid, and component j is each
    cell's forward neighbour along axis j minus the cell, divided by h.
    On the flattened grid the forward neighbour along axis j is the cell
    ``stride_j`` further on, so each component is one shifted difference,
    and the adjoint reads each interior cell's backward neighbour
    ``stride_j`` back; both rest on the apron rule (``RasterDomain``).
    """

    raster: RasterDomain

    @property
    def h(self) -> float:
        return self.raster.h

    @cached_property
    def _flat_interior(self) -> np.ndarray:
        return np.flatnonzero(self.raster.interior)

    @cached_property
    def _adjoint_index(self) -> np.ndarray:
        """Per axis, the flat indices of every interior cell and of its
        backward neighbour, shape (dim, 2, n_interior), written in place so
        that building it holds nothing beside it."""
        fi = self._flat_interior
        strides = _strides(self.raster.counts)
        index = np.empty((len(strides), 2, fi.size), dtype=fi.dtype)
        for s, (here, behind) in zip(strides, index):
            here[...] = fi
            np.subtract(fi, s, out=behind)
        return index

    def _adjoint(self, comps: np.ndarray, out: np.ndarray, pair: np.ndarray) -> np.ndarray:
        """Adjoint of ``apply`` into ``out``: components (dim, n_full) to
        interior values, minus the sum over axes of the backward differences
        at the interior cells.  ``pair``, shape (2, n_interior), takes each
        axis's components at the cells and at their backward neighbours."""
        inv_h = 1.0 / self.raster.h
        for ax, (c, index) in enumerate(zip(comps, self._adjoint_index)):
            # every index is valid: "clip" only skips take's buffered check
            c.take(index, out=pair, mode="clip")
            pair *= inv_h
            here = np.subtract(pair[0], pair[1], out=pair[0])
            if ax == 0:
                np.negative(here, out=out)
            else:
                out -= here
        return out

    def apply_transpose(self, comps: np.ndarray) -> np.ndarray:
        """Adjoint of ``apply``, into a fresh array (``_adjoint``)."""
        n = self.raster.interior_count
        return self._adjoint(np.asarray(comps), np.empty(n), np.empty((2, n)))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Gradient of an interior field, shape (dim, n_full_cells)."""
        return _Stencil(self, np.empty((self.raster.dim, self.raster.interior.size)))(values)

    def laplacian(self):
        """grad^T grad on interior cells, as a CSR matrix: the Dirichlet
        difference Laplacian.

        The diagonal is 2 * dim / h^2 for every cell, since both neighbours
        along each axis enter the differences whether inside or not; each
        pair of face-adjacent interior cells adds -1/h^2 off the diagonal.
        The CSR arrays are assembled directly from whole-grid slices.  On
        the flat grid of interior ranks, -1 outside, the neighbours at flat
        offset o of all interior cells are one column (``_neighbours``).
        Adding the 2 * dim + 1 presence columns (rank >= 0) counts each
        row's entries and, before the cell itself, the entries left of its
        diagonal.  A row's columns are its
        interior face neighbours and itself in ascending flat order, so the
        matrix is in canonical format and the column order, which fixes the
        bits of ``A @ x``, is that of a sorted COO conversion.
        """
        from scipy import sparse  # deferred: slow to import

        r = self.raster
        inv_h = 1.0 / r.h
        n = r.interior_count
        index = np.int32 if (2 * r.dim + 1) * n < 2**31 else np.int64
        inside = r.interior.reshape(-1)
        rank = np.full(inside.size, -1, dtype=index)
        rank[inside] = np.arange(n, dtype=index)
        strides = _strides(r.counts)
        # slot dim is the cell itself; the others its neighbours, flat order
        offsets = [-s for s in strides] + [0] + strides[::-1]
        nbr = np.empty((n, len(offsets)), dtype=index)
        count = np.zeros(n, dtype=index)
        for j, o in enumerate(offsets):
            if j == r.dim:
                left = count.copy()
            column = _neighbours(rank, inside, o)
            count += column >= 0
            nbr[:, j] = column
        # each work array goes as soon as it is used, so that the peak stays
        # near the matrix's own size
        del rank, column
        indices = nbr[nbr >= 0]
        del nbr
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(count, out=indptr[1:])
        del count
        left += indptr[:-1]  # the diagonal's place in indices
        data = np.full(indices.size, -(inv_h * inv_h))
        data[left] = 2 * r.dim * (inv_h * inv_h)
        return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


class _Stencil:
    """``GradientOperator``'s forward differences bound to one output
    ``out``, shape (dim, n_full), which it zeroes once.  The scaled interior
    values and the zero-exterior flat grid they are scattered into are
    buffers it owns, and per axis the views of the shifted difference are
    taken once, so an application allocates nothing and looks nothing up.
    The last ``stride_j`` cells of axis j's row, whose forward neighbour is
    past the grid, are never written: they stay +0.0, as in
    ``np.diff(append=0)``, while callers scale ``out`` by finite weights
    only.  Where the shifted difference pairs a last-plane cell with the
    next line's first cell, both are exterior (``RasterDomain``), so it
    writes that same +0.0."""

    def __init__(self, op: GradientOperator, out: np.ndarray):
        r = op.raster
        self.out, self.index, self.inv_h = out, op._flat_interior, 1.0 / r.h
        out.fill(0.0)
        self.scaled = np.empty(r.interior_count)
        self.full = full = np.zeros(r.interior.size)  # only interior cells are ever written
        self.axes = tuple((full[s:], full[:-s], row[:-s]) for s, row in zip(_strides(r.counts), out))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        self.full[self.index] = np.multiply(values, self.inv_h, out=self.scaled)
        for ahead, here, diff in self.axes:
            np.subtract(ahead, here, out=diff)
        return self.out


def build_gradient(raster: RasterDomain) -> GradientOperator:
    if raster.empty:
        raise EmptyFiberError("cannot build a gradient operator on an empty raster")
    return GradientOperator(raster)


def check_p(p: float) -> None:
    """The package's one rule for an exponent: finite and at least 1."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and at least 1, got {p}")


def check_tol(tol: float) -> None:
    """The package's one rule for a solver tolerance: finite and above 0."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and greater than 0, got {tol}")


def _squared_magnitude(comps: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The per-cell squared magnitude of the components ``comps`` (rows),
    into ``out``: squared components added in axis order, as
    ``np.sum(comps * comps, axis=0)``; ``tmp`` is scratch of the same size."""
    np.multiply(comps[0], comps[0], out=out)
    for c in comps[1:]:
        out += np.multiply(c, c, out=tmp)
    return out


def lp_norm(arr, p: float, raster: RasterDomain, work=()) -> float:
    """L^p norm with cell-volume weights.  1D arrays are scalar fields;
    2D arrays (components, cells) are vector fields measured with the
    per-cell euclidean magnitude.

    The magnitudes are formed in ``work``, n-sized float arrays the call
    may overwrite, one for a scalar field and two for a vector field, and
    allocated when not given; all later steps are in place: under a low
    mmap threshold every fresh array faults its pages in again.  The
    caller's array is only read."""
    check_p(p)
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        mag = np.abs(a, out=work[0] if work else None)
    elif a.ndim == 2:
        mag = _squared_magnitude(a, *(work or (np.empty_like(a[0]), np.empty_like(a[0]))))
        np.sqrt(mag, out=mag)
    else:
        raise ValueError("expected a scalar or vector field array")
    mag **= p  # in place, through the same scalar-power path as **
    w = raster.h**raster.dim
    return float(np.sum(mag) * w) ** (1.0 / p)


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

    def __post_init__(self):
        if not (self.constant > 0.0 and np.isfinite(self.constant)):
            raise SolverDivergedError("Poincare constant must be positive and finite")


_MAX_OUTER = 200  # LOBPCG steps
P2_TOL = 1e-8  # default tol of the p = 2 eigensolve
# squared Cholesky pivot of the scaled V^T V at which a vector is dropped: at
# 1e-6 interval@4096's second step drops p (3e-11) and no solve takes a step more
_GRAM_DROP = 1e-6


def _coarsen(raster: RasterDomain) -> RasterDomain:
    """The raster on cells twice as wide, with the same origin: a coarse
    cell is interior iff all of its 2^dim fine cells are, so it is still an
    inner approximation, and the exterior apron carries over.

    The mask is the AND of the fine mask's 2^dim strided corner views, one
    per place of a fine cell in its coarse cell, written into the coarse
    cells whose fine cells all lie on the grid.  Along an odd axis the last
    coarse plane has only one fine plane, as if the grid were padded by an
    exterior one, and stays exterior."""
    half = [c // 2 for c in raster.counts]
    interior = np.zeros([c - k for c, k in zip(raster.counts, half)], dtype=bool)
    paired = interior[tuple(slice(k) for k in half)]
    corners = [
        raster.interior[tuple(slice(i, 2 * k, 2) for i, k in zip(corner, half))]
        for corner in np.ndindex((2,) * raster.dim)
    ]
    np.logical_and(corners[0], corners[1], out=paired)
    for view in corners[2:]:
        paired &= view
    return replace(raster, h=2.0 * raster.h, interior=interior, resolution=raster.resolution // 2)


def _parent_map(fine: RasterDomain, coarse: RasterDomain) -> np.ndarray:
    """Per interior cell of ``fine``, in flat order, the rank of its cell in
    ``coarse = _coarsen(fine)``, or the count of coarse interior cells
    where that cell is exterior.

    The coarse ranks are laid out once at the fine resolution along the
    last axis, each repeated for the two fine cells there; broadcast along
    the other axes over the fine mask split into pairs of planes, and
    compressed by that mask, they come out in flat order.  The last plane
    of an odd axis, which has no pair, is exterior (``RasterDomain``).  The
    layout holds 32-bit ranks, so it is no larger than a grid of 64-bit
    coarse ranks; only the result is widened to ``intp``."""
    half = [c // 2 for c in fine.counts]
    n = coarse.interior_count
    rank = np.int32 if n < 2**31 else np.int64
    ranks = np.full(half + [2], n, dtype=rank)
    ranks[..., 0][coarse.interior[tuple(slice(k) for k in half)]] = np.arange(n, dtype=rank)
    ranks[..., 1] = ranks[..., 0]
    pairs = fine.interior[tuple(slice(2 * k) for k in half)].reshape(
        sum(((k, 2) for k in half[:-1]), ()) + (2 * half[-1],)
    )
    ranks = ranks.reshape(sum(((k, 1) for k in half[:-1]), ()) + (2 * half[-1],))
    return np.broadcast_to(ranks, pairs.shape)[pairs].astype(np.intp)


def _product(A, x: np.ndarray, out: np.ndarray):
    """A function of no arguments that writes ``A @ x`` into ``out``, for a
    CSR matrix, with the kernel and its operands looked up once.  It runs
    the kernel that ``A @ x`` runs, which adds into its output, on ``out``
    zeroed first, so the bits are those of ``A @ x``.  That kernel is
    private to scipy; where a release moves it, ``out`` takes a copy of
    ``A @ x``, the same bits at the cost of an allocation."""
    try:
        from scipy.sparse._sparsetools import csr_matvec  # deferred: slow to import
    except ImportError:
        return lambda: np.copyto(out, A @ x)
    operands = (A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)

    def product():
        out.fill(0.0)
        csr_matvec(*operands)

    return product


class _Level:
    """One level of the V-cycle: its Laplacian, the damped-Jacobi step
    omega / diagonal, its iterate and residual buffers and, unless it is the
    last level, the map to its coarse level and the buffer of the restricted
    residual.  Every level vector has one slot past its cells, held at zero
    in the iterate: ``parent`` sends there the fine cells whose coarse cell
    is exterior.  So every index in ``parent`` lies in [0, n] for the n + 1
    slots of the coarse iterate, and the prolongation's gather runs
    ``np.take`` with ``mode="clip"``, which never moves such an index and
    gives the bits of the default ``mode="raise"``; in that mode numpy
    buffers ``take(out=)``, a whole n-vector allocated and freed per cycle.
    The views of the cells, ``cells_x`` and ``cells_r``, and the product of
    A with the iterate, which goes into the residual buffer (``_product``),
    are bound once, so a sweep allocates no n-vector and looks nothing up."""

    def __init__(self, raster: RasterDomain, A):
        n = A.shape[0]
        self.A = A
        self.jacobi = 0.8 * raster.h**2 / (2 * raster.dim)
        self.x = np.zeros(n + 1)
        self.r = np.zeros(n + 1)
        self.cells_x, self.cells_r = self.x[:-1], self.r[:-1]
        self.product = _product(A, self.cells_x, self.cells_r)
        self.parent = None  # per cell, the index of its coarse cell
        self.restricted = None

    def residual(self, b: np.ndarray):
        """r = b - A x, in the residual buffer."""
        self.product()
        np.subtract(b, self.cells_r, out=self.cells_r)

    def smooth(self, b: np.ndarray, sweeps: int):
        x, r = self.cells_x, self.cells_r
        for _ in range(sweeps):
            self.residual(b)
            r *= self.jacobi
            x += r


class _VCycle:
    """One V-cycle of cell-centred multigrid on a raster's ``_coarsen``
    hierarchy, as a preconditioner for its Laplacian ``A`` (Trottenberg,
    Oosterlee and Schueller, *Multigrid*, 2001).

    Each level's operator is that raster's own ``laplacian()``; the finest
    is ``A`` itself.  Prolongation P injects each coarse cell's value into its
    2^dim fine cells, and a fine cell whose coarse cell is exterior gets 0;
    restriction is R = P^T / 2^dim.  The smoother is damped Jacobi
    (omega = 0.8) on the constant diagonal 2 dim / h^2, two sweeps before
    the coarse correction and two after.  Coarsening goes on until it
    leaves no interior cell; the last level is only smoothed.  The
    post-smoother is the pre-smoother's adjoint and R is a positive
    multiple of P^T, so the cycle is symmetric positive definite, which is
    all that LOBPCG asks of a preconditioner.  The result is returned in a
    buffer that the next call overwrites, the finest level's iterate; each
    call writes that level's residual buffer before it reads it, so the
    buffer is free between calls.  A cycle allocates no n-vector:
    every residual's product with A is written into the level's residual
    buffer and subtracted from b there, and the prolongation gathers the
    coarse iterate into that buffer with the unbuffered clipped ``np.take``
    (see ``_Level``) before adding it to the fine iterate.

    The hierarchy is built from whole-grid slices, with no per-cell
    coordinate arrays: each coarse mask from ``_coarsen``'s corner views,
    each map to the coarse level from ``_parent_map``'s broadcast ranks,
    and each coarse operator by the ``laplacian()`` that built ``A``.
    """

    def __init__(self, raster: RasterDomain, A):
        self.restriction_weight = 0.5**raster.dim  # R = P^T / 2^dim
        self.levels = [_Level(raster, A)]
        while True:
            coarse = _coarsen(raster)
            n = coarse.interior_count
            if n == 0:
                break
            fine = self.levels[-1]
            fine.parent = _parent_map(raster, coarse)
            fine.restricted = np.zeros(n + 1)
            raster = coarse
            self.levels.append(_Level(raster, build_gradient(raster).laplacian()))

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(0, b)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        level = self.levels[k]
        x, r = level.cells_x, level.cells_r
        np.multiply(b, level.jacobi, out=x)  # the first sweep, from zero
        level.smooth(b, 1)
        if level.parent is not None:
            level.residual(b)
            level.restricted.fill(0.0)
            np.add.at(level.restricted, level.parent, r)
            level.restricted *= self.restriction_weight
            self._cycle(k + 1, level.restricted[:-1])
            # unbuffered, and every index is valid (see _Level)
            x += np.take(self.levels[k + 1].x, level.parent, out=r, mode="clip")
        level.smooth(b, 2)
        return x


def _rayleigh_ritz(GA: np.ndarray, GB: np.ndarray) -> tuple:
    """The lowest Ritz pair of A on a raw basis V = [x, w, p] from the Gram
    matrices GA = V^T A V and GB = V^T V alone: the coefficients y on V,
    with y^T GB y = 1, y[0] >= 0 and 0 on a dropped vector, and the
    relative Ritz gap (theta2 - theta1) / theta1, None on x alone.

    Both are scaled to unit diagonal (Duersch, Shao, Yang and Gu, SIAM J.
    Sci. Comput. 40(5), 2018).  A vector of zero norm is dropped, then p
    and then w while the scaled GB is numerically singular: its Cholesky
    factorization fails or leaves a squared pivot (the share of a vector's
    squared norm outside the span of those before it) of at most
    ``_GRAM_DROP``.  Closer than that, the scaled GA's rounding, about
    eps cond(A) (6e-9 at interval@8192), and the large cancelling
    coefficients that the tracked products keep spoil the step.  What is
    left is solved as L^-1 GA L^-T by ``eigh``.
    """
    norms = np.sqrt(np.diag(GB))
    kept = [0] + [k for k in (1, 2) if norms[k] > 0.0]
    while True:
        scale = 1.0 / norms[kept]
        block, unit = np.ix_(kept, kept), np.outer(scale, scale)
        try:
            L = np.linalg.cholesky(GB[block] * unit)
            if len(kept) == 1 or np.diag(L).min() ** 2 > _GRAM_DROP:
                break
        except np.linalg.LinAlgError:
            pass
        kept.pop()  # p, then w
    Linv = np.linalg.inv(L)
    theta, z = np.linalg.eigh(Linv @ (GA[block] * unit @ Linv.T))
    y = np.zeros(3)
    y[kept] = scale * (Linv.T @ z[:, 0])
    gap = (theta[1] - theta[0]) / theta[0] if len(kept) > 1 else None
    return (-y if y[0] < 0.0 else y), gap


def poincare_p2(raster: RasterDomain, tol: float = P2_TOL) -> PoincareEstimate:
    """Discrete Poincare constant for p = 2 as lambda_min(grad^T grad)^(-1/2).

    Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001) from the
    all-ones start.  Each step takes w, one V-cycle (``_VCycle``) applied to
    the residual A x - lambda x, and p, the previous step's direction, and
    takes the lowest Ritz pair of A on the raw basis (x, w, p) from its two
    3 x 3 Gram matrices, with no orthonormalization (``_rayleigh_ritz``,
    which drops p and then w while the basis is numerically dependent).  The
    Ritz vector, with a coefficient on x of at least 0 and unit norm, is the
    next x, and its part outside x the next p; its x.Ax and x.x come from
    the small problem, so lambda = x.Ax / x.x costs no pass over x.  The
    V-cycle runs on the hierarchy of ``_coarsen``ed rasters, built once per
    solve: each level's own Laplacian, injection P with R = P^T / 2^dim, two
    damped-Jacobi sweeps before and after the coarse correction, down to
    the last level whose coarsening has no cells.  The iteration stops when
    the eigen-residual res = ||A x - lambda x|| / (lambda ||x||) is at most
    sqrt(tol) / 10, so the Rayleigh quotient's relative error,
    about res^2 lambda / gap, is far below ``tol`` unless the gap is small
    and the start holds much of the next eigenvector.  ``residual`` is that
    res and ``iterations`` counts the steps, each one V-cycle and one
    product with A (at most ``_MAX_OUTER``).  Past that cap the
    ``SolverDivergedError`` names the last step's relative Ritz gap
    (theta2 - theta1) / theta1, a small gap being why the stop was not met.

    Beside its set-up, the solve holds five n-vectors: x, p, Ax, Ap and one
    scratch vector, which takes the residual that the V-cycle reads.  w is
    the V-cycle's output, and A w goes into its finest level's residual
    buffer, free between cycles.  Every product with A is written into one
    of these buffers or a level's (``_product``), and the V-cycle's gather
    into a level's residual buffer, so a step allocates no n-vector: a
    fresh one per product or per cycle costs page faults whenever the
    allocator hands its pages back to the system on free.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster has no Poincare constant")
    check_tol(tol)
    A = build_gradient(raster).laplacian()
    precond = _VCycle(raster, A)
    # apart, so that the returned eigenvector holds no other buffer; w is the
    # V-cycle's output, and p = 0 is dropped at the first step
    x, Ax, p, Ap, tmp = (np.zeros(A.shape[0]) for _ in range(5))
    finest = precond.levels[0]
    Aw = finest.cells_r  # free between cycles (see _VCycle)
    GA, GB = np.zeros((3, 3)), np.zeros((3, 3))
    x += 1.0
    x /= np.linalg.norm(x)
    _product(A, x, Ax)()
    GA[0, 0], GB[0, 0] = x @ Ax, x @ x

    def rayleigh():
        # lambda = x.Ax / x.x and res, with the residual left in tmp
        lam = float(GA[0, 0] / GB[0, 0])
        np.subtract(Ax, np.multiply(x, lam, out=tmp), out=tmp)
        return lam, float(np.linalg.norm(tmp)) / (lam * math.sqrt(GB[0, 0]))

    lam, res = rayleigh()

    def estimate(iterations: int) -> PoincareEstimate:
        return PoincareEstimate(
            p=2.0,
            constant=lam ** (-0.5),
            method="lobpcg-vcycle",
            iterations=iterations,
            residual=res,
            tol=tol,
            h=raster.h,
            eigenvalue=lam,
            eigenvector=x,
        )

    for outer in range(1, _MAX_OUTER + 1):
        w = precond(tmp)
        finest.product()  # A w, into Aw
        # GA[0, 0] and GB[0, 0], x.Ax and x.x, carry over from the last step
        V, AV = (x, w, p), (Ax, Aw, Ap)
        for i, j in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            GA[i, j] = GA[j, i] = V[i] @ AV[j]
            GB[i, j] = GB[j, i] = V[i] @ V[j]
        y, gap = _rayleigh_ritz(GA, GB)
        # x.Ax and x.x of the next x, from the small problem
        GA[0, 0], GB[0, 0] = y @ GA @ y, y @ GB @ y
        # p <- y1 w + y2 p and x <- y0 x + p, Ap and Ax alike
        p *= y[2]
        p += np.multiply(w, y[1], out=tmp)
        Ap *= y[2]
        Ap += np.multiply(Aw, y[1], out=tmp)
        x *= y[0]
        x += p
        Ax *= y[0]
        Ax += Ap
        lam, res = rayleigh()
        if not math.isfinite(res):
            raise SolverDivergedError("LOBPCG produced a non-finite iterate")
        if res <= math.sqrt(tol) / 10.0:
            return estimate(outer)
    raise SolverDivergedError(
        f"LOBPCG did not reach tol={tol} in {_MAX_OUTER} steps; last relative Ritz gap "
        f"(theta2 - theta1) / theta1 = {'unknown' if gap is None else f'{gap:.3e}'}",
        estimate=estimate(_MAX_OUTER),
    )


# ---------------------------------------------------------------------------
# general p: Rayleigh-quotient descent
# ---------------------------------------------------------------------------

# default tol: the final stage stops at min(tol, 1e-10), so at this value
# it sets only the tolerance min(1e-6, tol) of the p = 2 start
GENERAL_P_TOL = 1e-6
_STAGE_ITER = 300  # descent steps per annealed smoothing level
_FINAL_ITER = 3000  # descent steps at the declared kink smoothing
_LBFGS_PAIRS = 5  # (s, y) pairs behind each L-BFGS direction


def _dot(a: np.ndarray, b: np.ndarray, work: np.ndarray) -> float:
    """Dot product with the product formed in ``work``, summed pairwise by
    ``np.add.reduce``, as ``.sum()`` sums: its bits do not depend on the
    BLAS thread count, as those of ``a @ b`` do above about 10000
    entries."""
    return float(np.add.reduce(np.multiply(a, b, out=work)))


class _Ratio:
    """Smoothed Rayleigh ratio R(u) = ||grad u||_p / ||u||_p of one field
    on one operator, at one p and field smoothing, and the gradient of the
    normalized functional f(v) = R(v / ||v||_p) that the descent minimizes.

    The gradient magnitude is smoothed by ``eps_g``, which the caller
    anneals at p = 1; the field smoothing eps_u stays at the declared kink
    scale, since inflating it rescales the denominator and degenerates the
    functional.  While ``eps_g`` is large, R is not scale-invariant, so
    the gradient of f is not that of R.  ``value`` differences the field
    once and leaves its terms in the buffers, and ``grad`` reads them
    there, so a point's gradient costs no second stencil.  The scalars are
    finished as Python floats, whose ``**`` is libm ``pow`` (numpy's can
    differ in the last bit).

    Its buffers are allocated once: on the full grid the gradient's
    components, which the stencil bound to them (``_Stencil``) writes and
    ``grad`` weights in place (every weight (M2 + eps_g^2)^(p/2 - 1) is
    finite and positive), the squared magnitude, which ``grad`` turns
    into the weight, and one scratch; on the interior cells the field's
    smoothed squares, their power, which ``grad`` reuses for dNu, and the
    pair that the adjoint gathers into.  ``grad`` writes the adjoint and the
    final combination into the caller's ``out``, so no call allocates an
    n-vector: fresh ones per call fault their pages in again whenever the
    allocator has handed the memory back in between.
    """

    def __init__(self, op: GradientOperator, p: float, eps_u: float):
        r = op.raster
        self.op, self.p, self.eps_u = op, p, eps_u
        self.h_w = r.h**r.dim
        self._grad = np.empty((r.dim, r.interior.size))
        self._stencil = _Stencil(op, self._grad)
        self._m2 = np.empty(r.interior.size)
        self._tmp = np.empty(r.interior.size)
        self._u2 = np.empty(r.interior_count)
        self._upow = np.empty(r.interior_count)
        self._pair = np.empty((2, r.interior_count))
        self._Ng = self._Nu = None

    def norm(self, u: np.ndarray) -> float:
        """||u||_p with the field smoothing, from the field alone: no
        stencil.  Leaves u * u + eps_u^2 in its buffer."""
        U2 = np.multiply(u, u, out=self._u2)
        U2 += self.eps_u * self.eps_u
        np.copyto(self._upow, U2)
        self._upow **= self.p / 2.0  # in place, through the same scalar-power path as **
        return (float(np.add.reduce(self._upow)) * self.h_w) ** (1.0 / self.p)

    def value(self, u: np.ndarray, eps_g: float) -> float:
        """R(u), with its terms kept for the next ``grad``."""
        p, tmp = self.p, self._tmp
        M2 = _squared_magnitude(self._stencil(u), self._m2, tmp)
        M2 += eps_g * eps_g
        np.copyto(tmp, M2)
        tmp **= p / 2.0
        self._Ng = (float(np.add.reduce(tmp)) * self.h_w) ** (1.0 / p)
        self._Nu = self.norm(u)
        return self._Ng / self._Nu

    def grad(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gradient of f at a normalized ``u``, (dNg - (dNg.u / Nu) dNu) / Nu,
        into ``out``, from the terms of the last ``value`` call, which must
        have been at ``u``.  It turns the squared magnitude into the weight
        and weights the components in place, so it reads each ``value``
        call's terms once."""
        p, h_w, W, dNu, dNg = self.p, self.h_w, self._m2, self._upow, out
        Ng, Nu = self._Ng, self._Nu
        W **= p / 2.0 - 1.0
        self.op._adjoint(np.multiply(self._grad, W, out=self._grad), dNg, self._pair)
        dNg *= h_w * Ng ** (1.0 - p)
        radial = _dot(dNg, u, dNu) / Nu
        np.copyto(dNu, self._u2)
        dNu **= p / 2.0 - 1.0
        dNu *= u
        dNu *= h_w * Nu ** (1.0 - p)
        dNu *= radial
        dNg -= dNu
        dNg /= Nu
        return dNg


def _lbfgs_direction(g: np.ndarray, pairs: list, q: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Nocedal's two-loop recursion (Math. Comp. 35, 1980): the inverse
    Hessian estimate from the (s, y, s.y) pairs, oldest first, applied to
    ``g``, with the initial scale s.y / y.y of the newest pair, into ``q``;
    ``work`` takes each product."""
    np.copyto(q, g)
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(_dot(s, q, work) / sy)
        q -= np.multiply(y, alphas[-1], out=work)
    if pairs:
        _, y, sy = pairs[-1]
        q *= sy / _dot(y, y, work)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += np.multiply(s, a - _dot(y, q, work) / sy, out=work)
    return q


def _descend(ratio: _Ratio, u0, eps_g, max_iter, rtol):
    """L-BFGS descent on the sphere ||u||_p = 1 at one smoothing level: it
    minimizes f(v) = R(v / ||v||_p), as Hein and Buehler's method for
    homogeneous ratios (NIPS 2010) does.

    The direction comes from the last ``_LBFGS_PAIRS`` steps; when it is
    not a descent direction the step falls back to the gradient and the
    pairs are dropped.  Armijo backtracking starts from a unit step; each
    candidate is normalized by its field norm, which needs no stencil, and
    the ratio is measured at the normalized candidate, so the line search
    tests the very f whose gradient gives the slope.  The accepted
    candidate is the last point ``ratio`` evaluated, so its gradient comes
    from the terms already in the buffers: each point is differenced once.
    Every dot product is pairwise-summed (``_dot``), so the bits do not
    depend on the BLAS thread count.  No accepted step raises R, since
    slope > 0, so the ratio returned, the last, is the least seen; with it
    come the final iterate, iterations used, and the relative change of R
    over the last 10 iterations: 0.0 only for a zero gradient, and when the
    line search fails, the last change measured (1.0 before 10 steps).

    Beside the ratio's, the descent holds its state in n-vectors allocated
    once per call: the iterate and the candidate, which swap roles when a
    candidate is accepted, so the previous iterate is still whole when the
    next step pair is formed; the gradient and the previous one, which
    swap each step; a ring of ``_LBFGS_PAIRS + 1`` slots for the (s, y)
    pairs, one free for the next pair; the direction; and one scratch for
    products.  So a step allocates no n-vector.
    """
    n = u0.size
    u, cand, g, g_prev, d, work = (np.empty(n) for _ in range(6))
    slots = [(np.empty(n), np.empty(n)) for _ in range(_LBFGS_PAIRS + 1)]
    np.divide(u0, ratio.norm(u0), out=u)
    R = ratio.value(u, eps_g)
    history = [R]
    resid = 1.0
    pairs = []  # (s, y, s.y), oldest first, in the slots
    formed = 0  # pairs kept so far: the next goes into the slot after the newest
    it = 0
    for it in range(1, max_iter + 1):
        g, g_prev = ratio.grad(u, out=g_prev), g
        gnorm2 = _dot(g, g, work)
        if gnorm2 == 0.0:
            resid = 0.0
            break
        if it > 1:
            s, y = slots[formed % len(slots)]
            np.subtract(u, cand, out=s)  # cand holds the previous iterate
            np.subtract(g, g_prev, out=y)
            sy = _dot(s, y, work)
            if sy > 1e-300:
                pairs.append((s, y, sy))
                del pairs[:-_LBFGS_PAIRS]
                formed += 1
        direction = _lbfgs_direction(g, pairs, d, work)
        slope = _dot(g, direction, work)
        if not slope > 0.0:
            direction, slope, pairs = g, gnorm2, []
        st = 1.0
        for _ in range(50):
            np.subtract(u, np.multiply(direction, st, out=cand), out=cand)
            cand /= ratio.norm(cand)
            Rc = ratio.value(cand, eps_g)
            if Rc <= R - 1e-4 * st * slope:
                u, cand, R = cand, u, Rc
                break
            st *= 0.5
        else:
            break
        history.append(R)
        if len(history) > 10:
            resid = abs(history[-11] - R) / max(R, 1e-300)
            if resid <= rtol:
                break
    return R, u, it, resid


def _trajectory(op: GradientOperator, u0: np.ndarray, p: float, eps_u: float, tol: float):
    """One start's descent at the declared smoothing, until R changes by at
    most min(tol, 1e-10) relative over 10 steps.  At p = 1, whose landscape
    is piecewise linear, stages first anneal the gradient-magnitude
    smoothing geometrically from the start field's RMS gradient down to the
    kink scale, so that plateau-type optimizers form instead of jamming the
    line search at the first kink.  Returns the best ratio over all stages,
    the last stage's residual and the iterations used."""
    ratio = _Ratio(op, p, eps_u)
    eps_g = eps_u
    if p == 1.0:
        g0 = op.apply(u0 / max(lp_norm(u0, p, op.raster), 1e-300))
        eps_g = float(np.sqrt(np.mean(np.sum(g0 * g0, axis=0)))) or 1.0
    u = u0
    best = math.inf
    total_it = 0
    while eps_g > 10.0 * eps_u:
        b, u, it, _ = _descend(ratio, u, eps_g, _STAGE_ITER, 1e-8)
        best = min(best, b)
        total_it += it
        eps_g *= 0.3
    b, u, it, resid = _descend(ratio, u, eps_u, _FINAL_ITER, min(tol, 1e-10))
    return min(best, b), resid, total_it + it


def poincare_general_p(
    raster: RasterDomain, p: float, tol: float = GENERAL_P_TOL
) -> PoincareEstimate:
    """Discrete Poincare constant for general p >= 1 by descent on the
    normalized Rayleigh ratio f(v) = R(v / ||v||_p), R(u) = ||grad u||_p /
    ||u||_p, one trajectory per face-connected component of the interior.

    The kink smoothing is 1e-9 * h.  Each trajectory is L-BFGS descent
    (``_descend``) on the sphere ||u||_p = 1 at that smoothing, run until
    R changes by at most min(tol, 1e-10) relative over 10 steps; the line
    search measures f at normalized candidates, and the accepted point's
    terms give its gradient, so each point is differenced once.  Only at
    p = 1, whose landscape is piecewise linear, does it first anneal the
    gradient-magnitude smoothing geometrically from the start field's RMS
    gradient down to the kink scale (``_trajectory``).  The gradient
    couples only face neighbours, so the problem separates over the
    face-connected components, and on a connected domain the first
    p-Laplacian eigenfunction is simple and positive (Lindqvist, Proc. AMS
    1990).  So each component gets one start: the p = 2 eigenvector
    restricted to it.  The result is the best ratio over the trajectories;
    it comes from an explicit field, so the constant is a certified lower
    bound for the discrete supremum.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster has no Poincare constant")
    check_p(p)
    check_tol(tol)
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
        return poincare_p2(raster, tol=P2_TOL if tol is None else tol)
    return poincare_general_p(raster, p, tol=GENERAL_P_TOL if tol is None else tol)


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
    T = thickness(spec, t, direction)
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


def discrete_column_inequality(raster: RasterDomain, axis: int, p: float) -> CheckRecord:
    """Exact per-axis inequality ||u||_p <= T * ||D_axis u||_p with T the
    discrete thickness, which holds for every field by a telescoping-and-
    Holder argument along each column of at most T / h cells.  The check
    measures the ratio ||u||_p / (T * ||D_axis u||_p) of the extremal
    fields on the first longest run of n cells along ``axis``: the
    indicator (ratio 1/2 at p = 1) and the sine mode sin(pi k / (n + 1))
    (ratio 1 / (2 n sin(pi / (2n + 2))) at p = 2, above 1/pi), and passes
    when the larger ratio is at most 1.  ``column_constant`` is c_p(n):
    n h / 2 at p = 1, h / (2 sin(pi / (2n + 2))) at p = 2, and the Holder
    bound (h / 2) n^(1/p) (n + 1)^(1 - 1/p) otherwise.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster")
    T = thickness_discrete(raster, axis)
    row, start, end = _longest_run(raster, axis)
    n, h = end - start, raster.h
    field = np.zeros(raster.counts)
    grid = np.moveaxis(field, axis, -1)
    column = grid[np.unravel_index(row, grid.shape[:-1])]  # a view into field
    op = build_gradient(raster)
    worst = 0.0
    for profile in (1.0, np.sin(np.pi * np.arange(1, n + 1) / (n + 1))):
        column[start:end] = profile
        u = field[raster.interior]
        du = lp_norm(np.abs(op.apply(u)[axis])[None, :], p, raster)
        worst = max(worst, lp_norm(u, p, raster) / (T * du))
    if p == 1.0:
        c = n * h / 2.0
    elif p == 2.0:
        c = h / (2.0 * math.sin(math.pi / (2 * n + 2)))
    else:
        c = h / 2.0 * n ** (1.0 / p) * (n + 1) ** (1.0 - 1.0 / p)
    return CheckRecord(
        kind="discrete-column-inequality",
        passed=worst <= 1.0,
        data=jsonable({
            "axis": axis,
            "p": float(p),
            "thickness_discrete": T,
            "run_cells": n,
            "column_constant": c,
            "worst_ratio": worst,
        }),
    )


# ---------------------------------------------------------------------------
# boundary trace ratios
# ---------------------------------------------------------------------------

# rows per block of a battery function written into a caller's buffer: a
# few block temporaries of 32 KB stay within the heap glibc keeps on a trim
_TRACE_BLOCK = 4096


def _trace_stencil(raster: RasterDomain):
    """The interior cells as the trace battery sees them, built once per
    raster, in the order of ``raster.interior``'s nonzeros: their centres,
    shape (n_interior, dim); per axis the position ``nb`` of each cell's
    one-sided neighbour, shape (dim, n_interior), which is the forward
    neighbour if it is interior, else the backward one if that is, else
    the cell itself; and per axis the positions ``back`` of the cells whose
    neighbour is not the forward one.  ``nb`` is int32, half the memory
    of numpy's index type; the trace battery widens one axis at a time
    into a buffer it owns.  The neighbours are read from the flat grid of
    interior ranks, -1 outside (``_neighbours``)."""
    inter, dim = raster.interior, raster.dim
    inside = inter.reshape(-1)
    own = np.arange(np.count_nonzero(inter))
    rank = np.full(inside.size, -1, dtype=np.int32)
    rank[inside] = own
    pts = np.empty((dim, own.size))
    nb = np.empty((dim, own.size), dtype=np.int32)
    back = []
    for ax, s in enumerate(_strides(raster.counts)):
        along = [1] * dim
        along[ax] = -1
        pts[ax] = np.broadcast_to(raster.axis_centers(ax).reshape(along), raster.counts)[inter]
        behind, ahead = _neighbours(rank, inside, -s), _neighbours(rank, inside, s)
        nb[ax] = own
        np.copyto(nb[ax], behind, where=behind >= 0)
        np.copyto(nb[ax], ahead, where=ahead >= 0)
        back.append(np.flatnonzero(ahead < 0))
    return pts.T, nb, back


def _pointwise(f):
    """The battery callable ``fn(q, out=None)`` of the pointwise function
    ``f`` of the rows of ``q``.  It writes ``f`` of blocks of
    ``_TRACE_BLOCK`` rows into ``out`` (a fresh array if not given), with
    the bits of one call on all rows, so every temporary is block-sized:
    fresh n-sized ones fault their pages in again whenever glibc trims the
    heap after freeing them."""

    def fn(q, out=None):
        out = np.empty(q.shape[0]) if out is None else out
        for a in range(0, q.shape[0], _TRACE_BLOCK):
            out[a : a + _TRACE_BLOCK] = f(q[a : a + _TRACE_BLOCK])
        return out

    return fn


def _battery_functions(raster: RasterDomain, battery: str):
    """Ambient test functions as callables ``fn(q, out=None)`` on point
    arrays (``_pointwise``).  The polynomial and trigonometric ones are
    centred on the bounding box and scaled by its longest span, so a raster
    and its doubled raster see the same functions."""
    dim = raster.dim
    lo, hi = np.transpose(raster.spec.bounding_box)
    mid = lo + (hi - lo) / 2.0
    scale = 2.0 / (hi - lo).max()

    fns = []
    if battery == "polynomial":
        fns.append(("one", lambda q: np.ones(q.shape[0])))
        for i in range(dim):
            fns.append((f"x{i}", lambda q, i=i: (q[:, i] - mid[i]) * scale))
            fns.append((f"x{i}^2", lambda q, i=i: ((q[:, i] - mid[i]) * scale) ** 2))
        if dim >= 2:
            fns.append(("x0*x1", lambda q: (q[:, 0] - mid[0]) * (q[:, 1] - mid[1]) * scale**2))
            fns.append(("x0+x1", lambda q: ((q[:, 0] - mid[0]) + (q[:, 1] - mid[1])) * scale))
    elif battery == "trigonometric":
        fns.append(("cos0", lambda q: np.cos(scale * (q[:, 0] - mid[0]))))
        fns.append(("sin0", lambda q: np.sin(2.0 * scale * (q[:, 0] - mid[0]))))
        if dim >= 2:
            fns.append(("coscos", lambda q: np.cos(scale * (q[:, 0] - mid[0]))
                        * np.cos(scale * (q[:, 1] - mid[1]))))
            fns.append(("sincos", lambda q: np.sin(2.0 * scale * (q[:, 0] - mid[0]))
                        * np.cos(scale * (q[:, 1] - mid[1]))))
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
    return [(name, _pointwise(f)) for name, f in fns]


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


def _trace_ratios(raster: RasterDomain, p: float, battery: str, nodes, weights) -> dict:
    """The battery's ratios on ``raster``, the boundary norm from the
    quadrature ``nodes`` and ``weights``.  Each gradient component is
    ``(v[nb] - v) / h`` on the interior values ``v``, or ``(v - v[nb]) / h``
    at the cells in ``back``, which is +0.0 where ``nb`` is the cell
    itself.  Every function reuses three buffers: the values, the gradient
    and one scratch, which holds the values' magnitudes, then one axis of
    ``nb`` widened to numpy's index type (``np.take`` would copy int32
    indices into a fresh array), then the gradient's magnitudes, with the
    spent values as the second scratch."""
    pts, nb, back = _trace_stencil(raster)
    vals, grad, scratch = np.empty(nb.shape[1]), np.empty(nb.shape), np.empty(nb.shape[1])
    index = scratch.view(np.intp)[: nb.shape[1]]
    ratios = {}
    for name, fn in _battery_functions(raster, battery):
        n_p = lp_norm(fn(pts, out=vals), p, raster, (scratch,))
        if n_p == 0.0:
            continue
        for g, k, b in zip(grad, nb, back):
            np.copyto(index, k)
            # every index is valid: "clip" only skips take's buffered check
            np.take(vals, index, out=g, mode="clip")
            g -= vals
            g[b] = vals[b] - vals[k[b]]
            g /= raster.h
        n_w = n_p + lp_norm(grad, p, raster, (scratch, vals))
        n_b = float(np.sum(np.abs(fn(nodes)) ** p * weights)) ** (1.0 / p)
        ratios[name] = n_b / (n_p ** (1.0 - 1.0 / p) * n_w ** (1.0 / p))
    if not ratios:
        raise DegenerateGeometryError("battery produced no usable function")
    return ratios


def trace_ratio_battery(
    raster: RasterDomain, p: float, battery: str = "polynomial", doubling: bool = True
) -> TraceReport:
    """Measure boundary-trace interpolation ratios for ambient smooth
    functions sampled without zero extension, in any dimension.

    Everything happens on the interior cells only: each function is
    evaluated once on their centres, and its one-sided interior
    differences (forward where the forward neighbour is interior, else
    backward, else 0) are gathered from those values; the W-norm adds
    their ``lp_norm``s.  The boundary norm integrates |phi|^p
    with ``raster.boundary_quadrature``, the exact boundary of the fiber
    within its box, which does not depend on the raster: it is computed
    once and serves the doubled raster too.  When ``doubling`` is set, the
    battery is re-run at twice the resolution and the supremum's stability
    (within 10 percent) is recorded; it stays None when both suprema are
    0, which says nothing about the trace.
    """
    if raster.empty:
        raise EmptyFiberError("empty raster")
    nodes, weights = boundary_quadrature(raster.spec, raster.t)
    if weights.size == 0:
        raise DegenerateGeometryError("no quadrature line crosses the boundary")
    ratios = _trace_ratios(raster, p, battery, nodes, weights)
    sup = max(ratios.values())

    doubled = None
    stable = None
    if doubling:
        r2 = rasterize(raster.spec, raster.t, raster.resolution * 2)
        doubled = max(_trace_ratios(r2, p, battery, nodes, weights).values())
        if max(sup, doubled) > 0.0:
            stable = abs(doubled - sup) <= 0.1 * sup
    return TraceReport(
        p=float(p),
        battery=battery,
        ratios=ratios,
        supremum=sup,
        doubled_supremum=doubled,
        stable=stable,
        h=raster.h,
    )
