"""Inner-approximation rasterization and metric queries on fibers.

A fiber is rasterized on a uniform grid of cell centers inside the declared
bounding box.  Interior cells are those whose centers satisfy the membership
formula, so the raster is an inner approximation of the open set.  On top of
the raster this module measures volume, directional thickness (longest open
chord in a given direction) and discrete per-axis thickness, and serializes
masks for external tools.  ``unit_vector`` is the package's one direction
normaliser: every direction a caller passes in is checked and scaled there.

``line_cuts`` is the package's one line kernel: on a line every atom is a
polynomial in the line parameter, so membership is constant between the
atoms' real roots, which it finds exactly for many lines at once, each
with the atom it is a root of.  Thickness (``longest_chord``), boundary
sampling (``tangent.sample_boundary``, which takes its normals from the
named atoms) and the trace's boundary (``boundary_quadrature``, an exact
line quadrature of the surface measure by the area formula) are all built
on it; the last two share the crossings of axis-parallel lines
(``_crossings``).  Thickness builds no raster: its lines sit at the
multiples of ``q = max box span / LINES_PER_SPAN``, at most a quarter of
the box's width on each axis, across the direction, wherever they cross
the box.

``face_slices`` pairs every cell with its face neighbour along an axis for
all whole-array stencils.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dsl import DomainSpec
from .errors import EmptyFiberError, jsonable

# ``longest_chord`` spaces its lines ``q = max box span / LINES_PER_SPAN``
# apart across the direction (closer across a thin box); in 1D its one line
# is the axis.  ``boundary_quadrature`` splits each other axis's span into
# ``LINES_PER_SPAN`` cells, one line through each cell's middle
LINES_PER_SPAN = {1: 1, 2: 512, 3: 96}

# a root where the atom's gradient is shorter than this gives no reliable
# normal
_MIN_GRAD_NORM = 1e-8

# normal-candidate products per block in ``tangent.find_regular_direction``
_BLOCK_POINTS = 1 << 16
# cell centres per membership call in ``rasterize``: a slab's temporaries
# of 64 KB stay within the heap glibc keeps on a trim, where those of
# 128 KB and up fault their pages in again on most slabs
_RASTER_BLOCK = 1 << 13


@dataclass(frozen=True)
class RasterDomain:
    """Uniform-grid inner approximation of one fiber.

    ``interior`` marks cell centers that belong to the set; ``counts``
    (its shape) and ``boundary_adjacent`` are derived from it.

    The apron rule, which construction checks: the first and the last
    plane along every axis are exterior (``rasterize`` puts one exterior
    cell beyond the box on every side, and ``_coarsen`` keeps it).  So an
    interior cell's face neighbours lie on the grid, at the flat offsets
    plus and minus each axis's stride; every zero-extension jump lies on an
    in-grid face; and a flat offset that leaves a cell's line pairs two
    exterior cells.
    """

    spec: DomainSpec
    t: tuple
    h: float
    origin: tuple
    interior: np.ndarray
    resolution: int = 0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("spacing must be positive")
        for _, _, last, first in face_slices(self.interior.ndim):
            if self.interior[last].any() or self.interior[first].any():
                raise ValueError("interior cell on the grid edge: the raster has no exterior apron")

    @property
    def counts(self) -> tuple:
        return self.interior.shape

    @cached_property
    def boundary_adjacent(self) -> np.ndarray:
        """Interior cells with a non-interior face neighbour, all of them
        on the grid (``RasterDomain``).  A copy of the mask, the one array
        made, is narrowed in place to the cells whose face neighbours are
        all interior and then turned into its complement within the mask: a
        fresh grid-sized temporary of 128 KB or more faults its pages in
        again once glibc trims the heap, which under a fixed mmap threshold
        happens on every free."""
        inside = self.interior
        exposed = inside.copy()
        for head, tail, _, _ in face_slices(inside.ndim):
            exposed[head] &= inside[tail]
            exposed[tail] &= inside[head]
        exposed ^= inside  # inside and not surrounded
        return exposed

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def empty(self) -> bool:
        return not bool(self.interior.any())

    @property
    def interior_count(self) -> int:
        return int(self.interior.sum())

    def axis_centers(self, axis: int) -> np.ndarray:
        return _axis_centers(self.origin[axis], self.h, self.counts[axis])


def _axis_centers(origin: float, h: float, count: int) -> np.ndarray:
    return origin + (np.arange(count) + 0.5) * h


@cache
def face_slices(dim: int) -> tuple:
    """Per axis of a ``dim``-dimensional grid: index tuples for the head
    (all but the last plane), the tail (all but the first), the last plane
    and the first plane.  ``a[head]`` and ``a[tail]`` pair every cell with
    its forward neighbour, one pair per face.  The planes are one-element
    slices, so they keep the axis even in 1D."""

    def along(ax, s):
        return tuple(s if a == ax else slice(None) for a in range(dim))

    planes = (slice(None, -1), slice(1, None), slice(-1, None), slice(0, 1))
    return tuple(tuple(along(ax, s) for s in planes) for ax in range(dim))


def check_resolution(resolution: int) -> None:
    """The package's one rule for a raster resolution: at least 4 cells."""
    if resolution < 4:
        raise ValueError("resolution must be at least 4")


def rasterize(spec: DomainSpec, t, resolution: int) -> RasterDomain:
    """Rasterize the fiber at ``t`` with ``resolution`` cells across the
    longest box axis.  An all-exterior result is returned as an empty
    raster (``raster.empty``), which callers treat as data, not an error.

    Membership is evaluated slab by slab along axis 0, each slab holding
    whole rows and about ``_RASTER_BLOCK`` cell centres, straight into the
    padded mask; working memory beyond the mask is bounded by the slab,
    whatever the resolution.  Membership is pointwise, so the mask equals
    one ``member_points`` call on all centres.  The slabs' centres are
    written into one buffer the call allocates once, its later axes' columns
    filled once and its axis-0 column per slab, broadcast from
    ``_axis_centers``.  A slab's membership temporaries are 64 KB each at
    most: larger fresh arrays fault their pages in again whenever glibc
    trims the heap after freeing them, which under a fixed mmap threshold
    happens on every free.
    """
    check_resolution(resolution)
    t = spec.check_params(t)
    spans = [hi - lo for lo, hi in spec.bounding_box]
    h = max(spans) / resolution
    inner_counts = tuple(max(1, int(math.floor(s / h + 1e-9))) for s in spans)
    # the one-cell exterior apron around the box (``RasterDomain``)
    counts = tuple(c + 2 for c in inner_counts)
    origin = tuple(lo - h for lo, _ in spec.bounding_box)
    dim = len(counts)

    interior = np.zeros(counts, dtype=bool)
    inner = interior[(slice(1, -1),) * dim]
    axes = [_axis_centers(origin[i], h, counts[i])[1:-1] for i in range(dim)]
    rows = min(inner_counts[0], max(1, _RASTER_BLOCK // math.prod(inner_counts[1:])))
    centres = np.empty((rows, *inner_counts[1:], dim))
    # axis i's centres, with one unit axis appended per later axis,
    # broadcast along axis i of the slab
    for i in range(1, dim):
        centres[..., i] = axes[i].reshape(-1, *[1] * (dim - 1 - i))
    for a in range(0, inner_counts[0], rows):
        slab = centres[: inner_counts[0] - a]
        slab[..., 0] = axes[0][a : a + rows].reshape(-1, *[1] * (dim - 1))
        inner[a : a + rows] = spec.member_points(t, slab)
    return RasterDomain(
        spec=spec, t=t, h=h, origin=origin, interior=interior, resolution=resolution
    )


def volume(raster: RasterDomain) -> float:
    """Cell-counting measure: interior count times h^dim."""
    return raster.interior_count * raster.h**raster.dim


# ---------------------------------------------------------------------------
# directional thickness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chord:
    """An open segment inside a fiber: start point, unit direction, length."""

    start: tuple
    direction: tuple
    length: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        if not abs(float(np.linalg.norm(d)) - 1.0) <= 1e-12:
            raise ValueError("chord direction must be a unit vector")
        if not (self.length >= 0.0):
            raise ValueError("chord length must be nonnegative")


def unit_vector(direction, dim: int) -> np.ndarray:
    """``direction`` scaled to unit length; rejects a vector with the wrong
    number of components, a zero vector and a non-finite one."""
    lam = np.asarray(direction, dtype=np.float64).reshape(-1)
    if lam.size != dim:
        raise ValueError(f"direction has {lam.size} components, expected {dim}")
    n = float(np.linalg.norm(lam))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("direction must be a nonzero finite vector")
    return lam / n


def _perp_basis(lam: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to lam,
    shape (dim, dim-1)."""
    # Householder reflection mapping e_1 to lam; remaining columns span lam-perp.
    eye = np.eye(lam.size)
    v = lam - eye[0] if lam[0] >= 0 else lam + eye[0]
    nv = np.linalg.norm(v)
    if nv < 1e-15:
        return eye[:, 1:]
    v = v / nv
    H = eye - 2.0 * np.outer(v, v)
    return (H if lam[0] >= 0 else -H)[:, 1:]


def _ray_box_span(P: np.ndarray, lam: np.ndarray, box) -> tuple:
    """Parameter range for which P + s*lam stays inside the box; vectorized
    over rows of P.  Lines that miss the box get an empty range."""
    s_lo, s_hi = np.full(P.shape[0], -np.inf), np.full(P.shape[0], np.inf)
    ok = np.ones(P.shape[0], dtype=bool)
    for i, (lo, hi) in enumerate(box):
        d = lam[i]
        if abs(d) < 1e-14:
            ok &= (P[:, i] >= lo) & (P[:, i] <= hi)
            continue
        a, b = (lo - P[:, i]) / d, (hi - P[:, i]) / d
        s_lo = np.maximum(s_lo, np.minimum(a, b))
        s_hi = np.minimum(s_hi, np.maximum(a, b))
    ok &= s_lo < s_hi
    return s_lo, s_hi, ok


@cache
def _chebyshev_fit(degree: int) -> tuple:
    """The ``degree + 1`` Chebyshev points of the first kind on [-1, 1], and
    the matrix that maps values there to the Chebyshev coefficients of the
    interpolating polynomial (discrete orthogonality of the T_j).  The
    points descend.  ``cells`` takes its resultant fits, its column
    abscissae and, through the coefficients, Fejér's first rule from the
    same pair."""
    theta = np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
    fit = np.cos(np.outer(np.arange(degree + 1), theta)) * (2.0 / (degree + 1))
    fit[0] /= 2.0
    return np.cos(theta), fit


@cache
def _colleague(degree: int) -> tuple:
    """The colleague matrix of the series T_degree, degree 2 or more, in the
    symmetric form of numpy's ``chebcompanion``, and the weights by which
    its last column takes ``-c[:-1] / c[-1]`` for a series ``c``."""
    half = np.full(degree - 1, 0.5)
    mat, weights = np.diag(half, 1) + np.diag(half, -1), np.full(degree, 0.5)
    mat[0, 1] = mat[1, 0] = weights[0] = math.sqrt(0.5)
    return mat, weights


def _quadratic_roots(c: np.ndarray) -> tuple:
    """The two roots of each degree-2 Chebyshev series in the rows of
    ``c``, those of ``2 c2 x^2 + c1 x + (c0 - c2)`` (T_2 = 2 x^2 - 1), as
    real and imaginary parts, shape (rows, 2) each.  A real pair comes from
    the stable formula: ``q = -(c1 + sign(c1) sqrt(disc)) / 2`` gives the
    larger root ``q / (2 c2)`` and the smaller ``(c0 - c2) / q``, so neither
    cancels (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 1.8); ``q`` is 0 only at the double root 0.  A complex pair has
    real part ``-c1 / (4 c2)`` and imaginary part ``sqrt(-disc) / (4 |c2|)``.
    Each row is first scaled by the power of two that brings its largest
    coefficient into [0.5, 1), so ``disc`` neither underflows nor
    overflows; the scaling is exact, so the roots do not depend on it."""
    c = np.ldexp(c, -np.frexp(np.abs(c).max(axis=1))[1][:, None])
    a, b, cc = 2.0 * c[:, 2], c[:, 1], c[:, 0] - c[:, 2]
    disc = b * b - 4.0 * a * cc
    root = np.sqrt(np.abs(disc))
    q = -0.5 * (b + np.copysign(root, b))
    pair = (disc < 0.0)[:, None]
    real = np.stack([q / a, np.divide(cc, q, out=np.zeros_like(q), where=q != 0.0)], axis=1)
    real = np.where(pair, (-b / (2.0 * a))[:, None], real)
    return real, np.where(pair, (root / (2.0 * np.abs(a)))[:, None], 0.0)


def _series_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots in (-1, 1) of one Chebyshev series per row, NaN-padded.
    A row's degree is that of its last coefficient above 1e-13 of its
    largest (the rest changes it by no more on [-1, 1]), and the rows are
    solved in one batch per degree: degree 1 as ``0 - c0 / c1``, degree 2 in
    closed form (``_quadratic_roots``), and from degree 3 up, which only
    the cells' resultants reach, as the eigenvalues of the colleague
    matrix.  A root counts as real when its imaginary part is at most 1e-7:
    a tangent line's double root comes back within about 1e-8 of real, and
    a true complex pair changes no sign."""
    rows, degree = coeffs.shape[0], coeffs.shape[1] - 1
    out = np.full((rows, degree), np.nan)
    big = np.abs(coeffs) > 1e-13 * np.abs(coeffs).max(axis=1, keepdims=True)
    own = np.where(big.any(axis=1), degree - np.argmax(big[:, ::-1], axis=1), 0)
    for k in np.unique(own[own > 0]):
        sel = np.nonzero(own == k)[0]
        if k == 1:
            real, imag = 0.0 - coeffs[sel, :1] / coeffs[sel, 1:2], 0.0
        elif k == 2:
            real, imag = _quadratic_roots(coeffs[sel])
        else:
            mat, weights = _colleague(int(k))
            mats = np.repeat(mat[None], sel.size, axis=0)
            mats[:, :, -1] -= coeffs[sel, :k] / coeffs[sel, k : k + 1] * weights
            u = np.linalg.eigvals(mats)
            real, imag = u.real, u.imag
        keep = (np.abs(real) < 1.0) & (np.abs(imag) <= 1e-7)
        out[sel, :k] = np.where(keep, real, np.nan)
    return out


def line_cuts(spec: DomainSpec, t, origins, direction, s_lo, s_hi) -> tuple:
    """Exact membership along the lines ``origins[i] + s*direction``, ``s``
    in ``[s_lo[i], s_hi[i]]`` widened by ``1e-9 (1 + length)`` on both
    sides so that a cut on a box face falls inside.

    On a line an atom of ambient degree ``d`` is a polynomial of degree at
    most ``d``; its values at ``d + 1`` Chebyshev points give its Chebyshev
    coefficients, and its real roots (``_series_roots``) are the cuts.
    Returns ``(cuts, inside, atoms)``: each row of ``cuts`` ascends from the
    widened ``s_lo`` to the widened ``s_hi``, repeated as padding;
    ``inside[i, j]`` is the membership in the middle of the piece
    ``cuts[i, j] .. cuts[i, j + 1]``, and ``atoms[i, j]`` is the index in
    ``spec.atoms`` of the atom whose root is the inner cut
    ``cuts[i, j + 1]`` (-1 for padding).  A padding piece repeats the
    membership before it, so it adds no flip, and every flip is a root.
    """
    origins = np.asarray(origins, dtype=np.float64)
    lam = np.asarray(direction, dtype=np.float64)
    pad = 1e-9 * (1.0 + np.abs(s_hi - s_lo))
    s_lo, s_hi = s_lo - pad, s_hi + pad
    mid, half = 0.5 * (s_lo + s_hi)[:, None], 0.5 * (s_hi - s_lo)[:, None]
    roots, ids = [np.empty((origins.shape[0], 0))], [np.empty(0, dtype=np.int64)]
    for j, atom in enumerate(spec.atoms):
        degree = max(sum(exps[: spec.ambient_dim]) for exps, _ in atom.coeffs)
        nodes, fit = _chebyshev_fit(degree)
        pts = origins[:, None, :] + (mid + half * nodes)[..., None] * lam
        roots.append(_series_roots(atom.values(spec._coords(t, pts)) @ fit.T))
        ids.append(np.full(degree, j))
    u = np.concatenate(roots, axis=1)
    count = np.count_nonzero(~np.isnan(u), axis=1)
    order = np.argsort(u, axis=1, kind="stable")[:, : count.max(initial=0)]
    u = np.take_along_axis(u, order, axis=1)
    atoms = np.where(np.isnan(u), -1, np.concatenate(ids)[order])
    cuts = np.concatenate([s_lo[:, None], np.where(np.isnan(u), s_hi[:, None], mid + half * u),
                           s_hi[:, None]], axis=1)
    middle = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    inside = spec.member_points(t, origins[:, None, :] + middle[..., None] * lam)
    last = inside[np.arange(inside.shape[0]), count][:, None]
    inside = np.where(np.arange(inside.shape[1]) > count[:, None], last, inside)
    return cuts, inside, atoms


def _runs(rows: np.ndarray) -> tuple:
    """The runs of true entries in each row of a 2D boolean array, in row
    order: ``(row, start, end)``, each run covering ``start .. end - 1``.
    One scan of the rows laid end to end, each closed by a false entry."""
    n = rows.shape[1] + 1
    flat = np.zeros((rows.shape[0], n), dtype=np.int8)
    flat[:, :-1] = rows
    edge = np.diff(flat.reshape(-1), prepend=np.int8(0))
    up = np.flatnonzero(edge == 1)
    return up // n, up % n, np.flatnonzero(edge == -1) % n


def longest_chord(spec: DomainSpec, t, direction) -> Chord:
    """Longest open chord of the fiber in the given direction.

    No raster is built.  Chord lines sit at the multiples of
    ``q = max box span / LINES_PER_SPAN`` across ``direction``, in the
    coordinates of ``_perp_basis``, from below to above the bounding box's
    projection; on each of those axes ``q`` is at most a quarter of the
    projection's width, so a thin box still meets lines.  Lines that miss
    the box are dropped.  In 1D there is one line, the axis.  ``line_cuts``
    splits each line into pieces of constant membership, and a chord is a
    run of inside pieces.  A run that reaches the bounding box yields an
    infinite chord.
    """
    t = spec.check_params(t)
    dim, box = spec.ambient_dim, spec.bounding_box
    lam = unit_vector(direction, dim)
    B = _perp_basis(lam)
    corners = np.array(list(itertools.product(*box))) @ B
    q = np.minimum(max(hi - lo for lo, hi in box) / LINES_PER_SPAN[dim],
                   np.ptp(corners, axis=0) / 4)
    ends = corners / q
    ks = [range(int(a), int(b) + 1)
          for a, b in zip(np.floor(ends.min(axis=0)), np.ceil(ends.max(axis=0)))]
    quant = np.array(list(itertools.product(*ks)), dtype=np.int64)
    bases = (quant * q) @ B.T

    s_lo, s_hi, ok = _ray_box_span(bases, lam, box)
    bases, s_lo, s_hi = bases[ok], s_lo[ok], s_hi[ok]
    cuts, inside, _ = line_cuts(spec, t, bases, lam, s_lo, s_hi)
    # a run of inside pieces start .. end - 1 spans cuts[start] .. cuts[end]
    line, start, end = _runs(inside)

    escaping = np.nonzero(inside[:, 0] | inside[:, -1])[0]
    if escaping.size:
        # report the last escaping run, from its start
        r = escaping[-1]
        a = start[line == r][-1 if inside[r, -1] else 0]
        return Chord(tuple(bases[r] + cuts[r, a] * lam), tuple(lam), math.inf)
    if line.size == 0:
        raise EmptyFiberError("no chord found along any line")
    lengths = cuts[line, end] - cuts[line, start]
    i = int(np.argmax(lengths))
    start_point = bases[line[i]] + cuts[line[i], start[i]] * lam
    return Chord(tuple(start_point), tuple(lam), float(lengths[i]))


def segment_extent(spec: DomainSpec, t, start, stop) -> float:
    """Distance from the first to the last point of the fiber on the
    segment ``start .. stop``, from one ``line_cuts`` call on its line and
    with the cuts held to the segment; ``0.0`` when the segment misses the
    fiber.  Gaps in between count, so a slit or crack the segment crosses
    does not shorten it."""
    t = spec.check_params(t)
    a, b = (np.asarray(x, dtype=np.float64) for x in (start, stop))
    length = float(np.linalg.norm(b - a))
    cuts, inside, _ = line_cuts(spec, t, a[None], (b - a) / length, np.zeros(1), np.full(1, length))
    pieces = np.flatnonzero(inside[0])
    if pieces.size == 0:
        return 0.0
    ends = np.clip(cuts[0, [pieces[0], pieces[-1] + 1]], 0.0, length)
    return float(ends[1] - ends[0])


def thickness(spec: DomainSpec, t, direction) -> float:
    """Directional thickness: supremum of open chord lengths along
    ``direction``.  Returns ``0.0`` for an empty fiber and ``math.inf``
    when a chord escapes through the bounding box."""
    try:
        return longest_chord(spec, t, direction).length
    except EmptyFiberError:
        return 0.0


def _longest_run(raster: RasterDomain, axis: int) -> tuple:
    """The first longest run of interior cells along a grid axis, as the
    ``(row, start, end)`` of ``_runs`` over the interior with ``axis``
    moved last; ``(0, 0, 0)`` on an empty raster."""
    if not 0 <= axis < raster.dim:
        raise ValueError(f"axis {axis} out of range for dim {raster.dim}")
    m = np.moveaxis(raster.interior, axis, -1)
    row, start, end = _runs(m.reshape(-1, m.shape[-1]))
    if row.size == 0:
        return 0, 0, 0
    i = int(np.argmax(end - start))
    return int(row[i]), int(start[i]), int(end[i])


def thickness_discrete(raster: RasterDomain, axis: int) -> float:
    """Longest run of consecutive interior cells along a grid axis, times h."""
    _, start, end = _longest_run(raster, axis)
    return float(end - start) * raster.h


# ---------------------------------------------------------------------------
# boundary quadrature
# ---------------------------------------------------------------------------


def _crossings(spec: DomainSpec, t, origins: np.ndarray, axis: int) -> tuple:
    """The points where membership flips along the lines
    ``origins + s e_axis``, ``s`` across the box from ``origins`` on its
    lower face, line by line and in order along each line.

    Returns ``(points, atoms, normals)``.  A flip at a root of atom ``j``
    gets ``j`` and that atom's unit gradient; a root where the gradient is
    shorter than ``_MIN_GRAD_NORM`` gives no reliable normal and is
    dropped.  A run of inside pieces that ends on the box crosses the box
    face there: atom -1, normal ``e_axis``, at the line's end as
    ``line_cuts`` widens it, so within ``1e-9 (1 + width)`` outside.
    """
    width = spec.bounding_box[axis][1] - spec.bounding_box[axis][0]
    lines, e = origins.shape[0], np.eye(spec.ambient_dim)[axis]
    cuts, inside, atoms = line_cuts(spec, t, origins, e, np.zeros(lines), np.full(lines, width))
    line, k = np.nonzero(np.diff(np.pad(inside, ((0, 0), (1, 1))).astype(np.int8), axis=1))
    pts = origins[line] + cuts[line, k][:, None] * e
    ids = np.pad(atoms, ((0, 0), (1, 1)), constant_values=-1)[line, k]
    normals, keep = np.tile(e, (ids.size, 1)), ids < 0
    for j, atom in enumerate(spec.atoms):
        rows = ids == j
        g = atom.gradient_values(spec._coords(t, pts[rows])).T
        norms = np.linalg.norm(g, axis=1)
        ok = norms >= _MIN_GRAD_NORM
        g[ok] /= norms[ok][:, None]
        normals[rows], keep[rows] = g, ok
    return pts[keep], ids[keep], normals[keep]


def boundary_quadrature(spec: DomainSpec, t) -> tuple:
    """Nodes and weights of ``∫ f dS`` over the boundary of the fiber within
    its bounding box, shapes ``(m, dim)`` and ``(m,)``.

    Along each box axis ``k``, ``LINES_PER_SPAN`` lines per other axis sit
    at the midpoints of equal cells of that axis's span, and
    ``_crossings`` lists where each line crosses the boundary.  By the area
    formula, ``∫ f n_k^2 dS`` is the integral over the offsets of the sum
    over crossings of ``f |n_k|``; summed over ``k`` that is ``∫ f dS``.  So
    a crossing weighs ``cell |n_k|``, ``cell`` the product of the other
    axes' cell widths (1 in 1D), and a box-face crossing weighs ``cell``.
    The nodes are exact roots clipped to the box, so flat faces come out
    exactly.
    """
    t = spec.check_params(t)
    box, n = spec.bounding_box, LINES_PER_SPAN[spec.ambient_dim]
    nodes, weights = [], []
    for axis, (lo, _) in enumerate(box):
        across = [[lo] if j == axis else _axis_centers(a, (b - a) / n, n)
                  for j, (a, b) in enumerate(box)]
        origins = np.stack(np.meshgrid(*across, indexing="ij"), axis=-1).reshape(-1, len(box))
        cell = math.prod((b - a) / n for j, (a, b) in enumerate(box) if j != axis)
        pts, _, normals = _crossings(spec, t, origins, axis)
        nodes.append(np.clip(pts, *np.transpose(box)))
        weights.append(cell * np.abs(normals[:, axis]))
    return np.concatenate(nodes), np.concatenate(weights)


# the benchmark's tracer times the trace boundary under this name; the alias
# goes with that tracer entry and its metric, in the next change to the
# benchmark
boundary_polyline = boundary_quadrature


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_pgm(raster: RasterDomain, path) -> None:
    """Binary PGM of a 2D raster: exterior 0, interior 255, boundary-adjacent
    interior 128.  Rows run from the top of the box down, image convention.
    The image is filled through an (x, y) view of its rows, so it is written
    as it lies, with no transposed copy that would fault its pages in."""
    if raster.dim != 2:
        raise ValueError("PGM export is only defined for 2D rasters")
    img = np.zeros(raster.counts[::-1], dtype=np.uint8)  # (y, x), y downward
    cells = img[::-1].T
    cells[raster.interior] = 255
    cells[raster.boundary_adjacent] = 128
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.data)


def write_mask(raster: RasterDomain, bin_path, json_path) -> None:
    """Flat uint8 mask (C order over the grid axes) plus a JSON sidecar
    describing the geometry."""
    with open(bin_path, "wb") as fh:
        fh.write(raster.interior.astype(np.uint8).tobytes(order="C"))
    sidecar = {
        "dims": raster.counts,
        "h": raster.h,
        "origin": raster.origin,
        "t": raster.t,
        "order": "C",
        "interior_count": raster.interior_count,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(sidecar), fh, sort_keys=True, indent=1)
        fh.write("\n")
