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
with the atom it is a root of.  Thickness (``longest_chord``) and boundary
sampling (``tangent.sample_boundary``, which takes its normals from the
named atoms) are both built on it.  Thickness builds no raster: its lines
sit at the multiples of ``q = max box span / LINES_PER_SPAN``, at most a
quarter of the box's width on each axis, across the direction, wherever
they cross the box.

``face_slices`` pairs every cell with its face neighbour along an axis for
all whole-array stencils.  Boundary extraction interpolates the zero level
of the signed margin field between cell centres on whole arrays:
table-driven marching squares in 2D and sign flips in 1D.
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
# is the axis
LINES_PER_SPAN = {1: 1, 2: 512, 3: 96}

# the block size of the kernels that stream through bounded blocks: cell
# centres per membership call in ``rasterize``, normal-candidate products
# per block in ``tangent.find_regular_direction``
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class RasterDomain:
    """Uniform-grid inner approximation of one fiber.

    ``interior`` marks cell centers that belong to the set; ``counts``
    (its shape) and ``boundary_adjacent`` are derived from it.  The grid
    extends one exterior cell beyond the bounding box on every side, so an
    interior cell never sits on the grid edge and difference operators see
    every zero-extension jump on an in-grid face.
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

    @property
    def counts(self) -> tuple:
        return self.interior.shape

    @cached_property
    def boundary_adjacent(self) -> np.ndarray:
        """Interior cells with a non-interior face neighbour.  The exterior
        apron keeps every interior cell off the grid edge, so only in-grid
        neighbours are looked at."""
        inside = self.interior
        exposed = np.zeros_like(inside)
        for head, tail, _, _ in face_slices(inside.ndim):
            exposed[head] |= ~inside[tail]
            exposed[tail] |= ~inside[head]
        return inside & exposed

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

    def centers(self) -> np.ndarray:
        """All cell centers, shape ``counts + (dim,)``."""
        axes = [self.axis_centers(i) for i in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)


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
    whole rows and about ``_BLOCK_POINTS`` cell centres, straight into the
    padded mask; working memory beyond the mask is bounded by the slab,
    whatever the resolution.  Membership is pointwise, so the mask equals
    one ``member_points`` call on all centres.
    """
    check_resolution(resolution)
    t = spec.check_params(t)
    spans = [hi - lo for lo, hi in spec.bounding_box]
    h = max(spans) / resolution
    inner_counts = tuple(max(1, int(math.floor(s / h + 1e-9))) for s in spans)
    # the grid carries a one-cell exterior apron around the box so every
    # zero-extension jump of a difference operator lies on an in-grid face
    counts = tuple(c + 2 for c in inner_counts)
    origin = tuple(lo - h for lo, _ in spec.bounding_box)

    interior = np.zeros(counts, dtype=bool)
    inner = interior[(slice(1, -1),) * len(counts)]
    axes = [_axis_centers(origin[i], h, counts[i])[1:-1] for i in range(len(counts))]
    rows = max(1, _BLOCK_POINTS // math.prod(inner_counts[1:]))
    for a in range(0, inner_counts[0], rows):
        slab = np.meshgrid(axes[0][a : a + rows], *axes[1:], indexing="ij")
        inner[a : a + rows] = spec.member_points(t, np.stack(slab, axis=-1))
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
    """The colleague matrix of the series T_degree, in the symmetric form of
    numpy's ``chebcompanion``, and the weights by which its last column
    takes ``-c[:-1] / c[-1]`` for a series ``c``."""
    half = np.full(degree - 1, 0.5)
    mat, weights = np.diag(half, 1) + np.diag(half, -1), np.full(degree, 0.5)
    if degree == 1:
        return mat, np.ones(1)
    mat[0, 1] = mat[1, 0] = weights[0] = math.sqrt(0.5)
    return mat, weights


def _series_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots in (-1, 1) of one Chebyshev series per row, NaN-padded.
    A row's degree is that of its last coefficient above 1e-13 of its
    largest (the rest changes it by no more on [-1, 1]); its roots are the
    eigenvalues of its colleague matrix, one batch per degree.  An
    eigenvalue counts as real when its imaginary part is at most 1e-7: a
    tangent line's double root comes back within about 1e-8 of real, and a
    true complex pair changes no sign."""
    rows, degree = coeffs.shape[0], coeffs.shape[1] - 1
    out = np.full((rows, degree), np.nan)
    big = np.abs(coeffs) > 1e-13 * np.abs(coeffs).max(axis=1, keepdims=True)
    own = np.where(big.any(axis=1), degree - np.argmax(big[:, ::-1], axis=1), 0)
    for k in np.unique(own[own > 0]):
        sel = np.nonzero(own == k)[0]
        mat, weights = _colleague(int(k))
        mats = np.repeat(mat[None], sel.size, axis=0)
        mats[:, :, -1] -= coeffs[sel, :k] / coeffs[sel, k : k + 1] * weights
        u = np.linalg.eigvals(mats)
        real = (np.abs(u.real) < 1.0) & (np.abs(u.imag) <= 1e-7)
        out[sel, :k] = np.where(real, u.real, np.nan)
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
    # runs of inside pieces: a run starts at piece j where the edge is +1
    # and ends at cut j where it is -1
    edge = np.diff(np.pad(inside, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    line, start = np.nonzero(edge == 1)
    end = np.nonzero(edge == -1)[1]

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


def thickness(spec: DomainSpec, t, direction) -> float:
    """Directional thickness: supremum of open chord lengths along
    ``direction``.  Returns ``0.0`` for an empty fiber and ``math.inf``
    when a chord escapes through the bounding box."""
    try:
        return longest_chord(spec, t, direction).length
    except EmptyFiberError:
        return 0.0


def thickness_discrete(raster: RasterDomain, axis: int) -> float:
    """Longest run of consecutive interior cells along a grid axis, times h."""
    if not 0 <= axis < raster.dim:
        raise ValueError(f"axis {axis} out of range for dim {raster.dim}")
    m = np.moveaxis(raster.interior, axis, -1)
    flat = m.reshape(-1, m.shape[-1])
    # separate rows with an always-false column, then scan globally
    padded = np.concatenate(
        [flat, np.zeros((flat.shape[0], 1), dtype=bool)], axis=1
    ).reshape(-1)
    padded = np.concatenate(([False], padded))
    d = np.diff(padded.astype(np.int8))
    starts = np.nonzero(d == 1)[0]
    ends = np.nonzero(d == -1)[0]
    if starts.size == 0:
        return 0.0
    return float((ends - starts).max()) * raster.h


# ---------------------------------------------------------------------------
# boundary extraction
# ---------------------------------------------------------------------------

# the corners of a square as (i, j) offsets from its lower-left cell centre,
# counter-clockwise; bit k of a square's case is set when corner k is inside
_CORNER_OFFSETS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
# the edges S, E, N, W as corner pairs
_EDGE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])


def _segment_table() -> np.ndarray:
    """Edge pairs of each marching case, shape (16, 2, 2): two segments at
    most, padded with -1.  The saddles 5 and 10 hold their pairs for a
    centre inside the set; a saddle whose centre is outside takes the pairs
    of its complement case, 15 - case."""
    pairs = ["", "WS", "SE", "WE", "EN", "SE WN", "SN", "WN",
             "WN", "SN", "WS EN", "EN", "WE", "SE", "WS", ""]
    table = np.full((16, 2, 2), -1)
    for case, segments in enumerate(pairs):
        for k, seg in enumerate(segments.split()):
            table[case, k] = ["SENW".index(e) for e in seg]
    return table


_CASE_SEGMENTS = _segment_table()


def margin_field(raster: RasterDomain) -> np.ndarray:
    """Signed margin of the membership formula at the cell centers
    (min/max composition of atom values; positive exactly inside)."""
    pts = raster.centers().reshape(-1, raster.dim)
    return raster.spec.margin_points(raster.t, pts).reshape(raster.counts)


def _zero_crossing(xa, xb, fa, fb):
    """The zero of the margin interpolated linearly from (xa, fa) to (xb, fb)."""
    return xa + fa / (fa - fb) * (xb - xa)


def boundary_polyline(raster: RasterDomain) -> np.ndarray:
    """Marching-squares polyline of the fiber boundary, shape (m, 2, 2).

    The zero level of the signed margin field is interpolated on the grid
    of cell centers, which places vertices sub-cell accurately on the true
    boundary rather than on the mask staircase.  A saddle square is split
    by the sign of its corner sum.  Segments come in row-major square
    order, a saddle's two in table order.
    """
    if raster.dim != 2:
        raise ValueError("boundary_polyline is only defined for 2D rasters")
    F = margin_field(raster)
    pos = F > 0.0
    ni, nj = F.shape[0] - 1, F.shape[1] - 1
    case = sum(pos[a:a + ni, b:b + nj] << k for k, (a, b) in enumerate(_CORNER_OFFSETS))
    ii, jj = np.nonzero((case > 0) & (case < 15))
    i = ii[:, None] + _CORNER_OFFSETS[:, 0]
    j = jj[:, None] + _CORNER_OFFSETS[:, 1]
    vals = F[i, j]
    case = case[ii, jj]
    centre_out = ((case == 5) | (case == 10)) & ~(vals.sum(axis=1) > 0.0)
    case = np.where(centre_out, 15 - case, case)

    sq, seg = np.nonzero(_CASE_SEGMENTS[case, :, 0] >= 0)
    ends = _EDGE_CORNERS[_CASE_SEGMENTS[case[sq], seg]]
    a, b, rows = ends[..., 0], ends[..., 1], sq[:, None]
    h = raster.h
    corners = np.stack(
        [raster.origin[0] + 0.5 * h + i * h, raster.origin[1] + 0.5 * h + j * h], axis=-1
    )
    return _zero_crossing(
        corners[rows, a], corners[rows, b], vals[rows, a][..., None], vals[rows, b][..., None]
    )


def boundary_points_1d(raster: RasterDomain) -> np.ndarray:
    """Boundary points of a 1D raster: interpolated sign changes of the
    margin field between adjacent cell centers."""
    if raster.dim != 1:
        raise ValueError("boundary_points_1d needs a 1D raster")
    F = margin_field(raster)
    xs = raster.axis_centers(0)
    i = np.flatnonzero((F[:-1] > 0.0) != (F[1:] > 0.0))
    return _zero_crossing(xs[i], xs[i + 1], F[i], F[i + 1])


def polyline_length(segments: np.ndarray) -> float:
    if segments.size == 0:
        return 0.0
    return float(np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1).sum())


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_pgm(raster: RasterDomain, path) -> None:
    """Binary PGM of a 2D raster: exterior 0, interior 255, boundary-adjacent
    interior 128.  Rows run from the top of the box down, image convention."""
    if raster.dim != 2:
        raise ValueError("PGM export is only defined for 2D rasters")
    img = np.zeros(raster.counts, dtype=np.uint8)
    img[raster.interior] = 255
    img[raster.boundary_adjacent] = 128
    rows = img.T[::-1, :]  # (y, x) with y downward from box top
    header = f"P5\n{rows.shape[1]} {rows.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rows.tobytes(order="C"))


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
