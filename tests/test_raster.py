import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from poincare_lab import (
    boundary_quadrature,
    longest_chord,
    parse_domain,
    rasterize,
    thickness,
    thickness_discrete,
    volume,
    write_mask,
    write_pgm,
)
from poincare_lab.errors import EmptyFiberError
from poincare_lab.raster import (
    RasterDomain, _BLOCK_POINTS, _colleague, _quadratic_roots, _series_roots, line_cuts, segment_extent,
)
from test_sobolev import BALL, centre_grid


def test_raster_matches_pointwise_membership(specs):
    spec = specs["disk"]
    r = rasterize(spec, (), 8)
    centers = centre_grid(r)
    for idx in np.ndindex(r.counts):
        assert r.interior[idx] == spec.member_points((), centers[idx])


def test_apron_is_exterior(disk128):
    # one exterior cell beyond the box on every side, so no interior cell
    # touches the grid edge
    for ax in range(disk128.dim):
        sl = [slice(None)] * disk128.dim
        for edge in (0, -1):
            sl[ax] = edge
            assert not disk128.interior[tuple(sl)].any()


def test_raster_rejects_an_interior_cell_on_the_grid_edge(specs):
    # an interior cell on the first or the last plane of any axis, in 1D,
    # 2D and 3D; the same mask with only its middle cell builds
    for dim in (1, 2, 3):
        middle = np.zeros((5,) * dim, dtype=bool)
        middle[(2,) * dim] = True
        RasterDomain(spec=specs["square"], t=(), h=0.25, origin=(0.0,) * dim, interior=middle)
        for ax in range(dim):
            for edge in (0, -1):
                interior = middle.copy()
                interior[tuple(edge if a == ax else 2 for a in range(dim))] = True
                with pytest.raises(ValueError, match="grid edge"):
                    RasterDomain(spec=specs["square"], t=(), h=0.25, origin=(0.0,) * dim,
                                 interior=interior)


@pytest.mark.parametrize(
    "name,t,res",
    # more cells than one block; rows not a multiple of a slab; a thin box;
    # 3D with whole planes per slab
    [("interval", (), 100000), ("cusp", (0.3,), 777), ("strip", (), 1000), ("ball", (), 160)],
)
def test_rasterize_slabs_match_one_membership_call(specs, name, t, res):
    spec = specs.get(name) or parse_domain(BALL)
    r = rasterize(spec, t, res)
    inner = (slice(1, -1),) * r.dim
    assert r.interior[inner].size > _BLOCK_POINTS
    centers = centre_grid(r)[inner]
    whole = spec.member_points(t, centers.reshape(-1, r.dim)).reshape(centers.shape[:-1])
    assert np.array_equal(r.interior[inner], whole)
    # and the apron stays exterior
    assert r.interior.sum() == whole.sum()


def test_rasterize_memory_is_bounded(specs):
    # the mask (2050^2 bytes, about 4 MB) plus one slab of centres; all
    # centres at once would take 64 MB
    spec = specs["disk"]
    tracemalloc.start()
    try:
        rasterize(spec, (), 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_empty_fiber_is_data(specs):
    r = rasterize(specs["shrink_disk"], (0.1,), 64)
    assert r.empty
    assert volume(r) == 0.0
    assert thickness_discrete(r, 0) == 0.0


def test_volume_disk(specs):
    v = volume(rasterize(specs["disk"], (), 512))
    assert abs(v - math.pi) / math.pi < 0.01


def test_volume_square(square64):
    # error bounded by a one-cell strip along the perimeter
    assert abs(volume(square64) - 1.0) <= 2.0 * square64.h * 4.0


def test_volume_cusp(specs):
    t = 0.3
    v = volume(rasterize(specs["cusp"], (t,), 1024))
    exact = t / 3.0
    assert abs(v - exact) / exact < 0.03


def test_volume_error_shrinks_with_resolution(specs):
    errs = [
        abs(volume(rasterize(specs["disk"], (), res)) - math.pi)
        for res in (64, 512)
    ]
    assert errs[1] < errs[0]


def test_thickness_disk_any_direction(specs):
    # chord lines sit at multiples of q across the direction, so one passes
    # through the origin, the disk's centre; scaled by 1e-170 or 1e160 the
    # line series' squares under- or overflow, and the chords must not move
    scaled = [
        parse_domain(f"dim 2\nbox [-1.5,1.5]x[-1.5,1.5]\nset: {s}*x^2 + {s}*y^2 - {s} < 0\n")
        for s in ("1e-170", "1e160")
    ]
    for spec in [specs["disk"], *scaled]:
        for d in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -0.7)]:
            assert abs(thickness(spec, (), d) - 2.0) < 1e-12


THIN_BAR = "dim 2\nbox [0,1]x[0,1]\nset: y > 0 and 1/1000 - y > 0\n"


@pytest.mark.parametrize(
    "name, t, direction, exact",
    [
        ("two_disks", (), (1.0, 0.0), 1.2),
        ("tiny_disk", (), (1.0, 0.0), 0.2),
        ("shrink_disk", (1.0,), (1.0, 0.0), math.sqrt(3.0)),
        (BALL, (), (1.0, 0.0, 0.0), 2.0),
        # far thinner than q, but every line along e2 crosses it
        (THIN_BAR, (), (0.0, 1.0), 1e-3),
    ],
    ids=["two_disks", "tiny_disk", "shrink_disk", "ball", "thin_bar"],
)
def test_thickness_extremal_line_on_the_lattice(specs, name, t, direction, exact):
    # each extremal line is a multiple of q across the direction
    spec = specs.get(name) or parse_domain(name)
    assert abs(thickness(spec, t, direction) - exact) < 1e-12


THIN_BOX = "dim 2\nbox [0,1]x[0.0005,0.0015]\nset: x > 0 and 1 - x > 0\n"
THIN_BOX_3D = "dim 3\nbox [0,1]x[0,0.001]x[0,0.001]\nset: x > 0 and 1 - x > 0\n"


@pytest.mark.parametrize(
    "text, direction, exact",
    [
        (THIN_BOX, (1.0, 0.0), 1.0),
        # the lines leave through the top or bottom face while inside
        (THIN_BOX, (1.0, 0.001), math.inf),
        (THIN_BOX_3D, (1.0, 0.0, 0.0), 1.0),
    ],
    ids=["2d-e1", "2d-oblique", "3d-e1"],
)
def test_thickness_box_thinner_than_q(text, direction, exact):
    # the box is far thinner than max span / LINES_PER_SPAN across the
    # direction, so the spacing there drops to a quarter of its width
    assert thickness(parse_domain(text), (), direction) == pytest.approx(exact, abs=1e-12)


def test_longest_chord_builds_no_raster(specs, monkeypatch):
    import poincare_lab.raster

    calls = []
    real = poincare_lab.raster.rasterize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(poincare_lab.raster, "rasterize", counting)
    longest_chord(specs["disk"], (), (1.0, 0.0))
    assert calls == []


def test_thickness_square_diagonal(specs):
    got = thickness(specs["square"], (), (1.0, 1.0))
    assert abs(got - math.sqrt(2.0)) < 1e-12


def test_thickness_annulus(specs):
    # the longest horizontal chord grazes the inner circle of radius 1/2
    got = thickness(specs["annulus"], (), (1.0, 0.0))
    assert abs(got - math.sqrt(3.0)) < 1e-2


def test_thickness_rect_axes(specs):
    spec = specs["rect2x1"]
    assert abs(thickness(spec, (), (0.0, 1.0)) - 1.0) < 1e-12
    assert abs(thickness(spec, (), (1.0, 0.0)) - 2.0) < 1e-12


def test_thickness_cusp_vertical(specs):
    # vertical chords of {0 < y < t x^2} have length t x^2, sup = t, taken
    # on the line x = 1, a multiple of q
    for t in (0.3, 1.0):
        got = thickness(specs["cusp"], (t,), (0.0, 1.0))
        assert abs(got - t) < 1e-12


def test_thickness_unbounded_strip(specs):
    assert thickness(specs["strip"], (), (1.0, 0.0)) == math.inf
    got = thickness(specs["strip"], (), (0.0, 1.0))
    assert abs(got - 1.0) < 1e-12


def test_thickness_empty_fiber_is_zero(specs):
    assert thickness(specs["shrink_disk"], (0.1,), (1.0, 0.0)) == 0.0


def test_longest_chord_reports_start_and_direction(specs):
    chord = longest_chord(specs["disk"], (), (1.0, 0.0))
    assert abs(chord.length - 2.0) <= 1e-12
    # the winning chord is the diameter on the lattice's centre line
    assert chord.start[1] == 0.0
    assert chord.direction == pytest.approx((1.0, 0.0))


def _inside_pieces(cuts, inside, row):
    return [(cuts[row, j], cuts[row, j + 1]) for j in np.nonzero(inside[row])[0]]


def test_line_cuts_disk_lines_of_unequal_span(specs):
    # horizontal lines through the unit disk, each ending at its own x past
    # the disk, so the rows have spans of unequal length
    offsets = np.array([0.0, 0.3, -0.55, 0.8, 0.97])
    ends = 2.6 + 0.2 * np.arange(offsets.size)
    origins = np.stack([np.full(offsets.size, -1.5), offsets], axis=1)
    cuts, inside, _ = line_cuts(
        specs["disk"], (), origins, (1.0, 0.0), np.zeros(offsets.size), ends
    )
    assert not (inside[:, 0] | inside[:, -1]).any()
    assert np.all(np.diff(cuts, axis=1) >= 0.0)
    for row, y in enumerate(offsets):
        (a, b), = _inside_pieces(cuts, inside, row)
        x = np.sqrt(1.0 - y * y)
        assert abs((b - a) - 2.0 * x) <= 1e-12
        assert abs(a - 1.5 + x) <= 1e-12


def test_line_cuts_atom_vanishing_on_the_line(specs):
    # along y = 0 the atom y^2 of the slit disk is 0 everywhere, so it holds
    # nowhere there and only x < 0 admits the line
    cuts, inside, _ = line_cuts(
        specs["slit_disk"], (), [[-1.5, 0.0]], (1.0, 0.0), np.zeros(1), np.full(1, 3.0)
    )
    (a, b), = _inside_pieces(cuts, inside, 0)
    assert (a - 1.5, b - 1.5) == pytest.approx((-1.0, 0.0), abs=1e-12)


def test_segment_extent_spans_gaps_and_stops_at_the_segment(specs):
    # across the slit at x = 0.5 the fiber is two pieces, but the extent
    # runs from the first point to the last; a segment inside the disk is
    # its own extent, and one that misses it has none
    slit, disk = specs["slit_disk"], specs["disk"]
    assert segment_extent(slit, (), (0.5, -1.5), (0.5, 1.5)) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert segment_extent(disk, (), (0.0, -0.5), (0.0, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert segment_extent(disk, (), (0.0, 0.5), (0.0, 1.5)) == pytest.approx(0.5, abs=1e-12)
    assert segment_extent(disk, (), (1.2, -1.0), (1.2, 1.0)) == 0.0


def test_line_cuts_tangent_line(specs):
    # y = 1 touches the disk at one point, which is outside the open set
    origins = [[-1.5, 1.0], [-1.5, 0.999]]
    cuts, inside, _ = line_cuts(
        specs["disk"], (), origins, (1.0, 0.0), np.zeros(2), np.full(2, 3.0)
    )
    assert _inside_pieces(cuts, inside, 0) == []
    (a, b), = _inside_pieces(cuts, inside, 1)
    assert abs((b - a) - 2.0 * math.sqrt(1.0 - 0.999**2)) <= 1e-12


def test_line_cuts_line_of_lower_degree(specs):
    # along e2 the cusp's atom t x^2 - y is linear in the line parameter
    t, xs = 0.5, np.array([0.2, 0.6, 1.0])
    origins = np.stack([xs, np.zeros(3)], axis=1)
    cuts, inside, _ = line_cuts(specs["cusp"], (t,), origins, (0.0, 1.0), np.zeros(3), np.ones(3))
    for row, x in enumerate(xs):
        (a, b), = _inside_pieces(cuts, inside, row)
        assert abs(a) <= 1e-12
        assert abs(b - t * x * x) <= 1e-12


def test_line_cuts_no_lines(specs):
    # a box thinner than q across the direction meets no chord line
    cuts, inside, _ = line_cuts(specs["disk"], (), np.empty((0, 2)), (1.0, 0.0), np.empty(0),
                             np.empty(0))
    assert cuts.shape == (0, 2) and inside.shape == (0, 1)


def test_line_cuts_name_their_atoms(specs):
    # the square's atoms x and 1 - x cut a horizontal line; y and 1 - y are
    # constant on it
    _, _, atoms = line_cuts(specs["square"], (), [[-0.5, 0.5]], (1.0, 0.0), np.zeros(1),
                            np.full(1, 2.0))
    assert atoms.tolist() == [[0, 1]]
    # y = 0.5 crosses the annulus's outer circle (atom 0) twice and touches
    # its inner circle (atom 1) at x = 0, whose double root stays two cuts
    cuts, inside, atoms = line_cuts(specs["annulus"], (), [[-1.5, 0.5]], (1.0, 0.0),
                                    np.zeros(1), np.full(1, 3.0))
    assert atoms.tolist() == [[0, 1, 1, 0]]
    assert np.abs(cuts[0, 1:-1] - 1.5 - [-math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.75)]).max() <= 1e-7
    assert inside.tolist() == [[False, True, False, True, False]]


def test_line_cuts_two_bars(specs):
    # the 1D union (0, 0.4) or (0.6, 1): two inside pieces
    cuts, inside, _ = line_cuts(specs["two_bars"], (), [[0.0]], (1.0,), np.zeros(1), np.ones(1))
    pieces = _inside_pieces(cuts, inside, 0)
    assert np.abs(np.array(pieces) - [(0.0, 0.4), (0.6, 1.0)]).max() <= 1e-12


def test_thickness_disk_diagonal_is_exact(specs):
    # the lines along (1, 1) include the one through the centre
    assert abs(thickness(specs["disk"], (), (1.0, 1.0)) - 2.0) <= 1e-12


def _colleague_roots(c):
    # the degree-2 roots as the eigenvalues of the colleague matrix, with
    # the same rule for a real root
    mat, weights = _colleague(2)
    mats = np.repeat(mat[None], len(c), axis=0)
    mats[:, :, -1] -= c[:, :2] / c[:, 2:] * weights
    u = np.linalg.eigvals(mats)
    return np.where((np.abs(u.real) < 1.0) & (np.abs(u.imag) <= 1e-7), u.real, np.nan)


def _monic_series(scale, b, c):
    # the Chebyshev series of scale * (x^2 + b x + c), x^2 = (T_0 + T_2) / 2
    return np.stack([scale * c + scale / 2, scale * b, scale / 2 + 0.0 * b], axis=1)


def test_quadratic_roots_are_the_colleague_eigenvalues():
    rng = np.random.default_rng(7)
    n = 2000
    scale = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    r1 = rng.uniform(-1.2, 1.2, n)
    uniform = rng.uniform(-1.0, 1.0, (n, 3))
    uniform[:, 2] = np.copysign(rng.uniform(0.25, 1.0, n), uniform[:, 2])
    apart = np.copysign(10.0 ** rng.uniform(-6, 0.3, n), r1)
    tangent = 10.0 ** rng.uniform(-12, -6, n)
    # 5% either side of the 1e-7 rule is the closest the coefficients
    # resolve; the first half are double roots, the rest are not real
    w = 1e-7 * np.repeat([0.95, 1.05], n // 2)
    near_one = np.choose(rng.integers(0, 4, n), [1 - 1e-9, 1 + 1e-9, -1 + 1e-9, -1 - 1e-9])
    for c in (
        uniform,
        _monic_series(scale, -(2 * r1 - apart), r1 * (r1 - apart)),
        _monic_series(scale, -(2 * r1 - tangent), r1 * (r1 - tangent)),  # near-tangent lines
        _monic_series(scale, -2 * r1, r1 * r1 + w * w),
        _monic_series(scale, -(near_one + r1 / 2), near_one * r1 / 2),
    ):
        got, want = np.sort(_series_roots(c), axis=1), np.sort(_colleague_roots(c), axis=1)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        # eigvals' own error grows like eps / separation; the closed form's
        # stays below it (checked against 50-digit roots)
        real, _ = _quadratic_roots(c)
        sep = np.abs(real[:, :1] - real[:, 1:])
        far = ~np.isnan(got) & (sep > 1e-4)
        assert (np.abs(got - want) <= 1e-15 / np.clip(sep, 1e-4, 1e-2))[far].all()
        # coefficients near 1e-170 or 1e160, whose squares under- or
        # overflow: a power-of-two factor keeps the bits, a decimal one
        # keeps the eigenvalues' pattern and agreement
        for e in (-565, 531):
            assert _series_roots(np.ldexp(c, e)).tobytes() == _series_roots(c).tobytes()
        for s in (1e-170, 1e160):
            got = np.sort(_series_roots(c * s), axis=1)
            want = np.sort(_colleague_roots(c * s), axis=1)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            far = ~np.isnan(got) & (sep > 1e-4)
            assert (np.abs(got - want) <= 1e-15 / np.clip(sep, 1e-4, 1e-2))[far].all()
    pair = _monic_series(1.0, np.array([-1.0, -1.0]), 0.25 + (1e-7 * np.array([0.95, 1.05])) ** 2)
    assert np.isnan(_series_roots(pair)).tolist() == [[False, False], [True, True]]
    # a c2 below 1e-13 of the row's largest coefficient makes the row linear
    roots = _series_roots(np.array([[0.3, -0.9, 0.8e-13 * 0.9], [2.0, 1.0, -1e-14]]))
    assert np.isnan(roots[:, 1]).all() and np.isnan(roots[1, 0])
    assert roots[0, 0] == 0.0 - 0.3 / -0.9


def test_line_kernel_bits_do_not_depend_on_blas_threads():
    # from degree 3 up (the cells' resultants, and here the quartic
    # superellipse's lines) the roots come from LAPACK's eigvals, whose bits
    # must not follow the BLAS thread count
    probe = (
        "import hashlib\n"
        "from poincare_lab import load_corpus, longest_chord, parse_domain, sample_boundary\n"
        "quartic = parse_domain('dim 2\\nbox [-1.5,1.5]x[-1.5,1.5]\\nset: 1 - x^4 - y^4 > 0')\n"
        "for name, t, d in [('disk', (), (0.3, 1.0)), ('cusp', (0.5,), (0.0, 1.0)),\n"
        "                   ('ellipse', (1.3,), (1.0, 2.0)), ('annulus', (), (0.3, 1.0)),\n"
        "                   ('quartic', (), (0.3, 1.0))]:\n"
        "    spec = quartic if name == 'quartic' else load_corpus(name)\n"
        "    chord = longest_chord(spec, t, d)\n"
        "    b = sample_boundary(spec, t, 1024, 0)\n"
        "    digest = hashlib.sha256(b.points.tobytes() + b.normals.tobytes()\n"
        "                            + b.atom_ids.tobytes()).hexdigest()\n"
        "    print(chord.length.hex(), len(b), digest)\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n},
        ).stdout
        for n in ("1", "2")
    }
    assert len(outs) == 1


def test_longest_chord_escaping_slanted_line(specs):
    # slanted lines enter the strip through y = 0 and leave the box at x = 10
    chord = longest_chord(specs["strip"], (), (1.0, 0.05))
    assert chord.length == math.inf
    assert specs["strip"].member_points((), chord.start)


def test_boundary_adjacent_derived_from_interior(specs):
    r = rasterize(specs["annulus"], (), 16)
    assert r.counts == r.interior.shape
    padded = np.pad(r.interior, 1)
    ref = np.zeros_like(r.interior)
    for i, j in np.argwhere(r.interior) + 1:
        ref[i - 1, j - 1] = not (
            padded[i - 1, j] and padded[i + 1, j] and padded[i, j - 1] and padded[i, j + 1]
        )
    assert np.array_equal(r.boundary_adjacent, ref)
    assert r.boundary_adjacent is r.boundary_adjacent


def test_longest_chord_empty_raises(specs):
    with pytest.raises(EmptyFiberError):
        longest_chord(specs["shrink_disk"], (0.1,), (1.0, 0.0))


def test_thickness_discrete_square(square64):
    got = thickness_discrete(square64, 0)
    assert abs(got - 1.0) <= 2.0 * square64.h


def test_thickness_discrete_stacked_bars():
    spec = parse_domain(
        "dim 2\nbox [0,1]x[0,1]\n"
        "set: (x > 0 and 1 - x > 0) and "
        "((y > 0 and 0.2 - y > 0) or (y - 0.5 > 0 and 0.7 - y > 0))\n"
    )
    r = rasterize(spec, (), 128)
    # runs along y stop at each bar, runs along x cross the full width
    assert abs(thickness_discrete(r, 1) - 0.2) <= 2.0 * r.h
    assert abs(thickness_discrete(r, 0) - 1.0) <= 2.0 * r.h


@pytest.mark.parametrize("text,res", [
    ("dim 1\nbox [0,1]\nset: (x - 0.1) * (0.3 - x) > 0 or (x - 0.45) * (0.9 - x) > 0\n", 50),
    ("dim 3\nbox [-1,1]x[-1,1]x[-1,1]\n"
     "set: 1 - x^2 - 4*y^2 - 9*z^2 > 0 or (0.04 - x^2 > 0 and 0.04 - y^2 > 0)\n", 20),
], ids=["1d", "3d"])
def test_thickness_discrete_is_the_longest_run(text, res):
    r = rasterize(parse_domain(text), (), res)
    for axis in range(r.dim):
        best = 0
        for line in np.moveaxis(r.interior, axis, -1).reshape(-1, r.counts[axis]):
            run = 0
            for cell in line:
                run = run + 1 if cell else 0
                best = max(best, run)
        assert thickness_discrete(r, axis) == best * r.h


def test_thickness_discrete_bounded_by_continuum(disk128):
    for ax in (0, 1):
        td = thickness_discrete(disk128, ax)
        tc = thickness(disk128.spec, (), np.eye(2)[ax])
        assert td <= tc + 2.0 * disk128.h


def test_thickness_discrete_axis_range(disk128):
    with pytest.raises(ValueError):
        thickness_discrete(disk128, 2)


def test_boundary_quadrature_disk_length(specs):
    nodes, weights = boundary_quadrature(specs["disk"], ())
    assert abs(weights.sum() - 2.0 * math.pi) / (2.0 * math.pi) < 0.01
    # every node is an exact root on the unit circle
    assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) < 1e-12


def test_boundary_quadrature_interval_nodes(specs):
    nodes, weights = boundary_quadrature(specs["interval"], ())
    assert nodes.tolist() == [[0.0], [1.0]]
    assert weights.tolist() == [1.0, 1.0]


def test_boundary_quadrature_exact_measures_and_box_faces(specs):
    # flat faces are exact, and so is a box face that closes a fiber: the
    # cusp(0.5) boundary within its box is the bottom edge, the curve
    # y = x^2 / 2 and the piece 0 < y < 1/2 of the face x = 1
    _, square = boundary_quadrature(specs["square"], ())
    assert abs(square.sum() - 4.0) <= 1e-12
    _, cusp = boundary_quadrature(specs["cusp"], (0.5,))
    exact = 1.0 + 0.5 + (math.sqrt(2.0) + math.asinh(1.0)) / 2.0
    assert cusp.sum() == pytest.approx(exact, rel=1e-5)
    _, ball = boundary_quadrature(parse_domain(BALL), ())
    assert ball.sum() == pytest.approx(4.0 * math.pi, rel=5e-4)


def test_write_pgm(tmp_path, disk128):
    path = tmp_path / "disk.pgm"
    write_pgm(disk128, path)
    blob = path.read_bytes()
    ny, nx = disk128.counts[1], disk128.counts[0]
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    assert blob.startswith(header)
    body = np.frombuffer(blob[len(header):], dtype=np.uint8)
    assert body.size == nx * ny
    assert set(np.unique(body)) <= {0, 128, 255}
    assert (body == 255).sum() + (body == 128).sum() == disk128.interior_count


def test_write_mask_roundtrip(tmp_path, disk128):
    import json

    bin_path = tmp_path / "mask.bin"
    json_path = tmp_path / "mask.json"
    write_mask(disk128, bin_path, json_path)
    sidecar = json.loads(json_path.read_text())
    assert sidecar["dims"] == list(disk128.counts)
    assert sidecar["order"] == "C"
    mask = np.frombuffer(bin_path.read_bytes(), dtype=np.uint8).reshape(
        sidecar["dims"]
    )
    assert np.array_equal(mask.astype(bool), disk128.interior)
    assert sidecar["interior_count"] == disk128.interior_count
