import math
import tracemalloc

import numpy as np
import pytest

from poincare_lab import (
    BoundarySampleSet,
    candidate_directions,
    find_regular_direction,
    grid_points,
    margin,
    parse_domain,
    sample_boundary,
)
from poincare_lab.errors import EmptySamplesError, StratumTooThinWarning
from poincare_lab.raster import _BLOCK_POINTS, line_cuts


def test_disk_samples_radial(specs):
    s = sample_boundary(specs["disk"], (), count=2048, seed=1)
    assert len(s) > 1000
    radii = np.linalg.norm(s.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8
    unit = s.points / radii[:, None]
    align = np.abs(np.einsum("ij,ij->i", s.normals, unit))
    assert np.max(np.abs(align - 1.0)) < 1e-8


def test_cusp_normals_follow_atom_gradients(specs):
    spec = specs["cusp"]
    t = 0.7
    s = sample_boundary(spec, (t,), count=2048, seed=2)
    assert len(s) > 200
    # atoms in source order: x, y, t*x^2 - y
    for k, pt, n in zip(s.atom_ids, s.points, s.normals):
        if k == 0:
            expect = np.array([1.0, 0.0])
        elif k == 1:
            expect = np.array([0.0, 1.0])
        else:
            expect = np.array([2.0 * t * pt[0], -1.0])
            expect /= np.linalg.norm(expect)
        assert abs(abs(n @ expect) - 1.0) < 1e-7


def test_square_samples_single_atom_axis_normals(specs):
    s = sample_boundary(specs["square"], (), count=2048, seed=3)
    assert len(s) > 1000
    # only one atom active per sample, so every normal is an axis vector
    comp = np.abs(s.normals)
    assert np.all(np.isclose(comp.max(axis=1), 1.0, atol=1e-12))
    assert np.all(np.isclose(comp.min(axis=1), 0.0, atol=1e-12))


def test_margin_flat_strip(specs):
    s = sample_boundary(specs["strip"], (), count=2048, seed=4)
    assert margin(s, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert margin(s, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_margin_circle_small_everywhere(specs):
    # normals of a circle fill every direction, so no candidate stays away
    # from perpendicularity
    s = sample_boundary(specs["disk"], (), count=4096, seed=0)
    for d in candidate_directions(2, 64):
        assert margin(s, d) < 1e-2


def test_margin_cusp_graph_stratum(specs):
    spec = specs["cusp"]
    s = sample_boundary(spec, (1.0,), count=8192, seed=0)
    on = s.atom_ids == 2
    graph = BoundarySampleSet(s.points[on], s.normals[on], s.atom_ids[on], s.t)
    assert len(graph) > 100
    got = margin(graph, (0.0, 1.0))
    assert abs(got - 1.0 / math.sqrt(5.0)) < 1e-3


def test_margin_symmetry_and_lipschitz(specs, rng):
    s = sample_boundary(specs["disk"], (), count=1024, seed=5)
    for _ in range(20):
        v = rng.normal(size=2)
        d = v / np.linalg.norm(v)
        assert margin(s, d) == margin(s, -d)
        w = rng.normal(size=2)
        e = w / np.linalg.norm(w)
        assert abs(margin(s, d) - margin(s, e)) <= np.linalg.norm(d - e) + 1e-12


def test_margin_superset_monotone(specs):
    s = sample_boundary(specs["annulus"], (), count=2048, seed=6)
    on = s.atom_ids == 1
    inner = BoundarySampleSet(s.points[on], s.normals[on], s.atom_ids[on], s.t)
    assert 0 < len(inner) < len(s)
    d = np.array([0.6, 0.8])
    assert margin(s, d) <= margin(inner, d) + 1e-15


def test_margin_requires_unit_direction(specs):
    s = sample_boundary(specs["disk"], (), count=256, seed=7)
    with pytest.raises(ValueError):
        margin(s, (1.0, 1.0))


@pytest.mark.parametrize("direction", [(math.nan, 1.0), (math.inf, 0.0), (math.nan, math.nan)])
def test_margin_rejects_nonfinite_direction(specs, direction):
    s = sample_boundary(specs["disk"], (), count=256, seed=7)
    with pytest.raises(ValueError):
        margin(s, direction)


def test_margin_empty_samples(specs):
    with pytest.warns(StratumTooThinWarning):
        s = sample_boundary(specs["shrink_disk"], (0.1,), count=512, seed=0)
    assert len(s) == 0
    with pytest.raises(EmptySamplesError):
        margin(s, (1.0, 0.0))


def test_candidate_directions_properties():
    for dim, n in ((2, 512), (3, 512)):
        dirs = candidate_directions(dim, n)
        assert dirs.shape == (n, dim)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # antipodal reduction keeps the last coordinate non-negative
        assert np.all(dirs[:, -1] >= 0.0)
    two = candidate_directions(2, 512)
    assert any(np.array_equal(d, [1.0, 0.0]) for d in two)
    assert any(np.array_equal(d, [0.0, 1.0]) for d in two)
    assert np.array_equal(candidate_directions(1, 16), [[1.0]])
    with pytest.raises(ValueError):
        candidate_directions(4, 16)


def test_find_regular_direction_strip(specs):
    rep = find_regular_direction(specs["strip"], [()], directions=64, count=1024)
    assert rep.found
    assert rep.direction == pytest.approx((0.0, 1.0), abs=1e-12)
    assert rep.alpha == pytest.approx(1.0, abs=1e-12)


def test_find_regular_direction_cusp(specs):
    rep = find_regular_direction(
        specs["cusp"], [(0.05,), (0.5,), (1.0,)], directions=256, count=2048
    )
    assert rep.found
    assert rep.alpha >= 0.4
    # per-fiber margins are at least the pooled one
    assert all(m >= rep.alpha - 1e-12 for m in rep.per_fiber)


def test_find_regular_direction_circle(specs):
    rep = find_regular_direction(specs["disk"], [()], directions=512, count=4096)
    assert not rep.found
    assert rep.status == "no_regular_direction"
    assert rep.alpha < 1e-2


def test_find_regular_direction_empty_fiber_reported(specs):
    with pytest.warns(StratumTooThinWarning):
        rep = find_regular_direction(
            specs["shrink_disk"], [(0.5,), (0.1,)], directions=64, count=512
        )
    assert math.isinf(rep.per_fiber[1])
    assert rep.to_json_dict()["per_fiber_margin"][1] is None


def test_find_regular_direction_all_empty(specs):
    with pytest.raises(EmptySamplesError), pytest.warns(StratumTooThinWarning):
        find_regular_direction(specs["shrink_disk"], [(0.1,)], directions=64, count=512)


def test_find_regular_direction_validates_inputs(specs):
    with pytest.raises(ValueError):
        find_regular_direction(specs["disk"], [()], directions=8)
    with pytest.raises(ValueError):
        find_regular_direction(specs["disk"], [])


def test_find_regular_direction_blocked_margins_are_one_product(specs):
    # the running minimum over row blocks equals the minimum over the whole
    # normals-by-candidates product, byte for byte
    spec, ts = specs["cusp"], [(0.05,), (0.5,), (1.0,)]
    rep = find_regular_direction(spec, ts, directions=256, count=2048)
    pooled = np.concatenate([sample_boundary(spec, t, count=2048).normals for t in ts])
    cands = candidate_directions(2, 256)
    assert pooled.shape[0] > 4 * (_BLOCK_POINTS // cands.shape[0])
    whole = np.min(np.abs(pooled @ cands.T), axis=0)
    assert rep.candidate_margins.tobytes() == whole.tobytes()


def test_find_regular_direction_memory_is_bounded(specs):
    # nine cusp fibers pool about 23000 normals against 512 candidates; one
    # whole normals-by-candidates product would take about 90 MB
    spec = specs["cusp"]
    ts = grid_points(spec, [9])
    tracemalloc.start()
    try:
        find_regular_direction(spec, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_line_cuts_strip(specs):
    spec = specs["strip"]
    origins = np.array([[-3.0, -0.5], [0.25, -0.5], [7.5, -0.5]])
    cuts, inside, _ = line_cuts(spec, (), origins, np.array([0.0, 1.0]), np.zeros(3), np.full(3, 2.0))
    for r in range(3):
        flips = cuts[r, 1:-1][inside[r, 1:] != inside[r, :-1]]
        # crossings at y = 0 and y = 1, half a unit above the origins
        assert flips == pytest.approx([0.5, 1.5], abs=1e-12)


def test_sample_boundary_coincident_roots_in_1d():
    # x and x + 1e-8 vanish within 1e-8 of each other; the flip at 0 is a
    # root of x, so both ends are sampled
    spec = parse_domain("dim 1\nbox [-1,2]\nset: x > 0 and 1 - x > 0 and x + 1e-8 > 0\n")
    with pytest.warns(StratumTooThinWarning):
        s = sample_boundary(spec, (), count=64, seed=0)
    assert s.points.ravel().tolist() == [0.0, 1.0]
    assert s.normals.ravel().tolist() == [1.0, -1.0]
    assert s.atom_ids.tolist() == [0, 1]


def test_sample_boundary_flat_edge_takes_its_own_atom():
    # the inner circle's complex roots have real part 0 on the lines
    # |y| > 0.5, on the flat edge x = 0; they are no cuts, so every flat-edge
    # sample is a root of x with normal e1
    spec = parse_domain(
        "dim 2\nbox [-1.5,1.5]x[-1.5,1.5]\n"
        "set: x > 0 and x^2 + y^2 - 0.25 > 0 and 1 - x^2 - y^2 > 0\n"
    )
    s = sample_boundary(spec, (), seed=0)
    flat = np.abs(s.points[:, 0]) <= 1e-12
    assert flat.sum() == 351
    assert (s.atom_ids[flat] == 0).all()
    assert (np.abs(s.normals[flat]) == [1.0, 0.0]).all()


def test_sample_boundary_deterministic(specs):
    a = sample_boundary(specs["disk"], (), count=1024, seed=11)
    b = sample_boundary(specs["disk"], (), count=1024, seed=11)
    c = sample_boundary(specs["disk"], (), count=1024, seed=12)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.normals, b.normals)
    assert not np.array_equal(a.points, c.points)


def test_interval_warns_thin(specs):
    # a 1D box has one scan line and so produces two samples at most
    with pytest.warns(StratumTooThinWarning):
        s = sample_boundary(specs["interval"], (), count=4096, seed=0)
    assert len(s) == 2
    assert margin(s, (1.0,)) == pytest.approx(1.0)
