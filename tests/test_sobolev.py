import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from poincare_lab import sobolev
from poincare_lab import (
    boundary_points_1d,
    boundary_polyline,
    build_gradient,
    discrete_column_inequality,
    lp_norm,
    margin_field,
    parse_domain,
    poincare_constant,
    poincare_general_p,
    poincare_p2,
    rasterize,
    trace_ratio_battery,
    verify_thickness_bound,
)
from poincare_lab.errors import (
    DegenerateGeometryError,
    EmptyFiberError,
    SolverDivergedError,
    UnboundedDirectionError,
)
from poincare_lab.raster import RasterDomain

BALL = "dim 3\nbox [-1.5,1.5]x[-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 - z^2 > 0\n"
CUBE = (
    "dim 3\nbox [0,1]x[0,1]x[0,1]\n"
    "set: x > 0 and 1 - x > 0 and y > 0 and 1 - y > 0 and z > 0 and 1 - z > 0\n"
)


@pytest.fixture(scope="module")
def single_cell(specs):
    interior = np.zeros((5, 5), dtype=bool)
    interior[2, 2] = True
    return RasterDomain(
        spec=specs["square"],
        t=(),
        h=0.25,
        origin=(-0.25, -0.25),
        interior=interior,
        resolution=4,
    )


# -- fields and the gradient operator ---------------------------------------


def test_field_validation(square64):
    # a field is a plain array with one value per interior cell
    op = build_gradient(square64)
    with pytest.raises(ValueError):
        op.apply(np.zeros(3))
    z = op.apply(np.zeros(square64.interior_count))
    assert z.shape == (2, square64.interior.size)
    assert not z.any()


def test_single_cell_stencil(single_cell):
    op = build_gradient(single_cell)
    g = op.apply(np.array([1.0]))
    inv_h = 1.0 / single_cell.h
    # one -1/h at the cell and one +1/h at the backward neighbor, per axis
    for ax in range(2):
        vals = np.sort(g[ax][g[ax] != 0.0])
        assert vals == pytest.approx([-inv_h, inv_h])


def test_single_cell_constant(single_cell):
    # lambda_min = 2 * dim / h^2 for one isolated cell
    est = poincare_p2(single_cell)
    assert est.eigenvalue == pytest.approx(2 * 2 / single_cell.h**2, rel=1e-12)
    assert est.constant == pytest.approx(single_cell.h / 2.0, rel=1e-12)


def test_gradient_linearity_and_adjoint(disk128, rng):
    op = build_gradient(disk128)
    n = disk128.interior_count
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    gu, gv = op.apply(u), op.apply(v)
    assert np.allclose(op.apply(2.5 * u - v), 2.5 * gu - gv, atol=1e-12)
    w = rng.normal(size=gu.shape)
    lhs = float(np.sum(gu * w))
    rhs = float(u @ op.apply_transpose(w))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_operator_norm(square64, rng):
    op = build_gradient(square64)
    dim = square64.dim
    bound = 2.0 * math.sqrt(dim) / square64.h
    for _ in range(10):
        u = rng.normal(size=square64.interior_count)
        ratio = lp_norm(op.apply(u), 2.0, square64) / lp_norm(u, 2.0, square64)
        assert ratio <= bound * (1.0 + 1e-12)


def test_laplacian_symmetry(square64):
    A = build_gradient(square64).laplacian()
    assert (A - A.T).nnz == 0
    assert A.shape == (square64.interior_count,) * 2


def _reference_difference_matrices(raster):
    """Per-axis sparse forward-difference matrices assembled from COO
    triplets: rows are full-grid cells, columns interior cells, -1/h at the
    cell and +1/h at its backward neighbour's row."""
    counts = raster.counts
    n_full = int(np.prod(counts))
    flat_interior = np.flatnonzero(raster.interior.reshape(-1))
    col_of = np.full(n_full, -1, dtype=np.int64)
    col_of[flat_interior] = np.arange(flat_interior.size)
    inv_h = 1.0 / raster.h
    strides = np.ones(raster.dim, dtype=np.int64)
    for ax in range(raster.dim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * counts[ax + 1]
    idx_nd = np.argwhere(raster.interior)
    mats = []
    for ax in range(raster.dim):
        has_back = idx_nd[:, ax] > 0
        back_flat = flat_interior[has_back] - strides[ax]
        rows = np.concatenate([flat_interior, back_flat])
        cols = np.concatenate([col_of[flat_interior], col_of[flat_interior[has_back]]])
        vals = np.concatenate(
            [np.full(flat_interior.size, -inv_h), np.full(back_flat.size, inv_h)]
        )
        mats.append(
            scipy.sparse.coo_matrix(
                (vals, (rows, cols)), shape=(n_full, flat_interior.size)
            ).tocsr()
        )
    return mats


@pytest.mark.parametrize(
    "name,t,res",
    [("interval", (), 64), ("disk", (), 25), ("cusp", (0.5,), 65), ("ball", (), 25)],
)
def test_stencils_match_sparse_reference(specs, name, t, res):
    spec = specs.get(name) or parse_domain(BALL)
    r = rasterize(spec, t, res)
    op = build_gradient(r)
    mats = _reference_difference_matrices(r)
    rng = np.random.default_rng(res)
    u = rng.normal(size=r.interior_count)
    c = rng.normal(size=(r.dim, int(np.prod(r.counts))))
    g = op.apply(u)
    assert np.array_equal(g, np.stack([m @ u for m in mats]))
    # bytes, not values: the zero-extended np.diff stencils fix the sign of
    # every zero
    full = np.zeros(r.counts)
    full[r.interior] = u * (1.0 / r.h)
    for ax in range(r.dim):
        assert g[ax].tobytes() == np.diff(full, axis=ax, append=0.0).tobytes()
    assert np.array_equal(op.apply_transpose(c), sum(m.T @ ci for m, ci in zip(mats, c)))
    ref = sum((m.T @ m).tocsr() for m in mats).tocsr()
    A = op.laplacian()
    ref.sort_indices()
    # as assembled: the column order fixes the bits of A @ x
    assert A.has_canonical_format
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


def test_laplacian_memory_is_bounded(specs):
    # besides its own CSR arrays, assembly holds only per-cell neighbour
    # columns and flags
    op = build_gradient(rasterize(specs["square"], (), 512))
    tracemalloc.start()
    try:
        A = op.laplacian()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_laplacian_rejects_a_raster_without_apron(specs):
    interior = np.zeros((4, 4), dtype=bool)
    interior[1:, 1:3] = True
    r = RasterDomain(spec=specs["square"], t=(), h=0.25, origin=(0.0, 0.0), interior=interior)
    with pytest.raises(ValueError, match="grid edge"):
        build_gradient(r).laplacian()


def test_grad_accepts_field_objects(square64):
    # any array-like of interior values is a field, a function sampled at
    # the interior points included
    op = build_gradient(square64)
    x = square64.centers()[square64.interior][:, 0]
    assert np.array_equal(op.apply(x.tolist()), op.apply(x))


def test_empty_raster_rejected(specs):
    r = rasterize(specs["shrink_disk"], (0.1,), 32)
    with pytest.raises(EmptyFiberError):
        build_gradient(r)
    with pytest.raises(EmptyFiberError):
        poincare_p2(r)


# -- norms -------------------------------------------------------------------


def test_lp_norm_constant_field(square64):
    ones = np.ones(square64.interior_count)
    vol = square64.interior_count * square64.h**2
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(ones, p, square64) == pytest.approx(vol ** (1.0 / p))


def test_lp_norm_homogeneity_and_vectors(square64, rng):
    u = rng.normal(size=square64.interior_count)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(3.0 * u, p, square64) == pytest.approx(
            3.0 * lp_norm(u, p, square64), rel=1e-12
        )
    vec = rng.normal(size=(2, square64.interior_count))
    mags = np.sqrt(np.sum(vec * vec, axis=0))
    assert lp_norm(vec, 2.0, square64) == pytest.approx(
        lp_norm(mags, 2.0, square64), rel=1e-12
    )
    with pytest.raises(ValueError):
        lp_norm(u, 0.5, square64)


def test_tent_gradient_norm(interval64):
    op = build_gradient(interval64)
    q = interval64.centers()[interval64.interior]
    tent = np.minimum(q[:, 0], 1.0 - q[:, 0])
    # |tent'| = 1 a.e. and the zero-extension jumps at the ends are O(h)
    for p in (1.0, 2.0):
        assert lp_norm(op.apply(tent), p, interval64) == pytest.approx(
            1.0, rel=0.05
        )
    exact = (1.0 / ((2.0 + 1.0) * 2.0**2.0)) ** (1.0 / 2.0)
    assert lp_norm(tent, 2.0, interval64) == pytest.approx(exact, rel=0.01)


# -- p = 2 eigensolve ----------------------------------------------------------


def test_p2_matches_dense_eigensolve(specs):
    for name, res in (("interval", 64), ("disk", 24)):
        r = rasterize(specs[name], (), res)
        A = build_gradient(r).laplacian().toarray()
        oracle = float(scipy.linalg.eigvalsh(A)[0]) ** -0.5
        est = poincare_p2(r)
        assert est.constant == pytest.approx(oracle, rel=1e-9)
        assert est.method == "lobpcg-vcycle"


def test_p2_interval_continuum_limit(specs):
    est = poincare_p2(rasterize(specs["interval"], (), 2048))
    assert est.constant == pytest.approx(1.0 / math.pi, rel=0.005)


def test_p2_rayleigh_upper_bounds_every_field(disk128, rng):
    op = build_gradient(disk128)
    c = poincare_p2(disk128).constant
    for _ in range(20):
        u = rng.normal(size=disk128.interior_count)
        ratio = lp_norm(u, 2.0, disk128) / lp_norm(op.apply(u), 2.0, disk128)
        assert ratio <= c * (1.0 + 1e-9)


def test_p2_divergence_attaches_estimate(disk128, monkeypatch):
    monkeypatch.setattr(sobolev, "_MAX_OUTER", 1)
    with pytest.raises(SolverDivergedError) as err:
        poincare_p2(disk128, tol=1e-14)
    est = err.value.estimate
    assert est is not None
    assert est.constant > 0.0
    assert est.iterations == 1


@pytest.mark.parametrize(
    "name,res",
    [("interval", 4096), ("interval", 8192), ("square", 128), ("cube", 17), ("cube", 21)],
)
def test_p2_block_closed_form(specs, name, res):
    # a full block of m cells per axis has lambda = dim (4/h^2) sin^2(pi/(2(m+1)))
    r = rasterize(specs.get(name) or parse_domain(CUBE), (), res)
    assert r.interior_count == res**r.dim
    exact = r.dim * 4.0 / r.h**2 * math.sin(math.pi / (2 * (res + 1))) ** 2
    est = poincare_p2(r)
    assert est.eigenvalue == pytest.approx(exact, rel=1e-10)
    assert est.residual <= math.sqrt(est.tol) / 10.0
    assert est.iterations >= 1


@pytest.mark.parametrize(
    "name,res", [("disk", 128), ("two_disks", 256), ("annulus", 128), ("annulus", 256)]
)
def test_p2_matches_shift_invert_eigsh(specs, name, res):
    # two_disks has two mirror components, so its first eigenvalue is double;
    # the annulus has lambda_2 / lambda_1 = 1.049, a small gap for the
    # eigen-residual stop, and the V-cycle's coarse levels are not mirror
    # symmetric, so its iterates hold some of the double angular mode
    r = rasterize(specs[name], (), res)
    A = build_gradient(r).laplacian()
    oracle = float(scipy.sparse.linalg.eigsh(A, k=1, sigma=0, return_eigenvectors=False)[0])
    assert poincare_p2(r).eigenvalue == pytest.approx(oracle, rel=1e-10)


# three cells wide at res 4096: its second level is one cell wide, so its
# coarsening is empty
THIN_STRIP = "dim 2\nbox [0,1]x[0,1]\nset: x > 0 and 1 - x > 0 and y > 0 and 0.0008 - y > 0\n"


@pytest.mark.parametrize(
    "name,t,res",
    [
        ("disk", (), 128),
        ("cusp", (0.05,), 512),
        ("interval", (), 4096),
        ("cube", (), 17),
        ("thin_strip", (), 4096),
    ],
)
def test_vcycle_is_symmetric_positive_definite(specs, name, t, res):
    # the preconditioner must be SPD: u.Bv = v.Bu and u.Bu > 0
    spec = specs.get(name) or parse_domain({"cube": CUBE, "thin_strip": THIN_STRIP}[name])
    r = rasterize(spec, t, res)
    cycle = sobolev._VCycle(r, build_gradient(r).laplacian())
    if name == "cusp":
        # the coarse levels drop the tip cells, whose correction is 0
        assert (cycle.levels[0].parent == cycle.levels[1].A.shape[0]).any()
    # the hierarchy ends where coarsening leaves no cell
    assert cycle.levels[-1].parent is None
    assert all(lv.parent is not None for lv in cycle.levels[:-1])
    if name == "thin_strip":
        assert [lv.A.shape[0] for lv in cycle.levels] == [12288, 2047]
    if name == "interval":
        assert cycle.levels[-1].A.shape[0] == 1
    rng = np.random.default_rng(res)
    for _ in range(3):
        u, v = rng.normal(size=(2, r.interior_count))
        Bu, Bv = cycle(u).copy(), cycle(v).copy()
        assert u @ Bv == pytest.approx(v @ Bu, rel=1e-12)
        assert u @ Bu > 0.0


def test_p2_vcycle_bits_and_work(specs):
    # exact outputs of the V-cycle-preconditioned solve on a raster small
    # enough for a few coarse levels
    est = poincare_p2(rasterize(specs["disk"], (), 60))
    assert (est.constant.hex(), est.iterations) == ("0x1.b2fa708f4ada6p-2", 9)
    # one V-cycle per step bounds the work: shifted inverse iteration with
    # inner PCG took 60 V-cycles on square@256 and 37 on interval@2048
    assert poincare_p2(rasterize(specs["square"], (), 256)).iterations <= 24
    assert poincare_p2(rasterize(specs["interval"], (), 2048)).iterations <= 20



def test_p2_bits_do_not_depend_on_blas_threads():
    # the solve keeps LAPACK out of its bits: LAPACK's LU splits its sums by
    # the thread count, and a coarse inverse formed by it gave other bits at
    # two BLAS threads than at one on both fibers (101 and 683 cells)
    probe = (
        "from poincare_lab import load_corpus, poincare_p2, rasterize\n"
        "for name, t, res in [('disk', (), 17), ('cusp', (0.5,), 64)]:\n"
        "    e = poincare_p2(rasterize(load_corpus(name), t, res))\n"
        "    print(e.constant.hex(), e.iterations)\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n},
        ).stdout
        for n in ("1", "2")
    }
    assert len(outs) == 1

# -- general p descent ---------------------------------------------------------


def _reference_ratio_and_grad(op, u, p, eps_g, eps_u):
    """The smoothed ratio, its gradient and ||u||_p of one field, written
    out on the public operator."""
    h_w = op.h**op.raster.dim
    g = op.apply(u)
    m2 = (g * g).sum(axis=0) + eps_g * eps_g
    Ng = (float((m2 ** (p / 2.0)).sum()) * h_w) ** (1.0 / p)
    u2 = u * u + eps_u * eps_u
    Nu = (float((u2 ** (p / 2.0)).sum()) * h_w) ** (1.0 / p)
    R = Ng / Nu
    dNg = op.apply_transpose(g * m2 ** (p / 2.0 - 1.0)) * (h_w * Ng ** (1.0 - p))
    dNu = u * u2 ** (p / 2.0 - 1.0) * (h_w * Nu ** (1.0 - p))
    return R, (dNg - R * dNu) / Nu, Nu


@pytest.mark.parametrize("name,res", [("interval", 16), ("disk", 13), ("ball", 8)])
def test_value_only_ratio_matches_ratio_and_grad(specs, name, res):
    # the value-only and the gradient path of the scratch-buffer ratio equal
    # the one-field reference, bit for bit, on reused buffers
    r = rasterize(specs.get(name) or parse_domain(BALL), (), res)
    op = build_gradient(r)
    eps_u = 1e-9 * r.h
    rng = np.random.default_rng(res)
    for p in (1.0, 1.5, 3.0):
        ratio = sobolev._Ratio(op, p, eps_u)
        for eps_g in (eps_u, 1e-3, 0.5):
            u = rng.normal(size=r.interior_count)
            R_ref, g_ref, Nu_ref = _reference_ratio_and_grad(op, u, p, eps_g, eps_u)
            R, Nu, g = ratio.value_and_grad(u, eps_g)
            assert ratio.value(u, eps_g) == (R, Nu) == (R_ref, Nu_ref)
            assert g.tobytes() == g_ref.tobytes()


# Exact outputs of the descent: a change that alters its numerics on purpose
# updates these and says so in CHANGES.md.
@pytest.mark.parametrize(
    "name,res,p,bits",
    [
        ("disk", 5, 1.0, ("0x1.e4ea60f005f47p-2", 765, "0x1.82fbad493c789p-31")),
        ("square", 17, 3.0, ("0x1.110fbb6daa69ep-2", 977, "0x1.110fbb6daa69dp-53")),
        ("ball", 8, 3.0, ("0x1.c60f5c316ee12p-2", 625, "0x1.c60f5c316ee10p-53")),
        ("two_disks", 9, 1.5, ("0x1.3dc4bf608e7f0p-2", 1068, "0x0.0p+0")),
    ],
)
def test_general_p_golden_bits(specs, name, res, p, bits):
    spec = specs.get(name) or parse_domain(BALL)
    est = poincare_general_p(rasterize(spec, (), res), p)
    assert (est.constant.hex(), est.iterations, est.residual.hex()) == bits


def test_general_p_agrees_with_eigensolve_at_p2(square64):
    ref = poincare_p2(square64).constant
    est = poincare_general_p(square64, 2.0)
    assert est.constant == pytest.approx(ref, rel=0.01)
    assert not est.stagnation


def test_general_p1_interval_indicator_optimum(specs, interval64):
    # brute force over indicator and trapezoid profiles: total variation of
    # a nonnegative profile is at least twice its peak, and the indicator
    # of the whole interval attains ratio exactly 1/2
    op = build_gradient(interval64)
    best = 0.0
    n = interval64.interior_count
    for lo in range(0, n, 7):
        for hi in range(lo + 1, n + 1, 7):
            u = np.zeros(n)
            u[lo:hi] = 1.0
            best = max(
                best, lp_norm(u, 1.0, interval64) / lp_norm(op.apply(u), 1.0, interval64)
            )
    ramp = np.minimum(np.arange(1, n + 1), np.arange(n, 0, -1)).astype(float)
    best = max(
        best, lp_norm(ramp, 1.0, interval64) / lp_norm(op.apply(ramp), 1.0, interval64)
    )
    assert best == pytest.approx(0.5, abs=1e-12)

    est = poincare_general_p(interval64, 1.0)
    assert est.constant == pytest.approx(0.5, rel=0.03)
    assert est.constant <= 0.5 * (1.0 + 1e-9)


def test_general_p_lower_bounds_supremum(square64, rng):
    # the returned constant comes from an explicit field, so no random field
    # may beat it by more than the smoothing allowance
    est = poincare_general_p(square64, 3.0)
    op = build_gradient(square64)
    for _ in range(10):
        u = rng.normal(size=square64.interior_count)
        ratio = lp_norm(u, 3.0, square64) / lp_norm(op.apply(u), 3.0, square64)
        assert ratio <= est.constant * (1.0 + 1e-6)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("name,t,res", [("square", (), 17), ("annulus", (), 25), ("cusp", (0.5,), 25)])
def test_random_starts_do_not_beat_the_eigenvector_start(specs, name, t, res, p):
    # the evidence for one start per component: the same descent from
    # random fields finds no larger constant on these connected fibers
    r = rasterize(specs[name], t, res)
    est = poincare_general_p(r, p)
    op = build_gradient(r)
    rng = np.random.default_rng(res)
    for _ in range(2):
        u0 = rng.uniform(-1.0, 1.0, r.interior_count)
        ratio, _, _ = sobolev._trajectory(op, u0, p, 1e-9 * r.h, est.tol)
        assert 1.0 / ratio <= est.constant * (1.0 + 1e-7)


def test_general_p1_unequal_bars_finds_the_long_bar():
    # two components: the start restricted to each one reaches the long
    # bar's indicator profile, C_1 = 0.4 / 2
    spec = parse_domain(
        "dim 1\nbox [0,1]\nset: (x > 0 and 0.4 - x > 0) or (x - 0.7 > 0 and 1 - x > 0)\n"
    )
    est = poincare_general_p(rasterize(spec, (), 128), 1.0)
    assert est.constant == pytest.approx(0.2, rel=0.01)
    assert (est.spread, est.stagnation) == (0.0, False)


def test_poincare_constant_routes(specs, square64):
    assert poincare_constant(square64, 2.0).method == "lobpcg-vcycle"
    # a coarse raster reaches the descent route as well as square64 does
    square9 = rasterize(specs["square"], (), 9)
    assert poincare_constant(square9, 1.5, tol=1e-4).method == "rayleigh-descent"
    with pytest.raises(ValueError):
        poincare_constant(square64, 0.9)
    # one rule for a tolerance on both routes, checked before any work
    for p in (2.0, 1.5):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be finite and greater than 0"):
                poincare_constant(square64, p, tol=tol)


# -- the thickness bound -------------------------------------------------------


def test_verify_thickness_bound_square(specs, square64):
    rec = verify_thickness_bound(specs["square"], (), square64, 2.0, (0.0, 1.0))
    assert rec.kind == "thickness-bound"
    assert rec.passed
    d = rec.data
    assert d["thickness"] == pytest.approx(1.0, abs=1e-3)
    assert d["bound"] == pytest.approx(math.sqrt(2.0), rel=1e-3)
    assert d["constant"] <= d["bound_with_slack"]
    assert d["slack"] == pytest.approx(10.0 * square64.h / d["thickness"], rel=1e-9)
    for key in ("p", "direction", "margin", "method", "residual", "h"):
        assert key in d


def test_verify_thickness_bound_cusp(specs):
    spec = specs["cusp"]
    r = rasterize(spec, (0.5,), 128)
    rec = verify_thickness_bound(spec, (0.5,), r, 2.0, (0.0, 1.0))
    assert rec.passed
    assert rec.data["thickness"] == pytest.approx(0.5, abs=2e-3)


def test_verify_thickness_bound_unbounded(specs):
    r = rasterize(specs["strip"], (), 64)
    with pytest.raises(UnboundedDirectionError):
        verify_thickness_bound(specs["strip"], (), r, 2.0, (1.0, 0.0))
    rec = verify_thickness_bound(specs["strip"], (), r, 2.0, (0.0, 1.0))
    assert rec.passed


def test_verify_thickness_bound_empty(specs):
    r = rasterize(specs["shrink_disk"], (0.1,), 32)
    with pytest.raises(EmptyFiberError):
        verify_thickness_bound(specs["shrink_disk"], (0.1,), r, 2.0, (1.0, 0.0))


def test_discrete_column_inequality(square64, disk128):
    for r in (square64, disk128):
        for p in (1.0, 2.0, 4.0):
            for ax in (0, 1):
                rec = discrete_column_inequality(r, ax, p, trials=40)
                assert rec.passed
                assert rec.data["worst_ratio"] <= 1.0
                assert rec.data["violations"] == []


def test_scaling_law(specs):
    # dilating the domain by 2 doubles the constant exactly on the dilated grid
    big = parse_domain(
        "dim 2\nbox [0,2]x[0,2]\nset: x > 0 and 2 - x > 0 and y > 0 and 2 - y > 0\n"
    )
    c1 = poincare_p2(rasterize(specs["square"], (), 64)).constant
    c2 = poincare_p2(rasterize(big, (), 64)).constant
    assert c2 == pytest.approx(2.0 * c1, rel=1e-9)


def test_domain_monotonicity(specs):
    # a zero-extended field on a subdomain is admissible on the superdomain,
    # so the constant is monotone under set inclusion on a common grid
    inner = parse_domain(
        "dim 2\nbox [0,1]x[0,1]\n"
        "set: x - 0.2 > 0 and 0.8 - x > 0 and y - 0.2 > 0 and 0.8 - y > 0\n"
    )
    ci = poincare_p2(rasterize(inner, (), 64)).constant
    co = poincare_p2(rasterize(specs["square"], (), 64)).constant
    assert ci <= co * (1.0 + 1e-12)


# -- boundary trace ratios -----------------------------------------------------


def test_trace_disk_supremum(specs):
    r = rasterize(specs["disk"], (), 256)
    rep = trace_ratio_battery(r, 2.0, battery="polynomial")
    assert rep.supremum == pytest.approx(math.sqrt(2.0), rel=0.03)
    assert rep.stable is True
    assert rep.doubled_supremum == pytest.approx(rep.supremum, rel=0.1)
    # the constant function maximizes the ratio on a smooth domain
    assert max(rep.ratios, key=rep.ratios.get) == "one"


def test_trace_bump_battery_vanishes(specs):
    r = rasterize(specs["disk"], (), 256)
    rep = trace_ratio_battery(r, 2.0, battery="bump", doubling=False)
    # bump profiles vanish near the boundary, so every ratio is exactly zero
    assert rep.supremum == 0.0
    assert rep.doubled_supremum is None
    assert rep.stable is None
    # two zero suprema say nothing about stability
    rep = trace_ratio_battery(rasterize(specs["disk"], (), 64), 2.0, battery="bump")
    assert rep.supremum == rep.doubled_supremum == 0.0
    assert rep.stable is None


def test_trace_trigonometric_battery(specs):
    r = rasterize(specs["disk"], (), 128)
    rep = trace_ratio_battery(r, 2.0, battery="trigonometric", doubling=False)
    assert 0.0 < rep.supremum < 2.0


def test_trace_interval(interval64):
    rep = trace_ratio_battery(interval64, 2.0, battery="polynomial")
    assert rep.supremum > 0.0
    assert rep.stable is True


def test_trace_3d_not_implemented():
    cube = parse_domain(
        "dim 3\nbox [0,1]x[0,1]x[0,1]\n"
        "set: x>0 and 1-x>0 and y>0 and 1-y>0 and z>0 and 1-z>0\n"
    )
    r = rasterize(cube, (), 8)
    with pytest.raises(NotImplementedError):
        trace_ratio_battery(r, 2.0)


def test_trace_rejects_unknown_battery(square64):
    with pytest.raises(ValueError):
        trace_ratio_battery(square64, 2.0, battery="wavelets")
    # the norms are lp_norm's, which take p >= 1 only
    with pytest.raises(ValueError):
        trace_ratio_battery(square64, 0.5, doubling=False)


_THREE_INTERVALS = (
    "dim 1\nbox [0, 1]\n"
    "set: (x - 0.1 > 0 and 0.25 - x > 0) or (x - 0.4 > 0 and 0.6 - x > 0)"
    " or (x - 0.75 > 0 and 0.9 - x > 0)\n"
)
# at resolution 64 the origin is the centre of a marching square, and for
# |c| < (h/2)^2 the sign of s*x*y - c alternates around its corners: one
# saddle square, case 5 for s = 1 and 10 for s = -1, its centre inside for
# c < 0 and outside for c > 0
_SADDLE = (
    "dim 2\nparams c in [-1, 1], s in [-1, 1]\nbox [-1, 1] x [-1, 1]\n"
    "set: s*x*y - c > 0 and x^2 + y^2 < 0.9\n"
)


def _saddle_squares(r):
    """(case, centre inside) of every saddle square of the marching grid."""
    F = margin_field(r)
    c = (F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:])
    case = sum((v > 0.0).astype(int) << k for k, v in enumerate(c))
    centre = ((c[0] + c[1]) + c[2]) + c[3] > 0.0
    saddle = (case == 5) | (case == 10)
    return sorted(zip(case[saddle].tolist(), centre[saddle].tolist()))


def _trace_digest(r):
    lines = []
    for battery in ("polynomial", "trigonometric", "bump"):
        for p in (1.5, 2.0, 3.0):
            try:
                rep = trace_ratio_battery(r, p, battery, doubling=False)
            except DegenerateGeometryError:
                lines.append(f"{battery} {p} degenerate")
                continue
            lines += [f"{battery} {p} {k} {v.hex()}" for k, v in rep.ratios.items()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Exact boundary extraction and trace ratios at resolution 64: the 2D cases
# pin the shape and sha256 of the polyline bytes, the 1D case its crossings,
# and every case the digest of float.hex of every ratio of every battery at
# p in {1.5, 2, 3}.
@pytest.mark.parametrize(
    "name,t,saddles,boundary,trace",
    [
        (
            "disk", (), [],
            ((168, 2, 2), "4710b71fecebcb2ca6895ca1e810417320a560e7e9d9fffa702ca51587beace1"),
            "59aae3a73ff0208d792832fcb6827521865dfc0809908a1420a13c1bd60a2aaa",
        ),
        (
            "annulus", (), [],
            ((256, 2, 2), "e2dbc93d1466b6fc7894b32e47fe29fae7a7e3733a100104b7e094a245d19263"),
            "ea1b415c003b744d42faeb181f758a56e8a0bb2e7ad60873c1ca6dde1c944e9a",
        ),
        (
            "three_intervals", (), None,
            [
                "0x1.999999999999ap-4", "0x1.0000000000000p-2", "0x1.999999999999ap-2",
                "0x1.3333333333333p-1", "0x1.8000000000000p-1", "0x1.ccccccccccccdp-1",
            ],
            "809e754bd1952646a27f30efe5c75c477ff088d04385a13691cb9de0de281620",
        ),
        (
            "saddle", (1e-4, 1.0), [(5, False)],
            ((240, 2, 2), "09514cc004d59d3bbca5683ee5656716dc209c7a5cd9d1a928781c1f973bd0d7"),
            "df7da23666e48d8a84608e43f3b596a698c6f24631c8de02f2a3d042fe975e3b",
        ),
        (
            "saddle", (-1e-4, 1.0), [(5, True)],
            ((240, 2, 2), "c3a829cff3df6eff815326c2b92ed81764d160d1a7f2d637a3071406d011f458"),
            "642cc4ace336d5f384c9a38c1534d5a2f2cca0c6fbf3c309d829849940e99afb",
        ),
        (
            "saddle", (1e-4, -1.0), [(10, False)],
            ((240, 2, 2), "de5a79bd7bebed8ac5ed19ffdac0757abc0eb3ea99cd8dfb91b138cb0425c38d"),
            "4c51e94546b3ab60136ea5c1e3252be3f9921a6e4135001f16662773dcae50d6",
        ),
        (
            "saddle", (-1e-4, -1.0), [(10, True)],
            ((240, 2, 2), "2bd90cefb46feecbd7f58b98038ab0e3b439edc9105381e829e80d6b8c13dd32"),
            "9739b5974855e927c7c030e0986aa97ed6a8530996485d02b232e1c985fd4c34",
        ),
    ],
    ids=["disk", "annulus", "three_intervals", "case5_out", "case5_in", "case10_out", "case10_in"],
)
def test_boundary_and_trace_golden_bits(specs, name, t, saddles, boundary, trace):
    text = {"three_intervals": _THREE_INTERVALS, "saddle": _SADDLE}.get(name)
    r = rasterize(parse_domain(text) if text else specs[name], t, 64)
    if r.dim == 1:
        assert [v.hex() for v in boundary_points_1d(r)] == boundary
    else:
        segs = boundary_polyline(r)
        assert _saddle_squares(r) == saddles
        assert (segs.shape, hashlib.sha256(segs.tobytes()).hexdigest()) == boundary
    assert _trace_digest(r) == trace
