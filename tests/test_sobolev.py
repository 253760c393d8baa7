import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from poincare_lab import sobolev
from poincare_lab import (
    DiscreteField,
    build_gradient,
    discrete_column_inequality,
    grad,
    lp_norm,
    parse_domain,
    poincare_constant,
    poincare_general_p,
    poincare_p2,
    rasterize,
    trace_ratio_battery,
    verify_thickness_bound,
)
from poincare_lab.errors import (
    EmptyFiberError,
    SolverDivergedError,
    StagnationWarning,
    UnboundedDirectionError,
)
from poincare_lab.raster import RasterDomain


@pytest.fixture(scope="module")
def single_cell(specs):
    interior = np.zeros((5, 5), dtype=bool)
    interior[2, 2] = True
    return RasterDomain(
        spec=specs["square"],
        t=(),
        h=0.25,
        origin=(-0.25, -0.25),
        counts=(5, 5),
        interior=interior,
        boundary_adjacent=interior.copy(),
        resolution=4,
    )


# -- fields and the gradient operator ---------------------------------------


def test_field_validation(square64):
    with pytest.raises(ValueError):
        DiscreteField(square64, np.zeros(3))
    bad = np.zeros(square64.interior_count)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        DiscreteField(square64, bad)
    z = DiscreteField.zeros(square64)
    assert z.values.shape == (square64.interior_count,)


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
    spec = specs.get(name) or parse_domain(
        "dim 3\nbox [-1.5,1.5]x[-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 - z^2 > 0\n"
    )
    r = rasterize(spec, t, res)
    op = build_gradient(r)
    mats = _reference_difference_matrices(r)
    rng = np.random.default_rng(res)
    u = rng.normal(size=r.interior_count)
    c = rng.normal(size=(r.dim, int(np.prod(r.counts))))
    g = op.apply(u)
    assert np.array_equal(g, np.stack([m @ u for m in mats]))
    # bytes, not values: the zero-extended np.diff stencils fix the sign of
    # every zero, and the single-axis stencil must repeat apply exactly
    full = np.zeros(r.counts)
    full[r.interior] = u * (1.0 / r.h)
    for ax in range(r.dim):
        assert g[ax].tobytes() == np.diff(full, axis=ax, append=0.0).tobytes()
        assert op.apply_axis(u, ax).tobytes() == g[ax].tobytes()
    assert np.array_equal(op.apply_transpose(c), sum(m.T @ ci for m, ci in zip(mats, c)))
    ref = sum((m.T @ m).tocsr() for m in mats).tocsr()
    A = op.laplacian()
    ref.sort_indices()
    A.sort_indices()
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


def test_grad_accepts_field_objects(square64):
    op = build_gradient(square64)
    f = DiscreteField.from_function(square64, lambda q: q[:, 0])
    assert np.array_equal(grad(op, f), op.apply(f.values))


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
    tent = DiscreteField.from_function(
        interval64, lambda q: np.minimum(q[:, 0], 1.0 - q[:, 0])
    )
    # |tent'| = 1 a.e. and the zero-extension jumps at the ends are O(h)
    for p in (1.0, 2.0):
        assert lp_norm(op.apply(tent.values), p, interval64) == pytest.approx(
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
        assert est.method == "inverse-iteration-cg"


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


def test_p2_divergence_attaches_estimate(disk128):
    with pytest.raises(SolverDivergedError) as err:
        poincare_p2(disk128, tol=1e-14, max_outer=1)
    est = err.value.estimate
    assert est is not None
    assert est.constant > 0.0
    assert est.iterations == 1


# -- general p descent ---------------------------------------------------------


@pytest.mark.parametrize("name,res", [("interval", 16), ("disk", 13), ("ball", 8)])
def test_value_only_ratio_matches_ratio_and_grad(specs, name, res):
    spec = specs.get(name) or parse_domain(
        "dim 3\nbox [-1.5,1.5]x[-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 - z^2 > 0\n"
    )
    r = rasterize(spec, (), res)
    op = build_gradient(r)
    u = np.random.default_rng(res).normal(size=r.interior_count)
    for p in (1.0, 1.5, 3.0):
        for eps_g in (1e-9 * r.h, 0.5):
            R, Nu, _ = sobolev._ratio(op, u, p, eps_g, 1e-9 * r.h)
            R_ref, _, Nu_ref = sobolev._ratio_and_grad(op, u, p, eps_g, 1e-9 * r.h)
            assert R == R_ref
            assert Nu == Nu_ref


# Exact outputs of the descent: a change that alters its numerics on purpose
# updates these and says so in CHANGES.md.
@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StagnationWarning")
@pytest.mark.parametrize(
    "name,res,p,bits",
    [
        (
            "disk", 5, 1.0,
            ("0x1.e4ea62112192ep-2", 9636, "0x1.cf89168f3d367p-32", "0x1.9436f3b271f5ep-22"),
        ),
        (
            "square", 17, 3.0,
            ("0x1.110fbb6daa69ep-2", 10301, "0x0.0p+0", "0x1.110fbb6daa69ep-53"),
        ),
    ],
)
def test_general_p_golden_bits(specs, name, res, p, bits):
    est = poincare_general_p(rasterize(specs[name], (), res), p, seed=0)
    assert (est.constant.hex(), est.iterations, est.residual.hex(), est.spread.hex()) == bits


def test_general_p_agrees_with_eigensolve_at_p2(square64):
    ref = poincare_p2(square64).constant
    est = poincare_general_p(square64, 2.0)
    assert est.constant == pytest.approx(ref, rel=0.01)
    assert not est.stagnation


@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StagnationWarning")
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


def test_stagnation_warning_on_two_unequal_bars():
    spec = parse_domain(
        "dim 1\nbox [0,1]\nset: (x > 0 and 0.4 - x > 0) or (x - 0.7 > 0 and 1 - x > 0)\n"
    )
    r = rasterize(spec, (), 128)
    with pytest.warns(StagnationWarning):
        est = poincare_general_p(r, 1.0)
    assert est.stagnation
    assert est.spread > 0.05
    # the best trajectory still finds the long bar's indicator profile
    assert est.constant == pytest.approx(0.2, rel=0.05)


@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StagnationWarning")
def test_poincare_constant_routes(square64):
    assert poincare_constant(square64, 2.0).method == "inverse-iteration-cg"
    assert poincare_constant(square64, 1.5, tol=1e-4).method == "rayleigh-descent"
    with pytest.raises(ValueError):
        poincare_constant(square64, 0.9)


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
