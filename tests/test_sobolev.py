import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse._compressed
import scipy.sparse.linalg

from poincare_lab import sobolev
from poincare_lab import (
    boundary_quadrature,
    build_gradient,
    discrete_column_inequality,
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
    DegenerateGeometryError,
    EmptyFiberError,
    SolverDivergedError,
    UnboundedDirectionError,
)
from poincare_lab.raster import RasterDomain, face_slices

BALL = "dim 3\nbox [-1.5,1.5]x[-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 - z^2 > 0\n"

CUBE = (
    "dim 3\nbox [0,1]x[0,1]x[0,1]\n"
    "set: x > 0 and 1 - x > 0 and y > 0 and 1 - y > 0 and z > 0 and 1 - z > 0\n"
)


def centre_grid(r):
    """Every cell centre of ``r``, shape ``r.counts + (r.dim,)``."""
    axes = [r.axis_centers(i) for i in range(r.dim)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


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
    [
        ("interval", (), 64),
        ("disk", (), 25),
        ("cusp", (0.5,), 65),
        ("ball", (), 25),
        # 4363 interior cells on a grid of about 264k: the shifted views
        # and the interior mask do the work far from the square
        ("cusp", (0.05,), 512),
        ("cube", (), 17),
    ],
)
def test_stencils_match_sparse_reference(specs, name, t, res):
    spec = specs.get(name) or parse_domain({"ball": BALL, "cube": CUBE}[name])
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


@pytest.mark.parametrize("name", ["square", "disk"])
def test_vcycle_memory_is_bounded(specs, name):
    # the hierarchy's build holds little beside the arrays that its levels
    # keep: no per-cell coordinates, and no 64-bit ranks on the fine grid
    r = rasterize(specs[name], (), 512)
    A = build_gradient(r).laplacian()
    tracemalloc.start()
    try:
        cycle = sobolev._VCycle(r, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = [a for lv in cycle.levels for a in (lv.x, lv.r, lv.parent, lv.restricted) if a is not None]
    kept += [a for lv in cycle.levels[1:] for a in (lv.A.data, lv.A.indices, lv.A.indptr)]
    assert peak < 1.25 * sum(a.nbytes for a in kept)


def test_vcycle_allocates_no_n_vector(specs, monkeypatch):
    # numpy buffers take(out=) in its default "raise" mode, so a cycle that
    # gathered that way allocated an n-vector (1.0 of them traced); the
    # solve above its set-up then held seven n-vectors, and six while it
    # kept A w apart from the finest level's residual buffer, not five
    r = rasterize(specs["square"], (), 128)
    n_vector = 8 * r.interior_count
    cycle = sobolev._VCycle(r, build_gradient(r).laplacian())
    b = np.ones(r.interior_count)
    tracemalloc.start()
    try:
        cycle(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n_vector

    built = []

    def setup(raster, A):
        # the peak is taken from the end of the set-up on
        cycle = vcycle(raster, A)
        built.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return cycle

    vcycle = sobolev._VCycle
    monkeypatch.setattr(sobolev, "_VCycle", setup)
    poincare_p2(r)
    tracemalloc.start()
    try:
        poincare_p2(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - built[-1] <= 5.5 * n_vector


def test_grad_accepts_field_objects(square64):
    # any array-like of interior values is a field, a function sampled at
    # the interior points included
    op = build_gradient(square64)
    x = centre_grid(square64)[square64.interior][:, 0]
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


def test_lp_norm_is_the_temporaries_formula_and_only_reads(square64, rng):
    # the in-place kernel gives the bits of the formula written with fresh
    # temporaries, and leaves the caller's array as it was
    w = square64.h**square64.dim
    for shape in [(square64.interior_count,), (1, 300), (2, 300), (3, 300)]:
        a = rng.normal(size=shape)
        kept = a.copy()
        mag = np.abs(a) if a.ndim == 1 else np.sqrt(np.sum(a * a, axis=0))
        for p in (1.0, 1.5, 2.0, 3.0):
            ref = float(np.sum(mag**p) * w) ** (1.0 / p)
            assert lp_norm(a, p, square64).hex() == ref.hex()
        assert a.tobytes() == kept.tobytes()


def test_tent_gradient_norm(interval64):
    op = build_gradient(interval64)
    q = centre_grid(interval64)[interval64.interior]
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
    # two_disks@24 and @32 have a double lowest eigenvalue (relative gaps
    # 2.9e-16 and 6.8e-14); the isolated cells are two components of 1 and
    # 4 cells
    rasters = [rasterize(specs[name], (), res) for name, res in
               (("interval", 64), ("disk", 24), ("two_disks", 24), ("two_disks", 32))]
    for r in rasters + [_isolated_cells(specs)]:
        A = build_gradient(r).laplacian().toarray()
        oracle = float(scipy.linalg.eigvalsh(A)[0]) ** -0.5
        est = poincare_p2(r)
        assert est.constant == pytest.approx(oracle, rel=1e-9)
        assert est.method == "lobpcg-vcycle"


def test_rayleigh_ritz_drops_a_dependent_vector(specs, monkeypatch):
    # Gram matrices of bases that degenerate: p within about 1e-4 of the
    # span of x and w, p in it exactly, w along x and p = 0; what is kept
    # gives the Ritz value of an explicitly orthonormalized basis
    r = rasterize(specs["disk"], (), 24)
    A = build_gradient(r).laplacian()
    x, w, e = np.random.default_rng(24).normal(size=(3, r.interior_count))

    def lowest_ritz_value(*vs):
        Q = np.linalg.qr(np.column_stack(vs))[0]
        return np.linalg.eigvalsh(Q.T @ (A @ Q))[0]

    cases = [
        ((x, w, e), [0, 1, 2], lowest_ritz_value(x, w, e)),
        ((x, w, 2.0 * x - w + 1e-4 * e), [0, 1], lowest_ritz_value(x, w)),
        ((x, w, 3.0 * w), [0, 1], lowest_ritz_value(x, w)),
        ((x, -2.0 * x, np.zeros_like(x)), [0], lowest_ritz_value(x)),
    ]
    for basis, kept, want in cases:
        V = np.column_stack(basis)
        GA, GB = V.T @ (A @ V), V.T @ V
        y, gap = sobolev._rayleigh_ritz(GA, GB)
        assert np.flatnonzero(y).tolist() == kept
        assert y[0] > 0.0
        assert y @ GB @ y == pytest.approx(1.0, rel=1e-12)
        assert y @ GA @ y == pytest.approx(want, rel=1e-12)
        assert (gap is None) == (len(kept) == 1)

    # in a solve: interval@4096 drops p = 0 at the first step and, at the
    # second, a p whose squared pivot is 3e-11, and still meets its closed form
    drops = []
    ritz = sobolev._rayleigh_ritz

    def record(GA, GB):
        y, gap = ritz(GA, GB)
        drops.append(y[2] == 0.0)
        return y, gap

    monkeypatch.setattr(sobolev, "_rayleigh_ritz", record)
    r = rasterize(specs["interval"], (), 4096)
    exact = 4.0 / r.h**2 * math.sin(math.pi / (2 * 4097)) ** 2
    assert poincare_p2(r).eigenvalue == pytest.approx(exact, rel=1e-10)
    assert drops[:3] == [True, True, False]


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
    # the first step keeps x and w, so it has a second Ritz value
    assert "relative Ritz gap" in str(err.value)
    assert "unknown" not in str(err.value)


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


def _reference_coarse_mask(interior):
    """A coarse cell is interior iff its 2^dim fine cells are, the grid
    padded by an exterior plane along each odd axis."""
    inside = np.pad(interior, [(0, c % 2) for c in interior.shape])
    blocks = inside.reshape(sum(((c // 2, 2) for c in inside.shape), ()))
    return blocks.all(axis=tuple(range(1, 2 * interior.ndim, 2)))


def _reference_parent(fine, coarse):
    """Per fine interior cell, from its coordinates, the rank of its coarse
    cell, or the coarse cell count where that cell is exterior."""
    n = int(coarse.sum())
    index = np.full(coarse.shape, n)
    index[coarse] = np.arange(n)
    return index[tuple(k // 2 for k in np.nonzero(fine))]


@pytest.mark.parametrize(
    "name,t,res",
    [
        ("interval", (), 4096),
        ("interval", (), 2047),
        ("disk", (), 100),
        ("cusp", (0.05,), 512),
        ("cube", (), 17),
        ("thin_strip", (), 4096),
    ],
)
def test_vcycle_hierarchy_matches_its_definition(specs, name, t, res):
    # every level's mask and map to its coarse level, byte for byte, against
    # the per-cell expressions: 1D at even and odd counts, tip cells dropped
    # on the cusp, 3D, and a hierarchy that ends on an empty coarsening
    spec = specs.get(name) or parse_domain({"cube": CUBE, "thin_strip": THIN_STRIP}[name])
    fine = rasterize(spec, t, res)
    cycle = sobolev._VCycle(fine, build_gradient(fine).laplacian())
    for level in cycle.levels:
        assert level.A.shape[0] == fine.interior_count
        mask = _reference_coarse_mask(fine.interior)
        coarse = sobolev._coarsen(fine)
        assert coarse.interior.dtype == mask.dtype and coarse.interior.shape == mask.shape
        assert coarse.interior.tobytes() == mask.tobytes()
        if level.parent is None:
            assert not mask.any()
        else:
            want = _reference_parent(fine.interior, mask)
            assert level.parent.dtype == want.dtype
            assert level.parent.tobytes() == want.tobytes()
        fine = coarse


def _reference_cycle(cycle, b):
    """One V-cycle on ``cycle``'s hierarchy, in buffers of its own, written
    with per-call views, the raise-mode gather, ``np.add.at`` and
    ``A @ x``."""
    iterates = [np.zeros(level.A.shape[0] + 1) for level in cycle.levels]

    def run(k, b):
        level = cycle.levels[k]
        x, r = iterates[k][:-1], np.zeros(b.shape[0])

        def smooth(x, r, sweeps):
            for _ in range(sweeps):
                np.subtract(b, level.A @ x, out=r)
                r *= level.jacobi
                x += r

        np.multiply(b, level.jacobi, out=x)
        smooth(x, r, 1)
        if level.parent is not None:
            np.subtract(b, level.A @ x, out=r)
            restricted = np.zeros(iterates[k + 1].shape[0])
            np.add.at(restricted, level.parent, r)
            restricted *= cycle.restriction_weight
            run(k + 1, restricted[:-1])
            x += np.take(iterates[k + 1], level.parent, out=r)
        smooth(x, r, 2)
        return x

    return run(0, b)


@pytest.mark.parametrize(
    "name,t,res", [("interval", (), 2047), ("disk", (), 100), ("cusp", (0.05,), 512), ("cube", (), 17)]
)
def test_vcycle_is_the_bits_of_its_reference(specs, monkeypatch, name, t, res):
    # the clipped gather and the bound views and products change no bit,
    # on cells whose coarse cell is exterior too (the cusp's tip), and a
    # cycle leaves nothing behind for the next; nor does the fallback
    # where scipy's private kernel is gone
    r = rasterize(specs.get(name) or parse_domain(CUBE), t, res)
    A = build_gradient(r).laplacian()
    rng = np.random.default_rng(res)
    fields = [rng.normal(size=A.shape[0]) for _ in range(2)]
    want = [_reference_cycle(sobolev._VCycle(r, A), b).tobytes() for b in fields]
    cycle = sobolev._VCycle(r, A)
    assert [cycle(b).tobytes() for b in fields] == want

    products = []
    matmul = scipy.sparse._compressed._cs_matrix._matmul_vector
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    monkeypatch.setattr(
        scipy.sparse._compressed._cs_matrix,
        "_matmul_vector",
        lambda self, other: products.append(1) or matmul(self, other),
    )
    cycle = sobolev._VCycle(r, A)
    assert [cycle(b).tobytes() for b in fields] == want
    assert products


def test_p2_step_cap_reports_the_ritz_gap():
    # the strip's relative gap (lambda_2 - lambda_1) / lambda_1 is about
    # 3e-6, so the eigen-residual stop is out of reach in _MAX_OUTER steps;
    # the error names the last step's relative Ritz gap on (x, w, p), which
    # shrinks with the steps toward that gap from above (0.022 at step 21)
    with pytest.raises(SolverDivergedError) as err:
        poincare_p2(rasterize(parse_domain(THIN_STRIP), (), 4096))
    match = re.search(r"relative Ritz gap \(theta2 - theta1\) / theta1 = (\S+)$", str(err.value))
    assert match is not None
    m = 4096  # a full 4096 x 3 block: lambda_ij = (4/h^2)(sin^2(i a) + sin^2(j b))
    a, b = math.pi / (2 * (m + 1)), math.pi / 8
    true_gap = (math.sin(2 * a) ** 2 - math.sin(a) ** 2) / (math.sin(a) ** 2 + math.sin(b) ** 2)
    assert true_gap < float(match.group(1)) < 1e-2
    assert err.value.estimate.iterations == sobolev._MAX_OUTER


@pytest.mark.parametrize(
    "name,t,res", [("interval", (), 2048), ("disk", (), 100), ("cusp", (0.5,), 128), ("ball", (), 16)]
)
def test_matvec_is_the_bytes_of_a_sparse_product(specs, name, t, res):
    # _product runs scipy's private csr_matvec; it must keep giving the bytes
    # of A @ x on every level of the hierarchy, whatever scipy's version
    r = rasterize(specs.get(name) or parse_domain(BALL), t, res)
    cycle = sobolev._VCycle(r, build_gradient(r).laplacian())
    rng = np.random.default_rng(res)
    for level in cycle.levels:
        x = rng.normal(size=level.A.shape[0])
        out = np.full(level.A.shape[0], np.nan)
        sobolev._product(level.A, x, out)()
        assert out.tobytes() == (level.A @ x).tobytes()


def test_matvec_falls_back_to_a_sparse_product(specs, monkeypatch):
    # a scipy release without the private kernel: _product copies A @ x,
    # the same bytes, and the solve keeps its bits and step count
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    with pytest.raises(ImportError):
        from scipy.sparse._sparsetools import csr_matvec  # noqa: F401
    r = rasterize(specs["disk"], (), 60)
    A = build_gradient(r).laplacian()
    x = np.random.default_rng(60).normal(size=A.shape[0])
    out = np.full(A.shape[0], np.nan)
    sobolev._product(A, x, out)()
    assert out.tobytes() == (A @ x).tobytes()
    est = poincare_p2(r)
    assert (est.constant.hex(), est.iterations) == ("0x1.b2fa708f4ada6p-2", 9)


def test_p2_solve_makes_no_allocating_sparse_product(specs, monkeypatch):
    # every product of the solve is written into its own buffers, so none
    # goes through A @ x, which allocates its result
    def refuse(self, other):
        raise AssertionError("A @ x inside the p = 2 solve")

    monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_matmul_vector", refuse)
    est = poincare_p2(rasterize(specs["disk"], (), 60))
    assert (est.constant.hex(), est.iterations) == ("0x1.b2fa708f4ada6p-2", 9)


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
    """The smoothed ratio R(u), ||u||_p, and the gradient of the normalized
    functional f(v) = R(v / ||v||_p) at a normalized ``u``, written out on
    the public operator."""
    h_w = op.h**op.raster.dim
    g = op.apply(u)
    m2 = (g * g).sum(axis=0) + eps_g * eps_g
    Ng = (float((m2 ** (p / 2.0)).sum()) * h_w) ** (1.0 / p)
    u2 = u * u + eps_u * eps_u
    Nu = (float((u2 ** (p / 2.0)).sum()) * h_w) ** (1.0 / p)
    dNg = op.apply_transpose(g * m2 ** (p / 2.0 - 1.0)) * (h_w * Ng ** (1.0 - p))
    dNu = u * u2 ** (p / 2.0 - 1.0) * (h_w * Nu ** (1.0 - p))
    radial = float((dNg * u).sum())  # pairwise, as the descent's dots
    return Ng / Nu, (dNg - (radial / Nu) * dNu) / Nu, Nu


def _normalized_field(op, rng, p, eps_u):
    u = rng.normal(size=op.raster.interior_count)
    return u / _reference_ratio_and_grad(op, u, p, eps_u, eps_u)[2]


@pytest.mark.parametrize("name,res", [("interval", 16), ("disk", 13), ("ball", 8)])
def test_value_only_ratio_matches_ratio_and_grad(specs, name, res):
    # the ratio, the field norm and the gradient read back from the kept
    # terms equal the one-field reference, bit for bit, on buffers that an
    # earlier candidate wrote, as in the line search
    r = rasterize(specs.get(name) or parse_domain(BALL), (), res)
    op = build_gradient(r)
    eps_u = 1e-9 * r.h
    rng = np.random.default_rng(res)
    for p in (1.0, 1.5, 3.0):
        ratio = sobolev._Ratio(op, p, eps_u)
        for eps_g in (eps_u, 1e-3, 0.5):
            u = _normalized_field(op, rng, p, eps_u)
            R_ref, g_ref, Nu_ref = _reference_ratio_and_grad(op, u, p, eps_g, eps_u)
            ratio.value(rng.normal(size=u.size), eps_g)
            assert ratio.value(u, eps_g) == R_ref
            assert ratio.grad(u, np.empty(u.size)).tobytes() == g_ref.tobytes()
            assert ratio.norm(u) == Nu_ref


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_ratio_gradient_is_that_of_the_normalized_functional(specs, p):
    # at eps_g = 0.5, R is far from scale-invariant, so the gradient the
    # descent follows must be that of f(v) = R(v / ||v||_p), which its line
    # search measures, and not that of R; central differences of f along
    # random directions tell the two apart
    r = rasterize(specs["disk"], (), 13)
    op = build_gradient(r)
    eps_u, eps_g = 1e-9 * r.h, 0.5
    ratio = sobolev._Ratio(op, p, eps_u)

    def f(v):
        w = v / _reference_ratio_and_grad(op, v, p, eps_g, eps_u)[2]
        return _reference_ratio_and_grad(op, w, p, eps_g, eps_u)[0]

    rng = np.random.default_rng(13)
    u = _normalized_field(op, rng, p, eps_u)
    ratio.value(u, eps_g)
    g = ratio.grad(u, np.empty(u.size))
    for _ in range(3):
        e = rng.normal(size=u.size)
        e /= np.linalg.norm(e)
        t = 1e-6
        central = (f(u + t * e) - f(u - t * e)) / (2.0 * t)
        assert central == pytest.approx(float(g @ e), rel=1e-5, abs=1e-7 * np.linalg.norm(g))


@pytest.mark.parametrize("name,t,res", [("cusp", (0.05,), 512), ("cube", (), 17)])
def test_ratio_gradient_buffer_keeps_its_last_planes_at_positive_zero(specs, name, t, res):
    # the stencil never writes the cells whose forward neighbour is past the
    # grid, and grad weights the buffer in place by (M2 + eps_g^2)^(p/2 - 1),
    # finite and positive, so those entries stay +0.0 round after round, as
    # do the other last-plane ones, whose differences pair two exterior cells
    r = rasterize(parse_domain(CUBE) if name == "cube" else specs[name], t, res)
    op = build_gradient(r)
    eps_u = 1e-9 * r.h
    rng = np.random.default_rng(res)
    planes = [last for _, _, last, _ in face_slices(r.dim)]
    for p in (1.0, 3.0):
        ratio = sobolev._Ratio(op, p, eps_u)
        g = np.empty(r.interior_count)
        for eps_g in (eps_u, 1e-3, 0.5, eps_u):
            u = rng.normal(size=r.interior_count)
            u /= ratio.norm(u)
            ratio.value(u, eps_g)
            ratio.grad(u, g)
            for row, last in zip(ratio._grad, planes):
                plane = row.reshape(r.counts)[last]
                assert plane.tobytes() == np.zeros(plane.shape).tobytes()


# Exact outputs of the descent: a change that alters its numerics on purpose
# updates these and says so in CHANGES.md.
@pytest.mark.parametrize(
    "name,res,p,bits",
    [
        ("disk", 5, 1.0, ("0x1.e4ea63104b3c4p-2", 284, "0x1.af79fd8f04cdbp-34")),
        ("square", 17, 3.0, ("0x1.110fbb6da3beep-2", 47, "0x1.23c75fbe5a6f9p-34")),
        ("ball", 8, 3.0, ("0x1.c60f5c316ee0fp-2", 25, "0x1.4e067eaf31742p-35")),
        ("two_disks", 9, 1.5, ("0x1.3dc4bf608e7f0p-2", 31, "0x1.9c46e09325bcap-18")),
        # the general-p benchmark's solves and the CI step's third one
        ("disk", 25, 1.0, ("0x1.d3cb0e451b514p-2", 1757, "0x1.7f4a222852c0dp-34")),
        ("square", 33, 3.0, ("0x1.098be41b6f94cp-2", 84, "0x1.ac15c660c2a70p-34")),
        ("interval", 256, 1.5, ("0x1.51625cba24dcfp-2", 1901, "0x1.9dfaadc811cd2p-34")),
    ],
)
def test_general_p_golden_bits(specs, name, res, p, bits):
    spec = specs.get(name) or parse_domain(BALL)
    est = poincare_general_p(rasterize(spec, (), res), p)
    assert (est.constant.hex(), est.iterations, est.residual.hex()) == bits


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_general_p_interval_closed_form(specs, p):
    # in 1D, C_p = 1 / (pi_p (p - 1)^(1/p)) with pi_p = 2 pi / (p sin(pi / p));
    # zero extension makes the discrete interval 1 + h long
    r = rasterize(specs["interval"], (), 256)
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    exact = (1.0 + r.h) / (pi_p * (p - 1.0) ** (1.0 / p))
    assert poincare_general_p(r, p).constant == pytest.approx(exact, rel=5e-5)


def test_general_p_descent_work(specs, monkeypatch):
    # one L-BFGS stage from the p = 2 eigenvector: the annealed
    # Barzilai-Borwein descent took 857 steps here
    assert poincare_general_p(rasterize(specs["square"], (), 33), 3.0).iterations <= 150

    # at p = 1 each point is differenced once: the accepted candidate's
    # terms give the next gradient (differencing it again took 2.13 stencils
    # per step, 2297 steps, and two stages on the step cap)
    stencils = []
    stencil = sobolev._Stencil.__call__
    monkeypatch.setattr(
        sobolev._Stencil, "__call__",
        lambda self, *a: stencils.append(1) or stencil(self, *a),
    )
    stages = []
    descend = sobolev._descend

    def record(ratio, u0, eps_g, max_iter, rtol):
        out = descend(ratio, u0, eps_g, max_iter, rtol)
        stages.append((max_iter, out[2]))
        return out

    monkeypatch.setattr(sobolev, "_descend", record)
    steps = poincare_general_p(rasterize(specs["disk"], (), 25), 1.0).iterations
    assert steps <= 2000
    assert len(stencils) <= 1.25 * steps
    annealed = [it for max_iter, it in stages if max_iter == sobolev._STAGE_ITER]
    assert len(annealed) > 1 and max(annealed) < sobolev._STAGE_ITER


def test_descent_bits_do_not_depend_on_blas_threads():
    # above about 10000 cells a BLAS dot product splits its sum by the thread
    # count; the descent's dots are pairwise sums.  The start is a fixed
    # field, since the p = 2 eigenvector is still thread-dependent there.
    probe = (
        "import numpy as np\n"
        "from poincare_lab import build_gradient, load_corpus, rasterize, sobolev\n"
        "r = rasterize(load_corpus('square'), (), 110)\n"
        "R, _, it = sobolev._trajectory(build_gradient(r), np.ones(r.interior_count), 3.0, 1e-9 * r.h, 1e-6)\n"
        "print(r.interior_count, R.hex(), it)\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n},
        ).stdout
        for n in ("1", "2")
    }
    assert len(outs) == 1


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
                rec = discrete_column_inequality(r, ax, p)
                assert rec.passed
                assert rec.data["worst_ratio"] <= 1.0
                want = rec.data["column_constant"] / rec.data["thickness_discrete"]
                if p in (1.0, 2.0):
                    assert abs(rec.data["worst_ratio"] - want) <= 1e-12
                else:
                    assert rec.data["worst_ratio"] <= want * (1.0 + 1e-12)


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


def test_trace_3d_cube_constant_ratio():
    cube = parse_domain(
        "dim 3\nbox [0,1]x[0,1]x[0,1]\n"
        "set: x>0 and 1-x>0 and y>0 and 1-y>0 and z>0 and 1-z>0\n"
    )
    r = rasterize(cube, (), 8)
    assert r.interior_count == 512
    # the constant's ratio is sqrt(area / volume) = sqrt(6 / 1)
    rep = trace_ratio_battery(r, 2.0)
    assert abs(rep.ratios["one"] - math.sqrt(6.0)) <= 1e-12


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
# the origin is a saddle of s*x*y - c, where the boundary's two branches
# nearly meet, between them for c < 0 and c > 0
_SADDLE = (
    "dim 2\nparams c in [-1, 1], s in [-1, 1]\nbox [-1, 1] x [-1, 1]\n"
    "set: s*x*y - c > 0 and x^2 + y^2 < 0.9\n"
)


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


# Exact boundary quadrature and trace ratios at resolution 64: the 2D cases
# pin the node shape and the sha256 of the node and weight bytes, the 1D
# case its nodes (each of weight 1), and every case the digest of float.hex
# of every ratio of every battery at p in {1.5, 2, 3}.  The saddle ids read
# s = 1 as case5 and s = -1 as case10, c > 0 as out and c < 0 as in.
@pytest.mark.parametrize(
    "name,t,boundary,trace",
    [
        (
            "disk", (),
            ((1368, 2), "cf112a5bdb90824dcaf829fc3f6acf4d8c8a518d937132b52241a000faa53e27"),
            "83df086c6868d33f90946a77129e42acfafc0df87782b1b459b225e8fb0fdba3",
        ),
        (
            "annulus", (),
            ((2048, 2), "376abac006a16c0d8fe12c2f6cc8c71b6e0917da2d01228c41bc166de7c15723"),
            "01ccfd2fec4c620ed21b98c45ff388f6da5253b2bb17e223dc131cdcdb85e183",
        ),
        (
            "three_intervals", (),
            [
                "0x1.9999999999998p-4", "0x1.fffffffffffffp-3", "0x1.999999999999ap-2",
                "0x1.3333333333333p-1", "0x1.8000000000000p-1", "0x1.cccccccccccccp-1",
            ],
            "7bfe169a95a93d59005c5cd46c1b8096e415173010f1540efa3d989226327ee1",
        ),
        (
            "saddle", (1e-4, 1.0),
            ((1944, 2), "e6e115f3981ec52db8b6180996a717e96bd7c2aa8cfa00d06db0532ed75334f0"),
            "2d78c6fb191598c566bab2abb78406aa93d2b45221602a9c6a9e31cd77eb244a",
        ),
        (
            "saddle", (-1e-4, 1.0),
            ((1944, 2), "328f8c50e854acd9686e4683d5ec971302f64d74e0058276791d4509558189b7"),
            "a3f0f0d588fd30bc7c1d4a02ad82c87f4bab1cafcd2e0463be27e2041344d1ea",
        ),
        (
            "saddle", (1e-4, -1.0),
            ((1944, 2), "66f9811958a17cddce9c56f54580ea24c42bfafb6c58063c443a355bf9fdd58c"),
            "72923740dc473f71c7fe3e9051bbbe8d47dc40b6aae44765470430d7f6d534d1",
        ),
        (
            "saddle", (-1e-4, -1.0),
            ((1944, 2), "bce46a17b8105b4f935e35ce801deb385d8508fe924c51f2ea8385e1781cfbae"),
            "753fd6a35bf9ab0561a09cfc278d25370f633ac8cb9b2211cd1d82fc4ab1debc",
        ),
    ],
    ids=["disk", "annulus", "three_intervals", "case5_out", "case5_in", "case10_out", "case10_in"],
)
def test_boundary_and_trace_golden_bits(specs, name, t, boundary, trace):
    text = {"three_intervals": _THREE_INTERVALS, "saddle": _SADDLE}.get(name)
    spec = parse_domain(text) if text else specs[name]
    nodes, weights = boundary_quadrature(spec, t)
    if spec.ambient_dim == 1:
        assert [v.hex() for v in nodes[:, 0]] == boundary
        assert weights.tolist() == [1.0] * len(boundary)
    else:
        digest = hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest()
        assert (nodes.shape, digest) == boundary
    r = rasterize(spec, t, 64)
    assert _trace_digest(r) == trace


def _full_grid_trace_ratios(r, p, battery, nodes, weights):
    # the trace kernel as it was on the whole grid: every function on every
    # cell centre, and each face difference kept where both cells are
    # interior, as the tail cell's backward and the head cell's forward one
    inter = r.interior
    grid_pts = centre_grid(r).reshape(-1, r.dim)
    ratios = {}
    for name, fn in sobolev._battery_functions(r, battery):
        vals = fn(grid_pts).reshape(r.counts)
        n_p = lp_norm(vals[inter], p, r)
        if n_p == 0.0:
            continue
        g = np.zeros((r.dim,) + r.counts)
        for ax, (head, tail, _, _) in enumerate(face_slices(r.dim)):
            both = inter[head] & inter[tail]
            face = np.where(both, (vals[tail] - vals[head]) / r.h, 0.0)
            g[ax][tail] = face
            np.copyto(g[ax][head], face, where=both)
        n_w = n_p + lp_norm(g[:, inter], p, r)
        n_b = float(np.sum(np.abs(fn(nodes)) ** p * weights)) ** (1.0 / p)
        ratios[name] = n_b / (n_p ** (1.0 - 1.0 / p) * n_w ** (1.0 / p))
    return ratios


def _isolated_cells(specs):
    # an isolated interior cell (no face) and a row with forward and
    # backward faces only
    interior = np.zeros((8, 8), dtype=bool)
    interior[2, 2] = True
    interior[5, 2:6] = True
    return RasterDomain(spec=specs["square"], t=(), h=0.125, origin=(0.0, 0.0), interior=interior)


@pytest.mark.parametrize(
    "name,t,res",
    [("interval", (), 64), ("disk", (), 64), ("annulus", (), 64), ("cusp", (0.5,), 64),
     ("two_disks", (), 64), ("ball", (), 16), ("isolated", (), 0)],
    ids=["interval", "disk", "annulus", "cusp", "two_disks", "ball", "isolated"],
)
def test_trace_ratios_are_the_full_grid_bits(specs, name, t, res):
    # the interior-only kernel makes the same float operations on the same
    # operands as the full-grid one, so every ratio has the same bits
    spec = parse_domain(BALL) if name == "ball" else specs.get(name, specs["square"])
    r = _isolated_cells(specs) if name == "isolated" else rasterize(spec, t, res)
    nodes, weights = boundary_quadrature(spec, t)
    for battery in ("polynomial", "trigonometric", "bump"):
        for p in (1.0, 1.5, 2.0, 3.0):
            want = _full_grid_trace_ratios(r, p, battery, nodes, weights)
            if not want:
                with pytest.raises(DegenerateGeometryError):
                    sobolev._trace_ratios(r, p, battery, nodes, weights)
                continue
            got = sobolev._trace_ratios(r, p, battery, nodes, weights)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


@pytest.mark.parametrize("name,res", [("disk", 64), ("disk", 256), ("ball", 16), ("isolated", 0)])
def test_battery_functions_write_the_same_bits_into_a_buffer(specs, name, res, monkeypatch):
    # disk@256 has more interior cells than one block; the reference takes
    # all rows in one block
    spec = parse_domain(BALL) if name == "ball" else specs.get(name, specs["square"])
    r = _isolated_cells(specs) if name == "isolated" else rasterize(spec, (), res)
    pts, _, _ = sobolev._trace_stencil(r)
    for battery in ("polynomial", "trigonometric", "bump"):
        fns = sobolev._battery_functions(r, battery)
        with monkeypatch.context() as m:
            m.setattr(sobolev, "_TRACE_BLOCK", pts.shape[0])
            whole = [fn(pts) for _, fn in fns]
        for (fname, fn), want in zip(fns, whole):
            buf = np.full(pts.shape[0], np.nan)
            assert fn(pts, out=buf) is buf
            assert buf.tobytes() == want.tobytes(), (battery, fname)


def test_trace_battery_memory_is_bounded(specs):
    # the values, the gradient and one scratch per raster, beside the
    # stencil's centres and int32 neighbours; the battery functions and
    # the norms allocate no n-array (16.4 MB before they took buffers)
    tracemalloc.start()
    try:
        trace_ratio_battery(rasterize(specs["square"], (), 256), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16.4 * 2**20


@pytest.mark.parametrize("name,t", [("disk", ()), ("cusp", (0.5,))])
@pytest.mark.parametrize("battery", ["polynomial", "trigonometric"])
def test_battery_is_defined_by_the_box(specs, rng, name, t, battery):
    # the raster's apron is one cell wide, so it narrows when the raster is
    # doubled; the functions are centred and scaled by the box alone
    spec = specs[name]
    lo, hi = np.transpose(spec.bounding_box)
    pts = rng.uniform(lo, hi, (100, 2))
    coarse = sobolev._battery_functions(rasterize(spec, t, 64), battery)
    fine = sobolev._battery_functions(rasterize(spec, t, 128), battery)
    assert [n for n, _ in coarse] == [n for n, _ in fine]
    for (_, f), (_, g) in zip(coarse, fine):
        assert f(pts).tobytes() == g(pts).tobytes()
