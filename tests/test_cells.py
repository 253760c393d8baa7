import math

import numpy as np
import pytest

from poincare_lab import (
    cell_decompose_2d,
    critical_x_values,
    merge_vertical,
    rasterize,
    thickness_discrete,
)
from poincare_lab.cells import BOUNDARY, INSIDE, OUTSIDE, _build_column
from poincare_lab.dsl import parse_domain
from poincare_lab.errors import DegenerateGeometryError
from poincare_lab.harness import grid_points


def test_disk_decomposition(specs):
    cx = cell_decompose_2d(specs["disk"], ())
    assert cx.criticals == pytest.approx((-1.0, 1.0), abs=1e-9)
    open_cols = [c for c in cx.columns if c.kind == "open"]
    assert len(open_cols) == 3
    assert cx.inside_cell_count() == 1
    assert abs(cx.inside_volume() - math.pi) / math.pi < 1e-6


def test_two_disks_decomposition(specs):
    cx = cell_decompose_2d(specs["two_disks"], ())
    assert cx.inside_cell_count() == 2
    exact = 2.0 * math.pi * 0.36
    assert abs(cx.inside_volume() - exact) / exact < 1e-6


def test_annulus_decomposition_and_merge(specs):
    cx = cell_decompose_2d(specs["annulus"], ())
    assert cx.criticals == pytest.approx((-1.0, -0.5, 0.5, 1.0), abs=1e-9)
    assert cx.inside_cell_count() == 4
    merged = merge_vertical(cx)
    # the inner circle is genuine boundary, so nothing merges
    assert merged.inside_cell_count() == 4
    exact = math.pi * (1.0 - 0.25)
    assert abs(merged.inside_volume() - exact) / exact < 1e-6


def test_split_disk_merges_to_one(specs):
    cx = cell_decompose_2d(specs["split_disk"], ())
    assert cx.inside_cell_count() == 3
    merged = merge_vertical(cx)
    # the artificial y != 0 split inside the disk is not boundary
    assert merged.inside_cell_count() == 1
    assert abs(merged.inside_volume() - math.pi) / math.pi < 1e-6


def test_slit_disk_merge_keeps_slit(specs):
    cx = cell_decompose_2d(specs["slit_disk"], ())
    assert cx.criticals == pytest.approx((-1.0, 0.0, 1.0), abs=1e-8)
    assert cx.inside_cell_count() == 5
    merged = merge_vertical(cx)
    # left half merges across y=0, the slit keeps the right half split
    assert merged.inside_cell_count() == 3
    assert abs(merged.inside_volume() - math.pi) / math.pi < 1e-6


def test_cusp_volume_across_params(specs):
    for t in (0.05, 0.3, 1.0):
        cx = cell_decompose_2d(specs["cusp"], (t,))
        exact = t / 3.0
        assert abs(cx.inside_volume() - exact) / exact < 1e-6


def test_ellipse_volume_constant(specs):
    for t in (0.5, 1.0, 2.0):
        cx = cell_decompose_2d(specs["ellipse"], (t,))
        assert cx.criticals == pytest.approx((-t, t), abs=1e-8)
        assert abs(cx.inside_volume() - math.pi) / math.pi < 1e-6


def test_empty_fiber_complex(specs):
    cx = cell_decompose_2d(specs["shrink_disk"], (0.1,))
    assert cx.inside_cell_count() == 0
    assert cx.inside_volume() == 0.0
    merged = merge_vertical(cx)
    assert merged.inside_cell_count() == 0


def test_critical_values_standalone(specs):
    crit = critical_x_values(specs["two_disks"], ())
    assert crit == pytest.approx([-1.6, -0.4, 0.0, 0.4, 1.6], abs=1e-7)


def test_band_labels_respect_membership(specs, rng):
    # every inside band contains only member midpoints, outside bands none
    spec = specs["annulus"]
    cx = cell_decompose_2d(spec, ())
    y_lo, y_hi = spec.bounding_box[1]
    for col in cx.columns:
        if col.kind != "open":
            continue
        for b in col.bands:
            k = col.x_samples.size // 2
            x = float(col.x_samples[k])
            lo = y_lo if b.lower is None else float(col.graphs[b.lower].y[k])
            hi = y_hi if b.upper is None else float(col.graphs[b.upper].y[k])
            if hi <= lo:
                continue
            mid = 0.5 * (lo + hi)
            if b.label == INSIDE:
                assert spec.member_points((), (x, mid))
            elif b.label == OUTSIDE:
                assert not spec.member_points((), (x, mid))


def test_cells_are_disjoint_and_cover(specs, rng):
    # classify random points by the band stack and compare with membership
    spec = specs["slit_disk"]
    cx = cell_decompose_2d(spec, ())
    pts = rng.uniform(-1.5, 1.5, size=(2000, 2))
    for x, y in pts:
        hits = 0
        inside_by_cells = False
        for col in cx.columns:
            if col.kind != "open" or not (col.x_lo < x < col.x_hi):
                continue
            ys = [np.interp(x, col.x_samples, g.y) for g in col.graphs]
            for b in col.bands:
                lo = -np.inf if b.lower is None else ys[b.lower]
                hi = np.inf if b.upper is None else ys[b.upper]
                if lo < y < hi:
                    hits += 1
                    inside_by_cells = b.label == INSIDE
        if hits == 0:
            continue  # point sits on a graph or a column edge
        assert hits == 1
        assert inside_by_cells == spec.member_points((), (x, y))


def test_graph_cells_lie_on_atom_zero_sets(specs):
    spec = specs["disk"]
    cx = cell_decompose_2d(spec, ())
    checked = 0
    for col in cx.columns:
        if col.kind != "open":
            continue
        for g in col.graphs:
            vals = 1.0 - g.x**2 - g.y**2
            assert np.max(np.abs(vals)) < 1e-9
            checked += 1
    assert checked == 2


def test_band_height_matches_discrete_thickness(specs):
    spec = specs["annulus"]
    cx = cell_decompose_2d(spec, ())
    r = rasterize(spec, (), 256)
    got = max(float(np.max(height)) for _, height in cx._inside_band_heights())
    ref = thickness_discrete(r, 1)
    assert abs(got - ref) <= 3.0 * r.h


def test_chain_merge_is_one_pass_and_idempotent():
    # a disk cut by two spurious separators, y = 0 and y = 1/2: in the
    # middle column three inside bands merge into one
    spec = parse_domain(
        "dim 2\nbox [-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 > 0"
        " and (y^2 > 0 or 1 - x^2 - y^2 > 0)"
        " and ((y - 1/2)^2 > 0 or 1 - x^2 - y^2 > 0)\n"
    )
    cx = cell_decompose_2d(spec, ())
    merged = merge_vertical(cx)
    assert cx.inside_cell_count() == 11
    assert merged.inside_cell_count() == 3
    assert merge_vertical(merged).to_json_dict() == merged.to_json_dict()
    assert abs(merged.inside_volume() - math.pi) / math.pi < 1e-6


def test_merge_preserves_volume(specs):
    for name in ("split_disk", "slit_disk", "annulus"):
        cx = cell_decompose_2d(specs[name], ())
        merged = merge_vertical(cx)
        assert merged.inside_volume() == pytest.approx(cx.inside_volume(), rel=1e-12)


def test_json_and_dot_export(specs):
    cx = merge_vertical(cell_decompose_2d(specs["annulus"], ()))
    d = cx.to_json_dict()
    assert d["inside_cells"] == 4
    assert len(d["columns"]) == len(cx.columns)
    assert all("cells" in c for c in d["columns"])
    dot = cx.to_dot()
    assert dot.startswith("graph cells {")
    assert dot.rstrip().endswith("}")
    assert "band inside" in dot
    # adjacency lines reference declared nodes only
    names = {
        ln.split()[0]
        for ln in dot.splitlines()
        if ln.strip().startswith("c") and "[label=" in ln
    }
    for ln in dot.splitlines():
        if " -- " in ln:
            a, b = ln.strip().rstrip(";").split(" -- ")
            assert a in names and b in names


def test_point_columns_alternate(specs):
    cx = cell_decompose_2d(specs["annulus"], ())
    kinds = [c.kind for c in cx.columns]
    assert kinds == ["open", "point", "open", "point", "open", "point", "open", "point", "open"]


def test_requires_dim2(specs):
    with pytest.raises(ValueError):
        cell_decompose_2d(specs["interval"], ())


def test_boundary_graphs_labeled(specs):
    cx = cell_decompose_2d(specs["disk"], ())
    labels = {
        g.label
        for col in cx.columns
        if col.kind == "open"
        for g in col.graphs
    }
    assert labels == {BOUNDARY}


def test_ellipse_tangency_graphs_are_boundary(specs):
    # the tangency at x = +-t is one double root, on the boundary
    spec = specs["ellipse"]
    for t in grid_points(spec, [5]):
        cx = cell_decompose_2d(spec, t)
        points = [c for c in cx.columns if c.kind == "point"]
        assert len(points) == 2
        for col in points:
            assert [g.label for g in col.graphs] == [BOUNDARY]


def test_annulus_inner_tangency_is_boundary(specs):
    merged = merge_vertical(cell_decompose_2d(specs["annulus"], ()))
    for x in (-0.5, 0.5):
        (col,) = [c for c in merged.columns if c.kind == "point" and abs(c.x_lo - x) < 1e-9]
        assert [g.label for g in col.graphs] == [BOUNDARY] * 3


@pytest.mark.parametrize("text,criticals,exact,tol", [
    ("box [0,1]x[0,1]\nset: 2*x - y > 0", (0.5,), 0.75, 1e-12),
    ("box [-1,1]x[-0.5,0.5]\nset: 1 - x^2 - y^2 > 0", (-math.sqrt(0.75), math.sqrt(0.75)),
     math.sqrt(3) / 2 + math.pi / 3, 1e-8),
], ids=["wedge", "disk-in-strip"])
def test_zero_set_leaving_the_box(text, criticals, exact, tol):
    # the root count on a vertical line changes where a zero set crosses
    # the box's bottom or top edge
    cx = cell_decompose_2d(parse_domain("dim 2\n" + text + "\n"), ())
    assert cx.criticals == pytest.approx(criticals, abs=1e-9)
    assert cx.inside_volume() == pytest.approx(exact, abs=tol)


def test_stacks_need_no_polynomial_roots(specs, monkeypatch):
    # every stack comes from the line kernel, none from a root per abscissa
    def refuse(*args):
        raise AssertionError("polyroots called")

    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", refuse)
    for spec in specs.values():
        if spec.ambient_dim == 2:
            for t in grid_points(spec, [5] * spec.n_params):
                cell_decompose_2d(spec, t)


@pytest.mark.parametrize("text,a,b,message", [
    ("1 - x^2 - y^2 > 0", -1.5, 0.0, "root count"),
    ("1 - x^2 - y^2 > 0 and x - y > 0", -1.0, 1.0, "stack order"),
    ("y > 0 or x > 0", -1.0, 1.0, "band membership"),
], ids=["count", "order", "membership"])
def test_open_column_over_a_critical_is_degenerate(text, a, b, message):
    spec = parse_domain(f"dim 2\nbox [-1.5,1.5]x[-1.5,1.5]\nset: {text}\n")
    with pytest.raises(DegenerateGeometryError, match=message):
        _build_column(spec, (), a, b, "open", 129)
