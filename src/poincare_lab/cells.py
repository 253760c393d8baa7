"""Planar cell decomposition into graphs and bands over column intervals.

The x-axis is cut at critical values where the vertical-line structure of
the atom zero sets can change: collisions of an atom's own y-roots
(discriminant), crossings between two atoms (pairwise resultants), leading
y-coefficient vanishing, and x-roots of atoms with no y-dependence.
Between consecutive criticals every atom keeps a constant number of real
y-roots, so the column stack is a fixed vertical sequence of graph cells
with band cells between them.  Bands are labeled by membership at interior
midpoints, graphs by membership at the graph and at four near-axis probes.

All root isolation is floating point with fixed tolerances; clustered or
inconsistent structures raise DegenerateGeometryError naming the column
interval rather than silently guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .dsl import DomainSpec
from .errors import DegenerateGeometryError

_CRITICAL_MERGE_TOL = 1e-9
_SOURCE_MERGE_TOL = 1e-7
_EDGE_DROP_TOL = 1e-8
_REAL_IMAG_TOL = 1e-7
_POINT_CLUSTER_TOL = 1e-6
_PROBE_OFFSET = 1e-7

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass(frozen=True)
class GraphCell:
    """Graph cell: y = xi(x) sampled over the column abscissae."""

    x: np.ndarray
    y: np.ndarray
    label: str
    atoms: tuple

    def to_json_dict(self):
        return {
            "type": "graph",
            "label": self.label,
            "atoms": [int(a) for a in self.atoms],
            "y": [float(v) for v in self.y],
        }


@dataclass(frozen=True)
class BandCell:
    """Band cell between two graph cells of the same stack.

    ``lower``/``upper`` are indices into the column's graph tuple, or None
    for an unbounded side.
    """

    lower: int | None
    upper: int | None
    label: str

    def to_json_dict(self):
        return {
            "type": "band",
            "label": self.label,
            "lower": self.lower,
            "upper": self.upper,
        }


@dataclass(frozen=True)
class Column:
    """One column of the decomposition: an open x-interval or a point."""

    kind: str
    x_lo: float
    x_hi: float
    x_samples: np.ndarray
    graphs: tuple
    bands: tuple

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "x_lo": float(self.x_lo),
            "x_hi": float(self.x_hi),
            "x_samples": [float(v) for v in self.x_samples],
            "cells": [g.to_json_dict() for g in self.graphs]
            + [b.to_json_dict() for b in self.bands],
        }


@dataclass(frozen=True)
class CellComplex2D:
    """Stacked cell decomposition of one planar fiber."""

    spec: DomainSpec
    t: tuple
    criticals: tuple
    columns: tuple
    samples_per_column: int

    def inside_cell_count(self) -> int:
        """Number of inside-labeled band cells over open columns."""
        return sum(
            1
            for col in self.columns
            if col.kind == "open"
            for b in col.bands
            if b.label == INSIDE
        )

    def _inside_band_heights(self):
        """(x samples, xi_hi - xi_lo) for each inside band over an open
        column, with both graphs clipped to the bounding box in y."""
        y_lo, y_hi = self.spec.bounding_box[1]
        for col in self.columns:
            if col.kind != "open":
                continue
            for b in col.bands:
                if b.label != INSIDE:
                    continue
                lo = (
                    np.full(col.x_samples.size, y_lo)
                    if b.lower is None
                    else np.clip(col.graphs[b.lower].y, y_lo, y_hi)
                )
                hi = (
                    np.full(col.x_samples.size, y_hi)
                    if b.upper is None
                    else np.clip(col.graphs[b.upper].y, y_lo, y_hi)
                )
                yield col.x_samples, np.maximum(hi - lo, 0.0)

    def inside_volume(self) -> float:
        """Trapezoid integral of (xi_hi - xi_lo) over inside bands,
        clipped to the bounding box in y."""
        total = 0.0
        for x, height in self._inside_band_heights():
            total += float(np.trapezoid(height, x))
        return total

    def max_inside_band_height(self) -> float:
        """Max over inside bands of sup(xi_hi - xi_lo), box-clipped."""
        best = 0.0
        for _, height in self._inside_band_heights():
            best = max(best, float(np.max(height)))
        return best

    def to_json_dict(self):
        return {
            "t": [float(v) for v in self.t],
            "criticals": [float(c) for c in self.criticals],
            "samples_per_column": self.samples_per_column,
            "columns": [c.to_json_dict() for c in self.columns],
            "inside_cells": self.inside_cell_count(),
            "metadata": {"xi_smoothness": "continuous-only, C1 not certified"},
        }

    def to_dot(self) -> str:
        """Cell adjacency graph: vertical neighbors within a stack plus
        horizontal neighbors between consecutive columns (y-overlap at the
        shared critical)."""
        lines = ["graph cells {"]
        for ci, col in enumerate(self.columns):
            for gi in range(len(col.graphs)):
                lines.append(
                    f'  c{ci}_g{gi} [label="graph {col.graphs[gi].label}"];'
                )
            for bi in range(len(col.bands)):
                lines.append(f'  c{ci}_b{bi} [label="band {col.bands[bi].label}"];')
        for ci, col in enumerate(self.columns):
            for bi, b in enumerate(col.bands):
                if b.lower is not None:
                    lines.append(f"  c{ci}_g{b.lower} -- c{ci}_b{bi};")
                if b.upper is not None:
                    lines.append(f"  c{ci}_b{bi} -- c{ci}_g{b.upper};")
        for ci in range(len(self.columns) - 1):
            a, bcol = self.columns[ci], self.columns[ci + 1]
            for ia, iv_a in enumerate(_edge_intervals(a, self.spec, side="hi")):
                for ib, iv_b in enumerate(_edge_intervals(bcol, self.spec, side="lo")):
                    if iv_a[1] >= iv_b[0] - 1e-9 and iv_b[1] >= iv_a[0] - 1e-9:
                        na = _cell_name(ci, a, ia)
                        nb = _cell_name(ci + 1, bcol, ib)
                        lines.append(f"  {na} -- {nb};")
        lines.append("}")
        return "\n".join(lines)


def _cell_name(ci, col, flat_idx):
    if flat_idx < len(col.graphs):
        return f"c{ci}_g{flat_idx}"
    return f"c{ci}_b{flat_idx - len(col.graphs)}"


def _edge_intervals(col, spec, side):
    """y-intervals of all cells at the column edge abscissa, graphs first."""
    y_lo, y_hi = spec.bounding_box[1]
    pad = (y_hi - y_lo) + 1.0
    idx = -1 if side == "hi" else 0
    out = []
    for g in col.graphs:
        v = float(g.y[idx])
        out.append((v, v))
    for b in col.bands:
        lo = y_lo - pad if b.lower is None else float(col.graphs[b.lower].y[idx])
        hi = y_hi + pad if b.upper is None else float(col.graphs[b.upper].y[idx])
        out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# atom polynomials as y-coefficient arrays over x
# ---------------------------------------------------------------------------


def _atom_coeff_matrix(atom, t):
    """Coefficient matrix C[ey, ex] of the atom polynomial at parameters t."""
    dx = 0
    dy = 0
    for exps, _ in atom.coeffs:
        dx = max(dx, exps[0])
        dy = max(dy, exps[1])
    C = np.zeros((dy + 1, dx + 1))
    for exps, coef in atom.coeffs:
        val = float(coef)
        for k, e in enumerate(exps[2:]):
            val *= float(t[k]) ** e
        C[exps[1], exps[0]] += val
    # trim identically-zero leading y rows so deg_y is the true degree
    while C.shape[0] > 1 and not np.any(C[-1]):
        C = C[:-1]
    return C


def _y_derivative(C):
    if C.shape[0] == 1:
        return np.zeros((1, C.shape[1]))
    return C[1:] * np.arange(1, C.shape[0])[:, None]


def _x_degree(C):
    deg = 0
    for row in C:
        nz = np.nonzero(row)[0]
        if nz.size:
            deg = max(deg, int(nz[-1]))
    return deg


def _sylvester_dets(A, B, xs):
    """det of the Sylvester matrix of A, B (as y-polynomials) at abscissae xs."""
    m = A.shape[0] - 1
    n = B.shape[0] - 1
    if m == 0 and n == 0:
        return np.ones(xs.size)
    size = m + n
    av = np.stack([_poly.polyval(xs, A[k]) for k in range(m + 1)])
    bv = np.stack([_poly.polyval(xs, B[k]) for k in range(n + 1)])
    M = np.zeros((xs.size, size, size))
    for r in range(n):
        for k in range(m + 1):
            M[:, r, r + k] = av[m - k]
    for r in range(m):
        for k in range(n + 1):
            M[:, n + r, r + k] = bv[n - k]
    return np.linalg.det(M)


def _resultant_roots(A, B, x_lo, x_hi):
    """Real roots in [x_lo, x_hi] of Res_y(A, B) as a function of x.

    The determinant is sampled at Chebyshev points, fitted at its exact
    degree bound, and the fitted series' roots are filtered to the real
    window.  An identically zero resultant means the two curves coincide
    for every x (persistent shared structure) and contributes no isolated
    criticals.
    """
    degA, degB = A.shape[0] - 1, B.shape[0] - 1
    D = degA * _x_degree(B) + degB * _x_degree(A)
    if D <= 0:
        return []
    n_nodes = max(2 * D + 9, 33)
    k = np.arange(n_nodes)
    xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * np.cos(
        np.pi * (2 * k + 1) / (2 * n_nodes)
    )
    dets = _sylvester_dets(A, B, xs)
    scale = float(np.max(np.abs(dets)))
    if scale == 0.0:
        return []
    series = _cheb.Chebyshev.fit(xs, dets / scale, D, domain=[x_lo, x_hi])
    series = series.trim(tol=1e-10)
    if series.degree() < 1:
        return []
    roots = series.roots()
    out = []
    for r in roots:
        if abs(r.imag) <= _REAL_IMAG_TOL * (1.0 + abs(r.real)):
            v = float(r.real)
            if x_lo - 1e-9 <= v <= x_hi + 1e-9:
                out.append(v)
    return out


def _poly_real_roots(coeffs, lo, hi):
    """Real roots of a 1D polynomial (ascending coeffs) within [lo, hi]."""
    c = np.asarray(coeffs, dtype=np.float64)
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale == 0.0:
        return []
    c = c / scale
    nz = np.nonzero(np.abs(c) > 1e-13)[0]
    if nz.size == 0 or nz[-1] == 0:
        return []
    c = c[: nz[-1] + 1]
    out = []
    for r in _poly.polyroots(c):
        if abs(r.imag) <= _REAL_IMAG_TOL * (1.0 + abs(r.real)):
            v = float(r.real)
            if lo - 1e-9 <= v <= hi + 1e-9:
                out.append(v)
    return out


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------


def _merge_sorted(values, tol):
    clusters = []
    for v in sorted(values):
        if clusters and v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [float(np.mean(c)) for c in clusters]


def critical_x_values(spec: DomainSpec, t) -> list:
    """Sorted deduplicated critical x-values strictly inside the box."""
    x_lo, x_hi = spec.bounding_box[0]
    span = x_hi - x_lo
    mats = [_atom_coeff_matrix(a, t) for a in spec.atoms]
    sources = []
    for C in mats:
        if C.shape[0] - 1 >= 2:
            sources.append(_resultant_roots(C, _y_derivative(C), x_lo, x_hi))
        if C.shape[0] - 1 == 0:
            sources.append(_poly_real_roots(C[0], x_lo, x_hi))
        elif _x_degree(C[C.shape[0] - 1 : C.shape[0]]) > 0:
            sources.append(_poly_real_roots(C[-1], x_lo, x_hi))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i].shape[0] > 1 and mats[j].shape[0] > 1:
                sources.append(_resultant_roots(mats[i], mats[j], x_lo, x_hi))
    # roots of one resultant closer than root-finding can resolve are one
    # multiple root; collapse those before pooling across sources
    pool = []
    for roots in sources:
        pool += _merge_sorted(roots, _SOURCE_MERGE_TOL * max(1.0, span))
    pool = [
        v for v in pool if x_lo + _EDGE_DROP_TOL * span < v < x_hi - _EDGE_DROP_TOL * span
    ]
    return _merge_sorted(pool, _CRITICAL_MERGE_TOL * max(1.0, span))


# ---------------------------------------------------------------------------
# stacks
# ---------------------------------------------------------------------------


def _real_roots_at(C, x):
    """Sorted real y-roots of the atom polynomial at abscissa x."""
    c = np.array([_poly.polyval(x, C[k]) for k in range(C.shape[0])])
    return sorted(_poly_real_roots(c, -math.inf, math.inf))


def _graph_label(spec, t, xs, ys, span):
    pts = np.stack([xs, ys], axis=1)
    own = spec.member_points(t, pts)
    if own.all():
        return INSIDE
    d = _PROBE_OFFSET * span
    for dx, dy in ((d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)):
        if spec.member_points(t, pts + np.array([dx, dy])).any():
            return BOUNDARY
    return OUTSIDE


def _band_label(spec, t, xs, lo_y, hi_y, col_interval):
    mids = 0.5 * (lo_y + hi_y)
    got = spec.member_points(t, np.stack([xs, mids], axis=1))
    if got.all():
        return INSIDE
    if not got.any():
        return OUTSIDE
    raise DegenerateGeometryError(
        "band membership is not uniform along the column", x_interval=col_interval
    )


def _build_column(spec, t, mats, a, b, kind, samples):
    y_lo, y_hi = spec.bounding_box[1]
    y_span = y_hi - y_lo
    x_span = spec.bounding_box[0][1] - spec.bounding_box[0][0]
    interval = (float(a), float(b))
    if kind == "point":
        xs = np.array([a], dtype=np.float64)
    else:
        S = max(3, samples)
        k = np.arange(S)
        xs = np.sort(
            0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (2 * k + 1) / (2 * S))
        )

    # per-atom sorted real roots at every abscissa
    per_atom = []
    for C in mats:
        if C.shape[0] == 1:
            per_atom.append(None)
            continue
        rows = [_real_roots_at(C, float(x)) for x in xs]
        counts = {len(r) for r in rows}
        if kind == "open" and len(counts) != 1:
            raise DegenerateGeometryError(
                "real y-root count is not constant across the column "
                f"(counts {sorted(counts)})",
                x_interval=interval,
            )
        per_atom.append(rows)

    if kind == "open":
        branches = []
        for ai, rows in enumerate(per_atom):
            if rows is None or len(rows[0]) == 0:
                continue
            arr = np.array(rows)
            for bi in range(arr.shape[1]):
                branches.append((ai, arr[:, bi]))
        mid = xs.size // 2
        branches.sort(key=lambda item: (item[1][mid], item[0]))
        ys = [br[1] for br in branches]
        atoms_per_graph = [(br[0],) for br in branches]
        for j in range(1, len(ys)):
            if np.any(ys[j] < ys[j - 1] - 1e-12 * max(1.0, y_span)):
                raise DegenerateGeometryError(
                    "stack order is not constant across the column",
                    x_interval=interval,
                )
    else:
        pairs = []
        for ai, rows in enumerate(per_atom):
            if rows is None:
                continue
            for v in rows[0]:
                pairs.append((v, ai))
        pairs.sort()
        nodes = []
        tol = _POINT_CLUSTER_TOL * max(1.0, y_span)
        for v, ai in pairs:
            if nodes and v - nodes[-1][0][-1] <= tol:
                nodes[-1][0].append(v)
                nodes[-1][1].add(ai)
            else:
                nodes.append(([v], {ai}))
        ys = [np.array([float(np.mean(vals))]) for vals, _ in nodes]
        atoms_per_graph = [tuple(sorted(atoms)) for _, atoms in nodes]

    graphs = []
    for y_arr, atom_ids in zip(ys, atoms_per_graph):
        label = _graph_label(spec, t, xs, y_arr, max(x_span, y_span))
        graphs.append(GraphCell(x=xs, y=np.asarray(y_arr), label=label, atoms=atom_ids))

    pad = y_span + 1.0
    bands = []
    k = len(graphs)
    for j in range(k + 1):
        lo_idx = j - 1 if j > 0 else None
        hi_idx = j if j < k else None
        lo_y = graphs[lo_idx].y if lo_idx is not None else None
        hi_y = graphs[hi_idx].y if hi_idx is not None else None
        if lo_y is None and hi_y is None:
            lo_y = np.full(xs.size, y_lo - pad)
            hi_y = np.full(xs.size, y_hi + pad)
        elif lo_y is None:
            lo_y = hi_y - 2.0 * pad
        elif hi_y is None:
            hi_y = lo_y + 2.0 * pad
        label = _band_label(spec, t, xs, lo_y, hi_y, interval)
        bands.append(BandCell(lower=lo_idx, upper=hi_idx, label=label))
    return Column(
        kind=kind,
        x_lo=float(a),
        x_hi=float(b),
        x_samples=xs,
        graphs=tuple(graphs),
        bands=tuple(bands),
    )


def cell_decompose_2d(
    spec: DomainSpec, t, samples_per_column: int = 129
) -> CellComplex2D:
    """Decompose the fiber at ``t`` into columns of graph and band cells."""
    if spec.ambient_dim != 2:
        raise ValueError("cell decomposition is implemented for dim 2 only")
    t = spec.check_params(t)
    mats = [_atom_coeff_matrix(a, t) for a in spec.atoms]
    crit = critical_x_values(spec, t)
    x_lo, x_hi = spec.bounding_box[0]
    edges = [x_lo] + crit + [x_hi]
    columns = []
    for i in range(len(edges) - 1):
        columns.append(
            _build_column(
                spec, t, mats, edges[i], edges[i + 1], "open", samples_per_column
            )
        )
        if i + 1 < len(edges) - 1:
            columns.append(
                _build_column(
                    spec, t, mats, edges[i + 1], edges[i + 1], "point", samples_per_column
                )
            )
    return CellComplex2D(
        spec=spec,
        t=t,
        criticals=tuple(crit),
        columns=tuple(columns),
        samples_per_column=samples_per_column,
    )


def merge_vertical(complex_: CellComplex2D) -> CellComplex2D:
    """Merge vertically adjacent inside bands whose separating graph is not
    part of the boundary closure; the spurious separator is removed."""
    new_columns = []
    for col in complex_.columns:
        bands = list(col.bands)
        removed = set()
        changed = True
        while changed:
            changed = False
            for i in range(len(bands) - 1):
                b1, b2 = bands[i], bands[i + 1]
                sep = b1.upper
                if (
                    sep is not None
                    and sep == b2.lower
                    and b1.label == INSIDE
                    and b2.label == INSIDE
                    and col.graphs[sep].label == INSIDE
                ):
                    removed.add(sep)
                    bands[i : i + 2] = [
                        BandCell(lower=b1.lower, upper=b2.upper, label=INSIDE)
                    ]
                    changed = True
                    break
        if not removed:
            new_columns.append(col)
            continue
        keep = [i for i in range(len(col.graphs)) if i not in removed]
        remap = {old: new for new, old in enumerate(keep)}
        graphs = tuple(col.graphs[i] for i in keep)
        bands = tuple(
            BandCell(
                lower=None if b.lower is None else remap[b.lower],
                upper=None if b.upper is None else remap[b.upper],
                label=b.label,
            )
            for b in bands
        )
        new_columns.append(
            Column(
                kind=col.kind,
                x_lo=col.x_lo,
                x_hi=col.x_hi,
                x_samples=col.x_samples,
                graphs=graphs,
                bands=bands,
            )
        )
    return CellComplex2D(
        spec=complex_.spec,
        t=complex_.t,
        criticals=complex_.criticals,
        columns=tuple(new_columns),
        samples_per_column=complex_.samples_per_column,
    )
