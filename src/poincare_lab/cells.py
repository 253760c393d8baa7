"""Planar cell decomposition into graphs and bands over column intervals.

The decomposition is one of the fiber within its bounding box.  The x-axis
is cut at critical values where the vertical-line structure of the atom
zero sets can change: collisions of an atom's own y-roots (discriminant),
crossings between two atoms (pairwise resultants), and crossings of a zero
set with the bottom or top edge of the box, which include the x-roots of
atoms with no y-dependence and of a vanishing leading y-coefficient.
Between consecutive criticals every atom keeps a constant number of real
y-roots in the box, so the column stack is a fixed vertical sequence of
graph cells with band cells between them.  The stack at an abscissa is
``raster.line_cuts`` on the vertical line there: its inner cuts are the
graphs, each with the atom it is a root of, and its pieces are the bands
with their membership.  A graph is labeled by membership on it, with its
own atoms false, and at four near-axis probes.

Root isolation is floating point and uses the line kernel's Chebyshev
toolbox throughout: a resultant is interpolated at Chebyshev points
(``raster._chebyshev_fit``) and its real roots are the eigenvalues of a
colleague matrix (``raster._series_roots``); the edge crossings and the
stacks are ``line_cuts`` calls.  An open column's abscissae are the same
Chebyshev points, so ``inside_volume`` integrates each band by Fejér's
first rule on them.  Clustered or inconsistent structures raise
DegenerateGeometryError naming the column interval rather than silently
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dsl import DomainSpec
from .errors import DegenerateGeometryError, jsonable
from .raster import _chebyshev_fit, _series_roots, line_cuts

_CRITICAL_MERGE_TOL = 1e-9
_SOURCE_MERGE_TOL = 1e-7
_EDGE_DROP_TOL = 1e-8
_POINT_CLUSTER_TOL = 1e-6
_PROBE_OFFSET = 1e-7
SAMPLES_PER_COLUMN = 129  # default abscissae per open column

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
        return jsonable(
            {"type": "graph", "label": self.label, "atoms": self.atoms, "y": self.y}
        )


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
        return jsonable(
            {"type": "band", "label": self.label, "lower": self.lower, "upper": self.upper}
        )


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
        return jsonable({
            "kind": self.kind,
            "x_lo": self.x_lo,
            "x_hi": self.x_hi,
            "x_samples": self.x_samples,
            "cells": [c.to_json_dict() for c in self.graphs + self.bands],
        })


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
        return sum(1 for _ in self._inside_band_heights())

    def _inside_band_heights(self):
        """(column, xi_hi - xi_lo) for each inside band over an open
        column, with both graphs clipped to the bounding box in y."""
        box = self.spec.bounding_box
        for col in self.columns:
            if col.kind != "open":
                continue
            for b in col.bands:
                if b.label != INSIDE:
                    continue
                lo, hi = np.clip(_band_sides(col, b, box, slice(None)), *box[1])
                yield col, np.maximum(hi - lo, 0.0)

    def inside_volume(self) -> float:
        """Integral of (xi_hi - xi_lo) over inside bands, clipped to the
        bounding box in y, by Fejér's first rule on the column abscissae:
        the integral over [-1, 1] of their interpolating polynomial, whose
        Chebyshev coefficients ``fit`` gives and whose T_j integrates to
        2 / (1 - j^2) for even j and to 0 for odd j.  It reaches the
        column ends, but its error has no sign."""
        _, fit = _chebyshev_fit(self.samples_per_column - 1)
        even = np.arange(0, self.samples_per_column, 2)
        moments = np.zeros(self.samples_per_column)
        moments[even] = 2.0 / (1.0 - even**2)
        # the abscissae are the nodes in ascending order
        weights = (moments @ fit)[::-1]
        total = 0.0
        for col, height in self._inside_band_heights():
            total += 0.5 * (col.x_hi - col.x_lo) * float(weights @ height)
        return total

    def to_json_dict(self):
        return jsonable({
            "t": self.t,
            "criticals": self.criticals,
            "samples_per_column": self.samples_per_column,
            "columns": [c.to_json_dict() for c in self.columns],
            "inside_cells": self.inside_cell_count(),
            "metadata": {"xi_smoothness": "continuous-only, C1 not certified"},
        })

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
        y_lo, y_hi = self.spec.bounding_box[1]
        tol = _POINT_CLUSTER_TOL * max(1.0, y_hi - y_lo)
        for ci in range(len(self.columns) - 1):
            a, bcol = self.columns[ci], self.columns[ci + 1]
            for ia, iv_a in enumerate(_edge_intervals(a, self.spec, side="hi")):
                for ib, iv_b in enumerate(_edge_intervals(bcol, self.spec, side="lo")):
                    if iv_a[1] >= iv_b[0] - tol and iv_b[1] >= iv_a[0] - tol:
                        na = _cell_name(ci, a, ia)
                        nb = _cell_name(ci + 1, bcol, ib)
                        lines.append(f"  {na} -- {nb};")
        lines.append("}")
        return "\n".join(lines)


def _cell_name(ci, col, flat_idx):
    if flat_idx < len(col.graphs):
        return f"c{ci}_g{flat_idx}"
    return f"c{ci}_b{flat_idx - len(col.graphs)}"


def _band_sides(col, band, box, at):
    """The band's lower and upper sides at the abscissae ``at`` of its
    column: its graphs' y, or the box's bottom and top edge where it has
    none."""
    return tuple(
        np.full(col.x_samples.size, edge)[at] if g is None else col.graphs[g].y[at]
        for g, edge in zip((band.lower, band.upper), box[1])
    )


def _edge_intervals(col, spec, side):
    """y-intervals of all cells at the column edge abscissa within the box,
    graphs first."""
    idx = -1 if side == "hi" else 0
    out = [(float(g.y[idx]),) * 2 for g in col.graphs]
    for b in col.bands:
        lo, hi = _band_sides(col, b, spec.bounding_box, idx)
        out.append((float(lo), float(hi)))
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


def _sylvester_dets(A, B, xs):
    """det of the Sylvester matrix of A, B (as y-polynomials) at abscissae xs."""
    m = A.shape[0] - 1
    n = B.shape[0] - 1
    if m == 0 and n == 0:
        return np.ones(xs.size)
    size = m + n
    av = np.stack([np.polyval(A[k][::-1], xs) for k in range(m + 1)])
    bv = np.stack([np.polyval(B[k][::-1], xs) for k in range(n + 1)])
    M = np.zeros((xs.size, size, size))
    for r in range(n):
        for k in range(m + 1):
            M[:, r, r + k] = av[m - k]
    for r in range(m):
        for k in range(n + 1):
            M[:, n + r, r + k] = bv[n - k]
    return np.linalg.det(M)


def _resultant_roots(A, B, x_lo, x_hi):
    """Real roots in (x_lo, x_hi) of Res_y(A, B) as a function of x.

    The resultant's degree in x is at most D, read off the coefficient
    matrices' shapes.  Its values at the D + 1 Chebyshev points give its
    Chebyshev series, and the series' real roots are found as on a line of
    the kernel.  An identically zero resultant means the two curves
    coincide for every x (persistent shared structure) and contributes no
    isolated criticals.
    """
    D = (A.shape[0] - 1) * (B.shape[1] - 1) + (B.shape[0] - 1) * (A.shape[1] - 1)
    if D <= 0:
        return []
    nodes, fit = _chebyshev_fit(D)
    mid, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    dets = _sylvester_dets(A, B, mid + half * nodes)
    u = _series_roots((dets @ fit.T)[None])[0]
    return (mid + half * u[~np.isnan(u)]).tolist()


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
    (x_lo, x_hi), (y_lo, y_hi) = spec.bounding_box
    span = x_hi - x_lo
    mats = [_atom_coeff_matrix(a, t) for a in spec.atoms]
    sources = []
    for C in mats:
        if C.shape[0] - 1 >= 2:
            sources.append(_resultant_roots(C, _y_derivative(C), x_lo, x_hi))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i].shape[0] > 1 and mats[j].shape[0] > 1:
                sources.append(_resultant_roots(mats[i], mats[j], x_lo, x_hi))
    # where a zero set crosses the bottom or top edge of the box; this also
    # holds the roots of y-free atoms and of a vanishing leading y-coefficient
    cuts, _, atoms = line_cuts(
        spec, t, [(x_lo, y_lo), (x_lo, y_hi)], (1.0, 0.0), np.zeros(2), np.full(2, span)
    )
    sources += [x_lo + row[1:-1][ids >= 0] for row, ids in zip(cuts, atoms)]
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


def _graph_label(spec, t, xs, ys, atoms, span):
    """Membership on the graph, where its own atoms are false since it lies
    on their zero sets, then at four near-axis probes off it."""
    pts = np.stack([xs, ys], axis=1)
    own = [spec.atoms[a] for a in atoms]
    on = spec._fold(t, pts, lambda atom, c: atom.truth(c) & (atom not in own))
    if on.all():
        return INSIDE
    d = _PROBE_OFFSET * span
    for dx, dy in ((d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)):
        if spec.member_points(t, pts + np.array([dx, dy])).any():
            return BOUNDARY
    return OUTSIDE


def _build_column(spec, t, a, b, kind, samples):
    """The stack over one column: ``line_cuts`` on the vertical line through
    each abscissa, from the bottom of the box to its top.  The inner cuts are
    the graphs and the pieces between them the bands."""
    (x_lo, x_hi), (y_lo, y_hi) = spec.bounding_box
    y_span = y_hi - y_lo
    interval = (float(a), float(b))
    if kind == "point":
        xs = np.array([a], dtype=np.float64)
    else:
        # the Chebyshev points of ``inside_volume``'s rule, ascending
        xs = 0.5 * (a + b) + 0.5 * (b - a) * _chebyshev_fit(samples - 1)[0][::-1]
    cuts, inside, atoms = line_cuts(
        spec, t, np.stack([xs, np.full(xs.size, y_lo)], axis=1), (0.0, 1.0),
        np.zeros(xs.size), np.full(xs.size, y_span),
    )
    counts = np.count_nonzero(atoms >= 0, axis=1)
    n = int(counts[0])
    ys = y_lo + cuts[:, 1 : n + 1]
    if kind == "open":
        if np.any(counts != n):
            raise DegenerateGeometryError(
                "real y-root count is not constant across the column "
                f"(counts {np.unique(counts).tolist()})",
                x_interval=interval,
            )
        if np.any(atoms[:, :n] != atoms[0, :n]):
            raise DegenerateGeometryError(
                "stack order is not constant across the column", x_interval=interval
            )
        if np.any(inside[:, : n + 1] != inside[0, : n + 1]):
            raise DegenerateGeometryError(
                "band membership is not uniform along the column", x_interval=interval
            )
        nodes = [[j] for j in range(n)]
    else:
        # cuts closer than root-finding can resolve are one graph
        nodes = []
        tol = _POINT_CLUSTER_TOL * max(1.0, y_span)
        for j in range(n):
            if nodes and ys[0, j] - ys[0, nodes[-1][-1]] <= tol:
                nodes[-1].append(j)
            else:
                nodes.append([j])

    graphs = []
    for node in nodes:
        y = ys[:, node].mean(axis=1)
        ids = tuple(sorted({int(i) for i in atoms[0, node]}))
        label = _graph_label(spec, t, xs, y, ids, max(x_hi - x_lo, y_span))
        graphs.append(GraphCell(x=xs, y=y, label=label, atoms=ids))
    # band j is the piece just above graph j - 1
    pieces = [0] + [node[-1] + 1 for node in nodes]
    bands = tuple(
        BandCell(
            lower=j - 1 if j else None,
            upper=j if j < len(nodes) else None,
            label=INSIDE if inside[0, piece] else OUTSIDE,
        )
        for j, piece in enumerate(pieces)
    )
    return Column(
        kind=kind,
        x_lo=float(a),
        x_hi=float(b),
        x_samples=xs,
        graphs=tuple(graphs),
        bands=bands,
    )


def cell_decompose_2d(
    spec: DomainSpec, t, samples_per_column: int = SAMPLES_PER_COLUMN
) -> CellComplex2D:
    """Decompose the fiber at ``t`` into columns of graph and band cells."""
    if spec.ambient_dim != 2:
        raise ValueError("cell decomposition is implemented for dim 2 only")
    if samples_per_column < 3:
        raise ValueError(f"samples_per_column must be at least 3, got {samples_per_column}")
    t = spec.check_params(t)
    crit = critical_x_values(spec, t)
    x_lo, x_hi = spec.bounding_box[0]
    edges = [x_lo] + crit + [x_hi]
    columns = []
    for i in range(len(edges) - 1):
        columns.append(
            _build_column(spec, t, edges[i], edges[i + 1], "open", samples_per_column)
        )
        if i + 1 < len(edges) - 1:
            columns.append(
                _build_column(
                    spec, t, edges[i + 1], edges[i + 1], "point", samples_per_column
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
    part of the boundary closure; the spurious separator is removed.

    One upward pass per column: a merged band keeps the lower band's bottom
    and takes the upper band's top and label, so it merges with the band
    above exactly when the upper band alone would have.
    """
    new_columns = []
    for col in complex_.columns:
        bands, removed = [], set()
        for b in col.bands:
            sep = b.lower
            if (
                bands
                and sep is not None
                and bands[-1].upper == sep
                and bands[-1].label == b.label == INSIDE
                and col.graphs[sep].label == INSIDE
            ):
                removed.add(sep)
                bands[-1] = replace(b, lower=bands[-1].lower)
            else:
                bands.append(b)
        if not removed:
            new_columns.append(col)
            continue
        keep = [i for i in range(len(col.graphs)) if i not in removed]
        remap = {None: None, **{old: new for new, old in enumerate(keep)}}
        bands = tuple(replace(b, lower=remap[b.lower], upper=remap[b.upper]) for b in bands)
        new_columns.append(
            replace(col, graphs=tuple(col.graphs[i] for i in keep), bands=bands)
        )
    return replace(complex_, columns=tuple(new_columns))
