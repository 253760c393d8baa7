"""Boundary sampling, regular-direction margins, and direction search.

Boundary points are the cuts where membership flips along axis-parallel
scan lines; the cuts come from ``raster.line_cuts``, the exact line kernel
that thickness is measured with too.  Each flip is a root of one atom,
which the kernel names, and that atom's normalized gradient is the
sample's normal; a flip where the gradient vanishes (a degenerate atom) is
dropped.  Random scan lines meet a corner or a cusp tip with probability
zero, so no further test guards them.  The margin of a
direction is the smallest |<direction, normal>| over the samples, and the
direction search scans a deterministic antipodally-reduced lattice of
candidates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dsl import DomainSpec
from .errors import EmptySamplesError, StratumTooThinWarning, jsonable
from .raster import _BLOCK_POINTS, line_cuts

# gradients shorter than this give no reliable normal
_MIN_GRAD_NORM = 1e-8
# a best pooled margin below this is no regular direction
_MIN_ALPHA = 1e-2
# default boundary samples per fiber, and candidate directions per search
SAMPLES = 4096
DIRECTIONS = 512


class BoundarySampleSet:
    """Array-backed collection of boundary samples for one fiber."""

    def __init__(self, points, normals, atom_ids, t):
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.normals = np.atleast_2d(np.asarray(normals, dtype=np.float64))
        if self.normals.shape != self.points.shape:
            raise ValueError("points and normals must have matching shapes")
        self.atom_ids = np.asarray(atom_ids, dtype=np.int64).reshape(-1)
        if self.atom_ids.size != self.points.shape[0]:
            raise ValueError("one atom id per sample required")
        self.t = tuple(t)

    def __len__(self):
        return self.points.shape[0]


def sample_boundary(spec: DomainSpec, t, count: int = SAMPLES, seed: int = 0) -> BoundarySampleSet:
    """Sample smooth boundary points of the fiber at ``t``.

    Scan lines run parallel to each axis at seeded-random transverse
    offsets inside the bounding box; the cuts of ``raster.line_cuts`` where
    membership flips are the candidate points, each a root of the atom the
    kernel names.  Points where that atom's gradient norm is at least 1e-8
    become samples with the normalized gradient as normal.
    A ``StratumTooThinWarning`` is raised when fewer than count/10 samples
    survive.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    t = spec.check_params(t)
    dim = spec.ambient_dim
    box = spec.bounding_box
    rng = np.random.default_rng(seed)
    # a 1D box admits a single distinct scan line
    lines_per_axis = 1 if dim == 1 else max(1, count // (2 * dim))

    all_pts, all_atoms = [], []
    for axis, direction in enumerate(np.eye(dim)):
        origins = np.empty((lines_per_axis, dim))
        for j in range(dim):
            lo, hi = box[j]
            origins[:, j] = lo if j == axis else rng.uniform(lo, hi, lines_per_axis)
        width = np.full(lines_per_axis, box[axis][1] - box[axis][0])
        cuts, inside, atoms = line_cuts(spec, t, origins, direction, np.zeros(lines_per_axis), width)
        line, piece = np.nonzero(inside[:, 1:] != inside[:, :-1])
        all_pts.append(origins[line] + cuts[line, piece + 1][:, None] * direction)
        all_atoms.append(atoms[line, piece])

    pts, atom_ids = np.concatenate(all_pts, axis=0), np.concatenate(all_atoms)
    grads = np.zeros_like(pts)
    keep = np.zeros(pts.shape[0], dtype=bool)
    for j, atom in enumerate(spec.atoms):
        rows = atom_ids == j
        if not rows.any():
            continue
        g = atom.gradient_values(spec._coords(t, pts[rows])).T
        norms = np.linalg.norm(g, axis=1)
        ok = norms >= _MIN_GRAD_NORM
        g[ok] /= norms[ok][:, None]
        grads[rows] = g
        keep[rows] = ok
    pts, grads, atom_ids = pts[keep], grads[keep], atom_ids[keep]

    if pts.shape[0] < count / 10:
        msg = (
            f"only {pts.shape[0]} of the requested {count} boundary samples "
            f"survived the smooth-stratum filter at t={list(t)}"
        )
        warnings.warn(msg, StratumTooThinWarning)
    return BoundarySampleSet(pts, grads, atom_ids, t)


def margin(samples: BoundarySampleSet, direction) -> float:
    """Empirical regular-direction margin: min over samples of |<d, normal>|."""
    d = np.asarray(direction, dtype=np.float64)
    # written so that a NaN norm fails it too
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
        raise ValueError("direction must be a unit vector")
    if len(samples) == 0:
        raise EmptySamplesError("no boundary samples to take a margin over")
    return float(np.min(np.abs(samples.normals @ d)))


def candidate_directions(dim: int, n: int) -> np.ndarray:
    """Deterministic antipodally-reduced direction lattice.

    dim 1: the single axis.  dim 2: n equally spaced angles on the upper
    half-circle.  dim 3: a Fibonacci lattice on the upper half-sphere.
    Components within 1e-14 of an axis value are snapped so that axis
    directions appear exactly when the lattice passes through them.
    """
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        theta = np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif dim == 3:
        i = np.arange(n) + 0.5
        z = i / n
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        raise ValueError("directions are defined for dim 1, 2, 3")
    dirs[np.abs(dirs) < 1e-14] = 0.0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs


@dataclass(frozen=True)
class MarginReport:
    """Outcome of a regular-direction search over a family."""

    direction: tuple
    alpha: float
    status: str
    fibers: tuple
    per_fiber: tuple
    sample_counts: tuple
    candidate_count: int
    candidate_margins: np.ndarray

    @property
    def found(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> dict:
        return jsonable({
            "direction": self.direction,
            "alpha": self.alpha,
            "status": self.status,
            "fibers": self.fibers,
            "per_fiber_margin": self.per_fiber,
            "sample_counts": self.sample_counts,
            "candidate_count": self.candidate_count,
        })


def find_regular_direction(
    spec: DomainSpec,
    t_samples,
    directions: int = DIRECTIONS,
    seed: int = 0,
    count: int = SAMPLES,
) -> MarginReport:
    """Search candidate directions for one regular for the whole family.

    Boundary samples of every fiber are pooled; each lattice direction gets
    the pooled margin, and the best margin wins with ties broken by the
    lexicographically smallest direction.  A best margin below ``_MIN_ALPHA``
    is classified as no_regular_direction (a sampled curved boundary never
    produces an exactly zero margin, so the threshold is a resolution-aware
    cutoff rather than an exact test).

    The pooled margins are a running minimum over blocks of sample rows,
    so the normals-by-candidates products never exist all at once; every
    product is the same as in one whole matrix product, and a minimum is
    exact, so the margins are too.
    """
    if directions < 16:
        raise ValueError("need at least 16 candidate directions")
    t_list = [spec.check_params(t) for t in t_samples]
    if not t_list:
        raise ValueError("need at least one parameter sample")
    sets = [sample_boundary(spec, t, count=count, seed=seed) for t in t_list]
    pooled = np.concatenate([s.normals for s in sets if len(s)], axis=0) if any(len(s) for s in sets) else None
    if pooled is None or pooled.shape[0] == 0:
        raise EmptySamplesError("no boundary samples in any fiber")

    cands = candidate_directions(spec.ambient_dim, directions)
    rows = max(1, _BLOCK_POINTS // cands.shape[0])
    margins = np.full(cands.shape[0], np.inf)
    for a in range(0, pooled.shape[0], rows):
        np.minimum(margins, np.min(np.abs(pooled[a : a + rows] @ cands.T), axis=0), out=margins)
    best = float(np.max(margins))
    ties = np.nonzero(margins == best)[0]
    best_idx = min(ties, key=lambda i: tuple(cands[i]))
    lam = cands[best_idx]

    per_fiber = []
    for s in sets:
        per_fiber.append(
            float(np.min(np.abs(s.normals @ lam))) if len(s) else math.inf
        )
    status = "ok" if best >= _MIN_ALPHA else "no_regular_direction"
    return MarginReport(
        direction=tuple(float(v) for v in lam),
        alpha=best,
        status=status,
        fibers=tuple(t_list),
        per_fiber=tuple(per_fiber),
        sample_counts=tuple(len(s) for s in sets),
        candidate_count=directions,
        candidate_margins=margins,
    )
