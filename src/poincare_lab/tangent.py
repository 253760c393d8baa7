"""Boundary sampling, regular-direction margins, and direction search.

Boundary points are the cuts where membership flips along axis-parallel
scan lines; they come from ``raster._crossings`` on ``raster.line_cuts``,
the exact line kernel that thickness and the trace's boundary quadrature
are measured with too.  Each flip is a root of one atom, which the kernel
names, and that atom's normalized gradient is the sample's normal; a flip
where the gradient vanishes (a degenerate atom) is dropped.  A run's end on
a box face is a face sample, with atom -1 and normal ``e_axis``.  Random
scan lines meet a corner or a cusp tip with probability zero, so no further
test guards them.  The margin of a direction is 0 when the direction is
not perpendicular to some face sample's normal, since a chord along it
leaves the box through that face, and else the smallest
|<direction, normal>| over the atom samples; the direction search scans a
deterministic antipodally-reduced lattice of candidates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dsl import DomainSpec
from .errors import EmptySamplesError, StratumTooThinWarning, jsonable
from .raster import _BLOCK_POINTS, _crossings

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
    offsets inside the bounding box; their crossings (``raster._crossings``,
    which the trace's boundary quadrature reads too) are the samples: each
    a root of the atom the kernel names, with that atom's unit gradient as
    normal.  A crossing of a box face that closes the fiber is a face
    sample: atom -1, normal ``e_axis``.
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

    found = []
    for axis in range(dim):
        origins = np.empty((lines_per_axis, dim))
        for j in range(dim):
            lo, hi = box[j]
            origins[:, j] = lo if j == axis else rng.uniform(lo, hi, lines_per_axis)
        found.append(_crossings(spec, t, origins, axis))
    pts, atom_ids, grads = (np.concatenate(a) for a in zip(*found))

    if pts.shape[0] < count / 10:
        msg = (
            f"only {pts.shape[0]} of the requested {count} boundary samples "
            f"survived the smooth-stratum filter at t={list(t)}"
        )
        warnings.warn(msg, StratumTooThinWarning)
    return BoundarySampleSet(pts, grads, atom_ids, t)


def margin(samples: BoundarySampleSet, direction) -> float:
    """Empirical regular-direction margin: 0 when ``direction`` is not
    perpendicular to some face sample's normal, since a chord along it
    leaves through that box face; else the min over the atom samples of
    |<d, normal>|."""
    d = np.asarray(direction, dtype=np.float64)
    # written so that a NaN norm fails it too
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
        raise ValueError("direction must be a unit vector")
    dots, face = samples.normals @ d, samples.atom_ids < 0
    if np.any(dots[face] != 0.0):
        return 0.0
    if face.all():
        raise EmptySamplesError("no boundary samples on an atom to take a margin over")
    return float(np.min(np.abs(dots[~face])))


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

    The atom samples of every fiber are pooled; each lattice direction gets
    the pooled margin, or 0 when it is not perpendicular to a face sample's
    normal (``margin``'s face rule), and the best margin wins with ties
    broken by the lexicographically smallest direction.  A family without
    an atom sample raises ``EmptySamplesError``.  A best margin below
    ``_MIN_ALPHA`` is classified as no_regular_direction (a sampled curved
    boundary never produces an exactly zero margin, so the threshold is a
    resolution-aware cutoff rather than an exact test).

    The pooled margins are a running minimum over blocks of sample rows,
    so the normals-by-candidates products never exist all at once; every
    product is the same as in one whole matrix product, and a minimum is
    exact, so the margins are too.  Each block's products, their absolute
    values and their column minima are written into one ``(rows,
    candidates)`` buffer and one row the call allocates once: a fresh
    temporary of 128 KB or more faults its pages in again whenever glibc
    trims the heap after freeing it, which under a fixed mmap threshold
    happens on every free and, for blocks of this size, under glibc's
    default allocator too.
    """
    if directions < 16:
        raise ValueError("need at least 16 candidate directions")
    t_list = [spec.check_params(t) for t in t_samples]
    if not t_list:
        raise ValueError("need at least one parameter sample")
    sets = [sample_boundary(spec, t, count=count, seed=seed) for t in t_list]
    on_atom = [s.atom_ids >= 0 for s in sets]
    pooled = np.concatenate([s.normals[a] for s, a in zip(sets, on_atom)])
    if pooled.shape[0] == 0:
        raise EmptySamplesError("no boundary samples on an atom in any fiber")

    cands = candidate_directions(spec.ambient_dim, directions)
    rows = min(pooled.shape[0], max(1, _BLOCK_POINTS // cands.shape[0]))
    margins = np.full(cands.shape[0], np.inf)
    products, block_min = np.empty((rows, cands.shape[0])), np.empty(cands.shape[0])
    for a in range(0, pooled.shape[0], rows):
        block = products[: pooled.shape[0] - a]
        np.matmul(pooled[a : a + rows], cands.T, out=block)
        np.abs(block, out=block)
        np.minimum.reduce(block, axis=0, out=block_min)
        np.minimum(margins, block_min, out=margins)
    # a candidate with a component along a face that closes a fiber leaves
    # the box there; the faces' normals are axes, so there are at most dim
    faces = np.unique(np.concatenate([s.normals[~a] for s, a in zip(sets, on_atom)]), axis=0)
    margins[np.any(faces @ cands.T != 0.0, axis=0)] = 0.0
    best = float(np.max(margins))
    ties = np.nonzero(margins == best)[0]
    best_idx = min(ties, key=lambda i: tuple(cands[i]))
    lam = cands[best_idx]

    per_fiber = [margin(s, lam) if len(s) else math.inf for s in sets]
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
