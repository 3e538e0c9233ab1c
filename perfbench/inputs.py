"""Seeded inputs for the benchmark workloads, made with NumPy alone.

Nothing here calls the library, so a change to an evaluator cannot change
what a workload feeds it.  Input ``i`` of a workload depends only on
(seed, i).  Every workload draws a fixed set of inputs from SET_SEED, and
``seed`` turns input ``i`` by a random rotation: every seed runs the same
work in the same order, while every number the library sees changes.

Fixed sets keep runs comparable.  One solve takes 10 ms to a second or,
for the few measures that crawl, up to a minute, and a verify op's time
depends on the shape of its body; inputs drawn fresh for every seed would
make a run's throughput hang on what that seed happens to draw.  The
library's results and its work are the same for a turned input, so the
turn changes neither.  The slow measures and the failing bodies of the
fixed sets are timed and reported like the rest.
"""

import itertools
import math

import numpy as np

# (dimensions, antipodal pair counts) of each solve workload; the q of a
# measure cycles through (0.5, 1, 2, n)
SOLVE_SHAPES = {
    "solve": ((2, 3), range(3, 13)),  # 6-24 atoms
    "solve-wide": ((3,), range(16, 25)),  # 32-48 atoms
}
# the generator seed of every workload's fixed input set
SET_SEED = 0
# weights in a 1:1.3 band and directions within about 0.1 spacings of an
# even spread: every measure is well inside the subspace mass bound.  Even
# so about one such measure in fifty crawls for 250-4000 iterations.
WEIGHT_BAND = (1.0, 1.3)
DIR_JITTER = 0.1
MASS_MARGIN = 0.05
GENERAL_POSITION_DET = 1e-3

# one period of the verify mix: (kind, dim, size).  Sizes are halfspace
# counts for H-bodies, point counts for V-bodies, half-widths for boxes.
# Six cheap kinds (2-d bodies and boxes) against ten 3-d bodies, so the
# median op falls inside the 3-d group rather than in the gap between them.
VERIFY_MIX = (
    ("sym", 3, 24),
    ("off", 2, 12),
    ("off", 3, 32),
    ("box", 3, (1.0, 1.0, 0.01)),  # 0.01-thin slab
    ("sym", 3, 48),
    ("vpoly", 3, 16),
    ("sym", 2, 80),
    ("off", 3, 20),
    ("box", 3, (0.5, 0.5, 25.0)),  # 1 x 1 x 50 box
    ("sym", 3, 64),
    ("vpoly", 2, 14),
    ("off", 3, 40),
    ("sym", 3, 32),
    ("box", 2, (1.0, 0.05)),  # elongated rectangle
    ("vpoly", 3, 14),
    ("off", 3, 24),
)


class SolveInput:
    """An even discrete measure (antipodal pairs, equal weights) and an index q."""

    def __init__(self, seed, index, dirs, weights, q):
        self.seed = seed
        self.index = index
        self.dirs = dirs
        self.weights = weights
        self.q = q
        self.dim = dirs.shape[1]
        self.measure = None  # the library's measure object, made at set-up

    @property
    def label(self):
        return f"#{self.index} n={self.dim} q={self.q:g} atoms={len(self.weights)}"


class BodyInput:
    """A body for the verify workload: halfspaces (normals, offsets) or points."""

    def __init__(self, seed, index, kind, dim, normals=None, offsets=None, points=None):
        self.seed = seed
        self.index = index
        self.kind = kind
        self.dim = dim
        self.normals = normals
        self.offsets = offsets
        self.points = points

    @property
    def size(self):
        return len(self.points) if self.points is not None else len(self.offsets)

    @property
    def label(self):
        what = "points" if self.points is not None else "halfspaces"
        if self.kind == "box":
            what += " " + "x".join(f"{2 * h:g}" for h in self.offsets[::2])
        return f"#{self.index} {self.kind} n={self.dim} {self.size} {what}"


def solve_input(workload, seed, index):
    """Measure ``index`` of a solve workload's fixed set, turned by ``seed``."""
    dims, pair_counts = SOLVE_SHAPES[workload]
    dim = dims[index % len(dims)]
    q = (0.5, 1.0, 2.0, float(dim))[index // len(dims) % 4]
    pairs = pair_counts[index // len(dims) % len(pair_counts)]
    stream = 1 if workload == "solve-wide" else 3
    rng = np.random.default_rng([SET_SEED, index, stream])
    while True:
        reps = _general_position_reps(rng, dim, pairs)
        w = rng.uniform(*WEIGHT_BAND, size=pairs)
        if _inside_mass_bounds(w, dim, q):
            break
    reps = reps @ _turn(seed, index, dim).T
    return SolveInput(seed, index, np.vstack([reps, -reps]), np.concatenate([w, w]), q)


def body_input(seed, index):
    """Body ``index`` of the verify workload's fixed set, turned by ``seed``."""
    rng = np.random.default_rng([SET_SEED, index, 7])
    kind, dim, size = VERIFY_MIX[index % len(VERIFY_MIX)]
    turn = _turn(seed, index, dim)
    if kind == "box":
        half = np.asarray(size, float)
        normals = np.vstack([s * e for e in turn.T for s in (1.0, -1.0)])
        return BodyInput(seed, index, kind, dim, normals=normals, offsets=np.repeat(half, 2))
    if kind == "sym":
        # turn the pair representatives before pairing, so -v is exactly -v
        reps = spread_directions(rng, dim, size // 2, half=True) @ turn.T
        h = rng.uniform(1.0, 1.2, size=size // 2)
        return BodyInput(seed, index, kind, dim, normals=np.vstack([reps, -reps]),
                         offsets=np.concatenate([h, h]))
    centre = 0.35 * _unit(rng.normal(size=dim))
    dirs = spread_directions(rng, dim, size, half=False)
    if kind == "off":
        offsets = rng.uniform(1.0, 1.2, size=size) + dirs @ centre
        return BodyInput(seed, index, kind, dim, normals=dirs @ turn.T, offsets=offsets)
    radii = rng.uniform(0.8, 1.3, size=size)
    return BodyInput(seed, index, kind, dim, points=(dirs * radii[:, None] + centre) @ turn.T)


def spread_directions(rng, dim, count, half):
    """``count`` unit vectors spread evenly over the circle or sphere, turned
    at random and jittered.  With ``half`` they are pair representatives: the
    ``2 count`` vectors +-v are what is spread evenly."""
    return _jittered(rng, *_even_directions(rng, dim, count, half))


def _even_directions(rng, dim, count, half):
    """Evenly spread directions and their spacing in radians."""
    total = 2 * count if half else count
    if dim == 2:
        step = 2.0 * math.pi / total
        th = step * np.arange(count) + rng.uniform(0.0, 2.0 * math.pi)
        return np.column_stack([np.cos(th), np.sin(th)]), step
    spacing = math.sqrt(4.0 * math.pi / total)
    if half:
        return _repelled_pairs(rng, count, spacing), spacing
    return _fibonacci(total) @ _rotation(rng, 3).T, spacing


def _jittered(rng, base, spacing):
    return _unit_rows(base + rng.normal(scale=DIR_JITTER * spacing, size=base.shape))


def _fibonacci(total):
    k = np.arange(total) + 0.5
    z = 1.0 - 2.0 * k / total
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _repelled_pairs(rng, count, spacing, steps=80):
    """Pair representatives v whose +-v repel each other like equal charges."""
    v = _unit_rows(rng.normal(size=(count, 3)))
    own = np.arange(count)
    for _ in range(steps):
        diff = v[:, None, :] - np.vstack([v, -v])[None, :, :]
        d2 = (diff ** 2).sum(axis=2)
        d2[own, own] = d2[own, own + count] = np.inf
        force = (diff / d2[..., None] ** 1.5).sum(axis=1)
        force -= (force * v).sum(axis=1)[:, None] * v
        v = _unit_rows(v + 0.1 * spacing * force / np.abs(force).max())
    return v


def _general_position_reps(rng, dim, pairs):
    # no n of the pair representatives are (nearly) linearly dependent, so a
    # d-dimensional subspace holds at most d pairs; no two of the +-v closer
    # than half the even spacing, so no facet starts out tiny
    base, spacing = _even_directions(rng, dim, pairs, half=True)
    subsets = np.array(list(itertools.combinations(range(pairs), dim)))
    while True:
        reps = _jittered(rng, base, spacing)
        both = np.vstack([reps, -reps])
        cos = both @ both.T
        np.fill_diagonal(cos, -1.0)
        if (np.arccos(min(cos.max(), 1.0)) >= 0.5 * spacing
                and np.abs(np.linalg.det(reps[subsets])).min() >= GENERAL_POSITION_DET):
            return reps


def _inside_mass_bounds(w, dim, q):
    """Strict subspace mass bounds with MASS_MARGIN to spare, for pair weights
    ``w`` on directions in general position: the heaviest d-dimensional
    subspace holds the d heaviest pairs."""
    top = np.cumsum(np.sort(w)[::-1]) / w.sum()
    return all(top[d - 1] < mass_bound(dim, d, q) - MASS_MARGIN for d in range(1, dim))


def mass_bound(n, d, q):
    """Largest mass share a d-dimensional subspace may hold at index q."""
    if q < 1.0:
        return 1.0 if d == n - 1 else math.inf
    if q == 1.0:
        return 1.0
    return 1.0 - (n - d) * (q - 1.0) / ((n - 1.0) * q)


def _unit(v):
    return v / np.linalg.norm(v)


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=1)[:, None]


def _turn(seed, index, dim):
    """The rotation ``seed`` applies to input ``index``."""
    return _rotation(np.random.default_rng([seed, index, 2]), dim)


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))
