"""Template-query similarity, nearest-neighbour matching, and fixed-point structural matching.

Matching runs on half-resolution embedding grids; template points and match
results are expressed in full-resolution voxel coordinates of the respective
image grids (twice the embedding-grid index).

One canonical similarity: for a weighted, concatenated template vector v and
a query vector q, sum_k v_k q_k, summed in float64 in channel order by
elementwise products, never by BLAS (``_canonical``).  NN lookups,
``similarity_map`` and the similarity of a fitted fixed point all use it, so
no value depends on BLAS kernels, thread count or block sizes.  A query
voxel's q is its row of the float32 table of the heads in use.

One NN engine (``_PairMatcher._search``) returns the exact argmax of the
canonical similarity over the query voxels, ties going to the smallest
(z, y, x).  It screens in float32: ``_NN_CHUNK`` (128) template rows at a
time take one float32 product per column block of at most ``_NN_BLOCK``
entries (4 MB) in one buffer, and each row keeps its float32 best and
runner-up.  With C channels in use, any float32 evaluation of the sum lies
within E = g(C + 2, 2^-24) (1 + 2e-4) of its exact value, g(n, u) being
n u / (1 - n u): the template heads are unit, the weights sum to 1, and the
query rows are unit within the 1e-4 that ``EmbeddingVolume(normalized=True)``
enforces (the 2e-4 covers that, the 1e-6 weight tolerance and the float32
norm check).  The canonical sum lies within F = g(C + 2, 2^-53) (1 + 2e-4)
of it, so only columns whose float32 product is within 2 (E + F) of the
row's float32 best can win.  A row whose runner-up lies further down has
one candidate, which wins.  Any other row is rescanned over narrower blocks,
and all its candidates are re-ranked by the canonical sum, however many tie.
Memory stays at one block plus one vector per point, whatever the grid size.

Fixed-point matching of a point list builds one pair matcher and iterates
the seed cubes of all points together: every seed is a lattice point, so the
forward and backward NN maps are memoized per lattice index and each lattice
point is looked up at most once per direction, whichever cubes share it.  A
lattice index is the point's row of the flattened embedding table; the one
rule between the two is ``VolumeGeometry.flat_index`` and its inverse
``index_points``.  A lattice lookup gathers its template vector from the
table (``_PairMatcher.lattice_vectors``).
Each point gets its own affine fit; all fitted points share one similarity
pass and all points that cannot be fitted one NN lookup.

One iteration policy, with a step budget per seed: a point's centre seed
gets ``max_iter`` steps, as it sets ``n_fix``.  When every lattice point
within ``tau_dis`` of the point (its ball) lies in its clipped seed cube, the
ball seeds get one step each and the other seeds none; otherwise every seed
gets ``max_iter``.  This finds the same fixed points for the fit: a fixed
point within ``tau_dis`` is then a ball seed, and a fixed point converges
from itself at step 0.  A seed converges when the forward-backward map sends
it to itself; one that cycles or exhausts its budget yields no fixed point.

One bounds rule, for both matchers: a template point more than 0.75
embedding voxels outside the template grid is out of bounds.  ``grid_match``
returns ``None`` for it before any lookup; the one-point functions
(``similarity_map``, ``nn_match``, ``fixpoint_match``) raise ``OutOfBounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch, NonUnitInput, OutOfBounds
from .geometry import Point3, fit_affine
from .volume import EmbeddingVolume, ScalarVolume, trilinear_sample_many, unit_rows

__all__ = [
    "EmbeddingSet",
    "SimilarityWeights",
    "FixpointConfig",
    "MatchResult",
    "similarity_map",
    "nn_match",
    "fixpoint_match",
    "grid_match",
]


@dataclass
class EmbeddingSet:
    """Coarse + fine (+ optional semantic) embedding volumes sharing one half-res grid."""

    coarse: EmbeddingVolume
    fine: EmbeddingVolume
    semantic: EmbeddingVolume | None = None

    def __post_init__(self):
        heads = [self.coarse, self.fine] + ([self.semantic] if self.semantic else [])
        for h in heads:
            if h.geometry != self.coarse.geometry:
                raise DimensionMismatch("embedding heads must share one geometry")
            if not h.normalized:
                raise NonUnitInput("embedding heads must be normalized")

    @property
    def geometry(self):
        return self.coarse.geometry


@dataclass(frozen=True)
class SimilarityWeights:
    """Convex combination weights for the per-head inner products."""

    w_coarse: float = 0.5
    w_fine: float = 0.5
    w_semantic: float = 0.0

    def __post_init__(self):
        w = (self.w_coarse, self.w_fine, self.w_semantic)
        for name, x in zip(("w_coarse", "w_fine", "w_semantic"), w):
            if not 0.0 <= x < math.inf:
                raise ValueError(f"similarity weight {name} must be finite and non-negative")
        if abs(sum(w) - 1.0) > 1e-6:
            raise ValueError("similarity weights must sum to 1")


@dataclass(frozen=True)
class FixpointConfig:
    """Parameters of fixed-point structural matching.

    ``cube_side`` is the seed-cube edge length on the embedding grid (odd);
    ``tau_dis`` is the maximum distance, in full-resolution voxels, between
    the template point and a fixed point that may join the local fit.
    """

    cube_side: int = 5
    tau_dis: float = 5.0
    max_iter: int = 20
    min_points: int = 4

    def __post_init__(self):
        if self.cube_side < 3 or self.cube_side % 2 == 0:
            raise ValueError("cube_side must be an odd integer >= 3")
        if not (math.isfinite(self.tau_dis) and self.tau_dis > 0):
            raise ValueError("tau_dis must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.min_points < 4:
            raise ValueError("min_points must be >= 4 for the affine fit")


@dataclass
class MatchResult:
    point: Point3            # full-resolution voxel coordinates in the query volume
    similarity: float
    method: str              # "nn" | "fixpoint" | "fixpoint_fallback_nn"
    n_fix: int = 0           # iterations until the center seed converged
    n_fixed_points_used: int = 0


# template rows per similarity product in NN lookups
_NN_CHUNK = 128
# float32 entries (4 MB) per screen product, the byte bound the training
# sampler uses for its gather; wider products run over column blocks, and
# canonical sums over narrower ones (see _rerank_width)
_NN_BLOCK = 2**20


def _as_xyz(p) -> np.ndarray:
    if isinstance(p, Point3):
        return p.to_array()
    return np.asarray(p, dtype=np.float64).reshape(3)


def _in_bounds(s: EmbeddingSet, pts_fullres: np.ndarray) -> np.ndarray:
    """Which full-resolution points lie within 0.75 embedding voxels of ``s``'s grid."""
    half = np.asarray(pts_fullres, dtype=np.float64).reshape(-1, 3) / 2.0
    lims = np.array(s.geometry.dims, dtype=np.float64) - 1.0
    return np.all((half >= -0.75) & (half <= lims + 0.75), axis=1)


def _lattice_points(s: EmbeddingSet, flat: np.ndarray) -> np.ndarray:
    """Full-resolution (x, y, z) coordinates of flat embedding-grid indices."""
    return s.geometry.index_points(flat) * 2.0


def _canonical(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The canonical similarity of each row pair of float64 ``v`` and ``q`` (a
    one-row ``v`` pairs with every row of ``q``): the products v_k q_k in
    float64, summed left to right in channel order (``add.accumulate``, unlike
    ``sum``, never reorders).  Both operands are arrays, so a float32 ``q``
    is promoted (a NumPy < 2 float64 scalar would not promote it)."""
    terms = v * q
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1]


def _rerank_width(channels: int) -> int:
    """Query columns per block of canonical sums: each column costs ~12 bytes a
    channel, so a block stays within ``_NN_BLOCK`` float32 entries' bytes."""
    return max(1, _NN_BLOCK // (8 * channels))


def _margin(channels: int) -> float:
    """2 (E + F): how far below a row's float32 best the float32 product of
    its canonical winner can lie (see the module docstring)."""
    n = channels + 2
    return 2.0 * sum(n * u / (1.0 - n * u) for u in (2.0**-24, 2.0**-53)) * (1.0 + 2e-4)


def _products(v32: np.ndarray, q: np.ndarray, width: int, buf: np.ndarray | None = None):
    """(first column, float32 product of ``v32`` with a block of ``q``'s rows)
    per column block of ``width``, in ``buf`` when given."""
    for c0 in range(0, len(q), width):
        block = q[c0:c0 + width]
        out = None if buf is None else buf[:len(v32) * len(block)].reshape(len(v32), -1)
        yield c0, np.matmul(v32, block.T, out=out)


def _screen(v32: np.ndarray, q: np.ndarray, width: int, buf: np.ndarray):
    """Each row's float32 best, its first column and the runner-up, which
    equals the best when two columns tie."""
    r = np.arange(len(v32))
    top = np.full(len(v32), -np.inf, dtype=np.float32)
    second = top.copy()
    arg = np.zeros(len(v32), dtype=np.int64)
    for c0, sims in _products(v32, q, width, buf):
        idx = np.argmax(sims, axis=1)
        val = sims[r, idx]
        sims[r, idx] = -np.inf
        second = np.maximum(np.maximum(second, sims.max(axis=1)), np.minimum(top, val))
        up = val > top
        arg[up] = idx[up] + c0
        top = np.maximum(top, val)
    return top, second, arg


def _rescan(v: np.ndarray, v32: np.ndarray, floor: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """Column and canonical similarity of the best of one row's candidates,
    the columns whose float32 product is at least ``floor``; ``v``, ``v32`` and
    ``floor`` hold the one row."""
    flat, best = 0, -np.inf
    for c0, sims in _products(v32, q, _rerank_width(q.shape[1])):
        cand = np.flatnonzero(sims[0] >= floor) + c0
        if cand.size:
            vals = _canonical(v, q[cand])
            j = int(np.argmax(vals))  # the first maximum, the smallest (z, y, x)
            if vals[j] > best:  # an earlier block keeps a tie
                flat, best = int(cand[j]), float(vals[j])
    return flat, best


class _PairMatcher:
    """Float32 query tables for NN lookups in both directions, each stacked
    on the first lookup that reads it (an NN grid match never stacks A)."""

    def __init__(self, a: EmbeddingSet, b: EmbeddingSet, w: SimilarityWeights):
        self.a = a
        self.b = b
        self.w = w
        self.heads: list[tuple[str, float]] = []
        for name, weight in (("coarse", w.w_coarse), ("fine", w.w_fine), ("semantic", w.w_semantic)):
            if weight == 0.0:
                continue
            if getattr(a, name) is None or getattr(b, name) is None:
                raise DimensionMismatch(f"weight for missing head {name!r} must be zero")
            if getattr(a, name).channels != getattr(b, name).channels:
                raise DimensionMismatch(
                    f"head {name!r} has {getattr(a, name).channels} channels in the template "
                    f"and {getattr(b, name).channels} in the query"
                )
            self.heads.append((name, weight))
        if not self.heads:
            raise ValueError("at least one head must have positive weight")

    @cached_property
    def q_a(self) -> np.ndarray:
        return self._stack(self.a)

    @cached_property
    def q_b(self) -> np.ndarray:
        return self._stack(self.b)

    def _stack(self, s: EmbeddingSet) -> np.ndarray:
        """Float32 (n_voxels, channels) table of the heads in use, filled in place."""
        mats = [getattr(s, name).data.reshape(s.geometry.n_voxels, -1) for name, _ in self.heads]
        out = np.empty((s.geometry.n_voxels, sum(m.shape[1] for m in mats)), dtype=np.float32)
        lo = 0
        for m in mats:
            out[:, lo:lo + m.shape[1]] = m
            lo += m.shape[1]
        return out

    def template_vectors(self, s: EmbeddingSet, pts_fullres: np.ndarray) -> np.ndarray:
        """Per-head trilinear samples at half coordinates, weighted and concatenated."""
        pts = np.asarray(pts_fullres, dtype=np.float64).reshape(-1, 3)
        if not _in_bounds(s, pts).all():
            raise OutOfBounds("template point outside the volume")
        half = np.clip(pts / 2.0, 0.0, np.array(s.geometry.dims, dtype=np.float64) - 1.0)
        parts = []
        for name, weight in self.heads:
            parts.append(weight * trilinear_sample_many(getattr(s, name), half))
        return np.concatenate(parts, axis=1)

    def lattice_vectors(self, s: EmbeddingSet, flat: np.ndarray) -> np.ndarray:
        """``template_vectors`` at the lattice points ``flat``, from their table
        rows: at an integer point the trilinear sample is ``unit_rows`` of the
        voxel's row plus 0.0, bit for bit (the 0.0 is the sample's zeroed
        accumulator, which turns -0.0 into 0.0)."""
        parts = []
        for name, weight in self.heads:
            head = getattr(s, name)
            rows = np.add(head.data.reshape(-1, head.channels)[flat], 0.0, dtype=np.float64)
            parts.append(weight * unit_rows(rows)[0])
        return np.concatenate(parts, axis=1)

    def _search(self, from_set: EmbeddingSet, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat query-voxel index and canonical similarity of the best match of
        each template vector of ``v`` (rows sampled from ``from_set``).

        The float32 screen, then the canonical similarity of each row's one
        candidate, or a rescan of the rows with more (see the module docstring).
        """
        q = self.q_b if from_set is self.a else self.q_a
        margin = _margin(q.shape[1])
        v32 = v.astype(np.float32)
        flat = np.empty(len(v), dtype=np.int64)
        best = np.empty(len(v), dtype=np.float64)
        n_rows = max(1, min(len(v), _NN_CHUNK))
        width = min(len(q), max(1, _NN_BLOCK // n_rows))
        buf = np.empty(n_rows * width, dtype=np.float32)
        for lo in range(0, len(v), _NN_CHUNK):
            rows = slice(lo, lo + _NN_CHUNK)
            top, second, arg = _screen(v32[rows], q, width, buf)
            # float64 arrays on both sides, so the comparisons are exact
            floor = top.astype(np.float64) - margin
            one = second < floor
            f, b = flat[rows], best[rows]
            f[one] = arg[one]
            b[one] = _canonical(v[rows][one], q[arg[one]])
            for i in np.flatnonzero(~one):
                j = lo + i
                f[i], b[i] = _rescan(v[j:j + 1], v32[j:j + 1], floor[i:i + 1], q)
        return flat, best

    def nn_a_to_b(self, pts):
        """Best query voxel (full resolution) and similarity of each template point."""
        flat, best = self._search(self.a, self.template_vectors(self.a, pts))
        return _lattice_points(self.b, flat), best

    def lattice_nn(self, from_set: EmbeddingSet, flat: np.ndarray) -> np.ndarray:
        """Flat index of the best voxel of the other set for each lattice point
        ``flat`` of ``from_set``."""
        return self._search(from_set, self.lattice_vectors(from_set, flat))[0]

    def similarity_between(self, pts_a, pts_b) -> np.ndarray:
        """Canonical similarity between sample points of A and of B."""
        la = np.array(self.a.geometry.dims, dtype=np.float64) - 1.0
        lb = np.array(self.b.geometry.dims, dtype=np.float64) - 1.0
        pa = np.clip(np.asarray(pts_a, dtype=np.float64).reshape(-1, 3) / 2.0, 0.0, la)
        pb = np.clip(np.asarray(pts_b, dtype=np.float64).reshape(-1, 3) / 2.0, 0.0, lb)
        va = np.concatenate([w * trilinear_sample_many(getattr(self.a, n), pa) for n, w in self.heads], axis=1)
        vb = np.concatenate([trilinear_sample_many(getattr(self.b, n), pb) for n, _ in self.heads], axis=1)
        return _canonical(va, vb)


def similarity_map(
    template: EmbeddingSet, t, query: EmbeddingSet, w: SimilarityWeights
) -> ScalarVolume:
    """Canonical similarity between the template vector at ``t`` and every query voxel."""
    matcher = _PairMatcher(template, query, w)
    v = matcher.template_vectors(template, _as_xyz(t).reshape(1, 3))
    q = matcher.q_b
    sims = np.empty(len(q), dtype=np.float32)
    width = _rerank_width(q.shape[1])
    for c0 in range(0, len(q), width):
        sims[c0:c0 + width] = _canonical(v, q[c0:c0 + width])
    return ScalarVolume(query.geometry, sims.reshape(query.geometry.shape_zyx))


def nn_match(
    template: EmbeddingSet, t, query: EmbeddingSet, w: SimilarityWeights
) -> MatchResult:
    """Argmax of the similarity map, reported in full-resolution query voxels.

    The one-point case of ``grid_match``; raises ``OutOfBounds`` for a point
    outside the template grid.
    """
    return _single(grid_match([t], template, query, w))


def _single(results: list[MatchResult | None]) -> MatchResult:
    (r,) = results
    if r is None:
        raise OutOfBounds("template point outside the volume")
    return r


def _full_res_limits(s: EmbeddingSet) -> np.ndarray:
    nx, ny, nz = s.geometry.dims
    return 2.0 * (np.array([nx, ny, nz], dtype=np.float64) - 1.0)


@dataclass
class _CubeFixedPoints:
    """What the seed cube around one template point converged to."""

    fixed: np.ndarray    # (n, 3) full-res fixed points in A, sorted by (x, y, z), among
                         # them every fixed point within tau_dis of the template point
    forward: np.ndarray  # (n, 3) their forward matches in B
    n_fix: int           # iteration at which the centre seed converged, else max_iter


def _converge_cubes(
    matcher: _PairMatcher, pts: np.ndarray, cfg: FixpointConfig
) -> list[_CubeFixedPoints]:
    """Iterate the forward-backward map from the seeds of every point's cube.

    Seeds are embedding-grid lattice points, so the forward (A->B) and
    backward (B->A) NN maps are memoized per lattice index and shared by all
    cubes.  Each iteration advances every live seed at once and resolves
    only the lattice points not yet in the memo, with one batched lookup per
    direction.  A seed converges when the map sends it to itself; one that
    has not within its step budget yields no fixed point.  The map is a
    function, so a seed that revisits a point of its own trace is on a cycle
    and can never converge, and a seed's outcome depends on its start alone:
    seeds shared by overlapping cubes are iterated once, with the largest
    budget any cube gives them.

    The step budget: a point's centre seed gets ``max_iter`` steps, because
    it sets ``n_fix``.  When every lattice point within ``tau_dis`` of the
    point (its ball) lies in its clipped cube, each ball seed gets one step
    and every other seed none; otherwise every seed gets ``max_iter``.  This
    is exact: a fixed point within ``tau_dis`` is then a ball seed, and a
    fixed point converges from itself at step 0, so the one-step ball seeds
    find every fixed point the local fit can use.  The default cube (side 5,
    ``tau_dis`` 5) contains the ball of every lattice point.
    """
    a, b = matcher.a, matcher.b
    lim = np.array(a.geometry.dims) - 1
    half = (cfg.cube_side - 1) // 2
    offs = np.arange(-half, half + 1)
    gx, gy, gz = np.meshgrid(offs, offs, offs, indexing="ij")
    cube = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)  # in (x, y, z) order
    centers = np.clip(np.round(pts / 2.0).astype(np.int64), 0, lim)
    seeds = np.clip(centers[:, None, :] + cube[None, :, :], 0, lim)
    starts, start_of = np.unique(a.geometry.flat_index(seeds), return_inverse=True)
    start_of = start_of.reshape(len(pts), len(cube))
    center = len(cube) // 2  # offset (0, 0, 0) sits mid-cube

    # the slack covers any rounding of the distance, so no seed that the
    # finish's own tau_dis test keeps is left without a step
    reach = cfg.tau_dis * (1.0 + 1e-12)
    in_ball = np.linalg.norm(2.0 * seeds - pts[:, None, :], axis=2) <= reach
    # the nearest lattice points outside the clipped cube on each axis are
    # off the grid or beyond reach, and so is every point past them
    below, above = centers - half - 1, centers + half + 1
    contained = np.all(
        ((below < 0) | (pts - 2.0 * below > reach)) & ((above > lim) | (2.0 * above - pts > reach)),
        axis=1,
    )
    steps = np.where(contained[:, None], in_ball, cfg.max_iter)
    steps[:, center] = cfg.max_iter
    budget = np.zeros(len(starts), dtype=np.int64)
    np.maximum.at(budget, start_of, steps)

    fwd_memo = np.full(a.geometry.n_voxels, -1, dtype=np.int64)
    back_memo = np.full(b.geometry.n_voxels, -1, dtype=np.int64)
    fixed_at = np.full(len(starts), -1, dtype=np.int64)
    n_conv = np.full(len(starts), cfg.max_iter, dtype=np.int64)
    cur = starts.copy()
    alive = np.flatnonzero(budget)
    for it in range(cfg.max_iter):
        if alive.size == 0:
            break
        pos = cur[alive]
        need = np.unique(pos[fwd_memo[pos] < 0])
        if need.size:
            fwd_memo[need] = matcher.lattice_nn(a, need)
        fwd = fwd_memo[pos]
        need = np.unique(fwd[back_memo[fwd] < 0])
        if need.size:
            back_memo[need] = matcher.lattice_nn(b, need)
        nxt = back_memo[fwd]
        conv = nxt == pos
        fixed_at[alive[conv]] = pos[conv]
        n_conv[alive[conv]] = it
        cur[alive] = nxt
        alive = alive[~conv & (budget[alive] > it + 1)]

    # each point's distinct fixed points in (x, y, z) order, by one sort of
    # (point, x, y, z) keys
    nx, ny, nz = a.geometry.dims
    owner, seed = np.nonzero(fixed_at[start_of] >= 0)
    xyz = a.geometry.index_points(fixed_at[start_of[owner, seed]])
    key = np.unique(((owner * nx + xyz[:, 0]) * ny + xyz[:, 1]) * nz + xyz[:, 2])
    rest, z = np.divmod(key, nz)
    rest, y = np.divmod(rest, ny)
    owner, x = np.divmod(rest, nx)
    flat = a.geometry.flat_index(np.stack([x, y, z], axis=1))
    cuts = np.cumsum(np.bincount(owner, minlength=len(pts)))[:-1]
    return [
        _CubeFixedPoints(fixed, forward, int(n))
        for fixed, forward, n in zip(
            np.split(_lattice_points(a, flat), cuts),
            np.split(_lattice_points(b, fwd_memo[flat]), cuts),
            n_conv[start_of[:, center]],
        )
    ]


def _finish_fixpoint(
    matcher: _PairMatcher, pts: np.ndarray, cubes: list[_CubeFixedPoints], cfg: FixpointConfig
) -> list[MatchResult]:
    """Affine fits through the fixed points near each point, one similarity pass
    for all fitted points, and one NN lookup for all points that cannot be fitted."""
    out: list[MatchResult | None] = [None] * len(pts)
    fit, fit_n, fit_q = [], [], []
    for i, (t, cube) in enumerate(zip(pts, cubes)):
        near = np.linalg.norm(cube.fixed - t, axis=1) <= cfg.tau_dis
        n_near = int(np.count_nonzero(near))
        if n_near < cfg.min_points:
            continue
        try:
            aff, _ = fit_affine(cube.fixed[near], cube.forward[near])
        except DegenerateGeometry:
            continue
        fit.append(i)
        fit_n.append(n_near)
        fit_q.append(aff.apply_array(t.reshape(1, 3))[0])
    fitted = np.clip(np.array(fit_q).reshape(-1, 3), 0.0, _full_res_limits(matcher.b))
    sims = matcher.similarity_between(pts[fit], fitted)
    for i, n_near, qi, sim in zip(fit, fit_n, fitted, sims):
        out[i] = MatchResult(Point3.from_array(qi), float(sim), "fixpoint", cubes[i].n_fix, n_near)
    rest = [i for i, r in enumerate(out) if r is None]
    if rest:
        matched, sims = matcher.nn_a_to_b(pts[rest])
        for i, q, sim in zip(rest, matched, sims):
            out[i] = MatchResult(Point3.from_array(q), float(sim), "fixpoint_fallback_nn", cubes[i].n_fix)
    return out


def fixpoint_match(
    t,
    a: EmbeddingSet,
    b: EmbeddingSet,
    w: SimilarityWeights,
    cfg: FixpointConfig = FixpointConfig(),
) -> MatchResult:
    """Structural match of ``t`` through the fixed points of the forward-backward map.

    The seeds, the ``cube_side``-wide cube of embedding-grid points around
    ``t`` (clipped to the grid), iterate until they converge or run out of
    steps: ``max_iter`` for the centre seed, and, if every lattice point
    within ``tau_dis`` of ``t`` lies in the cube, one for the seeds within
    ``tau_dis`` and none for the others, else ``max_iter`` for all.  That is
    exact: such a fixed point is a seed and converges from itself at step 0.
    Converged fixed points within ``tau_dis`` of ``t``, sorted by (x, y, z),
    are paired with their forward matches; if at least ``min_points``
    non-coplanar pairs survive, a local affine fit maps ``t`` into the query
    volume.  Otherwise the plain NN match is returned with method
    ``fixpoint_fallback_nn``.

    This is the one-point case of ``grid_match(cfg=...)``; match many points
    with that, which shares one matcher and one lattice NN memo among them.
    Raises ``OutOfBounds`` for a point outside the template grid.
    """
    return _single(grid_match([t], a, b, w, cfg))


def grid_match(
    points,
    a: EmbeddingSet,
    b: EmbeddingSet,
    w: SimilarityWeights,
    cfg: FixpointConfig | None = None,
) -> list[MatchResult | None]:
    """Match a list of template points; out-of-bounds elements come back as ``None``.

    A point more than 0.75 embedding voxels outside ``a``'s grid is ``None``
    under either matcher, before any lookup.  One ``_PairMatcher`` serves the
    whole call.  With ``cfg=None`` the in-bounds points go through one
    batched NN lookup, at most ``_NN_BLOCK`` entries per float32 product.
    Otherwise their seed cubes iterate together against one shared memo of
    lattice NN maps (see ``_converge_cubes``): a seed that cycles or exhausts
    its step budget yields no fixed point.  Each point then gets its own
    affine fit through the fixed points near it, and all fitted points share
    one similarity pass.  The points that cannot be fitted fall back to one NN
    lookup; each equals ``nn_match`` bit for bit, as every lookup returns the
    canonical argmax whatever its batch.
    """
    pts = np.array([_as_xyz(p) for p in points], dtype=np.float64).reshape(-1, 3)
    if not len(pts):
        return []
    matcher = _PairMatcher(a, b, w)
    ok = np.flatnonzero(_in_bounds(a, pts))
    out: list[MatchResult | None] = [None] * len(pts)
    if not ok.size:
        return out
    if cfg is None:
        matched, sims = matcher.nn_a_to_b(pts[ok])
        res = [MatchResult(Point3.from_array(q), float(sim), "nn") for q, sim in zip(matched, sims)]
    else:
        res = _finish_fixpoint(matcher, pts[ok], _converge_cubes(matcher, pts[ok], cfg), cfg)
    for i, r in zip(ok, res):
        out[i] = r
    return out
