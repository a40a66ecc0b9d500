"""Template-query similarity, nearest-neighbour matching, and fixed-point structural matching.

Matching runs on half-resolution embedding grids; template points and match
results are expressed in full-resolution voxel coordinates of the respective
image grids (twice the embedding-grid index).  Nearest-neighbour argmaxes
break ties toward the smallest (z, y, x) index, so results are deterministic.

An NN lookup samples its template vectors once, then takes them
``_NN_CHUNK`` (128) rows at a time through similarity products bounded by
bytes: a large query grid goes through column blocks of at most ``_NN_BLOCK``
float64 entries (4 MB) in one buffer, so memory stays at one block plus one
vector per point, whatever the grid size.
Fixed-point matching of a point list builds one pair matcher and iterates
the seed cubes of all points together: every seed is a lattice point, so the
forward and backward NN maps are memoized per lattice index and each lattice
point is looked up at most once per direction, whichever cubes share it.  A
lattice index is the point's row of the flattened embedding table; the one
rule between the two is ``VolumeGeometry.flat_index`` and its inverse
``index_points``.
Each point gets its own affine fit; all fitted points share one similarity
pass.  A point that cannot be fitted keeps a one-row NN lookup, because a
one-row product rounds differently from a batched one.

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
from .volume import EmbeddingVolume, ScalarVolume, trilinear_sample_many

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
# float64 entries (4 MB) per similarity product, the bound the training
# sampler uses for its gather; wider products run over column blocks
_NN_BLOCK = 2**19


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


class _PairMatcher:
    """Flattened query matrices for NN lookups in both directions, each
    stacked on the first lookup that reads it (an NN grid match never stacks A)."""

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
        """Float64 (n_voxels, channels) matrix of the heads in use, filled in place."""
        mats = [getattr(s, name).data.reshape(s.geometry.n_voxels, -1) for name, _ in self.heads]
        out = np.empty((s.geometry.n_voxels, sum(m.shape[1] for m in mats)), dtype=np.float64)
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

    def _nn(self, from_set: EmbeddingSet, q_to: np.ndarray, pts) -> tuple[np.ndarray, np.ndarray]:
        """Flat query-voxel index and similarity of each template point's best match.

        Template vectors are sampled once for all points, then go through
        the product ``_NN_CHUNK`` rows at a time, over column blocks of
        ``q_to`` that keep each product within ``_NN_BLOCK`` entries and share
        one row-major buffer.  A block is a multiple of 8 columns wide, so
        its edges fall on BLAS tile edges.  Each row's argmax in a block is
        its first maximum, the smallest (z, y, x), and a later block replaces
        the running best only on a strictly larger value.
        """
        v = self.template_vectors(from_set, pts)
        flat = np.zeros(len(v), dtype=np.int64)
        best = np.full(len(v), -np.inf)
        n_rows = max(1, min(len(v), _NN_CHUNK))
        width = min(len(q_to), max(8, _NN_BLOCK // n_rows // 8 * 8))
        buf = np.empty(n_rows * width)
        for lo in range(0, len(v), _NN_CHUNK):
            chunk = v[lo:lo + _NN_CHUNK]
            f, b = flat[lo:lo + len(chunk)], best[lo:lo + len(chunk)]
            for c0 in range(0, len(q_to), width):
                block = q_to[c0:c0 + width]
                sims = np.matmul(chunk, block.T, out=buf[:len(chunk) * len(block)].reshape(len(chunk), -1))
                idx = np.argmax(sims, axis=1)
                val = sims[np.arange(len(idx)), idx]
                up = val > b
                f[up], b[up] = idx[up] + c0, val[up]
        return flat, best

    def nn_a_to_b(self, pts):
        flat, best = self._nn(self.a, self.q_b, pts)
        return _lattice_points(self.b, flat), best

    def similarity_between(self, pts_a, pts_b) -> np.ndarray:
        """Weighted per-head similarity between sample points of A and of B."""
        la = np.array(self.a.geometry.dims, dtype=np.float64) - 1.0
        lb = np.array(self.b.geometry.dims, dtype=np.float64) - 1.0
        pa = np.clip(np.asarray(pts_a, dtype=np.float64).reshape(-1, 3) / 2.0, 0.0, la)
        pb = np.clip(np.asarray(pts_b, dtype=np.float64).reshape(-1, 3) / 2.0, 0.0, lb)
        total = np.zeros(len(pa), dtype=np.float64)
        for name, weight in self.heads:
            va = trilinear_sample_many(getattr(self.a, name), pa)
            vb = trilinear_sample_many(getattr(self.b, name), pb)
            total += weight * (va * vb).sum(axis=1)
        return total


def similarity_map(
    template: EmbeddingSet, t, query: EmbeddingSet, w: SimilarityWeights
) -> ScalarVolume:
    """Weighted inner-product map between the template vector at ``t`` and every query voxel."""
    matcher = _PairMatcher(template, query, w)
    v = matcher.template_vectors(template, _as_xyz(t).reshape(1, 3))[0]
    sims = matcher.q_b @ v
    shape = query.geometry.shape_zyx
    return ScalarVolume(query.geometry, sims.reshape(shape).astype(np.float32))


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
            fwd_memo[need] = matcher._nn(a, matcher.q_b, _lattice_points(a, need))[0]
        fwd = fwd_memo[pos]
        need = np.unique(fwd[back_memo[fwd] < 0])
        if need.size:
            back_memo[need] = matcher._nn(b, matcher.q_a, _lattice_points(b, need))[0]
        nxt = back_memo[fwd]
        conv = nxt == pos
        fixed_at[alive[conv]] = pos[conv]
        n_conv[alive[conv]] = it
        cur[alive] = nxt
        alive = alive[~conv & (budget[alive] > it + 1)]

    groups = []
    for p in range(len(pts)):
        flat = fixed_at[start_of[p]]
        flat = np.unique(flat[flat >= 0])
        xyz = _lattice_points(a, flat)
        groups.append(flat[np.lexsort((xyz[:, 2], xyz[:, 1], xyz[:, 0]))])
    flat = np.concatenate(groups)
    cuts = np.cumsum([len(g) for g in groups])[:-1]
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
    for all fitted points, and a one-row NN lookup per point that cannot be fitted."""
    out: list[MatchResult | None] = [None] * len(pts)
    fit, fit_n, fit_q = [], [], []
    for i, (t, cube) in enumerate(zip(pts, cubes)):
        near = np.linalg.norm(cube.fixed - t, axis=1) <= cfg.tau_dis
        n_near = int(np.count_nonzero(near))
        if n_near >= cfg.min_points:
            try:
                aff, _ = fit_affine(cube.fixed[near], cube.forward[near])
            except DegenerateGeometry:
                pass
            else:
                fit.append(i)
                fit_n.append(n_near)
                fit_q.append(aff.apply_array(t.reshape(1, 3))[0])
                continue
        (q,), (sim,) = matcher.nn_a_to_b(t.reshape(1, 3))
        out[i] = MatchResult(Point3.from_array(q), float(sim), "fixpoint_fallback_nn", cube.n_fix)
    fitted = np.clip(np.array(fit_q).reshape(-1, 3), 0.0, _full_res_limits(matcher.b))
    sims = matcher.similarity_between(pts[fit], fitted)
    for i, n_near, qi, sim in zip(fit, fit_n, fitted, sims):
        out[i] = MatchResult(Point3.from_array(qi), float(sim), "fixpoint", cubes[i].n_fix, n_near)
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
    batched NN lookup, at most ``_NN_BLOCK`` entries per similarity product.
    Otherwise their seed cubes iterate together against one shared memo of
    lattice NN maps (see ``_converge_cubes``): a seed that cycles or exhausts
    its step budget yields no fixed point.  Each point then gets its own
    affine fit through the fixed points near it, and all fitted points share
    one similarity pass.  A point that cannot be fitted falls back to its own
    one-row NN lookup, so it equals ``nn_match`` bit for bit.
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
