"""Tests for similarity maps, NN matching, and fixed-point structural matching."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from voxelmatch import matching
from voxelmatch.alignment import AlignConfig, register_and_crop
from voxelmatch.errors import DegenerateGeometry, DimensionMismatch, OutOfBounds, VoxelMatchError
from voxelmatch.geometry import Point3, fit_affine, rigid_about, rotation_matrix
from voxelmatch.matching import (
    EmbeddingSet,
    FixpointConfig,
    MatchResult,
    SimilarityWeights,
    _NN_CHUNK,
    _PairMatcher,
    _canonical,
    _converge_cubes,
    _full_res_limits,
    _lattice_points,
    fixpoint_match,
    grid_match,
    nn_match,
    similarity_map,
)
from voxelmatch.model import new_model
from voxelmatch.phantom import PhantomSpec, gen_pair
from voxelmatch.volume import EmbeddingVolume, VolumeGeometry, resample, trilinear_sample_many, unit_rows


def unit_volume(geom, data):
    """Float32 normalized embedding volume of ``data``'s rows, through ``unit_rows``."""
    rows = unit_rows(np.asarray(data, dtype=np.float64).reshape(-1, data.shape[-1]))[0]
    return EmbeddingVolume(geom, rows.reshape(data.shape).astype(np.float32))


def make_set(rng, dims=(6, 6, 6), d=4, data=None):
    """Random normalized embedding set; coarse is a smoothed copy of fine."""
    nx, ny, nz = dims
    if data is None:
        data = rng.normal(size=(nz, ny, nx, d))
    g = VolumeGeometry(dims)
    fine = unit_volume(g, data)
    coarse_data = data + 0.25 * np.roll(data, 1, axis=2)
    coarse = unit_volume(g, coarse_data)
    return EmbeddingSet(coarse=coarse, fine=fine)


def shifted_copy(src: EmbeddingSet, shift_half, rng):
    """Embeddings of ``src`` shifted by an embedding-grid translation; the
    uncovered margin is filled with fresh random unit vectors."""
    out_heads = {}
    for name in ("coarse", "fine"):
        vol = getattr(src, name)
        nz, ny, nx, d = vol.data.shape
        filler = rng.normal(size=(nz, ny, nx, d))
        filler /= np.linalg.norm(filler, axis=3, keepdims=True)
        data = filler.astype(np.float32)
        dx, dy, dz = shift_half
        src_z = slice(max(0, -dz), min(nz, nz - dz))
        src_y = slice(max(0, -dy), min(ny, ny - dy))
        src_x = slice(max(0, -dx), min(nx, nx - dx))
        dst_z = slice(max(0, dz), min(nz, nz + dz))
        dst_y = slice(max(0, dy), min(ny, ny + dy))
        dst_x = slice(max(0, dx), min(nx, nx + dx))
        data[dst_z, dst_y, dst_x] = vol.data[src_z, src_y, src_x]
        out_heads[name] = EmbeddingVolume(vol.geometry, data)
    return EmbeddingSet(**out_heads)


W = SimilarityWeights()
W_FINE = SimilarityWeights(0.0, 1.0, 0.0)


class TestSimilarityMap:
    def test_self_similarity_is_one_and_argmax(self):
        rng = np.random.default_rng(0)
        s = make_set(rng)
        t = (4.0, 2.0, 6.0)  # full-res coords of half voxel (2, 1, 3)
        smap = similarity_map(s, t, s, W_FINE)
        assert abs(smap.data[3, 1, 2] - 1.0) < 1e-5
        assert smap.data.argmax() == np.ravel_multi_index((3, 1, 2), smap.data.shape)

    def test_constant_embeddings_give_constant_map(self):
        g = VolumeGeometry((4, 4, 4))
        v = np.zeros((4, 4, 4, 3))
        v[..., 0] = 1.0
        vol = EmbeddingVolume(g, v)
        s = EmbeddingSet(coarse=vol, fine=vol)
        smap = similarity_map(s, (2, 2, 2), s, W)
        np.testing.assert_allclose(smap.data, 1.0, atol=1e-6)

    def test_matches_brute_force_triple_loop(self):
        rng = np.random.default_rng(1)
        a = make_set(rng, dims=(5, 4, 3), d=3)
        b = make_set(rng, dims=(5, 4, 3), d=3)
        t = (4.0, 2.0, 2.0)
        smap = similarity_map(a, t, b, W)
        # oracle: sample template heads at t/2 and dot against every voxel
        vc = trilinear_sample_many(a.coarse, np.asarray(t) / 2.0)[0]
        vf = trilinear_sample_many(a.fine, np.asarray(t) / 2.0)[0]
        for iz in range(3):
            for iy in range(4):
                for ix in range(5):
                    expected = 0.5 * float(vc @ b.coarse.data[iz, iy, ix]) + 0.5 * float(
                        vf @ b.fine.data[iz, iy, ix]
                    )
                    assert abs(float(smap.data[iz, iy, ix]) - expected) < 1e-6

    def test_equals_the_per_voxel_canonical_sum_bit_for_bit(self):
        rng = np.random.default_rng(3)
        a = make_set(rng, dims=(5, 6, 4), d=11)
        b = make_set(rng, dims=(8, 8, 6), d=11)
        matcher = _PairMatcher(a, b, W)
        for t in [(2.0, 4.0, 6.0), (3.3, 5.1, 2.9)]:
            smap = similarity_map(a, t, b, W).data.reshape(-1)
            v = [float(x) for x in matcher.template_vectors(a, [t])[0]]
            for got, q in zip(smap, matcher.q_b):
                total = v[0] * float(q[0])
                for vk, qk in zip(v[1:], q[1:]):
                    total = total + vk * float(qk)
                assert got.tobytes() == np.float32(total).tobytes()

    @pytest.mark.parametrize("channels", [1, 2, 11, 22])
    @pytest.mark.parametrize("rows", [1, 5, 255, 256, 300])
    def test_canonical_sum_equals_the_accumulate_oracle(self, channels, rows):
        # the sum's earlier form, one left-to-right add.accumulate along each row
        rng = np.random.default_rng(channels)
        q = rng.normal(size=(rows, channels)).astype(np.float32)
        for v in (rng.normal(size=(1, channels)), rng.normal(size=(rows, channels))):
            want = np.add.accumulate(v * q, axis=1)[:, -1]
            assert _canonical(v, q).tobytes() == want.tobytes()

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(2)
        a = make_set(rng)
        b = make_set(rng)
        smap = similarity_map(a, (3, 3, 3), b, W)
        assert smap.data.min() >= -1.0 - 1e-6
        assert smap.data.max() <= 1.0 + 1e-6


class TestNNMatch:
    def test_planted_identical_embedding(self):
        rng = np.random.default_rng(3)
        a = make_set(rng)
        b = make_set(rng)
        tv = a.fine.data[2, 1, 3].copy()
        data = b.fine.data.copy()
        data[4, 5, 1] = tv
        b = EmbeddingSet(coarse=b.coarse, fine=EmbeddingVolume(b.fine.geometry, data))
        res = nn_match(a, (6.0, 2.0, 4.0), b, W_FINE)
        assert (res.point.x, res.point.y, res.point.z) == (2.0, 10.0, 8.0)
        assert abs(res.similarity - 1.0) < 1e-5
        assert res.method == "nn"

    def test_self_match_returns_template_point(self):
        rng = np.random.default_rng(4)
        a = make_set(rng)
        res = nn_match(a, (4.0, 6.0, 2.0), a, W)
        assert (res.point.x, res.point.y, res.point.z) == (4.0, 6.0, 2.0)

    def test_matches_exhaustive_argmax_oracle(self):
        rng = np.random.default_rng(5)
        a = make_set(rng, dims=(5, 5, 5))
        b = make_set(rng, dims=(5, 5, 5))
        for t in [(0, 0, 0), (4, 4, 4), (2, 6, 4)]:
            res = nn_match(a, t, b, W)
            smap = similarity_map(a, t, b, W)
            flat = int(np.argmax(smap.data))
            iz, iy, ix = np.unravel_index(flat, smap.data.shape)
            assert (res.point.x, res.point.y, res.point.z) == (2.0 * ix, 2.0 * iy, 2.0 * iz)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(6)
        a = make_set(rng)
        b = make_set(rng)
        r1 = nn_match(a, (3, 5, 7), b, W)
        r2 = nn_match(a, (3, 5, 7), b, W)
        assert r1 == r2

    def test_out_of_bounds_template(self):
        rng = np.random.default_rng(7)
        a = make_set(rng)
        with pytest.raises(OutOfBounds):
            nn_match(a, (50.0, 0.0, 0.0), a, W)


@dataclass
class Cube:
    """One point's rows of the engine's flat fixed-point arrays."""

    fixed: np.ndarray
    forward: np.ndarray
    n_fix: int


def engine_cubes(a, b, pts, cfg=FixpointConfig()):
    """What the fixed-point engine's seed cubes around ``pts`` converged to,
    regrouped per point from the owner-sorted flat arrays."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    owner, fixed, forward, n_fix = _converge_cubes(_PairMatcher(a, b, W), pts, cfg)
    assert (np.diff(owner) >= 0).all()
    return [Cube(fixed[owner == i], forward[owner == i], int(n_fix[i])) for i in range(len(pts))]


def check_true_fixed_points(a, b, pts):
    """Every fixed point the engine reports is a mutual NN pair with its
    forward match; returns how many were checked."""
    cubes = engine_cubes(a, b, pts)
    fixed = np.concatenate([c.fixed for c in cubes])
    forward = np.concatenate([c.forward for c in cubes])
    for f, fwd, r_fwd, r_back in zip(
        fixed, forward, grid_match(fixed, a, b, W), grid_match(forward, b, a, W)
    ):
        assert r_fwd.point == Point3.from_array(fwd)
        assert r_back.point == Point3.from_array(f)
    return len(fixed)


class TestForwardBackward:
    def test_identity_pair(self):
        rng = np.random.default_rng(8)
        a = make_set(rng)
        t = np.array([4.0, 4.0, 6.0])
        (cube,) = engine_cubes(a, a, t)
        # every seed is a fixed point, but only the 81 lattice points within
        # tau_dis = 5 of t, all inside its 5^3 cube, are stepped and reported
        ball = [p for p in lattice_points((6, 6, 6)) if np.linalg.norm(np.subtract(p, t)) <= 5.0]
        assert len(ball) == 81
        np.testing.assert_array_equal(cube.fixed, sorted(ball))
        np.testing.assert_array_equal(cube.forward, cube.fixed)

    def test_translated_copy_returns_start(self):
        rng = np.random.default_rng(9)
        a = make_set(rng, dims=(8, 8, 8))
        b = shifted_copy(a, (2, 1, 0), rng)
        t = (4.0, 4.0, 4.0)
        (cube,) = engine_cubes(a, b, t)
        row = np.flatnonzero((cube.fixed == t).all(axis=1))
        assert len(row) == 1
        assert tuple(cube.forward[row[0]]) == (8.0, 6.0, 4.0)
        fwd = nn_match(a, t, b, W)
        assert (fwd.point.x, fwd.point.y, fwd.point.z) == (8.0, 6.0, 4.0)

    def test_equals_composition_of_argmax_oracles(self):
        rng = np.random.default_rng(10)
        a = make_set(rng, dims=(5, 5, 5))
        b = make_set(rng, dims=(5, 5, 5))
        assert check_true_fixed_points(a, b, lattice_points((5, 5, 5), 2)) > 0


class TestFixedPointIterate:
    def test_consistent_match_converges_immediately(self):
        rng = np.random.default_rng(11)
        a = make_set(rng)
        res = fixpoint_match((4, 4, 4), a, a, W)
        assert res.method == "fixpoint"
        assert res.n_fix == 0  # zero moves before convergence
        np.testing.assert_allclose([res.point.x, res.point.y, res.point.z], [4.0, 4.0, 4.0], atol=1e-9)

    def test_translated_copy_all_seeds_converge(self):
        rng = np.random.default_rng(12)
        a = make_set(rng, dims=(8, 8, 8))
        b = shifted_copy(a, (1, 2, 1), rng)
        pts = [(4, 4, 4), (6, 6, 6), (4, 6, 8)]
        for t, cube in zip(pts, engine_cubes(a, b, pts)):
            assert cube.n_fix == 0
            assert (cube.fixed == t).all(axis=1).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_similarity_never_decreases(self, seed):
        # sim(back(fwd(p)) -> B) >= sim(back(fwd(p)), fwd(p)) >= sim(p, fwd(p))
        rng = np.random.default_rng(100 + seed)
        a = make_set(rng, dims=(7, 7, 7))
        b = make_set(rng, dims=(7, 7, 7))
        pts = lattice_points((7, 7, 7))
        fwd = grid_match(pts, a, b, W)
        back = grid_match([r.point for r in fwd], b, a, W)
        again = grid_match([r.point for r in back], a, b, W)
        for r0, r1 in zip(fwd, again):
            assert r1.similarity >= r0.similarity - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_converged_points_are_true_fixed_points(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = make_set(rng, dims=(6, 6, 6))
        b = make_set(rng, dims=(6, 6, 6))
        pts = lattice_points((6, 6, 6), 2)
        assert check_true_fixed_points(a, b, pts) > 0
        shift = tuple(int(v) for v in rng.integers(-2, 3, 3))
        assert check_true_fixed_points(a, shifted_copy(a, shift, rng), pts) > 0


class TestFixpointMatch:
    def test_pure_translation_recovers_exact_offset(self):
        rng = np.random.default_rng(13)
        a = make_set(rng, dims=(10, 10, 10))
        b = shifted_copy(a, (2, 1, 1), rng)
        t = (8.0, 8.0, 8.0)
        res = fixpoint_match(t, a, b, W, FixpointConfig(cube_side=3, tau_dis=6.0))
        assert res.method == "fixpoint"
        np.testing.assert_allclose(
            [res.point.x, res.point.y, res.point.z], [12.0, 10.0, 10.0], atol=1e-6
        )
        assert res.n_fixed_points_used >= 4
        assert res.n_fix == 0

    def test_equals_nn_on_translated_pair(self):
        rng = np.random.default_rng(14)
        a = make_set(rng, dims=(10, 10, 10))
        b = shifted_copy(a, (1, 1, 2), rng)
        t = (10.0, 8.0, 6.0)
        r_fix = fixpoint_match(t, a, b, W, FixpointConfig())
        r_nn = nn_match(a, t, b, W)
        np.testing.assert_allclose(
            [r_fix.point.x, r_fix.point.y, r_fix.point.z],
            [r_nn.point.x, r_nn.point.y, r_nn.point.z],
            atol=1e-6,
        )

    def test_fallback_on_tiny_distance_threshold(self):
        rng = np.random.default_rng(15)
        a = make_set(rng, dims=(8, 8, 8))
        b = make_set(rng, dims=(8, 8, 8))  # unrelated: few nearby fixed points
        res = fixpoint_match((8, 8, 8), a, b, W, FixpointConfig(tau_dis=1e-6))
        assert res.method == "fixpoint_fallback_nn"
        assert res.n_fixed_points_used == 0
        nn = nn_match(a, (8, 8, 8), b, W)
        assert (res.point.x, res.point.y, res.point.z) == (nn.point.x, nn.point.y, nn.point.z)


class TestGridMatch:
    def test_empty_list(self):
        rng = np.random.default_rng(16)
        a = make_set(rng)
        assert grid_match([], a, a, W) == []

    def test_single_point_equals_nn_match(self):
        rng = np.random.default_rng(17)
        a = make_set(rng)
        b = make_set(rng)
        res = grid_match([(4, 4, 4)], a, b, W)
        assert res[0] == nn_match(a, (4, 4, 4), b, W)

    def test_grid_on_translated_pair_recovers_uniform_offset(self):
        rng = np.random.default_rng(18)
        a = make_set(rng, dims=(10, 10, 10))
        b = shifted_copy(a, (1, 1, 1), rng)
        pts = [(x, y, z) for x in (4, 8) for y in (4, 8) for z in (4, 8)]
        out = grid_match(pts, a, b, W)
        for p, r in zip(pts, out):
            assert r is not None
            assert (r.point.x - p[0], r.point.y - p[1], r.point.z - p[2]) == (2.0, 2.0, 2.0)

    @pytest.mark.parametrize(
        "cfg",
        [None, FixpointConfig(), FixpointConfig(cube_side=3, tau_dis=6.0)],
        ids=["nn", "fixpoint", "fixpoint-cube3"],
    )
    def test_failed_elements_are_none(self, cfg):
        # one bounds rule for both matchers: up to 0.75 embedding voxels
        # (1.5 full-res voxels) outside the grid is in bounds
        rng = np.random.default_rng(19)
        a = make_set(rng)
        pts = [(4, 4, 4), (-1.4, 4, 4), (90, 0, 0), (-1.6, 4, 4), (np.nan, 4, 4)]
        out = grid_match(pts, a, a, W, cfg)
        assert out[0] is not None
        assert out[1] is not None
        assert out[2:] == [None, None, None]
        with pytest.raises(OutOfBounds):
            if cfg is None:
                nn_match(a, (-1.6, 4, 4), a, W)
            else:
                fixpoint_match((-1.6, 4, 4), a, a, W, cfg)


def per_point_fixpoint(t, a, b, w, cfg):
    """Reference oracle: the per-point fixed-point loop that ``grid_match``
    replaced with one batched, memoized engine.  Builds its own matcher and
    iterates one seed cube with plain Python sets."""
    t_arr = np.asarray(t, dtype=np.float64).reshape(3)
    matcher = _PairMatcher(a, b, w)
    nx, ny, nz = a.geometry.dims
    half = (cfg.cube_side - 1) // 2
    center = np.round(t_arr / 2.0).astype(np.int64)
    center = np.clip(center, 0, np.array([nx, ny, nz]) - 1)
    offs = np.arange(-half, half + 1)
    gx, gy, gz = np.meshgrid(offs, offs, offs, indexing="ij")
    cube = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) + center
    cube = np.clip(cube, 0, np.array([nx, ny, nz]) - 1)
    seeds = np.unique(cube, axis=0).astype(np.float64) * 2.0
    center_seed = tuple(center.astype(np.float64) * 2.0)

    cur = [tuple(s) for s in seeds]
    center_idx = cur.index(center_seed)
    seen = [{c} for c in cur]
    alive = list(range(len(cur)))
    pairs = {}
    n_fix_center = cfg.max_iter
    for it in range(cfg.max_iter):
        if not alive:
            break
        pts = np.array([cur[i] for i in alive], dtype=np.float64)
        fwd, _ = matcher.nn_a_to_b(pts)
        back_flat = matcher.lattice_nn(b, b.geometry.flat_index((fwd / 2.0).astype(np.int64)))
        back = a.geometry.index_points(back_flat) * 2.0
        next_alive = []
        for row, i in enumerate(alive):
            nxt = tuple(back[row])
            if nxt == cur[i]:
                pairs.setdefault(cur[i], tuple(fwd[row]))
                if i == center_idx:
                    n_fix_center = it
                continue
            if nxt in seen[i]:
                continue
            seen[i].add(nxt)
            cur[i] = nxt
            next_alive.append(i)
        alive = next_alive

    kept = [
        (np.asarray(fp), np.asarray(fw))
        for fp, fw in sorted(pairs.items())
        if np.linalg.norm(np.asarray(fp) - t_arr) <= cfg.tau_dis
    ]
    if len(kept) >= cfg.min_points:
        src = np.array([k[0] for k in kept])
        dst = np.array([k[1] for k in kept])
        try:
            aff = fit_affine(src, dst)
        except DegenerateGeometry:
            aff = None
        if aff is not None:
            q = aff.apply_array(t_arr.reshape(1, 3))[0]
            q = np.clip(q, 0.0, _full_res_limits(b))
            sim = float(matcher.similarity_between(t_arr.reshape(1, 3), q.reshape(1, 3))[0])
            return MatchResult(Point3.from_array(q), sim, "fixpoint", n_fix_center, len(kept))
    matched, sims = matcher.nn_a_to_b(t_arr.reshape(1, 3))
    return MatchResult(
        Point3.from_array(matched[0]), float(sims[0]), "fixpoint_fallback_nn", n_fix_center, 0
    )


def oracle_grid(pts, a, b, w, cfg):
    out = []
    for p in pts:
        try:
            out.append(per_point_fixpoint(p, a, b, w, cfg))
        except VoxelMatchError:
            out.append(None)
    return out


def result_bits(results):
    """Each result's method, counts and the bytes of its point and similarity."""
    return [
        None if r is None else (
            r.method, r.n_fix, r.n_fixed_points_used,
            np.array([r.point.x, r.point.y, r.point.z, r.similarity]).tobytes(),
        )
        for r in results
    ]


def lattice_points(dims, step=1):
    nx, ny, nz = dims
    return [
        (2.0 * x, 2.0 * y, 2.0 * z)
        for x in range(0, nx, step) for y in range(0, ny, step) for z in range(0, nz, step)
    ]


def equivalence_cases():
    """(a, b, points) triples: unrelated pairs, where seeds wander and cycle,
    and translated copies, where most seeds are fixed points."""
    cases = []
    for seed, dims in ((30, (6, 6, 6)), (31, (7, 5, 6)), (32, (8, 8, 8))):
        rng = np.random.default_rng(seed)
        a = make_set(rng, dims=dims)
        b = make_set(rng, dims=dims)
        cases.append((a, b, lattice_points(dims, 2)))
    for seed, shift in ((33, (1, 2, 0)), (34, (2, 1, 1))):
        rng = np.random.default_rng(seed)
        a = make_set(rng, dims=(9, 9, 9))
        b = shifted_copy(a, shift, rng)
        cases.append((a, b, lattice_points((9, 9, 9), 3)))
    return cases


class TestBatchedFixpointEngine:
    CONFIGS = (
        FixpointConfig(),
        FixpointConfig(cube_side=3, tau_dis=6.0),
        FixpointConfig(tau_dis=12.0, max_iter=2),
        FixpointConfig(cube_side=7, tau_dis=9.0, min_points=6),
    )

    def test_grid_match_equals_per_point_oracle(self, monkeypatch):
        # points that are fitted, whose fit raises DegenerateGeometry, and
        # that have too few fixed points near them
        degenerate = []
        fit = matching.fit_affine

        def watched_fit(src, dst):
            try:
                return fit(src, dst)
            except DegenerateGeometry:
                degenerate.append(len(src))
                raise

        monkeypatch.setattr(matching, "fit_affine", watched_fit)
        n_fallback = 0
        for cfg in self.CONFIGS + (FixpointConfig(tau_dis=2.5), FixpointConfig(tau_dis=1e-6)):
            methods = []
            for a, b, pts in equivalence_cases():
                # a border point whose cube is clipped, an off-lattice point, an
                # out-of-bounds point
                pts = pts + [(0.0, 0.0, 0.0), (3.0, 5.0, 1.0), (90.0, 0.0, 0.0)]
                got = grid_match(pts, a, b, W, cfg)
                assert result_bits(got) == result_bits(oracle_grid(pts, a, b, W, cfg))
                assert got[-1] is None
                methods += [r.method for r in got if r is not None]
            assert "fixpoint" in methods or cfg.tau_dis == 1e-6  # where every point falls back
            n_fallback += methods.count("fixpoint_fallback_nn")
        assert n_fallback > len(degenerate) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_tied_embeddings_equal_oracle(self, seed):
        # few distinct vectors: NN ties everywhere, many degenerate local fits
        rng = np.random.default_rng(50 + seed)
        basis = rng.normal(size=(3, 4))
        a = make_set(rng, data=basis[rng.integers(0, 3, size=(6, 6, 6))])
        b = make_set(rng, data=basis[rng.integers(0, 3, size=(6, 6, 6))])
        pts = lattice_points((6, 6, 6), 2) + [(10.0, 0.0, 10.0)]
        assert grid_match(pts, a, b, W, FixpointConfig()) == oracle_grid(pts, a, b, W, FixpointConfig())

    @pytest.mark.parametrize("cfg,methods", [
        (FixpointConfig(tau_dis=2.5, max_iter=3), {"fixpoint", "fixpoint_fallback_nn"}),
        (FixpointConfig(tau_dis=2.5, max_iter=20), {"fixpoint", "fixpoint_fallback_nn"}),
        (FixpointConfig(), {"fixpoint"}),  # 81-seed balls, about half of them fixed
    ], ids=["3", "20", "default"])
    def test_wandering_and_cycling_seeds_equal_oracle(self, monkeypatch, cfg, methods):
        # exact argmax over a symmetric similarity cannot cycle, so hand NN
        # tables stand in for the matcher: half the lattice maps back to
        # itself, the rest follows random links that wander, cycle or exhaust.
        # Every cube here contains its point's ball, so only the ball seeds
        # and the centre are stepped; corner seeds whose paths end inside the
        # ball must not add or lose a fixed point
        rng = np.random.default_rng(60)
        a = make_set(rng, dims=(6, 6, 6))
        b = make_set(rng, dims=(6, 6, 6))
        n = a.geometry.n_voxels
        fwd = rng.permutation(n)
        back = rng.integers(0, n, n)
        keep = rng.random(n) < 0.5
        back[fwd[keep]] = np.flatnonzero(keep)

        def table_nn(self, pts):
            ijk = np.rint(np.asarray(pts, dtype=np.float64).reshape(-1, 3) / 2.0).astype(np.int64)
            flat = fwd[self.a.geometry.flat_index(ijk)]
            return self.b.geometry.index_points(flat) * 2.0, flat / n

        def table_lattice_nn(self, from_set, flat):
            return (fwd if from_set is self.a else back)[flat]

        def no_search(self, from_set, v):
            raise AssertionError("an NN lookup went around the tables")

        monkeypatch.setattr(_PairMatcher, "nn_a_to_b", table_nn)
        monkeypatch.setattr(_PairMatcher, "lattice_nn", table_lattice_nn)
        monkeypatch.setattr(_PairMatcher, "_search", no_search)
        pts = lattice_points((6, 6, 6), 1)
        got = grid_match(pts, a, b, W, cfg)
        assert got == oracle_grid(pts, a, b, W, cfg)
        assert {r.method for r in got} == methods
        assert max(r.n_fix for r in got) == cfg.max_iter

    def test_off_lattice_points_equal_oracle(self):
        # the first three points are off the lattice yet their balls lie in
        # their cubes, so their one-step ball seeds sit at distances that are
        # not whole numbers; the last point's ball leaves its cube
        cfg = FixpointConfig()
        pts = [(8.3, 7.6, 8.2), (7.1, 9.4, 6.0), (5.5, 8.0, 8.9), (1.0, 1.0, 1.0)]
        for a, b, _ in equivalence_cases()[2:]:
            assert grid_match(pts, a, b, W, cfg) == oracle_grid(pts, a, b, W, cfg)

    def test_tiny_tau_falls_back_to_nn_everywhere(self):
        cfg = FixpointConfig(tau_dis=1e-6)
        for a, b, pts in equivalence_cases():
            got = grid_match(pts, a, b, W, cfg)
            assert got == oracle_grid(pts, a, b, W, cfg)
            for p, r in zip(pts, got):
                assert r.method == "fixpoint_fallback_nn"
                assert r.n_fixed_points_used == 0
                nn = nn_match(a, p, b, W)
                assert r.point == nn.point
                assert r.similarity == nn.similarity

    def test_fixpoint_match_is_the_one_point_case(self):
        a, b, pts = equivalence_cases()[-1]
        cfg = FixpointConfig(cube_side=3, tau_dis=6.0)
        for p in pts[:6]:
            assert fixpoint_match(p, a, b, W, cfg) == grid_match([p], a, b, W, cfg)[0]

    def test_out_of_bounds_fixpoint_match_raises(self):
        a, b, _ = equivalence_cases()[0]
        with pytest.raises(OutOfBounds):
            fixpoint_match((90.0, 0.0, 0.0), a, b, W, FixpointConfig())


class TestHeadWidths:
    def test_head_with_different_widths_in_template_and_query(self):
        # e.g. 11-wide frame vectors against 128-wide embeddings read from files
        rng = np.random.default_rng(40)
        a, b = make_set(rng, d=4), make_set(rng, d=6)
        with pytest.raises(DimensionMismatch, match="'coarse' has 4 channels"):
            grid_match([(2.0, 2.0, 2.0)], a, b, W)


    def test_weighted_head_that_one_side_lacks(self):
        rng = np.random.default_rng(41)
        a, b = make_set(rng), make_set(rng)
        a.semantic = a.fine
        with pytest.raises(DimensionMismatch, match="missing head 'semantic'"):
            grid_match([(2.0, 2.0, 2.0)], a, b, SimilarityWeights(0.4, 0.4, 0.2))


class TestEmbeddingSetChecks:
    def test_heads_of_different_geometry(self):
        a = make_set(np.random.default_rng(42))
        other = EmbeddingVolume(VolumeGeometry((6, 6, 6), spacing=(2.0, 2.0, 2.0)), a.fine.data)
        with pytest.raises(DimensionMismatch, match="share one geometry"):
            EmbeddingSet(coarse=a.coarse, fine=other)


class TestMatcherWorkCount:
    """Counts matcher builds, NN rows, similarity passes and template
    samplings, so a return to per-point rebuilding, per-point NN lookups,
    per-point finishing or per-chunk sampling fails without timing anything."""

    @staticmethod
    def counting(monkeypatch):
        """Counts matchers and forward rows; asserts that every engine search
        comes from a point or a lattice lookup, so the counts see them all."""
        counts = {"matchers": 0, "fwd_rows": 0, "fwd_distinct": set(), "lookups": 0}
        init, point_nn, lattice_nn, search = (
            _PairMatcher.__init__, _PairMatcher.nn_a_to_b, _PairMatcher.lattice_nn, _PairMatcher._search
        )

        def counted_init(self, *args, **kwargs):
            counts["matchers"] += 1
            init(self, *args, **kwargs)

        def forward(rows):
            counts["fwd_rows"] += len(rows)
            counts["fwd_distinct"].update(map(tuple, rows))

        def counted_point_nn(self, pts):
            forward(np.asarray(pts, dtype=np.float64).reshape(-1, 3))
            counts["lookups"] += 1
            return point_nn(self, pts)

        def counted_lattice_nn(self, from_set, flat):
            if from_set is self.a:
                forward(_lattice_points(self.a, flat))
            counts["lookups"] += 1
            return lattice_nn(self, from_set, flat)

        def counted_search(self, from_set, v):
            assert counts["lookups"] > 0
            counts["lookups"] -= 1
            return search(self, from_set, v)

        monkeypatch.setattr(_PairMatcher, "__init__", counted_init)
        monkeypatch.setattr(_PairMatcher, "nn_a_to_b", counted_point_nn)
        monkeypatch.setattr(_PairMatcher, "lattice_nn", counted_lattice_nn)
        monkeypatch.setattr(_PairMatcher, "_search", counted_search)
        return counts

    @pytest.mark.parametrize("case", range(5))
    def test_one_matcher_and_no_repeated_forward_rows(self, monkeypatch, case):
        a, b, pts = equivalence_cases()[case]
        cfg = FixpointConfig()
        counts = self.counting(monkeypatch)
        oracle = oracle_grid(pts, a, b, W, cfg)
        assert counts["matchers"] == len(pts)
        distinct = len(counts["fwd_distinct"])
        counts.update(matchers=0, fwd_rows=0)

        got = grid_match(pts, a, b, W, cfg)
        assert got == oracle
        assert counts["matchers"] == 1
        n_fallback = sum(r.method == "fixpoint_fallback_nn" for r in got)
        # every lattice point is looked up forward at most once; the
        # fallbacks add one row each, in one lookup
        assert counts["fwd_rows"] <= distinct + n_fallback
        assert counts["lookups"] == 0

    def test_contained_ball_steps_no_other_cube_seed(self, monkeypatch):
        # an interior lattice point under the default config: its 81-seed ball
        # lies inside its 5^3 cube, so forward lookups touch the ball seeds and
        # the centre's trajectory, and none of the cube's other 44 seeds
        a, b, _ = equivalence_cases()[2]  # unrelated 8^3 pair: seeds wander
        t = (8.0, 8.0, 8.0)
        cfg = FixpointConfig()
        path, p = {t}, Point3(*t)
        for _ in range(cfg.max_iter):
            back = nn_match(b, nn_match(a, p, b, W).point, a, W).point
            if back == p:
                break
            p = back
            path.add((p.x, p.y, p.z))
        cube = {(t[0] + 2 * i, t[1] + 2 * j, t[2] + 2 * k)
                for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)}
        ball = {q for q in cube if np.linalg.norm(np.subtract(q, t)) <= cfg.tau_dis}
        assert len(ball) == 81 and len(cube - ball - path) > 0
        oracle = per_point_fixpoint(t, a, b, W, cfg)

        counts = self.counting(monkeypatch)
        assert grid_match([t], a, b, W, cfg) == [oracle]
        assert ball <= counts["fwd_distinct"]
        assert (cube - ball) & counts["fwd_distinct"] <= path

    def test_nn_grid_builds_one_matcher(self, monkeypatch):
        a, b, pts = equivalence_cases()[0]
        counts = self.counting(monkeypatch)
        grid_match(pts, a, b, W)
        assert counts["matchers"] == 1
        assert counts["fwd_rows"] == len(pts)

    @pytest.mark.parametrize("cfg", [None, FixpointConfig()], ids=["nn", "fixpoint"])
    def test_query_matrices_are_stacked_only_when_read(self, monkeypatch, cfg):
        a, b, pts = equivalence_cases()[0]
        stacked = []
        stack = _PairMatcher._stack

        def counted_stack(self, s):
            stacked.append("a" if s is a else "b")
            return stack(self, s)

        monkeypatch.setattr(_PairMatcher, "_stack", counted_stack)
        grid_match(pts, a, b, W, cfg)
        assert stacked == (["b"] if cfg is None else ["b", "a"])

    @pytest.mark.parametrize("case,cfg,kind", [
        (0, FixpointConfig(), "fitted"),
        (1, FixpointConfig(cube_side=3, tau_dis=6.0), "mixed"),
        (2, FixpointConfig(cube_side=3, tau_dis=6.0), "mixed"),
        (3, FixpointConfig(tau_dis=1e-6), "fallback"),
    ], ids=["all-fitted", "mixed-7x5x6", "mixed-8x8x8", "all-fallback"])
    def test_one_similarity_pass_and_one_lookup_for_the_fallbacks(self, monkeypatch, case, cfg, kind):
        a, b, pts = equivalence_cases()[case]
        sim_rows, finish_rows, converged = [], [], []
        sim, point_nn, lattice_nn = (
            _PairMatcher.similarity_between, _PairMatcher.nn_a_to_b, _PairMatcher.lattice_nn
        )
        converge = matching._converge_cubes

        def counted_sim(self, pts_a, pts_b):
            sim_rows.append(len(np.asarray(pts_a).reshape(-1, 3)))
            return sim(self, pts_a, pts_b)

        def counted_point_nn(self, pts):
            assert converged  # the cubes look up lattice points only
            finish_rows.append(len(np.asarray(pts).reshape(-1, 3)))
            return point_nn(self, pts)

        def counted_lattice_nn(self, from_set, flat):
            assert not converged  # the finish looks up template points only
            return lattice_nn(self, from_set, flat)

        def counted_converge(*args):
            out = converge(*args)
            converged.append(True)
            return out

        monkeypatch.setattr(_PairMatcher, "similarity_between", counted_sim)
        monkeypatch.setattr(_PairMatcher, "nn_a_to_b", counted_point_nn)
        monkeypatch.setattr(_PairMatcher, "lattice_nn", counted_lattice_nn)
        monkeypatch.setattr(matching, "_converge_cubes", counted_converge)
        got = grid_match(pts, a, b, W, cfg)
        n_fit = sum(r.method == "fixpoint" for r in got)
        n_fallback = sum(r.method == "fixpoint_fallback_nn" for r in got)
        assert (n_fit > 1, n_fallback > 0) == {
            "fitted": (True, False), "mixed": (True, True), "fallback": (False, True)
        }[kind]
        assert sim_rows == [n_fit]  # one pass, however many points were fitted
        assert finish_rows == ([n_fallback] if n_fallback else [])

    def test_each_lookup_samples_or_gathers_its_vectors_once(self, monkeypatch):
        # point lookups sample template vectors, lattice lookups gather them
        # from the table, and either hands all its rows to one engine search
        rng = np.random.default_rng(40)
        a = make_set(rng, dims=(7, 7, 7))
        b = make_set(rng, dims=(7, 6, 5))
        pts = lattice_points((7, 7, 7))
        assert len(pts) > 2 * _NN_CHUNK
        calls = []
        search, tv, lv = _PairMatcher._search, _PairMatcher.template_vectors, _PairMatcher.lattice_vectors

        def counted_search(self, from_set, v):
            calls.append(("search", len(v)))
            return search(self, from_set, v)

        def counted_tv(self, s, pts):
            calls.append(("sample", len(np.asarray(pts).reshape(-1, 3))))
            return tv(self, s, pts)

        def counted_lv(self, s, flat):
            calls.append(("gather", len(flat)))
            return lv(self, s, flat)

        monkeypatch.setattr(_PairMatcher, "_search", counted_search)
        monkeypatch.setattr(_PairMatcher, "template_vectors", counted_tv)
        monkeypatch.setattr(_PairMatcher, "lattice_vectors", counted_lv)
        grid_match(pts, a, b, W)
        assert calls == [("sample", len(pts)), ("search", len(pts))]
        calls.clear()
        grid_match(pts, a, b, W, FixpointConfig())
        assert calls[0::2] == [("gather", n) for _, n in calls[1::2]]
        assert max(n for _, n in calls) > _NN_CHUNK


class TestNNChunking:
    def test_batched_nn_across_chunks_equals_per_point(self):
        rng = np.random.default_rng(40)
        a = make_set(rng, dims=(7, 7, 7))
        b = make_set(rng, dims=(7, 6, 5))
        pts = lattice_points((7, 7, 7))
        assert len(pts) > 2 * _NN_CHUNK
        got = grid_match(pts, a, b, W)
        for p, r in zip(pts, got):
            want = nn_match(a, p, b, W)
            assert r.point == want.point
            assert r.method == "nn"
            assert abs(r.similarity - want.similarity) <= 1e-12

    def test_constant_embedding_ties_break_to_smallest_zyx_in_every_chunk(self):
        g = VolumeGeometry((7, 7, 7))
        v = np.zeros((7, 7, 7, 3))
        v[..., 1] = 1.0
        vol = EmbeddingVolume(g, v)
        s = EmbeddingSet(coarse=vol, fine=vol)
        pts = lattice_points((7, 7, 7))
        assert len(pts) > _NN_CHUNK
        for r in grid_match(pts, s, s, W):
            assert r.point == Point3(0.0, 0.0, 0.0)

    def test_planted_tie_breaks_to_smallest_zyx_across_chunk_boundary(self):
        rng = np.random.default_rng(41)
        a = make_set(rng, dims=(7, 7, 7))
        b = make_set(rng, dims=(7, 7, 7))
        # plant the template vector of half voxel (1, 2, 3) at two query voxels
        tv_f = a.fine.data[3, 2, 1].copy()
        tv_c = a.coarse.data[3, 2, 1].copy()
        fine, coarse = b.fine.data.copy(), b.coarse.data.copy()
        for iz, iy, ix in ((5, 1, 4), (2, 6, 0)):
            fine[iz, iy, ix] = tv_f
            coarse[iz, iy, ix] = tv_c
        b = EmbeddingSet(
            coarse=EmbeddingVolume(b.coarse.geometry, coarse),
            fine=EmbeddingVolume(b.fine.geometry, fine),
        )
        t = (2.0, 4.0, 6.0)
        pts = [(0.0, 0.0, 0.0)] * (_NN_CHUNK - 1) + [t, t] + [(2.0, 2.0, 2.0)] * 3
        got = grid_match(pts, a, b, W)
        for k in (_NN_CHUNK - 1, _NN_CHUNK):  # last row of chunk 0, first of chunk 1
            assert got[k].point == Point3(0.0, 12.0, 4.0)  # (z, y, x) = (2, 6, 0) wins
            assert abs(got[k].similarity - 1.0) < 1e-6


def dense_canonical_nn(self, from_set, v):
    """Oracle for ``_PairMatcher._search``: the canonical similarity of each
    template vector with every query voxel (float64 products added left to
    right in channel order), and its first maximum."""
    q = (self.q_b if from_set is self.a else self.q_a).astype(np.float64)
    flat = np.empty(len(v), dtype=np.int64)
    best = np.empty(len(v), dtype=np.float64)
    for lo in range(0, len(v), 64):
        rows = v[lo:lo + 64]
        sims = rows[:, :1] * q[:, 0]
        for k in range(1, q.shape[1]):
            sims = sims + rows[:, k:k + 1] * q[:, k]
        idx = np.argmax(sims, axis=1)
        flat[lo:lo + len(idx)] = idx
        best[lo:lo + len(idx)] = sims[np.arange(len(idx)), idx]
    return flat, best


def edge_set(rng, dims, basis, d):
    """Normalized set whose voxel rows are ``basis`` rows at norms 1 +- 0.99e-4
    (the edge of the unit check), half of them moved by one float32 ulp in
    one channel: dense near-ties, in float32 and in the canonical sum."""
    heads = {}
    for name in ("coarse", "fine"):
        n = int(np.prod(dims))
        rows = basis[rng.integers(0, len(basis), n)] * np.where(rng.random(n) < 0.5, 1 + 0.99e-4, 1 - 0.99e-4)[:, None]
        rows = rows.astype(np.float32)
        moved = rng.random(n) < 0.5
        ch = rng.integers(0, d, n)
        rows[moved, ch[moved]] = np.nextafter(rows[moved, ch[moved]], np.float32(np.inf))
        nx, ny, nz = dims
        heads[name] = EmbeddingVolume(VolumeGeometry(dims), rows.reshape(nz, ny, nx, d))
    return EmbeddingSet(**heads)


class TestCanonicalEngine:
    """The float32 screen with its exact re-rank against the dense canonical
    oracle, bit for bit, at block and chunk sizes that split every product."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(42)
        out = [(make_set(rng, dims=(8, 7, 7)), make_set(rng, dims=(8, 8, 5)))]  # 392 and 320 voxels
        basis = rng.normal(size=(3, 4))  # exact ties everywhere
        out.append((make_set(rng, data=basis[rng.integers(0, 3, size=(5, 7, 7))], dims=(7, 7, 5)),
                    make_set(rng, data=basis[rng.integers(0, 3, size=(7, 3, 5))], dims=(5, 3, 7))))
        basis = unit_rows(rng.normal(size=(6, 4)))[0]
        out.append((edge_set(rng, (7, 7, 7), basis, 4), edge_set(rng, (5, 6, 7), basis, 4)))
        return out

    def test_lattice_vectors_equal_trilinear_samples_bit_for_bit(self):
        # every lattice point, the last one on each axis and a 1-wide axis
        # included, and rows holding -0.0, which the sample's sum makes 0.0
        rng = np.random.default_rng(49)
        for nx, ny, nz in ((7, 5, 6), (4, 1, 3)):
            data = rng.normal(size=(nz, ny, nx, 4))
            data[..., 1][data[..., 1] < 0.2] = -0.0
            s = make_set(rng, dims=(nx, ny, nz), data=data)
            assert np.signbit(s.fine.data[..., 1]).any()
            matcher = _PairMatcher(s, s, W)
            flat = np.arange(s.geometry.n_voxels)
            got = matcher.lattice_vectors(s, flat)
            assert got.tobytes() == matcher.template_vectors(s, _lattice_points(s, flat)).tobytes()
            assert not np.signbit(got[:, 4 + 1]).any()

    @pytest.mark.parametrize("dims", [(16, 16, 16), (32, 32, 32), (64, 64, 64), (24, 24, 24)])
    def test_screen_tile_rows_are_padded_off_the_4k_stride(self, monkeypatch, dims):
        # 4096, 32768 and 262144 query rows at the default chunk and block:
        # unpadded, a chunk's products would sit in rows 16 or 32 KB apart;
        # 13824 rows end on a narrower block, whose stale columns are reset
        rng = np.random.default_rng(45)
        a = make_set(rng, dims=(6, 6, 6), d=2)
        b = make_set(rng, dims=dims, d=2)
        tiles, blocks = [], []
        screen, products = matching._screen, matching._products

        def watched_screen(v32, q, width, tile):
            tiles.append((width, tile))
            return screen(v32, q, width, tile)

        def watched_products(v32, q, width, tile):
            for c0, sims in products(v32, q, width, tile):
                if tile is tiles[0][1]:  # the screen's, not a rescan's
                    blocks.append(min(width, len(q) - c0))
                    assert (sims[:, blocks[-1]:] == -np.inf).all()
                yield c0, sims

        monkeypatch.setattr(matching, "_screen", watched_screen)
        monkeypatch.setattr(matching, "_products", watched_products)
        matcher = _PairMatcher(a, b, W)
        v = matcher.lattice_vectors(a, np.arange(_NN_CHUNK + 2))
        assert matcher._search(a, v)[0].tobytes() == dense_canonical_nn(matcher, a, v)[0].tobytes()
        assert len(tiles) == 2  # two chunks, one tile
        for width, tile in tiles:
            assert tile is tiles[0][1]
            assert width == min(b.geometry.n_voxels, matching._NN_BLOCK // _NN_CHUNK)
            assert tile.shape[1] > width
            assert tile.strides[0] % 4096 != 0
        assert (min(blocks) < tiles[0][0]) == (dims == (24, 24, 24))

    @pytest.mark.parametrize("block,chunk", [(2**20, 128), (96 * 128, 128), (64, 128), (100, 7)])
    def test_equals_dense_oracle_at_any_block_and_chunk(self, monkeypatch, block, chunk):
        # none of the grids is a multiple of 8, 7 or a block width
        monkeypatch.setattr(matching, "_NN_BLOCK", block)
        monkeypatch.setattr(matching, "_NN_CHUNK", chunk)
        rescans = []
        rescan = matching._rescan
        monkeypatch.setattr(matching, "_rescan", lambda *args: rescans.append(1) or rescan(*args))
        for a, b in self.cases():
            matcher = _PairMatcher(a, b, W)
            for from_set in (a, b):
                flat = np.arange(from_set.geometry.n_voxels)
                for v in (matcher.lattice_vectors(from_set, flat),
                          matcher.template_vectors(from_set, _lattice_points(from_set, flat) + 0.5)[:40]):
                    got = matcher._search(from_set, v)
                    want = dense_canonical_nn(matcher, from_set, v)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
        assert rescans  # the tied and edge cases reach the re-rank

    @pytest.mark.parametrize("block", [2**20, 8, 1])
    @pytest.mark.parametrize("later_wins", [True, False])
    def test_planted_near_tie(self, monkeypatch, block, later_wins):
        # channel values whose float32 products are exact: the two planted
        # rows score the same in float32 in any summation order, while their
        # canonical sums are one ulp apart (or equal, when the rows are)
        monkeypatch.setattr(matching, "_NN_BLOCK", block)
        alpha, beta = 0.6, np.nextafter(0.6, 1.0)
        v = np.array([[alpha, beta, 0.0, 0.0]])
        third = np.sqrt(1.0 - 0.5**2 - 0.25**2)
        low, high = [0.5, 0.25, third, 0.0], [0.25, 0.5, third, 0.0]
        assert np.float32(alpha) == np.float32(beta)
        canon = [alpha * r[0] + beta * r[1] for r in (low, high)]
        assert canon[1] == np.nextafter(canon[0], 2.0)
        dims = (5, 4, 3)
        rows = np.zeros((60, 4), dtype=np.float32)
        rows[:, 3] = 1.0  # every other voxel scores 0
        rows[17] = low
        rows[42] = high if later_wins else low
        fine = EmbeddingVolume(VolumeGeometry(dims), rows.reshape(3, 4, 5, 4))
        a = make_set(np.random.default_rng(1), dims=dims)
        b = EmbeddingSet(coarse=fine, fine=fine)
        matcher = _PairMatcher(a, b, W_FINE)
        flat, best = matcher._search(a, np.repeat(v, 3, axis=0))
        assert list(flat) == [42 if later_wins else 17] * 3
        assert list(best) == [canon[1] if later_wins else canon[0]] * 3
        assert flat.tobytes() == dense_canonical_nn(matcher, a, np.repeat(v, 3, axis=0))[0].tobytes()

    def test_similarity_map_argmax_equals_nn_match(self):
        rng = np.random.default_rng(46)
        a = make_set(rng, dims=(6, 5, 7))
        b = make_set(rng, dims=(7, 6, 5))
        for t in [(0.0, 0.0, 0.0), (4.0, 6.0, 2.0), (3.3, 5.1, 7.9), (10.0, 8.0, 12.0)]:
            smap = similarity_map(a, t, b, W)
            nn = nn_match(a, t, b, W)
            iz, iy, ix = np.unravel_index(int(np.argmax(smap.data)), smap.data.shape)
            assert (2.0 * ix, 2.0 * iy, 2.0 * iz) == (nn.point.x, nn.point.y, nn.point.z)
            assert smap.data[iz, iy, ix] == np.float32(nn.similarity)

    @pytest.mark.parametrize("n_points", [1, 2])
    def test_tie_across_a_column_block_boundary_keeps_the_smaller_zyx(self, monkeypatch, n_points):
        rng = np.random.default_rng(43)
        a = make_set(rng, dims=(7, 7, 7))
        b = make_set(rng, dims=(8, 8, 5))
        # 64 screen columns per block for one point, 32 for two, and one per
        # rescan block: query voxels 63 (z, y, x) = (0, 7, 7) and 64 (1, 0, 0)
        # sit in different blocks
        monkeypatch.setattr(matching, "_NN_BLOCK", 64)
        fine, coarse = b.fine.data.copy(), b.coarse.data.copy()
        for iz, iy, ix in ((0, 7, 7), (1, 0, 0)):
            fine[iz, iy, ix] = a.fine.data[3, 2, 1]
            coarse[iz, iy, ix] = a.coarse.data[3, 2, 1]
        b = EmbeddingSet(
            coarse=EmbeddingVolume(b.coarse.geometry, coarse),
            fine=EmbeddingVolume(b.fine.geometry, fine),
        )
        got = grid_match([(2.0, 4.0, 6.0)] * n_points, a, b, W)
        for r in got:
            assert r.point == Point3(14.0, 14.0, 0.0)
            assert abs(r.similarity - 1.0) < 1e-6

    @pytest.mark.parametrize("matcher", ["nn", "fixpoint"])
    def test_register_and_crop_equals_dense_oracle(self, monkeypatch, matcher):
        pair = gen_pair(
            PhantomSpec(dims=(64, 64, 64), seed=66),
            rigid_about(rotation_matrix((0.3, 1.0, -0.2), np.deg2rad(7.0)), (31.5,) * 3, (3.0, -5.0, 2.0)),
            "inverted",
        )
        fixed, moving = resample(pair.volume_b, 2.0), resample(pair.volume_a, 2.0)
        mdl = new_model(np.random.default_rng(3))
        cfg = AlignConfig(grid_spacing=3, similarity_floor=0.4, body_threshold=0.18, matcher=matcher)
        with monkeypatch.context() as m:
            m.setattr(_PairMatcher, "_search", dense_canonical_nn)
            want = register_and_crop(fixed, moving, mdl, cfg, 5)
        monkeypatch.setattr(matching, "_NN_BLOCK", 2**14)  # a 128-row chunk takes 128 columns
        got = register_and_crop(fixed, moving, mdl, cfg, 5)
        assert got.rigid.rotation.tobytes() == want.rigid.rotation.tobytes()
        assert got.rigid.translation.tobytes() == want.rigid.translation.tobytes()
        assert got.provenance == want.provenance
        assert got.fixed_crop.geometry == want.fixed_crop.geometry
        assert got.fixed_crop.data.tobytes() == want.fixed_crop.data.tobytes()


class TestNNMemory:
    def test_nn_grid_match_peak_stays_within_the_block_budget(self):
        # 1331 points against a 32^3 x 22 query grid: one 128-row chunk over the
        # whole grid was 33.5 MB, and stacking the unused template matrix 5.8 MB
        rng = np.random.default_rng(44)
        dims = (32, 32, 32)
        a, b = make_set(rng, dims=dims, d=11), make_set(rng, dims=dims, d=11)
        pts = [(x, y, z) for x in range(0, 64, 6) for y in range(0, 64, 6) for z in range(0, 64, 6)]
        assert len(pts) == 1331
        tracemalloc.start()
        try:
            grid_match(pts, a, b, W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_all_equal_query_rescans_within_the_block_budget(self):
        # every query voxel ties every other, in float32 and in the canonical
        # sum, so every row is rescanned over all 32^3 candidates
        rng = np.random.default_rng(47)
        dims = (32, 32, 32)
        a = make_set(rng, dims=dims, d=11)
        e1 = np.zeros((32, 32, 32, 11), dtype=np.float32)
        e1[..., 0] = 1.0
        vol = EmbeddingVolume(VolumeGeometry(dims), e1)
        b = EmbeddingSet(coarse=vol, fine=vol)
        pts = [tuple(p) for p in rng.uniform(0.0, 62.0, size=(_NN_CHUNK + 3, 3))]
        tracemalloc.start()
        try:
            got = grid_match(pts, a, b, W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        matcher = _PairMatcher(a, b, W)
        flat, best = dense_canonical_nn(matcher, a, matcher.template_vectors(a, pts))
        assert not flat.any()
        assert [r.point for r in got] == [Point3(0.0, 0.0, 0.0)] * len(pts)
        assert [r.similarity for r in got] == list(best)

    def test_similarity_map_peak_below_the_float64_query_matrix(self):
        # the map once stacked the 32^3 x 22 query as a float64 matrix
        rng = np.random.default_rng(48)
        dims = (32, 32, 32)
        a, b = make_set(rng, dims=(4, 4, 4), d=11), make_set(rng, dims=dims, d=11)
        tracemalloc.start()
        try:
            smap = similarity_map(a, (3.0, 2.0, 5.0), b, W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32**3 * 22 * 8
        matcher = _PairMatcher(a, b, W)
        v = matcher.template_vectors(a, [(3.0, 2.0, 5.0)])
        q = matcher.q_b.astype(np.float64)
        want = v[:, :1] * q[:, 0]
        for k in range(1, q.shape[1]):
            want = want + v[:, k:k + 1] * q[:, k]
        assert smap.data.tobytes() == want[0].astype(np.float32).tobytes()
