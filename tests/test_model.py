"""Tests for the descriptor bank, projection model, batch sampling, and training."""

import io
import math
import struct
import zlib

import numpy as np
import pytest
from scipy import ndimage

from voxelmatch import model as model_mod
from voxelmatch.alignment import AlignConfig, register_and_crop
from voxelmatch.augment import AugmentSpec, sample_patch_pair
from voxelmatch.errors import (
    BadMagic,
    ChecksumMismatch,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    InsufficientOverlap,
    NonFiniteWeights,
    TruncatedFile,
)
from voxelmatch.geometry import rigid_about, rotation_matrix
from voxelmatch.losses import PairBatch, appearance_infonce, crossmod_infonce, proto_supcon
from voxelmatch.matching import EmbeddingSet, FixpointConfig, SimilarityWeights, grid_match
from voxelmatch.model import (
    BOX_WIDTHS,
    CHANNEL_SCALES,
    FEATURE_DIM,
    SIGMAS,
    DescriptorBank,
    ProjectionModel,
    TrainConfig,
    _band,
    _gauss_deriv_kernel,
    _gauss_kernel,
    _gauss_second_kernel,
    _sample_side,
    embed,
    load_model,
    new_model,
    sample_training_batch,
    save_model,
    train,
)
from voxelmatch.phantom import PhantomSpec, gen_pair, gen_phantom
from voxelmatch.volume import ScalarVolume, VolumeGeometry, half_geometry, resample, unit_rows

BANK = DescriptorBank()


def full_resolution_bank(data):
    """Reference bank: every response at full resolution, then sampled at [::2, ::2, ::2]."""
    data = data.astype(np.float64)

    def separable(kx, ky, kz):
        out = ndimage.correlate1d(data, kx, axis=2, mode="nearest")
        out = ndimage.correlate1d(out, ky, axis=1, mode="nearest")
        return ndimage.correlate1d(out, kz, axis=0, mode="nearest")

    g2, d2 = _gauss_kernel(2.0), _gauss_deriv_kernel(2.0)
    channels = [separable(d2, g2, g2), separable(g2, d2, g2), separable(g2, g2, d2)]
    for s in (1.0, 2.0, 4.0):
        g, d = _gauss_kernel(s), _gauss_deriv_kernel(s)
        cx, cy, cz = separable(d, g, g), separable(g, d, g), separable(g, g, d)
        channels.append(np.sqrt(cx * cx + cy * cy + cz * cz))
    for s in (1.0, 2.0, 4.0):
        g, l2 = _gauss_kernel(s), _gauss_second_kernel(s)
        channels.append(separable(l2, g, g) + separable(g, l2, g) + separable(g, g, l2))
    for size in (5, 9):
        mean = ndimage.uniform_filter(data, size=size, mode="nearest")
        sq = ndimage.uniform_filter(data * data, size=size, mode="nearest")
        channels.append(np.sqrt(np.clip(sq - mean * mean, 0.0, None)))
    return np.stack(channels, axis=-1)[::2, ::2, ::2, :] / np.asarray(CHANNEL_SCALES)


def assert_matches_oracle(feats, expected):
    """The bank against ``full_resolution_bank``, in scaled units.

    The banded products sum in another order than ``correlate1d`` and
    ``uniform_filter``: the gradient and Laplacian channels move by up to
    ~5e-15 and the box channels by up to ~1.4e-12 on these volumes.  A wrong
    tap, axis, stride offset or border fold moves values by 1e-3 or more.
    """
    err = np.abs(feats - expected)
    assert err[..., :9].max() <= 1e-12
    assert err[..., 9:].max() <= 1e-9


def scalar(rng, dims=(16, 16, 16), spacing=2.0):
    return ScalarVolume(
        VolumeGeometry(dims, (spacing,) * 3),
        rng.uniform(0, 1, size=(dims[2], dims[1], dims[0])).astype(np.float32),
    )


class TestDescriptorBank:
    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (2, 3, 5), (7, 9, 11), (16, 10, 12), (17, 40, 23)],
        ids=lambda d: "x".join(map(str, d)),
    )
    def test_bitwise_equal_to_full_resolution_oracle(self, dims):
        # equal up to the rounding of the banded products (see
        # assert_matches_oracle); the name predates those products
        vol = scalar(np.random.default_rng(sum(dims)), dims)
        feats, geom = BANK.compute(vol)
        expected = full_resolution_bank(vol.data)
        assert feats.shape == expected.shape == (*geom.shape_zyx, FEATURE_DIM)
        assert_matches_oracle(feats, expected)

    def test_bitwise_equal_to_full_resolution_oracle_on_phantom(self):
        vol = gen_phantom(PhantomSpec(dims=(48, 48, 48), seed=62))[0]
        assert_matches_oracle(BANK.compute(vol)[0], full_resolution_bank(vol.data))

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_band_rows_are_strided_impulse_responses(self, n, step):
        # column j of the correlated identity is the response to the unit
        # impulse at j; B's row i is that response sampled at step * i
        kernels = [
            f(s) for s in SIGMAS for f in (_gauss_kernel, _gauss_deriv_kernel, _gauss_second_kernel)
        ] + [np.full(w, 1.0 / w) for w in BOX_WIDTHS]
        for k in kernels:
            band = _band(tuple(k), n, step)
            impulses = ndimage.correlate1d(np.eye(n), k, axis=0, mode="nearest")
            assert band.shape == ((n + step - 1) // step, n)
            # a border column sums its folded taps in another order: 1 ulp
            np.testing.assert_allclose(band, impulses[::step], rtol=0, atol=1e-15)
            assert not band.flags.writeable

    def test_constant_volume_of_large_value_is_zero(self):
        # the box means run on centred data; uncentred, their rounding leaves
        # ~4e-5 in the std channels of this volume
        vol = ScalarVolume(VolumeGeometry((16, 14, 12)), np.full((12, 14, 16), 100.0, np.float32))
        assert np.abs(BANK.compute(vol)[0]).max() <= 1e-9

    def test_constant_volume_zeroes_derivative_channels(self):
        vol = ScalarVolume(VolumeGeometry((12, 12, 12)), np.full((12, 12, 12), 0.6, np.float32))
        feats, geom = BANK.compute(vol)
        assert geom.dims == (6, 6, 6)
        # every channel is a derivative or a spread of the intensities
        np.testing.assert_allclose(feats, 0.0, atol=1e-9)

    def test_impulse_response_equals_analytic_kernels(self):
        # response of a centered impulse is the (separable) analytic kernel,
        # undone through the bank's fixed channel scales
        n = 33
        data = np.zeros((n, n, n), np.float32)
        data[16, 16, 16] = 1.0
        vol = ScalarVolume(VolumeGeometry((n, n, n)), data)
        feats, _ = BANK.compute(vol)
        raw = feats * np.asarray(CHANNEL_SCALES)
        g1 = _gauss_kernel(1.0)
        d1 = _gauss_deriv_kernel(1.0)
        r = len(g1) // 2
        # channel 3: gradient magnitude at sigma 1; probe a few offsets on the
        # stride-2 grid around the impulse (half-res voxel 8 = full-res 16);
        # correlation indexing: the response d voxels past the impulse is k[r - d]
        for dz, dy, dx in [(0, 0, 0), (1, 0, 0), (0, 1, 1)]:
            sx, sy, sz = g1[r - 2 * dx], g1[r - 2 * dy], g1[r - 2 * dz]
            cx = d1[r - 2 * dx] * sy * sz
            cy = sx * d1[r - 2 * dy] * sz
            cz = sx * sy * d1[r - 2 * dz]
            expected = math.sqrt(cx * cx + cy * cy + cz * cz)
            assert abs(raw[8 + dz, 8 + dy, 8 + dx, 3] - expected) < 1e-12
        # channel 0: x gradient at sigma 2
        dg = _gauss_deriv_kernel(2.0)
        g0 = _gauss_kernel(2.0)
        r2 = len(g0) // 2
        expected = dg[r2 - 2] * g0[r2] * g0[r2]  # two full-res voxels past the impulse
        assert abs(raw[8, 8, 9, 0] - expected) < 1e-12
        # channel 7: Laplacian at sigma 2 (sum of three second-derivative terms)
        l2 = _gauss_second_kernel(2.0)
        g2 = _gauss_kernel(2.0)
        rc = len(g2) // 2
        expected = l2[rc] * g2[rc] * g2[rc] * 3.0
        assert abs(raw[8, 8, 8, 7] - expected) < 1e-12

    def test_stride_two_shift_equivariance(self):
        rng = np.random.default_rng(0)
        n = 44
        base = rng.uniform(0, 1, size=(n, n, n)).astype(np.float32)
        shifted = np.roll(base, 2, axis=2)
        f_base, _ = BANK.compute(ScalarVolume(VolumeGeometry((n, n, n)), base))
        f_shift, _ = BANK.compute(ScalarVolume(VolumeGeometry((n, n, n)), shifted))
        # deep-interior half-res voxels: the sigma-4 kernels reach 12 voxels,
        # so stay at least 16 full-res voxels from every border
        np.testing.assert_allclose(
            f_shift[9:13, 9:13, 10:14], f_base[9:13, 9:13, 9:13], atol=1e-9
        )

    def test_feature_dim(self):
        assert FEATURE_DIM == 11
        vol = ScalarVolume(VolumeGeometry((8, 8, 8)), np.zeros((8, 8, 8), np.float32))
        feats, _ = BANK.compute(vol)
        assert feats.shape == (4, 4, 4, 11)


class OracleBank:
    def compute(self, vol):
        return full_resolution_bank(vol.data), half_geometry(vol.geometry)


def oracle_smooth_coarse(feats, sigma=4.0):
    for axis in (0, 1, 2):
        feats = ndimage.correlate1d(feats, _gauss_kernel(sigma), axis=axis, mode="nearest")
    return feats


class TestBankMatchingEquivalence:
    """Matches from banded-product embeddings equal those from the scipy oracle's."""

    @pytest.mark.parametrize("cfg", [None, FixpointConfig()], ids=["nn", "fixpoint"])
    @pytest.mark.parametrize("seed,remap", [(62, "identity"), (66, "gamma")])
    def test_grid_match_equals_oracle_bank(self, monkeypatch, cfg, seed, remap):
        rng = np.random.default_rng(seed)
        rot = rotation_matrix(rng.normal(size=3), math.radians(rng.uniform(3.0, 10.0)))
        truth = rigid_about(rot, (31.5,) * 3, rng.uniform(-4.0, 4.0, size=3))
        pp = gen_pair(PhantomSpec(dims=(64,) * 3, seed=seed), truth, remap)
        moving, fixed = resample(pp.volume_a, 2.0), resample(pp.volume_b, 2.0)
        mdl = new_model(np.random.default_rng(3))
        axes = [np.arange(0, n, 3) for n in half_geometry(moving.geometry).dims]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3) * 2.0
        w = SimilarityWeights()
        got = grid_match(pts, embed(moving, mdl), embed(fixed, mdl), w, cfg)
        monkeypatch.setattr(model_mod, "_BANK", OracleBank())
        monkeypatch.setattr(model_mod, "_smooth_coarse", oracle_smooth_coarse)
        ref = grid_match(pts, embed(moving, mdl), embed(fixed, mdl), w, cfg)
        assert len(got) == len(ref) == len(pts)
        for g, r in zip(got, ref):
            assert (g.point.x, g.point.y, g.point.z) == (r.point.x, r.point.y, r.point.z)
            assert (g.method, g.n_fix, g.n_fixed_points_used) == (r.method, r.n_fix, r.n_fixed_points_used)
            assert abs(g.similarity - r.similarity) < 1e-6


class TestEmbed:
    def test_zero_weights_trigger_zero_vector_rule(self):
        rng = np.random.default_rng(1)
        vol = scalar(rng, (8, 8, 8))
        model = ProjectionModel(np.zeros((FEATURE_DIM, 8)), np.zeros((FEATURE_DIM, 8)))
        out = embed(vol, model)
        n_vox = 4 * 4 * 4
        assert out.fine.zero_substitutions == n_vox
        np.testing.assert_allclose(out.fine.data[..., 0], 1.0)
        np.testing.assert_allclose(out.fine.data[..., 1:], 0.0)

    def test_embeddings_unit_norm(self):
        rng = np.random.default_rng(2)
        vol = scalar(rng)
        model = new_model(rng)
        out = embed(vol, model)
        for head in (out.coarse, out.fine):
            norms = np.linalg.norm(head.data.reshape(-1, head.channels), axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_matches_per_voxel_matmul_oracle(self):
        rng = np.random.default_rng(3)
        vol = scalar(rng, (10, 10, 10))
        model = new_model(rng)
        out = embed(vol, model)
        fine = out.fine.data
        feats, _ = BANK.compute(vol)
        for idx in [(0, 0, 0), (2, 3, 4), (4, 4, 4)]:
            v = feats[idx] @ model.w_fine
            v = v / np.linalg.norm(v)
            np.testing.assert_allclose(fine[idx], v, atol=1e-5)

    def test_invariant_to_positive_affine_intensity_maps(self):
        # a > 0 scales every bank channel by a, which the L2 normalization
        # cancels; the remapped volume is stored as float32, so its rounding
        # (about ulp(a + |b|) / a relative) is all that may move embeddings.
        # The bound holds each entry of the 128-wide embeddings of W = M Q^T,
        # for an isometry Q^T (11 orthonormal rows of length 128)
        vol = resample(gen_phantom(PhantomSpec(dims=(64, 64, 64), seed=0))[0], 2.0)
        model = new_model(np.random.default_rng(3))
        q_t = np.linalg.qr(np.random.default_rng(0).normal(size=(128, FEATURE_DIM)))[0].T
        base = embed(vol, model)
        for a, b in [(2.0, 0.0), (0.5, 0.25), (1.0, -0.5), (3.0, 1.0)]:
            remapped = ScalarVolume(vol.geometry, a * vol.data.astype(np.float64) + b)
            out = embed(remapped, model)
            for head in ("coarse", "fine"):
                np.testing.assert_allclose(
                    getattr(out, head).data.astype(np.float64) @ q_t,
                    getattr(base, head).data.astype(np.float64) @ q_t, rtol=0, atol=1e-5,
                )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        vol = scalar(rng, (8, 8, 8))
        model = ProjectionModel(np.zeros((9, 8)), np.zeros((9, 8)))
        with pytest.raises(DimensionMismatch):
            embed(vol, model)

    def test_heads_of_different_shapes_are_rejected(self):
        # the model file stores one (F, k) for all heads
        m = np.zeros((FEATURE_DIM, FEATURE_DIM))
        for heads in [(m, m[:, :8]), (m, m, m[:, :8])]:
            with pytest.raises(DimensionMismatch):
                ProjectionModel(*heads)

    def test_semantic_head_only_when_present(self):
        rng = np.random.default_rng(5)
        vol = scalar(rng, (8, 8, 8))
        assert embed(vol, new_model(rng, with_semantic=False)).semantic is None
        assert embed(vol, new_model(rng, with_semantic=True)).semantic is not None


class TestModelFile:
    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(6)
        model = new_model(rng, with_semantic=True)
        model.round_index = 3
        buf = io.BytesIO()
        save_model(model, buf)
        raw = buf.getvalue()
        buf.seek(0)
        back = load_model(buf)
        buf2 = io.BytesIO()
        save_model(back, buf2)
        assert buf2.getvalue() == raw
        np.testing.assert_array_equal(back.w_fine, model.w_fine)
        np.testing.assert_array_equal(back.w_semantic, model.w_semantic)
        assert back.round_index == 3

    def test_bad_magic(self):
        rng = np.random.default_rng(7)
        buf = io.BytesIO()
        save_model(new_model(rng), buf)
        raw = b"NOPE" + buf.getvalue()[4:]
        with pytest.raises(BadMagic):
            load_model(io.BytesIO(raw))

    def test_truncation(self):
        rng = np.random.default_rng(8)
        buf = io.BytesIO()
        save_model(new_model(rng), buf)
        with pytest.raises(TruncatedFile):
            load_model(io.BytesIO(buf.getvalue()[:-9]))

    def test_corruption_detected(self):
        rng = np.random.default_rng(9)
        buf = io.BytesIO()
        save_model(new_model(rng), buf)
        raw = bytearray(buf.getvalue())
        raw[100] ^= 0x04
        with pytest.raises(ChecksumMismatch):
            load_model(io.BytesIO(bytes(raw)))

    def test_trained_model_round_trips_and_embeds_bit_for_bit(self):
        vol, labels, _ = gen_phantom(PhantomSpec(dims=(32, 32, 32), spacing=2.0, seed=21))
        model, _ = train(
            [(vol, labels)], small_cfg(steps=3), mode="standard",
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
        )
        assert model.w_semantic is not None
        buf = io.BytesIO()
        save_model(model, buf)
        back = load_model(io.BytesIO(buf.getvalue()))
        again = io.BytesIO()
        save_model(back, again)
        assert again.getvalue() == buf.getvalue()
        got, want = embed(vol, back), embed(vol, model)
        for head in ("coarse", "fine", "semantic"):
            assert np.array_equal(getattr(got, head).data, getattr(want, head).data)

    @staticmethod
    def version_1_file(heads, round_index=2):
        """A UAEM version 1 file: (F, D) heads W after a header with three temperatures."""
        header = struct.pack(
            "<HBBIIfffI", 1, 0b111 if len(heads) == 3 else 0b011, 0, *heads[0].shape,
            0.5, 0.5, 0.5, round_index,
        )
        payload = b"".join(np.ascontiguousarray(w, dtype="<f8").tobytes() for w in heads)
        return b"UAEM" + header + payload + struct.pack("<I", zlib.crc32(header + payload) & 0xFFFFFFFF)

    @pytest.mark.parametrize("d", [128, 8])
    def test_version_1_file_embeds_as_it_did(self, d):
        # a version 1 head W embedded as normalize(f R^T), from the thin QR W^T = Q R
        rng = np.random.default_rng(d)
        heads = [rng.normal(0.0, 0.3, (FEATURE_DIM, d)) for _ in range(3)]
        model = load_model(io.BytesIO(self.version_1_file(heads)))
        assert model.round_index == 2
        k = min(FEATURE_DIM, d)
        assert all(m.shape == (FEATURE_DIM, k) for m in (model.w_coarse, model.w_fine, model.w_semantic))
        vol = scalar(rng, (12, 12, 12))
        feats, _ = BANK.compute(vol)
        sources = {"coarse": model_mod._smooth_coarse(feats), "fine": feats, "semantic": feats}
        out = embed(vol, model)
        for head, w in zip(("coarse", "fine", "semantic"), heads):
            r_t = np.linalg.qr(w.T)[1].T
            want = unit_rows(sources[head].reshape(-1, FEATURE_DIM) @ r_t)[0].astype(np.float32)
            assert np.array_equal(getattr(out, head).data.reshape(-1, k), want)
        buf = io.BytesIO()
        save_model(model, buf)
        assert struct.unpack_from("<H", buf.getvalue(), 4)[0] == 2

    def test_version_1_file_with_non_finite_weights(self):
        heads = [np.ones((FEATURE_DIM, 128)), np.ones((FEATURE_DIM, 128))]
        heads[1][3, 7] = np.inf
        with pytest.raises(NonFiniteWeights):
            load_model(io.BytesIO(self.version_1_file(heads)))

    def test_path_io(self, tmp_path):
        rng = np.random.default_rng(10)
        model = new_model(rng)
        path = tmp_path / "model.uaem"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.w_coarse, model.w_coarse)


def small_cfg(**kw):
    base = dict(
        steps=4, learning_rate=0.05, n_pos_fine=24, n_neg_fine=24,
        n_pos_coarse=12, n_neg_coarse=12, neg_min_dist_fine=4.0,
        neg_min_dist_coarse=8.0, semantic_per_class=16, seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def phantom_working(seed, dims=(48, 48, 48)):
    vol, labels, _ = gen_phantom(PhantomSpec(dims=dims, seed=seed))
    return resample(vol, 2.0), labels


class TestSampleTrainingBatch:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.vol, _ = phantom_working(40)
        self.spec = AugmentSpec(patch_size=(20, 20, 20))
        self.pair = sample_patch_pair(self.vol, None, self.spec, seed=1)
        self.model = new_model(rng)
        self.emb_a = embed(self.pair.patch_a, self.model)
        self.emb_b = embed(self.pair.patch_b, self.model)

    def test_negative_distance_rule_holds(self):
        cfg = small_cfg(n_pos_fine=32, n_neg_fine=64)
        rng = np.random.default_rng(13)
        fine, coarse, labeled = sample_training_batch(
            self.pair, self.emb_a, self.emb_b, cfg, rng
        )
        assert labeled is None
        # reconstruct the correspondent of each anchor and audit distances
        full_a = self.emb_a.fine.geometry.index_points(fine.anchor_indices) * 2.0
        corr = self.pair.a_to_b_voxels(full_a)
        neg_full = self.emb_b.fine.geometry.index_points(fine.negative_indices) * 2.0
        d = np.linalg.norm(neg_full - corr[:, None, :], axis=2)
        assert d.min() > cfg.neg_min_dist_fine

    @pytest.mark.parametrize("use_fov", [False, True], ids=["self-supervised", "paired"])
    def test_each_batch_takes_the_temperature_of_its_loss(self, use_fov):
        # the coarse batch goes to appearance_infonce on every step; only a
        # paired step's fine batch goes to crossmod_infonce
        cfg = small_cfg(tau_cross=0.3)
        fine, coarse, _ = sample_training_batch(
            self.pair, self.emb_a, self.emb_b, cfg, np.random.default_rng(0), use_fov=use_fov
        )
        assert fine.temperature == (cfg.tau_cross if use_fov else cfg.tau_appearance)
        assert coarse.temperature == cfg.tau_appearance == 0.5

    def test_requesting_too_many_positives(self):
        cfg = small_cfg(n_pos_fine=10_000)
        with pytest.raises(InsufficientOverlap):
            sample_training_batch(
                self.pair, self.emb_a, self.emb_b, cfg, np.random.default_rng(0)
            )

    def test_labeled_batch_classes_nonempty(self):
        vol, labels = phantom_working(41)
        lab_working = None
        # labels were generated at 1 mm; regenerate at working grid by
        # nearest sampling through the label volume's own geometry
        from voxelmatch.geometry import AffineTransform
        from voxelmatch.volume import LabelVolume

        # build a working-resolution label volume via nearest lookup
        g = vol.geometry
        zz, yy, xx = np.meshgrid(
            np.arange(g.dims[2]), np.arange(g.dims[1]), np.arange(g.dims[0]), indexing="ij"
        )
        pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        src = labels.geometry.physical_to_voxel(g.voxel_to_physical(pts))
        src = np.clip(np.round(src), 0, np.asarray(labels.geometry.dims) - 1).astype(int)
        lab_working = LabelVolume(
            g, labels.data[src[:, 2], src[:, 1], src[:, 0]].reshape(g.shape_zyx)
        )
        rng = np.random.default_rng(14)
        model = new_model(rng, with_semantic=True)
        spec = AugmentSpec(patch_size=(20, 20, 20), rotation_degrees=0.0,
                           scale_range=(1.0, 1.0))
        pair = sample_patch_pair(vol, lab_working, spec, seed=3)
        emb_a = embed(pair.patch_a, model)
        emb_b = embed(pair.patch_b, model)
        fine, coarse, labeled = sample_training_batch(
            pair, emb_a, emb_b, small_cfg(), rng
        )
        assert labeled is not None
        assert all(len(b) > 0 for b in labeled.class_embeddings)
        ids = np.concatenate(labeled.class_indices)
        assert len(np.unique(ids)) == len(ids)  # no voxel repeats, within or across classes
        lab_half = pair.labels_a.data[::2, ::2, ::2].ravel()
        for idx in labeled.class_indices:
            assert len(np.unique(lab_half[idx])) == 1 and lab_half[idx[0]] > 0


def half_lattice_points(mask_full):
    """Half-grid (x, y, z) indices of the mask's voxels at even (x, y, z), as C-ordered
    (n, 3) rows in C order of the grid."""
    return np.argwhere(mask_full[::2, ::2, ::2])[:, ::-1].copy()


def per_anchor_sample_side(
    pair, emb_a_flat, emb_b_flat, n_pos, n_neg, min_dist, hard_fraction, tau, rng,
    n_fov=0, overlap_b=None,
):
    """Reference sampler: the per-anchor loop ``_sample_side`` replaced, kept verbatim
    but for the similarities it now also returns: each negative's product with
    its anchor, one per-anchor matrix-vector product."""
    half_a, half_b = half_geometry(pair.patch_a.geometry), half_geometry(pair.patch_b.geometry)
    dims_b = half_b.dims
    anchors_half = half_lattice_points(pair.overlap_a)
    if len(anchors_half) == 0:
        raise InsufficientOverlap("no overlap voxels available for anchors")
    full_a = anchors_half.astype(np.float64) * 2.0
    corr_full_b = pair.a_to_b_voxels(full_a)
    corr_half = corr_full_b / 2.0
    rounded = np.round(corr_half).astype(np.int64)
    lim_b = np.asarray(dims_b) - 1
    ok = np.all((rounded >= 0) & (rounded <= lim_b), axis=1)
    anchors_half, full_a = anchors_half[ok], full_a[ok]
    corr_full_b, rounded = corr_full_b[ok], rounded[ok]
    if len(anchors_half) < n_pos:
        raise InsufficientOverlap(
            f"only {len(anchors_half)} usable overlap voxels for {n_pos} positives"
        )
    pick = rng.choice(len(anchors_half), size=n_pos, replace=False)
    a_idx = half_a.flat_index(anchors_half[pick])
    p_idx = half_b.flat_index(rounded[pick])
    corr_sel = corr_full_b[pick]

    nxb, nyb, nzb = dims_b
    bx, by, bz = np.meshgrid(np.arange(nxb), np.arange(nyb), np.arange(nzb), indexing="ij")
    all_b = np.stack([bx.ravel(), by.ravel(), bz.ravel()], axis=1)  # (Nb, 3) xyz
    all_b_flat = half_b.flat_index(all_b)
    all_b_full = all_b.astype(np.float64) * 2.0

    n_cand = max(n_neg, int(math.ceil(n_neg / hard_fraction)))
    neg_idx = np.empty((n_pos, n_neg), dtype=np.int64)
    neg_sims = np.empty((n_pos, n_neg))
    anchors_e = emb_a_flat[a_idx]
    for i in range(n_pos):
        d2 = ((all_b_full - corr_sel[i]) ** 2).sum(axis=1)
        valid = np.nonzero(d2 > min_dist * min_dist)[0]
        if len(valid) < n_neg:
            raise InsufficientOverlap(
                f"negative pool of {len(valid)} below requested {n_neg}"
            )
        take = min(n_cand, len(valid))
        cand = valid[rng.choice(len(valid), size=take, replace=False)]
        sims = emb_b_flat[all_b_flat[cand]] @ anchors_e[i]
        order = np.argsort(-sims, kind="stable")[:n_neg]
        neg_idx[i] = all_b_flat[cand[order]]
        neg_sims[i] = sims[order]

    fov_idx = None
    fov_sims = None
    if n_fov > 0:
        if overlap_b is None:
            raise ValueError("fov negatives need the query-side overlap mask")
        outside = half_lattice_points(~overlap_b)
        if len(outside):
            flat_out = half_b.flat_index(outside)
            fov_idx = flat_out[rng.integers(0, len(flat_out), size=(n_pos, n_fov))]
            fov_sims = np.stack([emb_b_flat[row] @ anchor for row, anchor in zip(fov_idx, anchors_e)])

    return PairBatch(
        anchors=anchors_e,
        positives=emb_b_flat[p_idx],
        negative_sims=neg_sims,
        temperature=tau,
        fov_sims=fov_sims,
        anchor_indices=a_idx,
        positive_indices=p_idx,
        negative_indices=neg_idx,
        fov_indices=fov_idx,
    )


class TestSamplerOracle:
    """``_sample_side`` draws the same random numbers, picks the same voxels and
    carries bitwise the same similarities as the loop."""

    @staticmethod
    def flat_pair(patch, model, pair_seed=2, **spec):
        vol, _ = phantom_working(5, dims=(80, 80, 80))
        pair = sample_patch_pair(vol, None, AugmentSpec(patch_size=(patch,) * 3, **spec), seed=pair_seed)
        emb_a, emb_b = embed(pair.patch_a, model), embed(pair.patch_b, model)
        return pair, emb_a, emb_b

    @staticmethod
    def run_both(pair, emb_a, emb_b, head, *args, seed=21, **kwargs):
        flat = [getattr(e, head).data.reshape(-1, getattr(e, head).channels).astype(np.float64)
                for e in (emb_a, emb_b)]
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_side(pair, *flat, *args, rng=rng_new, **kwargs)
        want = per_anchor_sample_side(pair, *flat, *args, rng=rng_ref, **kwargs)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return got, want

    @staticmethod
    def assert_same(got, want):
        for name in (
            "anchors", "positives", "negative_sims", "fov_sims",
            "anchor_indices", "positive_indices", "negative_indices", "fov_indices",
        ):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.shape == b.shape and np.array_equal(a, b), name
        assert got.temperature == want.temperature

    @pytest.mark.parametrize("head,args", [
        ("fine", (200, 500, 8.0, 0.25, 0.5)),
        ("coarse", (100, 200, 16.0, 0.25, 0.5)),
    ])
    def test_default_fine_and_coarse_settings(self, head, args):
        pair, emb_a, emb_b = self.flat_pair(32, new_model(np.random.default_rng(6)))
        self.assert_same(*self.run_both(pair, emb_a, emb_b, head, *args))

    def test_voxels_exactly_on_the_gate_radius(self):
        # without rotation or scaling, and with even window offsets, every
        # correspondent is a half-lattice point, so voxels at exactly the
        # minimum distance exist; the gate excludes them
        pair, emb_a, emb_b = self.flat_pair(
            32, new_model(np.random.default_rng(12)), pair_seed=27,
            rotation_degrees=0.0, scale_range=(1.0, 1.0),
        )
        corr = pair.a_to_b_voxels(emb_a.fine.geometry.index_points(np.arange(10)) * 2.0)
        assert np.array_equal(corr % 2.0, np.zeros_like(corr))
        self.assert_same(*self.run_both(pair, emb_a, emb_b, "fine", 200, 500, 8.0, 0.25, 0.5))

    def test_fov_negatives(self):
        pair, emb_a, emb_b = self.flat_pair(32, new_model(np.random.default_rng(7)))
        got, want = self.run_both(
            pair, emb_a, emb_b, "fine", 120, 300, 8.0, 0.25, 0.3,
            n_fov=100, overlap_b=pair.overlap_b,
        )
        assert got.fov_indices is not None
        self.assert_same(got, want)

    def test_ragged_take_when_pools_are_below_n_cand(self):
        # a 10^3 half lattice less the gated ball leaves pools of roughly
        # 730-960 voxels, so n_cand = 800 splits the anchors
        pair, emb_a, emb_b = self.flat_pair(20, new_model(np.random.default_rng(8)))
        got, want = self.run_both(pair, emb_a, emb_b, "fine", 60, 200, 8.0, 0.25, 0.5, seed=3)
        n_b = int(np.prod(emb_b.fine.geometry.dims))
        corr = pair.a_to_b_voxels(emb_a.fine.geometry.index_points(got.anchor_indices) * 2.0)
        lattice = np.stack(np.meshgrid(*(np.arange(n) for n in emb_b.fine.geometry.dims),
                                       indexing="ij"), axis=-1).reshape(-1, 3) * 2.0
        pools = [(np.linalg.norm(lattice - c, axis=1) > 8.0).sum() for c in corr]
        assert min(pools) < 800 < max(pools) <= n_b
        self.assert_same(got, want)

    @pytest.mark.parametrize("patch", [20, 32])
    def test_exact_ties_rank_by_candidate_position(self, patch):
        zero = ProjectionModel(np.zeros((FEATURE_DIM, 8)), np.zeros((FEATURE_DIM, 8)))
        pair, emb_a, emb_b = self.flat_pair(patch, zero)
        assert np.all(emb_b.fine.data[..., 0] == 1.0)  # every row is e1, every similarity 1
        self.assert_same(*self.run_both(pair, emb_a, emb_b, "fine", 50, 200, 8.0, 0.25, 0.5))

    def test_ties_among_a_few_similarity_levels_keep_candidate_order(self):
        # every row is one of three unit vectors, so each anchor sees three
        # similarity values; half the candidates survive, so the survivors
        # span two of them and tie at the cut
        pair, emb_a, emb_b = self.flat_pair(32, new_model(np.random.default_rng(10)))
        levels = np.linalg.qr(np.random.default_rng(11).normal(size=(FEATURE_DIM, 3)))[0].T
        for emb in (emb_a, emb_b):
            n = emb.fine.data[..., 0].size
            emb.fine.data = levels[np.arange(n) % 3].reshape(emb.fine.data.shape)
        self.assert_same(*self.run_both(pair, emb_a, emb_b, "fine", 50, 200, 8.0, 0.5, 0.5))

    def test_registered_pair_pools_above_ten_thousand(self):
        # Generator.choice draws a pool above 10 000 by a tail shuffle, not
        # by Floyd's method, when take > pool // 50; the paired step's pools
        # on a registered 128^3 phantom pair are of that kind
        rng = np.random.default_rng(4)
        rot = rotation_matrix(rng.normal(size=3), math.radians(6.0))
        truth = rigid_about(rot, (63.5,) * 3, rng.uniform(-6.0, 6.0, size=3))
        pp = gen_pair(PhantomSpec(dims=(128,) * 3, seed=62), truth, "inverted")
        fixed, moving = resample(pp.volume_b, 2.0), resample(pp.volume_a, 2.0)
        mdl = new_model(np.random.default_rng(3))
        reg = register_and_crop(
            fixed, moving, mdl, AlignConfig(grid_spacing=3, similarity_floor=0.4, body_threshold=0.18), 5,
        )
        pair = reg.training_view
        emb_a, emb_b = embed(pair.patch_a, mdl), embed(pair.patch_b, mdl)
        cfg = TrainConfig()
        got, want = self.run_both(
            pair, emb_a, emb_b, "fine", cfg.n_pos_fine, cfg.n_neg_fine, cfg.neg_min_dist_fine,
            cfg.hard_negative_fraction, cfg.tau_cross, n_fov=cfg.n_fov_fine, overlap_b=pair.overlap_b,
        )
        assert got.fov_indices is not None
        self.assert_same(got, want)
        dims_b = emb_b.fine.geometry.dims
        corr = pair.a_to_b_voxels(emb_a.fine.geometry.index_points(got.anchor_indices) * 2.0)
        lattice = np.stack(np.meshgrid(*(np.arange(n) for n in dims_b), indexing="ij"), axis=-1).reshape(-1, 3) * 2.0
        pools = np.array([(np.linalg.norm(lattice - c, axis=1) > cfg.neg_min_dist_fine).sum() for c in corr])
        n_cand = math.ceil(cfg.n_neg_fine / cfg.hard_negative_fraction)
        assert pools.min() > 10_000 and n_cand > pools.max() // 50
        self.assert_same(*self.run_both(
            pair, emb_a, emb_b, "coarse", cfg.n_pos_coarse, cfg.n_neg_coarse, cfg.neg_min_dist_coarse,
            cfg.hard_negative_fraction, cfg.tau_cross,
        ))

    def test_pool_below_n_neg_raises_the_same_error(self):
        pair, emb_a, emb_b = self.flat_pair(20, new_model(np.random.default_rng(9)))
        flat = [e.fine.data.reshape(-1, e.fine.channels).astype(np.float64) for e in (emb_a, emb_b)]
        errors, states = [], []
        for sampler in (_sample_side, per_anchor_sample_side):
            rng = np.random.default_rng(4)
            with pytest.raises(InsufficientOverlap) as exc:  # at the third anchor
                sampler(pair, *flat, 40, 760, 8.0, 0.25, 0.5, rng)
            errors.append(str(exc.value))
            states.append(rng.bit_generator.state)
        assert errors[0] == errors[1] == "negative pool of 754 below requested 760"
        assert states[0] == states[1]


class TestTrain:
    def test_zero_steps_returns_init_unchanged(self):
        rng = np.random.default_rng(15)
        vol, _ = phantom_working(42)
        init = new_model(np.random.default_rng(1))
        model, log = train(
            [vol], small_cfg(steps=0), mode="standard",
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)), init=init,
        )
        assert log == []
        np.testing.assert_array_equal(model.w_fine, init.w_fine)

    def test_init_heads_of_wrong_feature_dim(self):
        vol, _ = phantom_working(42)
        init = ProjectionModel(np.ones((1, 8)), np.ones((1, 8)))
        with pytest.raises(DimensionMismatch):
            train(
                [vol], small_cfg(steps=1), mode="standard",
                augment_spec=AugmentSpec(patch_size=(20, 20, 20)), init=init,
            )

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train([], small_cfg(), mode="standard")

    def test_unknown_mode(self):
        rng = np.random.default_rng(16)
        vol, _ = phantom_working(43)
        with pytest.raises(ValueError):
            train([vol], small_cfg(), mode="banana")

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("n_neg_fine", 0), ("n_neg_coarse", -5), ("steps", -1),
        ("n_fov_fine", -1), ("semantic_per_class", 0), ("neg_min_dist_fine", -1.0),
        ("neg_min_dist_coarse", float("nan")),
    ])
    def test_counts_the_sampler_cannot_honour_are_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be >= "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
        ("momentum", float("inf")), ("momentum", 1.0), ("momentum", -0.1),
    ])
    def test_update_settings_out_of_range_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_an_update_that_leaves_non_finite_weights_diverges(self, monkeypatch):
        # a finite gradient whose step overflows: the heads would hold inf
        real = model_mod._pair_batch_grad
        monkeypatch.setattr(model_mod, "_pair_batch_grad", lambda *a: np.full_like(real(*a), 1e308))
        vol, _ = phantom_working(43)
        with pytest.raises(DivergedLoss, match="non-finite fine weights"):
            train([vol], small_cfg(steps=1, learning_rate=10.0), augment_spec=AugmentSpec(patch_size=(20, 20, 20)))

    def test_patch_draw_without_overlap_is_skipped(self, monkeypatch):
        # about 6% of these wide-motion draws leave the patches no overlap
        vol, _ = phantom_working(62, dims=(64, 64, 64))
        spec = AugmentSpec(
            patch_size=(16, 16, 16), min_overlap=0.05, rotation_degrees=90,
            scale_range=(0.6, 1.6),
        )
        raised = []
        real = model_mod.sample_patch_pair

        def spy(*args):
            try:
                return real(*args)
            except InsufficientOverlap:
                raised.append(args[3])
                raise

        monkeypatch.setattr(model_mod, "sample_patch_pair", spy)
        _, log = train([vol], small_cfg(steps=40, seed=2), mode="aggressive", augment_spec=spec)
        assert raised
        assert [r["step"] for r in log] == list(range(40))
        assert all(math.isfinite(r["loss_fine"]) for r in log)
        assert sum(r["loss_fine"] > 0.0 for r in log) > 20  # most steps trained

    @staticmethod
    def skipping_batches(monkeypatch, skip):
        """Makes ``sample_training_batch`` call k (from 0) raise
        ``InsufficientOverlap`` when ``skip(k)``; returns the per-anchor fine
        and coarse losses of the batches that ran, in order."""
        real_sample, real_loss = model_mod.sample_training_batch, model_mod.appearance_infonce
        calls, seen = [], []

        def sample(*args, **kwargs):
            calls.append(1)
            if skip(len(calls) - 1):
                raise InsufficientOverlap("skipped by the test")
            return real_sample(*args, **kwargs)

        def loss(batch):
            out = real_loss(batch)
            seen.append(out.value / len(batch.anchor_indices))
            return out

        monkeypatch.setattr(model_mod, "sample_training_batch", sample)
        monkeypatch.setattr(model_mod, "appearance_infonce", loss)
        return seen

    def test_logged_losses_average_over_the_batches_that_ran(self, monkeypatch):
        # half the batches are skipped; dividing by batch_size would halve the losses
        vol, _ = phantom_working(45)
        seen = self.skipping_batches(monkeypatch, lambda k: k % 2 == 0)
        _, (row,) = train(
            [vol], small_cfg(steps=1, batch_size=4), mode="aggressive",
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
        )
        fine, coarse = seen[0::2], seen[1::2]
        assert 1 <= len(fine) < 4
        assert row["loss_fine"] == sum(fine) / len(fine)
        assert row["loss_coarse"] == sum(coarse) / len(coarse)

    def test_a_step_whose_batches_were_all_skipped_logs_zero(self, monkeypatch):
        vol, _ = phantom_working(45)
        self.skipping_batches(monkeypatch, lambda k: k < 2)
        _, log = train(
            [vol], small_cfg(steps=2, batch_size=2), mode="aggressive",
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
        )
        assert (log[0]["loss_fine"], log[0]["loss_coarse"]) == (0.0, 0.0)
        assert math.isnan(log[0]["loss_semantic"])
        assert log[1]["loss_fine"] > 0.0

    def test_training_in_which_no_batch_ran_raises(self, monkeypatch):
        vol, _ = phantom_working(45)
        self.skipping_batches(monkeypatch, lambda k: True)
        with pytest.raises(InsufficientOverlap, match="no training batch"):
            train([vol], small_cfg(steps=2, batch_size=2), augment_spec=AugmentSpec(patch_size=(20, 20, 20)))

    def test_same_seed_bit_identical_models(self):
        vol, _ = phantom_working(44)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        m1, _ = train([vol], small_cfg(steps=6), mode="standard", augment_spec=spec)
        m2, _ = train([vol], small_cfg(steps=6), mode="standard", augment_spec=spec)
        b1, b2 = io.BytesIO(), io.BytesIO()
        save_model(m1, b1)
        save_model(m2, b2)
        assert b1.getvalue() == b2.getvalue()

    def test_loss_log_rows(self):
        vol, _ = phantom_working(45)
        model, log = train(
            [vol], small_cfg(steps=3), mode="aggressive",
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
        )
        assert [r["step"] for r in log] == [0, 1, 2]
        assert all(math.isfinite(r["loss_fine"]) for r in log)
        assert all(math.isnan(r["loss_semantic"]) for r in log)


class TestPairBatchMemory:
    @pytest.mark.parametrize("use_fov", [False, True], ids=["appearance", "cross-modality"])
    def test_default_fine_batch_peaks_below_one_negative_vector_array(self, use_fov):
        """The loss and gradient of one default-size fine batch stay below the
        size of one (anchors x negatives x channels) float64 array: no
        per-negative vector is ever formed."""
        import tracemalloc

        cfg = TrainConfig()
        n, m, k, d = cfg.n_pos_fine, cfg.n_neg_fine, cfg.n_fov_fine, FEATURE_DIM
        rng = np.random.default_rng(22)
        maps = {"fine": new_model(rng).w_fine}
        side_a, side_b = (model_mod._SideState(f, f, None, maps) for f in rng.normal(size=(2, 16**3, d)))
        e_a, e_b = side_a.heads["fine"][1], side_b.heads["fine"][1]
        a_idx = rng.choice(len(e_a), size=n, replace=False)
        p_idx, n_idx, f_idx = (rng.integers(0, len(e_b), size=shape) for shape in (n, (n, m), (n, k)))
        batch = PairBatch(
            e_a[a_idx], e_b[p_idx], np.einsum("nd,nmd->nm", e_a[a_idx], e_b[n_idx]), cfg.tau_cross,
            np.einsum("nd,nkd->nk", e_a[a_idx], e_b[f_idx]) if use_fov else None,
            a_idx, p_idx, n_idx, f_idx if use_fov else None,
        )
        loss = crossmod_infonce if use_fov else appearance_infonce
        tracemalloc.start()
        try:
            model_mod._pair_batch_grad("fine", side_a, side_b, batch, loss(batch))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * d * 8  # 8.8 MB


class TestGradientThroughProjection:
    def test_loss_gradient_wrt_weights_matches_finite_differences(self):
        """End-to-end chain: features -> W -> normalize -> InfoNCE.

        Validates the normalization Jacobian by differencing the scalar loss
        against single entries of W on a frozen sampled batch.
        """
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(40, 6))
        w = rng.normal(0, 0.5, size=(6, 8))
        a_idx = np.array([0, 1, 2, 3])
        p_idx = np.array([10, 11, 12, 13])
        n_idx = np.array([[20, 21], [22, 23], [24, 25], [26, 27]])

        def forward(weights):
            v = feats @ weights
            e = v / np.linalg.norm(v, axis=1, keepdims=True)
            batch = PairBatch(e[a_idx], e[p_idx], np.einsum("nd,nmd->nm", e[a_idx], e[n_idx]), 0.5)
            return appearance_infonce(batch)

        out = forward(w)
        # analytic dL/dW assembled the same way the trainer does it: W holds
        # dL/ds at each anchor's positive and negative voxels, the anchor
        # rows get W E and every row gets W^T A
        v = feats @ w
        norms = np.linalg.norm(v, axis=1)
        e = v / norms[:, None]
        sim_w = np.zeros((len(a_idx), len(e)))
        sim_w[np.arange(len(a_idx)), p_idx] = out.d_positive_sims
        np.put_along_axis(sim_w, n_idx, out.d_negative_sims, axis=1)
        grad_e = sim_w.T @ e[a_idx]
        grad_e[a_idx] += sim_w @ e
        gv = (grad_e - (grad_e * e).sum(axis=1, keepdims=True) * e) / norms[:, None]
        grad_w = feats.T @ gv

        coords = np.random.default_rng(18).choice(w.size, size=10, replace=False)
        flat = w.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + 1e-5
            up = forward(w).value
            flat[c] = orig - 1e-5
            down = forward(w).value
            flat[c] = orig
            fd = (up - down) / 2e-5
            denom = max(abs(fd), abs(grad_w.reshape(-1)[c]), 1e-8)
            assert abs(grad_w.reshape(-1)[c] - fd) / denom < 1e-3
