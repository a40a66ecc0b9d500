"""The head map: matching and training on k-wide embeddings against D-wide oracles.

The oracles here are the D-wide computation that the map replaces: each head
as an (F, D) matrix W = M Q^T for a random isometry Q^T (k orthonormal rows
of length D = 128), embeddings normalize(f W) and gradients chained through
them.  They follow the one zero-vector rule, under which a zero row's
embedding is Q's first column (e1 mapped out), so map and oracle agree
everywhere.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from voxelmatch import model as model_mod
from voxelmatch.alignment import AlignConfig, register_and_crop
from voxelmatch.augment import AugmentSpec
from voxelmatch.errors import InsufficientOverlap
from voxelmatch.geometry import rigid_about, rotation_matrix
from voxelmatch.losses import proto_supcon
from voxelmatch.matching import EmbeddingSet, FixpointConfig, SimilarityWeights, grid_match
from voxelmatch.model import (
    FEATURE_DIM,
    DescriptorBank,
    ProjectionModel,
    TrainConfig,
    _head_map,
    _smooth_coarse,
    embed,
    new_model,
    sample_training_batch,
    train,
)
from voxelmatch.phantom import PhantomSpec, gen_pair, gen_phantom
from voxelmatch.volume import EmbeddingVolume, half_geometry, resample
from vector_infonce import _infonce as vector_infonce

BANK = DescriptorBank()
# Q^T of the oracle heads W = M Q^T: a random (11, 128) isometry
Q_T = np.linalg.qr(np.random.default_rng(0).normal(size=(128, FEATURE_DIM)))[0].T


def reference_unit_rows(v):
    """normalize(v) with a zero row mapped to Q's first column; also the norms and zero mask."""
    norms = np.linalg.norm(v, axis=1)
    zero = norms <= 1e-12
    e = v / np.where(zero, 1.0, norms)[:, None]
    e[zero] = Q_T[0]
    return e, norms, zero


def reference_heads(feats, mdl, heads):
    """D-wide embeddings normalize(f W), W = M Q^T, of each head: name -> (feats, e, norms, zero)."""
    flat = feats.reshape(-1, FEATURE_DIM)
    flat_coarse = _smooth_coarse(feats).reshape(-1, FEATURE_DIM)
    out = {}
    for h in heads:
        f = flat_coarse if h == "coarse" else flat
        out[h] = (f, *reference_unit_rows(f @ (getattr(mdl, f"w_{h}") @ Q_T)))
    return out


def reference_embed(vol, mdl):
    """float32 D-wide embeddings normalize(f W) of each head."""
    feats, geom = BANK.compute(vol)
    names = ["coarse", "fine"] + (["semantic"] if mdl.w_semantic is not None else [])
    vols = {
        h: EmbeddingVolume(geom, e.reshape(*geom.shape_zyx, -1))
        for h, (_, e, _, _) in reference_heads(feats, mdl, names).items()
    }
    return EmbeddingSet(coarse=vols["coarse"], fine=vols["fine"], semantic=vols.get("semantic"))


class TestHeadFrame:
    @pytest.mark.parametrize("d", [128, 32, 11, 8])
    def test_frame_factors_the_head(self, d):
        # the map M of W keeps W's Gram matrix: W = M Q^T with orthonormal rows Q^T
        w = np.random.default_rng(d).normal(size=(FEATURE_DIM, d))
        m = _head_map(w)
        k = min(FEATURE_DIM, d)
        assert m.shape == (FEATURE_DIM, k)
        q_t = np.linalg.lstsq(m, w, rcond=None)[0]
        np.testing.assert_allclose(m @ q_t, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_t @ q_t.T, np.eye(k), rtol=0, atol=1e-12)

    def test_embed_emits_frame_vectors_that_map_to_the_embeddings(self):
        vol = resample(gen_phantom(PhantomSpec(dims=(40, 40, 40), seed=5))[0], 2.0)
        mdl = new_model(np.random.default_rng(3), with_semantic=True)
        out, ref = embed(vol, mdl), reference_embed(vol, mdl)
        for h in ("coarse", "fine", "semantic"):
            got = getattr(out, h).data
            assert got.shape[-1] == FEATURE_DIM
            mapped = got.astype(np.float64) @ Q_T
            np.testing.assert_allclose(mapped, getattr(ref, h).data, rtol=0, atol=1e-6)


def phantom_pair(seed, remap, dims=64):
    rng = np.random.default_rng(seed)
    centre = ((dims - 1) / 2.0,) * 3
    rot = rotation_matrix(rng.normal(size=3), math.radians(rng.uniform(3.0, 10.0)))
    truth = rigid_about(rot, centre, rng.uniform(-4.0, 4.0, size=3))
    pp = gen_pair(PhantomSpec(dims=(dims,) * 3, seed=seed), truth, remap)
    return resample(pp.volume_a, 2.0), resample(pp.volume_b, 2.0)


class TestFrameMatching:
    @pytest.mark.parametrize("cfg", [None, FixpointConfig()], ids=["nn", "fixpoint"])
    @pytest.mark.parametrize("seed,remap", [(62, "identity"), (66, "gamma")])
    def test_grid_match_equals_full_width_oracle(self, cfg, seed, remap):
        moving, fixed = phantom_pair(seed, remap)
        mdl = new_model(np.random.default_rng(3))
        dims = half_geometry(moving.geometry).dims
        axes = [np.arange(0, n, 3) for n in dims]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3) * 2.0
        w = SimilarityWeights()
        got = grid_match(pts, embed(moving, mdl), embed(fixed, mdl), w, cfg)
        ref = grid_match(pts, reference_embed(moving, mdl), reference_embed(fixed, mdl), w, cfg)
        assert len(got) == len(ref) == len(pts)
        for g, r in zip(got, ref):
            assert (g.point.x, g.point.y, g.point.z) == (r.point.x, r.point.y, r.point.z)
            assert (g.method, g.n_fix, g.n_fixed_points_used) == (r.method, r.n_fix, r.n_fixed_points_used)
            assert abs(g.similarity - r.similarity) < 1e-6


def norm_backprop(g_e, e, norms, zero):
    gv = (g_e - (g_e * e).sum(axis=1, keepdims=True) * e) / np.maximum(norms, 1e-30)[:, None]
    gv[zero] = 0.0
    return gv


def reference_gradients(calls, mdl, cfg, heads):
    """dL/dW of one step, chained through the D-wide embeddings of ``mdl``'s W = M Q^T.

    The InfoNCE terms take the vector-form loss on the D-wide vectors of the
    sampled voxels, so the oracle builds every negative vector that the
    similarity form never forms.

    ``calls`` holds what each ``sample_training_batch`` call of the step got:
    the patch pair, the random state, the FOV flag, and the k-wide batches.
    The oracle samples again from the same state on D-wide embeddings and
    checks that every index, hard negatives included, comes out the same.
    """
    grads = {h: np.zeros((FEATURE_DIM, Q_T.shape[1])) for h in heads}
    losses = []
    for pp, state, use_fov, got_batches in calls:
        side_a = reference_heads(BANK.compute(pp.patch_a)[0], mdl, heads)
        side_b = reference_heads(BANK.compute(pp.patch_b)[0], mdl, heads)
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        # the sampler reads only a side's heads, so the D-wide ones stand in
        fine_b, coarse_b, labeled = sample_training_batch(
            pp, SimpleNamespace(heads=side_a), SimpleNamespace(heads=side_b), cfg, rng, use_fov
        )
        for ref_b, got_b in zip((fine_b, coarse_b), got_batches[:2]):
            for attr in ("anchor_indices", "positive_indices", "negative_indices", "fov_indices"):
                np.testing.assert_array_equal(getattr(ref_b, attr), getattr(got_b, attr))

        def push(h, side, idx, g_e):
            f, e, norms, zero = side[h]
            grads[h] += f[idx].T @ norm_backprop(g_e, e[idx], norms[idx], zero[idx])

        for h, batch in (("fine", fine_b), ("coarse", coarse_b)):
            neg = batch.negative_indices
            if batch.fov_indices is not None:  # a cross-modality batch: the pool takes them in
                neg = np.concatenate([neg, batch.fov_indices], axis=1)
            e_a, e_b = side_a[h][1], side_b[h][1]
            value, d_a, d_p, d_n = vector_infonce(
                e_a[batch.anchor_indices], e_b[batch.positive_indices], e_b[neg], batch.temperature
            )
            scale = 1.0 / len(batch.anchor_indices)
            losses.append(value * scale)
            push(h, side_a, batch.anchor_indices, d_a * scale)
            push(h, side_b, batch.positive_indices, d_p * scale)
            push(h, side_b, neg.ravel(), d_n.reshape(neg.size, -1) * scale)
        if "semantic" in heads and labeled is not None:
            got_l = got_batches[2]
            for ref_i, got_i in zip(labeled.class_indices, got_l.class_indices):
                np.testing.assert_array_equal(ref_i, got_i)
            out = proto_supcon(labeled)
            idx = np.concatenate(labeled.class_indices)
            push("semantic", side_a, idx, out.d_embeddings / len(idx))
    return grads, losses


def recording(monkeypatch):
    """Record every ``sample_training_batch`` call that ``train`` makes."""
    calls = []
    real = model_mod.sample_training_batch

    def spy(pair, side_a, side_b, cfg, rng, use_fov=False):
        state = rng.bit_generator.state
        out = real(pair, side_a, side_b, cfg, rng, use_fov)
        calls.append((pair, state, use_fov, out))
        return out

    monkeypatch.setattr(model_mod, "sample_training_batch", spy)
    return calls


def small_cfg(steps):
    return TrainConfig(
        steps=steps, learning_rate=1.0, momentum=0.0, n_pos_fine=40, n_neg_fine=60,
        n_fov_fine=20, n_pos_coarse=20, n_neg_coarse=30, neg_min_dist_fine=4.0,
        neg_min_dist_coarse=8.0, semantic_per_class=16, seed=5,
    )


def relative_error(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestFrameTraining:
    def test_standard_step_equals_full_width_gradient(self, monkeypatch):
        vol, labels, _ = gen_phantom(PhantomSpec(dims=(32, 32, 32), spacing=2.0, seed=21))
        init = new_model(np.random.default_rng(4), with_semantic=True)
        cfg = small_cfg(steps=1)
        calls = recording(monkeypatch)
        mdl, log = train(
            [(vol, labels)], cfg, mode="standard",
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)), init=init,
        )
        heads = ("fine", "coarse", "semantic")
        assert len(calls) == 1 and calls[0][3][2] is not None
        grads, losses = reference_gradients(calls, init, cfg, heads)
        for h in heads:
            step = getattr(mdl, f"w_{h}") - getattr(init, f"w_{h}")
            assert relative_error(step @ Q_T, -grads[h]) < 1e-12
        assert abs(log[0]["loss_fine"] - losses[0]) <= 1e-12 * losses[0]
        assert abs(log[0]["loss_coarse"] - losses[1]) <= 1e-12 * losses[1]

    def test_cross_modality_step_with_fov_negatives_equals_full_width_gradient(self, monkeypatch):
        moving, fixed = phantom_pair(62, "inverted")
        init = new_model(np.random.default_rng(3))
        reg = register_and_crop(
            fixed, moving, init,
            AlignConfig(grid_spacing=3, similarity_floor=0.4, body_threshold=0.18), 5,
        )
        cfg = small_cfg(steps=2)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        before, _ = train([moving], small_cfg(steps=1), "paired", spec, [reg], init=init)
        calls = recording(monkeypatch)
        after, _ = train([moving], cfg, "paired", spec, [reg], init=init)
        paired = [c for c in calls if c[2]]
        assert len(paired) == 1 and paired[0][3][0].fov_indices is not None
        grads, _ = reference_gradients(paired, before, cfg, ("fine", "coarse"))
        for h in ("fine", "coarse"):
            step = getattr(after, f"w_{h}") - getattr(before, f"w_{h}")
            assert relative_error(step @ Q_T, -grads[h]) < 1e-12


class TestPerVoxelBackprop:
    """``train`` sums each batch's gradient rows per voxel before the normalization
    Jacobian; the oracle chains every row on its own."""

    @staticmethod
    def paired_step(monkeypatch, init):
        moving, fixed = phantom_pair(62, "inverted")
        reg = register_and_crop(
            fixed, moving, new_model(np.random.default_rng(3)),
            AlignConfig(grid_spacing=3, similarity_floor=0.4, body_threshold=0.18), 5,
        )
        cfg = TrainConfig(steps=2, learning_rate=1.0, momentum=0.0, seed=5)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        # step 0 is self-supervised, and no 20^3 patch pair holds the default
        # counts: it runs no batch, so the heads enter step 1 as init's
        with pytest.raises(InsufficientOverlap):
            train([moving], replace(cfg, steps=1), "paired", spec, [reg], init=init)
        before = init
        calls = recording(monkeypatch)
        after, _ = train([moving], cfg, "paired", spec, [reg], init=init)
        paired = [c for c in calls if c[2]]
        assert len(paired) == 1 and paired[0][3][0].fov_indices is not None
        return cfg, before, after, paired

    def test_default_counts_equal_the_per_row_chain(self, monkeypatch):
        cfg, before, after, paired = self.paired_step(monkeypatch, new_model(np.random.default_rng(3)))
        fine = paired[0][3][0]
        rows = np.concatenate([fine.negative_indices.ravel(), fine.fov_indices.ravel()])
        assert fine.negative_indices.shape == (cfg.n_pos_fine, cfg.n_neg_fine)
        assert fine.fov_indices.shape == (cfg.n_pos_fine, cfg.n_fov_fine)
        assert len(rows) > 20 * len(np.unique(rows))  # many rows per voxel
        grads, _ = reference_gradients(paired, before, cfg, ("fine", "coarse"))
        for h in ("fine", "coarse"):
            step = getattr(after, f"w_{h}") - getattr(before, f"w_{h}")
            assert relative_error(step @ Q_T, -grads[h]) <= 1e-12

    def test_zero_rows_get_exactly_zero_gradient(self, monkeypatch):
        # every row of an all-zero model is substituted by e1
        zero = ProjectionModel(np.zeros((FEATURE_DIM, 8)), np.zeros((FEATURE_DIM, 8)))
        _, before, after, _ = self.paired_step(monkeypatch, zero)
        for h in ("fine", "coarse"):
            assert not np.any(getattr(before, f"w_{h}")) and not np.any(getattr(after, f"w_{h}"))
        # there every loss gradient lies along e1, which the Jacobian removes
        # anyway; rows off e1, on voxels whose features are not zero, must
        # be stopped by the zero mask
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, FEATURE_DIM))
        side = model_mod._SideState(feats, feats, None, {"fine": np.zeros((FEATURE_DIM, FEATURE_DIM))})
        idx, g = rng.choice(50, size=30, replace=False), rng.normal(size=(30, FEATURE_DIM))
        assert not np.any(side.chain("fine", idx, g))
