"""Tests for the grid-match + rigid-fit + crop alignment step and its outer loop."""

import collections
import io
import logging
from dataclasses import replace

import numpy as np
import pytest

from voxelmatch import alignment
from voxelmatch.alignment import (
    AlignConfig,
    CrossPair,
    format_metrics_table,
    iterate_alignment,
    register_and_crop,
)
from voxelmatch.errors import DegenerateGeometry, EmptyMask, TooFewMatches
from voxelmatch.geometry import rigid_about, rotation_matrix
from voxelmatch.matching import EmbeddingSet, SimilarityWeights
from voxelmatch.model import DescriptorBank, TrainConfig, embed, new_model, save_model, train
from voxelmatch.augment import AugmentSpec, PatchPair
from voxelmatch.phantom import PhantomSpec, gen_pair, gen_phantom
from voxelmatch.volume import (
    Box3, EmbeddingVolume, LabelVolume, ScalarVolume, VolumeGeometry, crop, half_geometry, resample,
)

MODEL = new_model(np.random.default_rng(3))
CFG = AlignConfig(grid_spacing=3, similarity_floor=0.4, body_threshold=0.18)


def working_phantom(seed, dims=(64, 64, 64)):
    vol, labels, lms = gen_phantom(PhantomSpec(dims=dims, seed=seed))
    return resample(vol, 2.0), lms


def landmark_array(landmarks) -> np.ndarray:
    """(n, 3) physical mm coordinates of (name, Point3) landmarks."""
    return np.array([p.to_array() for _, p in landmarks])


def crop_embedding_set(emb: EmbeddingSet, box: Box3) -> EmbeddingSet:
    """The coarse and fine heads of ``emb`` in ``box``, which lies within their
    grid, as ``crop`` cuts a scalar volume: the origin moves with the box."""
    g = emb.fine.geometry
    geom = VolumeGeometry(
        tuple(hi - lo + 1 for lo, hi in zip(box.min, box.max)),
        g.spacing, tuple(o + lo * s for o, lo, s in zip(g.origin, box.min, g.spacing)),
    )
    sl = tuple(slice(lo, hi + 1) for lo, hi in zip(box.min[::-1], box.max[::-1]))
    heads = (EmbeddingVolume(geom, v.data[sl]) for v in (emb.coarse, emb.fine))
    return EmbeddingSet(*heads)


def embed_as(monkeypatch, sets):
    """Make ``register_and_crop`` embed each volume of ``sets`` (volume, EmbeddingSet)
    pairs as the set given for it."""
    monkeypatch.setattr(alignment, "embed", lambda vol, model: next(e for v, e in sets if v is vol))


def keep_matches(monkeypatch, keep, moving=None):
    """Make ``register_and_crop`` drop every grid match but those at the indices
    ``keep(pts)`` returns: in every registration, or in those of the scan ``moving``."""
    real_embed, real_match, marked = alignment.embed, alignment.grid_match, []

    def embed(vol, model):
        out = real_embed(vol, model)
        if moving is None or vol is moving:
            marked.append(out)
        return out

    def grid_match(pts, moving_set, *rest):
        out = real_match(pts, moving_set, *rest)
        if not any(moving_set is m for m in marked):
            return out
        kept = set(keep(pts).tolist())
        return [r if i in kept else None for i, r in enumerate(out)]

    monkeypatch.setattr(alignment, "embed", embed)
    monkeypatch.setattr(alignment, "grid_match", grid_match)


def spread(n):
    """``n`` grid points evenly spread in x-major order, from the first to the
    last: off one line on the scans here."""
    return lambda pts: np.linspace(0, len(pts) - 1, n).round().astype(int)


def one_row(pts):
    """The grid points of the fullest x row: all on one line."""
    (y, z), _ = collections.Counter(map(tuple, pts[:, 1:].tolist())).most_common(1)[0]
    return np.flatnonzero((pts[:, 1] == y) & (pts[:, 2] == z))


class TestRegisterAndCrop:
    def test_self_crop_recovers_identity(self, monkeypatch):
        fixed, _ = working_phantom(60)
        emb_fixed = embed(fixed, MODEL)
        box = Box3((4, 4, 4), (27, 27, 27))
        moving = crop(fixed, box)
        half_box = Box3((2, 2, 2), (13, 13, 13))
        emb_moving = crop_embedding_set(emb_fixed, half_box)
        embed_as(monkeypatch, [(fixed, emb_fixed), (moving, emb_moving)])
        reg = register_and_crop(fixed, moving, MODEL, CFG, margin=4)
        # cropping preserves physical coordinates, so the truth is identity
        np.testing.assert_allclose(reg.rigid.rotation, np.eye(3), atol=0.05)
        assert np.linalg.norm(reg.rigid.translation) < 2.0  # one working voxel
        assert reg.provenance.mean_residual_mm < 2.0
        assert reg.provenance.inlier_count >= 3

    def test_impossible_similarity_floor(self):
        fixed, _ = working_phantom(61)
        moving = crop(fixed, Box3((4, 4, 4), (27, 27, 27)))
        cfg = AlignConfig(grid_spacing=3, similarity_floor=1.1, body_threshold=0.18)
        with pytest.raises(TooFewMatches):
            register_and_crop(fixed, moving, MODEL, cfg, margin=4)

    @pytest.mark.parametrize("n,trim", [(3, 0.2), (2, 0.0), (5, 0.5)])
    def test_too_few_matches_left_after_trimming(self, monkeypatch, n, trim):
        # n - ceil(trim * n) < 3: the trimmed fit would keep fewer than three pairs
        fixed, _ = working_phantom(62)
        moving = crop(fixed, Box3((4, 4, 4), (27, 27, 27)))
        keep_matches(monkeypatch, spread(n))
        with pytest.raises(TooFewMatches, match=f"{n} of .* after trimming"):
            register_and_crop(fixed, moving, MODEL, replace(CFG, trim_fraction=trim), margin=4)

    @pytest.mark.parametrize("n,trim", [(4, 0.2), (3, 0.0), (6, 0.5)])
    def test_three_matches_left_after_trimming_register(self, monkeypatch, n, trim):
        fixed, _ = working_phantom(62)
        moving = crop(fixed, Box3((4, 4, 4), (27, 27, 27)))
        keep_matches(monkeypatch, spread(n))
        reg = register_and_crop(fixed, moving, MODEL, replace(CFG, trim_fraction=trim), margin=4)
        assert reg.provenance.n_accepted == n
        assert reg.provenance.inlier_count == 3

    def test_collinear_matches_are_degenerate(self, monkeypatch):
        fixed, _ = working_phantom(62)
        moving = crop(fixed, Box3((4, 4, 4), (27, 27, 27)))
        keep_matches(monkeypatch, one_row)
        with pytest.raises(DegenerateGeometry, match="collinear"):
            register_and_crop(fixed, moving, MODEL, CFG, margin=4)

    def test_body_between_grid_points_is_empty_mask(self):
        # a one-voxel body at odd full-res coordinates holds no grid point
        fixed, _ = working_phantom(61)
        data = np.zeros((12, 12, 12), np.float32)
        data[5, 7, 3] = 1.0
        moving = ScalarVolume(VolumeGeometry((12, 12, 12), spacing=(2.0, 2.0, 2.0)), data)
        with pytest.raises(EmptyMask):
            register_and_crop(fixed, moving, MODEL, CFG, margin=4)

    def test_rigidly_moved_remapped_phantom_recovered(self):
        spec = PhantomSpec(dims=(64, 64, 64), seed=62)
        rot = rotation_matrix((0.2, 1.0, 0.1), np.deg2rad(6.0))
        truth = rigid_about(rot, center=(31.5, 31.5, 31.5), shift=(6.0, -4.0, 3.0))
        pair = gen_pair(spec, truth, "gamma")
        fixed = resample(pair.volume_b, 2.0)   # large FOV: the transformed copy
        moving = resample(pair.volume_a, 2.0)
        reg = register_and_crop(fixed, moving, MODEL, CFG, margin=5)
        # recovered moving->fixed should carry every landmark of A onto its
        # generator-exact place in B; matches live on the 4 mm embedding
        # lattice, so the error is measured at the landmarks, not as an angle
        # or as a translation taken 55 mm away at the world origin
        err = np.linalg.norm(
            reg.rigid.apply_array(landmark_array(pair.landmarks_a))
            - landmark_array(pair.landmarks_b),
            axis=1,
        )
        assert err.max() < 4.0  # 2 voxels

    def test_inlier_points_land_inside_crop(self, monkeypatch):
        fixed, _ = working_phantom(63)
        emb_fixed = embed(fixed, MODEL)
        box = Box3((6, 6, 6), (29, 29, 29))
        moving = crop(fixed, box)
        half_box = Box3((3, 3, 3), (14, 14, 14))
        embed_as(monkeypatch, [(fixed, emb_fixed), (moving, crop_embedding_set(emb_fixed, half_box))])
        reg = register_and_crop(fixed, moving, MODEL, CFG, margin=3)
        from voxelmatch.alignment import _grid_points
        from voxelmatch.volume import body_mask

        pts = _grid_points(body_mask(moving, CFG.body_threshold)[0], CFG.grid_spacing)
        moved = fixed.geometry.physical_to_voxel(
            reg.rigid.apply_array(moving.geometry.voxel_to_physical(pts))
        )
        crop_geom = reg.fixed_crop.geometry
        lo = fixed.geometry.physical_to_voxel(np.asarray(crop_geom.origin))
        hi = lo + np.asarray(crop_geom.dims) - 1
        inside = np.all((moved >= lo - 1e-6) & (moved <= hi + 1e-6), axis=1)
        # the fit is trimmed: only survivors are guaranteed inside
        assert inside.mean() >= 0.7

    def test_margin_monotonicity(self, monkeypatch):
        fixed, _ = working_phantom(64)
        emb_fixed = embed(fixed, MODEL)
        box = Box3((4, 4, 4), (27, 27, 27))
        moving = crop(fixed, box)
        half_box = Box3((2, 2, 2), (13, 13, 13))
        embed_as(monkeypatch, [(fixed, emb_fixed), (moving, crop_embedding_set(emb_fixed, half_box))])
        volumes = []
        for margin in (10, 5, 1):
            reg = register_and_crop(fixed, moving, MODEL, CFG, margin)
            volumes.append(np.prod(reg.fixed_crop.geometry.dims))
        assert volumes[0] >= volumes[1] >= volumes[2]

    def test_overlap_mask_nonempty_and_on_crop_grid(self):
        fixed, _ = working_phantom(65)
        moving = crop(fixed, Box3((4, 4, 4), (27, 27, 27)))
        reg = register_and_crop(fixed, moving, MODEL, CFG, margin=4)
        assert reg.overlap_mask.geometry == reg.fixed_crop.geometry
        assert reg.overlap_mask.data.any()

    def test_rigid_stable_under_resampling(self):
        spec = PhantomSpec(dims=(64, 64, 64), seed=66)
        truth = rigid_about(
            rotation_matrix((0, 0, 1), np.deg2rad(4.0)), center=(31.5,) * 3, shift=(5.0, 2.0, -3.0)
        )
        pair = gen_pair(spec, truth, "identity")
        rigids = []
        for spacing in (2.0, 2.5):
            fixed = resample(pair.volume_b, spacing)
            moving = resample(pair.volume_a, spacing)
            reg = register_and_crop(fixed, moving, MODEL, CFG, margin=4)
            rigids.append(reg.rigid)
        # both registrations must place every landmark of A at the same spot
        lms = landmark_array(pair.landmarks_a)
        gap = np.linalg.norm(rigids[0].apply_array(lms) - rigids[1].apply_array(lms), axis=1)
        assert gap.max() < 5.0


def grid_points_meshgrid(mask, spacing_half):
    """Oracle: ``_grid_points`` as three half-grid meshgrids, the lattice read back
    from the mask at full resolution."""
    nx, ny, nz = mask.geometry.dims
    hx = np.arange(0, (nx + 1) // 2, spacing_half)
    hy = np.arange(0, (ny + 1) // 2, spacing_half)
    hz = np.arange(0, (nz + 1) // 2, spacing_half)
    gx, gy, gz = np.meshgrid(hx, hy, hz, indexing="ij")
    pts_full = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) * 2
    keep = mask.data[pts_full[:, 2], pts_full[:, 1], pts_full[:, 0]] != 0
    return pts_full[keep].astype(np.float64)


@pytest.mark.parametrize("dims", [(9, 12, 7), (16, 10, 14), (1, 5, 2)])
@pytest.mark.parametrize("spacing_half", [1, 2, 3, 4])
def test_grid_points_equal_the_meshgrid_oracle(dims, spacing_half):
    rng = np.random.default_rng(sum(dims) + spacing_half)
    data = rng.random(dims[::-1]) < 0.4
    data[0, 0, 0] = True  # so no lattice is empty
    mask = LabelVolume(VolumeGeometry(dims), data)
    got = alignment._grid_points(mask, spacing_half)
    want = grid_points_meshgrid(mask, spacing_half)
    assert len(want) > 0
    assert got.dtype == want.dtype and np.array_equal(got, want)


def inline_overlaps(reg):
    """Oracle: the overlap rule written out, as (moving-grid mask, fixed-crop mask)."""
    ga, gb = reg.moving.geometry, reg.fixed_crop.geometry
    mapped = gb.physical_to_voxel(reg.rigid.apply_array(ga.voxel_to_physical(ga.voxel_points())))
    back = ga.physical_to_voxel(
        reg.rigid.inverse().apply_array(gb.voxel_to_physical(gb.voxel_points()))
    )
    return gb.in_grid(mapped).reshape(ga.shape_zyx), ga.in_grid(back).reshape(gb.shape_zyx)


def rotated_scans():
    """(fixed, moving) working-grid scans of phantom 68 turned 8 degrees."""
    spec = PhantomSpec(dims=(64, 64, 64), seed=68)
    rot = rotation_matrix((0.3, 0.2, 1.0), np.deg2rad(8.0))
    truth = rigid_about(rot, center=(31.5, 31.5, 31.5), shift=(5.0, -3.0, 4.0))
    pair = gen_pair(spec, truth, "identity")
    return resample(pair.volume_b, 2.0), resample(pair.volume_a, 2.0)


def rotated_registration():
    return register_and_crop(*rotated_scans(), MODEL, CFG, margin=3)


class TestRegisteredPairOverlaps:
    def test_masks_match_the_inline_rule(self):
        reg = rotated_registration()
        want_a, want_b = inline_overlaps(reg)
        assert 0 < want_a.sum() < want_a.size and 0 < want_b.sum() < want_b.size
        mask = reg.overlap_mask
        assert isinstance(mask, LabelVolume) and mask.geometry == reg.fixed_crop.geometry
        assert np.array_equal(mask.data, want_b.astype(np.uint16))
        view = reg.training_view
        assert view.patch_a is reg.moving and view.patch_b is reg.fixed_crop
        assert np.array_equal(view.overlap_a, want_a)
        assert np.array_equal(view.overlap_b, want_b)

    def test_register_and_crop_maps_no_voxel_grid(self, monkeypatch):
        calls = []
        real = VolumeGeometry.voxel_points

        def counting(geom, *planes):
            calls.append(geom)
            return real(geom, *planes)

        fixed, moving = rotated_scans()
        monkeypatch.setattr(VolumeGeometry, "voxel_points", counting)
        reg = register_and_crop(fixed, moving, MODEL, CFG, margin=3)
        assert calls == []
        reg.overlap_mask  # computed when read
        assert calls == [reg.fixed_crop.geometry]

    def test_paired_training_builds_each_view_once(self, monkeypatch):
        pairs = tiny_cross_pairs(2)
        registered = [register_and_crop(p.fixed, p.moving, MODEL, CFG, margin=5) for p in pairs]
        calls = []
        real = alignment.mapped_inside

        def counting(geom, *targets):
            calls.append(geom)
            return real(geom, *targets)

        monkeypatch.setattr(alignment, "mapped_inside", counting)
        vols = [v for p in pairs for v in (p.fixed, p.moving)]
        cfg = replace(tiny_train_cfg(), steps=2, batch_size=3)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        views = []
        for _ in range(2):
            train(vols, cfg, mode="paired", augment_spec=spec, registered_pairs=registered, init=MODEL)
            views.append([vars(r).get("training_view") for r in registered])
        built = [v for v in views[0] if v is not None]
        assert built and len(calls) == 2 * len(built)
        assert all(a is b for a, b in zip(views[0], views[1]))

    @staticmethod
    def paired_train(registered, pairs):
        vols = [v for p in pairs for v in (p.fixed, p.moving)]
        cfg = replace(tiny_train_cfg(), steps=4, batch_size=3)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        return train(vols, cfg, mode="paired", augment_spec=spec, registered_pairs=registered, init=MODEL)

    def test_paired_training_runs_the_bank_once_per_side_across_calls(self, monkeypatch):
        pairs = tiny_cross_pairs(2)
        registered = [register_and_crop(p.fixed, p.moving, MODEL, CFG, margin=5) for p in pairs]
        seen = []
        real = DescriptorBank.compute

        def counting(bank, vol):
            seen.append(vol)
            return real(bank, vol)

        monkeypatch.setattr(DescriptorBank, "compute", counting)
        for _ in range(2):
            self.paired_train(registered, pairs)
        views = [vars(r)["training_view"] for r in registered if "training_view" in vars(r)]
        sides = [side for view in views for side in (view.patch_a, view.patch_b)]
        assert sides
        assert [sum(vol is side for vol in seen) for side in sides] == [1] * len(sides)

    def test_kept_features_train_as_fresh_ones(self):
        pairs = tiny_cross_pairs(2)
        registered = [register_and_crop(p.fixed, p.moving, MODEL, CFG, margin=5) for p in pairs]
        self.paired_train(registered, pairs)
        kept_model, kept_log = self.paired_train(registered, pairs)
        fresh = [register_and_crop(p.fixed, p.moving, MODEL, CFG, margin=5) for p in pairs]
        fresh_model, fresh_log = self.paired_train(fresh, pairs)
        got, want = io.BytesIO(), io.BytesIO()
        save_model(kept_model, got)
        save_model(fresh_model, want)
        assert got.getvalue() == want.getvalue()
        assert repr(kept_log) == repr(fresh_log)  # float reprs round-trip, and a NaN matches a NaN

    def test_kept_features_refuse_writes(self):
        reg = rotated_registration()
        view = reg.training_view
        for (fine, coarse, geom), side in zip(reg.training_features, (view.patch_a, view.patch_b)):
            assert geom == half_geometry(side.geometry)
            for arr in (fine, coarse):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 1.0

    def test_registration_alone_builds_no_training_data(self):
        reg = rotated_registration()
        assert "training_view" not in vars(reg) and "training_features" not in vars(reg)

    def test_paired_training_maps_each_pair_anchors_once(self, monkeypatch):
        pairs = tiny_cross_pairs(2)
        registered = [register_and_crop(p.fixed, p.moving, MODEL, CFG, margin=5) for p in pairs]
        mapped = []
        real = PatchPair.a_to_b_voxels

        def counting(pair, pts):
            mapped.append(pair)
            return real(pair, pts)

        monkeypatch.setattr(PatchPair, "a_to_b_voxels", counting)
        vols = [v for p in pairs for v in (p.fixed, p.moving)]
        cfg = replace(tiny_train_cfg(), steps=4, batch_size=3)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        for _ in range(2):
            train(vols, cfg, mode="paired", augment_spec=spec, registered_pairs=registered, init=MODEL)
        views = [vars(r)["training_view"] for r in registered if "training_view" in vars(r)]
        assert views
        assert [sum(m is v for m in mapped) for v in views] == [1] * len(views)
        assert all("usable_anchors" in vars(v) for v in views)


def tiny_cross_pairs(n_pairs=2):
    pairs = []
    for i in range(n_pairs):
        spec = PhantomSpec(dims=(64, 64, 64), seed=300 + i)
        truth = rigid_about(
            rotation_matrix((0, 0, 1), np.deg2rad(3.0)),
            center=(31.5,) * 3, shift=(6.0, -2.0, 2.0),
        )
        pair = gen_pair(spec, truth, "inverted")
        fixed = resample(pair.volume_a, 2.0)
        moving = resample(pair.volume_b, 2.0)
        pairs.append(
            CrossPair(
                fixed, moving,
                fixed_landmarks=pair.landmarks_a, moving_landmarks=pair.landmarks_b,
                pair_id=f"t{i}",
            )
        )
    return pairs


def tiny_train_cfg():
    return TrainConfig(
        steps=6, learning_rate=0.05, n_pos_fine=24, n_neg_fine=24,
        n_pos_coarse=12, n_neg_coarse=12, n_fov_fine=8,
        neg_min_dist_fine=4.0, neg_min_dist_coarse=8.0, seed=5,
    )


class TestIterateAlignment:
    def test_empty_schedule_returns_bootstrap_only(self):
        pairs = tiny_cross_pairs(1)
        cfg = AlignConfig(grid_spacing=3, similarity_floor=0.3, margins=(), body_threshold=0.18)
        models, rows = iterate_alignment(
            pairs, tiny_train_cfg(), cfg,
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
        )
        assert len(models) == 1
        assert rows == []
        assert models[0].round_index == 0

    def test_two_rounds_produce_models_and_metrics(self):
        pairs = tiny_cross_pairs(2)
        cfg = AlignConfig(grid_spacing=3, similarity_floor=0.3, margins=(6, 3), body_threshold=0.18)
        models, rows = iterate_alignment(
            pairs, tiny_train_cfg(), cfg,
            augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
        )
        assert len(models) == 3
        assert [m.round_index for m in models] == [0, 1, 2]
        assert {r.round_index for r in rows} == {0, 1}
        assert all(r.med_mm is not None for r in rows)
        table = format_metrics_table(rows)
        assert table.splitlines()[0].startswith("k pair")
        assert len(table.splitlines()) == len(rows) + 1

    def test_round_with_no_registered_pair_raises_too_few_matches(self):
        (pair,) = tiny_cross_pairs(1)
        blank = ScalarVolume(pair.moving.geometry, np.zeros_like(pair.moving.data))
        cfg = AlignConfig(grid_spacing=3, similarity_floor=0.3, margins=(4,), body_threshold=0.18)
        with pytest.raises(TooFewMatches, match="round 0"):
            iterate_alignment(
                [replace(pair, moving=blank)], tiny_train_cfg(), cfg,
                augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
            )

    @pytest.mark.parametrize("keep", [spread(3), one_row], ids=["three-matches", "collinear"])
    def test_pair_left_with_too_few_or_collinear_matches_is_skipped(self, monkeypatch, caplog, keep):
        bad, good = tiny_cross_pairs(2)
        keep_matches(monkeypatch, keep, moving=bad.moving)
        real_train, trained = alignment.train, []

        def train(vols, cfg, **kw):
            trained.append([reg.moving for reg in kw.get("registered_pairs") or ()])
            return real_train(vols, cfg, **kw)

        monkeypatch.setattr(alignment, "train", train)
        cfg = AlignConfig(grid_spacing=3, similarity_floor=0.3, margins=(4,), body_threshold=0.18)
        with caplog.at_level(logging.WARNING, logger="voxelmatch.alignment"):
            models, rows = iterate_alignment(
                [bad, good], tiny_train_cfg(), cfg,
                augment_spec=AugmentSpec(patch_size=(20, 20, 20)),
            )
        assert [m.round_index for m in models] == [0, 1]
        assert [r.pair_id for r in rows] == [good.pair_id]
        assert len(trained) == 2 and trained[0] == []
        assert len(trained[1]) == 1 and trained[1][0] is good.moving
        assert f"alignment skipped pair {bad.pair_id} in round 0" in caplog.text

    def test_same_seed_identical_model_bytes(self):
        pairs = tiny_cross_pairs(1)
        cfg = AlignConfig(grid_spacing=3, similarity_floor=0.3, margins=(5,), body_threshold=0.18)
        spec = AugmentSpec(patch_size=(20, 20, 20))
        out = []
        for _ in range(2):
            models, _ = iterate_alignment(pairs, tiny_train_cfg(), cfg, augment_spec=spec)
            blobs = []
            for m in models:
                buf = io.BytesIO()
                save_model(m, buf)
                blobs.append(buf.getvalue())
            out.append(blobs)
        assert out[0] == out[1]
