"""Tests for the procedural phantom generator and pair construction."""

import numpy as np
import pytest

from voxelmatch import phantom
from voxelmatch.errors import InsufficientOverlap, PlacementFailure
from voxelmatch.geometry import Point3, apply, rigid_about, rotation_matrix
from voxelmatch.phantom import (
    Corruption,
    PhantomSpec,
    gen_pair,
    gen_phantom,
)


def center_of(spec):
    return tuple((d - 1) / 2.0 * spec.spacing for d in spec.dims)


class TestGenPhantom:
    def test_zero_organs_gives_pure_background(self):
        spec = PhantomSpec(dims=(24, 24, 24), n_organs=0, seed=1)
        vol, labels, lms = gen_phantom(spec)
        assert labels.data.max() == 0
        assert lms == []

    def test_labels_match_organ_count(self):
        spec = PhantomSpec(dims=(48, 48, 48), n_organs=4, seed=2)
        vol, labels, lms = gen_phantom(spec)
        assert set(np.unique(labels.data)) == {0, 1, 2, 3, 4}
        assert len(lms) == 12  # center plus two poles per organ

    def test_organ_volume_matches_analytic_ellipsoid(self):
        spec = PhantomSpec(dims=(64, 64, 64), n_organs=3, seed=3)
        vol, labels, lms = gen_phantom(spec)
        rng = np.random.default_rng(spec.seed)
        # regenerate the sampled geometry the same way gen_phantom draws it
        # is brittle; instead check each label blob against the ellipsoid
        # volume implied by its principal extents
        for k in range(1, 4):
            count = int((labels.data == k).sum())
            assert count > 0
            # analytic volume bound: organs were drawn with semi-axes in range
            lo, hi = spec.organ_axis_range
            v_min = 4.0 / 3.0 * np.pi * lo**3
            v_max = 4.0 / 3.0 * np.pi * hi**3
            assert 0.8 * v_min <= count * spec.spacing**3 <= 1.2 * v_max

    def test_deterministic(self):
        spec = PhantomSpec(dims=(32, 32, 32), n_organs=2, seed=5)
        v1, l1, m1 = gen_phantom(spec)
        v2, l2, m2 = gen_phantom(spec)
        assert v1.data.tobytes() == v2.data.tobytes()
        assert l1.data.tobytes() == l2.data.tobytes()
        assert m1 == m2

    def test_landmarks_inside_volume(self):
        spec = PhantomSpec(dims=(64, 64, 64), seed=6)
        vol, labels, lms = gen_phantom(spec)
        for name, p in lms:
            assert 0 <= p.x <= 63 and 0 <= p.y <= 63 and 0 <= p.z <= 63

    def test_landmark_centers_sit_on_their_organ(self):
        spec = PhantomSpec(dims=(64, 64, 64), seed=7)
        vol, labels, lms = gen_phantom(spec)
        for name, p in lms:
            if not name.endswith("c"):
                continue
            k = int(name[1:-1])
            assert labels.data[round(p.z), round(p.y), round(p.x)] == k


class TestSmallPhantoms:
    """A body too small for full-size organs holds them shrunk."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("size,n_organs", [(32, 6), (24, 2), (24, 6)])
    def test_builds_with_disjoint_visible_organs(self, monkeypatch, size, n_organs, seed):
        placed = []
        real = phantom._place_organs

        def spy(*args):
            placed.append(real(*args))
            return placed[-1]

        monkeypatch.setattr(phantom, "_place_organs", spy)
        spec = PhantomSpec(dims=(size,) * 3, n_organs=n_organs, seed=seed)
        vol, labels, lms = gen_phantom(spec)
        assert len(placed[0]) == n_organs and len(lms) == 3 * n_organs
        masks = []
        for c, axes, rot in placed[0]:
            mask = np.zeros(vol.geometry.shape_zyx, dtype=np.uint8)
            phantom._fill_ellipsoid(mask, vol.geometry, c, axes, rot, 1)
            masks.append(mask.astype(bool))
        assert sum(m.astype(int) for m in masks).max() == 1  # no voxel in two organs
        for k, mask in enumerate(masks, start=1):
            assert mask.any()
            assert np.array_equal(labels.data == k, mask)

    def test_impossible_request_still_raises(self):
        with pytest.raises(PlacementFailure):
            gen_phantom(PhantomSpec(dims=(16, 16, 16), n_organs=30, seed=0))


class TestGenPair:
    def test_identity_pair_is_equal(self):
        spec = PhantomSpec(dims=(32, 32, 32), n_organs=2, seed=8)
        from voxelmatch.geometry import RigidTransform

        pair = gen_pair(spec, RigidTransform.identity(), "identity")
        np.testing.assert_allclose(pair.volume_b.data, pair.volume_a.data, atol=1e-5)
        np.testing.assert_array_equal(pair.labels_b.data, pair.labels_a.data)

    def test_translation_moves_landmarks_exactly(self):
        spec = PhantomSpec(dims=(48, 48, 48), seed=9)
        T = rigid_about(np.eye(3), center=(0, 0, 0), shift=(4.0, -2.0, 6.0))
        pair = gen_pair(spec, T, "identity")
        for (na, pa), (nb, pb) in zip(pair.landmarks_a, pair.landmarks_b):
            assert na == nb
            np.testing.assert_allclose(
                [pb.x - pa.x, pb.y - pa.y, pb.z - pa.z], [4.0, -2.0, 6.0], atol=1e-9
            )

    def test_landmarks_follow_transform_through_resampled_volume(self):
        spec = PhantomSpec(dims=(48, 48, 48), seed=10)
        T = rigid_about(
            rotation_matrix((0, 1, 0), np.deg2rad(7)), center=center_of(spec), shift=(3, 1, -2)
        )
        pair = gen_pair(spec, T, "identity")
        # the brightest organ's center must appear at the transformed location:
        # sample labels at the transformed centers and verify the organ id
        for name, p in pair.landmarks_b:
            if not name.endswith("c"):
                continue
            k = int(name[1:-1])
            vox = pair.volume_b.geometry.physical_to_voxel(p.to_array())
            iz, iy, ix = round(vox[2]), round(vox[1]), round(vox[0])
            assert pair.labels_b.data[iz, iy, ix] == k

    def test_inverted_remap_reverses_organ_rank_order(self):
        spec = PhantomSpec(dims=(48, 48, 48), n_organs=5, seed=11)
        from voxelmatch.geometry import RigidTransform

        plain = gen_pair(spec, RigidTransform.identity(), "identity")
        remapped = gen_pair(spec, RigidTransform.identity(), "inverted")
        np.testing.assert_array_equal(plain.labels_b.data, remapped.labels_b.data)
        means_plain, means_remap = [], []
        for k in range(1, 6):
            mask = plain.labels_b.data == k
            means_plain.append(plain.volume_b.data[mask].mean())
            means_remap.append(remapped.volume_b.data[mask].mean())
        order_plain = np.argsort(means_plain)
        order_remap = np.argsort(means_remap)
        np.testing.assert_array_equal(order_plain, order_remap[::-1])

    def test_corruption_changes_intensity_not_geometry(self):
        spec = PhantomSpec(dims=(48, 48, 48), seed=12)
        from voxelmatch.geometry import RigidTransform

        _, _, lms = gen_phantom(spec)
        target = lms[0][1]
        clean = gen_pair(spec, RigidTransform.identity(), "identity")
        corrupted = gen_pair(
            spec, RigidTransform.identity(), "identity",
            corruptions=(Corruption(target, 5.0, "invert"),),
        )
        np.testing.assert_array_equal(clean.labels_b.data, corrupted.labels_b.data)
        assert clean.landmarks_b == corrupted.landmarks_b
        diff = np.abs(clean.volume_b.data - corrupted.volume_b.data)
        changed = np.argwhere(diff > 1e-6)[:, ::-1]  # (x, y, z)
        assert len(changed) > 0
        center = target.to_array()
        dists = np.linalg.norm(changed - center, axis=1)
        assert dists.max() <= 5.0 + 1.0  # sphere radius plus voxel quantization

    def test_occlusion_flattens_sphere(self):
        spec = PhantomSpec(dims=(48, 48, 48), seed=13)
        from voxelmatch.geometry import RigidTransform

        _, _, lms = gen_phantom(spec)
        target = lms[0][1]
        pair = gen_pair(
            spec, RigidTransform.identity(), "identity",
            corruptions=(Corruption(target, 4.0, "occlude"),),
        )
        vox = pair.volume_b.geometry.physical_to_voxel(target.to_array())
        iz, iy, ix = round(vox[2]), round(vox[1]), round(vox[0])
        patch = pair.volume_b.data[iz - 1:iz + 2, iy - 1:iy + 2, ix - 1:ix + 2]
        assert patch.std() < 1e-6

    def test_fov_crop_keeps_physical_coordinates(self):
        from voxelmatch.volume import Box3

        spec = PhantomSpec(dims=(48, 48, 48), seed=14)
        T = rigid_about(np.eye(3), center=(0, 0, 0), shift=(2.0, 0.0, 0.0))
        box = Box3((8, 8, 12), (40, 40, 36))
        pair = gen_pair(spec, T, "identity", fov_box=box)
        assert pair.volume_b.geometry.dims == (33, 33, 25)
        np.testing.assert_allclose(pair.volume_b.geometry.origin, (8.0, 8.0, 12.0))
        # landmarks stay in physical mm, unaffected by cropping
        for (na, pa), (nb, pb) in zip(pair.landmarks_a, pair.landmarks_b):
            np.testing.assert_allclose(pb.x - pa.x, 2.0, atol=1e-9)

    def test_insufficient_overlap_rejected(self):
        spec = PhantomSpec(dims=(32, 32, 32), n_organs=2, seed=15)
        T = rigid_about(np.eye(3), center=(0, 0, 0), shift=(200.0, 0.0, 0.0))
        with pytest.raises(InsufficientOverlap):
            gen_pair(spec, T, "identity")

    def test_unknown_remap_rejected(self):
        spec = PhantomSpec(dims=(32, 32, 32), n_organs=2, seed=16)
        from voxelmatch.geometry import RigidTransform

        with pytest.raises(ValueError):
            gen_pair(spec, RigidTransform.identity(), "sepia")

    def test_propagated_landmarks_match_discretized_structures(self):
        """Transformed landmark positions line up with organ voxels in B
        within half a voxel of discretization."""
        spec = PhantomSpec(dims=(48, 48, 48), seed=17)
        T = rigid_about(
            rotation_matrix((1, 0, 0), np.deg2rad(5)), center=center_of(spec), shift=(2, 3, 1)
        )
        pair = gen_pair(spec, T, "identity")
        for name, pb in pair.landmarks_b:
            if not name.endswith("c"):
                continue
            k = int(name[1:-1])
            vox = pair.volume_b.geometry.physical_to_voxel(pb.to_array())
            organ = np.argwhere(pair.labels_b.data == k)[:, ::-1]
            nearest = np.min(np.linalg.norm(organ - vox, axis=1))
            assert nearest <= 0.5 * np.sqrt(3) + 1e-9
