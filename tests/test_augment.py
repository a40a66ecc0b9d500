"""Tests for intensity/geometric augmentation and patch-pair extraction."""

import math

import numpy as np
import pytest
from scipy import ndimage

from voxelmatch import augment
from voxelmatch.augment import (
    AugmentSpec,
    PatchPair,
    _geometric_augment,
    _intensity_augment,
    bezier_intensity,
    intensity_reverse,
    sample_patch_pair,
)
from voxelmatch.errors import VolumeTooSmall
from voxelmatch.geometry import AffineTransform, rotation_matrix
from voxelmatch.volume import Box3, LabelVolume, ScalarVolume, VolumeGeometry, crop, pull_back

IDENTITY_BEZIER = (1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)  # collinear controls: the identity curve


def random_volume(rng, dims=(12, 12, 12)):
    return ScalarVolume(
        VolumeGeometry(dims), rng.uniform(0, 1, size=(dims[2], dims[1], dims[0])).astype(np.float32)
    )


def bezier_point(control, t):
    """Direct de Casteljau evaluation of the curve point at parameter t."""
    x1, y1, x2, y2 = control
    pts = np.array([[0.0, 0.0], [x1, y1], [x2, y2], [1.0, 1.0]])
    for _ in range(3):
        pts = pts[:-1] + np.diff(pts, axis=0) * t
    return pts[0]


class TestBezier:
    def test_collinear_controls_are_identity(self):
        rng = np.random.default_rng(0)
        vol = random_volume(rng)
        out = bezier_intensity(vol, IDENTITY_BEZIER)
        np.testing.assert_allclose(out.data, vol.data, atol=1e-6)

    def test_s_curve_preserves_endpoints(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1, (6, 6, 6)).astype(np.float32)
        data[0, 0, 0] = 0.0
        data[5, 5, 5] = 1.0
        vol = ScalarVolume(VolumeGeometry((6, 6, 6)), data)
        out = bezier_intensity(vol, (0.0, 1.0, 1.0, 0.0))
        assert abs(float(out.data[0, 0, 0]) - 0.0) < 1e-6
        assert abs(float(out.data[5, 5, 5]) - 1.0) < 1e-6

    def test_matches_pointwise_curve_oracle(self):
        rng = np.random.default_rng(2)
        vol = random_volume(rng, (8, 8, 8))
        control = (0.2, 0.5, 0.7, 0.9)
        out = bezier_intensity(vol, control)
        lo, hi = float(vol.data.min()), float(vol.data.max())
        ts = np.linspace(0, 1, 20001)
        curve = np.array([bezier_point(control, t) for t in ts])
        for idx in [(0, 0, 0), (3, 4, 5), (7, 7, 7), (2, 6, 1)]:
            u = (float(vol.data[idx]) - lo) / (hi - lo)
            j = int(np.argmin(np.abs(curve[:, 0] - u)))
            expected = lo + curve[j, 1] * (hi - lo)
            assert abs(float(out.data[idx]) - expected) < 1e-4

    def test_constant_volume_identity(self):
        vol = ScalarVolume(VolumeGeometry((4, 4, 4)), np.full((4, 4, 4), 0.7, np.float32))
        out = bezier_intensity(vol, (0.1, 0.9, 0.2, 0.8))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_monotone_when_controls_sorted(self):
        rng = np.random.default_rng(3)
        vol = random_volume(rng)
        out = bezier_intensity(vol, (0.1, 0.05, 0.8, 0.9))
        order_in = np.argsort(vol.data.ravel(), kind="stable")
        mapped = out.data.ravel()[order_in]
        assert np.all(np.diff(mapped) >= -1e-6)


class TestReverse:
    def test_involution(self):
        rng = np.random.default_rng(4)
        vol = random_volume(rng)
        twice = intensity_reverse(intensity_reverse(vol))
        np.testing.assert_allclose(twice.data, vol.data, atol=1e-6)

    def test_constant_fixed(self):
        vol = ScalarVolume(VolumeGeometry((3, 3, 3)), np.full((3, 3, 3), 0.4, np.float32))
        out = intensity_reverse(vol)
        np.testing.assert_allclose(out.data, 0.4, atol=1e-7)

    def test_ramp_mirrors_analytically(self):
        nx = 10
        data = np.broadcast_to(np.linspace(0.0, 0.9, nx), (4, 4, nx)).astype(np.float32).copy()
        vol = ScalarVolume(VolumeGeometry((nx, 4, 4)), data)
        out = intensity_reverse(vol)
        np.testing.assert_allclose(out.data, 0.9 - data, atol=1e-6)


class TestGeometric:
    def test_zero_ranges_identity(self):
        rng = np.random.default_rng(5)
        vol = random_volume(rng)
        spec = AugmentSpec(rotation_degrees=0.0, scale_range=(1.0, 1.0),
                           blur_sigma_range=(0.0, 0.0), noise_sigma_range=(0.0, 0.0))
        out, transform, _ = _geometric_augment(vol, spec, seed=3)
        np.testing.assert_allclose(out.data, vol.data, atol=1e-6)
        np.testing.assert_allclose(transform.linear, np.eye(3), atol=1e-12)

    def test_quarter_turn_permutes_voxels_exactly(self):
        rng = np.random.default_rng(6)
        vol = random_volume(rng, (9, 9, 9))
        center = np.array([4.0, 4.0, 4.0])
        linear = rotation_matrix((0, 0, 1), np.pi / 2)
        transform = AffineTransform(linear, center - linear @ center)
        g = vol.geometry
        warped = np.empty(g.shape_zyx, dtype=np.float32)
        pull_back(g, transform, [(vol.data, warped, float(vol.data.min()))])
        out = ScalarVolume(g, warped)
        # out(y) = in(R^-1 (y - c) + c): voxel (x, y) receives (y, 8 - x)
        for x in range(9):
            for y in range(9):
                np.testing.assert_allclose(
                    out.data[3, y, x], vol.data[3, 8 - x, y], atol=1e-6
                )

    def test_recorded_transform_tracks_landmarks(self):
        rng = np.random.default_rng(7)
        dims = (16, 16, 16)
        data = np.zeros((16, 16, 16), np.float32)
        marker = (11, 6, 9)  # (x, y, z)
        data[marker[2], marker[1], marker[0]] = 1.0
        vol = ScalarVolume(VolumeGeometry(dims), data)
        spec = AugmentSpec(rotation_degrees=15.0, scale_range=(0.9, 1.1),
                           blur_sigma_range=(0.0, 0.0), noise_sigma_range=(0.0, 0.0))
        out, transform, _ = _geometric_augment(vol, spec, seed=11)
        predicted = transform.apply_array(np.array([marker], dtype=float))[0]
        # intensity-weighted centroid of the warped impulse locates its
        # continuous image; the argmax alone is quantized to the grid
        zz, yy, xx = np.nonzero(out.data > 1e-6)
        weights = out.data[zz, yy, xx].astype(np.float64)
        observed = np.array(
            [np.average(xx, weights=weights), np.average(yy, weights=weights),
             np.average(zz, weights=weights)]
        )
        assert np.linalg.norm(predicted - observed) <= 0.5


@pytest.fixture
def identity_intensity(monkeypatch):
    """Make ``sample_patch_pair``'s intensity step the identity; its draws still happen."""
    monkeypatch.setattr(augment, "_intensity_augment", lambda vol, spec, rng, aggressive: vol)


class TestPatchPair:
    def test_fixed_bezier_controls_are_no_setting(self):
        # the training mode alone picks the curve
        with pytest.raises(TypeError):
            AugmentSpec(bezier_control_points=IDENTITY_BEZIER)

    def test_identity_spec_full_overlap(self, identity_intensity):
        rng = np.random.default_rng(8)
        vol = random_volume(rng, (16, 16, 16))
        spec = AugmentSpec(
            rotation_degrees=0.0, scale_range=(1.0, 1.0), blur_sigma_range=(0.0, 0.0),
            noise_sigma_range=(0.0, 0.0), patch_size=(16, 16, 16),
        )
        pair = sample_patch_pair(vol, None, spec, seed=0)
        np.testing.assert_allclose(pair.patch_a.data, pair.patch_b.data, atol=1e-6)
        np.testing.assert_allclose(pair.map_ab.linear, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(pair.map_ab.translation, 0.0, atol=1e-9)
        assert pair.overlap_a.all()

    def test_translated_windows_map_by_offset(self, identity_intensity):
        rng = np.random.default_rng(9)
        vol = random_volume(rng, (20, 20, 20))
        spec = AugmentSpec(
            rotation_degrees=0.0, scale_range=(1.0, 1.0), blur_sigma_range=(0.0, 0.0),
            noise_sigma_range=(0.0, 0.0), patch_size=(12, 12, 12),
        )
        pair = sample_patch_pair(vol, None, spec, seed=1)
        # geometry is pure translation: the physical map must be the identity
        np.testing.assert_allclose(pair.map_ab.linear, np.eye(3), atol=1e-9)
        pts_a = np.argwhere(pair.overlap_a)[:, ::-1].astype(float)
        pts_b = pair.a_to_b_voxels(pts_a)
        offset = (
            np.asarray(pair.patch_a.geometry.origin) - np.asarray(pair.patch_b.geometry.origin)
        )
        np.testing.assert_allclose(pts_b - pts_a, np.broadcast_to(offset, pts_a.shape), atol=1e-9)

    def test_aggressive_pair_round_trips_correspondence(self):
        rng = np.random.default_rng(10)
        vol = random_volume(rng, (24, 24, 24))
        spec = AugmentSpec(patch_size=(16, 16, 16), rotation_degrees=12.0)
        pair = sample_patch_pair(vol, None, spec, seed=5, aggressive=True)
        pts_a = np.argwhere(pair.overlap_a)[:, ::-1].astype(float)
        sel = pts_a[rng.choice(len(pts_a), size=min(50, len(pts_a)), replace=False)]
        phys_b = pair.patch_b.geometry.voxel_to_physical(pair.a_to_b_voxels(sel))
        back = pair.patch_a.geometry.physical_to_voxel(pair.map_ab.inverse().apply_array(phys_b))
        assert np.abs(back - sel).max() < 0.5

    def test_volume_too_small(self):
        rng = np.random.default_rng(11)
        vol = random_volume(rng, (8, 8, 8))
        with pytest.raises(VolumeTooSmall):
            sample_patch_pair(vol, None, AugmentSpec(patch_size=(16, 16, 16)), seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        vol = random_volume(rng, (20, 20, 20))
        spec = AugmentSpec(patch_size=(12, 12, 12))
        p1 = sample_patch_pair(vol, None, spec, seed=77, aggressive=True)
        p2 = sample_patch_pair(vol, None, spec, seed=77, aggressive=True)
        assert p1.patch_a.data.tobytes() == p2.patch_a.data.tobytes()
        assert p1.patch_b.data.tobytes() == p2.patch_b.data.tobytes()
        np.testing.assert_array_equal(p1.overlap_a, p2.overlap_a)
        np.testing.assert_allclose(p1.map_ab.linear, p2.map_ab.linear, atol=0)

    def test_intensity_ops_do_not_move_geometry(self):
        rng = np.random.default_rng(13)
        vol = random_volume(rng)
        for op in (lambda v: bezier_intensity(v, (0.1, 0.3, 0.6, 0.9)), intensity_reverse):
            out = op(vol)
            assert out.geometry == vol.geometry
            # the location of the maximum moves only between max<->min, never elsewhere
            src_max = np.argmax(vol.data)
            assert np.argmax(out.data) in (src_max, np.argmin(vol.data))


# ---------------------------------------------------------------------------
# Full-grid oracles: the warp and overlap mask ``sample_patch_pair`` used
# before both moved to ``volume.pull_back`` and ``volume.mapped_inside``.
# ---------------------------------------------------------------------------

def source_map_full_grid(geometry, transform):
    """Every voxel of ``geometry`` in mm, its pre-image T^-1 in mm, and that in voxel units."""
    phys = geometry.voxel_to_physical(geometry.voxel_points())
    source = transform.inverse().apply_array(phys)
    return phys, source, geometry.physical_to_voxel(source)


def source_coords_full_grid(geometry, src_vox):
    """Per-axis (z, y, x) coordinates, snapped onto the grid within 1e-6."""
    coords = []
    for i in (2, 1, 0):
        lim = geometry.dims[i] - 1.0
        c = src_vox[:, i].copy()
        near = (c > -1e-6) & (c < lim + 1e-6)
        c[near] = np.clip(c[near], 0.0, lim)
        coords.append(c.reshape(geometry.shape_zyx))
    return coords


def overlap_mask_full_grid(source_self, win_self, win_other, map_self_other):
    phys, source, src_vox = source_self
    ok = win_self.in_grid(src_vox)
    ok &= win_other.in_grid(win_other.physical_to_voxel(source))
    ok &= win_other.in_grid(win_other.physical_to_voxel(map_self_other.apply_array(phys)))
    return ok.reshape(win_self.shape_zyx)


def geometric_augment_full_grid(vol, spec, seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= max(np.linalg.norm(axis), 1e-12)
    angle = math.radians(rng.uniform(-spec.rotation_degrees, spec.rotation_degrees))
    scale = rng.uniform(spec.scale_range[0], spec.scale_range[1])
    blur = rng.uniform(spec.blur_sigma_range[0], spec.blur_sigma_range[1])
    noise = rng.uniform(spec.noise_sigma_range[0], spec.noise_sigma_range[1])
    g = vol.geometry
    center = np.asarray(g.origin) + (np.asarray(g.dims, dtype=np.float64) - 1.0) / 2.0 * np.asarray(g.spacing)
    linear = scale * rotation_matrix(axis, angle)
    transform = AffineTransform(linear, center - linear @ center)
    src_map = source_map_full_grid(g, transform)
    data = vol.data
    if not (abs(angle) < 1e-12 and abs(scale - 1.0) < 1e-12):
        data = ndimage.map_coordinates(
            vol.data.astype(np.float64), source_coords_full_grid(g, src_map[2]), order=1,
            mode="constant", cval=float(vol.data.min()),
        ).astype(np.float32)
    data = data.astype(np.float64)
    if blur > 1e-6:
        data = ndimage.gaussian_filter(data, sigma=blur, mode="nearest")
    if noise > 1e-12:
        data = data + rng.normal(0.0, noise, size=data.shape)
    return ScalarVolume(g, data.astype(np.float32)), transform, src_map


def sample_patch_pair_full_grid(vol, labels, spec, seed, aggressive=False):
    g = vol.geometry
    ps = spec.patch_size
    rng = np.random.default_rng(seed)
    max_off = [g.dims[i] - ps[i] for i in range(3)]
    target = spec.min_overlap * ps[0] * ps[1] * ps[2]
    o_a = o_b = None
    for _ in range(200):
        ca = [int(rng.integers(0, m + 1)) for m in max_off]
        cb = [int(rng.integers(0, m + 1)) for m in max_off]
        span = np.prod([max(0, min(ca[i], cb[i]) + ps[i] - max(ca[i], cb[i])) for i in range(3)])
        if span >= target:
            o_a, o_b = ca, cb
            break
    if o_a is None:
        o_a = o_b = [m // 2 for m in max_off]
    box_a, box_b = (Box3(tuple(o), tuple(o[i] + ps[i] - 1 for i in range(3))) for o in (o_a, o_b))
    win_a, win_b = crop(vol, box_a), crop(vol, box_b)
    aug_a, t_a, src_a = geometric_augment_full_grid(win_a, spec, int(rng.integers(2**63)))
    aug_b, t_b, src_b = geometric_augment_full_grid(win_b, spec, int(rng.integers(2**63)))
    aug_a = _intensity_augment(aug_a, spec, rng, aggressive)
    aug_b = _intensity_augment(aug_b, spec, rng, aggressive)
    lab_a = None
    if labels is not None:
        coords = source_coords_full_grid(win_a.geometry, src_a[2])
        lab_a = LabelVolume(
            win_a.geometry,
            ndimage.map_coordinates(crop(labels, box_a).data, coords, order=0, mode="constant", cval=0),
        )
    map_ab = t_b.compose(t_a.inverse())
    overlap_a = overlap_mask_full_grid(src_a, win_a.geometry, win_b.geometry, map_ab)
    overlap_b = overlap_mask_full_grid(src_b, win_b.geometry, win_a.geometry, map_ab.inverse())
    return PatchPair(
        patch_a=aug_a, patch_b=aug_b, map_ab=map_ab, overlap_a=overlap_a, overlap_b=overlap_b, labels_a=lab_a
    )


# volume dims, AugmentSpec settings, aggressive, labelled
ORACLE_PAIRS = [
    ((24, 24, 24), dict(patch_size=(16, 16, 16)), False, True),
    ((24, 24, 24), dict(patch_size=(16, 16, 16)), True, False),
    ((26, 22, 30), dict(patch_size=(12, 9, 15), rotation_degrees=45.0), True, True),
    ((20, 28, 24), dict(patch_size=(15, 20, 10), rotation_degrees=45.0), False, True),
    ((30, 30, 30), dict(patch_size=(20, 20, 20), rotation_degrees=45.0, scale_range=(1.0, 1.0)), True, True),
    ((20, 20, 20), dict(patch_size=(12, 14, 10), rotation_degrees=0.0, scale_range=(1.0, 1.0)), False, True),
]


class TestPatchPairOracle:
    """``sample_patch_pair`` on z-slabs gives the full-grid warp and overlap masks bit for bit."""

    @pytest.mark.parametrize("dims,settings,aggressive,labelled", ORACLE_PAIRS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_pair_matches_the_full_grid_oracle(self, slab_voxels, dims, settings, aggressive, labelled, seed):
        rng = np.random.default_rng(40 + seed)
        vol = random_volume(rng, dims)
        labels = None
        if labelled:
            labels = LabelVolume(vol.geometry, rng.integers(0, 6, size=vol.data.shape))
        spec = AugmentSpec(**settings)
        want = sample_patch_pair_full_grid(vol, labels, spec, seed, aggressive)
        got = sample_patch_pair(vol, labels, spec, seed, aggressive)
        for side in ("patch_a", "patch_b"):
            assert getattr(got, side).geometry == getattr(want, side).geometry
            assert np.array_equal(getattr(got, side).data, getattr(want, side).data)
        assert np.array_equal(got.map_ab.linear, want.map_ab.linear)
        assert np.array_equal(got.map_ab.translation, want.map_ab.translation)
        assert np.array_equal(got.overlap_a, want.overlap_a)
        assert np.array_equal(got.overlap_b, want.overlap_b)
        assert 0 < got.overlap_a.sum() < got.overlap_a.size
        if labelled:
            assert got.labels_a.geometry == got.patch_a.geometry
            assert np.array_equal(got.labels_a.data, want.labels_a.data)
        else:
            assert got.labels_a is None
