"""Tests for the procedural phantom generator and pair construction."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from voxelmatch import phantom
from voxelmatch.errors import InsufficientOverlap, PlacementFailure
from voxelmatch.geometry import AffineTransform, Point3, rigid_about, rotation_matrix
from voxelmatch.phantom import (
    Corruption,
    PhantomSpec,
    gen_pair,
    gen_phantom,
)
from voxelmatch.volume import Box3, LabelVolume, ScalarVolume, VolumeGeometry, crop, z_slabs


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

        pair = gen_pair(spec, RigidTransform(np.eye(3), np.zeros(3)), "identity")
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

        plain = gen_pair(spec, RigidTransform(np.eye(3), np.zeros(3)), "identity")
        remapped = gen_pair(spec, RigidTransform(np.eye(3), np.zeros(3)), "inverted")
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
        clean = gen_pair(spec, RigidTransform(np.eye(3), np.zeros(3)), "identity")
        corrupted = gen_pair(
            spec, RigidTransform(np.eye(3), np.zeros(3)), "identity",
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
            spec, RigidTransform(np.eye(3), np.zeros(3)), "identity",
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

    def test_quarter_turn_about_the_centre_permutes_voxels_and_labels(self, slab_voxels):
        spec = PhantomSpec(dims=(33, 33, 33), seed=4)
        turn = rigid_about(rotation_matrix((0, 0, 1), np.pi / 2), center=center_of(spec))
        pair = gen_pair(spec, turn, "identity")
        # B(x, y, z) = A(R^-1 (p - c) + c) = A(y, 32 - x, z), and no face reads the fill value;
        # cos(pi / 2) is 6e-17 in the matrix, so trilinear weights of 1e-15 are left
        want = pair.volume_a.data.transpose(0, 2, 1)[:, :, ::-1]
        np.testing.assert_allclose(pair.volume_b.data, want, rtol=0, atol=1e-12)
        assert np.array_equal(pair.labels_b.data, pair.labels_a.data.transpose(0, 2, 1)[:, :, ::-1])

    def test_insufficient_overlap_rejected(self):
        spec = PhantomSpec(dims=(32, 32, 32), n_organs=2, seed=15)
        T = rigid_about(np.eye(3), center=(0, 0, 0), shift=(200.0, 0.0, 0.0))
        with pytest.raises(InsufficientOverlap):
            gen_pair(spec, T, "identity")

    def test_unknown_remap_rejected(self):
        spec = PhantomSpec(dims=(32, 32, 32), n_organs=2, seed=16)
        from voxelmatch.geometry import RigidTransform

        with pytest.raises(ValueError):
            gen_pair(spec, RigidTransform(np.eye(3), np.zeros(3)), "sepia")

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


def fill_ellipsoid_full_window(target, geom, center_mm, axes_mm, rot, value):
    """Oracle: ``_fill_ellipsoid`` over its whole bounding window at once, from three meshgrids."""
    spacing = np.asarray(geom.spacing)
    origin = np.asarray(geom.origin)
    c_vox = (np.asarray(center_mm) - origin) / spacing
    reach = np.max(axes_mm) / spacing
    lo = np.maximum(np.floor(c_vox - reach).astype(int) - 1, 0)
    hi = np.minimum(np.ceil(c_vox + reach).astype(int) + 1, np.asarray(geom.dims) - 1)
    if np.any(lo > hi):
        return
    zz, yy, xx = np.meshgrid(*(np.arange(lo[i], hi[i] + 1) for i in (2, 1, 0)), indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1) * spacing + origin - np.asarray(center_mm)
    inside = (((pts @ rot) / np.asarray(axes_mm)) ** 2).sum(axis=-1) <= 1.0
    target[lo[2]:hi[2] + 1, lo[1]:hi[1] + 1, lo[0]:hi[0] + 1][inside] = value


def add_texture_meshgrid(data, geom, rng, scale_mm, amplitude, n_blobs=60):
    """Oracle: ``_add_texture`` with each blob's squared distance summed over three full meshgrids."""
    spacing = np.asarray(geom.spacing)
    dims = np.asarray(geom.dims)
    for _ in range(n_blobs):
        c_vox = rng.uniform(0, dims - 1)
        sigma_mm = rng.uniform(0.5 * scale_mm, 1.5 * scale_mm)
        amp = rng.uniform(-amplitude, amplitude)
        sig_vox = sigma_mm / spacing
        reach = np.ceil(3 * sig_vox).astype(int)
        lo = np.maximum(np.floor(c_vox - reach).astype(int), 0)
        hi = np.minimum(np.ceil(c_vox + reach).astype(int), dims - 1)
        zz, yy, xx = np.meshgrid(*(np.arange(lo[i], hi[i] + 1) for i in (2, 1, 0)), indexing="ij")
        r2 = (
            ((xx - c_vox[0]) / sig_vox[0]) ** 2
            + ((yy - c_vox[1]) / sig_vox[1]) ** 2
            + ((zz - c_vox[2]) / sig_vox[2]) ** 2
        )
        data[lo[2]:hi[2] + 1, lo[1]:hi[1] + 1, lo[0]:hi[0] + 1] += amp * np.exp(-0.5 * r2)


def gen_pair_full_grid(spec, transform, modality_remap, fov_box=None, corruptions=()):
    """Oracle: ``gen_pair``'s (volume_b, labels_b) from full-grid meshgrids, source
    coordinates within 1e-6 of the grid snapped onto it, one ``map_coordinates``
    call per volume on a float64 copy of A, and full-grid spheres."""
    vol_a, lab_a, _ = gen_phantom(spec)
    g = vol_a.geometry
    ax = [np.arange(g.dims[i], dtype=np.float64) for i in range(3)]
    zz, yy, xx = np.meshgrid(ax[2], ax[1], ax[0], indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    src = g.physical_to_voxel(transform.inverse().apply_array(g.voxel_to_physical(pts)))
    lim = np.asarray(g.dims, dtype=np.float64) - 1.0
    near = (src > -1e-6) & (src < lim + 1e-6)
    src[near] = np.clip(src, 0.0, lim)[near]
    coords = [src[:, 2].reshape(zz.shape), src[:, 1].reshape(zz.shape), src[:, 0].reshape(zz.shape)]
    data_b = ndimage.map_coordinates(
        vol_a.data.astype(np.float64), coords, order=1, mode="constant", cval=spec.air_intensity,
    )
    labels_b = ndimage.map_coordinates(lab_a.data, coords, order=0, mode="constant", cval=0)
    data_b = phantom.MODALITY_REMAPS[modality_remap](data_b)
    lo, hi = float(data_b.min()), float(data_b.max())
    for c in corruptions:
        cv = g.physical_to_voxel(c.center.to_array())
        r2 = (
            ((xx - cv[0]) * g.spacing[0]) ** 2
            + ((yy - cv[1]) * g.spacing[1]) ** 2
            + ((zz - cv[2]) * g.spacing[2]) ** 2
        )
        sphere = r2 <= c.radius**2
        if c.kind == "invert":
            data_b[sphere] = (lo + hi) - data_b[sphere]
        else:
            data_b[sphere] = 0.5 * (lo + hi)
    vol_b, lab_b = ScalarVolume(g, data_b.astype(np.float32)), LabelVolume(g, labels_b)
    if fov_box is not None:
        vol_b, lab_b = crop(vol_b, fov_box), crop(lab_b, fov_box)
    return vol_b, lab_b


def oracle_transform(spec, kind):
    """A 7 degree turn about the grid centre plus a shift; "affine" also scales each axis a little."""
    rot = rotation_matrix((0.3, 1.0, 0.2), np.deg2rad(7.0))
    rigid = rigid_about(rot, center_of(spec), (3.0, -2.0, 1.5))
    if kind == "rigid":
        return rigid
    return AffineTransform(rot @ np.diag([1.05, 0.97, 1.02]), rigid.translation)


# dims, spacing, remap, transform, corruptions and FOV box
ORACLE_PAIRS = [
    ((40, 40, 40), 1.0, "identity", "rigid", False, False),
    ((37, 37, 37), 2.0, "inverted", "affine", True, True),
    ((37, 30, 44), 2.0, "gamma", "rigid", True, False),
    ((33, 45, 28), 1.0, "gamma", "affine", False, True),
    ((44, 36, 40), 1.0, "inverted", "rigid", True, True),
]


# cubic and non-cubic grids at 1 and 2 mm
PHANTOM_GRIDS = [((40, 40, 40), 1.0), ((36, 36, 36), 2.0), ((37, 30, 44), 2.0), ((33, 45, 28), 1.0)]


# centre and axes (mm) of ellipsoids whose form at voxel (4, 4, 4) of a 1 mm grid is
# within rounding of 1, so the order of its three terms decides if that voxel is inside
BOUNDARY_ELLIPSOIDS = [
    ((4.319907327301539, 4.688489682951995, 4.130874974396269), (0.7946352879193506, 1.600452165893403, 0.16197353621486396)),
    ((3.3991356716121546, 3.7680616635929756, 2.584959013436389), (0.8231573097756237, 0.48349259374235076, 2.906382150587784)),
]


class TestSlabOracles:
    """The z-slab fills, warp, remap and spheres give the full-grid arrays bit for bit,
    and the per-axis texture terms give the meshgrid sums."""

    @pytest.mark.parametrize("dims,spacing", PHANTOM_GRIDS)
    def test_fill_matches_the_full_window_oracle(self, monkeypatch, slab_voxels, dims, spacing):
        spec = PhantomSpec(dims=dims, spacing=spacing, seed=21)
        vol, labels, lms = gen_phantom(spec)
        monkeypatch.setattr(phantom, "_fill_ellipsoid", fill_ellipsoid_full_window)
        want_vol, want_labels, want_lms = gen_phantom(spec)
        assert np.array_equal(vol.data, want_vol.data)
        assert np.array_equal(labels.data, want_labels.data)
        assert lms == want_lms

    @pytest.mark.parametrize("center,axes", BOUNDARY_ELLIPSOIDS)
    def test_fill_sums_the_form_in_the_oracle_order(self, slab_voxels, center, axes):
        geom = VolumeGeometry((9, 9, 9))
        q = ((4.0 - np.asarray(center)) / np.asarray(axes)) ** 2
        assert ((q[0] + q[1]) + q[2] <= 1.0) != (q[0] + (q[1] + q[2]) <= 1.0)  # still on the edge
        got, want = np.zeros(geom.shape_zyx, np.uint16), np.zeros(geom.shape_zyx, np.uint16)
        phantom._fill_ellipsoid(got, geom, center, axes, np.eye(3), 1)
        fill_ellipsoid_full_window(want, geom, center, axes, np.eye(3), 1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dims,spacing", PHANTOM_GRIDS)
    def test_texture_matches_the_meshgrid_oracle(self, slab_voxels, dims, spacing):
        geom = VolumeGeometry(dims, (spacing,) * 3)
        # compared in float64, before the phantom's clip and float32 rounding could hide a difference
        got, want = np.full(geom.shape_zyx, 0.3), np.full(geom.shape_zyx, 0.3)
        phantom._add_texture(got, geom, np.random.default_rng(23), 6.0, 0.05)
        add_texture_meshgrid(want, geom, np.random.default_rng(23), 6.0, 0.05)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dims,spacing,remap,kind,corrupt,fov", ORACLE_PAIRS)
    def test_pair_matches_the_full_grid_oracle(self, slab_voxels, dims, spacing, remap, kind, corrupt, fov):
        spec = PhantomSpec(dims=dims, spacing=spacing, seed=40 + dims[2])
        transform = oracle_transform(spec, kind)
        corruptions = ()
        if corrupt:
            lms = gen_phantom(spec)[2]
            corruptions = (
                Corruption(lms[0][1], 3.0 * spacing, "invert"),
                Corruption(lms[3][1], 2.5 * spacing, "occlude"),
                Corruption(Point3(0.0, 0.0, 0.0), 6.0 * spacing, "invert"),  # cut by the grid's faces
            )
        box = Box3((2, 3, 1), (dims[0] - 3, dims[1] - 2, dims[2] - 4)) if fov else None
        pair = gen_pair(spec, transform, remap, fov_box=box, corruptions=corruptions)
        want_vol, want_labels = gen_pair_full_grid(spec, transform, remap, box, corruptions)
        assert pair.volume_b.geometry == want_vol.geometry
        assert np.array_equal(pair.volume_b.data, want_vol.data)
        assert np.array_equal(pair.labels_b.data, want_labels.data)
        assert pair.labels_b.data.max() > 0

    def test_benchmark_size_pair_matches_the_full_grid_oracle(self):
        spec = PhantomSpec(dims=(128, 128, 128), seed=66)
        transform = oracle_transform(spec, "rigid")
        lms = gen_phantom(spec)[2]
        corruptions = (Corruption(lms[0][1], 8.0, "invert"),)
        pair = gen_pair(spec, transform, "gamma", corruptions=corruptions)
        want_vol, want_labels = gen_pair_full_grid(spec, transform, "gamma", corruptions=corruptions)
        assert np.array_equal(pair.volume_b.data, want_vol.data)
        assert np.array_equal(pair.labels_b.data, want_labels.data)


@pytest.mark.parametrize("fov", [False, True])
def test_labels_b_is_warped_once_on_first_read(monkeypatch, slab_voxels, fov):
    spec = PhantomSpec(dims=(37, 30, 44), spacing=2.0, seed=84)
    transform = oracle_transform(spec, "rigid")
    box = Box3((2, 3, 1), (34, 27, 40)) if fov else None
    sources = []  # the dtype kind of each map_coordinates pass's source
    interpolate = ndimage.map_coordinates

    def counting(source, *args, **kwargs):
        sources.append(source.dtype.kind)
        return interpolate(source, *args, **kwargs)

    monkeypatch.setattr(ndimage, "map_coordinates", counting)
    n_slabs = len(list(z_slabs(VolumeGeometry(spec.dims).shape_zyx)))
    pair = gen_pair(spec, transform, "inverted", fov_box=box)
    assert sources == ["f"] * n_slabs
    first = pair.labels_b
    assert sources == ["f"] * n_slabs + ["u"] * n_slabs
    assert pair.labels_b is first
    assert len(sources) == 2 * n_slabs
    assert first.geometry == pair.volume_b.geometry


def test_gen_pair_peak_memory_stays_within_four_outputs():
    spec = PhantomSpec(dims=(128, 128, 128), seed=62)
    transform = oracle_transform(spec, "rigid")
    tracemalloc.start()
    try:
        pair = gen_pair(spec, transform, "gamma")
        pair.labels_b  # warped on first read, so its peak counts as gen_pair's
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = (pair.volume_a.data, pair.labels_a.data, pair.volume_b.data, pair.labels_b.data)
    assert peak <= 4 * sum(a.nbytes for a in outputs)
