"""Tests for volume types, EVF I/O, resampling, sampling, masking, cropping."""

import io
import struct
import zlib

import numpy as np
import pytest
from scipy import ndimage

from voxelmatch.errors import (
    BadMagic,
    ChecksumMismatch,
    DimensionOverflow,
    EmptyBox,
    EmptyMask,
    MalformedFile,
    NonUnitInput,
    OutOfBounds,
    TruncatedFile,
    UnsupportedVersion,
)
from voxelmatch.geometry import AffineTransform, rigid_about, rotation_matrix
from voxelmatch.losses import _check_unit
from voxelmatch.phantom import PhantomSpec, gen_pair, gen_phantom
from voxelmatch.volume import (
    Box3,
    EmbeddingVolume,
    LabelVolume,
    ScalarVolume,
    VolumeGeometry,
    body_mask,
    crop,
    dilate_box,
    half_geometry,
    mapped_inside,
    mask_bbox,
    read_volume,
    resample,
    row_norms,
    trilinear_sample_many,
    unit_rows,
    write_volume,
    z_slabs,
)


ZERO_SUBS_OFFSET = 49  # magic, kind, dtype, reserved, dims, channels, spacing, origin, normalized


def roundtrip(vol):
    buf = io.BytesIO()
    write_volume(vol, buf)
    buf.seek(0)
    return read_volume(buf), buf.getvalue()


class TestEvfIO:
    def test_scalar_roundtrip_bit_identical(self):
        rng = np.random.default_rng(0)
        vol = ScalarVolume(
            VolumeGeometry((4, 4, 4), (1.5, 2.0, 2.5), (1.0, -2.0, 3.0)),
            rng.normal(size=(4, 4, 4)).astype(np.float32),
        )
        back, raw1 = roundtrip(vol)
        assert back.data.tobytes() == vol.data.tobytes()
        assert back.geometry == vol.geometry
        buf2 = io.BytesIO()
        write_volume(back, buf2)
        assert buf2.getvalue() == raw1

    def test_label_roundtrip(self):
        vol = LabelVolume(
            VolumeGeometry((3, 2, 5)), np.arange(30, dtype=np.uint16).reshape(5, 2, 3)
        )
        back, _ = roundtrip(vol)
        assert isinstance(back, LabelVolume)
        assert back.data.tobytes() == vol.data.tobytes()

    def test_embedding_roundtrip_preserves_flags(self):
        rng = np.random.default_rng(1)
        data = unit_rows(rng.normal(size=(27, 2)))[0].reshape(3, 3, 3, 2).astype(np.float32)
        emb = EmbeddingVolume(
            VolumeGeometry((3, 3, 3), (0.5, 0.5, 2.0), (0.0, 0.0, -7.0)), data, normalized=True
        )
        back, _ = roundtrip(emb)
        assert isinstance(back, EmbeddingVolume)
        assert back.normalized is True
        assert back.geometry.spacing == emb.geometry.spacing
        assert back.data.tobytes() == emb.data.tobytes()

    def test_embedding_roundtrip_keeps_zero_substitutions(self):
        data = np.zeros((2, 3, 4, 3), np.float32)
        data[..., 0] = 1.0
        emb = EmbeddingVolume(VolumeGeometry((4, 3, 2)), data, normalized=True, zero_substitutions=24)
        back, raw = roundtrip(emb)
        assert back.zero_substitutions == 24
        assert struct.unpack_from("<I", raw, ZERO_SUBS_OFFSET) == (24,)

    def test_file_without_a_substitution_count_reads_zero(self):
        # files written before the count was stored have zeros in all 7 pad bytes
        g = VolumeGeometry((2, 2, 1), (1.0, 1.0, 2.0))
        payload = np.full((1, 2, 2, 1), 1.0, "<f4").tobytes()
        old_header = struct.pack("<4sBBHIIIIffffffB7x", b"EVF1", 3, 1, 0, 2, 2, 1, 1, *g.spacing, *g.origin, 1)
        raw = old_header + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        back = read_volume(io.BytesIO(raw))
        assert back.zero_substitutions == 0
        assert back.data.tobytes() == payload

    @pytest.mark.parametrize("kind,count", [("embedding", 9), ("scalar", 1), ("label", 1)])
    def test_substitution_count_out_of_range_is_malformed(self, kind, count):
        g = VolumeGeometry((2, 2, 2))
        vol = {
            "embedding": EmbeddingVolume(g, np.ones((2, 2, 2, 1), np.float32), normalized=True),
            "scalar": ScalarVolume(g, np.zeros((2, 2, 2), np.float32)),
            "label": LabelVolume(g, np.zeros((2, 2, 2), np.uint16)),
        }[kind]
        _, raw = roundtrip(vol)
        broken = bytearray(raw)
        struct.pack_into("<I", broken, ZERO_SUBS_OFFSET, count)  # 8 voxels
        with pytest.raises(MalformedFile):
            read_volume(io.BytesIO(bytes(broken)))

    def test_bad_magic(self):
        _, raw = roundtrip(ScalarVolume(VolumeGeometry((2, 2, 2)), np.zeros((2, 2, 2), np.float32)))
        broken = b"XXXX" + raw[4:]
        with pytest.raises(BadMagic):
            read_volume(io.BytesIO(broken))

    def test_truncated(self):
        _, raw = roundtrip(ScalarVolume(VolumeGeometry((2, 2, 2)), np.zeros((2, 2, 2), np.float32)))
        with pytest.raises(TruncatedFile):
            read_volume(io.BytesIO(raw[:20]))
        with pytest.raises(TruncatedFile):
            read_volume(io.BytesIO(raw[:-6]))

    def test_unknown_kind(self):
        _, raw = roundtrip(ScalarVolume(VolumeGeometry((2, 2, 2)), np.zeros((2, 2, 2), np.float32)))
        broken = raw[:4] + bytes([9]) + raw[5:]
        with pytest.raises(UnsupportedVersion):
            read_volume(io.BytesIO(broken))

    def test_dimension_overflow(self):
        _, raw = roundtrip(ScalarVolume(VolumeGeometry((2, 2, 2)), np.zeros((2, 2, 2), np.float32)))
        huge = (2**30).to_bytes(4, "little")
        broken = raw[:8] + huge * 3 + raw[20:]
        with pytest.raises(DimensionOverflow):
            read_volume(io.BytesIO(broken))

    def test_payload_corruption_detected(self):
        rng = np.random.default_rng(2)
        vol = ScalarVolume(VolumeGeometry((3, 3, 3)), rng.normal(size=(3, 3, 3)).astype(np.float32))
        _, raw = roundtrip(vol)
        flipped = bytearray(raw)
        flipped[60] ^= 0x10  # inside the payload
        with pytest.raises(ChecksumMismatch):
            read_volume(io.BytesIO(bytes(flipped)))

    def test_file_path_io(self, tmp_path):
        vol = ScalarVolume(VolumeGeometry((2, 3, 4)), np.ones((4, 3, 2), np.float32))
        path = tmp_path / "vol.evf"
        write_volume(vol, path)
        back = read_volume(path)
        assert back.data.tobytes() == vol.data.tobytes()


class TestResample:
    def test_identity_spacing(self):
        rng = np.random.default_rng(3)
        vol = ScalarVolume(VolumeGeometry((6, 5, 4), (2.0, 2.0, 2.0)), rng.normal(size=(4, 5, 6)).astype(np.float32))
        out = resample(vol, 2.0)
        assert out.geometry.dims == vol.geometry.dims
        np.testing.assert_allclose(out.data, vol.data, atol=1e-6)

    def test_constant_preserved(self):
        vol = ScalarVolume(VolumeGeometry((5, 5, 5), (1.0, 1.0, 1.0)), np.full((5, 5, 5), 3.25, np.float32))
        out = resample(vol, (0.7, 1.3, 2.0))
        np.testing.assert_allclose(out.data, 3.25, atol=1e-6)

    def test_linear_ramp_matches_analytic(self):
        nx = 16
        geom = VolumeGeometry((nx, 4, 4), (2.0, 2.0, 2.0))
        x_mm = np.arange(nx) * 2.0
        data = np.broadcast_to(x_mm, (4, 4, nx)).astype(np.float32)
        vol = ScalarVolume(geom, data.copy())
        out = resample(vol, 1.0)
        xs = np.arange(out.geometry.dims[0]) * 1.0
        interior = xs <= (nx - 1) * 2.0  # beyond the last voxel center clamps
        expected = xs[interior]
        np.testing.assert_allclose(out.data[1, 1, interior], expected, atol=1e-5)

    @pytest.mark.parametrize("new_spacing", [0.0, -2.0, np.nan, np.inf, (2.0, np.nan, 2.0), (2.0, 2.0, np.inf)])
    def test_new_spacing_must_be_positive_and_finite(self, new_spacing):
        vol = ScalarVolume(VolumeGeometry((6, 5, 4)), np.zeros((4, 5, 6), np.float32))
        with pytest.raises(ValueError, match="new spacing must be positive and finite"):
            resample(vol, new_spacing)

    def test_resample_is_idempotent_at_same_spacing(self):
        rng = np.random.default_rng(4)
        vol = ScalarVolume(VolumeGeometry((6, 6, 6), (1.0, 1.0, 1.0)), rng.normal(size=(6, 6, 6)).astype(np.float32))
        once = resample(vol, 1.5)
        twice = resample(once, 1.5)  # the same spacing copies every voxel
        assert np.array_equal(once.data, twice.data)


def full_grid_points(geom):
    """Oracle: every voxel index of ``geom`` as (x, y, z) rows from three full-grid meshgrids."""
    zz, yy, xx = np.meshgrid(*(np.arange(geom.dims[i], dtype=np.float64) for i in (2, 1, 0)), indexing="ij")
    return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)


def resample_full_grid(vol, new_spacing):
    """Oracle: ``resample`` from full-grid meshgrids in one ``map_coordinates`` call on a float64 copy."""
    g = vol.geometry
    new_spacing = (float(new_spacing),) * 3 if np.isscalar(new_spacing) else new_spacing
    new_dims = tuple(
        max(1, int(np.floor(g.dims[i] * g.spacing[i] / new_spacing[i] + 0.5))) for i in range(3)
    )
    axes = [np.arange(new_dims[i]) * new_spacing[i] / g.spacing[i] for i in range(3)]
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    out = ndimage.map_coordinates(vol.data.astype(np.float64), [zz, yy, xx], order=1, mode="nearest")
    return new_dims, out.astype(np.float32)


def mapped_inside_full_grid(geom, transform, other):
    """Oracle: ``mapped_inside`` over the full-grid rows of ``geom`` at once."""
    mapped = other.physical_to_voxel(transform.apply_array(geom.voxel_to_physical(full_grid_points(geom))))
    return other.in_grid(mapped).reshape(geom.shape_zyx)


def voxel_to_physical_rows(geom, pts):
    """Oracle: ``voxel_to_physical`` as row-major arithmetic on 3-long rows."""
    out = np.asarray(pts, dtype=np.float64) * np.asarray(geom.spacing)
    out += np.asarray(geom.origin)
    return out


def physical_to_voxel_rows(geom, pts):
    """Oracle: ``physical_to_voxel`` as row-major arithmetic on 3-long rows."""
    out = np.asarray(pts, dtype=np.float64) - np.asarray(geom.origin)
    out /= np.asarray(geom.spacing)
    return out


def in_grid_rows(geom, pts):
    """Oracle: ``in_grid`` as row-major comparisons on 3-long rows."""
    lim = np.asarray(geom.dims, dtype=np.float64) - 1.0
    ok = (pts >= -1e-9) & (pts <= lim + 1e-9)
    return ok[:, 0] & ok[:, 1] & ok[:, 2]


ORACLE_GEOMETRIES = [
    VolumeGeometry((16, 16, 16)),
    VolumeGeometry((23, 17, 29), (2.0, 2.0, 2.0), (1.0, -3.0, 4.0)),
    VolumeGeometry((20, 25, 18), (0.7, 1.3, 2.9), (5.25, 2.1, -1.7)),
]


def coordinate_layouts(geom, rng):
    """A point (3,), C- and F-ordered (N, 3) rows, and no rows, as (name, points) pairs.
    The rows straddle the grid, and a tenth of them sit within 2e-9 of a face."""
    lim = np.asarray(geom.dims, dtype=np.float64) - 1.0
    rows = rng.uniform(-2.0, lim + 2.0, (300, 3))
    near = rng.choice([-2e-9, -5e-10, 0.0, 5e-10, 2e-9], size=(30, 3))
    rows[::10] = np.where(rng.random((30, 3)) < 0.5, near, lim + near)
    return [
        ("point", rows[0].copy()),
        ("C-rows", rows),
        ("F-rows", np.asfortranarray(rows)),
        ("no-rows", np.zeros((0, 3))),
    ]


class TestGridMapOracles:
    """The component-major grid maps give the row-major oracles bit for bit."""

    @pytest.mark.parametrize("geom", ORACLE_GEOMETRIES, ids=["unit", "2mm", "anisotropic"])
    def test_maps_match_the_row_major_oracles(self, geom):
        rng = np.random.default_rng(sum(geom.dims))
        for name, pts in coordinate_layouts(geom, rng):
            for got, want in [
                (geom.voxel_to_physical(pts), voxel_to_physical_rows(geom, pts)),
                (geom.physical_to_voxel(pts), physical_to_voxel_rows(geom, pts)),
            ]:
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), name
            if pts.ndim == 2:
                inside = geom.in_grid(pts)
                assert np.array_equal(inside, in_grid_rows(geom, pts)), name
                assert len(pts) == 0 or 0 < inside.sum() < len(pts), name

    def test_grid_rows_are_component_major(self):
        geom = ORACLE_GEOMETRIES[2]
        rows = geom.voxel_points(slice(3, 7))
        assert rows.shape == (4 * 20 * 25, 3) and rows.flags.f_contiguous
        rig = rigid_about(rotation_matrix((0.2, 0.4, 1.0), 0.3), (10.0, 10.0, 10.0), (1.0, 2.0, 3.0))
        aff = AffineTransform(rig.rotation * 1.1, rig.translation)
        for pts in (rows, np.ascontiguousarray(rows)):
            assert geom.voxel_to_physical(pts).flags.f_contiguous
            assert rig.apply_array(pts).flags.f_contiguous
            assert aff.apply_array(pts).flags.f_contiguous

    @pytest.mark.parametrize("spacing,origin", [
        ((0.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ((1.0, -1.0, 1.0), (0.0, 0.0, 0.0)),
        ((np.nan,) * 3, (0.0, 0.0, 0.0)),
        ((1.0, 1.0, np.inf), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (np.nan, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, -np.inf, 0.0)),
    ])
    def test_geometry_needs_positive_finite_spacing_and_a_finite_origin(self, spacing, origin):
        with pytest.raises(ValueError, match="spacing must be positive and finite|origin must be finite"):
            VolumeGeometry((8, 8, 8), spacing, origin)


class TestSlabs:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 3, 5), (40, 33, 37), (3, 600, 700)])
    def test_slabs_cover_the_grid_in_order_within_the_bound(self, slab_voxels, shape):
        slabs = list(z_slabs(shape))
        assert [s.start for s in slabs] == [0] + [s.stop for s in slabs[:-1]]
        assert slabs[-1].stop == shape[0]
        plane = shape[1] * shape[2]
        bound = slab_voxels or 2**17
        assert all((s.stop - s.start) * plane <= bound or s.stop - s.start == 1 for s in slabs)

    @pytest.mark.parametrize("dims", [(5, 7, 6), (1, 4, 9), (13, 1, 2)])
    def test_voxel_points_of_planes_are_rows_of_the_full_grid(self, dims):
        geom = VolumeGeometry(dims)
        full = full_grid_points(geom)
        assert np.array_equal(geom.voxel_points(), full)
        plane = dims[0] * dims[1]
        for lo, hi in [(0, 1), (1, dims[2]), (dims[2] - 1, dims[2])]:
            assert np.array_equal(geom.voxel_points(slice(lo, hi)), full[lo * plane:hi * plane])

    @pytest.mark.parametrize("dims,spacing,new_spacing,on_lattice", [
        ((40, 40, 40), 1.0, 2.0, True),
        ((41, 39, 35), 2.0, 4.0, True),
        ((37, 30, 44), 1.0, 3.0, True),
        ((33, 45, 28), 1.0, (2.0, 1.0, 3.0), True),
        ((24, 26, 22), 1.5, 1.5, True),
        ((37, 30, 44), 2.0, 1.5, False),
        ((33, 45, 28), 1.0, (0.7, 1.3, 2.0), False),
        ((24, 26, 22), 1.5, 2.5, False),
    ])
    def test_resample_matches_the_full_grid_oracle(
        self, monkeypatch, slab_voxels, dims, spacing, new_spacing, on_lattice
    ):
        vol = gen_phantom(PhantomSpec(dims=dims, spacing=spacing, seed=33))[0]
        vol.data[::3, ::5, ::2] = -0.0  # interpolation gives +0.0 for these, so a copy must too
        passes = []
        interpolate = ndimage.map_coordinates

        def counting(*args, **kwargs):
            passes.append(1)
            return interpolate(*args, **kwargs)

        monkeypatch.setattr(ndimage, "map_coordinates", counting)
        out = resample(vol, new_spacing)
        assert (not passes) == on_lattice
        want_dims, want = resample_full_grid(vol, new_spacing)
        assert out.geometry.dims == want_dims
        assert out.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["rigid", "affine"])
    def test_mapped_inside_matches_the_full_grid_oracle(self, slab_voxels, kind):
        geom = VolumeGeometry((23, 17, 29), (2.0, 2.0, 2.0), (1.0, -3.0, 4.0))
        other = VolumeGeometry((20, 25, 18), (2.5, 2.0, 2.5), (5.0, 2.0, -1.0))
        rot = rotation_matrix((0.2, 0.4, 1.0), np.deg2rad(12.0))
        transform = rigid_about(rot, (23.0, 14.0, 30.0), (4.0, 6.0, -3.0))
        if kind == "affine":
            transform = AffineTransform(rot @ np.diag([1.1, 0.9, 1.05]), transform.translation)
        inside = mapped_inside(geom, (transform, other))
        assert 0 < inside.sum() < inside.size
        assert np.array_equal(inside, mapped_inside_full_grid(geom, transform, other))


class TestTrilinear:
    def make_emb(self, data, normalized=False):
        nz, ny, nx, d = data.shape
        return EmbeddingVolume(VolumeGeometry((nx, ny, nz)), data, normalized=normalized)

    def test_exact_at_voxel_centers(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 4, 4, 3))
        norm = data / np.linalg.norm(data, axis=3, keepdims=True)
        emb = self.make_emb(norm.astype(np.float32), normalized=True)
        for p in [(0, 0, 0), (3, 3, 3), (2, 1, 3)]:
            out = trilinear_sample_many(emb, p)[0]
            np.testing.assert_allclose(out, emb.data[p[2], p[1], p[0]], atol=1e-6)

    def test_midpoint_of_identical_vectors(self):
        data = np.zeros((1, 1, 2, 3))
        data[..., 1] = 1.0
        emb = self.make_emb(data, normalized=True)
        out = trilinear_sample_many(emb, (0.5, 0, 0))[0]
        np.testing.assert_allclose(out, [0, 1, 0], atol=1e-12)

    def test_midpoint_of_orthogonal_unit_vectors(self):
        # blend of e1 and e2 has norm 1/sqrt(2); renormalization restores unit length
        data = np.zeros((1, 1, 2, 3))
        data[0, 0, 0, 0] = 1.0
        data[0, 0, 1, 1] = 1.0
        emb = self.make_emb(data, normalized=True)
        out = trilinear_sample_many(emb, (0.5, 0, 0))[0]
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-12)

    def test_out_of_bounds(self):
        emb = self.make_emb(np.zeros((2, 2, 2, 1)))
        with pytest.raises(OutOfBounds):
            trilinear_sample_many(emb, (2.5, 0, 0))[0]

    def test_nan_coordinate_is_out_of_bounds(self):
        emb = self.make_emb(np.zeros((2, 2, 2, 1)))
        with pytest.raises(OutOfBounds):
            trilinear_sample_many(emb, [[0.5, 0.5, 0.5], [np.nan, 1.0, 1.0]])


def trilinear_inline_corners(emb, pts):
    """Oracle: ``trilinear_sample_many`` with each corner's flat index written out
    from its (x, y, z) index, as the sampler did before ``flat_index``."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    nx, ny, nz = emb.geometry.dims
    pts = np.clip(pts, 0.0, np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64))
    base = np.minimum(np.floor(pts).astype(np.int64), np.maximum(np.array([nx, ny, nz]) - 2, 0))
    frac = pts - base
    data = emb.data.reshape(-1, emb.channels)
    out = np.zeros((len(pts), emb.channels))
    steps = (min(1, nx - 1), min(1, ny - 1), min(1, nz - 1))
    for cx in (0, 1):
        wx = (1.0 - frac[:, 0]) if cx == 0 else frac[:, 0]
        for cy in (0, 1):
            wy = (1.0 - frac[:, 1]) if cy == 0 else frac[:, 1]
            for cz in (0, 1):
                wz = (1.0 - frac[:, 2]) if cz == 0 else frac[:, 2]
                w = wx * wy * wz
                if not np.any(w):
                    continue
                ix, iy, iz = (base[:, k] + c * steps[k] for k, c in enumerate((cx, cy, cz)))
                out += w[:, None] * data[(iz * ny + iy) * nx + ix]
    return unit_rows(out)[0] if emb.normalized else out


class TestFlatIndex:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (5, 4, 3), (33, 40, 31)])
    def test_round_trip_equals_ravel_multi_index(self, dims):
        geom = VolumeGeometry(dims)
        flat = np.arange(geom.n_voxels)
        xyz = geom.index_points(flat)
        assert xyz.shape == (geom.n_voxels, 3)
        want = np.ravel_multi_index((xyz[:, 2], xyz[:, 1], xyz[:, 0]), geom.shape_zyx)
        np.testing.assert_array_equal(want, flat)
        np.testing.assert_array_equal(geom.flat_index(xyz), flat)
        np.testing.assert_array_equal(xyz, np.argwhere(np.ones(geom.shape_zyx))[:, ::-1])

    def test_any_leading_shape_and_row_layout(self):
        geom = VolumeGeometry((5, 4, 3))
        flat = np.random.default_rng(2).integers(0, geom.n_voxels, size=(6, 7))
        xyz = geom.index_points(flat)
        assert xyz.shape == (6, 7, 3)
        np.testing.assert_array_equal(geom.flat_index(xyz), flat)
        np.testing.assert_array_equal(geom.flat_index(np.ascontiguousarray(xyz)), flat)
        assert geom.flat_index((1, 2, 1)) == 1 + 2 * 5 + 1 * 5 * 4


class TestTrilinearCorners:
    @pytest.mark.parametrize("dims", [(6, 5, 4), (1, 4, 3), (3, 1, 1), (1, 1, 1), (2, 7, 2)])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_samples_equal_the_inline_corner_oracle(self, dims, normalized):
        rng = np.random.default_rng(sum(dims))
        data = rng.normal(size=dims[::-1] + (5,))
        if normalized:
            data = unit_rows(data.reshape(-1, 5))[0].reshape(data.shape)
        emb = EmbeddingVolume(VolumeGeometry(dims), data, normalized=normalized)
        lattice = VolumeGeometry(dims).voxel_points()
        pts = np.concatenate([rng.uniform(0.0, np.array(dims) - 1.0, size=(200, 3)), lattice])
        got = trilinear_sample_many(emb, pts)
        assert np.array_equal(got, trilinear_inline_corners(emb, pts))


class TestNormalizedEmbeddingVolume:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0])
    def test_rows_neither_unit_nor_zero_are_rejected(self, bad):
        data = np.zeros((2, 2, 2, 3))
        data[..., 0] = 1.0
        data[1, 0, 1, 2] = bad
        data[0, 1, 1] = 0.0  # a zero row is allowed
        with pytest.raises(NonUnitInput):
            EmbeddingVolume(VolumeGeometry((2, 2, 2)), data, normalized=True)
        data[1, 0, 1, 2] = 0.0
        EmbeddingVolume(VolumeGeometry((2, 2, 2)), data, normalized=True)

    def test_substitutions_lie_between_zero_and_the_voxel_count(self):
        data = np.zeros((2, 3, 4, 2), np.float32)
        data[..., 0] = 1.0
        assert EmbeddingVolume(VolumeGeometry((4, 3, 2)), data, zero_substitutions=24).zero_substitutions == 24
        for count in (25, -1):
            with pytest.raises(ValueError, match="zero_substitutions"):
                EmbeddingVolume(VolumeGeometry((4, 3, 2)), data, zero_substitutions=count)


class TestNormalizeConcat:
    """``unit_rows``, the one normalization and zero-vector rule."""

    def test_simple_normalize(self):
        e, norms, zero = unit_rows(np.array([[2.0, 0.0, 0.0]]))
        np.testing.assert_allclose(e, [[1, 0, 0]])
        np.testing.assert_allclose(norms, [2.0])
        assert not zero.any()

    def test_zero_vector_rule(self):
        e, _, zero = unit_rows(np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]]))
        np.testing.assert_allclose(e, [[1, 0, 0], [0, 0.6, 0.8]])
        assert zero.tolist() == [True, False]

    def test_random_volume_all_unit(self):
        rng = np.random.default_rng(6)
        e, _, zero = unit_rows(rng.normal(size=(60, 8)))
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)
        assert not zero.any()


def edge_norm_rows(rng, d):
    """Rows of width ``d`` whose norms sit on, and one or two ulps either side
    of, the edges of both unit checks and of the zero-row rule, plus NaN and inf."""
    edges = [0.0, 1e-12, 1e-13, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 - 1e-3, 1.0 + 1e-3, 1.0, 0.5, 2.0]
    norms = [x for e in edges for x in (e, *np.nextafter(e, [np.inf, -np.inf]), e + 2e-16, e - 2e-16)]
    rows = rng.normal(size=(len(norms), d))
    rows *= (np.asarray(norms) / np.linalg.norm(rows, axis=1))[:, None]
    return np.concatenate([rows, np.full((1, d), np.nan), np.full((1, d), np.inf)])


class TestRowNormRule:
    """``row_norms``, the one norm rule of ``unit_rows`` and of both unit checks."""

    @pytest.mark.parametrize("d", [1, 3, 4, 11, 22])
    def test_unit_rows_norms_are_the_rule_and_near_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        v = rng.normal(size=(4000, d)) * np.exp(3.0 * rng.normal(size=(4000, 1)))
        v[::97] = 0.0
        e, norms, zero = unit_rows(v)
        assert norms.tobytes() == np.sqrt(np.einsum("ij,ij->i", v, v)).tobytes()
        assert norms.tobytes() == row_norms(v).tobytes()
        ref = np.linalg.norm(v, axis=1)
        assert np.abs(norms - ref).max() <= 4.5e-16 * ref.max(initial=0.0)
        live = ref > 0
        assert np.all(np.abs(norms[live] - ref[live]) <= 4.5e-16 * ref[live])
        assert zero.tolist() == (norms <= 1e-12).tolist() and zero[::97].all()
        assert np.array_equal(e[zero], np.eye(d)[np.zeros(zero.sum(), int)])

    @pytest.mark.parametrize("d", [3, 11])
    def test_unit_checks_reject_the_same_rows_as_before(self, d):
        rows = edge_norm_rows(np.random.default_rng(d), d)
        # the checks' rule before it moved into row_norms
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        volume_ok = (norms <= 1e-12) | (np.abs(norms - 1.0) <= 1e-4)
        loss_ok = np.abs(norms - 1.0) <= 1e-3
        assert volume_ok.any() and not volume_ok.all() and loss_ok.any() and not loss_ok.all()
        for row, v_ok, l_ok in zip(rows, volume_ok, loss_ok):
            try:
                EmbeddingVolume(VolumeGeometry((1, 1, 1)), row.reshape(1, 1, 1, d), normalized=True)
                assert v_ok
            except NonUnitInput:
                assert not v_ok
            try:
                _check_unit("row", row[None])
                assert l_ok
            except NonUnitInput:
                assert not l_ok


class TestBodyMask:
    def test_empty(self):
        vol = ScalarVolume(VolumeGeometry((4, 4, 4)), np.zeros((4, 4, 4), np.float32))
        with pytest.raises(EmptyMask):
            body_mask(vol, 0.5)

    @pytest.mark.parametrize("threshold", [-1.0, -np.inf])
    def test_no_background(self, threshold):
        # a threshold every voxel exceeds leaves no body boundary to find
        vol = ScalarVolume(VolumeGeometry((4, 4, 4)), np.zeros((4, 4, 4), np.float32))
        with pytest.raises(EmptyMask, match=f"every voxel exceeds threshold {threshold}"):
            body_mask(vol, threshold)

    def test_solid_ellipsoid_matches_analytic_membership(self):
        dims = (20, 18, 16)
        geom = VolumeGeometry(dims)
        zz, yy, xx = np.meshgrid(np.arange(dims[2]), np.arange(dims[1]), np.arange(dims[0]), indexing="ij")
        c = np.array([9.5, 8.5, 7.5])
        axes = np.array([7.0, 6.0, 5.0])
        inside = (
            ((xx - c[0]) / axes[0]) ** 2
            + ((yy - c[1]) / axes[1]) ** 2
            + ((zz - c[2]) / axes[2]) ** 2
        ) <= 1.0
        vol = ScalarVolume(geom, np.where(inside, 1.0, 0.0).astype(np.float32))
        mask, _ = body_mask(vol, 0.5)
        np.testing.assert_array_equal(mask.data.astype(bool), inside)

    def test_hollow_ellipsoid_interior_filled(self):
        dims = (20, 20, 20)
        geom = VolumeGeometry(dims)
        zz, yy, xx = np.meshgrid(np.arange(20), np.arange(20), np.arange(20), indexing="ij")
        r2 = ((xx - 9.5) / 7) ** 2 + ((yy - 9.5) / 7) ** 2 + ((zz - 9.5) / 7) ** 2
        shell = (r2 <= 1.0) & (r2 >= 0.4)
        vol = ScalarVolume(geom, np.where(shell, 1.0, 0.0).astype(np.float32))
        mask, _ = body_mask(vol, 0.5)
        assert mask.data[10, 10, 10] == 1  # per-slice hole fill closes the cavity

    def test_two_blobs_keep_larger(self):
        data = np.zeros((10, 10, 20), np.float32)
        data[3:7, 3:7, 2:8] = 1.0    # 4*4*6 = 96 voxels
        data[4:6, 4:6, 14:17] = 1.0  # 2*2*3 = 12 voxels
        vol = ScalarVolume(VolumeGeometry((20, 10, 10)), data)
        mask, _ = body_mask(vol, 0.5)
        assert mask.data[5, 5, 4] == 1
        assert mask.data[5, 5, 15] == 0


def body_mask_by_slice(vol, threshold):
    """Oracle: body_mask's rule with its holes filled by one 2-D call per z slice."""
    above = vol.data > threshold
    labeled, n = ndimage.label(above, structure=ndimage.generate_binary_structure(3, 1))
    if n > 1:
        counts = np.bincount(labeled.ravel())
        counts[0] = 0
        above = labeled == int(np.argmax(counts))
    filled = np.empty_like(above)
    for iz in range(above.shape[0]):
        filled[iz] = ndimage.binary_fill_holes(above[iz])
    return filled.astype(np.uint16)


def assert_body_mask_equals_by_slice(vol, threshold):
    """``body_mask`` against ``body_mask_by_slice``; returns the uint16 mask."""
    mask, box = body_mask(vol, threshold)
    got = mask.data
    assert got.dtype == np.uint16
    assert np.array_equal(got, body_mask_by_slice(vol, threshold))
    assert box == mask_bbox_by_nonzero(got)  # the box it returns is the mask's
    return got


def tube_block(nz, open_face):
    """A solid block with a square tube of air from one z face to the middle."""
    data = np.zeros((nz, 12, 12), np.float32)
    data[:, 2:10, 2:10] = 1.0
    tube = slice(0, nz // 2) if open_face == "first" else slice(nz // 2, nz)
    data[tube, 5:7, 5:7] = 0.0
    return ScalarVolume(VolumeGeometry((12, 12, nz)), data), tube


class TestBodyMaskSliceOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_volumes(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny, nz = (int(d) for d in rng.integers(1, 15, 3))
        data = ndimage.gaussian_filter(rng.random((nz, ny, nx)), rng.uniform(0.0, 1.5))
        vol = ScalarVolume(VolumeGeometry((nx, ny, nz)), data.astype(np.float32))
        threshold = float(np.quantile(vol.data, rng.uniform(0.2, 0.6)))
        assert_body_mask_equals_by_slice(vol, threshold)

    @pytest.mark.parametrize("open_face", ["first", "last"])
    def test_cavity_open_to_a_z_face_is_filled_in_every_slice(self, open_face):
        vol, tube = tube_block(9, open_face)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask[tube, 5:7, 5:7].all()

    @pytest.mark.parametrize("face", ["x0", "x1", "y0", "y1"])
    def test_hole_open_to_an_x_or_y_face_stays_unfilled(self, face):
        data = np.zeros((5, 12, 12), np.float32)
        data[:, 2:10, 2:10] = 1.0
        data[:, 5:7, 5:7] = 0.0  # an enclosed hole in every slice
        channel = {"x0": np.s_[2, 5:7, :7], "x1": np.s_[2, 5:7, 5:], "y0": np.s_[2, :7, 5:7],
                   "y1": np.s_[2, 5:, 5:7]}[face]
        data[channel] = 0.0  # slice 2's hole opens to one face
        vol = ScalarVolume(VolumeGeometry((12, 12, 5)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert not mask[channel].any()
        assert mask[[0, 1, 3, 4], 5:7, 5:7].all()

    @pytest.mark.parametrize("iz", [0, -1])
    def test_hole_in_the_first_or_last_slice_is_filled(self, iz):
        data = np.zeros((6, 10, 10), np.float32)
        data[:, 1:9, 1:9] = 1.0
        data[iz, 3:6, 4:7] = 0.0
        vol = ScalarVolume(VolumeGeometry((10, 10, 6)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask[:, 1:9, 1:9].all()

    def test_background_reaching_both_z_faces_only_is_filled(self):
        # a tube of air through the whole stack touches both z faces and no x or y face
        data = np.zeros((7, 11, 11), np.float32)
        data[:, 1:10, 1:10] = 1.0
        data[:, 4:7, 3:8] = 0.0
        vol = ScalarVolume(VolumeGeometry((11, 11, 7)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask[:, 1:10, 1:10].all()

    @pytest.mark.parametrize("remap", ["identity", "gamma"])
    def test_benchmark_size_scans(self, remap):
        # a 128^3 phantom pair resampled to the 64^3 working grid, as the align benchmark builds it
        truth = rigid_about(rotation_matrix((0.2, 1.0, 0.1), np.deg2rad(6.0)), (63.5,) * 3, (4.0, -3.0, 2.0))
        pair = gen_pair(PhantomSpec(dims=(128, 128, 128), seed=66), truth, remap)
        for scan in (pair.volume_a, pair.volume_b):
            vol = resample(scan, 2.0)
            assert vol.data.shape == (64, 64, 64)
            assert_body_mask_equals_by_slice(vol, 0.18)

    def test_one_slice_volume(self):
        data = np.zeros((1, 9, 9), np.float32)
        data[0, 1:8, 1:8] = 1.0
        data[0, 3:6, 3:6] = 0.0
        vol = ScalarVolume(VolumeGeometry((9, 9, 1)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask[0, 1:8, 1:8].all()


def block_with_holes(shape, body):
    """A block body at the ``body`` slices of a ``shape`` grid with an enclosed hole
    and a notch open to the block's edge in every slice."""
    data = np.zeros(shape, np.float32)
    data[body] = 1.0
    z, y, x = (range(*s.indices(n)) for s, n in zip(body, shape))
    data[z.start:z.stop, y.start + 2, x.start + 2] = 0.0  # enclosed
    data[z.start:z.stop, y.start, x.start + 3] = 0.0  # notch in the box's first row
    return ScalarVolume(VolumeGeometry(shape[::-1]), data)


class TestBodyMaskInsideTheBodyBox:
    """``body_mask`` labels holes only inside the body's box: the same mask as
    filling the holes of every whole slice."""

    @pytest.mark.parametrize("seed", [62, 66, 70])
    def test_benchmark_scans(self, seed):
        # the 64^3, 2 mm working grids of the align benchmark: the phantom itself
        # (identity) and its moved, gamma-remapped copy
        truth = rigid_about(rotation_matrix((0.3, 1.0, -0.2), np.deg2rad(7.0)), (63.5,) * 3, (-3.0, 5.0, 1.0))
        pair = gen_pair(PhantomSpec(dims=(128, 128, 128), seed=seed), truth, "gamma")
        for scan in (pair.volume_a, pair.volume_b):
            vol = resample(scan, 2.0)
            assert vol.data.shape == (64, 64, 64)
            assert_body_mask_equals_by_slice(vol, 0.18)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_volumes(self, seed):
        rng = np.random.default_rng(100 + seed)
        nx, ny, nz = (int(d) for d in rng.integers(1, 16, 3))
        data = ndimage.gaussian_filter(rng.random((nz, ny, nx)), rng.uniform(0.0, 1.5))
        vol = ScalarVolume(VolumeGeometry((nx, ny, nz)), data.astype(np.float32))
        assert_body_mask_equals_by_slice(vol, float(np.quantile(vol.data, rng.uniform(0.2, 0.8))))

    @pytest.mark.parametrize("body", [
        np.s_[1:5, 2:9, 0:7], np.s_[1:5, 2:9, 4:11],   # an x face
        np.s_[1:5, 0:6, 2:9], np.s_[1:5, 3:10, 2:9],   # a y face
        np.s_[0:3, 2:9, 2:9], np.s_[3:6, 2:9, 2:9],    # a z face
        np.s_[:, :, :],                                # every face
    ], ids=["x0", "x1", "y0", "y1", "z0", "z1", "all"])
    def test_body_touching_a_face(self, body):
        vol = block_with_holes((6, 10, 11), body)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        z, y, x = (range(*s.indices(n)) for s, n in zip(body, vol.data.shape))
        assert mask[z.start, y.start + 2, x.start + 2] == 1
        assert mask[z.start, y.start, x.start + 3] == 0

    def test_hole_whose_rim_lies_on_the_body_box(self):
        # a one-voxel ring: the hole's whole rim is the edge of the body's box
        data = np.zeros((3, 9, 9), np.float32)
        data[1, 2:7, 2:7] = 1.0
        data[1, 3:6, 3:6] = 0.0
        vol = ScalarVolume(VolumeGeometry((9, 9, 3)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask[1, 2:7, 2:7].all() and mask.sum() == 25

    def test_body_in_one_slice(self):
        data = np.zeros((5, 8, 9), np.float32)
        data[3, 1:7, 2:8] = 1.0
        data[3, 3:5, 4:6] = 0.0
        vol = ScalarVolume(VolumeGeometry((9, 8, 5)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask.sum() == 36 and mask[3].sum() == 36

    def test_two_components(self):
        # the smaller component, with its own hole, lies inside the larger's box
        data = np.zeros((4, 14, 14), np.float32)
        data[:, 1:13, 1:13] = 1.0
        data[:, 3:11, 3:11] = 0.0
        data[1:3, 5:9, 5:9] = 1.0
        data[1:3, 6:8, 6:8] = 0.0
        vol = ScalarVolume(VolumeGeometry((14, 14, 4)), data)
        mask = assert_body_mask_equals_by_slice(vol, 0.5)
        assert mask[:, 1:13, 1:13].all()


def mask_bbox_by_nonzero(data):
    """Oracle: the box of every non-zero voxel's indices, or None for an empty mask."""
    nz = np.nonzero(data)
    if len(nz[0]) == 0:
        return None
    return Box3(
        (int(nz[2].min()), int(nz[1].min()), int(nz[0].min())),
        (int(nz[2].max()), int(nz[1].max()), int(nz[0].max())),
    )


class TestMaskBoxFromProjections:
    def check(self, data):
        want = mask_bbox_by_nonzero(data)
        if want is None:
            with pytest.raises(EmptyBox):
                mask_bbox(data)
        else:
            assert mask_bbox(data) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in rng.integers(1, 12, 3))
        self.check((rng.random(shape) < rng.uniform(0.0, 0.05)).astype(np.uint16))

    def test_single_voxels(self):
        shape = (4, 5, 6)
        for flat in range(np.prod(shape)):
            data = np.zeros(shape, np.uint16)
            data.flat[flat] = 3
            self.check(data)

    def test_full_and_empty_grids(self):
        self.check(np.ones((3, 4, 5), np.uint16))
        self.check(np.zeros((3, 4, 5), np.uint16))
        self.check(np.zeros((1, 1, 1), np.uint16))

    def test_boxes_touching_every_face(self):
        for face in range(6):
            data = np.zeros((7, 8, 9), np.uint16)
            region = [slice(2, 5), slice(3, 6), slice(1, 4)]
            axis, last = divmod(face, 2)
            n = data.shape[axis]
            region[axis] = slice(n - 2, n) if last else slice(0, 2)
            data[tuple(region)] = 1
            data[3, 4, 2] = 1
            self.check(data)


class TestBoxesAndCrop:
    def test_mask_bbox(self):
        data = np.zeros((5, 6, 7), np.uint16)
        data[1:3, 2:5, 3:6] = 1
        box = mask_bbox(data)
        assert box.min == (3, 2, 1)
        assert box.max == (5, 4, 2)

    def test_mask_bbox_empty(self):
        with pytest.raises(EmptyBox):
            mask_bbox(np.zeros((2, 2, 2)))

    def test_dilate_zero_is_identity(self):
        box = Box3((1, 2, 3), (4, 5, 6))
        assert dilate_box(box, 0, (10, 10, 10)) == box

    def test_dilate_by_a_negative_margin_is_rejected(self):
        with pytest.raises(ValueError, match="margin must be >= 0"):
            dilate_box(Box3((1, 2, 3), (8, 8, 8)), -3, (10, 10, 10))

    def test_dilate_clamps(self):
        box = Box3((1, 1, 1), (2, 2, 2))
        out = dilate_box(box, 5, (4, 5, 6))
        assert out.min == (0, 0, 0)
        assert out.max == (3, 4, 5)

    def test_crop_full_box_identity(self):
        rng = np.random.default_rng(8)
        vol = ScalarVolume(VolumeGeometry((4, 5, 6)), rng.normal(size=(6, 5, 4)).astype(np.float32))
        out = crop(vol, Box3((0, 0, 0), (3, 4, 5)))
        np.testing.assert_array_equal(out.data, vol.data)
        assert out.geometry == vol.geometry

    def test_crop_preserves_physical_coordinates(self):
        geom = VolumeGeometry((8, 8, 8), (1.5, 2.0, 2.5), (10.0, -4.0, 0.5))
        vol = ScalarVolume(geom, np.zeros((8, 8, 8), np.float32))
        box = Box3((2, 3, 4), (6, 6, 6))
        out = crop(vol, box)
        src_phys = geom.voxel_to_physical(np.array([box.min], dtype=float))[0]
        crop_phys = out.geometry.voxel_to_physical(np.zeros((1, 3)))[0]
        np.testing.assert_allclose(crop_phys, src_phys, atol=1e-9)

    def test_crop_of_an_embedding_volume_is_a_type_error(self):
        emb = EmbeddingVolume(VolumeGeometry((4, 3, 2)), np.zeros((2, 3, 4, 2), np.float32))
        with pytest.raises(TypeError, match="cannot crop EmbeddingVolume"):
            crop(emb, Box3((0, 0, 0), (1, 0, 0)))

    def test_half_geometry(self):
        g = VolumeGeometry((7, 8, 9), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0))
        h = half_geometry(g)
        assert h.dims == (4, 4, 5)
        assert h.spacing == (4.0, 4.0, 4.0)
        assert h.origin == g.origin


class TestRoundTripFuzz:
    def test_fuzzed_roundtrips(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dims = tuple(int(d) for d in rng.integers(1, 5, 3))
            kind = rng.integers(0, 3)
            geom = VolumeGeometry(
                dims,
                tuple(float(s) for s in rng.uniform(0.1, 5.0, 3)),
                tuple(float(o) for o in rng.uniform(-50, 50, 3)),
            )
            shape = (dims[2], dims[1], dims[0])
            if kind == 0:
                vol = ScalarVolume(geom, rng.normal(size=shape).astype(np.float32))
            elif kind == 1:
                vol = LabelVolume(geom, rng.integers(0, 9, size=shape).astype(np.uint16))
            else:
                d = int(rng.integers(1, 5))
                vol = EmbeddingVolume(geom, rng.normal(size=(*shape, d)).astype(np.float32))
            back, raw = roundtrip(vol)
            buf = io.BytesIO()
            write_volume(back, buf)
            assert buf.getvalue() == raw
