"""Scalar, label, and embedding volumes with physical geometry.

Covers the EVF binary container (bit-exact round trips, CRC-checked payloads),
physical-space resampling, trilinear sampling of embedding grids, L2
normalization, body masking, and box cropping.

Data layout is fixed: arrays are indexed ``[z, y, x]`` (``[z, y, x, channel]``
for embeddings) in C order, which is also the on-disk payload order.
Voxel index ``i`` along an axis sits at physical position
``origin + i * spacing`` on that axis.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    BadMagic,
    ChecksumMismatch,
    DimensionOverflow,
    EmptyBox,
    EmptyMask,
    GeometryMismatch,
    NonUnitInput,
    OutOfBounds,
    TruncatedFile,
    UnsupportedVersion,
)

__all__ = [
    "VolumeGeometry",
    "ScalarVolume",
    "LabelVolume",
    "EmbeddingVolume",
    "Box3",
    "read_volume",
    "write_volume",
    "resample",
    "trilinear_sample",
    "trilinear_sample_many",
    "unit_rows",
    "l2_normalize",
    "concat_embeddings",
    "body_mask",
    "mask_bbox",
    "dilate_box",
    "crop",
    "half_geometry",
]

log = logging.getLogger(__name__)

_ZERO_NORM_EPS = 1e-12  # at or below this a voxel vector counts as zero (see unit_rows)


@dataclass(frozen=True)
class VolumeGeometry:
    """Grid dimensions (nx, ny, nz), spacing in mm, and physical origin (mm)."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        if any(d < 1 for d in dims):
            raise ValueError("volume dims must be >= 1")
        if any(s <= 0 for s in spacing):
            raise ValueError("voxel spacing must be positive")

    @property
    def shape_zyx(self) -> tuple[int, int, int]:
        return (self.dims[2], self.dims[1], self.dims[0])

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def voxel_to_physical(self, pts) -> np.ndarray:
        """Voxel coordinates (x, y, z order) to physical millimeters."""
        pts = np.asarray(pts, dtype=np.float64)
        return pts * np.asarray(self.spacing) + np.asarray(self.origin)

    def physical_to_voxel(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return (pts - np.asarray(self.origin)) / np.asarray(self.spacing)

    def voxel_points(self) -> np.ndarray:
        """Every voxel index as (N, 3) float64 (x, y, z) rows, in C order of the (z, y, x) data."""
        ax = [np.arange(self.dims[i], dtype=np.float64) for i in range(3)]
        zz, yy, xx = np.meshgrid(ax[2], ax[1], ax[0], indexing="ij")
        return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)

    def in_grid(self, pts) -> np.ndarray:
        """Per (x, y, z) voxel coordinate row: inside the grid, up to 1e-9 voxel."""
        lim = np.asarray(self.dims, dtype=np.float64) - 1.0
        return np.all((pts >= -1e-9) & (pts <= lim + 1e-9), axis=1)


@dataclass
class ScalarVolume:
    geometry: VolumeGeometry
    data: np.ndarray  # (nz, ny, nx) float32

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.shape != self.geometry.shape_zyx:
            raise ValueError(
                f"data shape {self.data.shape} does not match dims {self.geometry.dims}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("scalar volume contains non-finite values")


@dataclass
class LabelVolume:
    geometry: VolumeGeometry
    data: np.ndarray  # (nz, ny, nx) uint16, 0 = background

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.uint16)
        if self.data.shape != self.geometry.shape_zyx:
            raise ValueError(
                f"data shape {self.data.shape} does not match dims {self.geometry.dims}"
            )


@dataclass
class EmbeddingVolume:
    """Dense grid of D-dimensional vectors, typically at half the image resolution."""

    geometry: VolumeGeometry
    data: np.ndarray  # (nz, ny, nx, D)
    normalized: bool = False
    zero_substitutions: int = 0

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        if self.data.ndim != 4 or self.data.shape[:3] != self.geometry.shape_zyx:
            raise ValueError(
                f"data shape {self.data.shape} does not match dims {self.geometry.dims}"
            )
        if self.normalized:
            norms = np.linalg.norm(
                self.data.reshape(-1, self.data.shape[3]), axis=1
            )
            keep = norms > _ZERO_NORM_EPS
            if keep.any() and np.abs(norms[keep] - 1.0).max() > 1e-4:
                raise NonUnitInput("normalized embedding volume has non-unit vectors")

    @property
    def channels(self) -> int:
        return int(self.data.shape[3])


@dataclass(frozen=True)
class Box3:
    """Inclusive voxel-index box; min/max are (x, y, z) triples."""

    min: tuple[int, int, int]
    max: tuple[int, int, int]

    def __post_init__(self):
        lo = tuple(int(v) for v in self.min)
        hi = tuple(int(v) for v in self.max)
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"box min {lo} exceeds max {hi}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(b - a + 1 for a, b in zip(self.min, self.max))


# ---------------------------------------------------------------------------
# EVF container
# ---------------------------------------------------------------------------

_MAGIC = b"EVF1"
_HEADER = struct.Struct("<4sBBHIIIIffffffB7x")
_KIND_SCALAR, _KIND_LABEL, _KIND_EMBEDDING = 1, 2, 3
_DTYPE_F32, _DTYPE_U16 = 1, 2
_MAX_ELEMENTS = 2**31


def _open_dest(dest):
    if hasattr(dest, "write"):
        return dest, False
    return open(Path(dest), "wb"), True


def _open_src(src):
    if hasattr(src, "read"):
        return src, False
    return open(Path(src), "rb"), True


def write_volume(vol, dest) -> None:
    """Serialize a volume to the EVF container (path or binary file object)."""
    if isinstance(vol, ScalarVolume):
        kind, dtype_code, payload_dtype, channels, normalized = (
            _KIND_SCALAR, _DTYPE_F32, "<f4", 1, 0,
        )
        arr = vol.data
    elif isinstance(vol, LabelVolume):
        kind, dtype_code, payload_dtype, channels, normalized = (
            _KIND_LABEL, _DTYPE_U16, "<u2", 1, 0,
        )
        arr = vol.data
    elif isinstance(vol, EmbeddingVolume):
        kind, dtype_code, payload_dtype, channels, normalized = (
            _KIND_EMBEDDING, _DTYPE_F32, "<f4", vol.channels, 1 if vol.normalized else 0,
        )
        arr = vol.data
    else:
        raise TypeError(f"cannot serialize {type(vol).__name__}")
    g = vol.geometry
    header = _HEADER.pack(
        _MAGIC, kind, dtype_code, 0,
        g.dims[0], g.dims[1], g.dims[2], channels,
        g.spacing[0], g.spacing[1], g.spacing[2],
        g.origin[0], g.origin[1], g.origin[2],
        normalized,
    )
    payload = np.ascontiguousarray(arr, dtype=payload_dtype).tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    f, close = _open_dest(dest)
    try:
        f.write(header)
        f.write(payload)
        f.write(struct.pack("<I", crc))
    finally:
        if close:
            f.close()


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFile(f"short read while loading {what}")
    return data


def read_volume(src):
    """Read an EVF container, verifying the payload CRC."""
    f, close = _open_src(src)
    try:
        raw = _read_exact(f, _HEADER.size, "header")
        (magic, kind, dtype_code, reserved,
         nx, ny, nz, channels,
         sx, sy, sz, ox, oy, oz, normalized) = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        if reserved != 0 or normalized not in (0, 1):
            raise UnsupportedVersion("reserved header fields are not zero")
        if kind not in (_KIND_SCALAR, _KIND_LABEL, _KIND_EMBEDDING):
            raise UnsupportedVersion(f"unknown volume kind {kind}")
        if dtype_code not in (_DTYPE_F32, _DTYPE_U16):
            raise UnsupportedVersion(f"unknown dtype code {dtype_code}")
        if min(nx, ny, nz, channels) < 1 or nx * ny * nz * channels > _MAX_ELEMENTS:
            raise DimensionOverflow(f"implausible dimensions {(nx, ny, nz, channels)}")
        if kind in (_KIND_SCALAR, _KIND_LABEL) and channels != 1:
            raise UnsupportedVersion("scalar and label volumes must have 1 channel")
        if kind in (_KIND_SCALAR, _KIND_EMBEDDING) and dtype_code != _DTYPE_F32:
            raise UnsupportedVersion("scalar/embedding payload must be f32")
        if kind == _KIND_LABEL and dtype_code != _DTYPE_U16:
            raise UnsupportedVersion("label payload must be u16")
        itemsize = 4 if dtype_code == _DTYPE_F32 else 2
        n_bytes = nx * ny * nz * channels * itemsize
        payload = _read_exact(f, n_bytes, "payload")
        (crc_stored,) = struct.unpack("<I", _read_exact(f, 4, "checksum"))
        if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
            raise ChecksumMismatch("payload CRC32 mismatch")
        geom = VolumeGeometry((nx, ny, nz), (sx, sy, sz), (ox, oy, oz))
        np_dtype = "<f4" if dtype_code == _DTYPE_F32 else "<u2"
        arr = np.frombuffer(payload, dtype=np_dtype)
        if kind == _KIND_SCALAR:
            return ScalarVolume(geom, arr.reshape(nz, ny, nx).copy())
        if kind == _KIND_LABEL:
            return LabelVolume(geom, arr.reshape(nz, ny, nx).copy())
        return EmbeddingVolume(
            geom, arr.reshape(nz, ny, nx, channels).copy(), normalized=bool(normalized)
        )
    finally:
        if close:
            f.close()


# ---------------------------------------------------------------------------
# resampling and sampling
# ---------------------------------------------------------------------------

def resample(vol: ScalarVolume, new_spacing) -> ScalarVolume:
    """Trilinear resample onto an isotropic-or-not grid with the given spacing.

    Output dimensions are ``round(extent / new_spacing)`` (at least 1) per
    axis, with the origin preserved.
    """
    if np.isscalar(new_spacing):
        new_spacing = (float(new_spacing),) * 3
    new_spacing = tuple(float(s) for s in new_spacing)
    if any(s <= 0 for s in new_spacing):
        raise ValueError("new spacing must be positive")
    g = vol.geometry
    new_dims = tuple(
        max(1, int(np.floor(g.dims[i] * g.spacing[i] / new_spacing[i] + 0.5)))
        for i in range(3)
    )
    # per-axis source index for each output index
    axes = [
        np.arange(new_dims[i]) * new_spacing[i] / g.spacing[i] for i in range(3)
    ]
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    out = ndimage.map_coordinates(
        vol.data.astype(np.float64), [zz, yy, xx], order=1, mode="nearest"
    )
    return ScalarVolume(
        VolumeGeometry(new_dims, new_spacing, g.origin), out.astype(np.float32)
    )


def unit_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``v`` scaled to unit length: returns (unit rows, norms, zero mask).

    The one zero-vector rule: a row whose norm is at most 1e-12 becomes e1
    of the space the rows live in.
    """
    norms = np.linalg.norm(v, axis=1)
    zero = norms <= _ZERO_NORM_EPS
    e = np.empty_like(v)
    np.divide(v, norms[:, None], out=e, where=~zero[:, None])
    if zero.any():
        e[zero] = 0.0
        e[zero, 0] = 1.0
    return e, norms, zero


def trilinear_sample_many(emb: EmbeddingVolume, pts) -> np.ndarray:
    """Trilinear samples of an embedding grid at continuous voxel coordinates.

    ``pts`` is (N, 3) in (x, y, z) voxel units of the embedding grid.  When
    the volume is normalized the blended vectors are re-normalized by
    ``unit_rows``, so an all-zero blend becomes e1.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    nx, ny, nz = emb.geometry.dims
    d = emb.channels
    lims = np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    if not emb.geometry.in_grid(pts).all():
        raise OutOfBounds("sample coordinate outside the embedding grid")
    pts = np.clip(pts, 0.0, lims)
    base = np.floor(pts).astype(np.int64)
    base = np.minimum(base, np.maximum(np.array([nx, ny, nz]) - 2, 0))
    frac = pts - base
    data = emb.data.reshape(-1, d)
    out = np.zeros((len(pts), d), dtype=np.float64)
    steps = (min(1, nx - 1), min(1, ny - 1), min(1, nz - 1))
    for cx in (0, 1):
        wx = (1.0 - frac[:, 0]) if cx == 0 else frac[:, 0]
        ix = base[:, 0] + cx * steps[0]
        for cy in (0, 1):
            wy = (1.0 - frac[:, 1]) if cy == 0 else frac[:, 1]
            iy = base[:, 1] + cy * steps[1]
            for cz in (0, 1):
                wz = (1.0 - frac[:, 2]) if cz == 0 else frac[:, 2]
                iz = base[:, 2] + cz * steps[2]
                w = wx * wy * wz
                if not np.any(w):
                    continue
                flat = (iz * ny + iy) * nx + ix
                out += w[:, None] * data[flat]
    if emb.normalized:
        out = unit_rows(out)[0]
    return out


def trilinear_sample(emb: EmbeddingVolume, p) -> np.ndarray:
    """Single-point variant of :func:`trilinear_sample_many`."""
    from .geometry import Point3

    if isinstance(p, Point3):
        p = p.to_array()
    return trilinear_sample_many(emb, np.asarray(p, dtype=np.float64).reshape(1, 3))[0]


def l2_normalize(emb: EmbeddingVolume) -> EmbeddingVolume:
    """Return a unit-norm copy; zero vectors become e1 (``unit_rows``) and are tallied."""
    out, _, zero = unit_rows(emb.data.reshape(-1, emb.channels).astype(np.float64))
    count = int(zero.sum())
    if count:
        log.warning("l2_normalize substituted %d zero vectors", count)
    return EmbeddingVolume(
        emb.geometry,
        out.reshape(emb.data.shape).astype(np.float32),
        normalized=True,
        zero_substitutions=count,
    )


def concat_embeddings(a: EmbeddingVolume, b: EmbeddingVolume) -> EmbeddingVolume:
    """Channel-wise concatenation of two normalized embedding volumes.

    The result is not unit norm (each half is), so ``normalized`` is False;
    dot products of concatenated vectors are the sums of the per-head dots.
    """
    if a.geometry != b.geometry:
        raise GeometryMismatch("embedding volumes have different geometry")
    if not (a.normalized and b.normalized):
        raise ValueError("concat_embeddings expects normalized inputs")
    data = np.concatenate([a.data, b.data], axis=3)
    return EmbeddingVolume(a.geometry, data, normalized=False)


# ---------------------------------------------------------------------------
# masking and cropping
# ---------------------------------------------------------------------------

def body_mask(vol: ScalarVolume, threshold: float) -> LabelVolume:
    """Binary mask: threshold, keep the largest 6-connected component, fill per-slice holes."""
    above = vol.data > threshold
    if not above.any():
        raise EmptyMask(f"no voxel exceeds threshold {threshold}")
    structure = ndimage.generate_binary_structure(3, 1)
    labeled, n = ndimage.label(above, structure=structure)
    if n > 1:
        counts = np.bincount(labeled.ravel())
        counts[0] = 0
        above = labeled == int(np.argmax(counts))
    filled = np.empty_like(above)
    for iz in range(above.shape[0]):
        filled[iz] = ndimage.binary_fill_holes(above[iz])
    return LabelVolume(vol.geometry, filled.astype(np.uint16))


def mask_bbox(mask) -> Box3:
    """Tight bounding box of the non-zero voxels of a mask."""
    data = mask.data if isinstance(mask, LabelVolume) else np.asarray(mask)
    nz = np.nonzero(data)
    if len(nz[0]) == 0:
        raise EmptyBox("mask has no foreground voxels")
    return Box3(
        (int(nz[2].min()), int(nz[1].min()), int(nz[0].min())),
        (int(nz[2].max()), int(nz[1].max()), int(nz[0].max())),
    )


def dilate_box(box: Box3, margin: int, bounds: tuple[int, int, int]) -> Box3:
    """Grow a box by ``margin`` voxels per side, clamped to ``bounds`` (nx, ny, nz)."""
    lo = tuple(max(0, box.min[i] - margin) for i in range(3))
    hi = tuple(min(bounds[i] - 1, box.max[i] + margin) for i in range(3))
    if any(a > b for a, b in zip(lo, hi)):
        raise EmptyBox("dilated box is empty after clamping")
    return Box3(lo, hi)


def crop(vol, box: Box3):
    """Copy the subvolume in ``box`` (clamped to bounds); origin moves with the box."""
    g = vol.geometry
    lo = tuple(max(0, min(box.min[i], g.dims[i] - 1)) for i in range(3))
    hi = tuple(max(0, min(box.max[i], g.dims[i] - 1)) for i in range(3))
    if any(a > b for a, b in zip(lo, hi)):
        raise EmptyBox("crop box does not intersect the volume")
    sl = (
        slice(lo[2], hi[2] + 1),
        slice(lo[1], hi[1] + 1),
        slice(lo[0], hi[0] + 1),
    )
    new_geom = VolumeGeometry(
        tuple(hi[i] - lo[i] + 1 for i in range(3)),
        g.spacing,
        tuple(g.origin[i] + lo[i] * g.spacing[i] for i in range(3)),
    )
    if isinstance(vol, EmbeddingVolume):
        return EmbeddingVolume(
            new_geom, vol.data[sl].copy(), normalized=vol.normalized,
            zero_substitutions=vol.zero_substitutions,
        )
    if isinstance(vol, LabelVolume):
        return LabelVolume(new_geom, vol.data[sl].copy())
    return ScalarVolume(new_geom, vol.data[sl].copy())


def half_geometry(g: VolumeGeometry) -> VolumeGeometry:
    """Geometry of the stride-2 grid: ceil(dims / 2), doubled spacing, same origin."""
    return VolumeGeometry(
        tuple((d + 1) // 2 for d in g.dims),
        tuple(s * 2.0 for s in g.spacing),
        g.origin,
    )
