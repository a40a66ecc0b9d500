"""Scalar, label, and embedding volumes with physical geometry.

Covers the EVF binary container (bit-exact round trips, CRC-checked payloads),
physical-space resampling, trilinear sampling of embedding grids, L2
normalization, body masking, and box cropping.

The binary framing that EVF shares with the UAEM model file (``model``) lives
here: ``_binary_file`` opens a path or passes a file object through,
``_read_exact`` raises ``TruncatedFile`` on a short read, and
``_write_framed`` / ``_read_checked`` write and check the trailing CRC32.  Each
format keeps its own layout, order of checks and CRC rule: EVF's CRC covers
the payload only, UAEM's the header and the payload.

Data layout is fixed: arrays are indexed ``[z, y, x]`` (``[z, y, x, channel]``
for embeddings) in C order, which is also the on-disk payload order.
Voxel index ``i`` along an axis sits at physical position
``origin + i * spacing`` on that axis.  ``VolumeGeometry.flat_index`` and its
inverse ``index_points`` are the one rule between an integer (x, y, z) voxel
and its row of the flattened ``(n_voxels, channels)`` table.

Grid mappings.  ``pull_back``, ``resample`` and ``mapped_inside`` visit every
voxel of a grid one z-slab of at most ``_SLAB_VOXELS`` voxels at a time (see
``z_slabs``), so no full-grid coordinate array exists.  One case needs no
coordinates at all: when every output voxel of ``resample`` sits on a source
voxel (each axis's positions ``i * new_spacing / spacing`` are integer indices
inside the grid), its trilinear weights are exactly 0 and 1, so it copies the
source voxels with one indexed read, bit for bit the interpolated output.  Two
tolerances say what lies inside a grid, and they differ on purpose:

- a warp (``pull_back``) snaps a pre-image coordinate within 1e-6 voxel of the
  grid (``_SNAP_VOXELS``) onto its edge, so an exact grid motion such as a
  quarter turn reads no fill through rounding in its matrix; the snap moves a
  sample far less than the interpolation already does;
- a mask (``mapped_inside``, through ``VolumeGeometry.in_grid``) admits a point
  at most 1e-9 voxel outside, the bound ``trilinear_sample_many`` also holds.
  A mask picks the voxels that count as correspondences, so it never admits a
  point that cannot then be sampled.

Coordinates are component-major.  ``VolumeGeometry.voxel_points``,
``voxel_to_physical``, ``physical_to_voxel`` and the transforms'
``apply_array`` return (N, 3) rows that are an F-ordered view of (3, N)
memory, and read any (N, 3) rows through their (3, N) transpose.  So each
per-axis scale, shift or bounds test is one contiguous loop over N, where
row-major rows would make numpy loop over 3-long rows, and a transform is
``linear @ rows.T`` plus an in-place translation per component.  The layout
moves no value: each coordinate goes through the same elementwise operations,
so it rounds the same way, and a sum of three terms keeps the association of
the row-major code it replaced, ``(q0 + q1) + q2``: ``.sum(axis=-1)`` over
3-long rows adds in that order in numpy 2.4 (``phantom._fill_ellipsoid``), and
so does an explicit ``x + y + z`` of three axis terms (the phantom texture and
corruption spheres).
"""

from __future__ import annotations

import contextlib
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy import ndimage

from .errors import (
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
from .geometry import _columns

__all__ = [
    "VolumeGeometry",
    "ScalarVolume",
    "LabelVolume",
    "EmbeddingVolume",
    "Box3",
    "read_volume",
    "write_volume",
    "resample",
    "pull_back",
    "trilinear_sample_many",
    "unit_rows",
    "row_norms",
    "mapped_inside",
    "body_mask",
    "mask_bbox",
    "dilate_box",
    "crop",
    "half_geometry",
    "z_slabs",
]

_ZERO_NORM_EPS = 1e-12  # at or below this a voxel vector counts as zero (see unit_rows)
# voxels per z-slab for the mappings that visit every voxel of a grid (phantom
# fills, pull_back, resample, mapped_inside): one slab's (N, 3) float64 rows are 3 MB
_SLAB_VOXELS = 2**17
_SNAP_VOXELS = 1e-6  # a warp's pre-image this close to the grid snaps onto it


def z_slabs(shape_zyx) -> Iterator[slice]:
    """Consecutive z-plane ranges that cover a (nz, ny, nx) grid, each holding
    at most ``_SLAB_VOXELS`` voxels, or one plane when a plane holds more."""
    nz, ny, nx = shape_zyx
    step = max(1, _SLAB_VOXELS // (ny * nx))
    return (slice(z, min(z + step, nz)) for z in range(0, nz, step))


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
        if not all(0.0 < s < math.inf for s in spacing):
            raise ValueError(f"voxel spacing must be positive and finite, got {spacing}")
        if not all(math.isfinite(o) for o in origin):
            raise ValueError(f"volume origin must be finite, got {origin}")

    @property
    def shape_zyx(self) -> tuple[int, int, int]:
        return (self.dims[2], self.dims[1], self.dims[0])

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def voxel_to_physical(self, pts) -> np.ndarray:
        """Voxel coordinates (x, y, z order) to physical millimeters, shaped like ``pts``;
        rows come back component-major (see "Grid mappings")."""
        pts = np.asarray(pts, dtype=np.float64)
        out = np.empty((3, pts.size // 3))
        for col, row, s, o in zip(_columns(pts), out, self.spacing, self.origin):
            np.multiply(col, s, out=row)
            row += o
        return out.T.reshape(pts.shape)

    def physical_to_voxel(self, pts) -> np.ndarray:
        """Physical millimeters to voxel coordinates (x, y, z order); the inverse of
        ``voxel_to_physical``, with the same shape and layout rules."""
        pts = np.asarray(pts, dtype=np.float64)
        out = np.empty((3, pts.size // 3))
        for col, row, s, o in zip(_columns(pts), out, self.spacing, self.origin):
            np.subtract(col, o, out=row)
            row /= s
        return out.T.reshape(pts.shape)

    def voxel_points(self, planes: slice = slice(None)) -> np.ndarray:
        """The voxel indices of the z planes ``planes`` (all by default) as (N, 3)
        float64 (x, y, z) rows, in C order of the (z, y, x) data.  The rows are an
        F-ordered view of (3, N) memory filled from the grid's 1-D axes, so each
        component is one contiguous array (see "Grid mappings")."""
        xs, ys, zs = (np.arange(d, dtype=np.float64) for d in self.dims)
        zs = zs[planes]
        cols = np.empty((3, len(zs), len(ys), len(xs)))
        cols[0], cols[1], cols[2] = xs, ys[:, None], zs[:, None, None]
        return cols.reshape(3, -1).T

    def flat_index(self, idx) -> np.ndarray:
        """C-order flat index of integer (x, y, z) voxel indices, given as (..., 3)
        rows of any layout; shaped like ``idx`` without its last axis."""
        idx = np.asarray(idx)
        nx, ny, _ = self.dims
        return (idx[..., 2] * ny + idx[..., 1]) * nx + idx[..., 0]

    def index_points(self, flat) -> np.ndarray:
        """The inverse of ``flat_index``: integer (x, y, z) rows (..., 3) of flat
        indices, an F-ordered view of (3, ...) memory (see "Grid mappings")."""
        nx, ny, _ = self.dims
        z, rem = np.divmod(flat, ny * nx)
        y, x = np.divmod(rem, nx)
        return np.moveaxis(np.stack([x, y, z]), 0, -1)

    def in_grid(self, pts) -> np.ndarray:
        """Per (x, y, z) voxel coordinate row: inside the grid, up to 1e-9 voxel."""
        cols = _columns(np.asarray(pts))
        inside = np.ones(cols.shape[1], dtype=bool)
        for col, d in zip(cols, self.dims):
            inside &= col >= -1e-9
            inside &= col <= (d - 1.0) + 1e-9
        return inside


def _all_finite(data: np.ndarray) -> bool:
    """No NaN and no infinity in ``data``, which then make its min or max non-finite;
    unlike ``np.isfinite(data).all()`` this allocates no full-size mask."""
    return bool(np.isfinite(data.min()) and np.isfinite(data.max()))


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
        if not _all_finite(self.data):
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
    """Dense grid of D-dimensional unit vectors, typically at half the image resolution.

    Stored as float32, the EVF payload type.  Every stored row is unit
    within 1e-4, or zero (``NonUnitInput`` otherwise): the cosine
    similarities of matching need no other check of the rows.
    """

    geometry: VolumeGeometry
    data: np.ndarray  # (nz, ny, nx, D) float32
    zero_substitutions: int = 0

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 4 or self.data.shape[:3] != self.geometry.shape_zyx:
            raise ValueError(
                f"data shape {self.data.shape} does not match dims {self.geometry.dims}"
            )
        if not 0 <= self.zero_substitutions <= self.geometry.n_voxels:
            raise ValueError("zero_substitutions must lie between 0 and the voxel count")
        norms = row_norms(self.data.reshape(-1, self.data.shape[3]))
        # a NaN norm fails both tests
        if not np.all((norms <= _ZERO_NORM_EPS) | (np.abs(norms - 1.0) <= 1e-4)):
            raise NonUnitInput("embedding volume has non-unit vectors")

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


# ---------------------------------------------------------------------------
# framing shared by the EVF and UAEM containers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _binary_file(target, mode: str):
    """``target`` opened in binary ``mode`` ("rb" or "wb") when it is a path, or
    passed through when it is a file object; closes only what it opened."""
    if hasattr(target, "read" if mode == "rb" else "write"):
        yield target
    else:
        with open(Path(target), mode) as f:
            yield f


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFile(f"short read while loading {what}")
    return data


def _write_framed(dest, plain: bytes, covered: bytes, payload) -> None:
    """Write ``plain``, ``covered`` and ``payload`` (any bytes-like object), then a "<I"
    CRC32 of ``covered`` + ``payload``."""
    crc = zlib.crc32(payload, zlib.crc32(covered)) & 0xFFFFFFFF
    with _binary_file(dest, "wb") as f:
        for part in (plain, covered, payload, struct.pack("<I", crc)):
            f.write(part)


def _read_checked(f, out: np.ndarray, covered: bytes, what: str) -> np.ndarray:
    """``out`` (C-contiguous) filled in place from the next bytes, after checking the
    CRC32 that follows them against ``covered`` + them; no other copy is made."""
    payload = out.reshape(-1).view(np.uint8)
    if f.readinto(payload) != len(payload):
        raise TruncatedFile(f"short read while loading {what}")
    (crc_stored,) = struct.unpack("<I", _read_exact(f, 4, f"{what} checksum"))
    if zlib.crc32(payload, zlib.crc32(covered)) & 0xFFFFFFFF != crc_stored:
        raise ChecksumMismatch(f"{what} CRC32 mismatch")
    return out


# ---------------------------------------------------------------------------
# EVF container
# ---------------------------------------------------------------------------

_MAGIC = b"EVF1"
# after the unit-rows flag: the zero-substitution count (0 in files that predate it), 3 pad bytes
_HEADER = struct.Struct("<4sBBHIIIIffffffBI3x")
# kind code -> (volume class, dtype code, payload dtype, unit-rows flag); write and read both consult it
_KINDS = {
    1: (ScalarVolume, 1, "<f4", 0),
    2: (LabelVolume, 2, "<u2", 0),
    3: (EmbeddingVolume, 1, "<f4", 1),
}
_MAX_ELEMENTS = 2**31


def write_volume(vol, dest) -> None:
    """Serialize a volume to the EVF container (path or binary file object)."""
    kind = next((k for k, (cls, *_) in _KINDS.items() if isinstance(vol, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(vol).__name__}")
    _, dtype_code, payload_dtype, unit_flag = _KINDS[kind]
    g = vol.geometry
    header = _HEADER.pack(
        _MAGIC, kind, dtype_code, 0,
        *g.dims, math.prod(vol.data.shape[3:]),  # channels: 1 unless an embedding
        *g.spacing,
        *g.origin,
        unit_flag, getattr(vol, "zero_substitutions", 0),
    )
    # written from the array's own buffer, which needs no copy when it already has the payload dtype
    payload = np.ascontiguousarray(vol.data, dtype=payload_dtype)
    _write_framed(dest, header, b"", payload.reshape(-1).view(np.uint8))


def read_volume(src):
    """Read an EVF container, verifying the payload CRC.

    The volume kind fixes the header's unit-rows flag: 1 for an embedding,
    0 for a scalar or label volume.  A flag, spacing, origin, substitution
    count or scalar value the volume cannot hold is ``MalformedFile``; an
    embedding row that is neither unit nor zero is ``NonUnitInput``."""
    with _binary_file(src, "rb") as f:
        raw = _read_exact(f, _HEADER.size, "header")
        (magic, kind, dtype_code, reserved,
         nx, ny, nz, channels,
         sx, sy, sz, ox, oy, oz, unit_flag, zero_substitutions) = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        if reserved != 0:
            raise UnsupportedVersion("reserved header field is not zero")
        if kind not in _KINDS:
            raise UnsupportedVersion(f"unknown volume kind {kind}")
        cls, kind_dtype, payload_dtype, kind_flag = _KINDS[kind]
        if dtype_code != kind_dtype:
            raise UnsupportedVersion(f"dtype code {dtype_code} does not fit volume kind {kind}")
        if unit_flag != kind_flag:
            raise MalformedFile(f"unit-rows flag {unit_flag} does not fit volume kind {kind}")
        if min(nx, ny, nz, channels) < 1 or nx * ny * nz * channels > _MAX_ELEMENTS:
            raise DimensionOverflow(f"implausible dimensions {(nx, ny, nz, channels)}")
        if cls is not EmbeddingVolume and channels != 1:
            raise UnsupportedVersion("scalar and label volumes must have 1 channel")
        payload = _read_checked(f, np.empty((nz, ny, nx, channels), payload_dtype), b"", "payload")
    if cls is not EmbeddingVolume and zero_substitutions != 0:
        raise MalformedFile(f"zero-substitution count {zero_substitutions} is out of range")
    # the volume keeps the array the payload was read into
    try:
        geom = VolumeGeometry((nx, ny, nz), (sx, sy, sz), (ox, oy, oz))
        if cls is EmbeddingVolume:
            return cls(geom, payload, zero_substitutions=zero_substitutions)
        return cls(geom, payload.reshape(nz, ny, nx))
    except ValueError as exc:
        raise MalformedFile(str(exc)) from exc


# ---------------------------------------------------------------------------
# resampling and sampling
# ---------------------------------------------------------------------------

def resample(vol: ScalarVolume, new_spacing) -> ScalarVolume:
    """Trilinear resample onto an isotropic-or-not grid with the given spacing.

    Output dimensions are ``round(extent / new_spacing)`` (at least 1) per
    axis, with the origin preserved, and output index ``i`` samples the source
    position ``i * new_spacing / spacing`` on each axis.  When every such
    position on every axis is an integer index inside the grid, as for a
    whole-number spacing ratio such as 1 mm to 2 mm, each trilinear weight is
    exactly 0 or 1, and the output is one indexed read of the source voxels:
    the float32 values interpolation would give, bit for bit.  Any other grid
    is interpolated one z-slab of at most ``_SLAB_VOXELS`` voxels at a time,
    so no full-grid coordinates exist.
    """
    if np.isscalar(new_spacing):
        new_spacing = (float(new_spacing),) * 3
    new_spacing = tuple(float(s) for s in new_spacing)
    if not all(0.0 < s < math.inf for s in new_spacing):
        raise ValueError(f"new spacing must be positive and finite, got {new_spacing}")
    g = vol.geometry
    new_dims = tuple(
        max(1, int(np.floor(g.dims[i] * g.spacing[i] / new_spacing[i] + 0.5)))
        for i in range(3)
    )
    # per-axis source index for each output index
    axes = [
        np.arange(new_dims[i]) * new_spacing[i] / g.spacing[i] for i in range(3)
    ]
    geom = VolumeGeometry(new_dims, new_spacing, g.origin)
    index = [a.astype(np.intp) for a in axes]
    if all(np.array_equal(i, a) and a[-1] <= d - 1 for i, a, d in zip(index, axes, g.dims)):
        out = vol.data[np.ix_(index[2], index[1], index[0])]
        out += 0.0  # interpolation sums from +0.0, so a -0.0 voxel comes out as +0.0
        return ScalarVolume(geom, out)
    out = np.empty(geom.shape_zyx, dtype=np.float32)
    for planes in z_slabs(out.shape):
        coords = np.broadcast_arrays(axes[2][planes, None, None], axes[1][:, None], axes[0])
        # interpolates in float64 and rounds each sample once into the float32 output
        ndimage.map_coordinates(vol.data, coords, output=out[planes], order=1, mode="nearest")
    return ScalarVolume(geom, out)


def pull_back(geom: VolumeGeometry, transform, layers) -> None:
    """Fill each ``(source, out, fill)`` layer, two (nz, ny, nx) arrays on ``geom``, with
    out(y) = source(T^-1 y) for the physical-mm ``transform`` T; a pre-image outside
    reads ``fill``.  A float source interpolates trilinearly in float64 and rounds once
    into ``out``, an integer (label) source reads its nearest voxel.  All layers read
    the same snapped pre-images (see the module docstring), one z-slab at a time."""
    inv = transform.inverse()
    lim = np.asarray(geom.dims, dtype=np.float64) - 1.0
    for planes in z_slabs(geom.shape_zyx):
        src = geom.physical_to_voxel(inv.apply_array(geom.voxel_to_physical(geom.voxel_points(planes))))
        # the (z, y, x) coordinate rows: contiguous, which map_coordinates reads faster than strided ones
        coords = src.T[::-1]
        for row, hi in zip(coords, lim[::-1]):
            np.clip(row, 0.0, hi, out=row, where=(row > -_SNAP_VOXELS) & (row < hi + _SNAP_VOXELS))
        coords = coords.reshape((3, planes.stop - planes.start) + geom.shape_zyx[1:])
        # map_coordinates interpolates in float64 from any input dtype
        for source, out, fill in layers:
            order = 1 if source.dtype.kind == "f" else 0
            ndimage.map_coordinates(source, coords, output=out[planes], order=order, mode="constant", cval=fill)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, the sqrt of its einsum dot with itself: the one norm rule of
    ``unit_rows`` and both unit checks.  It can differ from ``np.linalg.norm``'s
    in the last bit, and takes about a third of its time on 11-wide rows."""
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def unit_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``v`` scaled to unit length: returns (unit rows, norms, zero mask).

    Norms are ``row_norms``.  The one zero-vector rule: a row whose norm is
    at most 1e-12 becomes e1 of the space the rows live in.
    """
    norms = row_norms(v)
    zero = norms <= _ZERO_NORM_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        e = v / norms[:, None]
    if zero.any():
        e[zero] = 0.0
        e[zero, 0] = 1.0
    return e, norms, zero


def trilinear_sample_many(emb: EmbeddingVolume, pts) -> np.ndarray:
    """Trilinear samples of an embedding grid at continuous voxel coordinates.

    ``pts`` is (N, 3) in (x, y, z) voxel units of the embedding grid.  The
    blended vectors are re-normalized by ``unit_rows``, so an all-zero blend
    becomes e1.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    g = emb.geometry
    dims = np.array(g.dims)
    if not g.in_grid(pts).all():
        raise OutOfBounds("sample coordinate outside the embedding grid")
    pts = np.clip(pts, 0.0, dims - 1.0)
    base = np.minimum(np.floor(pts).astype(np.int64), np.maximum(dims - 2, 0))
    frac = pts - base
    # the flat index is linear, so each corner's is the base's plus its offset's
    base_flat = g.flat_index(base)
    steps = np.minimum(1, dims - 1)
    data = emb.data.reshape(-1, emb.channels)
    out = np.zeros((len(pts), emb.channels), dtype=np.float64)
    for cx in (0, 1):
        wx = (1.0 - frac[:, 0]) if cx == 0 else frac[:, 0]
        for cy in (0, 1):
            wy = (1.0 - frac[:, 1]) if cy == 0 else frac[:, 1]
            for cz in (0, 1):
                wz = (1.0 - frac[:, 2]) if cz == 0 else frac[:, 2]
                w = wx * wy * wz
                if not np.any(w):
                    continue
                out += w[:, None] * data[base_flat + g.flat_index(steps * (cx, cy, cz))]
    return unit_rows(out)[0]


# ---------------------------------------------------------------------------
# masking and cropping
# ---------------------------------------------------------------------------

def mapped_inside(geom: VolumeGeometry, *targets) -> np.ndarray:
    """(nz, ny, nx) bool mask of the voxels of ``geom`` whose image under the
    physical-mm ``transform`` (anything with ``apply_array``) lies inside
    ``other``, for every ``(transform, other)`` target.

    Maps one z-slab at a time: each slab's physical rows once, and those rows
    once through each distinct ``transform`` object."""
    transforms = {id(t): t for t, _ in targets}
    inside = np.empty(geom.shape_zyx, dtype=bool)
    for planes in z_slabs(inside.shape):
        phys = geom.voxel_to_physical(geom.voxel_points(planes))
        moved = {key: t.apply_array(phys) for key, t in transforms.items()}
        maps = [other.in_grid(other.physical_to_voxel(moved[id(t)])) for t, other in targets]
        inside[planes] = np.logical_and.reduce(maps).reshape(inside[planes].shape)
    return inside


def body_mask(vol: ScalarVolume, threshold: float) -> tuple[LabelVolume, Box3]:
    """Binary mask: threshold, keep the largest 6-connected component, fill per-slice holes.
    Returns the mask and its tight bounding box, the body's: holes lie inside it.

    A hole is background that no in-plane path joins to an x or y face of its
    z slice.  One in-plane labelling inside the body's bounding box finds every
    slice's, and every voxel outside the box is 0: from a background voxel on
    the box's x or y edge, a straight line out of the box reaches a face
    through background, so the components that touch the box's x or y edges
    are exactly those that touch a face of the grid.  Raises ``EmptyMask``
    when no voxel, or every voxel, exceeds ``threshold``."""
    above = vol.data > threshold
    n_above = np.count_nonzero(above)
    if n_above in (0, above.size):
        raise EmptyMask(f"{'every' if n_above else 'no'} voxel exceeds threshold {threshold}")
    structure = ndimage.generate_binary_structure(3, 1)
    labeled, n = ndimage.label(above, structure=structure)
    if n > 1:
        counts = np.bincount(labeled.ravel())
        counts[0] = 0
        above = labeled == int(np.argmax(counts))
    box = mask_bbox(above)
    region = tuple(slice(box.min[i], box.max[i] + 1) for i in (2, 1, 0))
    # a structure with no z offsets labels each z slice on its own
    in_plane = np.zeros((3, 3, 3), dtype=bool)
    in_plane[1] = ndimage.generate_binary_structure(2, 1)
    background, n = ndimage.label(~above[region], structure=in_plane)
    open_to_face = np.zeros(n + 1, dtype=bool)
    open_to_face[background[:, [0, -1]]] = True
    open_to_face[background[:, :, [0, -1]]] = True
    open_to_face[0] = False  # label 0 is the body itself
    mask = np.zeros(vol.data.shape, dtype=np.uint16)
    mask[region] = ~open_to_face[background]
    return LabelVolume(vol.geometry, mask), box


def mask_bbox(mask: np.ndarray) -> Box3:
    """Tight bounding box of the non-zero voxels of a 3-D (z, y, x) array, from its axis projections."""
    hits = [np.flatnonzero(mask.any(axis=axes)) for axes in ((0, 1), (0, 2), (1, 2))]  # x, y, z
    if len(hits[0]) == 0:
        raise EmptyBox("mask has no foreground voxels")
    return Box3(tuple(h[0] for h in hits), tuple(h[-1] for h in hits))


def dilate_box(box: Box3, margin: int, bounds: tuple[int, int, int]) -> Box3:
    """Grow a box by ``margin`` >= 0 voxels per side, clamped to ``bounds`` (nx, ny, nz)."""
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    lo = tuple(max(0, box.min[i] - margin) for i in range(3))
    hi = tuple(min(bounds[i] - 1, box.max[i] + margin) for i in range(3))
    if any(a > b for a, b in zip(lo, hi)):
        raise EmptyBox("dilated box is empty after clamping")
    return Box3(lo, hi)


def crop(vol, box: Box3):
    """Copy the subvolume of a ``ScalarVolume`` or ``LabelVolume`` in ``box``
    (clamped to bounds); origin moves with the box.  Raises ``TypeError`` for
    any other volume."""
    if not isinstance(vol, (ScalarVolume, LabelVolume)):
        raise TypeError(f"cannot crop {type(vol).__name__}")
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
    return type(vol)(new_geom, vol.data[sl].copy())


def half_geometry(g: VolumeGeometry) -> VolumeGeometry:
    """Geometry of the stride-2 grid: ceil(dims / 2), doubled spacing, same origin."""
    return VolumeGeometry(
        tuple((d + 1) // 2 for d in g.dims),
        tuple(s * 2.0 for s in g.spacing),
        g.origin,
    )
