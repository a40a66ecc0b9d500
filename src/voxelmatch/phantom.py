"""Procedural 3-D phantoms with exact ground truth.

Each phantom is a textured "body" ellipsoid containing disjoint ellipsoidal
organs of distinct intensity bands, with landmarks at organ centers and axis
poles.  Pairs derive a second volume through a known rigid/affine transform,
an intensity remap emulating a second modality, optional local corruptions,
and an optional field-of-view crop, so every suite has exact correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientOverlap, PlacementFailure
from .geometry import AffineTransform, Point3, RigidTransform
from .volume import Box3, LabelVolume, ScalarVolume, VolumeGeometry, crop, pull_back, z_slabs

__all__ = [
    "PhantomSpec",
    "Corruption",
    "PhantomPair",
    "gen_phantom",
    "gen_pair",
    "MODALITY_REMAPS",
]


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: float = 1.0
    n_organs: int = 6
    organ_axis_range: tuple[float, float] = (3.5, 7.0)  # mm
    texture_scale: float = 6.0  # mm
    texture_amplitude: float = 0.05
    air_intensity: float = 0.05
    body_intensity: float = 0.30
    organ_intensity_range: tuple[float, float] = (0.45, 0.95)
    seed: int = 0

    def __post_init__(self):
        if len(self.dims) != 3 or not all(int(d) == d >= 1 for d in self.dims):
            raise ValueError("dims must be three positive integers")
        if not 0.0 < self.spacing < float("inf"):
            raise ValueError("spacing must be positive and finite")
        if min(self.n_organs, self.seed) < 0:
            raise ValueError("n_organs and seed must be non-negative")
        lo, hi = self.organ_axis_range
        if not (0.0 < lo <= hi < float("inf")):
            raise ValueError("organ_axis_range must be positive, finite and ordered")
        if not 0.0 < self.texture_scale < float("inf"):
            raise ValueError("texture_scale must be positive and finite")
        if not 0.0 <= self.texture_amplitude < float("inf"):
            raise ValueError("texture_amplitude must be non-negative and finite")
        # the phantom is clipped to [0, 1], so an intensity outside it cannot show
        for name in ("air_intensity", "body_intensity", "organ_intensity_range"):
            if not all(0.0 <= v <= 1.0 for v in np.atleast_1d(getattr(self, name))):
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class Corruption:
    """Local intensity corruption: contrast inversion or constant occlusion in a sphere."""

    center: Point3  # mm
    radius: float   # mm
    kind: str = "invert"  # "invert" | "occlude"

    def __post_init__(self):
        if self.kind not in ("invert", "occlude"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.radius <= 0:
            raise ValueError("corruption radius must be positive")


@dataclass
class PhantomPair:
    """Two phantoms linked by a known transform; the transform IS the correspondence map.

    ``labels_b`` is warped on first read, from ``labels_a``, ``transform`` and
    ``fov_box``, and kept.  At 128³ that read takes about 0.1 s on a shared
    2-core x86_64 host: 0.04 s for its own pre-image pass and 0.06 s for the
    label pass.  A caller that never reads B's labels does not pay it.
    """

    volume_a: ScalarVolume
    labels_a: LabelVolume
    landmarks_a: list
    volume_b: ScalarVolume
    landmarks_b: list
    transform: RigidTransform | AffineTransform  # physical mm, A -> B
    fov_box: Box3 | None = None

    @cached_property
    def labels_b(self) -> LabelVolume:
        """A's labels pulled back through ``transform`` (nearest voxel, 0 outside),
        at the pre-images the scalar warp of ``gen_pair`` read, then FOV-cropped."""
        g = self.labels_a.geometry
        labels = np.empty(g.shape_zyx, dtype=np.uint16)
        pull_back(g, self.transform, [(self.labels_a.data, labels, 0)])
        lab_b = LabelVolume(g, labels)
        return lab_b if self.fov_box is None else crop(lab_b, self.fov_box)


def _random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _fill_ellipsoid(target: np.ndarray, geom: VolumeGeometry, center_mm, axes_mm, rot, value):
    """Assign ``value`` to the voxels inside the ellipsoid, one z-slab of its bounding window at a time."""
    spacing = np.asarray(geom.spacing)
    origin = np.asarray(geom.origin)
    center_mm, axes_mm = np.asarray(center_mm), np.asarray(axes_mm)
    c_vox = (center_mm - origin) / spacing
    reach = np.max(axes_mm) / spacing
    lo = np.maximum(np.floor(c_vox - reach).astype(int) - 1, 0)
    hi = np.minimum(np.ceil(c_vox + reach).astype(int) + 1, np.asarray(geom.dims) - 1)
    if np.any(lo > hi):
        return
    # the window's offsets from the centre along x, y and z, in mm
    xs, ys, zs = (np.arange(lo[i], hi[i] + 1) * spacing[i] + origin[i] - center_mm[i] for i in range(3))
    window = target[lo[2]:hi[2] + 1, lo[1]:hi[1] + 1, lo[0]:hi[0] + 1]
    for planes in z_slabs(window.shape):
        block = window[planes]
        cols = np.empty((3,) + block.shape)  # component-major offsets (see "Grid mappings" in volume)
        cols[0], cols[1], cols[2] = xs, ys[:, None], zs[planes, None, None]
        local = rot.T @ cols.reshape(3, -1)  # each row rotated into the ellipsoid frame: row @ rot
        local /= axes_mm[:, None]
        np.square(local, out=local)
        local[0] += local[1]
        local[0] += local[2]  # (q0 + q1) + q2, the order numpy sums a 3-long last axis in
        block[(local[0] <= 1.0).reshape(block.shape)] = value


def _add_texture(data: np.ndarray, geom: VolumeGeometry, rng, scale_mm: float, amplitude: float):
    spacing = np.asarray(geom.spacing)
    dims = np.asarray(geom.dims)
    for _ in range(60):
        c_vox = rng.uniform(0, dims - 1)
        sigma_mm = rng.uniform(0.5 * scale_mm, 1.5 * scale_mm)
        amp = rng.uniform(-amplitude, amplitude)
        sig_vox = sigma_mm / spacing
        reach = np.ceil(3 * sig_vox).astype(int)
        lo = np.maximum(np.floor(c_vox - reach).astype(int), 0)
        hi = np.minimum(np.ceil(c_vox + reach).astype(int), dims - 1)
        # one squared term per axis, summed by broadcasting as (x + y) + z
        tx, ty, tz = (((np.arange(lo[i], hi[i] + 1) - c_vox[i]) / sig_vox[i]) ** 2 for i in range(3))
        r2 = (tx + ty[:, None]) + tz[:, None, None]
        r2 *= -0.5
        np.exp(r2, out=r2)
        r2 *= amp
        data[lo[2]:hi[2] + 1, lo[1]:hi[1] + 1, lo[0]:hi[0] + 1] += r2


def _place_organs(spec: PhantomSpec, rng, center, body_axes) -> list:
    """(center, axes, rotation) of each organ, each pair apart by 1 mm more than their longest axes.

    Each organ gets 1000 draws.  When one finds no place, placement starts
    over with every organ's axes shrunk by 0.7, at most four times, so a
    small body still holds its organs and a phantom that places at full size
    is unchanged.  Raises ``PlacementFailure``.
    """
    for shrink_round in range(5):
        organs = []
        for _ in range(spec.n_organs):
            for _ in range(1000):
                u = rng.normal(size=3)
                u /= max(np.linalg.norm(u), 1e-12)
                radius = rng.uniform(0.15, 0.80)
                c = center + u * radius * body_axes
                axes = rng.uniform(spec.organ_axis_range[0], spec.organ_axis_range[1], size=3)
                axes *= 0.7**shrink_round
                rot = _random_rotation(rng)
                if all(
                    np.linalg.norm(c - oc) > np.max(axes) + np.max(oa) + 1.0
                    for oc, oa, _ in organs
                ):
                    organs.append((c, axes, rot))
                    break
            else:
                break
        else:
            return organs
    raise PlacementFailure(f"could not place organ {len(organs) + 1} without overlap")


def gen_phantom(spec: PhantomSpec):
    """Generate one phantom: (ScalarVolume, LabelVolume, landmarks).

    Landmarks are (id, Point3-in-mm) tuples: one center plus two axis poles
    per organ.  Deterministic given ``spec``, whose ``seed`` seeds it.
    """
    rng = np.random.default_rng(spec.seed)
    geom = VolumeGeometry(spec.dims, (spec.spacing,) * 3, (0.0, 0.0, 0.0))
    dims = np.asarray(spec.dims, dtype=np.float64)
    spacing = np.asarray(geom.spacing)
    extent = dims * spacing
    center = (dims - 1.0) / 2.0 * spacing

    data = np.full(geom.shape_zyx, spec.air_intensity, dtype=np.float64)
    labels = np.zeros(geom.shape_zyx, dtype=np.uint16)

    body_axes = extent * 0.40 * rng.uniform(0.95, 1.05, size=3)
    body_rot = np.eye(3)
    _fill_ellipsoid(data, geom, center, body_axes, body_rot, spec.body_intensity)

    organs = _place_organs(spec, rng, center, body_axes)
    landmarks = []
    lo_i, hi_i = spec.organ_intensity_range
    for k, (c, axes, rot) in enumerate(organs, start=1):
        if spec.n_organs > 1:
            base = lo_i + (hi_i - lo_i) * (k - 1) / (spec.n_organs - 1)
        else:
            base = (lo_i + hi_i) / 2.0
        _fill_ellipsoid(data, geom, c, axes, rot, base)
        _fill_ellipsoid(labels, geom, c, axes, rot, k)
        pole = rot[:, 0] * axes[0] * 0.7
        landmarks.append((f"o{k}c", Point3.from_array(c)))
        landmarks.append((f"o{k}p0", Point3.from_array(c + pole)))
        landmarks.append((f"o{k}p1", Point3.from_array(c - pole)))

    _add_texture(data, geom, rng, spec.texture_scale, spec.texture_amplitude)
    np.clip(data, 0.0, 1.0, out=data)
    return (
        ScalarVolume(geom, data.astype(np.float32)),
        LabelVolume(geom, labels),
        landmarks,
    )


def _remap_inverted(v: np.ndarray) -> np.ndarray:
    """Reverse tissue contrast while keeping air dark (rank order of organs flips)."""
    out = v.copy()
    tissue = v > 0.2
    out[tissue] = 1.2 - v[tissue]
    return out


MODALITY_REMAPS = {
    "identity": lambda v: v,
    "inverted": _remap_inverted,
    "gamma": lambda v: np.clip(v, 0.0, None) ** 2.0,
}


def gen_pair(
    spec: PhantomSpec,
    transform: RigidTransform | AffineTransform,
    modality_remap: str = "identity",
    fov_box: Box3 | None = None,
    corruptions=(),
) -> PhantomPair:
    """Generate a phantom pair: B is A pushed through ``transform`` (physical mm),
    remapped to a second pseudo-modality, locally corrupted, then FOV-cropped.

    Landmarks of B are exactly the transformed landmarks of A (mm), recorded
    before cropping; cropping only changes the stored grid, not physical
    coordinates.  B is warped by ``volume.pull_back``, under the grid-mapping
    rules of the ``volume`` docstring; the warp, the remap and the corruption
    spheres run one z-slab at a time.  Only B's scalar layer is warped here:
    ``labels_b`` is warped on its first read (see ``PhantomPair``).
    """
    if modality_remap not in MODALITY_REMAPS:
        raise ValueError(f"unknown modality remap {modality_remap!r}")
    vol_a, lab_a, lms_a = gen_phantom(spec)
    g = vol_a.geometry

    centers = np.array([[p.x, p.y, p.z] for name, p in lms_a if name.endswith("c")])
    if len(centers):
        moved = transform.apply_array(centers)
        vox = g.physical_to_voxel(moved)
        lim = np.asarray(g.dims, dtype=np.float64) - 1.0
        in_view = np.all((vox >= 0) & (vox <= lim), axis=1)
        if in_view.sum() < 0.5 * len(centers):
            raise InsufficientOverlap("transform pushes most organs out of view")

    data_b = np.empty(g.shape_zyx)
    pull_back(g, transform, [(vol_a.data, data_b, spec.air_intensity)])
    remap = MODALITY_REMAPS[modality_remap]
    for planes in z_slabs(g.shape_zyx):
        data_b[planes] = remap(data_b[planes])

    lo, hi = float(data_b.min()), float(data_b.max())
    for c in corruptions:
        cv = g.physical_to_voxel(c.center.to_array())
        # squared mm from the centre per axis, summed as (x + y) + z: the order decides the rim voxels
        d2 = [((np.arange(g.dims[i], dtype=np.float64) - cv[i]) * g.spacing[i]) ** 2 for i in range(3)]
        d2_xy = d2[0] + d2[1][:, None]
        for planes in z_slabs(g.shape_zyx):
            sphere = d2_xy + d2[2][planes, None, None] <= c.radius**2
            block = data_b[planes]
            if c.kind == "invert":
                block[sphere] = (lo + hi) - block[sphere]
            else:
                block[sphere] = 0.5 * (lo + hi)

    vol_b = ScalarVolume(g, data_b.astype(np.float32))
    lms_b = [(name, Point3.from_array(transform.apply_array(p.to_array()))) for name, p in lms_a]
    if fov_box is not None:
        vol_b = crop(vol_b, fov_box)
    return PhantomPair(vol_a, lab_a, lms_a, vol_b, lms_b, transform, fov_box)
