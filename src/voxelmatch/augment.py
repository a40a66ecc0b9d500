"""Intensity and geometric augmentations plus overlapping-patch pair extraction.

Geometric transforms are recorded exactly, so corresponding voxels of the two
patches of a pair can always be mapped onto each other; intensity transforms
never move geometry.  Everything is deterministic given (input, spec, seed).
Patches are warped by ``volume.pull_back`` and their overlaps come from
``volume.mapped_inside``, under the grid-mapping rules of the ``volume`` docstring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InsufficientOverlap, VolumeTooSmall
from .geometry import AffineTransform, rotation_matrix
from .volume import Box3, LabelVolume, ScalarVolume, crop, half_geometry, mapped_inside, pull_back

__all__ = [
    "AugmentSpec",
    "PatchPair",
    "bezier_intensity",
    "intensity_reverse",
    "sample_patch_pair",
]

@dataclass(frozen=True)
class AugmentSpec:
    """Augmentation parameters.

    Each patch draws fresh Bezier controls.  Whether they are sorted, hence
    the curve monotone, or arbitrary plus reversal with
    ``reverse_probability`` (aggressive) is no setting here: the training
    mode decides it, and ``train`` passes it to ``sample_patch_pair``.
    """

    reverse_probability: float = 0.5
    rotation_degrees: float = 10.0
    scale_range: tuple[float, float] = (0.8, 1.2)
    blur_sigma_range: tuple[float, float] = (0.0, 1.0)
    noise_sigma_range: tuple[float, float] = (0.0, 0.02)
    patch_size: tuple[int, int, int] = (32, 32, 32)
    min_overlap: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.reverse_probability <= 1.0:
            raise ValueError("reverse_probability must lie in [0, 1]")
        if not math.isfinite(self.rotation_degrees):
            raise ValueError("rotation_degrees must be finite")
        if not 0.0 < self.scale_range[0] <= self.scale_range[1] < math.inf:
            raise ValueError("scale_range must be positive, finite and ordered")
        for name in ("blur_sigma_range", "noise_sigma_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi < math.inf:
                raise ValueError(f"{name} must be non-negative, finite and ordered")
        if min(self.patch_size) < 1:
            raise ValueError("patch_size entries must be >= 1")
        if not 0.0 < self.min_overlap <= 1.0:
            raise ValueError("min_overlap must lie in (0, 1]")


@dataclass
class PatchPair:
    """Two overlapping, independently augmented patches with exact correspondence.

    ``map_ab`` sends physical coordinates of patch A onto patch B;
    ``overlap_a`` marks the patch-A voxels whose source location is seen by
    both patches and lands inside patch B, and ``overlap_b`` the patch-B
    voxels that are seen by both and land inside patch A (the sampler draws
    FOV negatives outside it).  ``labels_a`` are patch A's labels, or None.
    """

    patch_a: ScalarVolume
    patch_b: ScalarVolume
    map_ab: AffineTransform
    overlap_a: np.ndarray
    overlap_b: np.ndarray
    labels_a: LabelVolume | None = None

    def a_to_b_voxels(self, pts_a) -> np.ndarray:
        """Map (N, 3) patch-A voxel coordinates to patch-B voxel coordinates."""
        phys = self.patch_a.geometry.voxel_to_physical(pts_a)
        return self.patch_b.geometry.physical_to_voxel(self.map_ab.apply_array(phys))

    @functools.cached_property
    def usable_anchors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The overlap anchors whose correspondent rounds onto B's half grid.

        Returns their A half-grid indices (x, y, z), their B full-resolution
        correspondents and those rounded to B's half grid, in the C order of
        ``overlap_a``.  Computed on the first read and kept, so a pair must
        not be changed after it is read.  Raises ``InsufficientOverlap`` when
        ``overlap_a`` holds no half-grid voxel.
        """
        anchors_half = _half_lattice_points(self.overlap_a)
        if len(anchors_half) == 0:
            raise InsufficientOverlap("no overlap voxels available for anchors")
        corr_full_b = self.a_to_b_voxels(anchors_half.astype(np.float64) * 2.0)
        rounded = np.round(corr_full_b / 2.0).astype(np.int64)
        ok = half_geometry(self.patch_b.geometry).in_grid(rounded)
        kept = anchors_half[ok], corr_full_b[ok], rounded[ok]
        for arr in kept:
            arr.flags.writeable = False  # shared by every later read
        return kept


def _half_lattice_points(mask_full: np.ndarray) -> np.ndarray:
    """Half-grid indices (ix, iy, iz) whose full-resolution voxel is inside the mask."""
    half = mask_full[::2, ::2, ::2]
    idx = np.argwhere(half)  # (n, 3) as (z, y, x)
    return idx[:, ::-1].copy()


def _bezier_curve(control: tuple[float, float, float, float]):
    x1, y1, x2, y2 = control
    t = np.linspace(0.0, 1.0, 1025)
    omt = 1.0 - t
    b1 = 3.0 * t * omt * omt
    b2 = 3.0 * t * t * omt
    b3 = t * t * t
    xs = b1 * x1 + b2 * x2 + b3
    ys = b1 * y1 + b2 * y2 + b3
    order = np.argsort(xs, kind="stable")
    return xs[order], ys[order]


def bezier_intensity(vol: ScalarVolume, control) -> ScalarVolume:
    """Map intensities through a cubic curve pinned at (0,0) and (1,1).

    ``control`` is the curve's inner control points (x1, y1, x2, y2).  The
    volume is min-max rescaled to [0, 1], pushed through the curve, and
    rescaled back.  A constant volume maps to itself.  The curve is monotone
    when the control points are sorted along both axes.
    """
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    if hi - lo <= 0.0:
        return ScalarVolume(vol.geometry, vol.data.copy())
    xs, ys = _bezier_curve(tuple(float(c) for c in control))
    u = (vol.data.astype(np.float64) - lo) / (hi - lo)
    mapped = np.interp(u.ravel(), xs, ys).reshape(vol.data.shape)
    return ScalarVolume(vol.geometry, (lo + mapped * (hi - lo)).astype(np.float32))


def intensity_reverse(vol: ScalarVolume) -> ScalarVolume:
    """Reflect intensities: v -> (max + min) - v.  An involution."""
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    return ScalarVolume(vol.geometry, ((lo + hi) - vol.data.astype(np.float64)).astype(np.float32))


def _geometric_augment(vol: ScalarVolume, spec: AugmentSpec, seed: int, labels: LabelVolume | None = None):
    """Random rotation/scale about the volume center plus blur and noise.

    Returns the augmented volume, the exact physical-space transform that was
    applied (out(y) = in(T^-1 y), so landmark positions can be propagated),
    and ``labels`` (on the volume's grid) warped by the same transform, or
    None.  A source outside the grid reads the volume's minimum, or label 0.
    """
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
    identity = (
        abs(angle) < 1e-12 and abs(scale - 1.0) < 1e-12
    )
    layers = [] if identity else [(vol.data, np.empty(g.shape_zyx, dtype=np.float32), float(vol.data.min()))]
    if labels is not None:
        layers.append((labels.data, np.empty(g.shape_zyx, dtype=np.uint16), 0))
    pull_back(g, transform, layers)
    warped = [out for _, out, _ in layers]
    data = (vol.data if identity else warped[0]).astype(np.float64)  # rounded once to float32 by the warp
    if blur > 1e-6:
        data = ndimage.gaussian_filter(data, sigma=blur, mode="nearest")
    if noise > 1e-12:
        data = data + rng.normal(0.0, noise, size=data.shape)
    warped_labels = None if labels is None else LabelVolume(g, warped[-1])
    return ScalarVolume(g, data.astype(np.float32)), transform, warped_labels


def _intensity_augment(vol: ScalarVolume, spec: AugmentSpec, rng, aggressive: bool) -> ScalarVolume:
    if aggressive:
        control = tuple(rng.uniform(0.0, 1.0, 4))
        out = bezier_intensity(vol, control)
        if rng.uniform() < spec.reverse_probability:
            out = intensity_reverse(out)
        return out
    raw = rng.uniform(0.0, 1.0, 4)
    control = (min(raw[0], raw[2]), min(raw[1], raw[3]), max(raw[0], raw[2]), max(raw[1], raw[3]))
    return bezier_intensity(vol, control)


def sample_patch_pair(
    vol: ScalarVolume,
    labels: LabelVolume | None,
    spec: AugmentSpec,
    seed: int,
    aggressive: bool = False,
) -> PatchPair:
    """Extract two overlapping patches and augment them independently.

    The geometric transforms and window offsets are composed into one exact
    physical correspondence.  Each patch's intensity is bent by a Bezier
    curve, which leaves the correspondence untouched: a monotone one, or
    with ``aggressive`` an arbitrary one, possibly followed by a reversal.
    ``train`` sets ``aggressive`` from its mode.  ``labels`` are cropped and
    warped onto patch A only, the side the semantic batch reads.
    """
    g = vol.geometry
    ps = spec.patch_size
    if any(ps[i] > g.dims[i] for i in range(3)):
        raise VolumeTooSmall(f"patch {ps} exceeds volume dims {g.dims}")
    rng = np.random.default_rng(seed)
    max_off = [g.dims[i] - ps[i] for i in range(3)]
    target = spec.min_overlap * ps[0] * ps[1] * ps[2]
    o_a = o_b = None
    for _ in range(200):
        ca = [int(rng.integers(0, m + 1)) for m in max_off]
        cb = [int(rng.integers(0, m + 1)) for m in max_off]
        span = 1
        for i in range(3):
            lo = max(ca[i], cb[i])
            hi = min(ca[i] + ps[i], cb[i] + ps[i])
            span *= max(0, hi - lo)
        if span >= target:
            o_a, o_b = ca, cb
            break
    if o_a is None:
        o_a = o_b = [m // 2 for m in max_off]  # fully overlapping fallback

    box_a, box_b = (Box3(tuple(o), tuple(o[i] + ps[i] - 1 for i in range(3))) for o in (o_a, o_b))
    win_a, win_b = crop(vol, box_a), crop(vol, box_b)
    lab_win = None if labels is None else crop(labels, box_a)
    aug_a, t_a, lab_a = _geometric_augment(win_a, spec, int(rng.integers(2**63)), lab_win)
    aug_b, t_b, _ = _geometric_augment(win_b, spec, int(rng.integers(2**63)))
    aug_a = _intensity_augment(aug_a, spec, rng, aggressive)
    aug_b = _intensity_augment(aug_b, spec, rng, aggressive)
    src_a, src_b = t_a.inverse(), t_b.inverse()
    map_ab = t_b.compose(src_a)

    # a patch voxel overlaps when its source lies in both windows and its image in the other patch
    ga, gb = win_a.geometry, win_b.geometry  # each patch keeps its window's grid
    overlap_a = mapped_inside(ga, (src_a, ga), (src_a, gb), (map_ab, gb))
    if not overlap_a.any():
        raise InsufficientOverlap("augmented patches share no usable overlap")
    overlap_b = mapped_inside(gb, (src_b, gb), (src_b, ga), (map_ab.inverse(), ga))
    return PatchPair(aug_a, aug_b, map_ab, overlap_a, overlap_b, lab_a)

