"""3-D points, rigid and affine transforms, and least-squares fits to matched point sets.

``fit_rigid`` and ``fit_affine`` return the transform; only ``fit_rigid_trimmed`` reports a ``FitReport``.
All fits run in 64-bit floating point regardless of the precision of the
volumes the points came from, so that small residuals remain meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, MismatchedLengths

__all__ = [
    "Point3",
    "RigidTransform",
    "AffineTransform",
    "FitReport",
    "fit_rigid",
    "fit_affine",
    "fit_rigid_trimmed",
    "rotation_matrix",
    "rigid_about",
]

# relative singular-value cutoff below which a point cloud counts as rank deficient
_RANK_RTOL = 1e-9


@dataclass(frozen=True)
class Point3:
    """A point in 3-D space; coordinates are millimeters unless the caller says otherwise."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("Point3 coordinates must be finite")

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> "Point3":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


def _columns(pts: np.ndarray) -> np.ndarray:
    """The (3, N) components of a point (3,) or of (N, 3) rows, as a view; it is
    C-contiguous when the rows are component-major (see "Grid mappings" in ``volume``)."""
    if pts.shape[-1:] != (3,):
        raise ValueError(f"expected (x, y, z) points, got shape {pts.shape}")
    return pts.reshape(-1, 3).T


def _apply_linear(linear: np.ndarray, translation: np.ndarray, pts) -> np.ndarray:
    """``linear @ p + translation`` for a point ``p`` (3,) or each of (N, 3) rows, in
    float64, shaped like ``pts``.

    Rows come back as an F-ordered (N, 3) view of (3, N) memory: the product is
    ``linear @ rows.T``, and the translation is added in place per component, one
    contiguous loop each.  Each entry is bitwise what ``pts @ linear.T + translation``
    gives, which loops over 3-long rows (see "Grid mappings" in ``volume``).
    """
    pts = np.asarray(pts, dtype=np.float64)
    out = linear @ _columns(pts)
    out += translation[:, None]
    return out.T.reshape(pts.shape)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation.  ``rotation`` must be orthonormal with det +1."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("rigid transform entries must be finite")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation matrix must have determinant +1")

    def apply_array(self, pts) -> np.ndarray:
        """The transform of a point (3,) or of (N, 3) rows; see ``_apply_linear``."""
        return _apply_linear(self.rotation, self.translation, pts)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def as_affine(self) -> "AffineTransform":
        return AffineTransform(self.rotation.copy(), self.translation.copy())


@dataclass(frozen=True)
class AffineTransform:
    """General linear map plus translation."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        a = np.array(self.linear, dtype=np.float64).reshape(3, 3)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "linear", a)
        object.__setattr__(self, "translation", t)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(t))):
            raise ValueError("affine transform entries must be finite")

    def apply_array(self, pts) -> np.ndarray:
        """The transform of a point (3,) or of (N, 3) rows; see ``_apply_linear``."""
        return _apply_linear(self.linear, self.translation, pts)

    def inverse(self) -> "AffineTransform":
        if abs(np.linalg.det(self.linear)) <= 1e-12:
            raise DegenerateGeometry("affine transform is not invertible")
        inv = np.linalg.inv(self.linear)
        return AffineTransform(inv, -inv @ self.translation)

    def compose(self, inner: "AffineTransform") -> "AffineTransform":
        """Return self applied after ``inner``."""
        return AffineTransform(
            self.linear @ inner.linear,
            self.linear @ inner.translation + self.translation,
        )


@dataclass
class FitReport:
    """Outcome of ``fit_rigid_trimmed``: total squared residual of the inliers, and the inlier mask."""

    residual_sum_squares: float
    inlier_mask: np.ndarray


def _as_points_array(points) -> np.ndarray:
    if not isinstance(points, np.ndarray):
        points = [p.to_array() if isinstance(p, Point3) else p for p in points]
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("expected an (N, 3) point array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def _point_pairs(src, dst, minimum: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``src`` and ``dst`` as (N, 3) float64 arrays of equal length N >= ``minimum``."""
    s = _as_points_array(src)
    d = _as_points_array(dst)
    if len(s) != len(d):
        raise MismatchedLengths(f"{len(s)} source vs {len(d)} destination points")
    if len(s) < minimum:
        raise DegenerateGeometry(f"{what} needs at least {minimum} point pairs")
    return s, d


def fit_rigid(src, dst) -> RigidTransform:
    """Least-squares rigid fit mapping ``src`` onto ``dst``.

    Solves for the rotation/translation minimising the summed squared
    residuals via the SVD of the cross-covariance of the centered clouds.
    When the unconstrained optimum is a reflection, the singular direction
    with the smallest singular value has its sign flipped so the result is
    a proper rotation.
    """
    s, d = _point_pairs(src, dst, 3, "rigid fit")
    cs = s.mean(axis=0)
    cd = d.mean(axis=0)
    ps = s - cs
    pd = d - cd
    sv = np.linalg.svd(ps, compute_uv=False)
    if sv[1] <= _RANK_RTOL * max(sv[0], 1e-300):
        raise DegenerateGeometry("source points are collinear")
    h = ps.T @ pd
    u, _, vt = np.linalg.svd(h)
    v = vt.T
    r = v @ u.T
    if np.linalg.det(r) < 0:
        v = v.copy()
        v[:, -1] *= -1.0  # flip the smallest singular direction to get det +1
        r = v @ u.T
    return RigidTransform(r, cd - r @ cs)


def fit_affine(src, dst) -> AffineTransform:
    """Least-squares affine fit mapping ``src`` onto ``dst``.

    Requires at least four non-coplanar source points.
    """
    s, d = _point_pairs(src, dst, 4, "affine fit")
    sv = np.linalg.svd(s - s.mean(axis=0), compute_uv=False)
    if sv[2] <= _RANK_RTOL * max(sv[0], 1e-300):
        raise DegenerateGeometry("source points are coplanar or collinear")
    design = np.hstack([s, np.ones((len(s), 1))])
    m, _, _, _ = np.linalg.lstsq(design, d, rcond=None)
    return AffineTransform(m[:3].T, m[3])


def fit_rigid_trimmed(src, dst, trim_fraction: float) -> tuple[RigidTransform, FitReport]:
    """Rigid fit that repeatedly drops the worst-residual pairs.

    Each round fits the current inliers, ranks every input pair by residual
    under that fit, and keeps the best ``N - ceil(trim_fraction * N)``.
    Stops when the inlier set repeats or after 10 rounds, fitting each set once;
    with ``trim_fraction`` 0 it equals ``fit_rigid`` on all pairs, bit for bit.
    """
    if not 0.0 <= trim_fraction <= 0.5:
        raise ValueError("trim_fraction must lie in [0, 0.5]")
    s, d = _point_pairs(src, dst, 3, "rigid fit")
    n = len(s)
    n_drop = math.ceil(trim_fraction * n)
    keep = n - n_drop
    if keep < 3:
        raise DegenerateGeometry("fewer than 3 pairs would remain after trimming")
    current = np.arange(n)
    for _ in range(10):
        rig = fit_rigid(s[current], d[current])
        if n_drop == 0:
            break
        res_all = ((d - rig.apply_array(s)) ** 2).sum(axis=1)
        selected = np.sort(np.argsort(res_all, kind="stable")[:keep])
        if np.array_equal(selected, current):
            break
        current = selected
    else:  # the tenth round changed the set
        rig = fit_rigid(s[current], d[current])
    resid = float(((d[current] - rig.apply_array(s[current])) ** 2).sum())
    mask = np.zeros(n, dtype=bool)
    mask[current] = True
    return rig, FitReport(resid, mask)


def rotation_matrix(axis, angle_rad: float) -> np.ndarray:
    """Rotation matrix for a rotation of ``angle_rad`` about ``axis`` (Rodrigues form)."""
    a = np.asarray(axis, dtype=np.float64)
    if not (np.isfinite(a).all() and math.isfinite(angle_rad)):
        raise ValueError("rotation axis and angle must be finite")
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("rotation axis must be non-zero")
    a = a / norm
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]], dtype=np.float64
    )
    return np.eye(3) + math.sin(angle_rad) * k + (1.0 - math.cos(angle_rad)) * (k @ k)


def rigid_about(rotation: np.ndarray, center, shift=(0.0, 0.0, 0.0)) -> RigidTransform:
    """Rigid transform that rotates about ``center`` and then shifts by ``shift``."""
    c = np.asarray(center, dtype=np.float64)
    s = np.asarray(shift, dtype=np.float64)
    r = np.asarray(rotation, dtype=np.float64)
    return RigidTransform(r, c - r @ c + s)
