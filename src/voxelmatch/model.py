"""Desk-scale voxel embedder and its training loop.

A fixed multi-scale descriptor bank (Gaussian gradient and Laplacian
responses plus local standard deviations, stride-2 sampled) feeds trainable
linear projection heads.  The bank has no settings: its scales, box widths
and channel scales are module constants, and it strides each axis right
after filtering along it, so no full-resolution response is kept.  Each head
output is L2-normalized per voxel, so the contrastive losses and their exact
gradients are exercised end to end while training stays a minutes-scale
deterministic computation.  Because every bank channel scales linearly with
contrast, embeddings do not change under v -> a * v + b with a > 0, even for
an untrained model.

The head frame.  A head is a bias-free (F, D) matrix W with F = 11 bank
channels and D = 128, so its embeddings normalize(f W) span at most
k = min(F, D) dimensions.  Take the thin QR W^T = Q R (``head_frame``).  Then
f W = (f R^T) Q^T, and Q^T has orthonormal rows, so it keeps lengths and
inner products: normalize(f W) = normalize(f R^T) Q^T.  The k-wide vector
normalize(f R^T) is the voxel's frame vector, an exact isometric copy of its
D-wide embedding.  Matching uses only inner products and linear blends of
embeddings of one head, and so do the losses and their gradients, so
``embed``, ``grid_match`` and ``train`` all run on frame vectors and give
the same similarities.  Only files written for other tools (``voxelmatch
embed``) carry the D-wide vectors, frame @ Q^T.  The one zero-vector rule
(``volume.unit_rows``) maps a zero row to the frame's e1, which exports as
Q's first column.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from .augment import AugmentSpec, PatchPair, sample_patch_pair
from .errors import (
    BadMagic,
    ChecksumMismatch,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    InsufficientOverlap,
    NonFiniteWeights,
    TruncatedFile,
    UnsupportedVersion,
)
from .losses import (
    LabeledBatch,
    PairBatch,
    appearance_infonce,
    crossmod_infonce,
    proto_supcon,
)
from .matching import EmbeddingSet
from .volume import (
    EmbeddingVolume,
    LabelVolume,
    ScalarVolume,
    VolumeGeometry,
    half_geometry,
    unit_rows,
)

__all__ = [
    "DescriptorBank",
    "ProjectionModel",
    "TrainConfig",
    "head_frame",
    "embed",
    "sample_training_batch",
    "train",
    "save_model",
    "load_model",
    "new_model",
]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# descriptor bank
# ---------------------------------------------------------------------------

SIGMAS = (1.0, 2.0, 4.0)   # Gaussian scales of the gradient and Laplacian channels
BOX_WIDTHS = (5, 9)        # box widths of the two standard-deviation channels
FEATURE_DIM = 11
# Each raw response is divided by a fixed channel scale so that no channel
# dominates the cosine geometry of the projected embeddings.  The scales are
# the per-channel standard deviations of the stride-2 responses over
# unit-range phantoms at working resolution (2 mm) that are not used for
# accuracy evaluation.
CHANNEL_SCALES = (
    0.015, 0.015, 0.015,             # gradient components
    0.034, 0.018, 0.009,             # gradient magnitudes
    0.033, 0.011, 0.0035,            # Laplacians
    0.0544, 0.0538,                  # box standard deviations
)


def _gauss_kernel(sigma: float) -> np.ndarray:
    r = int(math.ceil(3.0 * sigma))
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _gauss_deriv_kernel(sigma: float) -> np.ndarray:
    # +x/sigma^2 so that under correlate1d a rising ramp reads +1
    r = int(math.ceil(3.0 * sigma))
    x = np.arange(-r, r + 1, dtype=np.float64)
    g = _gauss_kernel(sigma)
    return x / (sigma * sigma) * g


def _gauss_second_kernel(sigma: float) -> np.ndarray:
    r = int(math.ceil(3.0 * sigma))
    x = np.arange(-r, r + 1, dtype=np.float64)
    g = _gauss_kernel(sigma)
    k = (x * x - sigma * sigma) / (sigma**4) * g
    return k - k.sum() / len(k)  # truncation leaves a DC term; constants must vanish


def _halve(out: np.ndarray, axis: int) -> np.ndarray:
    """Every second sample along ``axis``, copied so that ``out`` is freed at once."""
    return np.ascontiguousarray(out[(slice(None),) * axis + (slice(None, None, 2),)])


def _filter_halve(data: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """``correlate1d`` along ``axis``, then every second sample on that axis."""
    return _halve(ndimage.correlate1d(data, kernel, axis=axis, mode="nearest"), axis)


def _box_std_halved(data: np.ndarray, width: int) -> np.ndarray:
    """Standard deviation over a ``width``-voxel box, on the stride-2 grid.

    The box means run along axes 0, 1, 2, the order of ``uniform_filter``,
    and each axis is strided right after it is filtered.
    """
    mean, sq = data, data * data
    for axis in (0, 1, 2):
        mean = _halve(ndimage.uniform_filter1d(mean, width, axis=axis, mode="nearest"), axis)
        sq = _halve(ndimage.uniform_filter1d(sq, width, axis=axis, mode="nearest"), axis)
    return np.sqrt(np.clip(sq - mean * mean, 0.0, None))


class DescriptorBank:
    """Fixed (never trained) filter bank producing ``FEATURE_DIM`` = 11 channels per voxel.

    Channel layout: gradient components (x, y, z) at sigma 2; gradient
    magnitudes at ``SIGMAS``; Laplacians at ``SIGMAS``; box standard
    deviations at ``BOX_WIDTHS``.  Every response is divided by its
    ``CHANNEL_SCALES`` entry.

    Every channel is a derivative or a spread of the intensities, so it
    vanishes on constant volumes and scales linearly with contrast: under
    v -> a * v + b with a > 0 all channels scale by ``a`` and the
    L2-normalized embeddings of any linear head do not change.  Smooth
    monotone remaps change them little.  No intensity level (raw value,
    Gaussian or box mean) enters, since a remap would move every voxel's
    embedding.  Contrast reversal (a < 0) flips every channel but the
    magnitudes and spreads, so it is not covered.

    Each 1-D response is computed once.  Per sigma, three x passes (Gaussian,
    derivative, second derivative) feed the gradient and Laplacian terms, and
    the Gaussian x and x-y smoothings are shared among them.  Every axis is
    strided by 2 right after it is filtered: a 1-D pass treats each line on
    its own, so the result is bitwise the full-resolution response sampled
    at [::2, ::2, ::2].
    """

    def compute(self, vol: ScalarVolume) -> tuple[np.ndarray, VolumeGeometry]:
        """Filter responses stride-2 sampled: returns ((nz2, ny2, nx2, F) float64, half geometry)."""
        data = vol.data.astype(np.float64)
        mags, laps = [], []
        for sigma in SIGMAS:
            g = _gauss_kernel(sigma)
            d = _gauss_deriv_kernel(sigma)
            d2 = _gauss_second_kernel(sigma)
            xg, xd, xl = (_filter_halve(data, k, 2) for k in (g, d, d2))
            xg_yg = _filter_halve(xg, g, 1)
            cx = _filter_halve(_filter_halve(xd, g, 1), g, 0)
            cy = _filter_halve(_filter_halve(xg, d, 1), g, 0)
            cz = _filter_halve(xg_yg, d, 0)
            if sigma == 2.0:
                grads = [cx, cy, cz]
            mags.append(np.sqrt(cx * cx + cy * cy + cz * cz))
            laps.append(
                _filter_halve(_filter_halve(xl, g, 1), g, 0)
                + _filter_halve(_filter_halve(xg, d2, 1), g, 0)
                + _filter_halve(xg_yg, d2, 0)
            )
        boxes = [_box_std_halved(data, w) for w in BOX_WIDTHS]
        feats = np.stack(grads + mags + laps + boxes, axis=-1) / np.asarray(CHANNEL_SCALES)
        return feats, half_geometry(vol.geometry)


_BANK = DescriptorBank()


# ---------------------------------------------------------------------------
# projection model
# ---------------------------------------------------------------------------

@dataclass
class ProjectionModel:
    """Bias-free linear heads over descriptor features; embeddings are L2-normalized."""

    w_coarse: np.ndarray  # (F, D)
    w_fine: np.ndarray    # (F, D)
    w_semantic: np.ndarray | None = None
    tau_appearance: float = 0.5
    tau_semantic: float = 0.5
    tau_cross: float = 0.5
    round_index: int = 0

    def __post_init__(self):
        self.w_coarse = np.ascontiguousarray(self.w_coarse, dtype=np.float64)
        self.w_fine = np.ascontiguousarray(self.w_fine, dtype=np.float64)
        if self.w_semantic is not None:
            self.w_semantic = np.ascontiguousarray(self.w_semantic, dtype=np.float64)
        for w in (self.w_coarse, self.w_fine, self.w_semantic):
            if w is not None and not np.all(np.isfinite(w)):
                raise NonFiniteWeights("projection weights must be finite")
        if self.w_coarse.shape != self.w_fine.shape:
            raise DimensionMismatch("coarse and fine heads must share a shape")

    @property
    def feature_dim(self) -> int:
        return int(self.w_fine.shape[0])

    @property
    def embedding_dim(self) -> int:
        return int(self.w_fine.shape[1])

    def copy(self) -> "ProjectionModel":
        return ProjectionModel(
            self.w_coarse.copy(), self.w_fine.copy(),
            None if self.w_semantic is None else self.w_semantic.copy(),
            self.tau_appearance, self.tau_semantic, self.tau_cross,
            self.round_index,
        )


def new_model(
    rng: np.random.Generator,
    embedding_dim: int = 128,
    with_semantic: bool = False,
    **kwargs,
) -> ProjectionModel:
    """Fresh model with N(0, 1/sqrt(F)) heads drawn from ``rng``, F = ``FEATURE_DIM``."""
    scale = 1.0 / math.sqrt(FEATURE_DIM)
    shape = (FEATURE_DIM, embedding_dim)
    w_c = rng.normal(0.0, scale, shape)
    w_f = rng.normal(0.0, scale, shape)
    w_s = rng.normal(0.0, scale, shape) if with_semantic else None
    return ProjectionModel(w_c, w_f, w_s, **kwargs)


# ---------------------------------------------------------------------------
# model file container
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"UAEM"
_MODEL_HEADER = struct.Struct("<HBBIIfffI")  # version, heads, pad, F, D, taus, round
_MODEL_VERSION = 1


def save_model(model: ProjectionModel, dest) -> None:
    """Serialize the projection model; header and payload are CRC-protected."""
    heads = 0b011 | (0b100 if model.w_semantic is not None else 0)
    header = _MODEL_HEADER.pack(
        _MODEL_VERSION, heads, 0,
        model.feature_dim, model.embedding_dim,
        model.tau_appearance, model.tau_semantic, model.tau_cross,
        model.round_index,
    )
    payload = model.w_coarse.tobytes() + model.w_fine.tobytes()
    if model.w_semantic is not None:
        payload += model.w_semantic.tobytes()
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    close = False
    f = dest
    if not hasattr(dest, "write"):
        f = open(Path(dest), "wb")
        close = True
    try:
        f.write(_MODEL_MAGIC)
        f.write(header)
        f.write(payload)
        f.write(struct.pack("<I", crc))
    finally:
        if close:
            f.close()


def load_model(src) -> ProjectionModel:
    close = False
    f = src
    if not hasattr(src, "read"):
        f = open(Path(src), "rb")
        close = True
    try:
        magic = f.read(4)
        if len(magic) != 4:
            raise TruncatedFile("model file shorter than its magic")
        if magic != _MODEL_MAGIC:
            raise BadMagic(f"bad model magic {magic!r}")
        header = f.read(_MODEL_HEADER.size)
        if len(header) != _MODEL_HEADER.size:
            raise TruncatedFile("model header truncated")
        version, heads, pad, fdim, ddim, tau_a, tau_s, tau_c, round_index = (
            _MODEL_HEADER.unpack(header)
        )
        if version != _MODEL_VERSION or pad != 0:
            raise UnsupportedVersion(f"unsupported model version {version}")
        if heads & 0b011 != 0b011 or heads & ~0b111:
            raise UnsupportedVersion(f"invalid head bitmask {heads:#x}")
        if fdim < 1 or ddim < 1 or fdim * ddim > 2**26:
            raise UnsupportedVersion(f"implausible head shape ({fdim}, {ddim})")
        n_heads = 3 if heads & 0b100 else 2
        n_bytes = n_heads * fdim * ddim * 8
        payload = f.read(n_bytes)
        if len(payload) != n_bytes:
            raise TruncatedFile("model payload truncated")
        crc_raw = f.read(4)
        if len(crc_raw) != 4:
            raise TruncatedFile("model checksum truncated")
        (crc_stored,) = struct.unpack("<I", crc_raw)
        if zlib.crc32(header + payload) & 0xFFFFFFFF != crc_stored:
            raise ChecksumMismatch("model CRC32 mismatch")
        mats = np.frombuffer(payload, dtype="<f8").reshape(n_heads, fdim, ddim)
        return ProjectionModel(
            mats[0].copy(), mats[1].copy(),
            mats[2].copy() if n_heads == 3 else None,
            float(tau_a), float(tau_s), float(tau_c), int(round_index),
        )
    finally:
        if close:
            f.close()


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def head_frame(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame (R^T, Q^T) of a head ``w`` (F, D), from the thin QR W^T = Q R.

    R^T is (F, k) and Q^T (k, D) with orthonormal rows, k = min(F, D), and
    W = R^T Q^T.  A voxel's frame vector is normalize(f R^T); times Q^T it is
    its embedding normalize(f W).
    """
    q, r = np.linalg.qr(w.T)
    return r.T, q.T


def _check_feature_dim(model: ProjectionModel) -> None:
    if model.feature_dim != FEATURE_DIM:
        raise DimensionMismatch(
            f"bank produces {FEATURE_DIM} channels, heads expect {model.feature_dim}"
        )


def _smooth_coarse(feats: np.ndarray, sigma: float = 4.0) -> np.ndarray:
    k = _gauss_kernel(sigma)
    out = feats
    for axis in (0, 1, 2):
        out = ndimage.correlate1d(out, k, axis=axis, mode="nearest")
    return out


def embed(vol: ScalarVolume, model: ProjectionModel) -> EmbeddingSet:
    """Per-voxel frame vectors on the half-resolution grid (coarse, fine, optional semantic).

    Each head's volume holds normalize(f R^T), k = min(F, D) channels wide
    (see ``head_frame``): inner products, and so every match, equal those of
    the D-wide embeddings normalize(f W), which are these vectors times Q^T.
    Raises ``DimensionMismatch`` when the heads' F is not ``FEATURE_DIM``.
    """
    _check_feature_dim(model)
    feats, geom = _BANK.compute(vol)
    flat = feats.reshape(-1, FEATURE_DIM)
    flat_coarse = _smooth_coarse(feats).reshape(-1, FEATURE_DIM)
    shape = geom.shape_zyx

    def head(w, source):
        e, _, zero = unit_rows(source @ head_frame(w)[0])
        count = int(zero.sum())
        if count:
            log.warning("embed substituted %d zero vectors", count)
        return EmbeddingVolume(
            geom, e.reshape(*shape, -1).astype(np.float32),
            normalized=True, zero_substitutions=count,
        )

    fine = head(model.w_fine, flat)
    coarse = head(model.w_coarse, flat_coarse)
    semantic = head(model.w_semantic, flat) if model.w_semantic is not None else None
    return EmbeddingSet(coarse=coarse, fine=fine, semantic=semantic)


# ---------------------------------------------------------------------------
# training configuration and batch sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.02
    momentum: float = 0.9
    batch_size: int = 1
    steps: int = 500
    tau_appearance: float = 0.5
    tau_semantic: float = 0.5
    tau_cross: float = 0.5
    n_pos_fine: int = 200
    n_neg_fine: int = 500
    n_fov_fine: int = 100
    n_pos_coarse: int = 100
    n_neg_coarse: int = 200
    neg_min_dist_fine: float = 8.0    # full-resolution voxels
    neg_min_dist_coarse: float = 16.0
    hard_negative_fraction: float = 0.25
    semantic_per_class: int = 64
    embedding_dim: int = 128
    with_semantic: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.n_pos_fine, self.n_pos_coarse) < 1:
            raise ValueError("positive sample counts must be >= 1")
        if min(self.tau_appearance, self.tau_semantic, self.tau_cross) <= 0:
            raise ValueError("temperatures must be positive")
        if not 0.0 < self.hard_negative_fraction <= 1.0:
            raise ValueError("hard_negative_fraction must lie in (0, 1]")


def _half_lattice_points(mask_full: np.ndarray) -> np.ndarray:
    """Half-grid indices (ix, iy, iz) whose full-resolution voxel is inside the mask."""
    half = mask_full[::2, ::2, ::2]
    idx = np.argwhere(half)  # (n, 3) as (z, y, x)
    return idx[:, ::-1].copy()


def _flat_index(idx_xyz: np.ndarray, dims) -> np.ndarray:
    nx, ny, _ = dims
    return (idx_xyz[:, 2] * ny + idx_xyz[:, 1]) * nx + idx_xyz[:, 0]


def _sample_side(
    pair: PatchPair,
    emb_a_flat: np.ndarray,
    emb_b_flat: np.ndarray,
    n_pos: int,
    n_neg: int,
    min_dist: float,
    hard_fraction: float,
    tau: float,
    rng: np.random.Generator,
    n_fov: int = 0,
    overlap_b: np.ndarray | None = None,
) -> PairBatch:
    """Sample one PairBatch from the overlap correspondence of a patch pair."""
    dims_a = half_geometry(pair.patch_a.geometry).dims
    dims_b = half_geometry(pair.patch_b.geometry).dims
    anchors_half = _half_lattice_points(pair.overlap_a)
    if len(anchors_half) == 0:
        raise InsufficientOverlap("no overlap voxels available for anchors")
    full_a = anchors_half.astype(np.float64) * 2.0
    corr_full_b = pair.a_to_b_voxels(full_a)
    corr_half = corr_full_b / 2.0
    rounded = np.round(corr_half).astype(np.int64)
    lim_b = np.asarray(dims_b) - 1
    ok = np.all((rounded >= 0) & (rounded <= lim_b), axis=1)
    anchors_half, full_a = anchors_half[ok], full_a[ok]
    corr_full_b, rounded = corr_full_b[ok], rounded[ok]
    if len(anchors_half) < n_pos:
        raise InsufficientOverlap(
            f"only {len(anchors_half)} usable overlap voxels for {n_pos} positives"
        )
    pick = rng.choice(len(anchors_half), size=n_pos, replace=False)
    a_idx = _flat_index(anchors_half[pick], dims_a)
    p_idx = _flat_index(rounded[pick], dims_b)
    corr_sel = corr_full_b[pick]
    anchors_e = emb_a_flat[a_idx]

    # Negative candidates are the query lattice in x-major order, position
    # p = (x * nyb + y) * nzb + z, less the voxels within the gate.
    nxb, nyb, nzb = dims_b
    n_b = nxb * nyb * nzb
    xmajor_flat = np.arange(n_b).reshape(nzb, nyb, nxb).transpose(2, 1, 0).ravel()
    # The gate's d2 = (dx2[x] + dy2[y]) + dz2[z] is the float that the row sum
    # of squared (x, y, z) offsets gives.  dx2 > r2 forces d2 > r2, so each
    # anchor's gated voxels lie in the box of its per-axis runs dx2 <= r2,
    # and on each (x, y) line of the box they form one run along z.
    r2 = min_dist * min_dist
    axis_d2 = [(2.0 * np.arange(n) - corr_sel[:, k, None]) ** 2 for k, n in enumerate(dims_b)]
    box = []
    for d, n in zip(axis_d2, dims_b):
        near = d <= r2
        width = max(int(near.sum(axis=1).max()), 1)  # one line, all > r2, when none is near
        idx = np.minimum(near.argmax(axis=1), n - width)[:, None] + np.arange(width)
        box.append((idx, np.take_along_axis(d, idx, axis=1)))
    (ix, dx2), (iy, dy2), (iz, dz2) = box
    gated = (dx2[:, :, None, None] + dy2[:, None, :, None]) + dz2[:, None, None, :] <= r2
    run_len = gated.sum(axis=3).reshape(n_pos, -1)
    run_z = np.take_along_axis(iz, gated.argmax(axis=3).reshape(n_pos, -1), axis=1)
    run_start = ((ix[:, :, None] * nyb + iy[:, None, :]) * nzb).reshape(n_pos, -1) + run_z
    # gated voxels before each run, and valid positions before it: the k-th
    # valid position is k plus the lengths of the runs with at most k valid
    # positions before them
    n_before = np.concatenate([np.zeros((n_pos, 1), np.int64), np.cumsum(run_len, axis=1)], axis=1)
    valid_before = run_start - n_before[:, :-1]

    n_cand = max(n_neg, int(math.ceil(n_neg / hard_fraction)))
    cand = np.zeros((n_pos, n_cand), dtype=np.int64)
    take = np.empty(n_pos, dtype=np.int64)
    for i in range(n_pos):
        pool = n_b - int(n_before[i, -1])
        if pool < n_neg:
            raise InsufficientOverlap(f"negative pool of {pool} below requested {n_neg}")
        take[i] = min(n_cand, pool)
        k = rng.choice(pool, size=take[i], replace=False)
        cand[i, :take[i]] = k + n_before[i, np.searchsorted(valid_before[i], k, side="right")]
    cand = xmajor_flat[cand]

    # -similarity of every candidate; the padding past a row's take is +inf,
    # so it never ranks.  The stacked product runs one matrix-vector product
    # per anchor, the one the per-anchor ranking ran, so the similarities are
    # bitwise the same.  Only a row whose pool is below n_cand runs over the
    # padded width, where BLAS may round its last few products differently
    # in the last bit, which reorders nothing but such near-ties.  Candidate
    # vectors are gathered 2**19 floats (4 MB) at a time.
    neg_sims = np.empty((n_pos, n_cand))
    chunk = max(1, 2**19 // (n_cand * emb_b_flat.shape[1]))
    for lo in range(0, n_pos, chunk):
        sl = slice(lo, lo + chunk)
        neg_sims[sl] = -(np.take(emb_b_flat, cand[sl], axis=0) @ anchors_e[sl, :, None])[..., 0]
    neg_sims[np.arange(n_cand) >= take[:, None]] = np.inf
    # hardest n_neg per row, ties broken by candidate position, in the order
    # of a stable argsort of -similarity
    kth = np.partition(neg_sims, n_neg - 1, axis=1)[:, n_neg - 1, None]
    harder = neg_sims < kth
    at_cut = neg_sims == kth
    room = n_neg - harder.sum(axis=1, keepdims=True)
    surv = np.nonzero(harder | (at_cut & (np.cumsum(at_cut, axis=1) <= room)))[1].reshape(n_pos, n_neg)
    order = np.argsort(np.take_along_axis(neg_sims, surv, axis=1), axis=1, kind="stable")
    neg_idx = np.take_along_axis(cand, np.take_along_axis(surv, order, axis=1), axis=1)

    fov_idx = None
    fov = None
    if n_fov > 0:
        if overlap_b is None:
            raise ValueError("fov negatives need the query-side overlap mask")
        outside = _half_lattice_points(~overlap_b)
        if len(outside):
            flat_out = _flat_index(outside, dims_b)
            fov_idx = flat_out[rng.integers(0, len(flat_out), size=(n_pos, n_fov))]
            fov = emb_b_flat[fov_idx]

    return PairBatch(
        anchors=anchors_e,
        positives=emb_b_flat[p_idx],
        negatives=np.take(emb_b_flat, neg_idx, axis=0),
        temperature=tau,
        fov_negatives=fov,
        anchor_indices=a_idx,
        positive_indices=p_idx,
        negative_indices=neg_idx,
        fov_indices=fov_idx,
    )


def sample_training_batch(
    pair: PatchPair,
    emb_a: EmbeddingSet,
    emb_b: EmbeddingSet,
    cfg: TrainConfig,
    rng: np.random.Generator,
    use_fov: bool = False,
):
    """Sample fine and coarse PairBatches (and a LabeledBatch when labels exist).

    Positives come uniformly from the overlap correspondence (query side
    rounded to its embedding grid); negatives keep a minimum distance to the
    anchor's true correspondent, after which only the hardest fraction by
    current similarity survives; FOV negatives come from outside the overlap.

    The sampling contract, which fixes every draw from ``rng``.  The fine
    side samples first, then the coarse side, then the semantic classes.
    Each side:

    - Anchors: one ``rng.choice`` over the usable overlap voxels.
    - Negative candidates: the query half lattice enumerated x-major, position
      (x * ny + y) * nz + z, less the voxels within the side's minimum
      distance of the anchor's correspondent.  Each anchor, in anchor order,
      draws ceil(n_neg / hard_negative_fraction) candidates (its whole pool
      when that is smaller) with one ``rng.choice(pool, take, replace=False)``;
      nothing else draws in between.
    - Ranking: the n_neg hardest candidates by similarity, hardest first,
      ties in candidate order, as a stable argsort of -similarity gives.
    - FOV negatives (fine side, ``use_fov``): one ``rng.integers`` draw last.

    The same seed therefore gives a byte-identical model across versions
    that keep this contract; the test suite holds the sampler to the
    per-anchor loop it replaced.
    """
    da = emb_a.fine.channels
    fine = _sample_side(
        pair,
        emb_a.fine.data.reshape(-1, da).astype(np.float64),
        emb_b.fine.data.reshape(-1, da).astype(np.float64),
        cfg.n_pos_fine, cfg.n_neg_fine, cfg.neg_min_dist_fine,
        cfg.hard_negative_fraction, cfg.tau_cross if use_fov else cfg.tau_appearance,
        rng,
        n_fov=cfg.n_fov_fine if use_fov else 0,
        overlap_b=pair.overlap_b,
    )
    dc = emb_a.coarse.channels
    coarse = _sample_side(
        pair,
        emb_a.coarse.data.reshape(-1, dc).astype(np.float64),
        emb_b.coarse.data.reshape(-1, dc).astype(np.float64),
        cfg.n_pos_coarse, cfg.n_neg_coarse, cfg.neg_min_dist_coarse,
        cfg.hard_negative_fraction, cfg.tau_cross if use_fov else cfg.tau_appearance,
        rng,
    )
    labeled = None
    if pair.labels_a is not None and emb_a.semantic is not None:
        lab_half = pair.labels_a.data[::2, ::2, ::2].ravel()
        classes = np.unique(lab_half)
        classes = classes[classes > 0]
        blocks, ids, idxs = [], [], []
        ds = emb_a.semantic.channels
        sem_flat = emb_a.semantic.data.reshape(-1, ds).astype(np.float64)
        for cls in classes:
            flat = np.nonzero(lab_half == cls)[0]
            if len(flat) > cfg.semantic_per_class:
                flat = flat[rng.choice(len(flat), size=cfg.semantic_per_class, replace=False)]
            blocks.append(sem_flat[flat])
            ids.append(int(cls))
            idxs.append(flat)
        if blocks:
            labeled = LabeledBatch(blocks, cfg.tau_semantic, ids, idxs)
    return fine, coarse, labeled


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _norm_backprop(g_e, e, norms, zero):
    """Chain dL/d(embedding) through v -> v/|v|; zero-substituted rows get no gradient."""
    gv = g_e - (g_e * e).sum(axis=1, keepdims=True) * e
    gv /= np.maximum(norms, 1e-30)[:, None]
    if zero.any():
        gv[zero] = 0.0
    return gv


class _SideState:
    """Frame vectors plus normalization bookkeeping of one patch side under the current W.

    ``r_t`` maps each trained head name to its R^T (see ``head_frame``).
    """

    def __init__(self, feats_flat, feats_coarse_flat, r_t):
        self.feats = feats_flat
        self.feats_coarse = feats_coarse_flat
        self.e_fine, self.n_fine, self.z_fine = unit_rows(feats_flat @ r_t["fine"])
        self.e_coarse, self.n_coarse, self.z_coarse = unit_rows(feats_coarse_flat @ r_t["coarse"])
        if "semantic" in r_t:
            self.e_sem, self.n_sem, self.z_sem = unit_rows(feats_flat @ r_t["semantic"])
        else:
            self.e_sem = None

    def embedding_set(self, geom) -> EmbeddingSet:
        shape = geom.shape_zyx

        def vol(e):
            return EmbeddingVolume(
                geom, e.reshape(*shape, -1), normalized=True
            )

        return EmbeddingSet(
            coarse=vol(self.e_coarse), fine=vol(self.e_fine),
            semantic=vol(self.e_sem) if self.e_sem is not None else None,
        )


def _accumulate(grads, head, side, feats_name, idx, g_e, e, norms, zero):
    gv = _norm_backprop(g_e, e[idx], norms[idx], zero[idx])
    feats = getattr(side, feats_name)[idx]
    grads[head] += feats.T @ gv


def _backprop_pair_batch(grads, head, side_a, side_b, batch, out, e_attr, n_attr, z_attr, feats_name):
    e_a, n_a, z_a = getattr(side_a, e_attr), getattr(side_a, n_attr), getattr(side_a, z_attr)
    e_b, n_b, z_b = getattr(side_b, e_attr), getattr(side_b, n_attr), getattr(side_b, z_attr)
    scale = 1.0 / len(batch.anchor_indices)
    _accumulate(grads, head, side_a, feats_name, batch.anchor_indices, out.d_anchors * scale, e_a, n_a, z_a)
    _accumulate(grads, head, side_b, feats_name, batch.positive_indices, out.d_positives * scale, e_b, n_b, z_b)
    flat_neg = batch.negative_indices.ravel()
    d_neg = out.d_negatives.reshape(len(flat_neg), -1) * scale
    _accumulate(grads, head, side_b, feats_name, flat_neg, d_neg, e_b, n_b, z_b)
    if out.d_fov is not None and batch.fov_indices is not None:
        flat_fov = batch.fov_indices.ravel()
        d_fov = out.d_fov.reshape(len(flat_fov), -1) * scale
        _accumulate(grads, head, side_b, feats_name, flat_fov, d_fov, e_b, n_b, z_b)


def _registered_to_patch_pair(reg) -> PatchPair:
    """View a registered pair as a patch pair: moving is side A, fixed crop side B."""
    moving, fixed = reg.moving, reg.fixed_crop
    ga, gb = moving.geometry, fixed.geometry
    mapped = gb.physical_to_voxel(reg.rigid.apply_array(ga.voxel_to_physical(ga.voxel_points())))
    overlap_a = gb.in_grid(mapped).reshape(ga.shape_zyx)
    overlap_b = reg.overlap_mask.data.astype(bool)
    return PatchPair(
        patch_a=moving, patch_b=fixed, map_ab=reg.rigid.as_affine(),
        overlap_a=overlap_a, overlap_b=overlap_b,
    )


def train(
    dataset,
    cfg: TrainConfig,
    mode: str = "standard",
    augment_spec: AugmentSpec | None = None,
    registered_pairs=None,
    init: ProjectionModel | None = None,
):
    """SGD with momentum over the projection heads.

    ``dataset`` is a list of ScalarVolume or (ScalarVolume, LabelVolume)
    entries at working resolution.  Modes: ``standard`` (self-supervised,
    semantic head when labels exist), ``aggressive`` (self-supervised with
    aggressive intensity augmentation, appearance heads only), ``paired``
    (alternates aggressive self-supervised batches with cross-modality
    batches drawn from ``registered_pairs``).  Deterministic given the seed;
    returns (model, per-step loss log).  Raises ``DimensionMismatch`` when
    ``init``'s heads' F is not ``FEATURE_DIM``.

    Each step works in the head frames of the current W (see ``head_frame``):
    it embeds with R^T, samples and evaluates the losses on k-wide frame
    vectors and backprops an (F, k) gradient G.  Every loss gradient with
    respect to an embedding is a combination of embeddings, so it lies in
    the row space of Q^T, and the D-wide gradient of W is exactly G Q^T.
    The momentum update runs on W.
    """
    if mode not in ("standard", "aggressive", "paired"):
        raise ValueError(f"unknown training mode {mode!r}")
    if init is not None:
        _check_feature_dim(init)
    items = []
    for entry in dataset:
        if isinstance(entry, ScalarVolume):
            items.append((entry, None))
        else:
            vol, lab = entry
            items.append((vol, lab))
    if not items:
        raise EmptyDataset("training dataset is empty")
    if mode == "paired" and not registered_pairs:
        raise ValueError("paired mode needs registered pairs")

    rng = np.random.default_rng(cfg.seed)
    with_semantic = (
        mode == "standard" and cfg.with_semantic and any(lab is not None for _, lab in items)
    )
    if init is not None:
        model = init.copy()
        if with_semantic and model.w_semantic is None:
            model.w_semantic = rng.normal(
                0.0, 1.0 / math.sqrt(model.feature_dim),
                (model.feature_dim, model.embedding_dim),
            )
    else:
        model = new_model(
            rng, cfg.embedding_dim, with_semantic,
            tau_appearance=cfg.tau_appearance, tau_semantic=cfg.tau_semantic,
            tau_cross=cfg.tau_cross,
        )

    if augment_spec is None:
        augment_spec = AugmentSpec(aggressive=(mode != "standard"))

    heads = ["fine", "coarse"] + (["semantic"] if with_semantic else [])
    weights = {"fine": model.w_fine, "coarse": model.w_coarse}
    if with_semantic:
        weights["semantic"] = model.w_semantic
    velocity = {h: np.zeros_like(w) for h, w in weights.items()}
    reg_cache: dict[int, tuple] = {}
    log_rows = []

    for step_i in range(cfg.steps):
        frames = {h: head_frame(w) for h, w in weights.items()}
        r_t = {h: f[0] for h, f in frames.items()}
        grads = {h: np.zeros_like(r) for h, r in r_t.items()}
        losses_acc = {"fine": 0.0, "coarse": 0.0, "semantic": float("nan")}
        for _ in range(cfg.batch_size):
            paired_step = mode == "paired" and step_i % 2 == 1
            if paired_step:
                reg = registered_pairs[int(rng.integers(len(registered_pairs)))]
                key = id(reg)
                if key not in reg_cache:
                    pp = _registered_to_patch_pair(reg)
                    fa, _ = _BANK.compute(pp.patch_a)
                    fb, _ = _BANK.compute(pp.patch_b)
                    reg_cache[key] = (pp, fa, fb)
                pp, feats_a, feats_b = reg_cache[key]
                labels_here = False
            else:
                vol, lab = items[int(rng.integers(len(items)))]
                pp = sample_patch_pair(
                    vol, lab if with_semantic else None, augment_spec,
                    int(rng.integers(2**63)),
                )
                feats_a, _ = _BANK.compute(pp.patch_a)
                feats_b, _ = _BANK.compute(pp.patch_b)
                labels_here = with_semantic and pp.labels_a is not None
            fa_flat = feats_a.reshape(-1, FEATURE_DIM)
            fb_flat = feats_b.reshape(-1, FEATURE_DIM)
            fa_coarse = _smooth_coarse(feats_a).reshape(-1, FEATURE_DIM)
            fb_coarse = _smooth_coarse(feats_b).reshape(-1, FEATURE_DIM)
            side_a = _SideState(fa_flat, fa_coarse, r_t)
            side_b = _SideState(fb_flat, fb_coarse, r_t)
            set_a = side_a.embedding_set(half_geometry(pp.patch_a.geometry))
            set_b = side_b.embedding_set(half_geometry(pp.patch_b.geometry))
            try:
                fine_b, coarse_b, labeled = sample_training_batch(
                    pp, set_a, set_b, cfg, rng, use_fov=paired_step
                )
            except InsufficientOverlap:
                continue  # skip pathological draws, the step still updates on other items
            loss_fn = crossmod_infonce if paired_step else appearance_infonce
            out_f = loss_fn(fine_b)
            out_c = appearance_infonce(_strip_fov(coarse_b))
            losses_acc["fine"] += out_f.value / len(fine_b.anchor_indices)
            losses_acc["coarse"] += out_c.value / len(coarse_b.anchor_indices)
            _backprop_pair_batch(
                grads, "fine", side_a, side_b, fine_b, out_f,
                "e_fine", "n_fine", "z_fine", "feats",
            )
            _backprop_pair_batch(
                grads, "coarse", side_a, side_b, coarse_b, out_c,
                "e_coarse", "n_coarse", "z_coarse", "feats_coarse",
            )
            if labels_here and labeled is not None:
                out_s = proto_supcon(labeled)
                total = sum(len(b) for b in labeled.class_embeddings)
                if math.isnan(losses_acc["semantic"]):
                    losses_acc["semantic"] = 0.0
                losses_acc["semantic"] += out_s.value / max(total, 1)
                for block_idx, grad_block in zip(labeled.class_indices, out_s.d_classes):
                    _accumulate(
                        grads, "semantic", side_a, "feats", block_idx,
                        grad_block / total, side_a.e_sem, side_a.n_sem, side_a.z_sem,
                    )
        grads = {h: g @ frames[h][1] for h, g in grads.items()}
        if not all(np.all(np.isfinite(g)) for g in grads.values()):
            raise DivergedLoss(f"non-finite gradient at step {step_i}")
        if any(
            not math.isfinite(v) for k, v in losses_acc.items()
            if k != "semantic" or not math.isnan(v)
        ):
            raise DivergedLoss(f"non-finite loss at step {step_i}")
        for h in heads:
            velocity[h] = cfg.momentum * velocity[h] - cfg.learning_rate * grads[h] / cfg.batch_size
            weights[h] += velocity[h]
        log_rows.append(
            {
                "step": step_i,
                "loss_fine": losses_acc["fine"] / cfg.batch_size,
                "loss_coarse": losses_acc["coarse"] / cfg.batch_size,
                "loss_semantic": losses_acc["semantic"] / cfg.batch_size
                if not math.isnan(losses_acc["semantic"]) else float("nan"),
            }
        )
    return model, log_rows


def _strip_fov(batch: PairBatch) -> PairBatch:
    if batch.fov_negatives is None:
        return batch
    return replace(batch, fov_negatives=None, fov_indices=None)
