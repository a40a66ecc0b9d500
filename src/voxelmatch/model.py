"""Desk-scale voxel embedder and its training loop.

A fixed multi-scale descriptor bank (Gaussian gradient and Laplacian
responses plus local standard deviations, stride-2 sampled) feeds trainable
linear projection heads.  The bank has no settings: its scales, box widths
and channel scales are module constants.  Each 1-D filter pass is one BLAS
product with a banded matrix that computes only the kept samples, so no
full-resolution response exists.  Each head output is L2-normalized per
voxel, so the contrastive losses and their exact gradients are exercised end
to end while training stays a minutes-scale deterministic computation.
Because every bank channel scales linearly with contrast, embeddings do not
change under v -> a * v + b with a > 0, even for an untrained model.

Heads.  A head is a bias-free (F, k) map M over the F = 11 bank channels,
and a voxel's embedding is normalize(f M).  ``new_model`` draws each head as
an N(0, 1/sqrt(F)) (F, 128) matrix W and keeps M = R^T of the thin QR
W^T = Q R, so k = min(F, 128) = 11.  Then f W = (f M) Q^T, and Q^T has
orthonormal rows, so normalize(f M) is an exact isometric copy of
normalize(f W): every inner product, and so every match and loss, is the
same.  Training never leaves that k-dimensional space (each gradient of W
is one of M times Q^T), so Q never trains and is not kept: ``embed``,
``train`` and the model file all work on M.  The zero-vector rule
(``volume.unit_rows``) maps a zero row to e1.

The model file.  A UAEM file is the magic ``UAEM``, a little-endian header
(version 2, a head bitmask, F, k, the round index), the coarse, fine and
optional semantic maps as (F, k) float64 in C order, and a CRC32 of header
and payload.  Version 1 files stored each head as its (F, D) W with three
unused temperatures; ``load_model`` still reads them, keeping M = R^T of
W's thin QR, which is the map they embedded with.  The framing (path or file
object, exact reads, the trailing CRC) is the one ``volume`` keeps for EVF
too; unlike EVF's, this CRC also covers the header.
"""

from __future__ import annotations

import functools
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .augment import AugmentSpec, PatchPair, sample_patch_pair
from .errors import (
    BadMagic,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    InsufficientOverlap,
    NonFiniteWeights,
    UnsupportedVersion,
)
from .losses import (
    LabeledBatch,
    PairBatch,
    _check_unit,
    appearance_infonce,
    crossmod_infonce,
    proto_supcon,
)
from .matching import EmbeddingSet
from .volume import (
    EmbeddingVolume,
    ScalarVolume,
    VolumeGeometry,
    _binary_file,
    _read_checked,
    _read_exact,
    _write_framed,
    half_geometry,
    unit_rows,
)

__all__ = [
    "DescriptorBank",
    "ProjectionModel",
    "TrainConfig",
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


@functools.lru_cache(maxsize=None)
def _band(kernel: tuple[float, ...], n: int, step: int) -> np.ndarray:
    """Read-only (ceil(n / step), n) B with B @ line = correlate1d(line, kernel, mode="nearest")[::step].

    Row i is the odd-length ``kernel`` centred on sample step * i; the taps
    past either end of the line clamp to its end sample, so they fold into
    the first or last column.  The cache keeps one matrix per kernel, line
    length and step in use, about 6.5 n^2 floats per line length n.
    """
    r = len(kernel) // 2
    centres = np.arange(0, n, step)
    band = np.zeros((len(centres), n))
    for j, tap in enumerate(kernel):
        band[np.arange(len(centres)), np.clip(centres + j - r, 0, n - 1)] += tap
    band.flags.writeable = False
    return band


def _correlate(data: np.ndarray, kernel: tuple[float, ...], axis: int, step: int = 2) -> np.ndarray:
    """``correlate1d(mode="nearest")`` along ``axis`` with every ``step``-th sample kept, as one
    BLAS product with ``_band``: lines @ B^T on the last axis, B @ slab on the others."""
    shape, n = data.shape, data.shape[axis]
    band = _band(kernel, n, step)
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    if post == 1:
        out = data.reshape(pre, n) @ band.T
    elif pre == 1:
        out = band @ data.reshape(n, post)
    else:
        out = np.matmul(band, data.reshape(pre, n, post))
    return out.reshape(shape[:axis] + (len(band),) + shape[axis + 1:])


def _box_std_halved(data: np.ndarray, width: int) -> np.ndarray:
    """Standard deviation over a ``width``-voxel box, on the stride-2 grid.

    The box means run on the data less their own mean.  That leaves the
    variance as it is, but uncentred, E[v^2] - E[v]^2 cancels two large
    means and keeps their rounding: ~4e-5 on a constant volume of value 100.
    """
    box = (1.0 / width,) * width
    mean = data - data.mean()
    sq = mean * mean
    for axis in (0, 1, 2):
        mean, sq = _correlate(mean, box, axis), _correlate(sq, box, axis)
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

    Each 1-D response is computed once, by one banded-matrix product that
    yields only its stride-2 samples (``_correlate``).  Per sigma, three x
    passes (Gaussian, derivative, second derivative) feed the gradient and
    Laplacian terms, and the Gaussian x and x-y smoothings are shared.  The
    box means run on centred data (``_box_std_halved``).  The products sum
    in another order than full-resolution ``correlate1d`` and
    ``uniform_filter`` sampled at [::2, ::2, ::2]: on unit-range volumes the
    scaled gradient and Laplacian channels agree with those within 1e-12 and
    the box channels within 1e-9.
    """

    def compute(self, vol: ScalarVolume) -> tuple[np.ndarray, VolumeGeometry]:
        """Filter responses stride-2 sampled: returns ((nz2, ny2, nx2, F) float64, half geometry)."""
        data = vol.data.astype(np.float64)
        mags, laps = [], []
        for sigma in SIGMAS:
            g, d, d2 = (tuple(f(sigma)) for f in (_gauss_kernel, _gauss_deriv_kernel, _gauss_second_kernel))
            xg, xd, xl = (_correlate(data, k, 2) for k in (g, d, d2))
            xg_yg = _correlate(xg, g, 1)
            cx = _correlate(_correlate(xd, g, 1), g, 0)
            cy = _correlate(_correlate(xg, d, 1), g, 0)
            cz = _correlate(xg_yg, d, 0)
            if sigma == 2.0:
                grads = [cx, cy, cz]
            mags.append(np.sqrt(cx * cx + cy * cy + cz * cz))
            laps.append(
                _correlate(_correlate(xl, g, 1), g, 0)
                + _correlate(_correlate(xg, d2, 1), g, 0)
                + _correlate(xg_yg, d2, 0)
            )
        boxes = [_box_std_halved(data, w) for w in BOX_WIDTHS]
        # channel-first, so the scaling runs per channel, then moved last in one copy
        feats = np.stack(grads + mags + laps + boxes)
        feats /= np.asarray(CHANNEL_SCALES)[:, None, None, None]
        return np.moveaxis(feats, 0, -1).copy(), half_geometry(vol.geometry)


_BANK = DescriptorBank()


# ---------------------------------------------------------------------------
# projection model
# ---------------------------------------------------------------------------

@dataclass
class ProjectionModel:
    """Bias-free linear heads, each an (F, k) map over descriptor features; embeddings are L2-normalized."""

    w_coarse: np.ndarray  # (F, k)
    w_fine: np.ndarray    # (F, k)
    w_semantic: np.ndarray | None = None
    round_index: int = 0

    def __post_init__(self):
        self.w_coarse = np.ascontiguousarray(self.w_coarse, dtype=np.float64)
        self.w_fine = np.ascontiguousarray(self.w_fine, dtype=np.float64)
        if self.w_semantic is not None:
            self.w_semantic = np.ascontiguousarray(self.w_semantic, dtype=np.float64)
        for w in (self.w_coarse, self.w_fine, self.w_semantic):
            if w is not None and not np.all(np.isfinite(w)):
                raise NonFiniteWeights("projection weights must be finite")
        if any(w is not None and w.shape != self.w_fine.shape for w in (self.w_coarse, self.w_semantic)):
            raise DimensionMismatch("the heads must share a shape")

    @property
    def feature_dim(self) -> int:
        return int(self.w_fine.shape[0])

    def copy(self) -> "ProjectionModel":
        return ProjectionModel(
            self.w_coarse.copy(), self.w_fine.copy(),
            None if self.w_semantic is None else self.w_semantic.copy(),
            self.round_index,
        )


_DRAW_WIDTH = 128  # columns of each random head draw; it fixes the random stream and so the map each seed gives


def _head_map(w: np.ndarray) -> np.ndarray:
    """The (F, k) map R^T of an (F, D) head W, from the thin QR W^T = Q R, k = min(F, D)."""
    return np.linalg.qr(w.T)[1].T


def _draw_head(rng: np.random.Generator) -> np.ndarray:
    return _head_map(rng.normal(0.0, 1.0 / math.sqrt(FEATURE_DIM), (FEATURE_DIM, _DRAW_WIDTH)))


def new_model(rng: np.random.Generator, with_semantic: bool = False) -> ProjectionModel:
    """Fresh model: each head is the map of an N(0, 1/sqrt(F)) (F, 128) draw from ``rng``, F = ``FEATURE_DIM``."""
    w_c = _draw_head(rng)
    w_f = _draw_head(rng)
    return ProjectionModel(w_c, w_f, _draw_head(rng) if with_semantic else None)


# ---------------------------------------------------------------------------
# model file container
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"UAEM"
# version, head bitmask, pad, F, k; then a version's tail: the round index
# (version 2), or three unused temperatures and the round index (version 1,
# whose heads are (F, D) matrices W, so its k field holds D)
_MODEL_HEADER = struct.Struct("<HBBII")
_MODEL_TAIL = {1: struct.Struct("<fffI"), 2: struct.Struct("<I")}
_MODEL_VERSION = 2


def save_model(model: ProjectionModel, dest) -> None:
    """Serialize the projection model as UAEM version 2; header and payload are CRC-protected."""
    heads = 0b011 | (0b100 if model.w_semantic is not None else 0)
    header = _MODEL_HEADER.pack(_MODEL_VERSION, heads, 0, *model.w_fine.shape)
    header += _MODEL_TAIL[_MODEL_VERSION].pack(model.round_index)
    payload = model.w_coarse.tobytes() + model.w_fine.tobytes()
    if model.w_semantic is not None:
        payload += model.w_semantic.tobytes()
    _write_framed(dest, _MODEL_MAGIC, header, payload)


def load_model(src) -> ProjectionModel:
    """Read a UAEM file of version 2, or of version 1, whose (F, D) heads become their maps."""
    with _binary_file(src, "rb") as f:
        magic = _read_exact(f, 4, "model magic")
        if magic != _MODEL_MAGIC:
            raise BadMagic(f"bad model magic {magic!r}")
        header = _read_exact(f, _MODEL_HEADER.size, "model header")
        version, heads, pad, fdim, width = _MODEL_HEADER.unpack(header)
        if version not in _MODEL_TAIL or pad != 0:
            raise UnsupportedVersion(f"unsupported model version {version}")
        header += _read_exact(f, _MODEL_TAIL[version].size, "model header")
        round_index = _MODEL_TAIL[version].unpack_from(header, _MODEL_HEADER.size)[-1]
        if heads & 0b011 != 0b011 or heads & ~0b111:
            raise UnsupportedVersion(f"invalid head bitmask {heads:#x}")
        if fdim < 1 or width < 1 or fdim * width > 2**26:
            raise UnsupportedVersion(f"implausible head shape ({fdim}, {width})")
        n_heads = 3 if heads & 0b100 else 2
        payload = _read_checked(f, np.empty((n_heads, fdim, width), "<f8"), header, "model payload")
    mats = [
        _head_map(w) if version == 1 else w.copy()  # a NaN or inf in W leaves one in its map
        for w in payload
    ]
    return ProjectionModel(mats[0], mats[1], mats[2] if n_heads == 3 else None, int(round_index))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def _check_feature_dim(model: ProjectionModel) -> None:
    if model.feature_dim != FEATURE_DIM:
        raise DimensionMismatch(
            f"bank produces {FEATURE_DIM} channels, heads expect {model.feature_dim}"
        )


def _smooth_coarse(feats: np.ndarray, sigma: float = 4.0) -> np.ndarray:
    k = tuple(_gauss_kernel(sigma))
    out = feats
    for axis in (0, 1, 2):
        out = _correlate(out, k, axis, step=1)
    return out


def _features(vol: ScalarVolume) -> tuple[np.ndarray, np.ndarray, VolumeGeometry]:
    """A volume's fine and coarse (n, F) feature rows and its half geometry.

    The fine rows are the bank's responses; the coarse rows are those
    smoothed at sigma = 4 on the half grid.
    """
    feats, geom = _BANK.compute(vol)
    return feats.reshape(-1, FEATURE_DIM), _smooth_coarse(feats).reshape(-1, FEATURE_DIM), geom


def embed(vol: ScalarVolume, model: ProjectionModel) -> EmbeddingSet:
    """Per-voxel embeddings on the half-resolution grid (coarse, fine, optional semantic).

    Each head's volume holds normalize(f M) as float32, k channels wide for
    an (F, k) map M (11 for every drawn head).  Raises ``DimensionMismatch``
    when the heads' F is not ``FEATURE_DIM``.
    """
    _check_feature_dim(model)
    maps = {"fine": model.w_fine, "coarse": model.w_coarse}
    if model.w_semantic is not None:
        maps["semantic"] = model.w_semantic
    side = _SideState(*_features(vol), maps)
    for _, _, _, zero in side.heads.values():
        if zero.any():
            log.warning("embed substituted %d zero vectors", int(zero.sum()))
    return side.embedding_set(np.float32)


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
    with_semantic: bool = True
    seed: int = 0

    def __post_init__(self):
        counts = (self.n_pos_fine, self.n_pos_coarse, self.n_neg_fine, self.n_neg_coarse, self.semantic_per_class)
        if min(self.batch_size, *counts) < 1:
            raise ValueError("batch_size and the positive, negative and per-class sample counts must be >= 1")
        if min(self.steps, self.n_fov_fine) < 0:
            raise ValueError("steps and n_fov_fine must be >= 0")
        if not (self.neg_min_dist_fine >= 0 and self.neg_min_dist_coarse >= 0):
            raise ValueError("negative minimum distances must be >= 0")
        for name in ("tau_appearance", "tau_semantic", "tau_cross"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 < self.hard_negative_fraction <= 1.0:
            raise ValueError("hard_negative_fraction must lie in (0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


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
    """Sample one PairBatch from the pair's ``usable_anchors``.

    Any query row can be drawn as a negative, and only its similarity
    reaches the loss, so the whole query table must be unit
    (``NonUnitInput`` otherwise).
    """
    _check_unit("query", emb_b_flat)
    half_b = half_geometry(pair.patch_b.geometry)
    anchors_half, corr_full_b, rounded = pair.usable_anchors
    if len(anchors_half) < n_pos:
        raise InsufficientOverlap(
            f"only {len(anchors_half)} usable overlap voxels for {n_pos} positives"
        )
    pick = rng.choice(len(anchors_half), size=n_pos, replace=False)
    a_idx = half_geometry(pair.patch_a.geometry).flat_index(anchors_half[pick])
    p_idx = half_b.flat_index(rounded[pick])
    corr_sel = corr_full_b[pick]
    anchors_e = emb_a_flat[a_idx]

    # Negative candidates are the query lattice in x-major order, position
    # p = (x * nyb + y) * nzb + z, less the voxels within the gate.
    nxb, nyb, nzb = dims_b = half_b.dims
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
    # The k-th valid position is k plus the gated voxels of the runs with at
    # most k valid positions before them.  Run j has valid_before[j] valid
    # positions before it, a non-decreasing count, so the shift n_before[j]
    # holds for the valid_before[j + 1] - valid_before[j] positions from
    # valid_before[j] on: one np.repeat writes each anchor's shift table.
    n_before = np.concatenate([np.zeros((n_pos, 1), np.int64), np.cumsum(run_len, axis=1)], axis=1)
    pools = n_b - n_before[:, -1]
    valid_before = run_start - n_before[:, :-1]
    shift_reps = np.diff(np.concatenate([np.zeros((n_pos, 1), np.int64), valid_before, pools[:, None]], axis=1))

    n_cand = max(n_neg, int(math.ceil(n_neg / hard_fraction)))
    cand = np.zeros((n_pos, n_cand), dtype=np.int64)
    take = np.minimum(pools, n_cand)
    for i in range(n_pos):
        if pools[i] < n_neg:
            raise InsufficientOverlap(f"negative pool of {pools[i]} below requested {n_neg}")
        k = rng.choice(pools[i], size=take[i], replace=False)
        cand[i, :take[i]] = k + np.repeat(n_before[i], shift_reps[i])[k]
    cand = xmajor_flat[cand]

    # -similarity of every candidate; the padding past a row's take is +inf,
    # so it never ranks.  Over the padded width BLAS may round a row's last
    # few products differently in the last bit, so a row whose pool is below
    # n_cand takes its own product over its take.
    neg_sims = _gathered_sims(emb_b_flat, cand, anchors_e)
    for i in np.flatnonzero(take < n_cand):
        neg_sims[i, :take[i]] = emb_b_flat[cand[i, :take[i]]] @ anchors_e[i]
    np.negative(neg_sims, out=neg_sims)
    neg_sims[np.arange(n_cand) >= take[:, None]] = np.inf
    surv = _hardest(neg_sims, n_neg)
    neg_idx = np.take_along_axis(cand, surv, axis=1)

    fov_idx = None
    fov_sims = None
    if n_fov > 0:
        if overlap_b is None:
            raise ValueError("fov negatives need the query-side overlap mask")
        flat_out = np.flatnonzero(~overlap_b[::2, ::2, ::2])  # the half grid's voxels outside
        if len(flat_out):
            fov_idx = flat_out[rng.integers(0, len(flat_out), size=(n_pos, n_fov))]
            fov_sims = _gathered_sims(emb_b_flat, fov_idx, anchors_e)

    return PairBatch(
        anchors=anchors_e,
        positives=emb_b_flat[p_idx],
        negative_sims=-np.take_along_axis(neg_sims, surv, axis=1),
        temperature=tau,
        fov_sims=fov_sims,
        anchor_indices=a_idx,
        positive_indices=p_idx,
        negative_indices=neg_idx,
        fov_indices=fov_idx,
    )


def _gathered_sims(table: np.ndarray, idx: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """(n, c) similarities table[idx[i, j]] . anchors[i].

    The stacked product runs one matrix-vector product per row i, so row i
    is bitwise ``table[idx[i]] @ anchors[i]``.  Rows of ``table`` are
    gathered 2**19 floats (4 MB) at a time.
    """
    out = np.empty(idx.shape)
    chunk = max(1, 2**19 // (idx.shape[1] * table.shape[1]))
    for lo in range(0, len(idx), chunk):
        sl = slice(lo, lo + chunk)
        out[sl] = (np.take(table, idx[sl], axis=0) @ anchors[sl, :, None])[..., 0]
    return out


def _hardest(neg_sims: np.ndarray, n_neg: int) -> np.ndarray:
    """Column indices of the n_neg smallest entries of each row, in the order
    of a stable argsort: ties broken by column.

    A row without exact ties among its n_neg smallest or at the cut ranks by
    a plain partition and sort; only the rows with ties take the rule.
    """
    part = np.argpartition(neg_sims, n_neg - 1, axis=1)[:, :n_neg]
    vals = np.take_along_axis(neg_sims, part, axis=1)
    order = np.argsort(vals, axis=1)
    surv = np.take_along_axis(part, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    kth = vals[:, -1:]
    tied = (vals[:, 1:] == vals[:, :-1]).any(axis=1) | ((neg_sims <= kth).sum(axis=1) > n_neg)
    if tied.any():
        sims, kth = neg_sims[tied], kth[tied]
        harder = sims < kth
        at_cut = sims == kth
        room = n_neg - harder.sum(axis=1, keepdims=True)
        kept = np.nonzero(harder | (at_cut & (np.cumsum(at_cut, axis=1) <= room)))[1].reshape(-1, n_neg)
        order = np.argsort(np.take_along_axis(sims, kept, axis=1), axis=1, kind="stable")
        surv[tied] = np.take_along_axis(kept, order, axis=1)
    return surv


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
    Negatives enter a ``PairBatch`` as query voxel indices with their
    similarities to the anchor, not as vectors.  Raises ``NonUnitInput``
    when a query embedding row is not unit.

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
      Each negative carries into the batch the similarity it was ranked by:
      its row's product with the anchor, one matrix-vector product per
      anchor over its candidates.
    - FOV negatives (fine side, ``use_fov``): one ``rng.integers`` draw last;
      each carries its similarity to the anchor, computed the same way.

    The same seed therefore gives a byte-identical model across versions
    that keep this contract; the test suite holds the sampler to the
    per-anchor loop it replaced.
    """
    def flat(vol):  # no copy of the float64 embeddings that ``train`` passes
        return np.asarray(vol.data.reshape(-1, vol.channels), dtype=np.float64)

    fine = _sample_side(
        pair, flat(emb_a.fine), flat(emb_b.fine),
        cfg.n_pos_fine, cfg.n_neg_fine, cfg.neg_min_dist_fine, cfg.hard_negative_fraction,
        cfg.tau_cross if use_fov else cfg.tau_appearance, rng,
        n_fov=cfg.n_fov_fine if use_fov else 0,
        overlap_b=pair.overlap_b,
    )
    coarse = _sample_side(  # scored by appearance_infonce on every step
        pair, flat(emb_a.coarse), flat(emb_b.coarse),
        cfg.n_pos_coarse, cfg.n_neg_coarse, cfg.neg_min_dist_coarse, cfg.hard_negative_fraction,
        cfg.tau_appearance, rng,
    )
    labeled = None
    if pair.labels_a is not None and emb_a.semantic is not None:
        lab_half = pair.labels_a.data[::2, ::2, ::2].ravel()
        classes = np.unique(lab_half)
        classes = classes[classes > 0]
        blocks, idxs = [], []
        sem_flat = flat(emb_a.semantic)
        for cls in classes:
            members = np.nonzero(lab_half == cls)[0]
            if len(members) > cfg.semantic_per_class:
                members = members[rng.choice(len(members), size=cfg.semantic_per_class, replace=False)]
            blocks.append(sem_flat[members])
            idxs.append(members)
        if blocks:
            labeled = LabeledBatch(blocks, cfg.tau_semantic, idxs)
    return fine, coarse, labeled


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class _SideState:
    """One volume's embeddings under the given head maps, with their normalization bookkeeping.

    The one place where a head's (F, k) map M turns feature rows f into
    unit rows normalize(f M); the coarse head reads the coarse rows, the
    others the fine ones.  ``heads`` maps each head name of ``maps`` to
    (features, embeddings, norms, zero mask).
    """

    def __init__(self, feats_fine, feats_coarse, geom, maps):
        self.geom = geom
        self.heads = {}
        for h, m in maps.items():
            f = feats_coarse if h == "coarse" else feats_fine
            self.heads[h] = (f, *unit_rows(f @ m))

    def embedding_set(self, dtype=np.float64) -> EmbeddingSet:
        vols = {
            h: EmbeddingVolume(
                self.geom, e.reshape(*self.geom.shape_zyx, -1).astype(dtype, copy=False),
                normalized=True, zero_substitutions=int(zero.sum()),
            )
            for h, (_, e, _, zero) in self.heads.items()
        }
        return EmbeddingSet(coarse=vols["coarse"], fine=vols["fine"], semantic=vols.get("semantic"))

    def chain(self, head: str, voxels: np.ndarray, g_v: np.ndarray) -> np.ndarray:
        """dL/dM of ``head`` from the dL/d(embedding) rows ``g_v`` of the distinct ``voxels``.

        Each row passes through the normalization Jacobian of v -> v/|v|,
        J g = (g - (g . e) e) / |v|; a zero-substituted voxel's J is 0.
        """
        feats, e, norms, zero = self.heads[head]
        e, zero = e[voxels], zero[voxels]
        gv = g_v - np.einsum("ij,ij->i", g_v, e)[:, None] * e
        gv /= np.maximum(norms[voxels], 1e-30)[:, None]
        if zero.any():
            gv[zero] = 0.0
        return feats[voxels].T @ gv


def _pair_batch_grad(head: str, side_a: _SideState, side_b: _SideState, batch: PairBatch, out) -> np.ndarray:
    """dL/dM of ``head`` from one PairBatch, per anchor.

    W (n x n_B) holds dL/ds of each similarity s = a_i . e_j that the loss
    saw, at anchor i's positive, negative and FOV voxels j of the query
    table E_B; repeated voxels sum.  Then dL/dA = W E_B and dL/dE_B = W^T A.
    The sampler draws the anchors without replacement, so they are distinct.
    """
    cols = [batch.positive_indices[:, None], batch.negative_indices]
    vals = [out.d_positive_sims[:, None], out.d_negative_sims]
    if out.d_fov_sims is not None:
        cols.append(batch.fov_indices)
        vals.append(out.d_fov_sims)
    cols, vals = np.concatenate(cols, axis=1), np.concatenate(vals, axis=1)
    (n, width), e_b = cols.shape, side_b.heads[head][1]
    w = sparse.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, n * width + 1, width)), shape=(n, len(e_b)))
    order = np.argsort(batch.anchor_indices)
    grad = side_a.chain(head, batch.anchor_indices[order], (w @ e_b)[order])
    touched = np.flatnonzero(np.bincount(cols.ravel(), minlength=len(e_b)))
    grad += side_b.chain(head, touched, (w.T @ batch.anchors)[touched])
    return grad / n


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
    batches drawn from the ``training_view`` of each of the
    ``registered_pairs``).  The mode alone decides the augmentation: every
    self-supervised patch pair of ``aggressive`` and ``paired`` is drawn
    with aggressive intensity augmentation, and of ``standard`` with the
    monotone one; ``augment_spec`` (default ``AugmentSpec()``) sets only the
    shared geometric and intensity ranges.  Deterministic given the seed;
    returns (model, per-step loss log).  Raises ``DimensionMismatch`` when
    ``init``'s heads' F is not ``FEATURE_DIM``.

    A batch whose patch pair or sample lacks overlap is skipped.  Each
    step's ``loss_fine`` and ``loss_coarse`` average over the batches that
    ran, and ``loss_semantic`` over those with a semantic loss (NaN when
    none had one).  A step whose batches were all skipped logs 0.0 for both,
    the row by which the benchmark counts skipped steps.  A call in which no
    batch ran raises ``InsufficientOverlap``: its model never trained.

    Each step embeds with each head's (F, k) map M, samples and evaluates
    the losses on the k-wide embeddings, backprops an (F, k) gradient G and
    runs the momentum update on M.  A model whose heads were (F, D) matrices
    W = M Q^T would train to the same similarities: every loss gradient with
    respect to an embedding is a combination of embeddings, so W's gradient
    is G Q^T and W never leaves M's span.  When ``init`` has no semantic head
    and one is trained, it is drawn as ``new_model`` draws one.

    Backprop runs per voxel, not per sampled row.  The InfoNCE losses see
    only similarities s = a . e of an anchor a with a query voxel e, and
    return dL/ds.  Per batch these fill one sparse (n x n_B) matrix W over
    the n anchors and the n_B query voxels: dL/ds of anchor i's positive,
    hard negatives and FOV negatives at their voxels, repeats summed.  Then
    the anchors' gradient rows are W E_B and the query voxels' are W^T A, so
    no per-negative vector is formed.  Each voxel's summed row passes once
    through its normalization Jacobian J g = (g - (g . e) e) / |v|, which is
    linear in g, and G sums f^T J g over the touched voxels: the same G in
    exact arithmetic as chaining every sampled row on its own, summed in
    another order.  A zero-substituted voxel's J is 0, so it gets exactly
    none.  The semantic head's voxels are distinct (the sampler draws each
    class's members without replacement, and the classes are disjoint), so
    its rows go to ``chain`` as they are, in ascending voxel order.
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
            model = ProjectionModel(model.w_coarse, model.w_fine, _draw_head(rng), model.round_index)
    else:
        model = new_model(rng, with_semantic=with_semantic)

    if augment_spec is None:
        augment_spec = AugmentSpec()

    maps = {"fine": model.w_fine, "coarse": model.w_coarse}
    if with_semantic:
        maps["semantic"] = model.w_semantic
    velocity = {h: np.zeros_like(w) for h, w in maps.items()}
    reg_cache: dict[int, tuple] = {}
    log_rows = []
    n_ran_total = 0

    for step_i in range(cfg.steps):
        grads = {h: np.zeros_like(m) for h, m in maps.items()}
        losses_acc = {"fine": 0.0, "coarse": 0.0, "semantic": float("nan")}
        n_ran = n_semantic = 0
        for _ in range(cfg.batch_size):
            paired_step = mode == "paired" and step_i % 2 == 1
            if paired_step:
                reg = registered_pairs[int(rng.integers(len(registered_pairs)))]
                key = id(reg)
                if key not in reg_cache:
                    pp = reg.training_view
                    reg_cache[key] = (pp, _features(pp.patch_a), _features(pp.patch_b))
                pp, feats_a, feats_b = reg_cache[key]
                labels_here = False
            else:
                vol, lab = items[int(rng.integers(len(items)))]
                try:
                    pp = sample_patch_pair(
                        vol, lab if with_semantic else None, augment_spec,
                        int(rng.integers(2**63)), mode != "standard",
                    )
                except InsufficientOverlap:
                    continue  # skipped like a batch without enough overlap below
                feats_a, feats_b = _features(pp.patch_a), _features(pp.patch_b)
                labels_here = with_semantic and pp.labels_a is not None
            side_a, side_b = _SideState(*feats_a, maps), _SideState(*feats_b, maps)
            try:
                fine_b, coarse_b, labeled = sample_training_batch(
                    pp, side_a.embedding_set(), side_b.embedding_set(), cfg, rng, use_fov=paired_step
                )
            except InsufficientOverlap:
                continue  # skip pathological draws, the step still updates on other items
            n_ran += 1
            loss_fn = crossmod_infonce if paired_step else appearance_infonce
            out_f = loss_fn(fine_b)
            out_c = appearance_infonce(coarse_b)
            losses_acc["fine"] += out_f.value / len(fine_b.anchor_indices)
            losses_acc["coarse"] += out_c.value / len(coarse_b.anchor_indices)
            grads["fine"] += _pair_batch_grad("fine", side_a, side_b, fine_b, out_f)
            grads["coarse"] += _pair_batch_grad("coarse", side_a, side_b, coarse_b, out_c)
            if labels_here and labeled is not None:
                out_s = proto_supcon(labeled)
                idx = np.concatenate(labeled.class_indices)
                order = np.argsort(idx)
                if math.isnan(losses_acc["semantic"]):
                    losses_acc["semantic"] = 0.0
                losses_acc["semantic"] += out_s.value / len(idx)
                n_semantic += 1
                grads["semantic"] += side_a.chain("semantic", idx[order], out_s.d_embeddings[order]) / len(idx)
        if not all(np.all(np.isfinite(g)) for g in grads.values()):
            raise DivergedLoss(f"non-finite gradient at step {step_i}")
        if any(
            not math.isfinite(v) for k, v in losses_acc.items()
            if k != "semantic" or not math.isnan(v)
        ):
            raise DivergedLoss(f"non-finite loss at step {step_i}")
        for h in maps:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
                velocity[h] = cfg.momentum * velocity[h] - cfg.learning_rate * grads[h] / cfg.batch_size
                maps[h] += velocity[h]
            if not np.all(np.isfinite(maps[h])):
                raise DivergedLoss(f"non-finite {h} weights after the update of step {step_i}")
        log_rows.append(
            {
                "step": step_i,
                "loss_fine": losses_acc["fine"] / max(n_ran, 1),
                "loss_coarse": losses_acc["coarse"] / max(n_ran, 1),
                "loss_semantic": losses_acc["semantic"] / max(n_semantic, 1),  # NaN when no semantic batch ran
            }
        )
        n_ran_total += n_ran
    if cfg.steps and not n_ran_total:
        raise InsufficientOverlap(f"no training batch of the {cfg.steps} steps had enough overlap")
    return model, log_rows
