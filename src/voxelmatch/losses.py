"""Contrastive objectives with exact analytic gradients with respect to the embeddings.

Values and gradients accumulate in float64 with max-subtracted log-sum-exp,
and no averaging happens here beyond what the loss definitions state; any
batch-size normalization is the trainer's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, EmptyClass, NonUnitInput

__all__ = [
    "PairBatch",
    "LabeledBatch",
    "LossOutput",
    "appearance_infonce",
    "crossmod_infonce",
    "proto_supcon",
]

_UNIT_TOL = 1e-3


@dataclass
class PairBatch:
    """Anchor/positive pairs with per-anchor negative pools.

    ``negatives`` is (n, m, d); ``fov_negatives`` (n, k, d) holds extra
    negatives drawn outside the shared field of view for the cross-modality
    loss.  The optional index arrays record where each vector was sampled
    on its embedding grid so a trainer can push gradients back.
    """

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    temperature: float = 0.5
    fov_negatives: np.ndarray | None = None
    anchor_indices: np.ndarray | None = None
    positive_indices: np.ndarray | None = None
    negative_indices: np.ndarray | None = None
    fov_indices: np.ndarray | None = None


@dataclass
class LabeledBatch:
    """Embeddings grouped by semantic class, one (n_p, d) block per class."""

    class_embeddings: list
    temperature: float = 0.5
    class_ids: list | None = None
    class_indices: list | None = None


@dataclass
class LossOutput:
    value: float
    d_anchors: np.ndarray | None = None
    d_positives: np.ndarray | None = None
    d_negatives: np.ndarray | None = None
    d_fov: np.ndarray | None = None
    d_classes: list | None = None  # proto_supcon: per-class gradient blocks


def _check_unit(name: str, arr: np.ndarray) -> None:
    if arr.size == 0:
        return
    rows = arr.reshape(-1, arr.shape[-1])
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if np.abs(norms - 1.0).max() > _UNIT_TOL:
        raise NonUnitInput(f"{name} vectors deviate from unit norm by more than {_UNIT_TOL}")


def _infonce(anchors, positives, negatives, tau):
    """Shared InfoNCE core: value plus gradients for anchors/positives/negatives."""
    a = np.asarray(anchors, dtype=np.float64)
    p = np.asarray(positives, dtype=np.float64)
    ngs = np.asarray(negatives, dtype=np.float64)
    n, d = a.shape
    m = ngs.shape[1] if ngs.size else 0
    pos = (a * p).sum(axis=1) / tau  # (n,)
    if m:
        neg = np.einsum("nd,nmd->nm", a, ngs) / tau
        logits = np.concatenate([pos[:, None], neg], axis=1)
    else:
        logits = pos[:, None]
    mx = logits.max(axis=1)
    lse = mx + np.log(np.exp(logits - mx[:, None]).sum(axis=1))
    value = float((lse - pos).sum())
    probs = np.exp(logits - lse[:, None])
    p0 = probs[:, 0]
    dpos = (p0 - 1.0) / tau  # (n,)
    d_anchors = dpos[:, None] * p
    d_positives = dpos[:, None] * a
    if m:
        pn = probs[:, 1:]
        d_anchors = d_anchors + np.einsum("nm,nmd->nd", pn, ngs) / tau
        d_negatives = pn[:, :, None] * a[:, None, :] / tau
    else:
        d_negatives = np.zeros_like(ngs)
    return value, d_anchors, d_positives, d_negatives


def _validate_pair_batch(batch: PairBatch):
    a = np.asarray(batch.anchors, dtype=np.float64)
    p = np.asarray(batch.positives, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise EmptyBatch("batch has no anchor/positive pairs")
    if p.shape != a.shape:
        raise ValueError("anchors and positives must have matching shapes")
    ngs = np.asarray(batch.negatives, dtype=np.float64)
    if ngs.size == 0:
        ngs = np.zeros((a.shape[0], 0, a.shape[1]))
    if ngs.ndim != 3 or ngs.shape[0] != a.shape[0] or ngs.shape[2] != a.shape[1]:
        raise ValueError("negatives must be (n, m, d)")
    if batch.temperature <= 0:
        raise ValueError("temperature must be positive")
    _check_unit("anchor", a)
    _check_unit("positive", p)
    _check_unit("negative", ngs)
    return a, p, ngs


def appearance_infonce(batch: PairBatch) -> LossOutput:
    """Voxel-wise contrastive loss over anchor/positive pairs and spatial negatives."""
    a, p, ngs = _validate_pair_batch(batch)
    if batch.fov_negatives is not None and np.asarray(batch.fov_negatives).size > 0:
        raise ValueError("appearance loss takes no field-of-view negatives")
    value, da, dp, dn = _infonce(a, p, ngs, batch.temperature)
    return LossOutput(value, da, dp, dn)


def crossmod_infonce(batch: PairBatch) -> LossOutput:
    """Same functional form with the negative pool extended by FOV negatives."""
    a, p, ngs = _validate_pair_batch(batch)
    fov = batch.fov_negatives
    if fov is None or np.asarray(fov).size == 0:
        value, da, dp, dn = _infonce(a, p, ngs, batch.temperature)
        return LossOutput(value, da, dp, dn, d_fov=None)
    fov = np.asarray(fov, dtype=np.float64)
    if fov.ndim != 3 or fov.shape[0] != a.shape[0] or fov.shape[2] != a.shape[1]:
        raise ValueError("fov_negatives must be (n, k, d)")
    _check_unit("fov negative", fov)
    pool = np.concatenate([ngs, fov], axis=1)
    value, da, dp, dn = _infonce(a, p, pool, batch.temperature)
    m = ngs.shape[1]
    return LossOutput(value, da, dp, dn[:, :m, :], d_fov=dn[:, m:, :])


def proto_supcon(batch: LabeledBatch) -> LossOutput:
    """Prototype-anchored supervised contrastive loss over class-labelled embeddings.

    Prototypes are the plain (not re-normalized) means of each class block.
    The gradient includes the dependence of every prototype on its members.
    Each embedding enters only prototype-embedding products, so the cost is
    O(n * K * d) rather than the O(n^2 * d) of pairwise contrast.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in batch.class_embeddings]
    if not blocks:
        raise EmptyBatch("labeled batch has no classes")
    for i, b in enumerate(blocks):
        if b.ndim != 2 or b.shape[0] == 0:
            raise EmptyClass(f"class block {i} is empty")
        _check_unit("labeled", b)
    if batch.temperature <= 0:
        raise ValueError("temperature must be positive")
    tau = batch.temperature
    counts = np.array([len(b) for b in blocks])
    x = np.vstack(blocks)  # (n, d)
    cls = np.repeat(np.arange(len(blocks)), counts)  # (n,)
    c = np.stack([b.mean(axis=0) for b in blocks])  # (K, d)

    logits = (x @ c.T) / tau  # (n, K); [m, p] = c_p . x_m / tau
    mx = logits.max(axis=0)
    lse = mx + np.log(np.exp(logits - mx[None, :]).sum(axis=0))  # (K,)
    value = float((lse - (c * c).sum(axis=1) / tau).sum())

    softmax = np.exp(logits - lse[None, :])  # (n, K), columns sum to 1
    weighted = softmax.T @ x  # (K, d)
    grad = softmax @ c / tau
    grad += (weighted[cls] - 2.0 * c[cls]) / (tau * counts[cls][:, None])

    out_blocks = []
    start = 0
    for n_p in counts:
        out_blocks.append(grad[start:start + n_p])
        start += n_p
    return LossOutput(value, d_classes=out_blocks)
