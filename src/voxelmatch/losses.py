"""Contrastive objectives with exact analytic gradients.

Values and gradients accumulate in float64 with max-subtracted log-sum-exp,
and no averaging happens here beyond what the loss definitions state; any
batch-size normalization is the trainer's job.

A pair batch holds its negatives as similarities, not as vectors.  The
sampler ranks each anchor's negative candidates by their similarity to it
and keeps, for each survivor, its voxel index on the query grid and exactly
the similarity it was ranked by.  The InfoNCE losses are functions of those
similarities and of the positive ones, and return their gradients with
respect to the similarities; a trainer chains them back to the embeddings
(``model.train``).  ``proto_supcon`` takes the embeddings themselves and
returns its gradient as one row per embedding, in stacked class order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, EmptyClass, NonUnitInput
from .volume import row_norms

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
    """Anchor/positive pairs with per-anchor negative similarities.

    ``anchors`` and ``positives`` are (n, d) unit vectors; pair i's positive
    similarity is ``(anchors * positives).sum(axis=1)[i]``.  ``negative_sims``
    (n, m) holds anchor i's similarity to each of its m negatives, and
    ``fov_sims`` (n, k) to each of k extra negatives drawn outside the shared
    field of view for the cross-modality loss.  From the sampler, these are
    bitwise the similarities it ranked the candidates by.  The index arrays
    record where each vector lies on its flattened embedding grid: the
    anchors on the anchor grid, the positives, negatives and FOV negatives
    on the query grid, so a trainer can push gradients back.
    """

    anchors: np.ndarray
    positives: np.ndarray
    negative_sims: np.ndarray
    temperature: float = 0.5
    fov_sims: np.ndarray | None = None
    anchor_indices: np.ndarray | None = None
    positive_indices: np.ndarray | None = None
    negative_indices: np.ndarray | None = None
    fov_indices: np.ndarray | None = None


@dataclass
class LabeledBatch:
    """Embeddings grouped by semantic class, one (n_p, d) block per class.

    ``class_indices`` holds each block's voxel indices on the flattened
    embedding grid.  From the sampler no voxel repeats: each class's members
    are drawn without replacement and the classes are disjoint, so a
    trainer can chain each row to its voxel as it is.
    """

    class_embeddings: list
    temperature: float = 0.5
    class_indices: list | None = None


@dataclass
class LossOutput:
    """A loss value and its gradients.

    The InfoNCE losses fill the similarity gradients: dL/ds of each positive
    (n,), negative (n, m) and FOV (n, k) similarity of their ``PairBatch``.
    ``proto_supcon`` fills ``d_embeddings``, dL/d(embedding) (n, d) of its
    ``LabeledBatch``'s rows, the class blocks stacked in order.
    """

    value: float
    d_positive_sims: np.ndarray | None = None
    d_negative_sims: np.ndarray | None = None
    d_fov_sims: np.ndarray | None = None
    d_embeddings: np.ndarray | None = None


def _check_unit(name: str, arr: np.ndarray) -> None:
    if arr.size == 0:
        return
    norms = row_norms(arr.reshape(-1, arr.shape[-1]))
    if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):  # a NaN norm fails too
        raise NonUnitInput(f"{name} vectors deviate from unit norm by more than {_UNIT_TOL}")


def _check_sims(name: str, sims: np.ndarray) -> None:
    if not np.all(np.abs(sims) <= 1.0 + _UNIT_TOL):  # NaN and inf fail too
        raise NonUnitInput(f"{name} similarities must be finite and at most 1 + {_UNIT_TOL} in magnitude")


def _check_temperature(tau: float) -> None:
    if not 0.0 < tau < math.inf:
        raise ValueError("temperature must be finite and positive")


def _infonce(pos, pools, tau):
    """InfoNCE over similarities: the value, dL/d(pos) (n,) and dL/d(pool) (n, m).

    Each anchor's negative pool is the row of its ``pools`` blocks laid side
    by side; the gradient keeps that column order.
    """
    logits = np.concatenate([pos[:, None], *pools], axis=1) / tau
    mx = logits.max(axis=1)
    lse = mx + np.log(np.exp(logits - mx[:, None]).sum(axis=1))
    value = float((lse - logits[:, 0]).sum())
    grads = np.exp(logits - lse[:, None])
    grads[:, 0] -= 1.0
    grads /= tau
    return value, grads[:, 0], grads[:, 1:]


def _validate_pair_batch(batch: PairBatch):
    a = np.asarray(batch.anchors, dtype=np.float64)
    p = np.asarray(batch.positives, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise EmptyBatch("batch has no anchor/positive pairs")
    if p.shape != a.shape:
        raise ValueError("anchors and positives must have matching shapes")
    neg = np.asarray(batch.negative_sims, dtype=np.float64)
    if neg.size == 0:
        neg = np.zeros((a.shape[0], 0))
    if neg.ndim != 2 or neg.shape[0] != a.shape[0]:
        raise ValueError("negative_sims must be (n, m)")
    _check_temperature(batch.temperature)
    _check_unit("anchor", a)
    _check_unit("positive", p)
    _check_sims("negative", neg)
    return (a * p).sum(axis=1), neg


def appearance_infonce(batch: PairBatch) -> LossOutput:
    """Voxel-wise contrastive loss over anchor/positive pairs and spatial negatives."""
    pos, neg = _validate_pair_batch(batch)
    if batch.fov_sims is not None and np.asarray(batch.fov_sims).size > 0:
        raise ValueError("appearance loss takes no field-of-view negatives")
    value, d_pos, d_neg = _infonce(pos, [neg], batch.temperature)
    return LossOutput(value, d_pos, d_neg)


def crossmod_infonce(batch: PairBatch) -> LossOutput:
    """Same functional form with the negative pool extended by FOV negatives."""
    pos, neg = _validate_pair_batch(batch)
    pools = [neg]
    if batch.fov_sims is not None and np.asarray(batch.fov_sims).size > 0:
        fov = np.asarray(batch.fov_sims, dtype=np.float64)
        if fov.ndim != 2 or fov.shape[0] != len(pos):
            raise ValueError("fov_sims must be (n, k)")
        _check_sims("fov negative", fov)
        pools.append(fov)
    value, d_pos, d_pool = _infonce(pos, pools, batch.temperature)
    m = neg.shape[1]
    return LossOutput(value, d_pos, d_pool[:, :m], d_pool[:, m:] if len(pools) == 2 else None)


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
    _check_temperature(batch.temperature)
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
    return LossOutput(value, d_embeddings=grad)
