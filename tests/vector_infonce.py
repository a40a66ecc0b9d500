"""The vector-form InfoNCE that ``voxelmatch.losses`` computed before its
pair batches held similarities: the reference for the similarity form.

It takes the negative vectors themselves and returns the gradients with
respect to every anchor, positive and negative vector.
"""

import numpy as np


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
