"""Tests for the contrastive losses: hand values, naive oracles, gradients."""

import math

import numpy as np
import pytest

from voxelmatch.errors import EmptyBatch, EmptyClass, NonUnitInput
from voxelmatch.losses import (
    LabeledBatch,
    PairBatch,
    appearance_infonce,
    crossmod_infonce,
    proto_supcon,
)
from vector_infonce import _infonce as vector_infonce


def unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def naive_infonce(anchors, positives, negatives, tau, fov=None):
    """Direct summation over the written-out loss terms."""
    total = 0.0
    for i in range(len(anchors)):
        num = math.exp(float(anchors[i] @ positives[i]) / tau)
        den = num
        for x in negatives[i]:
            den += math.exp(float(anchors[i] @ x) / tau)
        if fov is not None:
            for x in fov[i]:
                den += math.exp(float(anchors[i] @ x) / tau)
        total += -math.log(num / den)
    return total


def naive_proto_supcon(blocks, tau):
    """Literal nested-sum evaluation of the prototype contrastive loss."""
    protos = [b.mean(axis=0) for b in blocks]
    total = 0.0
    for p, block in enumerate(blocks):
        for x in block:
            num = math.exp(float(protos[p] @ x) / tau)
            den = 0.0
            for q, other in enumerate(blocks):
                for y in other:
                    den += math.exp(float(protos[p] @ y) / tau)
            total += -math.log(num / den) / len(block)
    return total


def pairwise_supcon(x, labels, tau):
    """The O(n^2) voxel-voxel supervised contrastive loss.

    Only a cost yardstick for the scaling comparison; not a production
    path and not numerically compared against the prototype loss.
    """
    sims = (x @ x.T) / tau
    np.fill_diagonal(sims, -np.inf)
    mx = sims.max(axis=1, keepdims=True)
    log_den = mx[:, 0] + np.log(np.exp(sims - mx).sum(axis=1))
    total = 0.0
    for i in range(len(x)):
        same = np.nonzero(labels == labels[i])[0]
        same = same[same != i]
        if len(same) == 0:
            continue
        total += -(sims[i, same] - log_den[i]).mean()
    return total


def sims_batch(a, p, n, tau, fov=None):
    """The PairBatch of negative vectors ``n`` (n, m, d) and ``fov`` (n, k, d), held as their similarities."""
    fov_sims = None if fov is None else np.einsum("nd,nkd->nk", a, fov)
    return PairBatch(a, p, np.einsum("nd,nmd->nm", a, n), tau, fov_sims)


def vector_grads(out, a, p, n, fov=None):
    """Similarity gradients chained to the vectors: d_anchors, d_positives, d_negatives[, d_fov]."""
    d_a = out.d_positive_sims[:, None] * p + np.einsum("nm,nmd->nd", out.d_negative_sims, n)
    grads = [d_a, out.d_positive_sims[:, None] * a, out.d_negative_sims[:, :, None] * a[:, None, :]]
    if fov is not None:
        grads[0] = d_a + np.einsum("nk,nkd->nd", out.d_fov_sims, fov)
        grads.append(out.d_fov_sims[:, :, None] * a[:, None, :])
    return grads


def fd_gradient(fn, arr, coords, step=1e-4):
    """Central finite differences of ``fn`` at the given flat coordinates."""
    out = {}
    flat = arr.reshape(-1)
    for c in coords:
        orig = flat[c]
        flat[c] = orig + step
        up = fn()
        flat[c] = orig - step
        down = fn()
        flat[c] = orig
        out[c] = (up - down) / (2 * step)
    return out


def check_vector_gradients(loss_fn, tau, arrays, rng, n_coords=6, tol=1e-4):
    """Finite differences of the loss in each vector array against the chained similarity gradients.

    ``arrays`` is (anchors, positives, negatives[, fov]); the batch is rebuilt
    from them on every evaluation.
    """
    def value():
        return loss_fn(sims_batch(*arrays[:3], tau, *arrays[3:])).value

    analytic = vector_grads(loss_fn(sims_batch(*arrays[:3], tau, *arrays[3:])), *arrays)
    for arr, grad in zip(arrays, analytic):
        coords = rng.choice(arr.size, size=min(n_coords, arr.size), replace=False)
        for c, fd_val in fd_gradient(value, arr, coords).items():
            got = grad.reshape(-1)[c]
            denom = max(abs(fd_val), abs(got), 1e-8)
            assert abs(got - fd_val) / denom < tol, f"coord {c}: analytic {got} vs fd {fd_val}"


def assert_matches_vector_form(out, a, p, n, tau, fov=None):
    """Value and chained gradients within 1e-12 relative of the vector-form InfoNCE."""
    pool = n if fov is None else np.concatenate([n, fov], axis=1)
    value, *want = vector_infonce(a, p, pool, tau)
    got = vector_grads(out, a, p, n, fov)
    if fov is not None:
        got[2] = np.concatenate(got[2:], axis=1)
    assert abs(out.value - value) <= 1e-12 * abs(value)
    for g, w in zip(got[:3], want):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


class TestAppearanceInfonce:
    def test_no_negatives_gives_zero(self):
        rng = np.random.default_rng(0)
        a = unit_rows(rng, (4, 6))
        out = appearance_infonce(PairBatch(a, a.copy(), np.zeros((4, 0)), 0.5))
        assert out.value == 0.0
        assert np.all(out.d_positive_sims == 0)
        assert out.d_negative_sims.shape == (4, 0)

    def test_hand_evaluated_single_pair(self):
        # one anchor=positive=e1 against one negative e2 at tau = 0.5:
        # -log(e^2 / (e^2 + 1)) = log(1 + e^-2)
        e1 = np.array([[1.0, 0.0]])
        out = appearance_infonce(PairBatch(e1, e1.copy(), np.array([[0.0]]), 0.5))
        assert abs(out.value - math.log(1 + math.exp(-2))) < 1e-12
        assert abs(out.value - 0.12692801104297263) < 1e-12
        # dL/ds_pos = (p_0 - 1) / tau, dL/ds_neg = p_1 / tau, p_1 = 1 / (e^2 + 1)
        p1 = 1.0 / (math.exp(2) + 1.0)
        assert abs(out.d_positive_sims[0] + p1 / 0.5) < 1e-15
        assert abs(out.d_negative_sims[0, 0] - p1 / 0.5) < 1e-15

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = unit_rows(rng, (7, 5))
        p = unit_rows(rng, (7, 5))
        n = unit_rows(rng, (7, 9, 5))
        out = appearance_infonce(sims_batch(a, p, n, 0.37))
        assert abs(out.value - naive_infonce(a, p, n, 0.37)) < 1e-10

    def test_matches_vector_form(self):
        rng = np.random.default_rng(19)
        a, p, n = unit_rows(rng, (30, 11)), unit_rows(rng, (30, 11)), unit_rows(rng, (30, 40, 11))
        assert_matches_vector_form(appearance_infonce(sims_batch(a, p, n, 0.5)), a, p, n, 0.5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        arrays = unit_rows(rng, (5, 4)), unit_rows(rng, (5, 4)), unit_rows(rng, (5, 6, 4))
        check_vector_gradients(appearance_infonce, 0.5, arrays, rng)

    def test_similarity_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        a, p = unit_rows(rng, (5, 4)), unit_rows(rng, (5, 4))
        sims = rng.uniform(-1.0, 1.0, size=(5, 6))
        batch = PairBatch(a, p, sims, 0.5)
        coords = rng.choice(sims.size, size=8, replace=False)
        analytic = appearance_infonce(batch).d_negative_sims.reshape(-1)
        for c, fd_val in fd_gradient(lambda: appearance_infonce(batch).value, sims, coords).items():
            assert abs(analytic[c] - fd_val) / max(abs(fd_val), 1e-8) < 1e-6

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            appearance_infonce(PairBatch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 0))))

    @pytest.mark.parametrize("row", [[2.0, 0.0], [math.nan, 0.0]], ids=["long", "nan"])
    def test_non_unit_input(self, row):
        a = np.array([row])
        with pytest.raises(NonUnitInput):
            appearance_infonce(PairBatch(a, a.copy(), np.zeros((1, 0))))
        with pytest.raises(NonUnitInput):
            appearance_infonce(PairBatch(np.array([[1.0, 0.0]]), a, np.zeros((1, 0))))

    @pytest.mark.parametrize("sim", [math.nan, math.inf, -math.inf, 1.0011, -1.0011])
    def test_similarity_that_no_unit_vectors_give_is_rejected(self, sim):
        rng = np.random.default_rng(21)
        a = unit_rows(rng, (3, 4))
        sims = rng.uniform(-1.0, 1.0, size=(3, 5))
        sims[1, 2] = sim
        with pytest.raises(NonUnitInput, match="negative similarities"):
            appearance_infonce(PairBatch(a, a.copy(), sims))
        with pytest.raises(NonUnitInput, match="fov negative similarities"):
            crossmod_infonce(PairBatch(a, a.copy(), sims[:, :2], fov_sims=sims))

    def test_rejects_fov_negatives(self):
        rng = np.random.default_rng(3)
        a = unit_rows(rng, (2, 3))
        with pytest.raises(ValueError):
            appearance_infonce(PairBatch(a, a.copy(), np.zeros((2, 0)), fov_sims=np.zeros((2, 1))))

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, m, d = rng.integers(1, 6), rng.integers(0, 6), rng.integers(2, 6)
            batch = sims_batch(
                unit_rows(rng, (n, d)), unit_rows(rng, (n, d)),
                unit_rows(rng, (n, m, d)) if m else np.zeros((n, 0, d)),
                float(rng.uniform(0.1, 2.0)),
            )
            assert appearance_infonce(batch).value >= 0.0


class TestCrossmodInfonce:
    def test_empty_fov_equals_appearance(self):
        rng = np.random.default_rng(5)
        a = unit_rows(rng, (6, 4))
        p = unit_rows(rng, (6, 4))
        n = unit_rows(rng, (6, 7, 4))
        batch = sims_batch(a, p, n, 0.5)
        assert abs(crossmod_infonce(batch).value - appearance_infonce(batch).value) < 1e-12

    def test_pool_union_commutes(self):
        rng = np.random.default_rng(6)
        a = unit_rows(rng, (3, 4))
        p = unit_rows(rng, (3, 4))
        n = unit_rows(rng, (3, 5, 4))
        all_in_spatial = sims_batch(a, p, n, 0.5)
        moved = sims_batch(a, p, n[:, :4, :], 0.5, fov=n[:, 4:, :])
        assert abs(crossmod_infonce(all_in_spatial).value - crossmod_infonce(moved).value) < 1e-12

    def test_production_counts_match_naive_oracle(self):
        rng = np.random.default_rng(7)
        a = unit_rows(rng, (200, 16))
        p = unit_rows(rng, (200, 16))
        n = unit_rows(rng, (200, 500, 16))
        fov = unit_rows(rng, (200, 100, 16))
        out = crossmod_infonce(sims_batch(a, p, n, 0.5, fov))
        assert abs(out.value - naive_infonce(a, p, n, 0.5, fov)) < 1e-10
        assert_matches_vector_form(out, a, p, n, 0.5, fov)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        arrays = (
            unit_rows(rng, (4, 4)), unit_rows(rng, (4, 4)), unit_rows(rng, (4, 5, 4)), unit_rows(rng, (4, 3, 4))
        )
        check_vector_gradients(crossmod_infonce, 0.5, arrays, rng)


class TestProtoSupcon:
    def test_single_class_identical_embeddings(self):
        # symmetry forces each ratio to 1/n: loss = log n, independent of tau
        v = np.array([1.0, 0.0, 0.0])
        batch = LabeledBatch([np.tile(v, (3, 1))], 0.7)
        out = proto_supcon(batch)
        assert abs(out.value - math.log(3)) < 1e-12

    def test_two_singleton_orthogonal_classes(self):
        # each class term is -log(e^2 / (e^2 + 1)) at tau = 0.5
        batch = LabeledBatch(
            [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])], 0.5
        )
        out = proto_supcon(batch)
        expected = 2 * math.log(1 + math.exp(-2))
        assert abs(out.value - expected) < 1e-12
        assert abs(out.value - 0.25385602208594525) < 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            k = int(rng.integers(2, 6))
            blocks = [unit_rows(rng, (int(rng.integers(1, 40)), 8)) for _ in range(k)]
            batch = LabeledBatch(blocks, 0.5)
            assert abs(proto_supcon(batch).value - naive_proto_supcon(blocks, 0.5)) < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        blocks = [unit_rows(rng, (3, 4)), unit_rows(rng, (5, 4)), unit_rows(rng, (2, 4))]
        batch = LabeledBatch(blocks, 0.5)
        for b_idx in range(3):
            arr = blocks[b_idx]
            coords = rng.choice(arr.size, size=5, replace=False)
            fd = fd_gradient(lambda: proto_supcon(batch).value, arr, coords)
            start = sum(len(b) for b in blocks[:b_idx])
            analytic = proto_supcon(batch).d_embeddings[start:start + len(arr)].reshape(-1)
            for c, fd_val in fd.items():
                denom = max(abs(fd_val), abs(analytic[c]), 1e-8)
                assert abs(analytic[c] - fd_val) / denom < 1e-4

    def test_permutation_invariance_within_class(self):
        rng = np.random.default_rng(11)
        blocks = [unit_rows(rng, (30, 6)), unit_rows(rng, (20, 6))]
        v1 = proto_supcon(LabeledBatch(blocks, 0.5)).value
        shuffled = [b[rng.permutation(len(b))] for b in blocks]
        v2 = proto_supcon(LabeledBatch(shuffled, 0.5)).value
        assert abs(v1 - v2) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            blocks = [unit_rows(rng, (int(rng.integers(1, 20)), 5)) for _ in range(int(rng.integers(1, 5)))]
            assert proto_supcon(LabeledBatch(blocks, float(rng.uniform(0.2, 1.5)))).value >= 0.0

    @pytest.mark.parametrize("row", [[2.0, 0.0], [math.nan, 0.0]], ids=["long", "nan"])
    def test_non_unit_input(self, row):
        block = np.array([[1.0, 0.0], row])
        with pytest.raises(NonUnitInput):
            proto_supcon(LabeledBatch([block], 0.5))

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            proto_supcon(LabeledBatch([np.zeros((0, 3))], 0.5))

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            proto_supcon(LabeledBatch([], 0.5))

    def test_linear_scaling_in_n(self):
        """Doubling n stays under 2.5x, quadrupling under 6x; the pairwise
        oracle grows at least 3.5x on doubling at the same sizes.

        Growth is measured as the peak memory a call allocates (tracemalloc
        sees every NumPy buffer), which is deterministic; wall-clock ratios
        of millisecond calls swing past these bounds on a loaded host.
        """
        import tracemalloc

        rng = np.random.default_rng(13)
        d, k = 64, 8

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def build(n):
            labels = rng.integers(0, k, n)
            x = unit_rows(rng, (n, d))
            blocks = [x[labels == c] for c in range(k) if (labels == c).any()]
            return x, labels, blocks

        x1, lab1, blocks1 = build(1000)
        x2, lab2, blocks2 = build(2000)
        x4, lab4, blocks4 = build(4000)
        m1 = peak_bytes(lambda: proto_supcon(LabeledBatch(blocks1, 0.5)))
        m2 = peak_bytes(lambda: proto_supcon(LabeledBatch(blocks2, 0.5)))
        m4 = peak_bytes(lambda: proto_supcon(LabeledBatch(blocks4, 0.5)))
        m_pair_1 = peak_bytes(lambda: pairwise_supcon(x1, lab1, 0.5))
        m_pair_2 = peak_bytes(lambda: pairwise_supcon(x2, lab2, 0.5))
        assert m4 / m2 < 2.5
        assert m4 / m1 < 6.0
        assert m_pair_2 / m_pair_1 >= 3.5
