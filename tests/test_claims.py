"""The paper's claim (2), fixed-point matching, on the one-shot landmark protocol.

UAE's fixed-point matching is meant to find voxels of like anatomy whose
appearance differs.  The probe here is one-shot landmark detection (SAM's
protocol, Yan et al., IEEE TMI 2022), intra-subject, with no fit: each of
scan A's 18 phantom landmarks is matched into scan B on its own, by NN and by
fixed point through ``grid_match``, and scored by its distance in mm to the
landmark's true place in B.  Phantoms 62, 66, 70, 71, 72 and 73 at 64^3 and
1 mm; B is A moved by a 3-10 degree rigid motion and remapped by the
identity, gamma or inverted contrast; the model is the untrained
``new_model(default_rng(3))``.  The seeds and phantoms are the probe's, not
chosen to pass, and the counts below are the ones it gave when it was
written, out of 108 landmarks per remap:

    remap     NN <= 5 / <= 10 mm   fixed point <= 5 / <= 10 mm   medians NN / FP
    identity  108 / 108            108 / 108                      1.16 / 0.60 mm
    gamma     105 / 105            106 / 108                      1.12 / 0.67 mm
    inverted  0 / 54               30 / 89                        10.00 / 6.61 mm

A landmark that a matcher cannot place counts as a miss.  The matcher's
canonical re-rank and the bank's blocked products make the counts the same
under any BLAS thread count.
"""

import math

import numpy as np
import pytest

from voxelmatch.geometry import rigid_about, rotation_matrix
from voxelmatch.matching import FixpointConfig, SimilarityWeights, grid_match
from voxelmatch.model import embed, new_model
from voxelmatch.phantom import PhantomSpec, gen_pair

PHANTOMS = (62, 66, 70, 71, 72, 73)
REMAPS = ("identity", "gamma", "inverted")
MATCHERS = {"nn": None, "fixpoint": FixpointConfig()}
DIMS = (64, 64, 64)


@pytest.fixture(scope="module")
def errors():
    """(remap, matcher) -> the 108 landmark errors in mm, inf where no match came back."""
    rng = np.random.default_rng(5)
    mdl = new_model(np.random.default_rng(3))
    out = {(remap, m): [] for remap in REMAPS for m in MATCHERS}
    for seed in PHANTOMS:
        axis = rng.normal(size=3)
        angle = rng.uniform(3.0, 10.0)
        shift = rng.uniform(-6.0, 6.0, size=3)
        truth = rigid_about(rotation_matrix(axis, math.radians(angle)), (np.array(DIMS) - 1) / 2.0, shift)
        for remap in REMAPS:
            pp = gen_pair(PhantomSpec(dims=DIMS, seed=seed), truth, remap)
            emb_a, emb_b = embed(pp.volume_a, mdl), embed(pp.volume_b, mdl)
            pts = pp.volume_a.geometry.physical_to_voxel(np.array([p.to_array() for _, p in pp.landmarks_a]))
            true_b = np.array([p.to_array() for _, p in pp.landmarks_b])
            for m, cfg in MATCHERS.items():
                for r, t in zip(grid_match(pts, emb_a, emb_b, SimilarityWeights(), cfg), true_b):
                    got = math.inf if r is None else pp.volume_b.geometry.voxel_to_physical(r.point.to_array())
                    out[remap, m].append(float(np.linalg.norm(got - t)))
    return {k: np.array(v) for k, v in out.items()}


def table(errors):
    """Every count and median, for the failure message."""
    return "\n" + "\n".join(
        f"{remap} {m}: {(e <= 5.0).sum()} / {(e <= 10.0).sum()} of {len(e)} within 5 / 10 mm, "
        f"median {np.median(e):.2f} mm"
        for (remap, m), e in errors.items()
    )


def test_fixed_point_finds_more_inverted_landmarks_within_10_mm_than_nn(errors):
    assert (errors["inverted", "fixpoint"] <= 10.0).sum() > (errors["inverted", "nn"] <= 10.0).sum(), table(errors)


@pytest.mark.parametrize("remap", REMAPS)
def test_fixed_point_median_is_at_most_nn(errors, remap):
    assert np.median(errors[remap, "fixpoint"]) <= np.median(errors[remap, "nn"]), table(errors)


def test_identity_nn_finds_every_landmark_within_5_mm(errors):
    e = errors["identity", "nn"]
    assert len(e) == 108 and (e <= 5.0).all(), table(errors)
