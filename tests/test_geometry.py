"""Tests for points, transforms, and point-set fits."""

import numpy as np
import pytest

from voxelmatch import geometry
from voxelmatch.errors import DegenerateGeometry, MismatchedLengths
from voxelmatch.geometry import (
    AffineTransform,
    Point3,
    RigidTransform,
    fit_affine,
    fit_rigid,
    fit_rigid_trimmed,
    rigid_about,
    rotation_matrix,
)


def quaternion_rigid_fit(src, dst):
    """Independent closed-form oracle: unit-quaternion eigenvector method.

    Maximizes the trace form of the rigid objective via the largest
    eigenvector of the 4x4 cross-covariance matrix, a different derivation
    and code path than the SVD solver under test.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    p = src - cs
    q = dst - cd
    s = p.T @ q
    sxx, sxy, sxz = s[0]
    syx, syy, syz = s[1]
    szx, szy, szz = s[2]
    n = np.array(
        [
            [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
            [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
            [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
            [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
        ]
    )
    vals, vecs = np.linalg.eigh(n)
    w, x, y, z = vecs[:, np.argmax(vals)]
    r = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return r, cd - r @ cs


def random_rigid(rng) -> RigidTransform:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-np.pi, np.pi)
    return RigidTransform(rotation_matrix(axis, angle), rng.uniform(-10, 10, 3))


def sum_squares(transform, src, dst) -> float:
    """Total squared residual of ``transform`` mapping ``src`` onto ``dst``."""
    return float(((np.asarray(dst, dtype=np.float64) - transform.apply_array(src)) ** 2).sum())


class TestFitRigid:
    def test_identity(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        rig = fit_rigid(pts, pts)
        np.testing.assert_allclose(rig.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rig.translation, 0, atol=1e-12)
        assert sum_squares(rig, pts, pts) < 1e-24

    def test_exact_rotation_translation(self):
        src = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        r90 = rotation_matrix((0, 0, 1), np.pi / 2)
        dst = src @ r90.T + np.array([1.0, 2.0, 3.0])
        rig = fit_rigid(src, dst)
        np.testing.assert_allclose(rig.rotation, r90, atol=1e-12)
        np.testing.assert_allclose(rig.translation, [1, 2, 3], atol=1e-12)
        assert sum_squares(rig, src, dst) < 1e-18

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_quaternion_oracle_under_noise(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-20, 20, (100, 3))
        truth = random_rigid(rng)
        dst = truth.apply_array(src) + rng.normal(0, 0.01, (100, 3))
        rig = fit_rigid(src, dst)
        r_o, t_o = quaternion_rigid_fit(src, dst)
        np.testing.assert_allclose(rig.rotation, r_o, atol=1e-9)
        np.testing.assert_allclose(rig.translation, t_o, atol=1e-9)

    def test_mismatched_lengths(self):
        with pytest.raises(MismatchedLengths):
            fit_rigid(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometry):
            fit_rigid(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_source(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        with pytest.raises(DegenerateGeometry):
            fit_rigid(src, src)

    def test_point3_inputs(self):
        src = [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0), Point3(0, 0, 1)]
        rig = fit_rigid(src, src)
        np.testing.assert_allclose(rig.rotation, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbation_never_improves(self, seed):
        rng = np.random.default_rng(100 + seed)
        src = rng.uniform(-10, 10, (40, 3))
        truth = random_rigid(rng)
        dst = truth.apply_array(src) + rng.normal(0, 0.05, src.shape)
        rig = fit_rigid(src, dst)
        base = sum_squares(rig, src, dst)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            d_rot = rotation_matrix(axis, np.deg2rad(rng.uniform(0, 1.0)))
            r_p = rig.rotation @ d_rot
            t_p = rig.translation + rng.uniform(-0.1, 0.1, 3)
            perturbed = ((dst - (src @ r_p.T + t_p)) ** 2).sum()
            assert perturbed >= base - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_on_near_planar_inputs(self, seed):
        rng = np.random.default_rng(200 + seed)
        src = rng.uniform(-10, 10, (30, 3))
        src[:, 2] *= 1e-6  # almost flat: reflection-prone
        truth = random_rigid(rng)
        dst = truth.apply_array(src) + rng.normal(0, 0.1, src.shape)
        rig = fit_rigid(src, dst)
        np.testing.assert_allclose(rig.rotation.T @ rig.rotation, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(rig.rotation) - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_equivariance_under_common_rotation(self, seed):
        rng = np.random.default_rng(300 + seed)
        src = rng.uniform(-10, 10, (25, 3))
        truth = random_rigid(rng)
        dst = truth.apply_array(src) + rng.normal(0, 0.02, src.shape)
        q = random_rigid(rng)
        rig = fit_rigid(src, dst)
        rig_q = fit_rigid(q.apply_array(src), q.apply_array(dst))
        conjugated = q.rotation @ rig.rotation @ q.rotation.T
        np.testing.assert_allclose(rig_q.rotation, conjugated, atol=1e-9)


class TestFitAffine:
    def test_identity(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(-5, 5, (5, 3))
        aff = fit_affine(src, src)
        np.testing.assert_allclose(aff.linear, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(aff.translation, 0, atol=1e-9)

    def test_exact_scale_and_shift(self):
        rng = np.random.default_rng(1)
        src = rng.uniform(-5, 5, (6, 3))
        linear = np.diag([2.0, 1.0, 1.0])
        dst = src @ linear.T + np.array([0.0, 0.0, 1.0])
        aff = fit_affine(src, dst)
        np.testing.assert_allclose(aff.linear, linear, atol=1e-9)
        np.testing.assert_allclose(aff.translation, [0, 0, 1], atol=1e-9)
        assert sum_squares(aff, src, dst) < 1e-18

    def test_residual_not_worse_than_generator(self):
        rng = np.random.default_rng(2)
        src = rng.uniform(-5, 5, (50, 3))
        linear = np.eye(3) + rng.normal(0, 0.1, (3, 3))
        shift = rng.uniform(-2, 2, 3)
        dst = src @ linear.T + shift + rng.normal(0, 0.05, src.shape)
        aff = fit_affine(src, dst)
        generator_resid = ((dst - (src @ linear.T + shift)) ** 2).sum()
        assert sum_squares(aff, src, dst) <= generator_resid + 1e-12

    def test_coplanar_source_rejected(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0]], dtype=float)
        with pytest.raises(DegenerateGeometry):
            fit_affine(src, src)

    def test_reduces_to_rigid_on_rigid_data(self):
        rng = np.random.default_rng(3)
        src = rng.uniform(-10, 10, (30, 3))
        truth = random_rigid(rng)
        dst = truth.apply_array(src)
        aff = fit_affine(src, dst)
        np.testing.assert_allclose(aff.linear.T @ aff.linear, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(aff.linear, truth.rotation, atol=1e-9)


class TestFitRigidTrimmed:
    def test_zero_trim_equals_plain_fit(self):
        rng = np.random.default_rng(4)
        src = rng.uniform(-10, 10, (20, 3))
        truth = random_rigid(rng)
        dst = truth.apply_array(src) + rng.normal(0, 0.1, src.shape)
        rig_a = fit_rigid(src, dst)
        rig_b, rep_b = fit_rigid_trimmed(src, dst, 0.0)
        np.testing.assert_allclose(rig_a.rotation, rig_b.rotation, atol=1e-12)
        np.testing.assert_allclose(rig_a.translation, rig_b.translation, atol=1e-12)
        assert rep_b.inlier_mask.all()

    def test_outliers_excluded_and_generator_recovered(self):
        rng = np.random.default_rng(5)
        src = rng.uniform(-10, 10, (22, 3))
        truth = random_rigid(rng)
        dst = truth.apply_array(src)
        dst[5] += 40.0
        dst[17] -= 35.0
        rig, report = fit_rigid_trimmed(src, dst, 0.2)
        assert not report.inlier_mask[5]
        assert not report.inlier_mask[17]
        np.testing.assert_allclose(rig.rotation, truth.rotation, atol=1e-9)
        np.testing.assert_allclose(rig.translation, truth.translation, atol=1e-9)

    def test_exact_pairs_keep_full_mask(self):
        rng = np.random.default_rng(6)
        src = rng.uniform(-10, 10, (15, 3))
        truth = random_rigid(rng)
        rig, report = fit_rigid_trimmed(src, truth.apply_array(src), 0.0)
        assert report.inlier_mask.all()

    def test_overtrimming_rejected(self):
        with pytest.raises(DegenerateGeometry):
            fit_rigid_trimmed(np.zeros((4, 3)), np.zeros((4, 3)), 0.5)

    @staticmethod
    def fitted_sets(monkeypatch, fake=None):
        """Record the source rows of each ``fit_rigid`` call ``fit_rigid_trimmed`` makes."""
        seen, real = [], geometry.fit_rigid

        def watched_fit(src, dst):
            seen.append(src.copy())
            return (fake or real)(src, dst)

        monkeypatch.setattr(geometry, "fit_rigid", watched_fit)
        return seen

    @pytest.mark.parametrize("trim,n_calls", [(0.0, 1), (0.2, 2)])
    def test_fits_each_inlier_set_once(self, monkeypatch, trim, n_calls):
        # the pairs of test_outliers_excluded_and_generator_recovered
        rng = np.random.default_rng(5)
        src = rng.uniform(-10, 10, (22, 3))
        dst = random_rigid(rng).apply_array(src)
        dst[5] += 40.0
        dst[17] -= 35.0
        seen = self.fitted_sets(monkeypatch)
        rig, report = fit_rigid_trimmed(src, dst, trim)
        assert len({rows.tobytes() for rows in seen}) == len(seen) == n_calls
        monkeypatch.undo()
        mask = report.inlier_mask
        want = fit_rigid(src[mask], dst[mask])
        assert np.array_equal(rig.rotation, want.rotation)
        assert np.array_equal(rig.translation, want.translation)
        assert report.residual_sum_squares == sum_squares(want, src[mask], dst[mask])

    def test_refits_when_the_tenth_round_changes_the_set(self, monkeypatch):
        # a fit that shifts by +x on odd and -x on even calls keeps the two
        # halves of the pairs in turn, so every round changes the set
        src = np.random.default_rng(9).uniform(-10, 10, (6, 3))
        dst = src + np.repeat([[1.0, 0, 0], [-1.0, 0, 0]], 3, axis=0)
        def alternating_fit(s, d):
            return RigidTransform(np.eye(3), [1.0 if len(seen) % 2 else -1.0, 0.0, 0.0])

        seen = self.fitted_sets(monkeypatch, alternating_fit)
        rig, report = fit_rigid_trimmed(src, dst, 0.5)
        assert len(seen) == 11
        assert np.array_equal(seen[-1], src[report.inlier_mask])
        assert np.array_equal(report.inlier_mask, [False] * 3 + [True] * 3)
        assert rig.translation[0] == 1.0  # the eleventh fit, on the tenth round's set


class TestApply:
    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        rig = random_rigid(rng)
        pts = rng.uniform(-10, 10, (30, 3))
        back = rig.inverse().apply_array(rig.apply_array(pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_affine_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        aff = AffineTransform(np.eye(3) + rng.normal(0, 0.2, (3, 3)), rng.uniform(-3, 3, 3))
        pts = rng.uniform(-10, 10, (10, 3))
        np.testing.assert_allclose(aff.inverse().apply_array(aff.apply_array(pts)), pts, atol=1e-9)


def row_major_apply(linear, translation, pts):
    """Oracle: ``apply_array`` as row-major arithmetic, one 3-long row at a time."""
    return np.asarray(pts, dtype=np.float64) @ linear.T + translation


def point_layouts(rng):
    """A point (3,), C- and F-ordered (N, 3) rows, and no rows, as (name, points) pairs."""
    rows = rng.uniform(-300.0, 300.0, (257, 3))
    return [
        ("point", rows[0].copy()),
        ("one-row", rows[:1].copy()),
        ("C-rows", rows),
        ("F-rows", np.asfortranarray(rows)),
        ("no-rows", np.zeros((0, 3))),
    ]


class TestApplyArrayOracle:
    """``apply_array`` works component-major and gives the row-major oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["rigid", "affine"])
    def test_matches_the_row_major_oracle(self, seed, kind):
        rng = np.random.default_rng(90 + seed)
        rig = random_rigid(rng)
        transform = rig if kind == "rigid" else AffineTransform(
            rig.rotation @ np.diag(rng.uniform(0.8, 1.2, 3)), rng.uniform(-40.0, 40.0, 3)
        )
        linear = rig.rotation if kind == "rigid" else transform.linear
        for name, pts in point_layouts(rng):
            got = transform.apply_array(pts)
            want = row_major_apply(linear, transform.translation, pts)
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("shape", [(4,), (5, 2), (2, 3, 1)])
    def test_points_must_have_three_coordinates(self, shape):
        with pytest.raises(ValueError, match="x, y, z"):
            RigidTransform(np.eye(3), np.zeros(3)).apply_array(np.zeros(shape))


class TestValidation:
    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.5, np.zeros(3))

    def test_point_must_be_finite(self):
        with pytest.raises(ValueError):
            Point3(np.nan, 0, 0)

    def test_singular_affine_inverse(self):
        aff = AffineTransform(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(DegenerateGeometry):
            aff.inverse()

    @pytest.mark.parametrize("axis,angle", [
        ((0.0, 0.0, 0.0), 0.3),
        ((np.nan, 0.0, 1.0), 0.3),
        ((0.0, np.inf, 1.0), 0.3),
        ((1.0, 0.0, 0.0), np.nan),
        ((1.0, 0.0, 0.0), np.inf),
        ((1.0, 0.0, 0.0), -np.inf),
    ])
    def test_rotation_needs_a_finite_non_zero_axis_and_a_finite_angle(self, axis, angle):
        with pytest.raises(ValueError, match="rotation axis"):
            rotation_matrix(axis, angle)
