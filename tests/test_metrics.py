"""Tests for landmark metrics: MED, per-axis MED, CPM boundary rules."""

import numpy as np
import pytest

from voxelmatch.errors import EmptySet, InvalidRadii, MalformedFile, MismatchedLengths, VoxelMatchError
from voxelmatch.geometry import Point3
from voxelmatch.metrics import (
    LandmarkPairSet,
    evaluate,
    join_landmarks,
    read_landmarks,
    read_lines,
    read_radii,
    write_landmarks,
)


def p(x, y, z):
    return Point3(float(x), float(y), float(z))


# five hand-placed pairs; all expectations below are hand arithmetic:
#   diffs:   (0,0,0)  (3,4,0)  (0,6,8)  (2,2,1)  (-1,-2,2)
#   dists:    0        5        10       3        3
FIXTURE_TRUTH = [p(0, 0, 0), p(10, 0, 0), p(0, 10, 0), p(5, 5, 5), p(-3, 2, 1)]
FIXTURE_PRED = [p(0, 0, 0), p(13, 4, 0), p(0, 16, 8), p(7, 7, 6), p(-4, 0, 3)]
FIXTURE_RADII = [1.0, 6.0, 11.0, 2.0, 4.0]


class TestFixture:
    def test_hand_computed_values(self):
        report = evaluate(LandmarkPairSet(FIXTURE_PRED, FIXTURE_TRUTH, FIXTURE_RADII), 10.0)
        assert abs(report.med - 4.2) < 1e-9
        assert abs(report.med_std - np.sqrt(10.96)) < 1e-9
        assert abs(report.medx - 1.2) < 1e-9
        assert abs(report.medx_std - np.sqrt(1.36)) < 1e-9
        assert abs(report.medy - 2.8) < 1e-9
        assert abs(report.medy_std - np.sqrt(4.16)) < 1e-9
        assert abs(report.medz - 2.2) < 1e-9
        assert abs(report.medz_std - np.sqrt(8.96)) < 1e-9
        assert abs(report.cpm_at_threshold - 80.0) < 1e-9  # the distance-10 pair misses
        assert abs(report.cpm_at_radius - 80.0) < 1e-9     # 0<1, 5<6, 10<11, 3>=2, 3<4
        assert abs(report.max_error - 10.0) < 1e-9

    def test_exact_match(self):
        report = evaluate(LandmarkPairSet(FIXTURE_TRUTH, FIXTURE_TRUTH), 10.0)
        assert report.med == 0.0
        assert report.cpm_at_threshold == 100.0
        assert report.max_error == 0.0

    def test_boundary_is_strictly_incorrect(self):
        pairs = LandmarkPairSet([p(10, 0, 0)], [p(0, 0, 0)])
        report = evaluate(pairs, 10.0)
        assert report.cpm_at_threshold == 0.0
        report = evaluate(pairs, 10.0 + 1e-9)
        assert report.cpm_at_threshold == 100.0


class TestErrors:
    def test_empty_set(self):
        with pytest.raises(EmptySet):
            evaluate(LandmarkPairSet([], []), 10.0)

    def test_mismatched_lengths(self):
        with pytest.raises(MismatchedLengths):
            LandmarkPairSet([p(0, 0, 0)], [])

    def test_radius_cpm_absent_without_radii(self):
        report = evaluate(LandmarkPairSet([p(0, 0, 0)], [p(1, 0, 0)]), 10.0)
        assert report.cpm_at_radius is None

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            LandmarkPairSet([p(0, 0, 0)], [p(1, 0, 0)], [0.0])

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
    def test_radius_not_finite_and_positive_is_a_data_error(self, radius):
        with pytest.raises(InvalidRadii) as exc:
            LandmarkPairSet([p(0, 0, 0), p(1, 0, 0)], [p(1, 0, 0), p(1, 0, 0)], [4.0, radius])
        assert isinstance(exc.value, VoxelMatchError) and isinstance(exc.value, ValueError)


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = [Point3(*v) for v in rng.uniform(-20, 20, (12, 3))]
        true = [Point3(*v) for v in rng.uniform(-20, 20, (12, 3))]
        shift = rng.uniform(-50, 50, 3)
        pred_s = [Point3(q.x + shift[0], q.y + shift[1], q.z + shift[2]) for q in pred]
        true_s = [Point3(q.x + shift[0], q.y + shift[1], q.z + shift[2]) for q in true]
        a = evaluate(LandmarkPairSet(pred, true), 10.0)
        b = evaluate(LandmarkPairSet(pred_s, true_s), 10.0)
        assert abs(a.med - b.med) < 1e-9
        assert abs(a.medx - b.medx) < 1e-9
        assert abs(a.cpm_at_threshold - b.cpm_at_threshold) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_per_pair_euclidean_dominates_axis_errors(self, seed):
        rng = np.random.default_rng(50 + seed)
        pred = rng.uniform(-20, 20, (30, 3))
        true = rng.uniform(-20, 20, (30, 3))
        dists = np.linalg.norm(pred - true, axis=1)
        absdiff = np.abs(pred - true)
        assert np.all(dists + 1e-12 >= absdiff.max(axis=1))

    def test_scaling_scales_med_exactly(self):
        rng = np.random.default_rng(60)
        pred = [Point3(*v) for v in rng.uniform(-20, 20, (10, 3))]
        true = [Point3(*v) for v in rng.uniform(-20, 20, (10, 3))]
        base = evaluate(LandmarkPairSet(pred, true), 10.0)
        s = 3.5
        pred_s = [Point3(q.x * s, q.y * s, q.z * s) for q in pred]
        true_s = [Point3(q.x * s, q.y * s, q.z * s) for q in true]
        scaled = evaluate(LandmarkPairSet(pred_s, true_s), 10.0)
        assert abs(scaled.med - s * base.med) < 1e-9


class TestLandmarkFiles:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(70)
        lms = [(f"lm{i}", Point3(*rng.uniform(-100, 100, 3))) for i in range(7)]
        path = tmp_path / "lms.txt"
        write_landmarks(path, lms)
        back = read_landmarks(path)
        assert back == lms

    def test_join_keeps_the_shared_ids_in_the_first_list_order(self):
        first = [("c", p(3, 0, 0)), ("a", p(1, 0, 0)), ("x", p(9, 9, 9)), ("b", p(2, 0, 0))]
        second = [("a", p(0, 1, 0)), ("b", p(0, 2, 0)), ("c", p(0, 3, 0)), ("y", p(0, 0, 9))]
        ids, first_pts, second_pts = join_landmarks(first, second)
        assert ids == ["c", "a", "b"]
        assert first_pts == [p(3, 0, 0), p(1, 0, 0), p(2, 0, 0)]
        assert second_pts == [p(0, 3, 0), p(0, 1, 0), p(0, 2, 0)]
        assert join_landmarks(first, [("y", p(0, 0, 0))]) == ([], [], [])

    def test_radii_file(self, tmp_path):
        path = tmp_path / "radii.txt"
        path.write_text("a 4.0\nb 2.5\n")
        assert read_radii(path) == {"a": 4.0, "b": 2.5}

    def test_line_reader_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"# head\n\n  a 1  \r\n\t# indented\nb 2 3\rc\n")
        assert list(read_lines(path)) == [(3, ["a", "1"]), (5, ["b", "2", "3"]), (6, ["c"])]

    def test_line_reader_names_the_line_that_is_not_ascii(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a 1\n" * 3000 + b"b 4 5 6 \xe9\n")
        with pytest.raises(MalformedFile, match="lines.txt:3001: not ASCII text"):
            list(read_lines(path))

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 2\n")
        with pytest.raises(ValueError):
            read_landmarks(path)
