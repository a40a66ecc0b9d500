"""Tests of the benchmark's own helpers: order statistics, span arithmetic,
attribute patching, the input plan and the metric declarations."""

import json
from pathlib import Path

import numpy as np
import pytest

from voxelmatch import alignment, phantom, volume
from voxbench import layers, reference, workloads
from voxbench.stats import median, percentile
from voxbench.trace import Span, Tracer, accounting, layer_table, patched, self_times, traced

ROOT = Path(__file__).resolve().parents[2]


class TestPercentile:
    def test_matches_numpy_default_method(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 14):
            xs = list(rng.normal(size=n))
            for q in (0, 10, 25, 50, 90, 100):
                assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12, abs=1e-12)

    def test_median_interpolates_even_counts(self):
        assert median([3.0, 1.0, 4.0, 2.0]) == 2.5
        assert median([5.0]) == 5.0

    def test_empty_reads_zero(self):
        assert median([]) == 0.0

    def test_infinite_values_stay_infinite(self):
        assert median([1.0, float("inf"), float("inf")]) == float("inf")
        assert median([float("inf"), float("inf")]) == float("inf")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, 0)


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 3.0, 0),
            _span(2, 2.0, 4.0, 0),    # overlaps span 1: the union counts
            _span(3, 9.0, 12.0, 0),   # leaves the parent: only [9, 10] counts
            _span(4, 1.5, 2.5, 1),    # grandchild: charged to span 1 only
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
        assert own[1] == pytest.approx(2.0 - 1.0)
        assert own[4] == pytest.approx(1.0)

    def test_layer_table_sums_by_name(self):
        spans = [
            _span(0, 0.0, 4.0, name="outer"),
            _span(1, 1.0, 2.0, 0, name="inner"),
            _span(2, 5.0, 6.0, name="outer"),
        ]
        table = layer_table(spans)
        assert table["outer"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
        assert table["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}

    def test_self_times_and_remainder_account_for_the_wall(self):
        spans = [
            _span(0, 1.0, 5.0),
            _span(1, 2.0, 3.0, 0),
            _span(2, 6.0, 9.0),
            _span(3, 12.0, 13.0),  # outside the window: ignored
        ]
        acct = accounting(spans, 0.0, 10.0)
        assert acct["wall_s"] == 10.0
        assert acct["self_s"] == pytest.approx(7.0)
        assert acct["untraced_s"] == pytest.approx(3.0)

    def test_tracer_records_nesting_with_its_clock(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))
        tr.op = 7
        with tr.span("a"):
            with tr.span("b"):
                pass
            with tr.span("c"):
                pass
        a, b, c = tr.spans
        assert (a.parent, b.parent, c.parent) == (None, 0, 0)
        assert (a.start, a.end, b.start, b.end, c.start, c.end) == (0, 5, 1, 2, 3, 4)
        assert {s.op for s in tr.spans} == {7}
        assert self_times(tr.spans)[0] == 3.0

    def test_span_closes_when_the_call_raises(self):
        tr = Tracer()
        seen = []

        def boom():
            raise KeyError("x")

        wrapped = traced(tr, "boom", boom, after=lambda t, a, k, r, exc: seen.append(type(exc)))
        with pytest.raises(KeyError):
            wrapped()
        assert tr.spans[0].end >= tr.spans[0].start
        assert seen == [KeyError]

    def test_jsonl_holds_every_span(self, tmp_path):
        tr = Tracer()
        with tr.span("a"), tr.span("b"):
            pass
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["name"], r["parent"]) for r in rows] == [("a", None), ("b", 0)]
        assert set(rows[0]) == {"id", "name", "start", "end", "parent", "op"}


class TestReference:
    def test_factor_scales_by_the_kernel_time_around_the_work(self):
        now = [0.0]
        step = [0.11]

        def clock():
            now[0] += step[0]  # a kernel run reads the clock twice, so it lasts one step
            return now[0]

        ref = reference.Reference(clock=clock)
        ref.run(reference.AROUND)
        step[0] = 0.22  # the host halves its speed during the work
        f = ref.factor()
        assert f == pytest.approx(reference.NOMINAL_S / ((0.11 + 0.22) / 2))
        assert len(ref.times) == 2 * reference.AROUND


class TestPatching:
    def originals(self):
        return [getattr(owner, attr) for owner, attr, _, _ in layers.LAYERS]

    def test_layers_are_restored_after_use(self):
        before = self.originals()
        tr = Tracer()
        with patched(layers.layer_targets(tr)):
            assert all(getattr(o, a) is not f for (o, a, _, _), f in zip(layers.LAYERS, before))
        assert all(x is y for x, y in zip(self.originals(), before))

    def test_layers_are_restored_when_the_block_raises(self):
        before = self.originals()
        with pytest.raises(RuntimeError):
            with patched(layers.layer_targets(Tracer())):
                raise RuntimeError
        assert all(x is y for x, y in zip(self.originals(), before))

    def test_stacked_wrappers_on_one_name_unwind(self):
        original = alignment.grid_match
        sink = []
        with patched([(alignment, "grid_match", workloads.capturing(sink))] + layers.layer_targets(Tracer())):
            pass
        assert alignment.grid_match is original

    def test_traced_registration_records_the_call_tree(self):
        vol, _, _ = phantom.gen_phantom(phantom.PhantomSpec(dims=(64, 64, 64), seed=60))
        fixed = volume.resample(vol, 2.0)
        moving = volume.crop(fixed, volume.Box3((4, 4, 4), (27, 27, 27)))
        case = workloads.Case(alignment.CrossPair(fixed, moving), "identity", None)
        tr = Tracer()
        sink = []
        with patched([(alignment, "grid_match", workloads.capturing(sink))] + layers.layer_targets(tr)):
            reg = workloads.register(case, workloads.new_model(), "nn")
        names = {s.id: s.name for s in tr.spans}
        parents = {(s.name, names.get(s.parent)) for s in tr.spans}
        assert ("alignment.register_and_crop", None) in parents
        assert ("model.embed", "alignment.register_and_crop") in parents
        assert ("model.bank", "model.embed") in parents
        assert ("matching.grid_match", "alignment.register_and_crop") in parents
        assert ("geometry.fit_rigid_trimmed", "alignment.register_and_crop") in parents
        assert tr.counters["bank.voxels_in"] == fixed.data.size + moving.data.size
        assert len(sink) == 1 and workloads.check_registered(reg) == []


class TestPlanAndDeclarations:
    def test_pair_plan_spreads_remaps_over_phantoms(self):
        six = workloads.pair_plan(6)
        assert six[:2] == [(62, "identity"), (66, "inverted")]
        assert sorted(s for s, _ in six) == sorted(workloads.PHANTOM_SEEDS)
        assert sorted(r for _, r in six) == sorted(workloads.REMAPS * 2)
        twelve = workloads.pair_plan(12)
        assert len(set(twelve)) == 12
        assert twelve[:6] == six

    def test_same_seed_same_inputs(self):
        wl = workloads.Workload("t", "align", 64, "nn", 2, "")
        a = workloads.make_cases(wl, 4)
        b = workloads.make_cases(wl, 4)
        c = workloads.make_cases(wl, 5)
        assert workloads.inputs_digest(a) == workloads.inputs_digest(b) != workloads.inputs_digest(c)

    def test_closed_loop_runs_whole_passes_until_the_clock_runs_out(self):
        now = [0.0]

        def clock():
            return now[0]

        def call(k):
            now[0] += 1.0
            return k

        outcomes, durations, start, end = workloads.closed_loop(3, call, 5.0, clock=clock)
        assert outcomes == [0, 1, 2, 3, 4, 5] and durations == [1.0] * 6 and end - start == 6.0
        pauses = []

        def between():
            now[0] += 0.5  # counts toward the deadline, not toward any call
            pauses.append(now[0])

        outcomes, durations, *_ = workloads.closed_loop(3, call, 0.0, between, clock)
        assert outcomes == [0, 1, 2] and durations == [1.0] * 3 and len(pauses) == 3

    def test_repeated_training_compares_equal_despite_nan_semantic_loss(self):
        mdl = workloads.new_model()
        log_a = [{"loss_fine": 6.0, "loss_coarse": 5.0, "loss_semantic": float("nan")}]
        log_b = [{"loss_fine": 6.0, "loss_coarse": 5.0, "loss_semantic": float("nan")}]
        assert workloads._same_outcome((mdl, log_a), (mdl.copy(), log_b))
        log_b[0]["loss_fine"] = 6.5
        assert not workloads._same_outcome((mdl, log_a), (mdl, log_b))

    def test_benchmark_json_declares_what_the_harness_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
