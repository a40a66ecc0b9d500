"""The benchmark workloads: inputs made from the workload seed, set-up, the
closed loop, accuracy and the output checks.

The phantom seeds are ROADMAP's accuracy list and never change, so
accuracy stays comparable across runs and commits; the workload seed draws
the rigid transforms (random axis, 3-10 degrees about the volume centre, up
to 6 mm shift per axis).  Pair ``k`` uses phantom ``k mod 6`` and a remap
that shifts by one each time the phantom list wraps, so the first 6 pairs
give every phantom one remap and the first 12 give it two distinct ones.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from voxelmatch import alignment, geometry, metrics, model, phantom, volume
from voxelmatch.alignment import AlignConfig, CrossPair
from voxelmatch.errors import VoxelMatchError

from . import layers
from .stats import median
from .reference import Reference
from .trace import Tracer, accounting, layer_table, patched

PHANTOM_SEEDS = (62, 66, 70, 71, 72, 73)
REMAPS = ("identity", "inverted", "gamma")
WORKING_SPACING_MM = 2.0
MARGIN = 5
CPM_THRESHOLD_MM = 10.0
FAILED_ROT_ERR_DEG = 180.0
SETUP_REPS = 3
TRAIN_STEPS = 2          # per train() call: one aggressive and one cross-modality step
REFERENCE_WARMUP = 3     # reference-kernel runs before the first timed set-up


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str      # "align" | "train"
    dims: int      # phantom edge length in 1 mm voxels
    matcher: str   # register_and_crop matcher
    n_pairs: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "align-nn-128", "align", 128, "nn", 6,
            "NN registration at 128^3: descriptor bank and embed dominate, so a bank or "
            "embed change shows here and a fixed-point change must not",
        ),
        Workload(
            "align-fixpoint-64", "align", 64, "fixpoint", 12,
            "fixed-point registration at 64^3: grid_match is ~95% of the time, so matcher "
            "work shows here and bank work does not",
        ),
        Workload(
            "train-paired-128", "train", 128, "nn", 2,
            "paired training on 128^3-input volumes: the bank runs on many 32^3 patches plus "
            "backprop, so training-step work shows here",
        ),
    )
}


def pair_plan(n_pairs: int) -> list[tuple[int, str]]:
    """(phantom seed, remap) of each pair; see the module docstring."""
    n = len(PHANTOM_SEEDS)
    return [(PHANTOM_SEEDS[k % n], REMAPS[(k + k // n) % len(REMAPS)]) for k in range(n_pairs)]


@dataclass
class Case:
    pair: CrossPair          # fixed = transformed copy (B), moving = phantom (A), working grid
    remap: str
    truth: geometry.RigidTransform  # moving -> fixed, mm


def make_cases(wl: Workload, seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    centre = ((wl.dims - 1) / 2.0,) * 3  # 1 mm voxels, origin 0
    cases = []
    for phantom_seed, remap in pair_plan(wl.n_pairs):
        rot = geometry.rotation_matrix(rng.normal(size=3), math.radians(rng.uniform(3.0, 10.0)))
        truth = geometry.rigid_about(rot, centre, rng.uniform(-6.0, 6.0, size=3))
        spec = phantom.PhantomSpec(dims=(wl.dims,) * 3, seed=phantom_seed)
        pp = phantom.gen_pair(spec, truth, remap)
        pair = CrossPair(
            fixed=volume.resample(pp.volume_b, WORKING_SPACING_MM),
            moving=volume.resample(pp.volume_a, WORKING_SPACING_MM),
            fixed_landmarks=pp.landmarks_b,
            moving_landmarks=pp.landmarks_a,
            pair_id=f"{phantom_seed}/{remap}",
        )
        cases.append(Case(pair, remap, truth))
    return cases


def new_model():
    return model.new_model(np.random.default_rng(3))


def register(case: Case, mdl, matcher: str):
    cfg = AlignConfig(grid_spacing=3, similarity_floor=0.4, body_threshold=0.18, matcher=matcher)
    return alignment.register_and_crop(case.pair.fixed, case.pair.moving, mdl, cfg, MARGIN)


def try_register(case: Case, mdl, matcher: str):
    """The registered pair, or the ``VoxelMatchError`` it raised."""
    try:
        return register(case, mdl, matcher)
    except VoxelMatchError as exc:
        return exc


def train_call(state):
    vols = [v for c in state["cases"] for v in (c.pair.fixed, c.pair.moving)]
    return model.train(
        vols, model.TrainConfig(steps=TRAIN_STEPS), mode="paired",
        registered_pairs=state["registered"], init=state["model"],
    )


def setup(wl: Workload, seed: int) -> dict:
    """Inputs, model and one warm-up call; for training also the registered pairs."""
    cases = make_cases(wl, seed)
    mdl = new_model()
    state = {"cases": cases, "model": mdl}
    if wl.kind == "align":
        try_register(cases[0], mdl, wl.matcher)
    else:
        state["registered"] = [register(c, mdl, wl.matcher) for c in cases]
        train_call(state)
    return state


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

@dataclass
class PairScore:
    remap: str
    rot_err_deg: float
    med_mm: float
    hits: int
    landmarks: int


def score(case: Case, outcome) -> PairScore:
    """Rotation error and landmark MED/CPM of one registration.

    Moving landmarks go through the recovered rigid and are compared with
    the fixed landmarks, as ``alignment._pair_med`` does.  A failed pair is
    a 180 degree error and misses every landmark.
    """
    n = len(case.pair.moving_landmarks)
    if isinstance(outcome, VoxelMatchError):
        return PairScore(case.remap, FAILED_ROT_ERR_DEG, math.inf, 0, n)
    rel = outcome.rigid.rotation @ case.truth.rotation.T
    rot = math.degrees(math.acos(float(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0))))
    fixed_by_id = dict(case.pair.fixed_landmarks)
    pred = [
        geometry.Point3.from_array(outcome.rigid.apply_array(p.to_array()))
        for _, p in case.pair.moving_landmarks
    ]
    true = [fixed_by_id[name] for name, _ in case.pair.moving_landmarks]
    rep = metrics.evaluate(metrics.LandmarkPairSet(pred, true), CPM_THRESHOLD_MM)
    return PairScore(case.remap, rot, rep.med, round(rep.cpm_at_threshold * n / 100.0), n)


def summarize(scores) -> dict:
    landmarks = sum(s.landmarks for s in scores)
    return {
        "rot_err_deg_p50": median([s.rot_err_deg for s in scores]),
        "landmark_med_mm_p50": median([s.med_mm for s in scores]),
        "cpm10_pct": 100.0 * sum(s.hits for s in scores) / landmarks if landmarks else 0.0,
    }


def by_remap(scores) -> dict:
    present = {s.remap for s in scores}
    return {r: summarize([s for s in scores if s.remap == r]) for r in REMAPS if r in present}


# ---------------------------------------------------------------------------
# output checks and digests
# ---------------------------------------------------------------------------

def check_registered(reg) -> list[str]:
    """Problems with one registration: a proper rotation, a non-empty crop, the
    overlap mask on the crop grid."""
    problems = []
    r = reg.rigid.rotation
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(reg.rigid.translation))):
        problems.append("rigid has non-finite entries")
    elif np.abs(r @ r.T - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
        problems.append("rigid rotation is not orthonormal with det +1")
    if reg.fixed_crop.data.size == 0:
        problems.append("fixed crop is empty")
    if reg.overlap_mask.geometry != reg.fixed_crop.geometry:
        problems.append("overlap mask is not on the fixed-crop grid")
    return problems


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def results_digest(results) -> str:
    """Hash of one ``grid_match`` output list."""
    def chunk(r):
        if r is None:
            return b"none"
        p = r.point
        nums = np.array([p.x, p.y, p.z, r.similarity, r.n_fix, r.n_fixed_points_used], dtype=np.float64)
        return nums.tobytes() + r.method.encode()

    return _sha(chunk(r) for r in results)


def weights_digest(mdl) -> str:
    heads = [mdl.w_coarse, mdl.w_fine] + ([mdl.w_semantic] if mdl.w_semantic is not None else [])
    return _sha(np.ascontiguousarray(w).tobytes() for w in heads)


def inputs_digest(cases) -> str:
    return _sha(
        b for c in cases
        for b in (c.pair.fixed.data.tobytes(), c.pair.moving.data.tobytes(), c.truth.rotation.tobytes())
    )


def capturing(sink: list):
    """``patched`` factory that records every output list of the wrapped ``grid_match``."""
    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out
        return wrapper
    return make


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def closed_loop(n_inputs: int, call, seconds: float, between=None, clock=time.perf_counter):
    """Call ``call(k)`` for k = 0, 1, ... one at a time, in whole passes over the
    inputs, until ``seconds`` have elapsed; so every run weighs the inputs
    alike.  ``between()`` runs after each call, outside its timing."""
    outcomes, durations = [], []
    start = clock()
    k = 0
    while k == 0 or k % n_inputs or clock() - start < seconds:
        t = clock()
        outcomes.append(call(k))
        durations.append(clock() - t)
        if between is not None:
            between()
        k += 1
    return outcomes, durations, start, clock()


@dataclass
class Pass:
    """One closed loop over a workload's inputs."""

    outcomes: list   # align: RegisteredPair | VoxelMatchError; train: (model, loss log)
    durations: list
    start: float
    end: float
    match_digests: list  # align: grid_match digest per operation


def run_pass(wl: Workload, state: dict, seconds: float, tracer: Tracer | None = None, between=None) -> Pass:
    """Run the closed loop with ``grid_match`` outputs captured, traced when ``tracer`` is given."""
    captured: list = []
    marks: list = []
    cases = state["cases"]
    if wl.kind == "align":
        n_inputs = len(cases)

        def op(k):
            marks.append(len(captured))
            return try_register(cases[k % n_inputs], state["model"], wl.matcher)
    else:
        n_inputs = 1

        def op(k):
            return train_call(state)

    call = op
    if tracer is not None:
        def call(k):
            tracer.op = k
            with tracer.span("bench.op"):
                return op(k)

    targets = [(alignment, "grid_match", capturing(captured))]
    if tracer is not None:
        targets += layers.layer_targets(tracer)
    with patched(targets):
        outcomes, durations, start, end = closed_loop(n_inputs, call, seconds, between)
    if tracer is not None:
        tracer.op = -1
    marks.append(len(captured))
    digests = [_sha(results_digest(r).encode() for r in captured[a:b]) for a, b in zip(marks, marks[1:])]
    return Pass(outcomes, durations, start, end, digests)


def evaluate_align(wl: Workload, state: dict, p: Pass) -> tuple[list, dict, list[str]]:
    """Scores of the first pass, a digest of its matches, and every problem found."""
    cases = state["cases"]
    n = len(cases)
    problems = []
    for k, out in enumerate(p.outcomes):
        if not isinstance(out, VoxelMatchError):
            problems += [f"op {k}: {msg}" for msg in check_registered(out)]
        first = p.outcomes[k % n]
        if k >= n and not _same_outcome(first, out):
            problems.append(f"op {k}: {cases[k % n].pair.pair_id} registered differently than op {k % n}")
        if k >= n and p.match_digests[k] != p.match_digests[k % n]:
            problems.append(f"op {k}: grid matches differ from op {k % n}")
    scores = [score(c, o) for c, o in zip(cases, p.outcomes[:n])]
    digests = {"match_digest": _sha(d.encode() for d in p.match_digests[:n])}
    return scores, digests, problems


def _same_outcome(a, b) -> bool:
    if isinstance(a, tuple):  # (trained model, loss log); the semantic loss is NaN in paired mode
        return weights_digest(a[0]) == weights_digest(b[0]) and _losses(a[1]) == _losses(b[1])
    if isinstance(a, VoxelMatchError) or isinstance(b, VoxelMatchError):
        return type(a) is type(b) and str(a) == str(b)
    return np.array_equal(a.rigid.rotation, b.rigid.rotation) and np.array_equal(
        a.rigid.translation, b.rigid.translation
    )


def _losses(log) -> list:
    return [(row["loss_fine"], row["loss_coarse"]) for row in log]


def evaluate_train(wl: Workload, state: dict, p: Pass) -> tuple[list, dict, list[str], dict]:
    """Check every training call, then register the pairs with the trained model."""
    problems = []
    for reg in state["registered"]:
        problems += [f"set-up registration: {msg}" for msg in check_registered(reg)]
    first_model, first_log = p.outcomes[0]
    for k, (mdl, log) in enumerate(p.outcomes):
        if not all(math.isfinite(v) for pair in _losses(log) for v in pair):
            problems.append(f"call {k}: non-finite loss")
        if not all(np.all(np.isfinite(w)) for w in (mdl.w_coarse, mdl.w_fine)):
            problems.append(f"call {k}: non-finite weights")
        if not _same_outcome(p.outcomes[0], (mdl, log)):
            problems.append(f"call {k}: training differs from call 0")
    # a draw skipped for InsufficientOverlap leaves both losses of its step at exactly 0
    skipped = sum(losses == (0.0, 0.0) for _, log in p.outcomes for losses in _losses(log))
    eval_state = {**state, "model": first_model}
    eval_pass = run_pass(replace(wl, kind="align"), eval_state, 0.0)
    scores, digests, more = evaluate_align(wl, eval_state, eval_pass)
    problems += [f"post-training registration: {msg}" for msg in more]
    digests["weights_digest"] = weights_digest(first_model)
    named = {
        "skipped": skipped,
        "train_loss_fine_final": first_log[-1]["loss_fine"],
        "train_loss_coarse_final": first_log[-1]["loss_coarse"],
    }
    return scores, digests, problems, named


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

# name -> unit.  Every workload reports all of them; "op" is one pair
# registered on the align workloads and one training step on the train one.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpm10_pct": "%",
}


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict    # name -> value, every name of END_TO_END or layers.PER_LAYER
    report: dict     # everything else the run prints
    problems: list   # failed output checks; empty when the run is correct


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _evaluate(wl: Workload, state: dict, p: Pass):
    """(scores, digests, problems, attempted, failed, workload-named results)."""
    if wl.kind == "align":
        scores, digests, problems = evaluate_align(wl, state, p)
        digests["weights_digest"] = weights_digest(state["model"])
        attempted = len(p.outcomes)
        failed = sum(isinstance(o, VoxelMatchError) for o in p.outcomes)
        named = {}
    else:
        scores, digests, problems, named = evaluate_train(wl, state, p)
        attempted = TRAIN_STEPS * len(p.outcomes)
        failed = named.pop("skipped")
    named["failed_pct"] = 100.0 * failed / attempted
    return scores, digests, problems, attempted, failed, named


def _timings(wl: Workload, p: Pass, factors=None) -> dict:
    """Throughput over time spent in calls, and the median op time.

    Call ``k`` counts ``p.durations[k] * factors[k]`` seconds, or raw seconds
    when ``factors`` is None.
    """
    durations = p.durations if factors is None else [d * f for d, f in zip(p.durations, factors)]
    steps = 1 if wl.kind == "align" else TRAIN_STEPS
    return {
        "ops_per_s": steps * len(durations) / sum(durations),
        "op_p50_s": median([d / steps for d in durations]),
    }


def measure(wl: Workload, seed: int, seconds: float) -> Result:
    """Untraced run: set up ``SETUP_REPS`` times, then the closed loop for ``seconds``."""
    ref = Reference()
    ref.run(REFERENCE_WARMUP)
    raw_setup, setup_times, input_digests = [], [], []
    state = None
    for _ in range(SETUP_REPS):
        state = None  # let the previous rep's inputs go before building the next
        t = time.perf_counter()
        state = setup(wl, seed)
        raw_setup.append(time.perf_counter() - t)
        setup_times.append(raw_setup[-1] * ref.factor())
        input_digests.append(inputs_digest(state["cases"]))
    factors = []
    p = run_pass(wl, state, seconds, between=lambda: factors.append(ref.factor()))
    scores, digests, problems, attempted, failed, named = _evaluate(wl, state, p)
    if len(set(input_digests)) != 1:
        problems.insert(0, "set-up reps built different inputs")
    timing = _timings(wl, p, factors)
    if wl.kind == "align":
        named.update(pairs_per_s=timing["ops_per_s"], register_p50_s=timing["op_p50_s"])
    else:
        named.update(train_steps_per_s=timing["ops_per_s"])
    acc = summarize(scores)
    values = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        **timing,
        "cpm10_pct": acc["cpm10_pct"],
    }
    report = {
        **named, **acc, **digests,
        "ops": len(p.outcomes),
        "raw": {"setup_s": median(raw_setup), **_timings(wl, p)},
        "reference_s_p50": median(ref.times),
        "inputs_digest": input_digests[0],
        "by_remap": by_remap(scores),
    }
    return Result(attempted, failed, values, report, problems)


def measure_traced(wl: Workload, seed: int, trace_path) -> Result:
    """Traced run: one traced set-up, then one pass untraced and the same pass traced."""
    tracer = Tracer()
    with patched(layers.layer_targets(tracer)), tracer.span("bench.setup"):
        state = setup(wl, seed)
    setup_table = layer_table(tracer.spans)
    tracer.counters.clear()
    tracer.samples.clear()
    plain = run_pass(wl, state, 0.0)
    traced_pass = run_pass(wl, state, 0.0, tracer)
    tracer.write_jsonl(trace_path)

    scores, digests, problems, attempted, failed, named = _evaluate(wl, state, traced_pass)
    if plain.match_digests != traced_pass.match_digests or not all(
        _same_outcome(a, b) for a, b in zip(plain.outcomes, traced_pass.outcomes)
    ):
        problems.append("the traced pass produced other results than the untraced one")
    op_spans = [s for s in tracer.spans if s.op >= 0]
    acct = accounting(op_spans, traced_pass.start, traced_pass.end)
    if abs(acct["self_s"] + acct["untraced_s"] - acct["wall_s"]) > 1e-6 * max(1.0, acct["wall_s"]):
        problems.append(f"span self times do not account for the traced wall time: {acct}")
    n_ops = attempted
    overhead_pct = 100.0 * ((traced_pass.end - traced_pass.start) / (plain.end - plain.start) - 1.0)
    op_table = layer_table(op_spans)
    values = layers.per_layer_values(
        op_table, setup_table, tracer.counters, tracer.samples, n_ops, by_remap(scores), overhead_pct,
    )
    shares = {
        name: {
            "calls_per_op": row["calls"] / n_ops,
            "total_s_per_op": row["total_s"] / n_ops,
            "self_s_per_op": row["self_s"] / n_ops,
            "self_pct": 100.0 * row["self_s"] / acct["wall_s"],
        }
        for name, row in sorted(op_table.items(), key=lambda kv: -kv[1]["self_s"])
    }
    report = {
        **named, **summarize(scores), **digests, "ops": len(traced_pass.outcomes),
        "accounting": acct, "layers": shares, "trace_file": str(trace_path),
        "spans": len(tracer.spans),
    }
    return Result(attempted, failed, values, report, problems)
