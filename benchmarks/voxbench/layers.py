"""The voxelmatch call sites a traced run wraps, and the per-layer metrics built from them.

Each wrapper patches the name its caller looks up: ``register_and_crop``
finds ``embed``, ``grid_match``, ``fit_rigid_trimmed``, ``body_mask`` and
``crop`` in the ``alignment`` module, ``grid_match`` finds
``fixpoint_match`` and ``fixpoint_match`` finds ``fit_affine`` in
``matching``, and ``train`` finds the sampling and loss functions in
``model``.  The descriptor bank is patched on its class.  The benchmark
itself calls ``register_and_crop``, ``train``, ``gen_pair`` and ``resample``
through their modules, so those are wrapped in their home modules.
"""

from __future__ import annotations

from voxelmatch import alignment, matching, model, phantom, volume
from voxelmatch.errors import DegenerateGeometry, InsufficientOverlap

from .stats import median
from .trace import traced


def _after_register(tr, args, kwargs, result, exc):
    if exc is None:
        tr.count("alignment.grid_points", result.provenance.n_grid)
        tr.count("alignment.accepted", result.provenance.n_accepted)


def _after_grid_match(tr, args, kwargs, result, exc):
    if exc is not None:
        return
    points, _, query, weights = args[:4]
    fixpoint_cfg = args[4] if len(args) > 4 else kwargs.get("cfg")
    tr.count("matching.points", len(points))
    for r in result:
        if r is None:
            continue
        tr.samples["matching.similarity"].append(r.similarity)
        if fixpoint_cfg is not None:
            tr.count("fixpoint.results")
            tr.count("fixpoint.fallback", r.method == "fixpoint_fallback_nn")
            tr.samples["fixpoint.n_fix"].append(r.n_fix)
            tr.samples["fixpoint.points_used"].append(r.n_fixed_points_used)
    if fixpoint_cfg is None:
        # one (query voxels x concatenated head channels) @ (channels x points) product
        heads = (("coarse", weights.w_coarse), ("fine", weights.w_fine), ("semantic", weights.w_semantic))
        channels = sum(getattr(query, h).channels for h, w in heads if w > 0)
        tr.count("nn.sim_flops", 2.0 * query.geometry.n_voxels * len(points) * channels)


def _after_fit_rigid(tr, args, kwargs, result, exc):
    if exc is None:
        mask = result[1].inlier_mask
        tr.count("fit.inliers", int(mask.sum()))
        tr.count("fit.pairs", len(mask))


def _after_fit_affine(tr, args, kwargs, result, exc):
    tr.count("affine.degenerate", isinstance(exc, DegenerateGeometry))


def _after_bank(tr, args, kwargs, result, exc):
    if exc is None:
        tr.count("bank.voxels_in", args[1].data.size)


def _after_training_batch(tr, args, kwargs, result, exc):
    tr.count("batch.skipped", isinstance(exc, InsufficientOverlap))


# (owner, attribute, span name, counter hook)
LAYERS = (
    (alignment, "register_and_crop", "alignment.register_and_crop", _after_register),
    (alignment, "embed", "model.embed", None),
    (alignment, "grid_match", "matching.grid_match", _after_grid_match),
    (alignment, "fit_rigid_trimmed", "geometry.fit_rigid_trimmed", _after_fit_rigid),
    (alignment, "body_mask", "volume.body_mask", None),
    (alignment, "crop", "volume.crop", None),
    (matching, "fixpoint_match", "matching.fixpoint_match", None),
    (matching, "fit_affine", "geometry.fit_affine", _after_fit_affine),
    (model.DescriptorBank, "compute", "model.bank", _after_bank),
    (model, "train", "model.train", None),
    (model, "sample_patch_pair", "augment.sample_patch_pair", None),
    (model, "sample_training_batch", "model.sample_training_batch", _after_training_batch),
    (model, "appearance_infonce", "losses.appearance_infonce", None),
    (model, "crossmod_infonce", "losses.crossmod_infonce", None),
    (model, "proto_supcon", "losses.proto_supcon", None),
    (phantom, "gen_pair", "phantom.gen_pair", None),
    (volume, "resample", "volume.resample", None),
)


def layer_targets(tracer):
    """``patched`` targets that route every layer in ``LAYERS`` through ``tracer``."""
    return [
        (owner, attr, lambda fn, name=name, after=after: traced(tracer, name, fn, after))
        for owner, attr, name, after in LAYERS
    ]


# name -> unit, in report order.  "/op" is per pair registered on the align
# workloads and per training step on the train workload.
PER_LAYER = {
    "model.bank.s": "s/op",
    "model.bank.calls": "count/op",
    "model.bank.voxels_in": "count/op",
    "model.bank.ns_per_voxel": "ns",
    "model.embed.self_s": "s/op",
    "matching.grid_match.s": "s/op",
    "matching.grid_match.points": "count/op",
    "matching.fixpoint_match.calls": "count/op",
    "matching.fixpoint_match.s": "s/op",
    "matching.fixpoint.fallback_pct": "%",
    "matching.fixpoint.n_fix_p50": "count",
    "matching.fixpoint.points_used_p50": "count",
    "matching.similarity_p50": "cosine",
    "matching.nn.sim_flops": "flop/op",
    "geometry.fit_rigid_trimmed.s": "s/op",
    "geometry.inlier_pct": "%",
    "geometry.fit_affine.calls": "count/op",
    "geometry.fit_affine.degenerate": "count/op",
    "alignment.register_and_crop.self_s": "s/op",
    "alignment.accepted_pct": "%",
    "alignment.rot_err_deg_p50.identity": "deg",
    "alignment.rot_err_deg_p50.gamma": "deg",
    "alignment.rot_err_deg_p50.inverted": "deg",
    "alignment.cpm10_pct.identity": "%",
    "alignment.cpm10_pct.gamma": "%",
    "alignment.cpm10_pct.inverted": "%",
    "augment.sample_patch_pair.s": "s/op",
    "augment.sample_patch_pair.calls": "count/op",
    "model.sample_training_batch.s": "s/op",
    "model.sample_training_batch.skipped": "count/op",
    "losses.appearance_infonce.s": "s/op",
    "losses.crossmod_infonce.s": "s/op",
    "model.train.self_s": "s/op",
    "volume.crop.s": "s/op",
    "volume.body_mask.s": "s/op",
    "phantom.gen_pair.s": "s",
    "volume.resample.s": "s",
    "trace.overhead_pct": "%",
}


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer_values(op_table, setup_table, counters, samples, n_ops, by_remap, overhead_pct):
    """Values for every name in ``PER_LAYER``.

    ``op_table``/``setup_table`` come from ``trace.layer_table`` over the
    traced operations and the traced set-up.  A layer the workload never
    reaches reads 0.
    """

    def row(name):
        return op_table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_op(x):
        return x / n_ops

    bank = row("model.bank")
    voxels = counters["bank.voxels_in"]
    values = {
        "model.bank.s": per_op(bank["total_s"]),
        "model.bank.calls": per_op(bank["calls"]),
        "model.bank.voxels_in": per_op(voxels),
        "model.bank.ns_per_voxel": 1e9 * bank["total_s"] / voxels if voxels else 0.0,
        "model.embed.self_s": per_op(row("model.embed")["self_s"]),
        "matching.grid_match.s": per_op(row("matching.grid_match")["total_s"]),
        "matching.grid_match.points": per_op(counters["matching.points"]),
        "matching.fixpoint_match.calls": per_op(row("matching.fixpoint_match")["calls"]),
        "matching.fixpoint_match.s": per_op(row("matching.fixpoint_match")["total_s"]),
        "matching.fixpoint.fallback_pct": _pct(counters["fixpoint.fallback"], counters["fixpoint.results"]),
        "matching.fixpoint.n_fix_p50": median(samples["fixpoint.n_fix"]),
        "matching.fixpoint.points_used_p50": median(samples["fixpoint.points_used"]),
        "matching.similarity_p50": median(samples["matching.similarity"]),
        "matching.nn.sim_flops": per_op(counters["nn.sim_flops"]),
        "geometry.fit_rigid_trimmed.s": per_op(row("geometry.fit_rigid_trimmed")["total_s"]),
        "geometry.inlier_pct": _pct(counters["fit.inliers"], counters["fit.pairs"]),
        "geometry.fit_affine.calls": per_op(row("geometry.fit_affine")["calls"]),
        "geometry.fit_affine.degenerate": per_op(counters["affine.degenerate"]),
        "alignment.register_and_crop.self_s": per_op(row("alignment.register_and_crop")["self_s"]),
        "alignment.accepted_pct": _pct(counters["alignment.accepted"], counters["alignment.grid_points"]),
        "augment.sample_patch_pair.s": per_op(row("augment.sample_patch_pair")["total_s"]),
        "augment.sample_patch_pair.calls": per_op(row("augment.sample_patch_pair")["calls"]),
        "model.sample_training_batch.s": per_op(row("model.sample_training_batch")["total_s"]),
        "model.sample_training_batch.skipped": per_op(counters["batch.skipped"]),
        "losses.appearance_infonce.s": per_op(row("losses.appearance_infonce")["total_s"]),
        "losses.crossmod_infonce.s": per_op(row("losses.crossmod_infonce")["total_s"]),
        "model.train.self_s": per_op(row("model.train")["self_s"]),
        "volume.crop.s": per_op(row("volume.crop")["total_s"]),
        "volume.body_mask.s": per_op(row("volume.body_mask")["total_s"]),
        "phantom.gen_pair.s": setup_table.get("phantom.gen_pair", {}).get("total_s", 0.0),
        "volume.resample.s": setup_table.get("volume.resample", {}).get("total_s", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    for remap in ("identity", "gamma", "inverted"):
        acc = by_remap.get(remap, {})
        values[f"alignment.rot_err_deg_p50.{remap}"] = acc.get("rot_err_deg_p50", 0.0)
        values[f"alignment.cpm10_pct.{remap}"] = acc.get("cpm10_pct", 0.0)
    return {name: values[name] for name in PER_LAYER}
