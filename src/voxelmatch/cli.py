"""Command-line surface: phantom generation, embedding, matching, alignment,
training, and evaluation.

Machine-readable results go to stdout; logs and the resolved configuration go
to stderr.  Exit codes: 0 success, 1 usage error, 2 data error.  All
randomness is controlled by --seed (or the config file).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import alignment, matching, metrics, model as model_mod, phantom, volume
from .config import RunConfig, load_config, resolved_lines
from .errors import VoxelMatchError
from .geometry import Point3, fit_rigid_trimmed
from .matching import EmbeddingSet

log = logging.getLogger("voxelmatch")

USAGE_ERROR, DATA_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="voxelmatch", description=__doc__)
    p.add_argument("--config", help="run configuration file (key = value sections)")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom-gen", help="generate a phantom suite")
    sp.add_argument("out_dir")
    sp.add_argument("--count", type=int, default=1)

    sp = sub.add_parser("embed", help="embed a volume with a trained model")
    sp.add_argument("volume")
    sp.add_argument("model")
    sp.add_argument("out_dir")

    sp = sub.add_parser("match", help="match one template point into a query volume")
    sp.add_argument("template_dir")
    sp.add_argument("point", help="template voxel coordinate 'x,y,z' (full resolution)")
    sp.add_argument("query_dir")
    sp.add_argument("--method", choices=("nn", "fixpoint"), default="nn")

    sp = sub.add_parser("simmap", help="write the similarity map of one template point")
    sp.add_argument("template_dir")
    sp.add_argument("point")
    sp.add_argument("query_dir")
    sp.add_argument("out_volume")

    sp = sub.add_parser("fit-rigid", help="rigid fit between two landmark files")
    sp.add_argument("src_landmarks")
    sp.add_argument("dst_landmarks")

    sp = sub.add_parser("adareg", help="align a moving scan to a fixed scan and crop")
    sp.add_argument("fixed")
    sp.add_argument("moving")
    sp.add_argument("model")
    sp.add_argument("out_dir")
    sp.add_argument("--margin", type=int, default=None,
                    help="crop margin in working voxels (default: first configured margin)")

    sp = sub.add_parser("train", help="train a projection model")
    sp.add_argument("manifest", help="text file listing training volumes")
    sp.add_argument("out_model")
    sp.add_argument("--mode", choices=("single", "cross-init", "cross-iter"),
                    default="single")
    sp.add_argument("--loss-log", default=None,
                    help="write the loss CSV here instead of stdout (single and cross-init only)")

    sp = sub.add_parser("eval", help="landmark metrics between predictions and truth")
    sp.add_argument("predicted")
    sp.add_argument("truth")
    sp.add_argument("--threshold", type=float, default=10.0)
    sp.add_argument("--radii", default=None, help="optional 'id radius' file for CPM@Radius")
    sp.add_argument("--out", default=None, help="also write a key=value report file")
    return p


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.train = replace(cfg.train, seed=args.seed)
        cfg.phantom = replace(cfg.phantom, seed=args.seed)
    for line in resolved_lines(cfg):
        print(line, file=sys.stderr)
    return cfg


def _read_volume(path, kind):
    """Read an EVF file that must hold a ``kind`` volume (scalar, label or embedding)."""
    vol = volume.read_volume(path)
    if not isinstance(vol, kind):
        raise VoxelMatchError(f"{path}: expected {kind.__name__}, found {type(vol).__name__}")
    return vol


def _read_embedding_set(dir_path) -> EmbeddingSet:
    d = Path(dir_path)
    coarse = _read_volume(d / "coarse.evf", volume.EmbeddingVolume)
    fine = _read_volume(d / "fine.evf", volume.EmbeddingVolume)
    semantic_path = d / "semantic.evf"
    semantic = (
        _read_volume(semantic_path, volume.EmbeddingVolume) if semantic_path.exists() else None
    )
    return EmbeddingSet(coarse=coarse, fine=fine, semantic=semantic)


def _weights_for(cfg: RunConfig, has_semantic: bool):
    """The [similarity] weights, renormalized over the coarse and fine heads
    when a side has no semantic head; ``VoxelMatchError`` when those weigh 0."""
    w = cfg.similarity
    if not has_semantic and w.w_semantic > 0:
        total = w.w_coarse + w.w_fine
        if total == 0:
            raise VoxelMatchError(
                "[similarity] w_coarse and w_fine are both 0, and there is no semantic head for w_semantic"
            )
        w = matching.SimilarityWeights(w.w_coarse / total, w.w_fine / total, 0.0)
    return w


def _parse_point(text: str) -> Point3:
    try:  # ValueError from the unpacking, from float() or from Point3's finiteness check
        x, y, z = map(float, text.replace(",", " ").split())
        return Point3(x, y, z)
    except ValueError:
        raise VoxelMatchError(f"expected three finite numbers 'x,y,z', got {text!r}") from None


def _cmd_phantom_gen(args, cfg: RunConfig) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = cfg.phantom
    spec_text = str(spec).encode()
    for i in range(args.count):
        case = out / f"case_{i:03d}"
        case.mkdir(exist_ok=True)
        seed = spec.seed + i
        vol, labels, lms = phantom.gen_phantom(replace(spec, seed=seed))
        volume.write_volume(vol, case / "volume.evf")
        volume.write_volume(labels, case / "labels.evf")
        metrics.write_landmarks(case / "landmarks.txt", lms)
        with open(case / "manifest.txt", "w", encoding="ascii") as f:
            f.write(f"seed={seed}\n")
            f.write(f"spec_sha256={hashlib.sha256(spec_text).hexdigest()}\n")
    print(f"wrote {args.count} cases to {out}")
    return 0


def _cmd_embed(args, cfg: RunConfig) -> int:
    """Write each head's embeddings as ``embed`` returns them: k-wide float32 unit vectors."""
    vol = _read_volume(args.volume, volume.ScalarVolume)
    emb = model_mod.embed(vol, model_mod.load_model(args.model))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("coarse", "fine", "semantic"):
        head = getattr(emb, name)
        if head is not None:
            volume.write_volume(head, out / f"{name}.evf")
    print(f"wrote embeddings to {out}")
    return 0


def _read_match_inputs(args, cfg: RunConfig):
    """The template set, the template point, the query set, and the weights for
    the heads that both sets hold."""
    template = _read_embedding_set(args.template_dir)
    query = _read_embedding_set(args.query_dir)
    t = _parse_point(args.point)
    both_semantic = template.semantic is not None and query.semantic is not None
    return template, t, query, _weights_for(cfg, both_semantic)


def _cmd_match(args, cfg: RunConfig) -> int:
    template, t, query, w = _read_match_inputs(args, cfg)
    if args.method == "fixpoint":
        res = matching.fixpoint_match(t, template, query, w, cfg.fixpoint)
    else:
        res = matching.nn_match(template, t, query, w)
    p = res.point
    print(f"{p.x:.6g} {p.y:.6g} {p.z:.6g} {res.similarity:.9g} {res.method} {res.n_fix}")
    return 0


def _cmd_simmap(args, cfg: RunConfig) -> int:
    smap = matching.similarity_map(*_read_match_inputs(args, cfg))
    volume.write_volume(smap, args.out_volume)
    print(f"wrote similarity map to {args.out_volume}")
    return 0


def _cmd_fit_rigid(args, cfg: RunConfig) -> int:
    src = metrics.read_landmarks(args.src_landmarks)
    dst = metrics.read_landmarks(args.dst_landmarks)
    ids, src_pts, dst_pts = metrics.join_landmarks(src, dst)
    if not ids:
        raise VoxelMatchError("no landmark ids shared between the two files")
    rig, report = fit_rigid_trimmed(src_pts, dst_pts, 0.0)
    for row in rig.rotation:
        print(f"{row[0]:.9g} {row[1]:.9g} {row[2]:.9g}")
    t = rig.translation
    print(f"{t[0]:.9g} {t[1]:.9g} {t[2]:.9g}")
    print(f"{report.residual_sum_squares:.9g}")
    return 0


def _cmd_adareg(args, cfg: RunConfig) -> int:
    fixed = _read_volume(args.fixed, volume.ScalarVolume)
    moving = _read_volume(args.moving, volume.ScalarVolume)
    mdl = model_mod.load_model(args.model)
    margin = args.margin if args.margin is not None else cfg.align.margins[0]
    reg = alignment.register_and_crop(
        fixed, moving, mdl, cfg.align, margin,
        weights=_weights_for(cfg, mdl.w_semantic is not None),
        fixpoint_cfg=cfg.fixpoint,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    volume.write_volume(reg.fixed_crop, out / "fixed_crop.evf")
    volume.write_volume(reg.moving, out / "moving.evf")
    volume.write_volume(reg.overlap_mask, out / "overlap_mask.evf")
    with open(out / "rigid.txt", "w", encoding="ascii") as f:
        for row in reg.rigid.rotation:
            f.write(f"{row[0]!r} {row[1]!r} {row[2]!r}\n")
        t = reg.rigid.translation
        f.write(f"{t[0]!r} {t[1]!r} {t[2]!r}\n")
    prov = reg.provenance
    with open(out / "provenance.txt", "w", encoding="ascii") as f:
        for key in ("round_index", "margin", "n_grid", "n_accepted", "inlier_count", "mean_residual_mm"):
            f.write(f"{key}={getattr(prov, key)}\n")
    print(f"aligned with {prov.inlier_count} inliers, mean residual {prov.mean_residual_mm:.3g} mm")
    return 0


def _read_manifest(path, mode):
    """Manifest lines: 'volume.evf [labels.evf]' or, for cross-iter,
    'fixed.evf moving.evf [fixed_lms.txt moving_lms.txt]'.  Paths are relative
    to the manifest file; a line with another number of paths is a data error."""
    counts = (2, 4) if mode == "cross-iter" else (1, 2)
    lines = list(metrics.read_lines(path))
    if not lines:
        raise VoxelMatchError(f"manifest {path} lists no volumes")
    for line_no, tokens in lines:
        if len(tokens) not in counts:
            raise VoxelMatchError(
                f"{path}:{line_no}: a {mode} line holds {counts[0]} or {counts[1]} paths, got {len(tokens)}"
            )
    base = Path(path).parent
    return [[str(base / tok) for tok in tokens] for _, tokens in lines]


def _cmd_train(args, cfg: RunConfig) -> int:
    # the inputs are read and the model trained before the loss log is opened,
    # so a data error leaves an old log as it was
    rows = _read_manifest(args.manifest, args.mode)
    if args.mode == "cross-iter":
        pairs = []
        for i, row in enumerate(rows):
            fixed = _read_volume(row[0], volume.ScalarVolume)
            moving = _read_volume(row[1], volume.ScalarVolume)
            lms = [metrics.read_landmarks(p) for p in row[2:]] or [None, None]
            pairs.append(alignment.CrossPair(fixed, moving, *lms, pair_id=f"p{i}"))
        # cross-iter models are trained without a semantic head
        models, metr = alignment.iterate_alignment(
            pairs, cfg.train, cfg.align, augment_spec=cfg.augment,
            weights=_weights_for(cfg, False), fixpoint_cfg=cfg.fixpoint,
        )
        out = Path(args.out_model)
        for k, mdl in enumerate(models):
            path = out.with_name(f"{out.stem}_k{k}{out.suffix or '.uaem'}")
            model_mod.save_model(mdl, path)
        model_mod.save_model(models[-1], out)
        print(alignment.format_metrics_table(metr))
        return 0
    dataset = []
    for row in rows:
        vol = _read_volume(row[0], volume.ScalarVolume)
        lab = _read_volume(row[1], volume.LabelVolume) if len(row) > 1 else None
        dataset.append((vol, lab))
    mode = {"single": "standard", "cross-init": "aggressive"}[args.mode]
    mdl, loss_log = model_mod.train(dataset, cfg.train, mode=mode, augment_spec=cfg.augment)
    log_file = open(args.loss_log, "w", newline="") if args.loss_log else contextlib.nullcontext(sys.stdout)
    with log_file as loss_stream:
        model_mod.save_model(mdl, args.out_model)
        writer = csv.writer(loss_stream)
        writer.writerow(["step", "loss_fine", "loss_coarse", "loss_semantic"])
        for row in loss_log:
            writer.writerow(
                [row["step"], repr(row["loss_fine"]), repr(row["loss_coarse"]),
                 repr(row["loss_semantic"])]
            )
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    pred = metrics.read_landmarks(args.predicted)
    true = metrics.read_landmarks(args.truth)
    ids, pred_pts, true_pts = metrics.join_landmarks(pred, true)
    if not ids:
        raise VoxelMatchError("no landmark ids shared between prediction and truth")
    radii = None
    if args.radii:
        table = metrics.read_radii(args.radii)
        radii = [table[name] for name in ids if name in table]
        if len(radii) != len(ids):
            raise VoxelMatchError("radii file does not cover every evaluated landmark")
    report = metrics.evaluate(metrics.LandmarkPairSet(pred_pts, true_pts, radii), args.threshold)
    for line in report.lines():
        print(line)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write("\n".join(report.key_values()) + "\n")
    return 0


_COMMANDS = {
    "phantom-gen": _cmd_phantom_gen,
    "embed": _cmd_embed,
    "match": _cmd_match,
    "simmap": _cmd_simmap,
    "fit-rigid": _cmd_fit_rigid,
    "adareg": _cmd_adareg,
    "train": _cmd_train,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and args.mode == "cross-iter" and args.loss_log:
        # iterate_alignment keeps no per-round loss log to write
        parser.error("--loss-log cannot be used with --mode cross-iter")
    if args.command == "adareg" and args.margin is not None and args.margin < 0:
        parser.error("--margin must be >= 0")
    if args.command == "phantom-gen" and args.count < 1:
        parser.error("--count must be >= 1")
    if args.command == "eval" and not 0.0 < args.threshold < math.inf:
        parser.error("--threshold must be finite and positive")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _load_run_config(args)
        return _COMMANDS[args.command](args, cfg)
    except VoxelMatchError as exc:
        print(f"voxelmatch: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"voxelmatch: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
