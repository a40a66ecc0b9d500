"""Cross-modality alignment: grid matching, trimmed rigid fit, margin-scheduled
cropping, and the outer retraining loop.

One alignment step matches grid points of the small-FOV (moving) scan into the
large-FOV (fixed) scan, fits a rigid transform to the survivors, and crops the
fixed scan around the transformed moving body box plus a margin.  The outer
loop retrains the embedding model on the registered pairs and repeats with a
smaller margin.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .augment import AugmentSpec, PatchPair
from .errors import DegenerateGeometry, EmptyMask, TooFewMatches
from .geometry import Point3, RigidTransform, fit_rigid_trimmed
from .matching import FixpointConfig, SimilarityWeights, grid_match
from .metrics import LandmarkPairSet, evaluate, join_landmarks
from .model import ProjectionModel, TrainConfig, _features, embed, train
from .volume import (
    Box3,
    LabelVolume,
    ScalarVolume,
    body_mask,
    crop,
    dilate_box,
    mapped_inside,
)

__all__ = [
    "AlignConfig",
    "AlignProvenance",
    "RegisteredPair",
    "CrossPair",
    "RoundMetrics",
    "register_and_crop",
    "iterate_alignment",
    "format_metrics_table",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AlignConfig:
    grid_spacing: int = 8            # embedding-grid voxels between match seeds
    similarity_floor: float = 0.5    # matches below this are discarded
    trim_fraction: float = 0.2
    margins: tuple[int, ...] = (10, 5, 1)  # working-grid voxels, one per retraining round
    matcher: str = "nn"              # "nn" | "fixpoint"
    body_threshold: float = 0.2

    def __post_init__(self):
        if self.grid_spacing < 2:
            raise ValueError("grid_spacing must be >= 2")
        if any(a < b for a, b in zip(self.margins, self.margins[1:])):
            raise ValueError("margins must be non-increasing")
        if any(m < 0 for m in self.margins):
            raise ValueError("margins must be >= 0")
        if self.matcher not in ("nn", "fixpoint"):
            raise ValueError(f"unknown matcher {self.matcher!r}")
        if not 0.0 <= self.trim_fraction <= 0.5:
            raise ValueError("trim_fraction must lie in [0, 0.5]")
        for name in ("similarity_floor", "body_threshold"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")


@dataclass
class AlignProvenance:
    round_index: int
    margin: int
    n_grid: int
    n_accepted: int
    inlier_count: int
    mean_residual_mm: float


@dataclass(frozen=True)
class RegisteredPair:
    """The moving scan registered onto a crop of the fixed scan.

    Stored: ``fixed_crop``, ``moving``, ``rigid`` and ``provenance``.  Derived
    from them, and so never out of step with them:

    - ``overlap_mask``, the fixed-crop voxels whose image under the inverse
      rigid lies inside the moving grid; computed anew on each read.
    - ``training_view``, the pair as a ``PatchPair`` (moving is side A, the
      fixed crop side B) with both overlaps; built on the first read and kept,
      because training reads it on every paired step.
    - ``training_view.usable_anchors``, the moving-side anchors whose
      correspondent rounds onto the crop's embedding grid; kept beside the
      view once its first paired batch reads them, across ``train`` calls.
    - ``training_features``, one (fine rows, coarse rows, half geometry)
      triple per side of the view, moving first: the bank's responses and
      their sigma = 4 smoothing, as ``train`` embeds them.  The bank never
      trains, so they hold for every model.  Built on the first paired step
      that draws the pair and kept, read-only, for the pair's lifetime:
      about 11 MB at a 64^3 working grid.  Registration alone never builds
      them.
    """

    fixed_crop: ScalarVolume
    moving: ScalarVolume
    rigid: RigidTransform          # moving -> fixed, physical mm
    provenance: AlignProvenance

    @property
    def overlap_mask(self) -> LabelVolume:
        gc = self.fixed_crop.geometry
        return LabelVolume(gc, mapped_inside(gc, (self.rigid.inverse(), self.moving.geometry)))

    @functools.cached_property
    def training_view(self) -> PatchPair:
        ga, gb = self.moving.geometry, self.fixed_crop.geometry
        return PatchPair(
            patch_a=self.moving, patch_b=self.fixed_crop, map_ab=self.rigid.as_affine(),
            overlap_a=mapped_inside(ga, (self.rigid, gb)),
            overlap_b=mapped_inside(gb, (self.rigid.inverse(), ga)),
        )

    @functools.cached_property
    def training_features(self) -> tuple[tuple, tuple]:
        view = self.training_view
        feats = _features(view.patch_a), _features(view.patch_b)
        for fine, coarse, _ in feats:
            fine.flags.writeable = coarse.flags.writeable = False  # shared by every later read
        return feats


@dataclass
class CrossPair:
    """One unregistered cross-modality case, optionally with truth landmarks (mm)."""

    fixed: ScalarVolume
    moving: ScalarVolume
    fixed_landmarks: list | None = None
    moving_landmarks: list | None = None
    pair_id: str = ""


@dataclass
class RoundMetrics:
    round_index: int
    pair_id: str
    inliers: int
    mean_residual_mm: float
    med_mm: float | None = None


def _grid_points(mask: LabelVolume, spacing_half: int) -> np.ndarray:
    """Full-resolution voxel coordinates (x, y, z), in x-major order, of an evenly
    spaced embedding-grid lattice restricted to the mask."""
    k = 2 * spacing_half
    # the transposed view is indexed [x, y, z], so argwhere lists its voxels x-major
    return np.argwhere(mask.data[::k, ::k, ::k].T) * float(k)


def register_and_crop(
    fixed: ScalarVolume,
    moving: ScalarVolume,
    model: ProjectionModel,
    cfg: AlignConfig,
    margin: int,
    weights: SimilarityWeights = SimilarityWeights(),
    fixpoint_cfg: FixpointConfig = FixpointConfig(),
    round_index: int = 0,
) -> RegisteredPair:
    """One alignment step: grid match, trimmed rigid fit, margin-dilated crop.

    Both volumes are taken at working resolution; ``fixpoint_cfg`` is read
    only when ``cfg.matcher == "fixpoint"``.  Raises:

    - ``EmptyMask`` when the moving scan has no body or no background, or its
      body mask holds no grid point;
    - ``TooFewMatches`` when fewer than three of the grid matches that clear
      the similarity floor would remain after trimming, n - ceil(t * n) < 3
      for n matches at ``cfg.trim_fraction`` t (``fit_rigid_trimmed``'s rule);
    - ``DegenerateGeometry`` when the matches the trimmed fit keeps lie on
      one line in the moving scan.
    """
    mask, bbox = body_mask(moving, cfg.body_threshold)
    moving_set = embed(moving, model)
    fixed_set = embed(fixed, model)
    pts = _grid_points(mask, cfg.grid_spacing)
    if len(pts) == 0:
        raise EmptyMask("body mask holds no grid points")
    fp_cfg = fixpoint_cfg if cfg.matcher == "fixpoint" else None
    results = grid_match(pts, moving_set, fixed_set, weights, fp_cfg)
    src, dst = [], []
    for p, r in zip(pts, results):
        if r is None or r.similarity < cfg.similarity_floor:
            continue
        src.append(p)
        dst.append([r.point.x, r.point.y, r.point.z])
    if len(src) - math.ceil(cfg.trim_fraction * len(src)) < 3:
        raise TooFewMatches(
            f"{len(src)} of {len(pts)} grid matches cleared the floor {cfg.similarity_floor}, "
            f"too few to keep 3 after trimming {cfg.trim_fraction}"
        )
    src_mm = moving.geometry.voxel_to_physical(np.asarray(src))
    dst_mm = fixed.geometry.voxel_to_physical(np.asarray(dst))
    rigid, report = fit_rigid_trimmed(src_mm, dst_mm, cfg.trim_fraction)
    inliers = int(report.inlier_mask.sum())
    mean_resid = float(np.sqrt(report.residual_sum_squares / max(inliers, 1)))

    corners_vox = np.array(
        [[x, y, z] for x in (bbox.min[0], bbox.max[0])
         for y in (bbox.min[1], bbox.max[1])
         for z in (bbox.min[2], bbox.max[2])],
        dtype=np.float64,
    )
    corners_fixed = fixed.geometry.physical_to_voxel(
        rigid.apply_array(moving.geometry.voxel_to_physical(corners_vox))
    )
    lo = np.floor(corners_fixed.min(axis=0)).astype(int)
    hi = np.ceil(corners_fixed.max(axis=0)).astype(int)
    lo = np.clip(lo, 0, np.asarray(fixed.geometry.dims) - 1)
    hi = np.clip(hi, 0, np.asarray(fixed.geometry.dims) - 1)
    box = dilate_box(Box3(tuple(lo), tuple(hi)), margin, fixed.geometry.dims)
    return RegisteredPair(
        fixed_crop=crop(fixed, box),
        moving=moving,
        rigid=rigid,
        provenance=AlignProvenance(
            round_index, margin, len(pts), len(src), inliers, mean_resid
        ),
    )


def _pair_med(rigid: RigidTransform, pair: CrossPair) -> float | None:
    if not pair.fixed_landmarks or not pair.moving_landmarks:
        return None
    _, moving_pts, fixed_pts = join_landmarks(pair.moving_landmarks, pair.fixed_landmarks)
    if not moving_pts:
        return None
    pred = [Point3.from_array(rigid.apply_array(p.to_array())) for p in moving_pts]
    return evaluate(LandmarkPairSet(pred, fixed_pts)).med


def iterate_alignment(
    pairs: list,
    train_cfg: TrainConfig,
    align_cfg: AlignConfig = AlignConfig(),
    augment_spec: AugmentSpec = AugmentSpec(),
    weights: SimilarityWeights = SimilarityWeights(),
    fixpoint_cfg: FixpointConfig = FixpointConfig(),
):
    """Bootstrap + margin-scheduled retraining over cross-modality pairs.

    Round 0 trains an intensity-agnostic model in ``aggressive`` mode on all
    individual volumes.  Intensity-agnostic means: the descriptor bank makes
    every model exactly invariant to v -> a * v + b with a > 0 and nearly
    invariant to smooth monotone remaps; contrast reversal is left to the
    augmentation and the later rounds.  Each subsequent round aligns every
    pair with the latest model and the round's margin, then retrains in
    ``paired`` mode on alternating self-supervised and registered-pair
    batches.  Both modes draw every self-supervised patch pair with
    aggressive Bezier and reversal augmentation: the mode decides that, and
    ``augment_spec`` sets only the shared augmentation ranges.  A pair whose
    ``register_and_crop`` raises ``TooFewMatches`` (fewer than three matches
    left after trimming), ``EmptyMask`` (no body, no background or no grid
    point in the body) or ``DegenerateGeometry`` (collinear inliers) is
    skipped with a warning naming it, never aborting the round; a round in
    which no pair registers raises ``TooFewMatches``.  Returns the model
    sequence (k = 0..len(margins)) and per-round metrics rows.
    """
    if not pairs:
        raise EmptyMask("no cross-modality pairs given")
    vols = [p.fixed for p in pairs] + [p.moving for p in pairs]
    model0, _ = train(vols, train_cfg, mode="aggressive", augment_spec=augment_spec)
    model0.round_index = 0
    models = [model0]
    rows: list[RoundMetrics] = []
    for j, margin in enumerate(align_cfg.margins):
        registered = []
        for pair in pairs:
            try:
                reg = register_and_crop(
                    pair.fixed, pair.moving, models[-1], align_cfg, margin,
                    weights=weights, fixpoint_cfg=fixpoint_cfg, round_index=j,
                )
            except (TooFewMatches, EmptyMask, DegenerateGeometry) as exc:
                log.warning("alignment skipped pair %s in round %d: %s", pair.pair_id, j, exc)
                continue
            registered.append(reg)
            rows.append(
                RoundMetrics(
                    j, pair.pair_id, reg.provenance.inlier_count,
                    reg.provenance.mean_residual_mm, _pair_med(reg.rigid, pair),
                )
            )
        if not registered:
            raise TooFewMatches(f"round {j}: no pair registered (margin {margin})")
        round_cfg = replace(train_cfg, seed=train_cfg.seed + 1000 * (j + 1))
        next_model, _ = train(
            vols, round_cfg, mode="paired", augment_spec=augment_spec,
            registered_pairs=registered, init=models[-1],
        )
        next_model.round_index = j + 1
        models.append(next_model)
    return models, rows


def format_metrics_table(rows: list) -> str:
    """Line-oriented text table: k, pair id, inliers, residual mm, MED mm."""
    out = ["k pair inliers residual_mm med_mm"]
    for r in rows:
        med = "nan" if r.med_mm is None else f"{r.med_mm:.6g}"
        out.append(
            f"{r.round_index} {r.pair_id or '-'} {r.inliers} {r.mean_residual_mm:.6g} {med}"
        )
    return "\n".join(out)
