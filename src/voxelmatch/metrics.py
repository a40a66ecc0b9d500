"""Match and registration evaluation: MED, per-axis MED, and CPM rates.

CPM uses a strict ``<`` at the threshold: a pair sitting exactly on the
threshold counts as incorrect.  Standard deviations are population-style
(divide by N), fixed for reproducibility.

Every text input (landmark and radii files here, training manifests in
``cli``) is read through the one line reader ``read_lines``, which skips blank
and ``#`` comment lines and reports a line that is not ASCII as
``MalformedFile`` naming ``path:line``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import EmptySet, InvalidRadii, MalformedFile, MismatchedLengths
from .geometry import Point3

__all__ = [
    "LandmarkPairSet",
    "MetricsReport",
    "evaluate",
    "read_landmarks",
    "join_landmarks",
    "write_landmarks",
    "read_radii",
    "read_lines",
]


@dataclass
class LandmarkPairSet:
    predicted: list  # Point3, mm
    truth: list      # Point3, mm
    radii: list | None = None  # per-landmark mm radii for CPM@Radius

    def __post_init__(self):
        if len(self.predicted) != len(self.truth):
            raise MismatchedLengths(
                f"{len(self.predicted)} predictions vs {len(self.truth)} truths"
            )
        if self.radii is not None:
            if len(self.radii) != len(self.truth):
                raise MismatchedLengths("radii count does not match landmark count")
            if not all(0.0 < r < math.inf for r in self.radii):
                raise InvalidRadii("radii must be finite and positive")


@dataclass
class MetricsReport:
    med: float
    med_std: float
    medx: float
    medx_std: float
    medy: float
    medy_std: float
    medz: float
    medz_std: float
    cpm_at_threshold: float        # percent
    threshold: float
    max_error: float
    cpm_at_radius: float | None = None  # percent, needs per-landmark radii

    def lines(self) -> list[str]:
        out = [
            f"med          {self.med:.6g} +/- {self.med_std:.6g} mm",
            f"medx         {self.medx:.6g} +/- {self.medx_std:.6g} mm",
            f"medy         {self.medy:.6g} +/- {self.medy_std:.6g} mm",
            f"medz         {self.medz:.6g} +/- {self.medz_std:.6g} mm",
            f"cpm@{self.threshold:g}mm    {self.cpm_at_threshold:.6g} %",
            f"max_error    {self.max_error:.6g} mm",
        ]
        if self.cpm_at_radius is not None:
            out.insert(5, f"cpm@radius   {self.cpm_at_radius:.6g} %")
        return out

    def key_values(self) -> list[str]:
        kv = [
            f"med={self.med!r}",
            f"med_std={self.med_std!r}",
            f"medx={self.medx!r}",
            f"medy={self.medy!r}",
            f"medz={self.medz!r}",
            f"cpm_at_threshold={self.cpm_at_threshold!r}",
            f"threshold={self.threshold!r}",
            f"max_error={self.max_error!r}",
        ]
        if self.cpm_at_radius is not None:
            kv.append(f"cpm_at_radius={self.cpm_at_radius!r}")
        return kv


def evaluate(pairs: LandmarkPairSet, threshold_mm: float = 10.0) -> MetricsReport:
    """Distances between predicted and true landmark positions.

    CPM@threshold counts pairs with Euclidean distance strictly below
    ``threshold_mm``; CPM@Radius replaces the fixed threshold by each
    landmark's own radius and is reported when ``pairs.radii`` is set (None
    otherwise).
    """
    if len(pairs.predicted) == 0:
        raise EmptySet("no landmark pairs to evaluate")
    pred = np.array([[p.x, p.y, p.z] for p in pairs.predicted], dtype=np.float64)
    true = np.array([[p.x, p.y, p.z] for p in pairs.truth], dtype=np.float64)
    diffs = pred - true
    dists = np.linalg.norm(diffs, axis=1)
    absdiff = np.abs(diffs)
    cpm = float((dists < threshold_mm).mean() * 100.0)
    cpm_radius = None
    if pairs.radii is not None:
        cpm_radius = float((dists < np.asarray(pairs.radii, dtype=np.float64)).mean() * 100.0)
    return MetricsReport(
        med=float(dists.mean()),
        med_std=float(dists.std()),
        medx=float(absdiff[:, 0].mean()),
        medx_std=float(absdiff[:, 0].std()),
        medy=float(absdiff[:, 1].mean()),
        medy_std=float(absdiff[:, 1].std()),
        medz=float(absdiff[:, 2].mean()),
        medz_std=float(absdiff[:, 2].std()),
        cpm_at_threshold=cpm,
        threshold=float(threshold_mm),
        max_error=float(dists.max()),
        cpm_at_radius=cpm_radius,
    )


# ---------------------------------------------------------------------------
# landmark text files: one "id x y z" line per landmark, mm, full precision
# ---------------------------------------------------------------------------

def write_landmarks(path, landmarks) -> None:
    with open(Path(path), "w", encoding="ascii") as f:
        for name, p in landmarks:
            f.write(f"{name} {p.x!r} {p.y!r} {p.z!r}\n")


def read_lines(path) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line of ``path`` that is neither blank nor
    a ``#`` comment; a line that is not ASCII raises ``MalformedFile``."""
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            tokens = raw.decode("ascii").split()
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}:{line_no}: not ASCII text") from exc
        if tokens and not tokens[0].startswith("#"):
            yield line_no, tokens


def read_landmarks(path) -> list:
    """(id, Point3) per "id x y z" line; an id given twice raises ``MalformedFile``."""
    out, first_line = [], {}
    for line_no, parts in read_lines(path):
        try:
            name, x, y, z = parts
            out.append((name, Point3(float(x), float(y), float(z))))
        except ValueError as exc:
            raise MalformedFile(f"{path}:{line_no}: expected 'id x y z'") from exc
        if first_line.setdefault(name, line_no) != line_no:
            raise MalformedFile(f"{path}:{line_no}: landmark id {name!r} repeats {path}:{first_line[name]}")
    return out


def join_landmarks(first, second) -> tuple[list, list, list]:
    """(ids, points of ``first``, points of ``second``) of the landmark ids both
    (id, Point3) lists hold, in the order of ``first``; all empty when none is shared."""
    second_by_id = dict(second)
    shared = [(name, p) for name, p in first if name in second_by_id]
    return [n for n, _ in shared], [p for _, p in shared], [second_by_id[n] for n, _ in shared]


def read_radii(path) -> dict:
    """Radii file: one "id radius_mm" line per landmark, each radius finite and positive."""
    out = {}
    for line_no, parts in read_lines(path):
        try:
            name, radius = parts
            out[name] = float(radius)
        except ValueError as exc:
            raise MalformedFile(f"{path}:{line_no}: expected 'id radius'") from exc
        if not 0.0 < out[name] < math.inf:
            raise MalformedFile(f"{path}:{line_no}: radius {radius} is not finite and positive")
    return out
