"""Run configuration: a sectioned key = value text file mapped onto the
module parameter dataclasses.  Unknown sections or keys are rejected, and
every run can echo the fully resolved configuration.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

from .alignment import AlignConfig
from .augment import AugmentSpec
from .errors import ConfigError
from .matching import FixpointConfig, SimilarityWeights
from .model import TrainConfig
from .phantom import PhantomSpec

__all__ = ["RunConfig", "load_config", "resolved_lines"]


@dataclass
class RunConfig:
    seed: int = 0
    similarity: SimilarityWeights = field(default_factory=SimilarityWeights)
    fixpoint: FixpointConfig = field(default_factory=FixpointConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    align: AlignConfig = field(default_factory=AlignConfig)
    phantom: PhantomSpec = field(default_factory=PhantomSpec)


# each section sets the RunConfig field of its name; [run] holds only the seed
_SECTIONS = ("similarity", "fixpoint", "train", "augment", "align", "phantom")


def _parse_value(raw: str, annotation, key: str):
    """``raw`` as a value of the resolved type ``annotation``.

    A tuple is comma or space separated: ``tuple[T, T]`` takes exactly that
    many values, ``tuple[T, ...]`` at least one.
    """
    raw = raw.strip()
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if annotation in (int, float, str):
        return annotation(raw)
    if origin is tuple:
        parts = raw.replace(",", " ").split()
        if args[-1] is Ellipsis:
            if not parts:
                raise ConfigError(f"{key}: expected at least one value")
            args = (args[0],) * len(parts)
        if len(parts) != len(args):
            raise ConfigError(f"{key}: expected {len(args)} values, got {len(parts)}")
        return tuple(elem(p) for elem, p in zip(args, parts))
    raise ConfigError(f"{key}: unsupported value type {annotation!r}")


def _apply_section(instance, items, section: str):
    hints = get_type_hints(type(instance))
    updates = {}
    for key, raw in items:
        if key not in hints:
            raise ConfigError(f"unknown key [{section}] {key}")
        try:
            updates[key] = _parse_value(raw, hints[key], f"[{section}] {key}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    try:
        return replace(instance, **updates)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse a config file; a file that configparser cannot parse, an unknown
    section or key, or a bad value raises ``ConfigError``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(str(path), encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    cfg = RunConfig()
    for section, items in sections.items():
        if section == "run":
            for key, raw in items:
                if key != "seed":
                    raise ConfigError(f"unknown key [run] {key}")
                try:
                    cfg.seed = int(raw)
                    if cfg.seed < 0:
                        raise ValueError("seed must be >= 0")
                except ValueError as exc:
                    raise ConfigError(f"[run] {key}: {exc}") from exc
        elif section in _SECTIONS:
            setattr(cfg, section, _apply_section(getattr(cfg, section), items, section))
        else:
            raise ConfigError(f"unknown config section [{section}]")
    # a single seed drives every module unless a section sets its own
    for attr in ("train", "phantom"):
        if not parser.has_option(attr, "seed"):
            setattr(cfg, attr, replace(getattr(cfg, attr), seed=cfg.seed))
    return cfg


def resolved_lines(cfg: RunConfig) -> list[str]:
    """The fully resolved configuration, one 'section.key = value' line each."""
    out = [f"run.seed = {cfg.seed}"]
    for section in _SECTIONS:
        inst = getattr(cfg, section)
        for f in fields(inst):
            out.append(f"{section}.{f.name} = {getattr(inst, f.name)}")
    return out
