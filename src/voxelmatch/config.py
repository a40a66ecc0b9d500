"""Run configuration: a sectioned key = value text file mapped onto the
module parameter dataclasses.  Unknown sections or keys are rejected, and
every run can echo the fully resolved configuration.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

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


_SECTIONS = {
    "run": None,  # handled separately (seed)
    "similarity": ("similarity", SimilarityWeights),
    "fixpoint": ("fixpoint", FixpointConfig),
    "train": ("train", TrainConfig),
    "augment": ("augment", AugmentSpec),
    "align": ("align", AlignConfig),
    "phantom": ("phantom", PhantomSpec),
}


def _parse_value(raw: str, annotation, key: str):
    raw = raw.strip()
    if annotation is int or annotation == "int":
        return int(raw)
    if annotation is float or annotation == "float":
        return float(raw)
    if annotation is bool or annotation == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if annotation is str or annotation == "str":
        return raw
    # tuple annotations: comma or space separated; element type and count from
    # the annotation text, tuple[T, T] fixed and tuple[T, ...] at least one
    text = str(annotation)
    if "tuple[" in text:
        if raw.lower() in ("none", ""):
            if "None" in text:
                return None
            raise ConfigError(f"{key}: a value is required")
        elems = [e.strip() for e in text[text.index("tuple[") + 6:text.index("]")].split(",")]
        parts = raw.replace(",", " ").split()
        if elems[-1] == "..." and not parts:
            raise ConfigError(f"{key}: expected at least one value")
        if elems[-1] != "..." and len(parts) != len(elems):
            raise ConfigError(f"{key}: expected {len(elems)} values, got {len(parts)}")
        elem = float if elems[0] == "float" else int
        return tuple(elem(p) for p in parts)
    raise ConfigError(f"{key}: unsupported value type {annotation!r}")


def _apply_section(instance, items, section: str):
    known = {f.name: f for f in fields(instance)}
    updates = {}
    for key, raw in items:
        if key not in known:
            raise ConfigError(f"unknown key [{section}] {key}")
        ann = known[key].type
        try:
            updates[key] = _parse_value(raw, _resolve_type(instance, key, ann), f"[{section}] {key}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    kwargs = {f.name: getattr(instance, f.name) for f in fields(instance)}
    kwargs.update(updates)
    try:
        return type(instance)(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _resolve_type(instance, key: str, annotation):
    if not isinstance(annotation, str):
        return annotation
    text = annotation
    if "tuple" in text:
        return text
    for prim, name in ((int, "int"), (float, "float"), (bool, "bool"), (str, "str")):
        if text == name or text.startswith(f"{name} "):
            return prim
    # fall back to the type of the default value
    return type(getattr(instance, key))


def load_config(path) -> RunConfig:
    """Parse a config file; unknown sections/keys raise ``ConfigError``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        items = parser.items(section)
        if section == "run":
            for key, raw in items:
                if key != "seed":
                    raise ConfigError(f"unknown key [run] {key}")
                try:
                    cfg.seed = int(raw)
                except ValueError as exc:
                    raise ConfigError(f"[run] {key}: {exc}") from exc
            continue
        attr, _ = _SECTIONS[section]
        setattr(cfg, attr, _apply_section(getattr(cfg, attr), items, section))
    # a single seed drives every module unless a section sets its own
    for attr in ("train", "phantom"):
        if not parser.has_option(attr, "seed"):
            setattr(cfg, attr, replace(getattr(cfg, attr), seed=cfg.seed))
    return cfg


def resolved_lines(cfg: RunConfig) -> list[str]:
    """The fully resolved configuration, one 'section.key = value' line each."""
    out = [f"run.seed = {cfg.seed}"]
    for section, spec in _SECTIONS.items():
        if spec is None:
            continue
        attr, _ = spec
        inst = getattr(cfg, attr)
        for f in fields(inst):
            out.append(f"{section}.{f.name} = {getattr(inst, f.name)}")
    return out
