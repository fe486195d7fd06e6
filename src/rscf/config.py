"""Experiment configuration: flat key=value files plus overrides.

The file format is one ``key = value`` pair per line with ``#`` comments.
Unknown keys are rejected with the full list of valid ones.  Defaults
reproduce the reference scenario: 8 APs, 4 users, estimate-error variance
0.025, a 0.05 power grid and 100 x 100 trials.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple


class ConfigError(ValueError):
    """Malformed key, value or configuration state."""


class SchemeSpec(NamedTuple):
    """One transmission scheme, as :data:`SCHEMES` defines it.

    ``rs`` toggles rate splitting (common streams plus the fraction
    search), ``bs`` the co-located-antenna baseline geometry.
    ``construction`` is the private precoder's key in
    ``precoding.CONSTRUCTIONS``; ``dense`` applies it to the unmasked
    channel as one cluster instead of the clustered (masked) one.
    """

    label: str
    rs: bool
    bs: bool
    dense: bool
    construction: str


def _scheme(rs: bool, bs: bool, kind: str, suffix: str = "") -> SchemeSpec:
    label = ("RS-" if rs else "") + ("BS-" if bs else "CF-") + kind + suffix
    construction = f"RU-{kind}-RD" if suffix == "-RD" else f"{kind}-SP"
    return SchemeSpec(label, rs, bs, not suffix, construction)


# The one table of scheme labels, [RS-]{BS|CF}-{MF|ZF|MMSE}[-SP|-RD]: BS places all
# antennas at the area centre, CF distributes them; -SP masks the channel to the cluster
# support, -RD also inverts per cluster (not for MF); RS- adds one common stream per cluster.
SCHEMES: dict[str, SchemeSpec] = {
    spec.label: spec for kind in ("MF", "ZF", "MMSE") for spec in (
        _scheme(False, True, kind), _scheme(True, True, kind), _scheme(False, False, kind),
        _scheme(False, False, kind, "-SP"), _scheme(True, False, kind, "-SP"),
        *(() if kind == "MF" else
          (_scheme(False, False, kind, "-RD"), _scheme(True, False, kind, "-RD"))))}


def parse_scheme(label: str) -> SchemeSpec:
    if label not in SCHEMES:
        raise ConfigError(f"unknown scheme {label!r}; valid schemes: {', '.join(SCHEMES)}")
    return SCHEMES[label]


DEFAULT_SCHEMES = (
    "BS-MF", "RS-BS-MF", "CF-MF", "CF-MF-SP", "RS-CF-MF-SP",
    "CF-ZF", "RS-CF-ZF-SP", "RS-CF-ZF-RD",
    "CF-MMSE", "RS-CF-MMSE-SP", "RS-CF-MMSE-RD",
)


@dataclass(frozen=True)
class ExperimentConfig:
    m: int = 8
    k: int = 4
    area_side_m: float = 1000.0
    d0_m: float = 10.0
    d1_m: float = 50.0
    shadow_sigma_db: float = 8.0
    sigma_e2: float = 0.025
    seed: int = 1
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_realizations: int = 100
    n_err: int = 100
    selection: str = "topn"        # "threshold" | "topn"
    n_s: int = 0                   # AP count per user for "topn"; 0 keeps all M
    cluster_mode: str = "fixed"    # "auto" (shared-AP rule) | "fixed"
    n_a: int = 0                   # 0 derives the threshold from selection density
    n_c: int = 2                   # cluster count for "fixed"
    power_grid_step: float = 0.05
    power_mode: str = "equal_split"
    freeze_geometry: bool = False
    workers: int = 1


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [p for p in text.replace(",", " ").split() if p]
    return tuple(float(p) for p in items)


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(items)


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[str, ...]": _parse_str_list, "tuple[float, ...]": _parse_float_list}
_KEY_NAMES = {"m": "M", "k": "K"}  # keys that differ from their field

# file/CLI key -> (dataclass attribute, parser), one per ExperimentConfig field
KEY_SPECS: dict[str, tuple[str, object]] = {
    _KEY_NAMES.get(f.name, f.name): (f.name, _PARSERS[f.type]) for f in fields(ExperimentConfig)}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in KEY_SPECS.items()}


def apply_pair(config: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    if key not in KEY_SPECS:
        raise ConfigError(
            f"unknown config key {key!r}; valid keys: {', '.join(sorted(KEY_SPECS))}")
    attr, parser = KEY_SPECS[key]
    try:
        parsed = parser(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return replace(config, **{attr: parsed})


def load_file(path: str | Path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    config = base or ExperimentConfig()
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first key
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config = apply_pair(config, key, value)
    return config


def resolve(config_path: str | Path | None = None, overrides: list[str] | None = None,
            seed: int | None = None, workers: int | None = None) -> ExperimentConfig:
    """File (optional), key=value overrides, then ``seed`` and ``workers`` when given:
    highest precedence last, validated once."""
    config = ExperimentConfig()
    if config_path is not None:
        config = load_file(config_path, config)
    for pair in overrides or []:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        config = apply_pair(config, key, value)
    if seed is not None:
        config = replace(config, seed=seed)
    if workers is not None:
        config = replace(config, workers=workers)
    validate(config)
    return config


def validate(config: ExperimentConfig) -> None:
    if config.k < 1 or config.m <= config.k:
        raise ConfigError(f"need M > K >= 1, got M={config.m}, K={config.k}")
    # the conditions the channel model raises on, caught before a run starts
    if not config.area_side_m > 0:
        raise ConfigError(f"area_side_m must be positive, got {config.area_side_m}")
    for key in ("seed", "shadow_sigma_db", "n_a"):  # n_a = 0 derives the threshold
        value = getattr(config, KEY_SPECS[key][0])
        if not value >= 0:
            raise ConfigError(f"{key} must be non-negative, got {value}")
    # a NaN or infinite value passes some range checks and fails mid-run
    for f in fields(config):
        value = getattr(config, f.name)
        items = {"float": (value,), "tuple[float, ...]": value}.get(f.type, ())
        if not all(math.isfinite(v) for v in items):
            raise ConfigError(f"{_ATTR_TO_KEY[f.name]} must be finite, got {value}")
    if not 0 < config.d0_m < config.d1_m:
        raise ConfigError(f"need 0 < d0_m < d1_m, got d0_m={config.d0_m}, d1_m={config.d1_m}")
    if not 0.0 <= config.sigma_e2 < 1.0:
        raise ConfigError(f"sigma_e2 must lie in [0, 1), got {config.sigma_e2}")
    if not config.snr_grid_db:
        raise ConfigError("snr_grid_db must not be empty")
    # a repeated label or SNR point would pool two copies' rows into one record
    for key, values in (("schemes", config.schemes), ("snr_grid_db", config.snr_grid_db)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{key} must not repeat an entry, got {list(values)}")
    if config.n_realizations < 1 or config.n_err < 1:
        raise ConfigError("n_realizations and n_err must be at least 1")
    if config.selection not in ("threshold", "topn"):
        raise ConfigError(f"selection must be 'threshold' or 'topn', got {config.selection!r}")
    if config.selection == "topn" and not 0 <= config.n_s <= config.m:
        raise ConfigError(f"n_s must lie in [0, M] (0 keeps all APs), got {config.n_s}")
    if config.cluster_mode not in ("auto", "fixed"):
        raise ConfigError(f"cluster_mode must be 'auto' or 'fixed', got {config.cluster_mode!r}")
    if config.cluster_mode == "fixed" and not 1 <= config.n_c <= config.k:
        raise ConfigError(f"n_c must lie in [1, K], got {config.n_c}")
    if not 0.0 < config.power_grid_step <= 1.0:
        raise ConfigError(f"power_grid_step must lie in (0, 1], got {config.power_grid_step}")
    if config.power_mode not in ("equal_split", "per_cluster_exhaustive"):
        raise ConfigError(f"unknown power_mode {config.power_mode!r}")
    # under cluster_mode=auto the search falls back to equal_split beyond two clusters
    if (config.power_mode == "per_cluster_exhaustive" and config.cluster_mode == "fixed"
            and config.n_c > 2):
        raise ConfigError("power_mode=per_cluster_exhaustive scans at most 2 clusters, "
                          f"got cluster_mode=fixed with n_c={config.n_c}")
    if config.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {config.workers}")
    if config.workers > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"workers={config.workers} forks realization workers, "
                          "and this platform has no os.fork; use workers=1")
    if not config.schemes:
        raise ConfigError("schemes must not be empty")
    for label in config.schemes:
        parse_scheme(label)


def render(config: ExperimentConfig) -> str:
    """Round-trippable key=value dump of the fully resolved configuration."""
    lines = []
    for f in fields(config):
        key = _ATTR_TO_KEY[f.name]
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
