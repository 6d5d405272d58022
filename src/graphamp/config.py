"""Strict JSON experiment configuration.

One declarative file drives a whole run: model selection, iteration
count, seeds, SE sampling budget and output locations.  Parsing is
strict: unknown keys are rejected with their full path so a typo never
silently changes an experiment, and JSON syntax errors surface with
line and column.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from .errors import ConfigError

_TOP_KEYS = {
    "model": dict,
    "T": int,
    "amp_seeds": list,
    "se_samples": int,
    "quadrature": str,
    "observables": list,
    "out": str,
    "master_seed": int,
}
_TOP_REQUIRED = ("model", "T")
OBSERVABLES = ("norm_sq", "mse", "overlap")

# per-kind model keys: name -> (types, required)
_MODEL_KEYS: Dict[str, Dict[str, Tuple[Any, bool]]] = {
    "lasso": {
        "d": (int, True), "aspect": (float, True), "lam": (float, True),
        "noise_sigma": (float, False), "prior_eps": (float, False),
        "prior_var": (float, False), "beta0": (float, False),
    },
    "ridge": {
        "d": (int, True), "aspect": (float, True), "lam": (float, True),
        "noise_sigma": (float, False), "beta0": (float, False),
    },
    "logistic": {
        "d": (int, True), "aspect": (float, True), "lam": (float, True),
        "beta0": (float, False),
    },
    "multilayer": {
        "d0": (int, True), "dims": (list, True), "activations": (list, True),
    },
    "spiked": {
        "N": (int, True), "lam": (float, True), "init_overlap": (float, False),
        "gen_dims": (list, False), "gen_activation": (str, False),
        "denoiser": (str, False), "theta": (float, False),
    },
    "gmm_spatial": {
        "K": (int, True), "d": (int, True), "n_per_cluster": (int, True),
        "lam": (float, False), "mean_scale": (float, False),
        "coupling": (float, False), "beta0": (float, False),
    },
    "committee": {
        "d": (int, True), "n": (int, True), "theta": (float, False),
    },
}
MODEL_KINDS = tuple(_MODEL_KEYS)


@dataclass(frozen=True)
class ExperimentConfig:
    model: Dict[str, Any]
    T: int
    amp_seeds: Tuple[int, ...] = (0,)
    se_samples: int = 2000
    quadrature: str = "gh"
    observables: Tuple[str, ...] = OBSERVABLES
    out: str = "results"
    master_seed: int = 0

    @property
    def kind(self) -> str:
        return self.model["kind"]

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _check_type(value, tp, path):
    # bool is an int subclass in Python; keep the two distinct in configs
    if (tp is float and isinstance(value, (int, float))
            and not isinstance(value, bool)):
        # json reads NaN, Infinity and -Infinity, and ints of any size
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value}")
        return value
    if isinstance(value, tp) and not isinstance(value, bool):
        # every int field feeds float arithmetic (sizes, aspect * d)
        if tp is int and abs(value) > sys.float_info.max:
            raise ConfigError(f"{path}: must be at most {sys.float_info.max:.4g} "
                              f"in magnitude, got a {len(str(abs(value)))}-digit int")
        return value
    raise ConfigError(f"{path}: expected {tp.__name__}, "
                      f"got {type(value).__name__}")


def _validate_model(block: Dict[str, Any]) -> Dict[str, Any]:
    if "kind" not in block:
        raise ConfigError("model.kind: missing required key")
    kind = block["kind"]
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind: unknown model {kind!r}; expected one "
                          f"of {', '.join(MODEL_KINDS)}")
    schema = _MODEL_KEYS[kind]
    out = {"kind": kind}
    for key, value in block.items():
        if key == "kind":
            continue
        if key not in schema:
            raise ConfigError(f"model.{key}: unknown key for model {kind!r}")
        out[key] = _check_type(value, schema[key][0], f"model.{key}")
    for key, (_, required) in schema.items():
        if required and key not in out:
            raise ConfigError(f"model.{key}: missing required key")
    return out


def validate(raw: Dict[str, Any]) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"{key}: unknown key")
    for key in _TOP_REQUIRED:
        if key not in raw:
            raise ConfigError(f"{key}: missing required key")
    checked = {key: _check_type(value, _TOP_KEYS[key], key)
               for key, value in raw.items()}
    checked["model"] = _validate_model(checked["model"])
    for key in ("amp_seeds", "observables"):
        if key in checked:
            checked[key] = tuple(checked[key])
    cfg = ExperimentConfig(**checked)

    if cfg.T < 1:
        raise ConfigError("T: must be >= 1")
    # a repeated seed or observable would count one instance twice; the
    # streams read a seed modulo 2^64, so one outside [0, 2^64) could
    # repeat another under a different value
    for i, s in enumerate(cfg.amp_seeds):
        _check_type(s, int, f"amp_seeds[{i}]")
        if not 0 <= s < 1 << 64:
            raise ConfigError(f"amp_seeds[{i}]: must be in [0, 2^64), got {s}")
        if s in cfg.amp_seeds[:i]:
            raise ConfigError(f"amp_seeds[{i}]: duplicate seed {s}")
    if not cfg.amp_seeds:
        raise ConfigError("amp_seeds: must be non-empty")
    if cfg.quadrature not in ("gh", "mc"):
        raise ConfigError("quadrature: expected 'gh' or 'mc', "
                          f"got {cfg.quadrature!r}")
    for i, name in enumerate(cfg.observables):
        if name not in OBSERVABLES:
            raise ConfigError(f"observables[{i}]: unknown observable {name!r}; "
                              f"expected one of {', '.join(OBSERVABLES)}")
        if name in cfg.observables[:i]:
            raise ConfigError(f"observables[{i}]: duplicate observable {name!r}")
    if cfg.se_samples < 1:
        raise ConfigError("se_samples: must be >= 1")
    for key in ("d", "d0", "N", "n", "K", "n_per_cluster"):
        if key in cfg.model and cfg.model[key] < 1:
            raise ConfigError(f"model.{key}: must be positive")
    return cfg


def loads(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ConfigError(
            f"JSON parse error at line {ex.lineno}, column {ex.colno}: {ex.msg}"
        ) from ex
    except ValueError as ex:  # an int literal longer than int() reads
        raise ConfigError(f"JSON parse error: {ex}") from ex
    return validate(raw)


def load(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ConfigError(f"cannot read config {path}: {ex}") from ex
    return loads(text)
