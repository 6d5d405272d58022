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
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .errors import ConfigError

_TOP_KEYS = {
    "model": dict,
    "T": int,
    "amp_seeds": list,
    "se_samples": int,
    "se_chunk": int,
    "quadrature": str,
    "observables": list,
    "out": str,
    "tolerances": dict,
    "master_seed": int,
}
_TOP_REQUIRED = ("model", "T")

_TOL_KEYS = {"rel": float, "z": float, "embed": float, "atol": float}

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
        "planted": (bool, False),
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
    se_chunk: int = 128
    quadrature: str = "gh"
    observables: Tuple[str, ...] = ("norm_sq", "mse", "overlap")
    out: str = "results"
    tolerances: Dict[str, float] = field(default_factory=lambda: {
        "rel": 0.05, "z": 4.0, "embed": 1e-10, "atol": 1e-4})
    master_seed: int = 0

    @property
    def kind(self) -> str:
        return self.model["kind"]

    def canonical_json(self) -> str:
        payload = {
            "model": self.model,
            "T": self.T,
            "amp_seeds": list(self.amp_seeds),
            "se_samples": self.se_samples,
            "se_chunk": self.se_chunk,
            "quadrature": self.quadrature,
            "observables": list(self.observables),
            "out": self.out,
            "tolerances": self.tolerances,
            "master_seed": self.master_seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _type_name(tp) -> str:
    if isinstance(tp, tuple):
        return "/".join(_type_name(t) for t in tp)
    return {type(None): "null"}.get(tp, tp.__name__)


def _check_type(value, tp, path):
    # bool is an int subclass in Python; keep the two distinct in configs
    kinds = tp if isinstance(tp, tuple) else (tp,)
    for k in kinds:
        if k is float:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
        elif k is int:
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        elif k is bool:
            if isinstance(value, bool):
                return value
        elif k is type(None):
            if value is None:
                return value
        elif isinstance(value, k):
            return value
    raise ConfigError(f"{path}: expected {_type_name(tp)}, "
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
    checked: Dict[str, Any] = {}
    for key, value in raw.items():
        checked[key] = _check_type(value, _TOP_KEYS[key], key)

    model = _validate_model(checked["model"])
    T = checked["T"]
    if T < 1:
        raise ConfigError("T: must be >= 1")

    seeds = checked.get("amp_seeds", [0])
    for i, s in enumerate(seeds):
        _check_type(s, int, f"amp_seeds[{i}]")
    if len(seeds) == 0:
        raise ConfigError("amp_seeds: must be non-empty")

    quad = checked.get("quadrature", "gh")
    if quad not in ("gh", "mc"):
        raise ConfigError(f"quadrature: expected 'gh' or 'mc', got {quad!r}")

    obs = checked.get("observables", ["norm_sq", "mse", "overlap"])
    for i, name in enumerate(obs):
        _check_type(name, str, f"observables[{i}]")

    tols = dict(ExperimentConfig.__dataclass_fields__["tolerances"].default_factory())
    for key, value in checked.get("tolerances", {}).items():
        if key not in _TOL_KEYS:
            raise ConfigError(f"tolerances.{key}: unknown key")
        tols[key] = _check_type(value, float, f"tolerances.{key}")

    for name, floor in (("se_samples", 1), ("se_chunk", 1)):
        if checked.get(name, floor) < floor:
            raise ConfigError(f"{name}: must be >= {floor}")

    for key in ("d", "d0", "N", "n", "K", "n_per_cluster"):
        if key in model and model[key] < 1:
            raise ConfigError(f"model.{key}: must be positive")

    return ExperimentConfig(
        model=model,
        T=T,
        amp_seeds=tuple(seeds),
        se_samples=checked.get("se_samples", 2000),
        se_chunk=checked.get("se_chunk", 128),
        quadrature=quad,
        observables=tuple(obs),
        out=checked.get("out", "results"),
        tolerances=tols,
        master_seed=checked.get("master_seed", 0),
    )


def loads(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ConfigError(
            f"JSON parse error at line {ex.lineno}, column {ex.colno}: {ex.msg}"
        ) from ex
    return validate(raw)


def load(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ConfigError(f"cannot read config {path}: {ex}") from ex
    return loads(text)
