"""Experiment configuration: the registry of experiment kinds and strict YAML validation.

Configs are flat YAML documents with a fixed key set per experiment kind;
unknown keys are rejected with the offending key named (and the line
number when it can be located in the source text).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from . import experiments
from .disc import Annulus
from .statistics import TestFunction


class ConfigError(ValueError):
    """Configuration file violates the schema."""


# default of a driver parameter that has none: the config key is required
REQUIRED = inspect.Parameter.empty


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its driver in `experiments`, its law, its config keys.

    Each config key is a parameter of the driver with the same name; the
    driver's signature says which keys are required and gives the default
    of the others.
    """

    driver: str
    anchor: str  # one-line statement of the law the kind probes (shown by `list`)
    params: dict[str, str]  # key -> int | float | bool | int_list | annulus | testfunction | curvature

    def defaults(self) -> dict[str, Any]:
        """Key -> driver default, REQUIRED for a key the driver has no default for."""
        signature = inspect.signature(getattr(experiments, self.driver)).parameters
        return {name: signature[name].default for name in self.params}


TOP_LEVEL_KEYS = {"experiment", "seed", "threads", "out", "params"}

EXPERIMENTS: dict[str, Kind] = {
    "plateau": Kind(
        "plateau_experiment",
        "kernel plateau: 2 pi B_p/(p-1) -> 1 on fixed annuli",
        {"p": "int_list", "r_min": "float", "r_max": "float", "n_grid": "int", "tolerance": "float"},
    ),
    "sup": Kind(
        "sup_experiment",
        "global sup of B_p grows like (p/2 pi)^(3/2)",
        {"p": "int_list", "tolerance": "float"},
    ),
    "model-kernel": Kind(
        "model_kernel_experiment",
        "model kernel at a curvature zero: B(0,0) > 0, = c/2 pi when constant; even in Z",
        {
            "rho_prime": "int", "curvature": "curvature", "max_deg": "int",
            "parity_step": "float", "parity_tolerance": "float",
        },
    ),
    "equidistribution": Kind(
        "equidistribution_experiment",
        "zero counts / p converge to the curvature area of the region",
        {"p": "int_list", "annulus": "annulus", "samples": "int", "paired_seeds": "bool", "slack": "float"},
    ),
    "variance": Kind(
        "variance_experiment",
        "Var[Y(phi)] = zeta(3)/(4 pi^2 p) int |L(phi)|^2 c1 + lower order",
        {"p": "int_list", "testfunction": "testfunction", "samples": "int", "rel_tolerance": "float"},
    ),
    "clt": Kind(
        "clt_experiment",
        "standardized linear statistics are asymptotically normal",
        {"p": "int_list", "testfunction": "testfunction", "samples": "int", "ks_level": "float"},
    ),
    "holes": Kind(
        "hole_probability_experiment",
        "hole probabilities decay like exp(-C p^2)",
        {"p": "int_list", "annulus": "annulus", "samples": "int"},
    ),
    "deviation": Kind(
        "deviation_experiment",
        "large-deviation frequencies for counts and log-sup decay in p",
        {"p": "int_list", "annulus": "annulus", "delta": "float", "samples": "int"},
    ),
    "kernel-decay": Kind(
        "kernel_decay_experiment",
        "normalized kernel: Gaussian near-diagonal decay, negligible beyond sqrt(12k log p/p)",
        {"p": "int", "annulus": "annulus", "n_pairs": "int", "k": "int", "far_tolerance": "float"},
    ),
    "l1log": Kind(
        "l1log_experiment",
        "L1 norm of log B_p grows at most like log p",
        {"p": "int_list", "annulus": "annulus"},
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict[str, Any]
    seed: int
    threads: int = 1
    out: str = "results"

    def digest_payload(self) -> dict:
        # threads/out are execution details; they must not affect outputs
        return {"experiment": self.kind, "seed": self.seed, "params": _jsonable(self.params)}


def _jsonable(obj):
    if isinstance(obj, Annulus):
        return {"a": obj.a, "b": obj.b}
    if isinstance(obj, TestFunction):
        return {"a": obj.a, "b": obj.b, "amplitude": obj.amplitude}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _key_line(text: str, key: str) -> str:
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        if stripped.strip().startswith(f"{key}:"):
            return f" (line {i})"
    return ""


def _coerce(name: str, type_name: str, value: Any, text: str) -> Any:
    where = _key_line(text, name)
    try:
        if type_name == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"key '{name}'{where}: expected integer, got {value!r}")
            return int(value)
        if type_name == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"key '{name}'{where}: expected number, got {value!r}")
            return float(value)
        if type_name == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"key '{name}'{where}: expected boolean, got {value!r}")
            return value
        if type_name == "int_list":
            if isinstance(value, int) and not isinstance(value, bool):
                return [value]
            if isinstance(value, list) and value and all(isinstance(v, int) and not isinstance(v, bool) for v in value):
                # checks that compare neighbouring p, and the per-p results, need distinct ascending p
                if any(lo >= hi for lo, hi in zip(value, value[1:])):
                    raise ConfigError(f"key '{name}'{where}: values must be strictly ascending, got {value!r}")
                return list(value)
            raise ConfigError(f"key '{name}'{where}: expected integer or list of integers, got {value!r}")
        if type_name == "annulus":
            if not isinstance(value, dict) or set(value) != {"a", "b"}:
                raise ConfigError(f"key '{name}'{where}: expected mapping with keys a, b")
            return Annulus(float(value["a"]), float(value["b"]))
        if type_name == "testfunction":
            if not isinstance(value, dict) or not {"a", "b"} <= set(value) or set(value) - {"a", "b", "amplitude"}:
                raise ConfigError(f"key '{name}'{where}: expected mapping with keys a, b[, amplitude]")
            return TestFunction(float(value["a"]), float(value["b"]), float(value.get("amplitude", 1.0)))
        if type_name == "curvature":
            if not isinstance(value, list):
                raise ConfigError(f"key '{name}'{where}: expected list of [i, j, coefficient] triples")
            triples = []
            for item in value:
                if not isinstance(item, (list, tuple)) or len(item) != 3:
                    raise ConfigError(f"key '{name}'{where}: each curvature entry must be [i, j, coefficient]")
                triples.append((int(item[0]), int(item[1]), float(item[2])))
            return triples
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{name}'{where}: {exc}") from exc
    raise ConfigError(f"internal: unknown parameter type {type_name}")


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")
    unknown = set(raw) - TOP_LEVEL_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown top-level key '{key}'{_key_line(text, key)}")
    kind = raw.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"key 'experiment'{_key_line(text, 'experiment')}: must be one of {', '.join(sorted(EXPERIMENTS))}"
        )
    if "seed" not in raw:
        raise ConfigError("missing required key 'seed'")
    seed = _coerce("seed", "int", raw["seed"], text)
    threads = _coerce("threads", "int", raw.get("threads", 1), text)
    if threads < 1:
        raise ConfigError("key 'threads': must be >= 1")
    out = raw.get("out", "results")
    if not isinstance(out, str):
        raise ConfigError("key 'out': expected string")
    entry = EXPERIMENTS[kind]
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("key 'params': expected mapping")
    unknown = set(raw_params) - set(entry.params)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown parameter '{key}'{_key_line(text, key)} for experiment '{kind}'")
    params: dict[str, Any] = {}
    for name, default in entry.defaults().items():
        if name in raw_params:
            params[name] = _coerce(name, entry.params[name], raw_params[name], text)
        elif default is REQUIRED:
            raise ConfigError(f"missing required parameter '{name}' for experiment '{kind}'")
        else:
            params[name] = default
    return ExperimentConfig(kind=kind, params=params, seed=seed, threads=threads, out=out)
