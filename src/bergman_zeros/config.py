"""Experiment configuration: the registry of experiment kinds and strict YAML validation.

Configs are flat YAML documents with a fixed key set per experiment kind;
unknown keys are rejected with the offending key named (and the line
number when it can be located in the source text).  The key set is read
from the kind's driver in `experiments`: every parameter but `seed` and
`threads` is a key, typed by its annotation through `TYPE_NAMES` and
required exactly when it has no default.  No key or type is written here.
"""

from __future__ import annotations

import inspect
import re
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

# driver annotation (as written, the drivers postpone evaluation) -> config type name
TYPE_NAMES = {
    "Sequence[int]": "int_list", "int": "int", "float": "float", "bool": "bool",
    "Annulus": "annulus", "TestFunction": "testfunction", "Sequence[tuple[int, int, float]]": "curvature",
}

# driver parameters that are run settings, not config keys
RUN_PARAMETERS = ("seed", "threads")


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its driver in `experiments` and the law it probes.

    Its config keys are the driver's parameters but RUN_PARAMETERS, in
    signature order.  Making a Kind reads their types, so an annotation
    missing from TYPE_NAMES fails when this module is imported.
    """

    driver: str
    anchor: str  # one-line statement of the law the kind probes (shown by `list`)

    def __post_init__(self) -> None:
        self.params  # raises on an unmapped annotation

    def _keys(self) -> list[inspect.Parameter]:
        signature = inspect.signature(getattr(experiments, self.driver)).parameters
        return [param for name, param in signature.items() if name not in RUN_PARAMETERS]

    @property
    def params(self) -> dict[str, str]:
        """Key -> int | float | bool | int_list | annulus | testfunction | curvature."""
        keys = self._keys()
        unmapped = [f"{param.name}: {param.annotation}" for param in keys if param.annotation not in TYPE_NAMES]
        if unmapped:
            raise TypeError(f"{self.driver}: no config type for {', '.join(unmapped)}")
        return {param.name: TYPE_NAMES[param.annotation] for param in keys}

    def defaults(self) -> dict[str, Any]:
        """Key -> driver default, REQUIRED for a key the driver has no default for."""
        return {param.name: param.default for param in self._keys()}


TOP_LEVEL_KEYS = {"experiment", "seed", "threads", "out", "params"}

EXPERIMENTS: dict[str, Kind] = {
    "plateau": Kind("plateau_experiment", "kernel plateau: 2 pi B_p/(p-1) -> 1 on fixed annuli"),
    "sup": Kind("sup_experiment", "global sup of B_p grows like (p/2 pi)^(3/2)"),
    "model-kernel": Kind(
        "model_kernel_experiment",
        "model kernel at a curvature zero: B(0,0) > 0, in closed form when radial; even in Z",
    ),
    "equidistribution": Kind(
        "equidistribution_experiment", "zero counts / p converge to the curvature area of the region"
    ),
    "variance": Kind("variance_experiment", "Var[Y(phi)] = zeta(3)/(4 pi^2 p) int |L(phi)|^2 c1 + lower order"),
    "clt": Kind("clt_experiment", "standardized linear statistics are asymptotically normal"),
    "holes": Kind("hole_probability_experiment", "hole probabilities decay like exp(-C p^2)"),
    "deviation": Kind("deviation_experiment", "large-deviation frequencies of zero counts fall in p"),
    "kernel-decay": Kind(
        "kernel_decay_experiment",
        "normalized kernel: Gaussian near-diagonal decay, negligible beyond sqrt(24 log p/p)",
    ),
    "l1log": Kind("l1log_experiment", "L1 norm of log B_p grows at most like log p"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict[str, Any]
    seed: int
    threads: int = 1
    out: str = "results"

    def __post_init__(self) -> None:
        # here, not in load_config, so that a --seed or --threads override (dataclasses.replace) is checked too
        if self.seed < 0:
            raise ConfigError(f"key 'seed': must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"key 'threads': must be >= 1, got {self.threads}")

    def digest_payload(self) -> dict:
        # threads/out are execution details; they must not affect outputs
        return {"experiment": self.kind, "seed": self.seed, "params": _jsonable(self.params)}


def _jsonable(obj):
    if isinstance(obj, (Annulus, TestFunction)):
        return {"a": obj.a, "b": obj.b}
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
        if type_name in ("annulus", "testfunction"):
            if not isinstance(value, dict) or set(value) != {"a", "b"}:
                raise ConfigError(f"key '{name}'{where}: expected mapping with keys a, b")
            a, b = (_coerce(name, "float", value[end], text) for end in ("a", "b"))
            return (Annulus if type_name == "annulus" else TestFunction)(a, b)
        if type_name == "curvature":
            if not isinstance(value, list):
                raise ConfigError(f"key '{name}'{where}: expected list of [i, j, coefficient] triples")
            triples = []
            for item in value:
                if not isinstance(item, (list, tuple)) or len(item) != 3:
                    raise ConfigError(f"key '{name}'{where}: each curvature entry must be [i, j, coefficient]")
                triples.append(tuple(_coerce(name, t, e, text) for t, e in zip(("int", "int", "float"), item)))
            return triples
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{name}'{where}: {exc}") from exc
    raise ConfigError(f"internal: unknown parameter type {type_name}")


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats (1e-1, 2E3, -5e-2), which YAML 1.1 leaves strings.

    Parsed by libyaml where PyYAML is built with it: about a tenth of the pure-Python parser's time.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.load(text, Loader=_Loader)
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
    out = raw.get("out", "results")
    if not isinstance(out, str):
        raise ConfigError("key 'out': expected string")
    entry = EXPERIMENTS[kind]
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("key 'params': expected mapping")
    types = entry.params
    unknown = set(raw_params) - set(types)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown parameter '{key}'{_key_line(text, key)} for experiment '{kind}'")
    params: dict[str, Any] = {}
    for name, default in entry.defaults().items():
        if name in raw_params:
            params[name] = _coerce(name, types[name], raw_params[name], text)
        elif default is REQUIRED:
            raise ConfigError(f"missing required parameter '{name}' for experiment '{kind}'")
        else:
            params[name] = default
    return ExperimentConfig(kind=kind, params=params, seed=seed, threads=threads, out=out)
