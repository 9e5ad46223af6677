"""Experiment configuration: JSON with explicit keys, strict validation, and
a canonical hash used to tie pipeline stages together.

Unknown keys are errors (typo safety); every module-level invariant is
checked at parse time. Defaults follow the reference experiment constants:
64-wide embeddings, 30 edge epochs, 50 VAE epochs, 100 ensemble epochs,
batch 128, 450 Mbps link.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .comms import ScenarioConfig
from .datasets import PartitionSpec
from .io import atomic_write
from .seeding import derived_seed
from .vae import FILL_POLICIES

# dataset key -> the kind of its value; every key but ``separation`` is required
_DATASET_KEYS = {
    "synthetic": {"n_train": int, "n_test": int, "classes": int, "dims": int,
                  "separation": float},
    "idx": {"train_images": str, "train_labels": str, "test_images": str, "test_labels": str},
    "csv": {"train_path": str, "test_path": str, "target_column": str},
}

_SCENARIO_KEYS = {"name", "ep_ens_d", "batch_size", "link_rate_bps", "per_message_overhead_s"}

_TOP_KEYS = {
    "dataset", "task", "n_edges", "l_com", "alpha", "delta", "scenario",
    "edge_epoch_range", "edge_lr", "edge_batch_size", "ep_vae", "ep_ens",
    "ens_lr", "fill_policy", "seed", "output_dir",
}


class ConfigError(ValueError):
    pass


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def is_integer(value) -> bool:
    """True for an integer or a float with an integral value (2.0); False for
    a bool, a string, None and anything else."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or float(value).is_integer()))


# value kind -> (its name in errors, its check)
_KINDS = {int: ("an integer", is_integer),
          float: ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
          str: ("a string", lambda v: isinstance(v, str)),
          dict: ("a JSON object", lambda v: isinstance(v, dict))}
_REQUIRED = object()


def _checked(d: dict, key: str, kind, where: str = "", default=_REQUIRED):
    """``d[key]`` (``default`` if absent) as ``kind``: int, float, str or
    dict. A ConfigError names the key if it is missing or holds another kind;
    a bool is no number, an integer may be written as an integral float, and
    only a key whose default is None may hold null."""
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {where + key!r}")
        return default
    value = d[key]
    what, ok = _KINDS[kind]
    if not (ok(value) or value is None and default is None):
        raise ConfigError(f"{where + key} must be {what}, got {value!r}")
    return None if value is None else kind(value)


@dataclass
class ExperimentConfig:
    dataset: dict
    task: str
    n_edges: int
    alpha: float
    delta: float
    seed: int
    output_dir: str
    l_com: int = 64
    scenario_name: str = "S1"
    ep_ens_d: Optional[int] = None
    batch_size: int = 128
    link_rate_bps: float = 450e6
    per_message_overhead_s: float = 0.0
    edge_epoch_range: tuple = (30, 30)
    edge_lr: float = 1e-4
    edge_batch_size: int = 32
    ep_vae: int = 50
    ep_ens: int = 100
    ens_lr: float = 1e-4
    fill_policy: str = "vae"

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.fill_policy not in FILL_POLICIES:
            raise ConfigError(f"fill_policy must be one of {FILL_POLICIES}")
        if self.l_com < 1 or self.n_edges < 1:
            raise ConfigError("l_com and n_edges must be >= 1")
        lo, hi = self.edge_epoch_range
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad edge_epoch_range {self.edge_epoch_range}")
        # reuse the validating constructors
        self.partition_spec()
        self.scenario_config()

    # -- derived views --------------------------------------------------------

    def partition_spec(self) -> PartitionSpec:
        return PartitionSpec(alpha=self.alpha, delta=self.delta,
                             n_edges=self.n_edges, seed=derived_seed(self.seed, "partition"))

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(scenario=self.scenario_name, ep_ens=self.ep_ens,
                              ep_ens_d=self.ep_ens if self.scenario_name == "S3" else self.ep_ens_d,
                              batch_size=self.batch_size, link_rate_bps=self.link_rate_bps,
                              per_message_overhead_s=self.per_message_overhead_s)

    def edge_seed(self, i: int) -> int:
        return derived_seed(self.seed, "edge", i)

    def vae_seed(self, i: int) -> int:
        return derived_seed(self.seed, "vae", i)

    # -- (de)serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dataset": dict(self.dataset),
            "task": self.task,
            "n_edges": self.n_edges,
            "l_com": self.l_com,
            "alpha": self.alpha,
            "delta": self.delta,
            "scenario": {
                "name": self.scenario_name,
                "ep_ens_d": self.ep_ens_d,
                "batch_size": self.batch_size,
                "link_rate_bps": self.link_rate_bps,
                "per_message_overhead_s": self.per_message_overhead_s,
            },
            "edge_epoch_range": list(self.edge_epoch_range),
            "edge_lr": self.edge_lr,
            "edge_batch_size": self.edge_batch_size,
            "ep_vae": self.ep_vae,
            "ep_ens": self.ep_ens,
            "ens_lr": self.ens_lr,
            "fill_policy": self.fill_policy,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        _check_keys(d, _TOP_KEYS, "config")
        ds = _checked(d, "dataset", dict)
        kind = ds.get("kind")
        if kind not in _DATASET_KEYS:
            raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}")
        _check_keys(ds, set(_DATASET_KEYS[kind]) | {"kind"}, f"dataset[{kind}]")
        for key, value_kind in _DATASET_KEYS[kind].items():   # stored as written: same hash
            if key in ds or key != "separation":
                _checked(ds, key, value_kind, "dataset.")
        sc = _checked(d, "scenario", dict, default={})
        _check_keys(sc, _SCENARIO_KEYS, "scenario")
        rng_range = d.get("edge_epoch_range", [30, 30])
        if not (isinstance(rng_range, (list, tuple)) and len(rng_range) == 2
                and all(is_integer(v) for v in rng_range)):
            raise ConfigError(f"edge_epoch_range must be a list of two integers, got {rng_range!r}")
        return ExperimentConfig(
            dataset=ds,
            task=_checked(d, "task", str),
            n_edges=_checked(d, "n_edges", int),
            l_com=_checked(d, "l_com", int, default=64),
            alpha=_checked(d, "alpha", float),
            delta=_checked(d, "delta", float),
            scenario_name=_checked(sc, "name", str, "scenario.", "S1"),
            ep_ens_d=_checked(sc, "ep_ens_d", int, "scenario.", None),
            batch_size=_checked(sc, "batch_size", int, "scenario.", 128),
            link_rate_bps=_checked(sc, "link_rate_bps", float, "scenario.", 450e6),
            per_message_overhead_s=_checked(sc, "per_message_overhead_s", float, "scenario.", 0.0),
            edge_epoch_range=tuple(int(v) for v in rng_range),
            edge_lr=_checked(d, "edge_lr", float, default=1e-4),
            edge_batch_size=_checked(d, "edge_batch_size", int, default=32),
            ep_vae=_checked(d, "ep_vae", int, default=50),
            ep_ens=_checked(d, "ep_ens", int, default=100),
            ens_lr=_checked(d, "ens_lr", float, default=1e-4),
            fill_policy=_checked(d, "fill_policy", str, default="vae"),
            seed=_checked(d, "seed", int),
            output_dir=_checked(d, "output_dir", str),
        )

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_json(path))

    def canonical_json(self) -> str:
        d = self.to_dict()
        d.pop("output_dir")        # relocating a run must not invalidate its artifacts
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")


def read_json(path):
    """The JSON document in ``path``; a ConfigError names the path if the
    file cannot be read or parsed."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
