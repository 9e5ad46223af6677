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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .comms import ScenarioConfig
from .datasets import PartitionSpec
from .io import atomic_write
from .seeding import derived_seed
from .vae import FILL_POLICIES

_DATASET_KEYS = {
    "synthetic": {"kind", "n_train", "n_test", "classes", "dims", "separation"},
    "idx": {"kind", "train_images", "train_labels", "test_images", "test_labels"},
    "csv": {"kind", "train_path", "test_path", "target_column"},
}

_SCENARIO_KEYS = {"name", "ep_ens_d", "batch_size", "link_rate_bps", "per_message_overhead_s"}

_TOP_KEYS = {
    "dataset", "task", "n_edges", "l_com", "alpha", "delta", "scenario",
    "edge_epoch_range", "edge_lr", "edge_batch_size", "ep_vae", "ep_ens",
    "ens_lr", "fill_policy", "seed", "output_dir",
}


class ConfigError(ValueError):
    pass


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


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
        _check_keys(_object(d, "config"), _TOP_KEYS, "config")
        for key in ("dataset", "task", "n_edges", "alpha", "delta", "seed", "output_dir"):
            if key not in d:
                raise ConfigError(f"missing required config key {key!r}")
        ds = _object(d["dataset"], "dataset")
        kind = ds.get("kind")
        if kind not in _DATASET_KEYS:
            raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}")
        _check_keys(ds, _DATASET_KEYS[kind], f"dataset[{kind}]")
        sc = _object(d.get("scenario", {}), "scenario")
        _check_keys(sc, _SCENARIO_KEYS, "scenario")
        rng_range = d.get("edge_epoch_range", [30, 30])
        return ExperimentConfig(
            dataset=dict(ds),
            task=d["task"],
            n_edges=int(d["n_edges"]),
            l_com=int(d.get("l_com", 64)),
            alpha=float(d["alpha"]),
            delta=float(d["delta"]),
            scenario_name=sc.get("name", "S1"),
            ep_ens_d=sc.get("ep_ens_d"),
            batch_size=int(sc.get("batch_size", 128)),
            link_rate_bps=float(sc.get("link_rate_bps", 450e6)),
            per_message_overhead_s=float(sc.get("per_message_overhead_s", 0.0)),
            edge_epoch_range=tuple(int(v) for v in rng_range),
            edge_lr=float(d.get("edge_lr", 1e-4)),
            edge_batch_size=int(d.get("edge_batch_size", 32)),
            ep_vae=int(d.get("ep_vae", 50)),
            ep_ens=int(d.get("ep_ens", 100)),
            ens_lr=float(d.get("ens_lr", 1e-4)),
            fill_policy=d.get("fill_policy", "vae"),
            seed=int(d["seed"]),
            output_dir=str(d["output_dir"]),
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
