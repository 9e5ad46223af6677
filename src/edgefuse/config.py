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
from dataclasses import dataclass, field, fields
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


def _int_pair(value) -> tuple:
    return tuple(int(v) for v in value)


# value kind, which also converts a checked value -> (its name in errors, its check)
_KINDS = {int: ("an integer", is_integer),
          float: ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
          str: ("a string", lambda v: isinstance(v, str)),
          dict: ("a JSON object", lambda v: isinstance(v, dict)),
          _int_pair: ("a list of two integers", lambda v: isinstance(v, (list, tuple))
                      and len(v) == 2 and all(is_integer(x) for x in v))}
_REQUIRED = object()


def _checked(d: dict, key: str, kind, where: str = "", default=_REQUIRED):
    """``d[key]`` (``default`` if absent) as ``kind``, a key of ``_KINDS``.
    A ConfigError names the key if it is missing or holds another kind; a
    bool is no number, an integer may be written as an integral float, and
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


def _doc(path: str, kind, default=_REQUIRED):
    """A field read from document key ``path`` (``scenario.name``: ``name`` in
    the ``scenario`` object; ``obj`` is "" at the top) as ``kind``, ``default``
    if absent."""
    obj, _, key = path.rpartition(".")
    return field(metadata={"obj": obj, "key": key, "kind": kind, "default": default})


@dataclass
class ExperimentConfig:
    dataset: dict = _doc("dataset", dict)
    task: str = _doc("task", str)
    n_edges: int = _doc("n_edges", int)
    l_com: int = _doc("l_com", int, 64)
    alpha: float = _doc("alpha", float)
    delta: float = _doc("delta", float)
    scenario_name: str = _doc("scenario.name", str, "S1")
    ep_ens_d: Optional[int] = _doc("scenario.ep_ens_d", int, None)
    batch_size: int = _doc("scenario.batch_size", int, 128)
    link_rate_bps: float = _doc("scenario.link_rate_bps", float, 450e6)
    per_message_overhead_s: float = _doc("scenario.per_message_overhead_s", float, 0.0)
    edge_epoch_range: tuple = _doc("edge_epoch_range", _int_pair, (30, 30))
    edge_lr: float = _doc("edge_lr", float, 1e-4)
    edge_batch_size: int = _doc("edge_batch_size", int, 32)
    ep_vae: int = _doc("ep_vae", int, 50)
    ep_ens: int = _doc("ep_ens", int, 100)
    ens_lr: float = _doc("ens_lr", float, 1e-4)
    fill_policy: str = _doc("fill_policy", str, "vae")
    seed: int = _doc("seed", int)
    output_dir: str = _doc("output_dir", str)

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
        doc = {"scenario": {}}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (dict, tuple)):      # a copy of the dataset; a pair as a list
                value = dict(value) if isinstance(value, dict) else list(value)
            obj = f.metadata["obj"]
            (doc[obj] if obj else doc)[f.metadata["key"]] = value
        return doc

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        meta = {f.name: f.metadata for f in fields(ExperimentConfig)}
        _check_keys(d, {m["obj"] or m["key"] for m in meta.values()}, "config")
        docs = {"": d, "scenario": _checked(d, "scenario", dict, default={})}
        _check_keys(docs["scenario"], {m["key"] for m in meta.values() if m["obj"]}, "scenario")
        values = {name: _checked(docs[m["obj"]], m["key"], m["kind"], m["obj"] and m["obj"] + ".",
                                 m["default"]) for name, m in meta.items()}
        ds = values["dataset"]
        kind = ds.get("kind")
        if kind not in _DATASET_KEYS:
            raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}")
        _check_keys(ds, set(_DATASET_KEYS[kind]) | {"kind"}, f"dataset[{kind}]")
        for key, value_kind in _DATASET_KEYS[kind].items():   # stored as written: same hash
            if key in ds or key != "separation":
                _checked(ds, key, value_kind, "dataset.")
        return ExperimentConfig(**values)

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
