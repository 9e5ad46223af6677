"""Versioned artifact files: npz archives with an embedded JSON header.

Every artifact records the format version, its kind, and the hash of the
experiment config that produced it; loading checks all three so a stage can
never silently reuse output from a different configuration.

Every file is written through ``atomic_write`` (JSON through ``write_json``),
so a crash mid-write leaves the previous file (or none), never a truncated one.
"""

from __future__ import annotations

import json
import os
import secrets
import zipfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import nn
from .edge import EdgeArtifact, EdgeModelConfig, build_edge_model
from .vae import Vae

FORMAT_VERSION = 1


class ArtifactError(RuntimeError):
    pass


@contextmanager
def atomic_write(path, mode: str = "w", newline=None):
    """Write a temporary file beside ``path`` and ``os.replace`` it into place
    when the block exits cleanly. If the block raises, the temporary file is
    removed and ``path`` keeps its old content (or stays absent)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, mode.replace("w", "x"), newline=newline)   # "x": never another's file
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc, **fmt) -> None:
    """Write ``doc`` to ``path`` as JSON with sorted keys, through ``atomic_write``;
    ``fmt`` goes to ``json.dump`` (``indent``, ``separators``)."""
    with atomic_write(path) as f:
        json.dump(doc, f, sort_keys=True, **fmt)


def save_artifact(path, kind: str, arrays: dict, meta: dict) -> None:
    header = {"format_version": FORMAT_VERSION, "kind": kind, **meta}
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    payload["__meta__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"),
                                        dtype=np.uint8)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "wb") as f:
        np.savez(f, **payload)


def load_artifact(path, kind: str, config_hash: Optional[str] = None, keys=()):
    """Return (arrays, meta) after validating version, kind, and config hash;
    an ArtifactError names the file and the first of ``keys`` its header lacks."""
    p = Path(path)
    if not p.exists():
        raise ArtifactError(f"missing artifact file: {p}")
    try:
        with np.load(p, allow_pickle=False) as z:
            if "__meta__" not in z:
                raise ArtifactError(f"{p}: not an artifact file (no header)")
            meta = json.loads(bytes(z["__meta__"]).decode("utf-8"))
            arrays = {k: z[k] for k in z.files if k != "__meta__"}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:  # last two: truncated file
        raise ArtifactError(f"{p}: corrupt artifact ({exc})") from exc
    if meta.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(f"{p}: format version {meta.get('format_version')} != {FORMAT_VERSION}")
    if meta.get("kind") != kind:
        raise ArtifactError(f"{p}: artifact kind {meta.get('kind')!r}, expected {kind!r}")
    if config_hash is not None and meta.get("config_hash") != config_hash:
        raise ArtifactError(f"{p}: config hash mismatch (stage artifacts are stale)")
    for key in keys:
        if key not in meta:
            raise ArtifactError(f"{p}: header lacks key {key!r}")
    return arrays, meta


def _set_weights(path, module: nn.Module, arrays: dict) -> None:
    """``module.set_parameters(arrays)``; an ArtifactError names the file and
    the missing array or the shape that does not match."""
    try:
        module.set_parameters(arrays)
    except (KeyError, nn.ShapeMismatchError) as exc:
        raise ArtifactError(f"{path}: {exc.args[0]}") from exc


# ---------------------------------------------------------------------------
# Edge artifacts
# ---------------------------------------------------------------------------

_EDGE_FIELDS = tuple(f.name for f in fields(EdgeModelConfig))


def save_edge_artifact(path, artifact: EdgeArtifact, config_hash: str, edge_index: int) -> None:
    """The header holds every ``EdgeModelConfig`` field under its own name."""
    cfg = artifact.config
    meta = {
        "config_hash": config_hash,
        "edge_index": edge_index,
        **{name: getattr(cfg, name) for name in _EDGE_FIELDS},
        "specs": [s.to_dict() for s in cfg.specs],
        "input_shape": list(cfg.input_shape),
        "f_e": cfg.f_e,
        "loss_trace": [float(v) for v in artifact.loss_trace],
        "epochs_run": artifact.epochs_run,
        "n_train": artifact.n_train,
        "train_accuracy": artifact.train_accuracy,
        "param_count": artifact.param_count(),
    }
    save_artifact(path, "edge", artifact.model.get_parameters(), meta)


def load_edge_artifact(path, config_hash: Optional[str] = None) -> EdgeArtifact:
    arrays, meta = load_artifact(path, "edge", config_hash,
                                 (*_EDGE_FIELDS, "loss_trace", "epochs_run", "n_train"))
    try:
        cfg = EdgeModelConfig(**{name: meta[name] for name in _EDGE_FIELDS} | {
            "specs": tuple(nn.LayerSpec.from_dict(d) for d in meta["specs"]),
            "input_shape": tuple(meta["input_shape"])})
    except ValueError as exc:           # the message starts with the header key
        raise ArtifactError(f"{path}: header {exc}") from exc
    model = build_edge_model(cfg)
    _set_weights(path, model, arrays)
    return EdgeArtifact(config=cfg, model=model, loss_trace=meta["loss_trace"],
                        epochs_run=meta["epochs_run"], n_train=meta["n_train"],
                        train_accuracy=meta.get("train_accuracy"))


# ---------------------------------------------------------------------------
# VAE artifacts
# ---------------------------------------------------------------------------

def save_vae_artifact(path, vae: Vae, config_hash: str, edge_index: int,
                      loss_trace=None) -> None:
    """Save a stack of one VAE: its arrays without the member axis."""
    meta = {
        "config_hash": config_hash,
        "edge_index": edge_index,
        "feature_width": vae.feature_width,
        "latent_dim": vae.latent_dim,
        "hidden": vae.hidden,
        "seed": vae.seed[0],
        "steps_run": int(vae.steps_run[0]),
        "loss_trace": [float(v) for v in (loss_trace or [])],
        "param_count": vae.param_count(),
    }
    save_artifact(path, "vae", {k: p[0] for k, p in vae.get_parameters().items()}, meta)


def load_vae_artifact(path, config_hash: Optional[str] = None) -> Vae:
    keys = ("feature_width", "latent_dim", "hidden", "seed", "steps_run")
    arrays, meta = load_artifact(path, "vae", config_hash, keys)
    for key in keys:
        if type(meta[key]) is not int:
            raise ArtifactError(f"{path}: header {key} must be an integer, got {meta[key]!r}")
    vae = Vae(feature_width=meta["feature_width"], latent_dim=meta["latent_dim"],
              hidden=meta["hidden"], seed=meta["seed"])
    _set_weights(path, vae, {k: a[None] for k, a in arrays.items()})
    vae.steps_run[0] = meta["steps_run"]
    return vae


# ---------------------------------------------------------------------------
# Ensemble artifacts
# ---------------------------------------------------------------------------

def save_ensemble_artifact(path, model: nn.Model, config_hash: str, meta_extra: dict) -> None:
    meta = {
        "config_hash": config_hash,
        "specs": [s.to_dict() for s in model.specs],
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "param_count": model.param_count(),
        **meta_extra,
    }
    save_artifact(path, "ensemble", model.get_parameters(), meta)


def load_ensemble_artifact(path, config_hash: Optional[str] = None):
    arrays, meta = load_artifact(path, "ensemble", config_hash, ("specs", "input_shape", "seed"))
    specs = tuple(nn.LayerSpec.from_dict(d) for d in meta["specs"])
    model = nn.Model(specs, tuple(meta["input_shape"]), seed=meta["seed"])
    _set_weights(path, model, arrays)
    return model, meta
