from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from edgefuse import cli, comms, io, nn
from edgefuse.config import ExperimentConfig
from edgefuse.datasets import make_synthetic_classification
from edgefuse.edge import random_edge_config, train_edge
from edgefuse.ensemble import EnsembleConfig, make_ensemble_model
from edgefuse.vae import train_vae


def _same_weights(a: nn.Module, b: nn.Module) -> None:
    assert a.flat.dtype == b.flat.dtype
    assert np.array_equal(a.flat, b.flat)
    for (i, n, p), (j, m, q) in zip(a.parameters(), b.parameters()):
        assert (i, n) == (j, m) and np.array_equal(p, q)


def test_edge_artifact_round_trip(tmp_path):
    data = make_synthetic_classification(120, 3, 5, seed=1, center_seed=1)
    cfg = random_edge_config("classification", (5,), seed=4, n_classes=3, epoch_range=(2, 2))
    art = train_edge(cfg, data, np.arange(0, 120, 2))
    io.save_edge_artifact(tmp_path / "edge.npz", art, "hash-a", 3)
    back = io.load_edge_artifact(tmp_path / "edge.npz", "hash-a")
    _same_weights(art.model, back.model)
    assert back.config == art.config
    assert back.tap_index == art.tap_index
    assert back.loss_trace == art.loss_trace
    assert (back.epochs_run, back.n_train, back.train_accuracy) == (
        art.epochs_run, art.n_train, art.train_accuracy)
    assert np.array_equal(back.model.forward(data.inputs[:7]), art.model.forward(data.inputs[:7]))


def test_vae_artifact_round_trip(tmp_path):
    emb = np.random.default_rng(2).random((40, 16), dtype=np.float32)
    vae, trace = train_vae(emb, 2, seed=5, batch_size=16)
    io.save_vae_artifact(tmp_path / "vae.npz", vae, "hash-b", 1, loss_trace=trace)
    back = io.load_vae_artifact(tmp_path / "vae.npz", "hash-b")
    _same_weights(vae, back)
    assert (back.feature_width, back.latent_dim, back.hidden, back.seed) == (
        vae.feature_width, vae.latent_dim, vae.hidden, vae.seed)
    assert np.array_equal(back.steps_run, vae.steps_run)
    z = np.random.default_rng(3).standard_normal((1, 5, vae.latent_dim))
    assert np.array_equal(back.decode(z), vae.decode(z))


def test_ensemble_artifact_round_trip(tmp_path):
    model = make_ensemble_model(EnsembleConfig(n_edges=4, feature_width=8, task="classification",
                                               n_outputs=3, seed=6))
    model.set_parameters({k: p + 0.25 for k, p in model.get_parameters().items()})
    io.save_ensemble_artifact(tmp_path / "ens.npz", model, "hash-c", {"scenario": "S3"})
    back, meta = io.load_ensemble_artifact(tmp_path / "ens.npz", "hash-c")
    _same_weights(model, back)
    assert back.specs == model.specs and back.input_shape == model.input_shape
    assert meta["scenario"] == "S3" and meta["param_count"] == model.param_count()


@pytest.fixture
def vae_file(tmp_path):
    path = tmp_path / "vae.npz"
    io.save_artifact(path, "vae", {"w": np.arange(600.0)}, {"config_hash": "h"})
    return path


def test_wrong_kind_rejected(vae_file):
    with pytest.raises(io.ArtifactError, match="kind 'vae', expected 'edge'"):
        io.load_artifact(vae_file, "edge")


def test_wrong_config_hash_rejected(vae_file):
    io.load_artifact(vae_file, "vae", "h")
    with pytest.raises(io.ArtifactError, match="config hash mismatch"):
        io.load_artifact(vae_file, "vae", "other")


def test_wrong_format_version_rejected(tmp_path):
    path = tmp_path / "old.npz"
    io.save_artifact(path, "vae", {}, {"format_version": io.FORMAT_VERSION + 1})
    with pytest.raises(io.ArtifactError, match="format version"):
        io.load_artifact(path, "vae")


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, w=np.zeros(3))
    with pytest.raises(io.ArtifactError, match="no header"):
        io.load_artifact(path, "vae")


@pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.99])
def test_truncated_file_rejected(vae_file, keep):
    data = vae_file.read_bytes()
    vae_file.write_bytes(data[:int(len(data) * keep)])
    with pytest.raises(io.ArtifactError, match="corrupt artifact"):
        io.load_artifact(vae_file, "vae")


# ---------------------------------------------------------------------------
# atomic writes: a failure mid-write keeps the old file and leaves no temp file
# ---------------------------------------------------------------------------

def _fail_midway(path):
    with io.atomic_write(path) as f:
        f.write('{"partial": ')
        raise RuntimeError("interrupted")


# to_summary and the last event cannot be written, so each writer fails after
# it has begun its file
_BAD_LEDGER = SimpleNamespace(to_summary=lambda: {"comm_count": 1, "total": object()},
                              event_round=[0, 1], event_edge=[0, 1], event_rows=[3, 3],
                              event_bytes=[12, 12], event_seconds=[0.5, "not a number"])


def _config_json_fails_midway(path):
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "synthetic", "n_train": 10, "n_test": 5, "classes": 2, "dims": 2},
        "task": "classification", "n_edges": 2, "alpha": 0.5, "delta": 0.2, "seed": 0,
        "output_dir": "run"})
    cfg.dataset["n_test"] = object()        # "alpha" is written before "dataset"
    cfg.write(path)


def _tile_plan_out_fails_midway(path):
    spec = {"bs": 2, "input": {"features": 4}, "layers": [{"kind": "fcl", "l2": 2}]}
    with mock.patch.object(cli, "read_json", lambda p: spec), \
            mock.patch.object(cli.tiling, "plan_report", lambda plan: {"a": 1, "b": object()}):
        cli.stage_tile_plan("layers.json", out_path=path)


@pytest.mark.parametrize("writer", [
    _fail_midway,
    lambda path: comms.ScenarioLedger.write_summary(_BAD_LEDGER, path),
    lambda path: comms.ScenarioLedger.write_events_csv(_BAD_LEDGER, path),
    lambda path: cli.write_report([{"accuracy": object()}], out_json=path),
    _config_json_fails_midway,
    _tile_plan_out_fails_midway,
], ids=["helper", "ledger.json", "ledger.csv", "report json", "config.json", "tile-plan out"])
@pytest.mark.parametrize("old", ["old content\n", None], ids=["old file", "no file"])
def test_failed_write_keeps_the_old_file(tmp_path, writer, old):
    path = tmp_path / "out"
    if old is not None:
        path.write_text(old)
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        writer(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if old is not None else [])
    if old is not None:
        assert path.read_text() == old


def test_failed_save_artifact_keeps_the_old_artifact(vae_file, monkeypatch):
    def savez_then_fail(f, **payload):
        f.write(b"PK\x03\x04 partial archive")
        raise OSError("no space left on device")

    monkeypatch.setattr(io.np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="no space"):
        io.save_artifact(vae_file, "vae", {"w": np.zeros(3)}, {"config_hash": "new"})
    monkeypatch.undo()
    arrays, meta = io.load_artifact(vae_file, "vae", "h")
    assert np.array_equal(arrays["w"], np.arange(600.0))
    assert [p.name for p in vae_file.parent.iterdir()] == ["vae.npz"]


def test_atomic_write_replaces_the_file_with_the_usual_mode(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("x")
    path = tmp_path / "out.csv"
    path.write_text("old")
    with io.atomic_write(path, newline="") as f:
        f.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "plain"]
