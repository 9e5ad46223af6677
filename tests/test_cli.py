import csv
import json
from pathlib import Path

import numpy as np
import pytest

from edgefuse import cli, nn
from edgefuse.cli import main
from edgefuse.config import ConfigError, ExperimentConfig


def micro_config(tmp_path, seed=5, scenario="S1", ep_ens_d=None, alpha=0.5,
                 subdir="run"):
    return {
        "dataset": {"kind": "synthetic", "n_train": 120, "n_test": 60,
                    "classes": 3, "dims": 4, "separation": 5.0},
        "task": "classification",
        "n_edges": 2,
        "l_com": 8,
        "alpha": alpha,
        "delta": 0.2,
        "scenario": {"name": scenario, "ep_ens_d": ep_ens_d, "batch_size": 16},
        "edge_epoch_range": [1, 2],
        "edge_lr": 0.02,
        "edge_batch_size": 16,
        "ep_vae": 2,
        "ep_ens": 4,
        "ens_lr": 0.001,
        "fill_policy": "vae",
        "seed": seed,
        "output_dir": str(tmp_path / subdir),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


def run_stages(cfg_path, *stages, extra=()):
    for stage in stages:
        rc = main([stage, "--config", cfg_path, *extra])
        assert rc == 0, f"stage {stage} failed"


def test_full_pipeline_emits_metrics(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path))
    run_stages(cfg_path, "partition", "train-edges", "train-vaes", "train-ensemble")
    run_dir = tmp_path / "run"
    for name in ("partition.json", "edges_summary.json", "ensemble.npz",
                 "metrics.json", "ledger.json", "ledger.csv"):
        assert (run_dir / name).exists(), name
    with open(run_dir / "metrics.json") as f:
        metrics = json.load(f)
    assert metrics["report"]["accuracy"] is not None
    assert len(metrics["edge_param_counts"]) == 2
    assert metrics["baselines"]["majority_accuracy"] is not None
    with open(run_dir / "ledger.json") as f:
        ledger = json.load(f)
    assert ledger["comm_count"] == 2          # one transfer per edge


def test_partition_rerun_is_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, micro_config(tmp_path, subdir="a"), "a.json")
    cfg_b = write_config(tmp_path, micro_config(tmp_path, subdir="b"), "b.json")
    assert main(["partition", "--config", cfg_a]) == 0
    assert main(["partition", "--config", cfg_b]) == 0
    bytes_a = (tmp_path / "a" / "partition.json").read_bytes()
    bytes_b = (tmp_path / "b" / "partition.json").read_bytes()
    # identical config (output_dir excluded from the hash) -> identical bytes
    assert json.loads(bytes_a)["train_indices"] == json.loads(bytes_b)["train_indices"]
    assert json.loads(bytes_a)["config_hash"] == json.loads(bytes_b)["config_hash"]
    rerun = write_config(tmp_path, micro_config(tmp_path, subdir="a"), "a2.json")
    assert main(["partition", "--config", rerun, "--force"]) == 0
    assert (tmp_path / "a" / "partition.json").read_bytes() == bytes_a


def test_stage_refuses_overwrite_without_force(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path))
    assert main(["partition", "--config", cfg_path]) == 0
    rc = main(["partition", "--config", cfg_path])
    assert rc == 2
    assert "--force" in capsys.readouterr().err


def test_missing_edge_artifact_named_in_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path))
    run_stages(cfg_path, "partition", "train-edges", "train-vaes")
    (tmp_path / "run" / "edges" / "edge_001.npz").unlink()
    rc = main(["train-ensemble", "--config", cfg_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "edge_001" in err and "edge 1" in err


def test_config_hash_mismatch_detected(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["partition", "--config", cfg_path]) == 0
    cfg["alpha"] = 0.9
    changed = write_config(tmp_path, cfg, "changed.json")
    rc = main(["train-edges", "--config", changed])
    assert rc == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = micro_config(tmp_path)
    cfg["turbo"] = True
    with pytest.raises(ConfigError, match="unknown config keys.*turbo"):
        ExperimentConfig.from_dict(cfg)
    cfg.pop("turbo")
    cfg["dataset"]["n_trian"] = 5
    with pytest.raises(ConfigError, match="n_trian"):
        ExperimentConfig.from_dict(cfg)


def test_config_round_trips_with_a_stable_hash():
    """Any valid config document is read as written, and survives to_dict ->
    JSON -> from_dict unchanged, with the same config_hash."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    real = st.floats(allow_nan=False, allow_infinity=False)
    path = st.text(min_size=1, max_size=12)
    datasets = st.one_of(
        st.fixed_dictionaries({"kind": st.just("synthetic"), "n_train": st.integers(1, 10**6),
                               "n_test": st.integers(1, 10**6), "classes": st.integers(2, 100),
                               "dims": st.integers(1, 512)},
                              optional={"separation": real}),
        st.fixed_dictionaries({"kind": st.just("idx"), "train_images": path,
                               "train_labels": path, "test_images": path, "test_labels": path}),
        st.fixed_dictionaries({"kind": st.just("csv"), "train_path": path, "test_path": path,
                               "target_column": path}))

    @st.composite
    def configs(draw):
        ep_ens = draw(st.integers(1, 500))
        name = draw(st.sampled_from(["S1", "S2", "S3"]))
        d_ens = {"S1": st.none(), "S3": st.sampled_from([None, ep_ens]),
                 "S2": st.sampled_from([k for k in range(1, ep_ens + 1) if ep_ens % k == 0])}
        lo = draw(st.integers(0, 100))
        return {
            "dataset": draw(datasets), "task": draw(st.sampled_from(["classification",
                                                                     "regression"])),
            "n_edges": draw(st.integers(1, 64)), "l_com": draw(st.integers(1, 256)),
            "alpha": draw(st.floats(0.0, 1.0, exclude_min=True)),
            "delta": draw(st.floats(0.0, 1.0)),
            "scenario": {"name": name, "ep_ens_d": draw(d_ens[name]),
                         "batch_size": draw(st.integers(1, 4096)),
                         "link_rate_bps": draw(st.floats(0.0, exclude_min=True,
                                                         allow_infinity=False)),
                         "per_message_overhead_s": draw(st.floats(0.0, allow_infinity=False))},
            "edge_epoch_range": [lo, lo + draw(st.integers(0, 100))],
            "edge_lr": draw(real), "edge_batch_size": draw(st.integers(1, 1024)),
            "ep_vae": draw(st.integers(0, 500)), "ep_ens": ep_ens, "ens_lr": draw(real),
            "fill_policy": draw(st.sampled_from(["vae", "zero", "mean", "max"])),
            "seed": draw(st.integers(0, 2**63)), "output_dir": draw(path),
        }

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(doc=configs())
    def check(doc):
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.to_dict() == doc
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    check()


def test_scenario_invariants_checked_at_parse(tmp_path):
    cfg = micro_config(tmp_path, scenario="S2", ep_ens_d=3)   # 3 does not divide 4
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(cfg)
    cfg = micro_config(tmp_path, scenario="S2", ep_ens_d=2)
    ExperimentConfig.from_dict(cfg)


def test_simulate_streaming_scenario(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path, scenario="S3"))
    run_stages(cfg_path, "partition", "train-edges")
    assert main(["simulate", "--config", cfg_path]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["scenario"] == "S3"
    assert out["comm_count"] == int(np.ceil(120 * 4 / 16))
    with open(tmp_path / "run" / "ledger.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == out["comm_count"] * 2


def test_train_ensemble_rejects_streaming_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path, scenario="S3"))
    run_stages(cfg_path, "partition", "train-edges")
    rc = main(["train-ensemble", "--config", cfg_path])
    assert rc == 2
    assert "simulate" in capsys.readouterr().err


def test_report_consolidates_runs(tmp_path, capsys):
    base = tmp_path / "runs"
    for seed, sub in ((5, "s5"), (6, "s6")):
        cfg = micro_config(base, seed=seed, subdir=sub)
        cfg_path = write_config(tmp_path, cfg, f"cfg{seed}.json")
        run_stages(cfg_path, "partition", "train-edges", "train-vaes", "train-ensemble")
    out_csv = tmp_path / "report.csv"
    rc = main(["report", "--runs", str(base), "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert {r["seed"] for r in rows} == {"5", "6"}
    assert all(r["scenario"] == "S1" for r in rows)
    assert all(float(r["accuracy"]) >= 0.0 for r in rows)


def test_report_empty_dir_errors(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    rc = main(["report", "--runs", str(empty)])
    assert rc == 2
    assert "no runs found" in capsys.readouterr().err


def test_report_detects_ledger_tampering(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path))
    run_stages(cfg_path, "partition", "train-edges", "train-vaes", "train-ensemble")
    ledger_csv = tmp_path / "run" / "ledger.csv"
    with open(ledger_csv) as f:
        rows = list(csv.reader(f))
    rows[1][3] = str(int(rows[1][3]) + 999)      # corrupt one byte count
    with open(ledger_csv, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    rc = main(["report", "--runs", str(tmp_path / "run")])
    assert rc == 2
    assert "totals" in capsys.readouterr().err


def test_tile_plan_command(tmp_path, capsys):
    spec = {
        "bs": 2, "bs_f": 2, "c_f": 1,
        "input": {"channels": 1, "height": 8, "width": 8},
        "layers": [
            {"kind": "conv", "filters": 2, "kernel": [3, 3], "factor": 1},
            {"kind": "conv", "filters": 2, "kernel": [3, 3], "factor": 1},
            {"kind": "flatten"},
            {"kind": "fcl", "l2": 4, "factor": 1},
        ],
    }
    spec_path = tmp_path / "layers.json"
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    out_path = tmp_path / "plan.json"
    rc = main(["tile-plan", "--spec", str(spec_path), "--out", str(out_path)])
    assert rc == 0
    assert "BS_f=2-F_f=1,1" in capsys.readouterr().out
    with open(out_path) as f:
        rep = json.load(f)
    assert rep["label"] == "BS_f=2-F_f=1,1"
    assert len(rep["layers"]) == 3


def test_regression_pipeline_with_csv(tmp_path):
    rng = np.random.default_rng(0)
    for name, rows in (("train.csv", 200), ("test.csv", 80)):
        x = rng.normal(size=(rows, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=rows)
        with open(tmp_path / name, "w") as f:
            f.write("f1,f2,f3,target\n")
            for xi, yi in zip(x, y):
                f.write(",".join(str(v) for v in xi) + f",{yi}\n")
    cfg = micro_config(tmp_path)
    cfg["dataset"] = {"kind": "csv", "train_path": str(tmp_path / "train.csv"),
                      "test_path": str(tmp_path / "test.csv"), "target_column": "target"}
    cfg["task"] = "regression"
    cfg_path = write_config(tmp_path, cfg)
    run_stages(cfg_path, "partition", "train-edges", "train-vaes", "train-ensemble")
    with open(tmp_path / "run" / "metrics.json") as f:
        metrics = json.load(f)
    assert metrics["report"]["rmse"] is not None
    assert metrics["report"]["r2"] is not None
    assert 0.0 <= metrics["report"]["binned_accuracy"] <= 1.0


def _diverge():
    raise nn.DivergenceError(3)


def _non_finite():
    with nn.epoch_scope(3):
        raise nn.NonFiniteError("non-finite values in gradient")


@pytest.mark.parametrize("fail", [_diverge, _non_finite])
def test_training_failure_exits_2_naming_the_epoch(tmp_path, capsys, monkeypatch, fail):
    def failing_stage(cfg, force=False):
        fail()

    monkeypatch.setattr(cli, "stage_simulate", failing_stage)
    cfg_path = write_config(tmp_path, micro_config(tmp_path, scenario="S3"))
    assert main(["simulate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "at epoch 3" in err


def _config_with(tmp_path, edit):
    return ["partition", "--config", write_config(tmp_path, edit(micro_config(tmp_path)))]


def _tile_spec(tmp_path, spec):
    return ["tile-plan", "--spec", write_config(tmp_path, spec, name="spec.json")]


CONV_SPEC = {"bs": 1, "input": {"channels": 1, "height": 4, "width": 4},
             "layers": [{"kind": "conv", "filters": 2, "kernel": [3, 3]}]}


BAD_INPUTS = {
    "missing config": (lambda tmp: ["partition", "--config", str(tmp / "absent.json")],
                       "absent.json"),
    "missing tile spec": (lambda tmp: ["tile-plan", "--spec", str(tmp / "absent.json")],
                          "absent.json"),
    "config not an object": (lambda tmp: _config_with(tmp, lambda d: [d]),
                             "config must be a JSON object"),
    "dataset not an object": (lambda tmp: _config_with(tmp, lambda d: {**d, "dataset": 5}),
                              "dataset must be a JSON object"),
    "scenario not an object": (lambda tmp: _config_with(tmp, lambda d: {**d, "scenario": "S3"}),
                               "scenario must be a JSON object"),
    "zero link rate": (lambda tmp: _config_with(tmp, lambda d: {
        **d, "scenario": {**d["scenario"], "link_rate_bps": 0}}), "link_rate_bps"),
    "tile spec without bs": (lambda tmp: _tile_spec(tmp, {k: v for k, v in CONV_SPEC.items()
                                                          if k != "bs"}), "'bs'"),
    "tile spec not an object": (lambda tmp: _tile_spec(tmp, [CONV_SPEC]),
                                "spec must be a JSON object"),
    "conv without kernel": (lambda tmp: _tile_spec(tmp, {**CONV_SPEC, "layers": [
        {"kind": "relu"}, {"kind": "conv", "filters": 2}]}), "layer 1 (conv): missing 'kernel'"),
    "fcl without width": (lambda tmp: _tile_spec(tmp, {**CONV_SPEC, "layers": [
        {"kind": "flatten"}, {"kind": "fcl", "factor": 1}]}), "layer 1 (fcl): missing 'l2'"),
    "pool window over the input": (lambda tmp: _tile_spec(tmp, {**CONV_SPEC, "layers": [
        {"kind": "maxpool", "size": [5, 5]}, {"kind": "flatten"}, {"kind": "fcl", "l2": 3}]}),
        "window (5,5) larger than input (4,4)"),
}


@pytest.mark.parametrize("argv,named", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, named):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert named in err
