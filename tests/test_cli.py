import csv
import json
from pathlib import Path

import numpy as np
import pytest

from edgefuse import cli, comms, io, nn
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


@pytest.mark.parametrize("policy", ["mean", "max"])
def test_streaming_mean_and_max_fill_an_edge_that_has_sent_nothing_yet(tmp_path, policy):
    # at seed 19 and alpha 0.1 an early S3 batch holds no row of edge 0
    cfg = dict(micro_config(tmp_path, seed=19, scenario="S3", alpha=0.1), fill_policy=policy)
    run_stages(write_config(tmp_path, cfg), "partition", "train-edges", "simulate")


def test_finished_run_is_refused_before_anything_trains(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, micro_config(tmp_path))
    run_stages(cfg_path, "partition", "train-edges", "train-vaes", "train-ensemble")
    calls = []
    monkeypatch.setattr(comms, "run_scenario", lambda *a, **k: calls.append("run_scenario"))
    monkeypatch.setattr(cli, "_train_vaes", lambda *a, **k: calls.append("_train_vaes"))
    for stage in ("train-ensemble", "simulate"):
        assert main([stage, "--config", cfg_path]) == 2
        assert "ensemble.npz exists" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("stage,output", [
    ("partition", "partition.json"),
    ("train_edges", "edges_summary.json"),
    ("train_edges", "edges/edge_001.npz"),
    ("train_vaes", "vaes/vae_001.npz"),
    ("train_ensemble", "ledger.csv"),
    ("simulate", "ledger.csv"),
])
def test_stage_refuses_any_one_output_before_it_reads_anything(tmp_path, monkeypatch,
                                                               stage, output):
    cfg = ExperimentConfig.from_dict(micro_config(tmp_path))
    path = tmp_path / "run" / output
    path.parent.mkdir(parents=True)
    path.write_text("")
    calls = []

    def load_datasets(cfg):
        calls.append(cfg)
        raise AssertionError("the stage read the dataset")
    monkeypatch.setattr(cli, "load_datasets", load_datasets)
    with pytest.raises(cli.StageError) as err:
        getattr(cli, f"stage_{stage}")(cfg)
    assert str(err.value) == f"{path} exists; rerun with --force to overwrite"
    assert calls == []


def test_train_vaes_trains_none_when_the_fill_policy_reads_none(tmp_path, capsys):
    cfg = dict(micro_config(tmp_path), fill_policy="zero")
    run_stages(write_config(tmp_path, cfg), "partition", "train-edges", "train-vaes",
               "train-ensemble")
    assert "trained no VAEs" in capsys.readouterr().out
    assert (tmp_path / "run" / "metrics.json").exists()
    assert not (tmp_path / "run" / "vaes").exists()


def test_train_vaes_trains_none_for_a_streaming_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_config(tmp_path, scenario="S3"))
    run_stages(cfg_path, "partition", "train-edges", "train-vaes")
    assert "trained no VAEs: S3" in capsys.readouterr().out
    assert not (tmp_path / "run" / "vaes").exists()
    run_stages(cfg_path, "simulate")
    assert (tmp_path / "run" / "metrics.json").exists()


def _run_outputs(run: Path):
    """The ensemble's arrays and header, and the text of metrics.json and ledger.json."""
    arrays, meta = io.load_artifact(run / "ensemble.npz", "ensemble")
    return arrays, meta, (run / "metrics.json").read_text(), (run / "ledger.json").read_text()


@pytest.mark.parametrize("seed,stored_vaes", [(5, None), (6, None), (7, None), (5, "corrupt")])
def test_simulate_s1_trains_the_vaes_train_vaes_would(tmp_path, seed, stored_vaes):
    # simulate never reads vaes/: a corrupt stored VAE changes nothing
    staged = write_config(tmp_path, micro_config(tmp_path, seed=seed, subdir="staged"), "s.json")
    run_stages(staged, "partition", "train-edges", "train-vaes", "train-ensemble")
    inline = write_config(tmp_path, micro_config(tmp_path, seed=seed, subdir="inline"), "i.json")
    run_stages(inline, "partition", "train-edges")
    if stored_vaes:
        (tmp_path / "inline" / "vaes").mkdir()
        (tmp_path / "inline" / "vaes" / "vae_000.npz").write_bytes(
            (tmp_path / "staged" / "vaes" / "vae_000.npz").read_bytes())
        (tmp_path / "inline" / "vaes" / "vae_001.npz").write_bytes(b"not an npz archive")
    run_stages(inline, "simulate")
    want, got = _run_outputs(tmp_path / "staged"), _run_outputs(tmp_path / "inline")
    assert want[0].keys() == got[0].keys()
    assert all(np.array_equal(want[0][k], got[0][k]) for k in want[0])
    assert want[1:] == got[1:]


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
FCL_SPEC = {"bs": 1, "input": {"features": 8}, "layers": [{"kind": "fcl", "l2": 4}]}


def _fcl_spec(tmp_path, layer=None, **top):
    spec = {**FCL_SPEC, **top, "layers": [{**FCL_SPEC["layers"][0], **(layer or {})}]}
    return _tile_spec(tmp_path, spec)


def _dataset(kind, **keys):
    return lambda tmp: _config_with(tmp, lambda d: {**d, "dataset": {"kind": kind, **keys}})


def _after_partition(tmp_path, edit):
    """train-edges on a run whose partition.json text went through ``edit``."""
    argv = _config_with(tmp_path, lambda d: d)
    assert main(argv) == 0
    path = tmp_path / "run" / "partition.json"
    path.write_text(edit(path.read_text()))
    return ["train-edges", *argv[1:]]


def _edited_indices(edit):
    """train-edges on a run whose partition.json train index lists went through ``edit``."""
    return lambda tmp: _after_partition(tmp, lambda text: json.dumps(
        {**json.loads(text), "train_indices": edit(json.loads(text)["train_indices"])}))


def _report_on(tmp_path, metrics_text, **ledger_files):
    """report on a hand-made run; ``ledger_json``/``ledger_csv`` give those files' text."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_text("{}")
    (run / "metrics.json").write_text(metrics_text)
    for name, text in ledger_files.items():
        (run / name.replace("_", ".")).write_text(text)
    return ["report", "--runs", str(run)]


LEDGER_JSON = '{"cumulative_bytes": 10, "comm_count": 1}'


def _edited_artifact(kind, edit):
    """The stage after ``kind``'s on a run whose first ``kind`` ("edge" or
    "vae") artifact had its arrays and header changed by ``edit`` in place."""
    def argv(tmp_path):
        args = _config_with(tmp_path, lambda d: d)[1:]
        for stage in ("partition", "train-edges", "train-vaes")[:2 + (kind == "vae")]:
            assert main([stage, *args]) == 0
        path = tmp_path / "run" / f"{kind}s" / f"{kind}_000.npz"
        arrays, meta = io.load_artifact(path, kind)
        edit(arrays, meta)
        io.save_artifact(path, kind, arrays, meta)
        return ["train-ensemble" if kind == "vae" else "train-vaes", *args]
    return argv


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
    "n_edges a string": (lambda tmp: _config_with(tmp, lambda d: {**d, "n_edges": "two"}),
                         "n_edges must be an integer, got 'two'"),
    "ep_ens_d a string": (lambda tmp: _config_with(tmp, lambda d: {
        **d, "scenario": {"name": "S2", "ep_ens_d": "5"}}), "scenario.ep_ens_d"),
    "ep_ens_d not integral": (lambda tmp: _config_with(tmp, lambda d: {
        **d, "ep_ens": 5, "scenario": {"name": "S2", "ep_ens_d": 2.5}}),
        "scenario.ep_ens_d must be an integer, got 2.5"),
    "edge_epoch_range a number": (lambda tmp: _config_with(
        tmp, lambda d: {**d, "edge_epoch_range": 5}), "edge_epoch_range"),
    "alpha null": (lambda tmp: _config_with(tmp, lambda d: {**d, "alpha": None}),
                   "alpha must be a number"),
    "seed a bool": (lambda tmp: _config_with(tmp, lambda d: {**d, "seed": True}),
                    "seed must be an integer"),
    "synthetic without n_train": (_dataset("synthetic", n_test=6, classes=2, dims=2),
                                  "'dataset.n_train'"),
    "idx without train_images": (_dataset("idx", train_labels="a", test_images="b",
                                          test_labels="c"), "'dataset.train_images'"),
    "csv without target_column": (_dataset("csv", train_path="a", test_path="b"),
                                  "'dataset.target_column'"),
    "fcl width not integral": (lambda tmp: _fcl_spec(tmp, {"l2": 2.5}), "'l2'"),
    "fcl width a string": (lambda tmp: _fcl_spec(tmp, {"l2": "4"}), "'l2'"),
    "features not integral": (lambda tmp: _fcl_spec(tmp, input={"features": 8.9}),
                              "input: 'features'"),
    "factor not integral": (lambda tmp: _fcl_spec(tmp, {"factor": 2.7}), "'factor'"),
    "bs a bool": (lambda tmp: _fcl_spec(tmp, bs=True), "spec: 'bs'"),
    "truncated partition": (lambda tmp: _after_partition(tmp, lambda text: text[:2]),
                            "partition.json"),
    "partition without train_indices": (lambda tmp: _after_partition(
        tmp, lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                      if k != "train_indices"})),
        "partition.json: missing key 'train_indices'"),
    "truncated metrics": (lambda tmp: _report_on(tmp, '{"'), "metrics.json"),
    "report not an object": (lambda tmp: _report_on(tmp, '{"report": [1, 2]}'),
                             "metrics.json: 'report' must be a JSON object"),
    "edge accuracy not a list": (lambda tmp: _report_on(tmp, '{"edge_test_accuracy": 3}'),
                                 "metrics.json: 'edge_test_accuracy'"),
    "ledger.csv without bytes": (lambda tmp: _report_on(
        tmp, "{}", ledger_json=LEDGER_JSON, ledger_csv="round,edge\n0,0\n"),
        "ledger.csv: missing column 'bytes'"),
    "ledger.csv bytes not a number": (lambda tmp: _report_on(
        tmp, "{}", ledger_json=LEDGER_JSON, ledger_csv="round,edge,bytes\n0,0,ten\n"),
        "ledger.csv: line 2: bytes 'ten' and round '0'"),
    "ledger.json without ledger.csv": (lambda tmp: _report_on(tmp, "{}", ledger_json=LEDGER_JSON),
                                       "ledger.csv: cannot read"),
    "index past the split": (_edited_indices(lambda ix: [[99999] + ix[0][1:]] + ix[1:]),
                             "partition.json: 'train_indices' of edge 0"),
    "too few index lists": (_edited_indices(lambda ix: ix[:1]),
                            "partition.json: 'train_indices' must hold 2 lists"),
    "index list a string": (_edited_indices(lambda ix: [ix[0], "abc"]),
                            "partition.json: 'train_indices' of edge 1"),
    "negative index": (_edited_indices(lambda ix: [ix[0], [-1] + ix[1][1:]]),
                       "partition.json: 'train_indices' of edge 1"),
    "edge without a weight": (_edited_artifact("edge", lambda a, m: a.pop("layer0.w")),
                              "edge_000.npz: missing weight array layer0.w"),
    "edge header without task": (_edited_artifact("edge", lambda a, m: m.pop("task")),
                                 "edge_000.npz: header lacks key 'task'"),
    "edge weight of another shape": (_edited_artifact("edge", lambda a, m: a.update(
        {"layer0.w": a["layer0.w"][:1]})), "edge_000.npz: layer0.w: (1, 8) vs (4, 8)"),
    "vae without a weight": (_edited_artifact("vae", lambda a, m: a.pop("layer0.w")),
                             "vae_000.npz: missing weight array layer0.w"),
    "vae header without feature_width": (_edited_artifact(
        "vae", lambda a, m: m.pop("feature_width")), "vae_000.npz: header lacks key 'feature_width'"),
    "edge header with an unknown task": (_edited_artifact(
        "edge", lambda a, m: m.update(task="bogus")), "edge_000.npz: header task 'bogus'"),
    "edge header specs without an embedding layer": (_edited_artifact(
        "edge", lambda a, m: m.update(specs=[{"kind": "dense"}])), "edge_000.npz: header specs"),
    "edge header specs entry without kind": (_edited_artifact(
        "edge", lambda a, m: m.update(specs=[{"units": 8}])),
        "edge_000.npz: header specs entry {'units': 8} lacks key 'kind'"),
    "vae header steps_run a string": (_edited_artifact(
        "vae", lambda a, m: m.update(steps_run="x")),
        "vae_000.npz: header steps_run must be an integer, got 'x'"),
}


@pytest.mark.parametrize("argv,named", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, named):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert named in err
