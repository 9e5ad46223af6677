"""Experiment orchestration CLI.

Stages are separate subcommands so the edge side and the server side can run
as different invocations, each persisting versioned artifacts:

    edgefuse partition       --config cfg.json
    edgefuse train-edges     --config cfg.json
    edgefuse train-vaes      --config cfg.json
    edgefuse train-ensemble  --config cfg.json
    edgefuse simulate        --config cfg.json          # any scenario; trains S1's VAEs itself
    edgefuse tile-plan       --spec layers.json [--out plan.json]
    edgefuse report          --runs DIR [DIR ...] [--out report.csv]

Every artifact carries the config hash; a stage refuses to consume artifacts
produced under a different configuration, and refuses to overwrite its own
outputs unless --force is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import comms, ensemble, io, nn, tiling
from .config import ConfigError, ExperimentConfig, read_json
from .datasets import (EdgeAssignment, bin_regression_targets,
                       load_csv_regression, load_idx_images,
                       make_synthetic_classification, sample_edge_assignment)
from .edge import edge_accuracy, extract_embeddings, random_edge_config, train_edge
from .seeding import derived_seed
from .vae import train_vae


class StageError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Dataset resolution
# ---------------------------------------------------------------------------

def load_datasets(cfg: ExperimentConfig) -> dict:
    """Materialize train/test splits plus the classification views used for
    partition sampling (regression targets get decile-binned for sampling)."""
    ds = cfg.dataset
    kind = ds["kind"]
    if kind == "synthetic":
        center = derived_seed(cfg.seed, "data-centers")
        train = make_synthetic_classification(
            int(ds["n_train"]), int(ds["classes"]), int(ds["dims"]),
            seed=derived_seed(cfg.seed, "data-train"), center_seed=center,
            separation=float(ds.get("separation", 3.0)))
        test = make_synthetic_classification(
            int(ds["n_test"]), int(ds["classes"]), int(ds["dims"]),
            seed=derived_seed(cfg.seed, "data-test"), center_seed=center,
            separation=float(ds.get("separation", 3.0)))
        return {"train": train, "test": test, "partition_train": train,
                "partition_test": test, "bin_edges": None}
    if kind == "idx":
        train = load_idx_images(ds["train_images"], ds["train_labels"])
        test = load_idx_images(ds["test_images"], ds["test_labels"])
        return {"train": train, "test": test, "partition_train": train,
                "partition_test": test, "bin_edges": None}
    if kind == "csv":
        train, stats = load_csv_regression(ds["train_path"], ds["target_column"])
        test, _ = load_csv_regression(ds["test_path"], ds["target_column"], feature_stats=stats)
        train_view, test_view, edges = bin_regression_targets(train, test)
        return {"train": train, "test": test, "partition_train": train_view,
                "partition_test": test_view, "bin_edges": edges}
    raise ConfigError(f"unknown dataset kind {kind!r}")


# ---------------------------------------------------------------------------
# Stage: partition
# ---------------------------------------------------------------------------

def _run_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.output_dir)


def _refuse_overwrite(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise StageError(f"{path} exists; rerun with --force to overwrite")


def stage_partition(cfg: ExperimentConfig, force: bool = False) -> EdgeAssignment:
    run = _run_dir(cfg)
    out = run / "partition.json"
    _refuse_overwrite(out, force)
    bundle = load_datasets(cfg)
    assignment = sample_edge_assignment(bundle["partition_train"], bundle["partition_test"],
                                        cfg.partition_spec())
    doc = {
        "format_version": io.FORMAT_VERSION,
        "config_hash": cfg.config_hash(),
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "n_edges": cfg.n_edges,
        "coverage": assignment.coverage_stats(len(bundle["train"])),
        "train_indices": [[int(v) for v in ix] for ix in assignment.train_indices],
        "test_indices": [[int(v) for v in ix] for ix in assignment.test_indices],
        "train_fractions": assignment.train_fractions.tolist(),
        "test_fractions": assignment.test_fractions.tolist(),
        "test_fractions_raw": assignment.test_fractions_raw.tolist(),
    }
    run.mkdir(parents=True, exist_ok=True)
    with io.atomic_write(out) as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
    cfg.write(run / "config.json")
    return assignment


def _read_run_file(path: Path, keys=()) -> dict:
    """The JSON object in run file ``path``; a StageError names the file and
    the first of ``keys`` it lacks (a ConfigError if it is not JSON)."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise StageError(f"{path}: not a JSON object")
    for key in keys:
        if key not in doc:
            raise StageError(f"{path}: missing key {key!r}")
    return doc


def load_partition(cfg: ExperimentConfig, n_train: int, n_test: int) -> EdgeAssignment:
    """The stored partition of splits of ``n_train`` and ``n_test`` rows."""
    path = _run_dir(cfg) / "partition.json"
    if not path.exists():
        raise StageError(f"missing {path}; run the partition stage first")
    doc = _read_run_file(path, ("train_indices", "test_indices", "train_fractions",
                                "test_fractions", "test_fractions_raw"))
    if doc.get("format_version") != io.FORMAT_VERSION:
        raise StageError(f"{path}: unsupported format version")
    if doc.get("config_hash") != cfg.config_hash():
        raise StageError(f"{path}: config hash mismatch (stale partition)")
    for key, size in (("train_indices", n_train), ("test_indices", n_test)):
        lists = doc[key]
        if not isinstance(lists, list) or len(lists) != cfg.n_edges:
            raise StageError(f"{path}: {key!r} must hold {cfg.n_edges} lists, one per edge")
        for i, ix in enumerate(lists):
            if not (isinstance(ix, list) and all(type(v) is int and 0 <= v < size for v in ix)):
                raise StageError(f"{path}: {key!r} of edge {i} must be a list of "
                                 f"integers in [0, {size})")
    return EdgeAssignment(
        spec=cfg.partition_spec(),
        train_indices=[np.asarray(ix, dtype=np.int64) for ix in doc["train_indices"]],
        test_indices=[np.asarray(ix, dtype=np.int64) for ix in doc["test_indices"]],
        train_fractions=np.asarray(doc["train_fractions"]),
        test_fractions=np.asarray(doc["test_fractions"]),
        test_fractions_raw=np.asarray(doc["test_fractions_raw"]),
    )


# ---------------------------------------------------------------------------
# Stage: train-edges
# ---------------------------------------------------------------------------

def _edge_path(run: Path, i: int) -> Path:
    return run / "edges" / f"edge_{i:03d}.npz"


def stage_train_edges(cfg: ExperimentConfig, force: bool = False) -> list:
    run = _run_dir(cfg)
    bundle = load_datasets(cfg)
    assignment = load_partition(cfg, len(bundle["train"]), len(bundle["test"]))
    chash = cfg.config_hash()
    for i in range(cfg.n_edges):
        _refuse_overwrite(_edge_path(run, i), force)

    train_ds = bundle["train"]
    n_classes = bundle["partition_train"].n_classes if cfg.task == "classification" else None

    artifacts = []
    for i in range(cfg.n_edges):
        econf = random_edge_config(cfg.task, train_ds.inputs.shape[1:], seed=cfg.edge_seed(i),
                                   n_classes=n_classes, epoch_range=cfg.edge_epoch_range,
                                   feature_width=cfg.l_com, lr=cfg.edge_lr,
                                   batch_size=cfg.edge_batch_size)
        artifacts.append(train_edge(econf, train_ds, assignment.train_indices[i]))

    summary = []
    for i, art in enumerate(artifacts):
        io.save_edge_artifact(_edge_path(run, i), art, chash, i)
        summary.append({
            "edge": i, "epochs": art.epochs_run, "n_train": art.n_train,
            "param_count": art.param_count(), "train_accuracy": art.train_accuracy,
            "final_loss": art.loss_trace[-1] if art.loss_trace else None,
        })
    with io.atomic_write(run / "edges_summary.json") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
    return artifacts


def _load_per_edge(cfg: ExperimentConfig, path_of, load, what: str, stage: str) -> list:
    """Every edge's stored artifact of one kind; names the first one missing."""
    run, chash, out = _run_dir(cfg), cfg.config_hash(), []
    for i in range(cfg.n_edges):
        path = path_of(run, i)
        if not path.exists():
            raise StageError(f"missing {what} artifact {path.name} (edge {i}); run {stage} first")
        out.append(load(path, chash))
    return out


def load_edges(cfg: ExperimentConfig) -> list:
    return _load_per_edge(cfg, _edge_path, io.load_edge_artifact, "edge", "train-edges")


def _load_inputs(cfg: ExperimentConfig) -> tuple:
    """The dataset bundle, the stored partition and the stored edges."""
    bundle = load_datasets(cfg)
    assignment = load_partition(cfg, len(bundle["train"]), len(bundle["test"]))
    return bundle, assignment, load_edges(cfg)


# ---------------------------------------------------------------------------
# Stage: train-vaes
# ---------------------------------------------------------------------------

def _vae_path(run: Path, i: int) -> Path:
    return run / "vaes" / f"vae_{i:03d}.npz"


def _train_vaes(cfg: ExperimentConfig, train_ds, assignment: EdgeAssignment, edges) -> list:
    """(VAE, loss trace) of every edge, trained on its embeddings of its training rows."""
    return [train_vae(extract_embeddings(art, train_ds, assignment.train_indices[i]),
                      cfg.ep_vae, cfg.vae_seed(i)) for i, art in enumerate(edges)]


def stage_train_vaes(cfg: ExperimentConfig, force: bool = False) -> list:
    run = _run_dir(cfg)
    bundle, assignment, edges = _load_inputs(cfg)
    for i in range(cfg.n_edges):
        _refuse_overwrite(_vae_path(run, i), force)
    trained = _train_vaes(cfg, bundle["train"], assignment, edges)
    for i, (v, trace) in enumerate(trained):
        io.save_vae_artifact(_vae_path(run, i), v, cfg.config_hash(), i, loss_trace=trace)
    return [v for v, _ in trained]


def load_vaes(cfg: ExperimentConfig) -> list:
    return _load_per_edge(cfg, _vae_path, io.load_vae_artifact, "VAE", "train-vaes")


# ---------------------------------------------------------------------------
# Stage: train-ensemble (one-shot transfer semantics) and simulate
# ---------------------------------------------------------------------------

def _metrics_payload(cfg: ExperimentConfig, run_result, edges, bundle) -> dict:
    test_ds = bundle["test"]
    payload = {
        "config_hash": cfg.config_hash(),
        "scenario": run_result.config.scenario,
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "seed": cfg.seed,
        "fill_policy": cfg.fill_policy,
        "report": run_result.report.to_dict(),
        "ensemble_param_count": run_result.model.param_count(),
        "edge_param_counts": [a.param_count() for a in edges],
        "vae_param_counts": [v.param_count() for v in run_result.vaes],
    }
    if cfg.task == "classification":
        all_test = np.arange(len(test_ds))
        votes = ensemble.vote_baselines(edges, test_ds, all_test)
        truth = np.asarray(test_ds.labels)
        payload["baselines"] = {
            "majority_accuracy": float((votes["majority"] == truth).mean()),
            "average_accuracy": float((votes["average"] == truth).mean()),
        }
        payload["edge_test_accuracy"] = [edge_accuracy(a, test_ds, all_test) for a in edges]
    return payload


def _write_run_outputs(cfg: ExperimentConfig, run_result, edges, bundle, force: bool) -> None:
    run = _run_dir(cfg)
    for name in ("ensemble.npz", "metrics.json", "ledger.json", "ledger.csv"):
        _refuse_overwrite(run / name, force)
    io.save_ensemble_artifact(run / "ensemble.npz", run_result.model, cfg.config_hash(),
                              {"scenario": run_result.config.scenario,
                               "task": cfg.task, "fill_policy": cfg.fill_policy})
    with io.atomic_write(run / "metrics.json") as f:
        json.dump(_metrics_payload(cfg, run_result, edges, bundle), f,
                  sort_keys=True, indent=2)
    run_result.ledger.write_summary(run / "ledger.json")
    run_result.ledger.write_events_csv(run / "ledger.csv")


def _ensemble_config(cfg: ExperimentConfig, n_classes) -> ensemble.EnsembleConfig:
    return ensemble.EnsembleConfig(
        n_edges=cfg.n_edges, feature_width=cfg.l_com, task=cfg.task,
        n_outputs=n_classes if cfg.task == "classification" else 1,
        epochs=cfg.ep_ens, lr=cfg.ens_lr, batch_size=cfg.batch_size,
        seed=derived_seed(cfg.seed, "ensemble"))


def _run_and_write(cfg: ExperimentConfig, force: bool, bundle, assignment, edges, vaes):
    """Run the scenario with ``vaes`` (S1's per-edge VAEs, or None) and write its outputs."""
    ens_cfg = _ensemble_config(cfg, bundle["partition_train"].n_classes)
    result = comms.run_scenario(cfg.scenario_config(), edges, bundle["train"], bundle["test"],
                                assignment, ens_cfg=ens_cfg, policy=cfg.fill_policy,
                                seed=cfg.seed, vaes=vaes, bin_edges=bundle["bin_edges"])
    _write_run_outputs(cfg, result, edges, bundle, force)
    return result


def stage_train_ensemble(cfg: ExperimentConfig, force: bool = False):
    if cfg.scenario_name != "S1":
        raise StageError("train-ensemble persists the one-shot-transfer pipeline; "
                         "use `simulate` for streaming scenarios")
    bundle, assignment, edges = _load_inputs(cfg)
    vaes = load_vaes(cfg) if cfg.fill_policy == "vae" else None
    return _run_and_write(cfg, force, bundle, assignment, edges, vaes)


def stage_simulate(cfg: ExperimentConfig, force: bool = False):
    """Any scenario on the stored edges; S1 trains its VAEs here, never reading ``vaes/``."""
    bundle, assignment, edges = _load_inputs(cfg)
    s1_vae = cfg.scenario_name == "S1" and cfg.fill_policy == "vae"
    vaes = [v for v, _ in _train_vaes(cfg, bundle["train"], assignment, edges)] if s1_vae else None
    return _run_and_write(cfg, force, bundle, assignment, edges, vaes)


# ---------------------------------------------------------------------------
# Stage: report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = [
    "run_dir", "scenario", "alpha", "delta", "seed", "fill_policy",
    "accuracy", "macro_auc", "rmse", "mae", "r2",
    "comm_count", "cumulative_mb", "total_seconds",
    "ensemble_param_count", "best_edge_accuracy",
    "majority_accuracy", "average_accuracy",
]


def _ledger_sum_check(run: Path) -> dict:
    summary = _read_run_file(run / "ledger.json", ("cumulative_bytes", "comm_count"))
    path = run / "ledger.csv"
    total_bytes, rounds = 0, set()
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            missing = sorted({"bytes", "round"} - set(reader.fieldnames or ()))
            if missing:
                raise StageError(f"{path}: missing column {missing[0]!r}")
            for row in reader:
                try:
                    total_bytes += int(row["bytes"])
                    rounds.add(int(row["round"]))
                except (TypeError, ValueError):
                    raise StageError(f"{path}: line {reader.line_num}: bytes {row['bytes']!r} "
                                     f"and round {row['round']!r} must be integers") from None
    except (OSError, csv.Error) as exc:
        raise StageError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from exc
    if total_bytes != summary["cumulative_bytes"]:
        raise StageError(f"{run}: ledger.csv totals {total_bytes} != summary "
                         f"{summary['cumulative_bytes']}")
    if rounds and len(rounds) != summary["comm_count"]:
        raise StageError(f"{run}: ledger.csv rounds {len(rounds)} != comm_count "
                         f"{summary['comm_count']}")
    return summary


def _metrics_parts(path: Path, metrics: dict) -> list:
    """The ``report`` and ``baselines`` objects and the ``edge_test_accuracy``
    list of ``metrics`` (empty if absent or null); a StageError names the file
    and the key of one that holds something else."""
    parts = []
    for key, kind in (("report", dict), ("baselines", dict), ("edge_test_accuracy", list)):
        value = metrics.get(key)
        value = kind() if value is None else value
        if not isinstance(value, kind) or kind is list and not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            what = "a JSON object" if kind is dict else "a list of numbers"
            raise StageError(f"{path}: {key!r} must be {what}, got {value!r}")
        parts.append(value)
    return parts


def collect_report_rows(run_dirs) -> list:
    rows = []
    for base in run_dirs:
        base = Path(base)
        candidates = [base] + sorted(p.parent for p in base.glob("*/metrics.json"))
        for run in candidates:
            if not (run / "metrics.json").exists() or not (run / "config.json").exists():
                continue
            metrics = _read_run_file(run / "metrics.json")
            summary = _ledger_sum_check(run) if (run / "ledger.json").exists() else {}
            rep, base_line, edge_acc = _metrics_parts(run / "metrics.json", metrics)
            rows.append({
                "run_dir": str(run),
                "scenario": metrics.get("scenario"),
                "alpha": metrics.get("alpha"),
                "delta": metrics.get("delta"),
                "seed": metrics.get("seed"),
                "fill_policy": metrics.get("fill_policy"),
                "accuracy": rep.get("accuracy"),
                "macro_auc": rep.get("macro_auc"),
                "rmse": rep.get("rmse"),
                "mae": rep.get("mae"),
                "r2": rep.get("r2"),
                "comm_count": summary.get("comm_count"),
                "cumulative_mb": summary.get("cumulative_mb"),
                "total_seconds": summary.get("total_seconds"),
                "ensemble_param_count": metrics.get("ensemble_param_count"),
                "best_edge_accuracy": max(edge_acc) if edge_acc else None,
                "majority_accuracy": base_line.get("majority_accuracy"),
                "average_accuracy": base_line.get("average_accuracy"),
            })
    if not rows:
        raise StageError("no runs found")
    return rows


def write_report(rows, out_csv=None, out_json=None, stream=None) -> None:
    if out_json:
        with io.atomic_write(out_json) as f:
            json.dump(rows, f, sort_keys=True, indent=2)

    def write_csv(target) -> None:
        w = csv.DictWriter(target, fieldnames=REPORT_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow(row)

    if out_csv:
        with io.atomic_write(out_csv, newline="") as f:
            write_csv(f)
    else:
        write_csv(stream or sys.stdout)


# ---------------------------------------------------------------------------
# Stage: tile-plan
# ---------------------------------------------------------------------------

def stage_tile_plan(spec_path, out_path=None) -> str:
    request = tiling.request_from_config(read_json(spec_path))
    plan = tiling.plan_tiling(request)
    if out_path:
        with io.atomic_write(out_path) as f:
            json.dump(tiling.plan_report(plan), f, sort_keys=True, indent=2)
    return tiling.plan_report_text(plan)


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _add_config_arg(p):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--force", action="store_true", help="overwrite existing stage outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgefuse",
                                     description="edge-embedding ensemble simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="sample per-edge train/test index sets")
    _add_config_arg(p)

    p = sub.add_parser("train-edges", help="train every edge model on its subset")
    _add_config_arg(p)

    p = sub.add_parser("train-vaes", help="train one imputation VAE per edge")
    _add_config_arg(p)

    p = sub.add_parser("train-ensemble", help="build the stacked matrix and train the meta-learner")
    _add_config_arg(p)

    p = sub.add_parser("simulate", help="run a full transfer scenario with ledger accounting")
    _add_config_arg(p)

    p = sub.add_parser("tile-plan", help="emit a tiling plan for a layer-spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="consolidate runs into CSV/JSON")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--json", dest="out_json", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tile-plan":
            print(stage_tile_plan(args.spec, args.out))
            return 0
        if args.command == "report":
            rows = collect_report_rows(args.runs)
            write_report(rows, out_csv=args.out, out_json=args.out_json)
            return 0
        cfg = ExperimentConfig.from_file(args.config)
        if args.command == "partition":
            stage_partition(cfg, force=args.force)
            stats = read_json(_run_dir(cfg) / "partition.json")["coverage"]
            print(json.dumps({"union_train_coverage": stats["union_train_coverage"],
                              "mean_edge_train_coverage": stats["mean_edge_train_coverage"]}))
        elif args.command == "train-edges":
            stage_train_edges(cfg, force=args.force)
            print(f"trained {cfg.n_edges} edges -> {cfg.output_dir}/edges")
        elif args.command == "train-vaes":
            stage_train_vaes(cfg, force=args.force)
            print(f"trained {cfg.n_edges} VAEs -> {cfg.output_dir}/vaes")
        elif args.command == "train-ensemble":
            result = stage_train_ensemble(cfg, force=args.force)
            print(result.report.to_json())
        elif args.command == "simulate":
            result = stage_simulate(cfg, force=args.force)
            print(json.dumps({"scenario": result.config.scenario,
                              "comm_count": result.ledger.comm_count,
                              "cumulative_mb": result.ledger.to_summary()["cumulative_mb"],
                              "accuracy": result.report.accuracy,
                              "rmse": result.report.rmse}))
    except (ConfigError, StageError, io.ArtifactError, ValueError,
            nn.NonFiniteError, nn.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
