"""Experiment orchestration CLI.

Stages are separate subcommands so the edge side and the server side can run
as different invocations, each persisting versioned artifacts:

    edgefuse partition       --config cfg.json
    edgefuse train-edges     --config cfg.json [--workers 4]
    edgefuse train-vaes      --config cfg.json
    edgefuse train-ensemble  --config cfg.json
    edgefuse simulate        --config cfg.json          # any scenario, inline
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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import comms, ensemble, io, nn, tiling
from .config import ConfigError, ExperimentConfig
from .datasets import (Dataset, EdgeAssignment, bin_regression_targets,
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
            separation=float(ds.get("separation", 3.0)), split="train")
        test = make_synthetic_classification(
            int(ds["n_test"]), int(ds["classes"]), int(ds["dims"]),
            seed=derived_seed(cfg.seed, "data-test"), center_seed=center,
            separation=float(ds.get("separation", 3.0)), split="test")
        return {"train": train, "test": test, "partition_train": train,
                "partition_test": test, "bin_edges": None}
    if kind == "idx":
        train = load_idx_images(ds["train_images"], ds["train_labels"], split="train")
        test = load_idx_images(ds["test_images"], ds["test_labels"], split="test")
        return {"train": train, "test": test, "partition_train": train,
                "partition_test": test, "bin_edges": None}
    if kind == "csv":
        train, stats = load_csv_regression(ds["train_path"], ds["target_column"], split="train")
        test, _ = load_csv_regression(ds["test_path"], ds["target_column"], split="test",
                                      feature_stats=stats)
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
    with open(out, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
    cfg.write(run / "config.json")
    return assignment


def load_partition(cfg: ExperimentConfig) -> EdgeAssignment:
    path = _run_dir(cfg) / "partition.json"
    if not path.exists():
        raise StageError(f"missing {path}; run the partition stage first")
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != io.FORMAT_VERSION:
        raise StageError(f"{path}: unsupported format version")
    if doc.get("config_hash") != cfg.config_hash():
        raise StageError(f"{path}: config hash mismatch (stale partition)")
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


def stage_train_edges(cfg: ExperimentConfig, force: bool = False, workers: int = 1) -> list:
    run = _run_dir(cfg)
    bundle = load_datasets(cfg)
    assignment = load_partition(cfg)
    chash = cfg.config_hash()
    for i in range(cfg.n_edges):
        _refuse_overwrite(_edge_path(run, i), force)

    train_ds = bundle["train"]
    n_classes = bundle["partition_train"].n_classes if cfg.task == "classification" else None

    def build_one(i: int):
        econf = random_edge_config(cfg.task, train_ds.inputs.shape[1:], seed=cfg.edge_seed(i),
                                   n_classes=n_classes, epoch_range=cfg.edge_epoch_range,
                                   feature_width=cfg.l_com, lr=cfg.edge_lr,
                                   batch_size=cfg.edge_batch_size)
        art = train_edge(econf, train_ds, assignment.train_indices[i])
        return i, art

    artifacts = [None] * cfg.n_edges
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, art in pool.map(build_one, range(cfg.n_edges)):
                artifacts[i] = art
    else:
        for i in range(cfg.n_edges):
            artifacts[i] = build_one(i)[1]

    summary = []
    for i, art in enumerate(artifacts):
        io.save_edge_artifact(_edge_path(run, i), art, chash, i)
        summary.append({
            "edge": i, "epochs": art.epochs_run, "n_train": art.n_train,
            "param_count": art.param_count(), "train_accuracy": art.train_accuracy,
            "final_loss": art.loss_trace[-1] if art.loss_trace else None,
        })
    with open(run / "edges_summary.json", "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
    return artifacts


def load_edges(cfg: ExperimentConfig) -> list:
    run = _run_dir(cfg)
    chash = cfg.config_hash()
    arts = []
    for i in range(cfg.n_edges):
        path = _edge_path(run, i)
        if not path.exists():
            raise StageError(f"missing edge artifact {path.name} (edge {i}); "
                             f"run train-edges first")
        arts.append(io.load_edge_artifact(path, chash))
    return arts


# ---------------------------------------------------------------------------
# Stage: train-vaes
# ---------------------------------------------------------------------------

def _vae_path(run: Path, i: int) -> Path:
    return run / "vaes" / f"vae_{i:03d}.npz"


def stage_train_vaes(cfg: ExperimentConfig, force: bool = False) -> list:
    run = _run_dir(cfg)
    bundle = load_datasets(cfg)
    assignment = load_partition(cfg)
    edges = load_edges(cfg)
    chash = cfg.config_hash()
    for i in range(cfg.n_edges):
        _refuse_overwrite(_vae_path(run, i), force)
    vaes = []
    for i, art in enumerate(edges):
        emb = extract_embeddings(art, bundle["train"], assignment.train_indices[i])
        v, trace = train_vae(emb, cfg.ep_vae, cfg.vae_seed(i))
        io.save_vae_artifact(_vae_path(run, i), v, chash, i, loss_trace=trace)
        vaes.append(v)
    return vaes


def load_vaes(cfg: ExperimentConfig) -> list:
    run = _run_dir(cfg)
    chash = cfg.config_hash()
    out = []
    for i in range(cfg.n_edges):
        path = _vae_path(run, i)
        if not path.exists():
            raise StageError(f"missing VAE artifact {path.name} (edge {i}); run train-vaes first")
        out.append(io.load_vae_artifact(path, chash))
    return out


# ---------------------------------------------------------------------------
# Stage: train-ensemble (one-shot transfer semantics) and simulate
# ---------------------------------------------------------------------------

def _metrics_payload(cfg: ExperimentConfig, run_result, edges, bundle, vaes) -> dict:
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
        "vae_param_counts": [v.param_count() for v in vaes],
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


def _write_run_outputs(cfg: ExperimentConfig, run_result, edges, bundle, vaes,
                       force: bool) -> None:
    run = _run_dir(cfg)
    for name in ("ensemble.npz", "metrics.json", "ledger.json", "ledger.csv"):
        _refuse_overwrite(run / name, force)
    io.save_ensemble_artifact(run / "ensemble.npz", run_result.model, cfg.config_hash(),
                              {"scenario": run_result.config.scenario,
                               "task": cfg.task, "fill_policy": cfg.fill_policy})
    with open(run / "metrics.json", "w") as f:
        json.dump(_metrics_payload(cfg, run_result, edges, bundle, vaes), f,
                  sort_keys=True, indent=2)
    run_result.ledger.write_summary(run / "ledger.json")
    run_result.ledger.write_events_csv(run / "ledger.csv")


def _ensemble_config(cfg: ExperimentConfig, n_classes) -> ensemble.EnsembleConfig:
    return ensemble.EnsembleConfig(
        n_edges=cfg.n_edges, feature_width=cfg.l_com, task=cfg.task,
        n_outputs=n_classes if cfg.task == "classification" else 1,
        epochs=cfg.ep_ens, lr=cfg.ens_lr, batch_size=cfg.batch_size,
        seed=derived_seed(cfg.seed, "ensemble"))


def stage_train_ensemble(cfg: ExperimentConfig, force: bool = False):
    if cfg.scenario_name != "S1":
        raise StageError("train-ensemble persists the one-shot-transfer pipeline; "
                         "use `simulate` for streaming scenarios")
    bundle = load_datasets(cfg)
    assignment = load_partition(cfg)
    edges = load_edges(cfg)
    vaes = load_vaes(cfg) if cfg.fill_policy == "vae" else []
    ens_cfg = _ensemble_config(cfg, bundle["partition_train"].n_classes)
    result = comms.run_scenario(cfg.scenario_config(), edges, bundle["train"], bundle["test"],
                                assignment, ens_cfg=ens_cfg, vae_epochs=cfg.ep_vae,
                                policy=cfg.fill_policy, seed=cfg.seed,
                                vaes=vaes if cfg.fill_policy == "vae" else None)
    _write_run_outputs(cfg, result, edges, bundle, result.vaes, force)
    return result


def stage_simulate(cfg: ExperimentConfig, force: bool = False):
    bundle = load_datasets(cfg)
    assignment = load_partition(cfg)
    edges = load_edges(cfg)
    vaes = None
    if cfg.scenario_name == "S1" and cfg.fill_policy == "vae":
        try:
            vaes = load_vaes(cfg)
        except StageError:
            vaes = None          # S1 trains them inline when absent
    ens_cfg = _ensemble_config(cfg, bundle["partition_train"].n_classes)
    result = comms.run_scenario(cfg.scenario_config(), edges, bundle["train"], bundle["test"],
                                assignment, ens_cfg=ens_cfg, vae_epochs=cfg.ep_vae,
                                policy=cfg.fill_policy, seed=cfg.seed, vaes=vaes)
    _write_run_outputs(cfg, result, edges, bundle, result.vaes, force)
    return result


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
    with open(run / "ledger.json") as f:
        summary = json.load(f)
    total_bytes, count = 0, 0
    rounds = set()
    with open(run / "ledger.csv", newline="") as f:
        for row in csv.DictReader(f):
            total_bytes += int(row["bytes"])
            rounds.add(int(row["round"]))
            count += 1
    if total_bytes != summary["cumulative_bytes"]:
        raise StageError(f"{run}: ledger.csv totals {total_bytes} != summary "
                         f"{summary['cumulative_bytes']}")
    if rounds and len(rounds) != summary["comm_count"]:
        raise StageError(f"{run}: ledger.csv rounds {len(rounds)} != comm_count "
                         f"{summary['comm_count']}")
    return summary


def collect_report_rows(run_dirs) -> list:
    rows = []
    for base in run_dirs:
        base = Path(base)
        candidates = [base] + sorted(p.parent for p in base.glob("*/metrics.json"))
        for run in candidates:
            if not (run / "metrics.json").exists() or not (run / "config.json").exists():
                continue
            with open(run / "metrics.json") as f:
                metrics = json.load(f)
            summary = _ledger_sum_check(run) if (run / "ledger.json").exists() else {}
            rep = metrics.get("report", {})
            edge_acc = metrics.get("edge_test_accuracy") or []
            base_line = metrics.get("baselines", {})
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
        with open(out_json, "w") as f:
            json.dump(rows, f, sort_keys=True, indent=2)
    target = open(out_csv, "w", newline="") if out_csv else (stream or sys.stdout)
    try:
        w = csv.DictWriter(target, fieldnames=REPORT_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    finally:
        if out_csv:
            target.close()


# ---------------------------------------------------------------------------
# Stage: tile-plan
# ---------------------------------------------------------------------------

def stage_tile_plan(spec_path, out_path=None) -> str:
    with open(spec_path) as f:
        spec = json.load(f)
    request = tiling.request_from_config(spec)
    plan = tiling.plan_tiling(request)
    if out_path:
        with open(out_path, "w") as f:
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
    p.add_argument("--workers", type=int, default=1)

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
            with open(_run_dir(cfg) / "partition.json") as f:
                stats = json.load(f)["coverage"]
            print(json.dumps({"union_train_coverage": stats["union_train_coverage"],
                              "mean_edge_train_coverage": stats["mean_edge_train_coverage"]}))
        elif args.command == "train-edges":
            stage_train_edges(cfg, force=args.force, workers=args.workers)
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
