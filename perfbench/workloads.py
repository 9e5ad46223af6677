"""The benchmark's workloads.

Each workload has a ``setup`` (timed as ``setup_s``) and a ``unit`` of work
that the runner repeats for the measured seconds. Both take an ``Ops``
ledger: every stage call or step is one operation, and it fails when it
raises or when one of the correctness checks attached to it does not hold.

* ``s1_oneshot``: partition (set-up), then train-edges -> train-vaes ->
  train-ensemble (S1, VAE fill) -> report through ``edgefuse.cli``.
* ``s3_stream``: the same data, partition and edges, then ``simulate`` with
  S3 (one VAE step and one decode per edge per streaming round) -> report.
* ``tiled_step``: forward + backward through ``tiling.execute_plan`` for the
  meta-learner and an image edge model under three plans, each checked
  against the untiled ``nn.Model`` step on the same batch.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from edgefuse import cli, ensemble, nn, tiling
from edgefuse.config import ExperimentConfig

# The weak-edge setting: accuracy is far from saturated (best edge ~0.63,
# average vote ~0.67, S1 ensemble ~0.77 at seed 101), so a quality loss shows.
PIPELINE_CONFIG = {
    "dataset": {"kind": "synthetic", "n_train": 5000, "n_test": 1500, "classes": 10,
                "dims": 16, "separation": 0.6},
    "task": "classification",
    "n_edges": 10,
    "l_com": 64,
    "alpha": 0.1,
    "delta": 0.2,
    "edge_epoch_range": [10, 10],
    "edge_lr": 0.01,
    "edge_batch_size": 32,
    "ep_vae": 20,
    "ep_ens": 30,
    "ens_lr": 1e-4,
    "fill_policy": "vae",
}
BATCH = 128
BYTES_PER_VALUE = 4

# Tiled-vs-engine agreement, fixed from the dtype before any run: both sides
# are float32 sums of the same terms in a different order, so every element
# must lie within TILED_RTOL * max|engine| of the engine's value.
TILED_RTOL = 1e-4
TILED_BATCH = 128
# (tiling factor, bs_f); a layer's factor is gcd(factor, its output width)
TILED_PLANS = ((1, 1), (2, 2), (4, 4))


class CheckFailed(AssertionError):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class OpFailed(Exception):
    pass


class Ops:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def run(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:       # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

class Pipeline:
    """One staged-CLI pipeline run per unit, each in a fresh run directory
    seeded with the partition made at set-up."""

    def __init__(self, scenario: str, seed: int, workdir: Path):
        self.scenario = scenario
        self.seed = seed
        self.workdir = Path(workdir)
        self._setups = 0
        self._units = 0
        self._partition_bytes = None
        self._edge_rows = None
        self.first = None              # the first unit's record, for determinism checks

    def config(self, run_dir: Path) -> ExperimentConfig:
        doc = dict(PIPELINE_CONFIG, seed=self.seed, output_dir=str(run_dir),
                   scenario={"name": self.scenario, "batch_size": BATCH})
        return ExperimentConfig.from_dict(doc)

    def setup(self, ops: Ops) -> None:
        run = self.workdir / f"setup-{self._setups}"
        self._setups += 1
        shutil.rmtree(run, ignore_errors=True)
        ops.run("partition", cli.stage_partition, self.config(run))
        data = (run / "partition.json").read_bytes()
        if self._partition_bytes is None:
            self._partition_bytes = (run, data)
            self._edge_rows = sum(len(ix) for ix in json.loads(data)["train_indices"])
            return
        shutil.rmtree(run)
        ops.run("partition-repeat", check, data == self._partition_bytes[1],
                "partition.json differs between set-ups of one seed")

    def unit(self, ops: Ops) -> dict:
        if self._partition_bytes is None:
            ops.run("unit", check, False, "no partition: every set-up failed")
        run = self.workdir / f"unit-{self._units}"
        self._units += 1
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir(parents=True)
        src = self._partition_bytes[0]
        for name in ("partition.json", "config.json"):
            shutil.copyfile(src / name, run / name)
        cfg = self.config(run)
        try:
            rec = self._stages(cfg, run, ops)
        finally:
            shutil.rmtree(run, ignore_errors=True)
        if self.first is None:
            self.first = rec
        ops.run("repeat", self._check_repeat, rec)
        return rec

    def _stages(self, cfg: ExperimentConfig, run: Path, ops: Ops) -> dict:
        times = {}
        t0 = perf_counter()
        ops.run("train-edges", cli.stage_train_edges, cfg)
        t1 = perf_counter()
        times["train_edges_s"] = t1 - t0
        if self.scenario == "S1":
            ops.run("train-vaes", cli.stage_train_vaes, cfg)
            t2 = perf_counter()
            times["train_vaes_s"] = t2 - t1
            result = ops.run("train-ensemble", self._checked_ensemble,
                             cli.stage_train_ensemble, cfg)
        else:
            t2 = t1
            result = ops.run("simulate", self._checked_ensemble, cli.stage_simulate, cfg)
        t3 = perf_counter()
        times["train_ensemble_s"] = t3 - t2
        row = ops.run("report", self._checked_report, run, result)
        times["pipeline_s"] = perf_counter() - t0
        return {"times": times, "accuracy": row["accuracy"],
                "comm_count": result.ledger.comm_count,
                "cumulative_bytes": result.ledger.cumulative_bytes,
                "best_edge_accuracy": row["best_edge_accuracy"],
                "average_accuracy": row["average_accuracy"]}

    def _checked_ensemble(self, stage, cfg: ExperimentConfig):
        result = stage(cfg)
        ledger = result.ledger
        n_edges = cfg.n_edges
        width = cfg.l_com
        if self.scenario == "S1":
            want_count = n_edges
            want_bytes = self._edge_rows * width * BYTES_PER_VALUE
        else:
            n = int(cfg.dataset["n_train"])
            want_count = math.ceil(n * cfg.ep_ens / cfg.batch_size)
            want_bytes = n * cfg.ep_ens * n_edges * width * BYTES_PER_VALUE
        check(ledger.comm_count == want_count,
              f"comm_count {ledger.comm_count} != closed form {want_count}")
        check(ledger.cumulative_bytes == want_bytes,
              f"cumulative_bytes {ledger.cumulative_bytes} != closed form {want_bytes}")
        return result

    @staticmethod
    def _checked_report(run: Path, result) -> dict:
        # collect_report_rows re-adds ledger.csv and checks it against ledger.json
        rows = cli.collect_report_rows([run])
        cli.write_report(rows, out_csv=run / "report.csv")
        row = rows[0]
        acc = row["accuracy"]
        check(acc is not None and math.isfinite(acc), f"accuracy {acc!r} is not finite")
        check(acc == result.report.accuracy, "metrics.json accuracy differs from the stage result")
        check(row["comm_count"] == result.ledger.comm_count, "report comm_count differs from ledger")
        return row

    def _check_repeat(self, rec: dict) -> None:
        for key in ("accuracy", "comm_count", "cumulative_bytes"):
            check(rec[key] == self.first[key],
                  f"{key} {rec[key]!r} differs from the first unit's {self.first[key]!r}")

    # -- reporting ------------------------------------------------------------

    def summary(self, records: list) -> dict:
        """The stage metrics, medians over units."""
        keys = ["train_edges_s", "train_vaes_s", "train_ensemble_s", "pipeline_s"]
        if self.scenario != "S1":
            keys.remove("train_vaes_s")
        out = {k: (float(np.median([r["times"][k] for r in records])), "s") for k in keys}
        out["accuracy"] = (records[0]["accuracy"], "fraction")
        return out

    @staticmethod
    def work_seconds(rec: dict) -> float:
        return rec["times"]["pipeline_s"]

    @staticmethod
    def accuracy(records: list) -> float:
        return float(records[0]["accuracy"])

    @staticmethod
    def counts(records: list) -> dict:
        """Exact per-layer values of the first unit (zeros if none ran)."""
        r = records[0] if records else dict.fromkeys(
            ("comm_count", "cumulative_bytes", "best_edge_accuracy", "average_accuracy"), 0)
        return {"comms.comm_count": (r["comm_count"], "count"),
                "comms.cumulative_bytes": (r["cumulative_bytes"], "B"),
                "edge.best_accuracy": (r["best_edge_accuracy"], "fraction"),
                "ensemble.average_vote_accuracy": (r["average_accuracy"], "fraction")}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Tiled step
# ---------------------------------------------------------------------------

IMAGE_SPECS = (nn.conv(5, 4), nn.relu(), nn.maxpool(2), nn.conv(5, 4), nn.relu(),
               nn.flatten(), nn.dense(64), nn.relu(), nn.dense(10))
N_CLASSES = 10


def _plan_factors(model: nn.Model, factor: int) -> list:
    widths = [layer.out_shape[0] for spec, layer in zip(model.specs, model.layers)
              if spec.kind in ("conv", "dense")]
    return [math.gcd(factor, w) for w in widths]


class TiledStep:
    """Per unit (a sweep): for each model, one untiled engine step, then one
    tiled forward + backward step per plan, each checked against the engine."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.image_x = rng.random((TILED_BATCH, 1, 28, 28), dtype=np.float32)
        self.meta_x = np.abs(rng.standard_normal((TILED_BATCH, 1, 10, 64), dtype=np.float32))
        self.labels = rng.integers(0, N_CLASSES, TILED_BATCH)
        self.models = None
        self.matched = 0
        self.compared = 0

    def setup(self, ops: Ops) -> None:
        def build():
            meta = ensemble.make_ensemble_model(ensemble.EnsembleConfig(
                n_edges=10, feature_width=64, task="classification",
                n_outputs=N_CLASSES, seed=self.seed))
            image = nn.Model(IMAGE_SPECS, (1, 28, 28), seed=self.seed, dtype=np.float32)
            models = []
            for name, model, x in (("meta", meta, self.meta_x), ("image", image, self.image_x)):
                plans = []
                for factor, bs_f in TILED_PLANS:
                    req = tiling.request_from_model(model, _plan_factors(model, factor),
                                                    bs=TILED_BATCH, bs_f=bs_f)
                    plans.append((f"f{factor}/bs_f{bs_f}", tiling.plan_tiling(req)))
                models.append((name, model, x, plans))
            return models

        self.models = ops.run("build", build)

    def unit(self, ops: Ops) -> dict:
        if self.models is None:
            ops.run("unit", check, False, "no models: every set-up failed")
        engine_ms, tiled_ms = {}, {}
        for name, model, x, plans in self.models:
            t0 = perf_counter()
            ref = ops.run(f"{name}/engine", self._engine_step, model, x)
            engine_ms[name] = (perf_counter() - t0) * 1e3
            tiled_ms[name] = []
            for label, plan in plans:
                t0 = perf_counter()
                res = ops.run(f"{name}/{label}", tiling.execute_plan, plan, model, x,
                              targets=self.labels, loss="cross_entropy", n_classes=N_CLASSES)
                tiled_ms[name].append((perf_counter() - t0) * 1e3)
                ops.run(f"{name}/{label}/check", self._compare, res, ref)
        return {"engine_ms": engine_ms, "tiled_ms": tiled_ms}

    def _engine_step(self, model: nn.Model, x: np.ndarray):
        out = model.forward(x)
        loss, dout = nn.softmax_cross_entropy(out, nn.one_hot(self.labels, N_CLASSES,
                                                              dtype=model.dtype))
        model.backward(dout)
        return out, loss, model.gradients()

    def _compare(self, res, ref) -> None:
        out, loss, grads = ref
        res.audit.verify()
        check(abs(res.loss - loss) <= TILED_RTOL * abs(loss), f"loss {res.loss} vs {loss}")
        check(len(res.grads) == len(grads), "gradient count differs from the engine")
        pairs = [("outputs", res.outputs, out)]
        pairs += [(f"layer{i}.{n}", g, e) for (i, n, g), (_, _, e) in zip(res.grads, grads)]
        bad = []
        for what, got, want in pairs:
            check(got.shape == want.shape, f"{what}: shape {got.shape} vs {want.shape}")
            tol = TILED_RTOL * float(np.abs(want).max())
            ok = np.abs(got.astype(np.float64) - want) <= tol
            self.matched += int(ok.sum())
            self.compared += ok.size
            if not ok.all():
                bad.append(f"{what} ({int(ok.size - ok.sum())} of {ok.size})")
        check(not bad, "outside tolerance: " + ", ".join(bad))

    def summary(self, records: list) -> dict:
        """Per model: tiled steps pooled over the plans, and engine steps."""
        out = {}
        for name, _, _, _ in self.models:
            tiled = [t for r in records for t in r["tiled_ms"][name]]
            engine = [r["engine_ms"][name] for r in records]
            out[f"{name}.tiled_step_ms_p50"] = (float(np.percentile(tiled, 50)), "ms")
            out[f"{name}.tiled_step_ms_p90"] = (float(np.percentile(tiled, 90)), "ms")
            out[f"{name}.tiled_steps"] = (len(tiled), "count")
            out[f"{name}.engine_step_ms_p50"] = (float(np.percentile(engine, 50)), "ms")
            out[f"{name}.engine_steps"] = (len(engine), "count")
        return out

    @staticmethod
    def work_seconds(rec: dict) -> float:
        return sum(sum(steps) for steps in rec["tiled_ms"].values()) / 1e3

    def accuracy(self, records: list) -> float:
        return self.matched / self.compared if self.compared else float("nan")

    @staticmethod
    def counts(records: list) -> dict:
        return Pipeline.counts([])

    def close(self) -> None:
        pass


WORKLOADS = {
    "s1_oneshot": lambda seed, workdir: Pipeline("S1", seed, workdir),
    "s3_stream": lambda seed, workdir: Pipeline("S3", seed, workdir),
    "tiled_step": lambda seed, workdir: TiledStep(seed),
}
