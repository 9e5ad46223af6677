"""Transfer-scenario simulation: schedules, byte/latency/storage accounting,
and the end-to-end scenario drivers.

Three schemes move embeddings from edges to the server:

* S1 - each edge sends everything it has in a single transfer; the server
  stores the full stacked matrix before any server-side training starts.
* S2 - the server receives one mini-batch of stacked rows per communication
  and reuses it for ``ep_ens / ep_ens_d`` consecutive steps; every batch is
  re-sent ``ep_ens_d`` times over the run.
* S3 - the S2 limit where the divisor equals the epoch count: every batch is
  used exactly once per receipt and nothing is kept between rounds.

Mini-batches are packed over the concatenated sample stream (a tail batch
rides into the next pass), which is what makes the communication counts
ceil(n * passes / b) exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import nn
from .datasets import Dataset, EdgeAssignment
from .edge import EdgeArtifact
from .ensemble import (EnsembleConfig, _as_conv_input, build_ensemble_dataset, evaluate,
                       make_ensemble_model, predict, predict_proba, stack_embeddings,
                       train_ensemble)
from .io import atomic_write
from .seeding import derived_seed, rng_from
from .vae import Vae, fill, missing_slot_latents
from .vae import train_vae  # unused: kept for perfbench/tracer.py, which patches it here

SCENARIOS = ("S1", "S2", "S3")
DEFAULT_LINK_RATE = 450e6      # bits per second
BYTES_PER_VALUE = 4            # float32 embeddings


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    ep_ens: int
    ep_ens_d: Optional[int] = None       # S2 reuse divisor; S3 pins it to ep_ens
    batch_size: int = 128
    link_rate_bps: float = DEFAULT_LINK_RATE
    per_message_overhead_s: float = 0.0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.ep_ens < 1:
            raise ValueError("ep_ens must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.link_rate_bps > 0 and math.isfinite(self.link_rate_bps)):
            raise ValueError(f"link_rate_bps must be positive and finite, got {self.link_rate_bps}")
        if not (self.per_message_overhead_s >= 0 and math.isfinite(self.per_message_overhead_s)):
            raise ValueError("per_message_overhead_s must be >= 0 and finite, "
                             f"got {self.per_message_overhead_s}")
        if self.scenario == "S2":
            d = self.ep_ens_d
            if d is None or d < 1 or self.ep_ens % d != 0:
                raise ValueError(f"S2 needs ep_ens_d >= 1 dividing ep_ens, got {d}")
        if self.scenario == "S3" and self.ep_ens_d not in (None, self.ep_ens):
            raise ValueError("S3 means ep_ens_d == ep_ens")

    @property
    def passes(self) -> int:
        """How many times the full sample stream is transferred."""
        if self.scenario == "S1":
            return 1
        return self.ep_ens if self.scenario == "S3" else self.ep_ens_d

    @property
    def reuse(self) -> int:
        """Training steps per received batch."""
        if self.scenario == "S2":
            return self.ep_ens // self.ep_ens_d
        return 1


@dataclass
class TransferSchedule:
    """One row per communication. S1: a round is one edge's bulk transfer;
    S2/S3: a round is one stacked mini-batch from all edges."""

    scenario: str
    n_edges: int
    round_rows: np.ndarray        # rows carried per round
    round_edge: np.ndarray        # S1: sending edge per round; S2/S3: -1 (all edges)

    @property
    def comm_count(self) -> int:
        return len(self.round_rows)


def plan_schedule(config: ScenarioConfig, n_per_edge: Sequence[int], n_total: int) -> TransferSchedule:
    """Build the transfer schedule for a run.

    n_per_edge: samples held by each edge (drives S1 transfer sizes).
    n_total: rows of the stacked training set (drives S2/S3 batch counts).
    """
    n_edges = len(n_per_edge)
    if config.scenario == "S1":
        rows = np.asarray(n_per_edge, dtype=np.int64)
        return TransferSchedule("S1", n_edges, rows, np.arange(n_edges, dtype=np.int64))
    total = n_total * config.passes
    if total == 0:
        return TransferSchedule(config.scenario, n_edges,
                                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    b = config.batch_size
    count = math.ceil(total / b)
    rows = np.full(count, b, dtype=np.int64)
    rows[-1] = total - b * (count - 1)
    return TransferSchedule(config.scenario, n_edges, rows,
                            np.full(count, -1, dtype=np.int64))


@dataclass
class ScenarioLedger:
    """Authoritative record of a run's transfers and storage peaks.

    Events are (round, edge, rows, bytes, seconds); in S2/S3 every edge
    contributes one event per round, sized at the full batch row count, which
    is how the per-transfer and server-storage figures are defined.
    """

    scenario: str
    n_edges: int
    comm_count: int
    event_round: np.ndarray
    event_edge: np.ndarray
    event_rows: np.ndarray
    event_bytes: np.ndarray
    event_seconds: np.ndarray
    m_em_transfer_bytes: np.ndarray     # per edge: largest single transfer
    m_server_memory_bytes: int
    link_rate_bps: float

    @property
    def m_em_memory_bytes(self) -> np.ndarray:
        """Per edge: the stored copy of what it sends, its largest transfer."""
        return self.m_em_transfer_bytes

    @property
    def cumulative_bytes(self) -> int:
        return int(self.event_bytes.sum())

    @property
    def total_seconds(self) -> float:
        return float(self.event_seconds.sum())

    def to_summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_edges": self.n_edges,
            "comm_count": self.comm_count,
            "cumulative_bytes": self.cumulative_bytes,
            "cumulative_mb": _mb(self.cumulative_bytes),
            "total_seconds": self.total_seconds,
            "link_rate_bps": self.link_rate_bps,
            "m_em_transfer_mb": [_mb(int(v)) for v in self.m_em_transfer_bytes],
            "m_em_memory_mb": [_mb(int(v)) for v in self.m_em_memory_bytes],
            "m_server_memory_mb": _mb(self.m_server_memory_bytes),
            "m_em_transfer_bytes": [int(v) for v in self.m_em_transfer_bytes],
            "m_server_memory_bytes": int(self.m_server_memory_bytes),
        }

    def write_summary(self, path) -> None:
        with atomic_write(path) as f:
            json.dump(self.to_summary(), f, sort_keys=True, indent=2)

    def write_events_csv(self, path) -> None:
        with atomic_write(path, newline="") as f:
            w = csv.writer(f)
            w.writerow(["round", "edge", "rows", "bytes", "seconds"])
            for r, e, rows, by, s in zip(self.event_round, self.event_edge,
                                         self.event_rows, self.event_bytes,
                                         self.event_seconds):
                w.writerow([int(r), int(e), int(rows), int(by), repr(float(s))])


def _mb(nbytes: int) -> float:
    """Decimal megabytes, presented like the memory tables: one decimal place
    for anything >= 0.1 MB, two below that."""
    mb = nbytes / 1e6
    return round(mb, 1) if mb >= 0.1 or mb == 0 else round(mb, 2)


def account(config: ScenarioConfig, schedule: TransferSchedule, *,
            n_total: int, feature_width: int) -> ScenarioLedger:
    """Turn a schedule into bytes, simulated seconds, and storage peaks."""
    bytes_per_row = feature_width * BYTES_PER_VALUE
    n_edges = schedule.n_edges

    if schedule.scenario == "S1":
        ev_round = np.arange(schedule.comm_count, dtype=np.int64)
        ev_edge = schedule.round_edge.copy()
        ev_rows = schedule.round_rows.copy()
    else:
        # every round fans out to one event per edge
        count = schedule.comm_count
        ev_round = np.repeat(np.arange(count, dtype=np.int64), n_edges)
        ev_edge = np.tile(np.arange(n_edges, dtype=np.int64), count)
        ev_rows = np.repeat(schedule.round_rows, n_edges)
    ev_bytes = ev_rows * bytes_per_row
    ev_seconds = ev_bytes * 8.0 / config.link_rate_bps + config.per_message_overhead_s

    m_transfer = np.zeros(n_edges, dtype=np.int64)
    if len(ev_bytes):
        np.maximum.at(m_transfer, ev_edge, ev_bytes)
    if schedule.scenario == "S1":
        server = n_total * n_edges * bytes_per_row
    elif schedule.scenario == "S2":
        server = config.batch_size * n_edges * bytes_per_row
    else:
        server = 0
    return ScenarioLedger(
        scenario=schedule.scenario, n_edges=n_edges, comm_count=schedule.comm_count,
        event_round=ev_round, event_edge=ev_edge, event_rows=ev_rows,
        event_bytes=ev_bytes, event_seconds=ev_seconds,
        m_em_transfer_bytes=m_transfer, m_server_memory_bytes=int(server),
        link_rate_bps=config.link_rate_bps,
    )


def sample_stream(n: int, passes: int, batch_size: int, rng: np.random.Generator):
    """Yield index batches over ``passes`` seeded reshuffles of ``n`` samples,
    packing batches across pass boundaries."""
    carry = np.zeros(0, dtype=np.int64)
    for _ in range(passes):
        order = np.concatenate([carry, rng.permutation(n)])
        n_full = len(order) // batch_size
        for k in range(n_full):
            yield order[k * batch_size:(k + 1) * batch_size]
        carry = order[n_full * batch_size:]
    if len(carry):
        yield carry


class StreamScheduleError(RuntimeError):
    """The sample stream did not visit every sample ep_ens times."""


@dataclass
class ScenarioRun:
    model: nn.Model
    ledger: ScenarioLedger
    report: object                      # MetricReport
    vaes: list
    train_trace: list
    vae_trace: np.ndarray               # (rounds, N) streaming VAE losses, NaN: no rows
    predictions: np.ndarray
    config: ScenarioConfig


def run_scenario(scenario_cfg: ScenarioConfig, edges: Sequence[EdgeArtifact],
                 train_ds: Dataset, test_ds: Dataset, assignment: EdgeAssignment, *,
                 ens_cfg: EnsembleConfig, policy: str = "vae", seed: int = 0,
                 vaes: Optional[Sequence[Vae]] = None, bin_edges=None) -> ScenarioRun:
    """Drive one full scenario with already-trained edges and report on the
    test split.

    S1 fills the stored training matrix with the caller's per-edge ``vaes``
    (needed only by the ``vae`` policy) and fits the ensemble on it. S2/S3
    ignore ``vaes`` and stream mini-batches: per round each edge's rows feed
    one step of a stacked VAE trained here, missing slots are decoded with
    its current weights, and the ensemble takes ``reuse`` steps on the
    batch. A regression report's binned accuracy uses ``bin_edges``, the
    training split's target bins.
    """
    n_total = len(train_ds)
    n_per_edge = [len(ix) for ix in assignment.train_indices]
    schedule = plan_schedule(scenario_cfg, n_per_edge, n_total)
    ledger = account(scenario_cfg, schedule, n_total=n_total,
                     feature_width=ens_cfg.feature_width)
    labels = np.asarray(train_ds.labels)
    fill_seed = derived_seed(seed, "fill")

    if scenario_cfg.scenario == "S1":
        vaes = list(vaes) if vaes is not None else []
        values = build_ensemble_dataset(edges, vaes, train_ds, assignment.train_indices,
                                        policy=policy, fill_seed=fill_seed)
        model, trace = train_ensemble(values, labels, replace(
            ens_cfg, epochs=scenario_cfg.ep_ens, batch_size=scenario_cfg.batch_size))
        vae_trace = np.zeros((0, len(edges)))
    else:
        model, trace, vaes, vae_trace = _fit_streaming(scenario_cfg, edges, train_ds, assignment,
                                                       ens_cfg, policy, seed)

    test_values = build_ensemble_dataset(edges, vaes, test_ds, assignment.test_indices,
                                         policy=policy, fill_seed=fill_seed)
    preds = predict(model, test_values, task=ens_cfg.task)
    if ens_cfg.task == "classification":
        scores = predict_proba(model, test_values)
        report = evaluate(preds, test_ds.labels, "classification",
                          scores=scores, n_classes=ens_cfg.n_outputs)
    else:
        report = evaluate(preds, test_ds.labels, "regression", bin_edges=bin_edges)
    return ScenarioRun(model=model, ledger=ledger, report=report, vaes=list(vaes),
                       train_trace=trace, vae_trace=vae_trace, predictions=preds,
                       config=scenario_cfg)


def _fit_streaming(scenario_cfg: ScenarioConfig, edges, train_ds, assignment,
                   ens_cfg: EnsembleConfig, policy: str, seed):
    """S2/S3: per received batch, one stacked VAE step and one decode of the
    missing slots for all edges, then the ensemble steps. Returns (model,
    ensemble loss trace, per-edge VAEs, (rounds, N) VAE loss trace)."""
    values, mask = stack_embeddings(edges, train_ds, assignment.train_indices)
    labels = np.asarray(train_ds.labels)
    n_total = len(train_ds)
    width = ens_cfg.feature_width
    n_edges = len(edges)
    fill_seed = derived_seed(seed, "fill")

    vaes = Vae(width, seed=[derived_seed(seed, "vae", i) for i in range(n_edges)])
    vae_rngs = [rng_from(seed, "vae-train", i) for i in range(n_edges)]
    edge_ix = np.arange(n_edges)[:, None]

    # latents are fixed per (edge, sample) slot for the whole run
    if policy == "vae":
        slot_z = missing_slot_latents(mask, fill_seed)

    model = make_ensemble_model(ens_cfg)
    opt = nn.Adam(ens_cfg.lr)
    rng_stream = rng_from(seed, "stream")
    n_classes = ens_cfg.n_outputs if ens_cfg.task == "classification" else None
    reuse = scenario_cfg.reuse
    visits = np.zeros(n_total, dtype=np.int64)
    trace, vae_trace, seen = [], [], 0

    for batch_idx in sample_stream(n_total, scenario_cfg.passes, scenario_cfg.batch_size, rng_stream):
        epoch = seen // n_total * reuse         # ensemble epoch of this batch's first step
        seen += len(batch_idx)
        with nn.epoch_scope(epoch):             # NonFiniteError names the epoch
            batch_vals = values[batch_idx]
            held = mask[batch_idx].T            # (N, b): edge i sent row j
            counts = held.sum(axis=1)
            # one stacked VAE step; edge i trains on the rows it sent, in batch order
            order = np.argsort(~held, axis=1, kind="stable")[:, :counts.max()]
            vae_trace.append(vaes.train_step(batch_vals[order, edge_ix], vae_rngs, counts))
            # impute the batch's missing slots with the current decoders
            if policy == "vae":
                gaps = len(batch_idx) - counts
                if gaps.any():
                    order = np.argsort(held, axis=1, kind="stable")[:, :gaps.max()]
                    out = vaes.decode(slot_z[edge_ix, batch_idx[order]])
                    e, j = np.nonzero(np.arange(order.shape[1]) < gaps[:, None])
                    batch_vals[order[e, j], e] = out[e, j]
            else:
                batch_vals = fill(policy, batch_vals, held.T)
            x = _as_conv_input(batch_vals)
            y = labels[batch_idx]
            trace += [nn.train_step(model, opt, x, y, loss=ens_cfg.loss, n_classes=n_classes,
                                    epoch=epoch + step) for step in range(reuse)]
        np.add.at(visits, batch_idx, reuse)
    if visits.sum() and not (visits == scenario_cfg.ep_ens).all():
        raise StreamScheduleError(f"stream visited samples {visits.min()}..{visits.max()} "
                                  f"times, not ep_ens={scenario_cfg.ep_ens}")
    vae_trace = np.array(vae_trace).reshape(-1, n_edges)
    return model, trace, [vaes.member(i) for i in range(n_edges)], vae_trace
