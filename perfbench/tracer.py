"""Span recorder for the traced benchmark run.

The tracer replaces each declared entry point of ``edgefuse`` with a wrapper
(``setattr`` on the module or class) that records one span per call: name,
start, end, the span that caused it and, where the call carries a batch, its
row count. Spans stay in memory until ``write`` saves them at the end of the
run. Self time is a span's duration minus the time its direct child spans
cover. Nothing under ``src/`` changes: the wrappers live only while the
tracer is installed.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

PIPELINES = ("s1_oneshot", "s3_stream")
S1 = ("s1_oneshot",)
S3 = ("s3_stream",)
TILED = ("tiled_step",)
ALL = PIPELINES + TILED


def _rows(position: int) -> Callable:
    """Row count of the positional argument at ``position`` (self counts)."""
    return lambda args: len(args[position])


@dataclass(frozen=True)
class Span:
    """One traced entry point.

    name:   ``<module>.<callable>`` as defined in ``edgefuse.<module>``.
    stats:  which of s / self_s / calls / rows the benchmark reports.
    on:     the workloads meant to exercise it; it must stay silent on the rest.
    also:   modules that bound the name with ``from ... import`` and so look
            it up in their own namespace; the wrapper is installed there too.
    rows:   extracts the row count of one call, for the ``rows`` stat.
    phase:  "setup" spans are reported per set-up, "work" spans per unit.
    """

    name: str
    stats: tuple
    on: tuple
    also: tuple = ()
    rows: Optional[Callable] = None
    phase: str = "work"


SPANS = (
    # cli: the staged pipeline; every stage regenerates the dataset
    Span("cli.stage_partition", ("s",), PIPELINES, phase="setup"),
    Span("cli.load_datasets", ("s", "calls"), PIPELINES),
    Span("cli.stage_train_edges", ("s", "self_s"), PIPELINES),
    Span("cli.stage_train_vaes", ("s", "self_s"), S1),
    Span("cli.stage_train_ensemble", ("s", "self_s"), S1),
    Span("cli.stage_simulate", ("s", "self_s"), S3),
    Span("cli.collect_report_rows", ("s",), PIPELINES),
    # datasets
    Span("datasets.make_synthetic_classification", ("s", "calls"), PIPELINES, also=("cli",)),
    Span("datasets.sample_edge_assignment", ("s",), PIPELINES, also=("cli",), phase="setup"),
    # edge
    Span("edge.train_edge", ("s", "self_s", "calls"), PIPELINES, also=("cli",)),
    Span("edge.extract_embeddings", ("s", "calls", "rows"), PIPELINES,
         also=("cli", "ensemble"), rows=_rows(2)),
    Span("edge.edge_accuracy", ("s", "calls"), PIPELINES, also=("cli",)),
    # nn: kernels are module functions, so patching them also catches the
    # layer classes and the tiled executor, which look them up at call time
    Span("nn.conv2d_forward", ("s", "calls"), ALL),
    Span("nn.conv2d_backward", ("s", "calls"), ALL),
    Span("nn.dense_forward", ("s", "calls"), ALL),
    Span("nn.dense_backward", ("s", "calls"), ALL),
    Span("nn.relu_forward", ("s",), ALL),
    Span("nn.relu_backward", ("s",), ALL),
    Span("nn.maxpool2d_forward", ("s", "calls"), TILED),
    Span("nn.maxpool2d_backward", ("s", "calls"), TILED),
    Span("nn.Model.forward", ("s", "self_s", "calls"), ALL),
    Span("nn.Model.backward", ("s", "self_s", "calls"), ALL),
    Span("nn.fit", ("s", "self_s", "calls"), PIPELINES),
    Span("nn.SGD.step", ("s", "calls"), PIPELINES),
    Span("nn.Adam.step", ("s", "calls"), PIPELINES),
    # vae
    Span("vae.Vae.train_step", ("s", "self_s", "calls", "rows"), PIPELINES, rows=_rows(1)),
    Span("vae.Vae.decode", ("s", "calls", "rows"), PIPELINES, rows=_rows(1)),
    Span("vae.train_vae", ("s", "self_s", "calls"), S1, also=("comms", "cli")),
    Span("vae.missing_slot_latents", ("s", "calls"), PIPELINES, also=("comms",)),
    Span("vae.fill", ("s", "self_s", "calls"), PIPELINES, also=("comms", "ensemble")),
    # ensemble
    Span("ensemble.build_ensemble_dataset", ("s", "self_s"), PIPELINES, also=("comms",)),
    Span("ensemble.predict", ("s",), PIPELINES, also=("comms",)),
    Span("ensemble.predict_proba", ("s",), PIPELINES, also=("comms",)),
    Span("ensemble.vote_baselines", ("s",), PIPELINES),
    # metrics
    Span("metrics.classification_report", ("s", "calls"), PIPELINES, also=("ensemble",)),
    # comms: run_scenario's self time is the streaming loop's own indexing,
    # copying and np.add.at
    Span("comms.run_scenario", ("s", "self_s", "calls"), PIPELINES),
    # tiling
    Span("tiling.execute_plan", ("s", "self_s", "calls"), TILED),
    Span("tiling.plan_tiling", ("s", "calls"), TILED, phase="setup"),
    # reported only as tiling.audit_tiles.per_step: tiles produced per step
    Span("tiling.StreamAudit.produce", (), TILED),
    # io
    Span("io.save_artifact", ("s", "calls"), PIPELINES),
    Span("io.load_artifact", ("s", "calls"), PIPELINES),
)

STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "rows/call"}


def _owner(dotted: str):
    """(object holding the attribute, attribute name) for a ``<module>.<...>`` name."""
    parts = dotted.split(".")
    obj = importlib.import_module(f"edgefuse.{parts[0]}")
    for part in parts[1:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


class Tracer:
    """Installs span-recording wrappers and keeps every span in memory."""

    def __init__(self, spans=SPANS):
        self.spans = tuple(spans)
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")        # time covered by direct children
        self.rows = array("q")         # -1 when the span has no row count
        self._open: list = []
        self._saved: list = []         # (holder, attribute, original)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for idx, span in enumerate(self.spans):
                holder, attr = _owner(span.name)
                original = getattr(holder, attr)
                wrapper = self._wrap(original, idx, span.rows)
                targets = [holder]
                for mod in span.also:
                    alias = importlib.import_module(f"edgefuse.{mod}")
                    if getattr(alias, attr, None) is not original:
                        raise LookupError(f"edgefuse.{mod}.{attr} is not {span.name}")
                    targets.append(alias)
                for target in targets:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def _wrap(self, fn, idx: int, rows_of):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.start)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.name_id.append(idx)
            tracer.parent.append(parent)
            tracer.rows.append(rows_of(args) if rows_of is not None else -1)
            tracer.child.append(0.0)
            tracer.end.append(0.0)
            tracer._open.append(sid)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._open.pop()
                tracer.end[sid] = t1
                if parent >= 0:
                    tracer.child[parent] += t1 - tracer.start[sid]

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-span totals over spans recorded in [lo, hi):
        {name: {"calls", "s", "self_s", "rows"}} with rows summed."""
        # slicing copies, so no buffer stays exported while recording goes on
        names = np.frombuffer(self.name_id[lo:hi], dtype=np.uint16)
        start = np.frombuffer(self.start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.float64)
        child = np.frombuffer(self.child[lo:hi], dtype=np.float64)
        rows = np.frombuffer(self.rows[lo:hi], dtype=np.int64)
        dur = end - start
        k = len(self.spans)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        row_sum = np.bincount(names, weights=np.maximum(rows, 0), minlength=k)
        return {span.name: {"calls": int(calls[i]), "s": float(total[i]),
                            "self_s": float(self_s[i]), "rows": int(row_sum[i])}
                for i, span in enumerate(self.spans)}

    def write(self, path) -> None:
        """Save every span: name index, parent span index (-1 at the root),
        start and end in perf_counter seconds, and rows (-1 when none)."""
        np.savez_compressed(
            path, names=np.array([s.name for s in self.spans]),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            rows=np.frombuffer(self.rows, dtype=np.int64))
