"""The benchmark's tracer patches named entry points of ``edgefuse`` (and the
``from ... import`` aliases other modules hold). A rename or a dropped alias
breaks a traced bench run; this check fails on it without running the bench."""

import importlib
import sys
from pathlib import Path

import pytest

from edgefuse import cli
from edgefuse.config import ExperimentConfig
from test_cli import micro_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("tracer")


def _bindings(tracer, span):
    """(holder, attribute) of every place the span's wrapper is installed."""
    holder, attr = tracer._owner(span.name)
    return [(holder, attr)] + [(importlib.import_module(f"edgefuse.{m}"), attr) for m in span.also]


def test_every_span_installs_and_uninstall_restores():
    tracer = _tracer()
    spans = tracer.SPANS
    before = {(span.name, i): getattr(h, a)
              for span in spans for i, (h, a) in enumerate(_bindings(tracer, span))}
    t = tracer.Tracer()
    t.install()
    try:
        for span in spans:
            for i, (holder, attr) in enumerate(_bindings(tracer, span)):
                patched = getattr(holder, attr)
                assert patched is not before[span.name, i], f"{span.name} not patched"
                assert patched.__wrapped__ is before[span.name, i], span.name
    finally:
        t.uninstall()
    for span in spans:
        for i, (holder, attr) in enumerate(_bindings(tracer, span)):
            assert getattr(holder, attr) is before[span.name, i], f"{span.name} not restored"


# A traced bench run also fails when a span's ``rows`` extractor raises mid-call
# (the span is left half recorded and ``Tracer.aggregate`` cannot bin it) or
# when a span fires on a workload outside its ``on``; these run the bench's
# staged pipelines at micro scale under the tracer.

def _traced_pipeline(tmp_path, scenario, stages):
    """Run ``stages`` (names of ``cli.stage_*``) and then the report on the
    micro config under an installed tracer; returns the tracer and the config."""
    cfg = ExperimentConfig.from_dict(micro_config(tmp_path, scenario=scenario))
    t = _tracer().Tracer()
    t.install()
    try:
        for stage in stages:
            getattr(cli, f"stage_{stage}")(cfg)
        cli.collect_report_rows([cfg.output_dir])
    finally:
        t.uninstall()
    return t, cfg


@pytest.mark.parametrize("workload,scenario,stages", [
    ("s1_oneshot", "S1", ("partition", "train_edges", "train_vaes", "train_ensemble")),
    ("s3_stream", "S3", ("partition", "train_edges", "simulate")),
], ids=["s1_oneshot", "s3_stream"])
def test_traced_pipeline_records_whole_spans_on_their_workloads(tmp_path, workload, scenario,
                                                                stages):
    t, cfg = _traced_pipeline(tmp_path, scenario, stages)
    lengths = {len(getattr(t, a)) for a in ("name_id", "parent", "start", "end", "child", "rows")}
    assert lengths == {len(t)}, "a span was left half recorded"
    calls = {name: agg["calls"] for name, agg in t.aggregate(0, len(t)).items()}
    wrong = [f"{s.name} {'fired' if calls[s.name] else 'silent'}"
             for s in t.spans if bool(calls[s.name]) != (workload in s.on)]
    assert not wrong
    if scenario == "S1":        # one decode per edge per split
        assert calls["vae.Vae.decode"] == 2 * cfg.n_edges
