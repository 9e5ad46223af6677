import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgefuse import comms
from edgefuse.comms import (ScenarioConfig, StreamScheduleError, account, plan_schedule,
                            run_scenario, sample_stream)
from edgefuse.config import ExperimentConfig
from edgefuse.datasets import PartitionSpec, make_synthetic_classification, sample_edge_assignment
from edgefuse.edge import EdgeModelConfig, extract_embeddings, random_edge_config, train_edge
from edgefuse.ensemble import EnsembleConfig
from edgefuse.vae import train_vae


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_s2_divisor_must_divide():
    with pytest.raises(ValueError):
        ScenarioConfig("S2", ep_ens=100, ep_ens_d=30)
    with pytest.raises(ValueError):
        ScenarioConfig("S2", ep_ens=100, ep_ens_d=None)
    cfg = ScenarioConfig("S2", ep_ens=100, ep_ens_d=20)
    assert cfg.passes == 20 and cfg.reuse == 5


def test_s3_pins_divisor_to_epochs():
    cfg = ScenarioConfig("S3", ep_ens=100)
    assert cfg.passes == 100 and cfg.reuse == 1
    with pytest.raises(ValueError):
        ScenarioConfig("S3", ep_ens=100, ep_ens_d=20)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig("S4", ep_ens=10)


@pytest.mark.parametrize("field,value", [
    ("link_rate_bps", 0.0), ("link_rate_bps", -5.0), ("link_rate_bps", math.inf),
    ("link_rate_bps", math.nan), ("per_message_overhead_s", -1.0),
])
def test_link_rate_and_overhead_checked_at_parse(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioConfig("S1", ep_ens=1, **{field: value})
    doc = {"dataset": {"kind": "synthetic", "n_train": 10, "n_test": 10, "classes": 2,
                       "dims": 2},
           "task": "classification", "n_edges": 2, "alpha": 0.5, "delta": 0.2, "seed": 0,
           "output_dir": "run", "scenario": {"name": "S1", field: value}}
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# schedule counts
# ---------------------------------------------------------------------------

def test_reference_counts():
    s3 = plan_schedule(ScenarioConfig("S3", ep_ens=100, batch_size=128), [0] * 20, 50000)
    assert s3.comm_count == 39063
    s2 = plan_schedule(ScenarioConfig("S2", ep_ens=100, ep_ens_d=20, batch_size=128), [0] * 20, 50000)
    assert s2.comm_count == 7813


def test_s1_one_transfer_per_edge():
    sched = plan_schedule(ScenarioConfig("S1", ep_ens=100), [100, 200, 300], 600)
    assert sched.comm_count == 3
    assert np.array_equal(sched.round_rows, [100, 200, 300])
    assert np.array_equal(sched.round_edge, [0, 1, 2])


def test_count_formula_matches_stream_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 400))
        b = int(rng.integers(1, 64))
        passes = int(rng.integers(1, 9))
        cfg = ScenarioConfig("S3", ep_ens=passes, batch_size=b)
        sched = plan_schedule(cfg, [0], n)
        batches = list(sample_stream(n, passes, b, np.random.default_rng(1)))
        assert sched.comm_count == math.ceil(n * passes / b) == len(batches)
        assert [len(x) for x in batches] == list(sched.round_rows)
        visits = np.zeros(n, dtype=int)
        for batch in batches:
            np.add.at(visits, batch, 1)
        assert np.all(visits == passes)


def test_schedule_equals_the_stream_for_any_stream():
    """S2 and S3: plan_schedule's comm_count and round_rows are the batches
    sample_stream yields, for any sample count, batch size, passes and seed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=st.integers(0, 300), b=st.integers(1, 70), ep_ens=st.integers(1, 12),
                      s2_divisor=st.integers(1, 12), seed=st.integers(0, 2**16))
    def check(n, b, ep_ens, s2_divisor, seed):
        if ep_ens % s2_divisor == 0:
            cfg = ScenarioConfig("S2", ep_ens=ep_ens, ep_ens_d=s2_divisor, batch_size=b)
        else:
            cfg = ScenarioConfig("S3", ep_ens=ep_ens, batch_size=b)
        sched = plan_schedule(cfg, [0, 0], n)
        batches = list(sample_stream(n, cfg.passes, b, np.random.default_rng(seed)))
        assert sched.comm_count == len(batches) == math.ceil(n * cfg.passes / b)
        assert list(sched.round_rows) == [len(x) for x in batches]
        assert np.array_equal(np.bincount(np.concatenate(batches or [np.zeros(0, int)]),
                                          minlength=n), np.full(n, cfg.passes))

    check()


def test_s3_visit_counts_equal_s1():
    # one pass per epoch in S3 gives the same per-sample visit counts as
    # epoch-based training: ep_ens visits each
    n, ep = 57, 6
    visits = np.zeros(n, dtype=int)
    for batch in sample_stream(n, ep, 16, np.random.default_rng(3)):
        np.add.at(visits, batch, 1)
    assert np.all(visits == ep)


def test_zero_samples_empty_ledger():
    cfg = ScenarioConfig("S3", ep_ens=5, batch_size=8)
    sched = plan_schedule(cfg, [0, 0], 0)
    led = account(cfg, sched, n_total=0, feature_width=64)
    assert led.comm_count == 0
    assert led.cumulative_bytes == 0
    assert led.total_seconds == 0.0
    assert np.all(led.m_em_transfer_bytes == 0)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def test_table_byte_values():
    c1 = ScenarioConfig("S1", ep_ens=100)
    led = account(c1, plan_schedule(c1, [30000, 35000, 43500], 50000),
                  n_total=50000, feature_width=64)
    s = led.to_summary()
    assert s["m_em_transfer_mb"] == [7.7, 9.0, 11.1]
    assert s["m_em_memory_mb"] == [7.7, 9.0, 11.1]


def test_server_memory_by_scenario():
    for name, expected in [("S1", 256.0), ("S2", 0.7), ("S3", 0.0)]:
        cfg = ScenarioConfig(name, ep_ens=100, ep_ens_d=20 if name == "S2" else None,
                             batch_size=128)
        led = account(cfg, plan_schedule(cfg, [50000] * 20, 50000),
                      n_total=50000, feature_width=64)
        assert led.to_summary()["m_server_memory_mb"] == expected, name


def test_bytes_conservation():
    cfg = ScenarioConfig("S2", ep_ens=8, ep_ens_d=4, batch_size=16)
    sched = plan_schedule(cfg, [0] * 3, 100)
    led = account(cfg, sched, n_total=100, feature_width=10)
    assert led.cumulative_bytes == int(led.event_bytes.sum())
    # every edge sends every round at full batch rows
    assert len(led.event_bytes) == sched.comm_count * 3
    assert led.cumulative_bytes == int(sched.round_rows.sum()) * 3 * 10 * 4


def test_cumulative_ordering_s3_s2_s1():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(50, 500))
        n_edges = int(rng.integers(1, 8))
        per_edge = [int(rng.integers(1, n + 1)) for _ in range(n_edges)]
        ep = int(rng.choice([4, 6, 12]))
        divisors = [d for d in range(1, ep + 1) if ep % d == 0]
        ep_d = int(rng.choice(divisors))
        b = int(rng.integers(1, 64))
        led1 = account(*(lambda c: (c, plan_schedule(c, per_edge, n)))(
            ScenarioConfig("S1", ep_ens=ep, batch_size=b)), n_total=n, feature_width=8)
        led2 = account(*(lambda c: (c, plan_schedule(c, per_edge, n)))(
            ScenarioConfig("S2", ep_ens=ep, ep_ens_d=ep_d, batch_size=b)), n_total=n, feature_width=8)
        led3 = account(*(lambda c: (c, plan_schedule(c, per_edge, n)))(
            ScenarioConfig("S3", ep_ens=ep, batch_size=b)), n_total=n, feature_width=8)
        assert led3.cumulative_bytes >= led2.cumulative_bytes >= led1.cumulative_bytes


def test_latency_is_linear_in_rate():
    base = ScenarioConfig("S1", ep_ens=1, link_rate_bps=450e6)
    fast = ScenarioConfig("S1", ep_ens=1, link_rate_bps=900e6)
    sched = plan_schedule(base, [1000, 2000], 3000)
    t_base = account(base, sched, n_total=3000, feature_width=64).total_seconds
    t_fast = account(fast, plan_schedule(fast, [1000, 2000], 3000),
                     n_total=3000, feature_width=64).total_seconds
    assert t_base == pytest.approx(2 * t_fast, rel=1e-12)
    assert t_base == pytest.approx((1000 + 2000) * 64 * 4 * 8 / 450e6, rel=1e-12)


def test_per_message_overhead():
    cfg = ScenarioConfig("S1", ep_ens=1, per_message_overhead_s=0.5)
    led = account(cfg, plan_schedule(cfg, [10, 10], 20), n_total=20, feature_width=4)
    base = 10 * 4 * 4 * 8 / cfg.link_rate_bps
    assert led.total_seconds == pytest.approx(2 * (base + 0.5))


def test_ledger_deterministic():
    cfg = ScenarioConfig("S3", ep_ens=3, batch_size=32)
    a = account(cfg, plan_schedule(cfg, [0] * 2, 100), n_total=100, feature_width=16)
    b = account(cfg, plan_schedule(cfg, [0] * 2, 100), n_total=100, feature_width=16)
    assert a.to_summary() == b.to_summary()
    assert np.array_equal(a.event_bytes, b.event_bytes)


def test_events_csv_roundtrip(tmp_path):
    import csv
    cfg = ScenarioConfig("S2", ep_ens=4, ep_ens_d=2, batch_size=8)
    led = account(cfg, plan_schedule(cfg, [0] * 2, 20), n_total=20, feature_width=4)
    led.write_events_csv(tmp_path / "ledger.csv")
    with open(tmp_path / "ledger.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(led.event_bytes)
    assert sum(int(r["bytes"]) for r in rows) == led.cumulative_bytes


# ---------------------------------------------------------------------------
# end-to-end scenario drivers (micro scale)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def micro_setup():
    c, dims, n_edges = 3, 4, 2
    train = make_synthetic_classification(90, c, dims, seed=1, center_seed=1, separation=5.0)
    test = make_synthetic_classification(45, c, dims, seed=2, center_seed=1,
                                         separation=5.0)
    asg = sample_edge_assignment(train, test, PartitionSpec(alpha=0.5, delta=0.2,
                                                            n_edges=n_edges, seed=3))
    edges = []
    for i in range(n_edges):
        base = random_edge_config("classification", (dims,), seed=10 + i, n_classes=c)
        cfg = EdgeModelConfig(task="classification", specs=base.specs, input_shape=(dims,),
                              epochs=3, feature_width=64, seed=10 + i, n_classes=c,
                              lr=0.02, batch_size=16)
        edges.append(train_edge(cfg, train, asg.train_indices[i]))
    ens_cfg = EnsembleConfig(n_edges=n_edges, feature_width=64, task="classification",
                             n_outputs=c, lr=1e-3, seed=5)
    return train, test, asg, edges, ens_cfg


@pytest.fixture(scope="module")
def s1_vaes(micro_setup):
    """One VAE per edge, trained on its embeddings of its training rows (S1's)."""
    train, _, asg, edges, _ = micro_setup
    return [train_vae(extract_embeddings(art, train, asg.train_indices[i]), 2, 20 + i)[0]
            for i, art in enumerate(edges)]


@pytest.mark.parametrize("name,ep_d", [("S1", None), ("S2", 2), ("S3", None)])
def test_run_scenario_produces_consistent_ledger(micro_setup, s1_vaes, name, ep_d):
    train, test, asg, edges, ens_cfg = micro_setup
    cfg = ScenarioConfig(name, ep_ens=4, ep_ens_d=ep_d, batch_size=16)
    run = run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", seed=7,
                       vaes=s1_vaes if name == "S1" else None)
    if name == "S1":
        assert run.ledger.comm_count == len(edges)
    else:
        assert run.ledger.comm_count == math.ceil(len(train) * cfg.passes / 16)
    assert run.report.accuracy is not None
    assert len(run.predictions) == len(test)
    assert run.ledger.cumulative_bytes > 0


def test_run_scenario_deterministic(micro_setup):
    train, test, asg, edges, ens_cfg = micro_setup
    cfg = ScenarioConfig("S3", ep_ens=3, batch_size=16)
    r1 = run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", seed=11)
    r2 = run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", seed=11)
    assert np.array_equal(r1.predictions, r2.predictions)
    assert r1.ledger.to_summary() == r2.ledger.to_summary()


def test_s2_and_s3_visit_budget(micro_setup):
    # _fit_streaming raises StreamScheduleError unless every sample is
    # visited ep_ens times; a successful run is the check
    train, test, asg, edges, ens_cfg = micro_setup
    for cfg in (ScenarioConfig("S2", ep_ens=4, ep_ens_d=2, batch_size=8),
                ScenarioConfig("S3", ep_ens=4, batch_size=8)):
        run = run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", seed=13)
        expected_steps = math.ceil(len(train) * cfg.passes / 8) * cfg.reuse
        assert len(run.train_trace) == expected_steps


def test_run_scenario_zero_policy(micro_setup):
    train, test, asg, edges, ens_cfg = micro_setup
    cfg = ScenarioConfig("S1", ep_ens=2, batch_size=16)
    run = run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="zero", seed=17)
    assert run.report.accuracy is not None
    assert run.vaes == []


def test_s1_vae_policy_needs_the_callers_vaes(micro_setup, s1_vaes):
    train, test, asg, edges, ens_cfg = micro_setup
    cfg = ScenarioConfig("S1", ep_ens=1, batch_size=16)
    for vaes in (None, s1_vaes[:1]):
        with pytest.raises(ValueError, match="one VAE per edge"):
            run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", vaes=vaes)


@pytest.mark.parametrize("name", ["S1", "S3"])
def test_test_split_mean_and_max_come_from_the_training_receipts(micro_setup, monkeypatch, name):
    # every training row is received the same number of times in every
    # scenario, so the statistics are those of each edge's training embeddings
    train, test, asg, edges, ens_cfg = micro_setup
    filled, build = [], comms.build_ensemble_dataset
    monkeypatch.setattr(comms, "build_ensemble_dataset",
                        lambda *a, **k: filled.append(build(*a, **k)) or filled[-1])
    for policy, reduce in (("mean", np.mean), ("max", np.max)):
        run_scenario(ScenarioConfig(name, ep_ens=2, batch_size=16), edges, train, test, asg,
                     ens_cfg=ens_cfg, policy=policy, seed=3)
        for i, art in enumerate(edges):
            gaps = np.setdiff1d(np.arange(len(test)), asg.test_indices[i])
            assert gaps.size
            emb = extract_embeddings(art, train, asg.train_indices[i]).astype(np.float64)
            assert np.allclose(filled[-1][gaps, i], reduce(emb, axis=0), rtol=1e-5, atol=1e-6)


def _drop_last_batch(stream):
    def dropped(*args):
        batches = list(stream(*args))
        yield from batches[:-1]
    return dropped


def test_visit_budget_violation_raises(micro_setup, monkeypatch):
    train, test, asg, edges, ens_cfg = micro_setup
    monkeypatch.setattr(comms, "sample_stream", _drop_last_batch(comms.sample_stream))
    cfg = ScenarioConfig("S3", ep_ens=2, batch_size=16)
    with pytest.raises(StreamScheduleError, match="ep_ens=2"):
        run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", seed=13)


VISIT_BUDGET_UNDER_O = """
import numpy as np
from edgefuse import comms
from edgefuse.datasets import PartitionSpec, make_synthetic_classification, sample_edge_assignment
from edgefuse.edge import random_edge_config, train_edge
from edgefuse.ensemble import EnsembleConfig

assert not __debug__
train = make_synthetic_classification(40, 2, 3, seed=1, center_seed=1)
test = make_synthetic_classification(20, 2, 3, seed=2, center_seed=1)
asg = sample_edge_assignment(train, test, PartitionSpec(alpha=0.5, delta=0.2, n_edges=2, seed=3))
edges = [train_edge(random_edge_config("classification", (3,), seed=i, n_classes=2,
                                       epoch_range=(1, 1), feature_width=8),
                    train, asg.train_indices[i]) for i in range(2)]
ens = EnsembleConfig(n_edges=2, feature_width=8, task="classification", n_outputs=2)
stream = comms.sample_stream
def dropped(*args):
    yield from list(stream(*args))[:-1]
comms.sample_stream = dropped
try:
    comms.run_scenario(comms.ScenarioConfig("S3", ep_ens=2, batch_size=8), edges, train, test,
                       asg, ens_cfg=ens, seed=1)
except comms.StreamScheduleError:
    print("raised")
"""


def test_visit_budget_violation_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", VISIT_BUDGET_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def _rows_sent_per_round(n, cfg, asg, seed):
    held = np.zeros((n, len(asg.train_indices)), dtype=bool)
    for i, idx in enumerate(asg.train_indices):
        held[idx, i] = True
    stream = sample_stream(n, cfg.passes, cfg.batch_size, comms.rng_from(seed, "stream"))
    return np.array([held[b].sum(axis=0) for b in stream])


def test_streaming_vae_trace_has_a_loss_per_round_and_edge(micro_setup, s1_vaes):
    train, test, asg, edges, ens_cfg = micro_setup
    cfg = ScenarioConfig("S3", ep_ens=3, batch_size=2)
    run = run_scenario(cfg, edges, train, test, asg, ens_cfg=ens_cfg, policy="vae", seed=19)
    sent = _rows_sent_per_round(len(train), cfg, asg, seed=19)
    assert run.vae_trace.shape == (run.ledger.comm_count, len(edges)) == sent.shape
    idle = sent == 0
    assert idle.any() and not idle.all()
    assert np.array_equal(np.isnan(run.vae_trace), idle)
    assert np.isfinite(run.vae_trace[~idle]).all()
    s1 = run_scenario(ScenarioConfig("S1", ep_ens=1), edges, train, test, asg,
                      ens_cfg=ens_cfg, policy="vae", seed=19, vaes=s1_vaes)
    assert s1.vae_trace.shape == (0, len(edges))
