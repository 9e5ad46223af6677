"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

1. communication counts of the S2/S3 schedules (exact);
2. memory and transfer accounting of S1/S2/S3 (table-style values);
3. tiling equivalence: tiled products and whole tiled plans equal the untiled
   engine (>= 200 random cases);
4. gradient fidelity: analytic gradients against central differences
   (>= 100 seeded micro-instances).
"""

import math
import time

import numpy as np
import pytest

from edgefuse import nn
from edgefuse.comms import ScenarioConfig, account, plan_schedule
from edgefuse.ensemble import EnsembleConfig, make_ensemble_model
from edgefuse.tiling import (execute_plan, plan_tiling, request_from_model,
                             tiled_conv2d, tiled_matmul)
from edgefuse.vae import Vae

from helpers import max_rel_err, numeric_grad


def _verdict(criterion, description, ok):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


# ---------------------------------------------------------------------------
# 1. communication counts (exact)
# ---------------------------------------------------------------------------

def test_criterion_1_communication_counts():
    start = time.time()
    s3 = plan_schedule(ScenarioConfig("S3", ep_ens=100, batch_size=128), [0] * 20, 50000)
    s2 = plan_schedule(ScenarioConfig("S2", ep_ens=100, ep_ens_d=20, batch_size=128),
                       [0] * 20, 50000)
    elapsed = time.time() - start
    ok = s3.comm_count == 39063 and s2.comm_count == 7813 and elapsed < 1.0
    _verdict(1, f"comm counts S3={s3.comm_count} (want 39063), S2={s2.comm_count} "
                f"(want 7813), {elapsed * 1000:.0f} ms", ok)


# ---------------------------------------------------------------------------
# 2. memory accounting (Table-style values)
# ---------------------------------------------------------------------------

def test_criterion_2_memory_accounting():
    start = time.time()
    checks = []

    cfg1 = ScenarioConfig("S1", ep_ens=100, batch_size=128)
    per_edge = [30000, 35000, 43500] + [30000] * 17          # N = 20 edges
    led1 = account(cfg1, plan_schedule(cfg1, per_edge, 50000),
                   n_total=50000, feature_width=64)
    s1 = led1.to_summary()
    for got, want in zip(s1["m_em_transfer_mb"], (7.7, 9.0, 11.1)):
        checks.append(abs(got - want) <= 0.05)
    checks.append(abs(s1["m_server_memory_mb"] - 256.0) <= 0.05)

    cfg2 = ScenarioConfig("S2", ep_ens=100, ep_ens_d=20, batch_size=128)
    led2 = account(cfg2, plan_schedule(cfg2, [30000] * 20, 50000),
                   n_total=50000, feature_width=64)
    s2 = led2.to_summary()
    checks.append(abs(s2["m_server_memory_mb"] - 0.7) <= 0.05)
    checks.append(abs(s2["m_em_transfer_mb"][0] - 0.03) <= 0.05)

    cfg3 = ScenarioConfig("S3", ep_ens=100, batch_size=128)
    led3 = account(cfg3, plan_schedule(cfg3, [30000] * 20, 50000),
                   n_total=50000, feature_width=64)
    s3 = led3.to_summary()
    checks.append(s3["m_server_memory_mb"] == 0)
    checks.append(abs(s3["m_em_transfer_mb"][0] - 0.03) <= 0.05)

    elapsed = time.time() - start
    checks.append(elapsed < 1.0)
    _verdict(2, f"transfer {s1['m_em_transfer_mb']} MB, server "
                f"{s1['m_server_memory_mb']}/{s2['m_server_memory_mb']}/"
                f"{s3['m_server_memory_mb']} MB, batch {s2['m_em_transfer_mb'][0]} MB, "
                f"{elapsed * 1000:.0f} ms", all(checks))


# ---------------------------------------------------------------------------
# 3. tiling equivalence (>= 200 random cases)
# ---------------------------------------------------------------------------

def test_criterion_3_tiling_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    cases = 0
    failures = []
    worst = {"matmul-f32": 0.0, "conv-f32": 0.0}

    def factors_of(n):
        return [f for f in range(1, n + 1) if n % f == 0]

    # tiled matmul: random shapes, all-ones and maximal factors included
    for _ in range(60):
        y = int(rng.choice([2, 3, 4, 6, 8, 12, 16]))
        m1i = rng.integers(-40, 40, size=(int(rng.integers(1, 6)), y))
        m2i = rng.integers(-40, 40, size=(y, int(rng.integers(1, 6))))
        ref_i = m1i @ m2i
        m1f = rng.normal(size=m1i.shape).astype(np.float32)
        m2f = rng.normal(size=(y, m2i.shape[1])).astype(np.float32)
        ref_f = np.asarray(m1f, np.float64) @ np.asarray(m2f, np.float64)
        for f in factors_of(y):
            cases += 1
            if not np.array_equal(tiled_matmul(m1i, m2i, f), ref_i):
                failures.append(("matmul-int", y, f))
            out = tiled_matmul(m1f, m2f, f)
            rel = np.abs(out - ref_f) / np.maximum(np.abs(ref_f), 1e-6)
            worst["matmul-f32"] = max(worst["matmul-f32"], float(rel.max()))
            if rel.max() >= 1e-5:
                failures.append(("matmul-f32", m1f.shape + m2f.shape[1:], f))

    # tiled conv: channel-group partials
    for _ in range(25):
        c = int(rng.choice([2, 3, 4, 6]))
        k = int(rng.integers(1, 4))
        hw = k + int(rng.integers(1, 6))
        # the oracle is built from the float32 inputs under test, upcast, so
        # that it measures tiling and accumulation, not input quantisation
        x32 = rng.normal(size=(2, c, hw, hw)).astype(np.float32)
        w32 = rng.normal(size=(int(rng.integers(1, 4)), c, k, k)).astype(np.float32)
        ref = nn.conv2d_forward(x32.astype(np.float64), w32.astype(np.float64), None, (1, 1))
        xi = rng.integers(-9, 9, size=x32.shape)
        wi = rng.integers(-9, 9, size=w32.shape)
        ref_int = nn.conv2d_forward(xi, wi, None, (1, 1))
        for f in factors_of(c):
            cases += 1
            out32 = tiled_conv2d(x32, w32, f=f)
            rel = np.abs(out32 - ref) / np.maximum(np.abs(ref), 1e-6)
            worst["conv-f32"] = max(worst["conv-f32"], float(rel.max()))
            if rel.max() >= 1e-5:
                failures.append(("conv-f32", x32.shape + w32.shape, f))
            if not np.array_equal(tiled_conv2d(xi, wi, f=f), ref_int):
                failures.append(("conv-int", xi.shape + wi.shape, f))

    # full plans on random micro models, all-ones through maximal factors
    for trial in range(24):
        filters = int(rng.choice([2, 4, 6]))
        channels = int(rng.choice([1, 2, 4]))
        hidden = int(rng.choice([4, 6, 8]))
        m = nn.Model([nn.conv(2, filters), nn.relu(), nn.flatten(),
                      nn.dense(hidden), nn.relu(), nn.dense(3)],
                     (channels, 5, 5), seed=trial, dtype=np.float64)
        bs = 4
        x = rng.normal(size=(bs, channels, 5, 5))
        y = rng.integers(0, 3, size=bs)
        out_ref = m.forward(x)
        loss_ref, dout = nn.softmax_cross_entropy(out_ref, nn.one_hot(y, 3, np.float64))
        m.backward(dout)
        grads_ref = [(i, n, g.copy()) for i, n, g in m.gradients()]
        factor_sets = [[1, 1, 1], [filters, hidden, 3], [filters, 1, 3]]
        for bs_f in (1, 2, 4):
            for c_f in factors_of(channels):
                for fs in factor_sets:
                    cases += 1
                    plan = plan_tiling(request_from_model(m, fs, bs=bs, bs_f=bs_f, c_f=c_f))
                    # shape algebra on every generated plan
                    for e in plan.entries:
                        dims = e.weight_fwd.dims()
                        if e.kind == "conv":
                            assert dims[:2] == (filters, channels)
                        prev = [p for p in plan.entries if p.index < e.index]
                        if prev:
                            assert e.consumed_factor == prev[-1].produced_factor
                    res = execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=3)
                    if np.abs(res.outputs - out_ref).max() >= 1e-10:
                        failures.append(("plan-out", trial, bs_f, c_f, tuple(fs)))
                    for (i, n, g), (_, _, rg) in zip(res.grads, grads_ref):
                        if np.abs(g - rg).max() >= 1e-10:
                            failures.append(("plan-grad", trial, i, n))
                    res.audit.verify()

    elapsed = time.time() - start
    ok = not failures and cases >= 200 and elapsed < 30
    detail = "; ".join(f"worst {kind} rel err {err:.1e}" for kind, err in worst.items())
    if failures:
        detail += f"; first failures (kind, shape, factor...): {failures[:5]}"
    _verdict(3, f"{cases} tiled cases, {len(failures)} mismatches, {elapsed:.1f} s; {detail}", ok)


# ---------------------------------------------------------------------------
# 4. gradient fidelity (>= 100 seeded micro-instances)
# ---------------------------------------------------------------------------

def _check_model_grads(model, loss_fn):
    analytic = {(i, n): g.copy() for i, n, g in model.gradients()}
    worst = 0.0
    for i, name, p in model.parameters():
        worst = max(worst, max_rel_err(analytic[(i, name)], numeric_grad(loss_fn, p)))
    return worst


def test_criterion_4_gradient_fidelity():
    start = time.time()
    worst_overall = 0.0
    instances = 0
    rng = np.random.default_rng(77)

    # every layer kind, mixed into small nets (40 instances)
    architectures = [
        lambda: ([nn.dense(5), nn.relu(), nn.dense(3)], (4,)),
        lambda: ([nn.conv(2, 2), nn.relu(), nn.flatten(), nn.dense(3)], (1, 4, 4)),
        lambda: ([nn.conv(3, 2), nn.relu(), nn.maxpool(2), nn.flatten(), nn.dense(3)], (2, 6, 6)),
        lambda: ([nn.conv(2, 3, stride=2), nn.relu(), nn.flatten(), nn.dense(3)], (1, 5, 5)),
    ]
    for trial in range(40):
        specs, shape = architectures[trial % len(architectures)]()
        m = nn.Model(specs, shape, seed=trial, dtype=np.float64)
        x = rng.normal(size=(2,) + shape)
        y = rng.integers(0, 3, size=2)
        loss_kind = "cross_entropy" if trial % 2 == 0 else "mse"
        if loss_kind == "cross_entropy":
            def loss_fn():
                return nn.softmax_cross_entropy(m.forward(x), nn.one_hot(y, 3, np.float64))[0]
        else:
            target = rng.normal(size=(2, 3))

            def loss_fn():
                return nn.mse_loss(m.forward(x), target)[0]
        loss_fn()
        if loss_kind == "cross_entropy":
            _, dout = nn.softmax_cross_entropy(m.forward(x), nn.one_hot(y, 3, np.float64))
        else:
            _, dout = nn.mse_loss(m.forward(x), target)
        m.backward(dout)
        worst_overall = max(worst_overall, _check_model_grads(m, loss_fn))
        instances += 1

    # VAE loss with frozen noise (30 instances)
    for trial in range(30):
        vae = Vae(5, latent_dim=3, hidden=4, seed=trial, dtype=np.float64)
        x = rng.normal(size=(3, 5))
        eps = rng.normal(size=(3, 3))

        def vae_loss():
            return vae.loss_and_grads(x[None], eps[None], [len(x)])[0][0]

        vae_loss()
        analytic = {(i, n): g.copy() for i, n, g in vae.gradients()}
        for i, name, p in vae.parameters():
            worst_overall = max(worst_overall,
                                max_rel_err(analytic[(i, name)], numeric_grad(vae_loss, p)))
        instances += 1

    # ensemble conv pass (30 instances)
    for trial in range(30):
        n_edges = int(rng.choice([2, 4]))
        width = int(rng.choice([4, 8]))
        cfg = EnsembleConfig(n_edges=n_edges, feature_width=width, task="classification",
                             n_outputs=3, n_filters=3, hidden=4, seed=trial)
        m = make_ensemble_model(cfg)
        m64 = nn.Model(m.specs, m.input_shape, seed=m.seed, dtype=np.float64)
        x = rng.normal(size=(2, 1, n_edges, width))
        y = rng.integers(0, 3, size=2)

        def ens_loss():
            return nn.softmax_cross_entropy(m64.forward(x), nn.one_hot(y, 3, np.float64))[0]

        _, dout = nn.softmax_cross_entropy(m64.forward(x), nn.one_hot(y, 3, np.float64))
        m64.backward(dout)
        worst_overall = max(worst_overall, _check_model_grads(m64, ens_loss))
        instances += 1

    elapsed = time.time() - start
    ok = worst_overall < 1e-4 and instances >= 100 and elapsed < 60
    _verdict(4, f"{instances} instances, worst relative error {worst_overall:.2e}, "
                f"{elapsed:.1f} s", ok)
