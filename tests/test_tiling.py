import inspect
from collections import Counter

import numpy as np
import pytest

from edgefuse import nn
from edgefuse.tiling import (FactorError, execute_plan, plan_label, plan_report,
                             plan_report_text, plan_tiling, request_from_config,
                             request_from_model, tiled_conv2d, tiled_matmul)

from helpers import scalar_conv2d, scalar_matmul


# ---------------------------------------------------------------------------
# planner shape calculus
# ---------------------------------------------------------------------------

def _request(specs, input_shape, factors, **kwargs):
    return request_from_model(nn.Model(specs, input_shape, seed=0), factors, **kwargs)


def test_first_conv_factored_dims():
    req = _request([nn.conv(5, 4)], (2, 8, 8), [2], bs=2, bs_f=1, c_f=1)
    plan = plan_tiling(req)
    w = plan.entries[0].weight_fwd
    assert w.outer == (2, 1)
    assert w.inner == (2, 2)
    assert w.rest == (5, 5)
    o = plan.entries[0].output_fwd
    assert o.outer == (1, 2) and o.inner == (2, 2) and o.rest == (4, 4)


def test_later_fcl_factored_dims():
    # a 64-wide fcl produced by factor 4, followed by an fcl with factor 2
    req = _request([nn.dense(64), nn.dense(10)], (8,), [4, 2], bs=4, bs_f=2, c_f=1)
    plan = plan_tiling(req)
    second = plan.entries[1]
    assert second.weight_fwd.outer == (4, 2)
    assert second.weight_fwd.inner == (16, 5)
    assert second.consumed_factor == 4 and second.produced_factor == 2
    assert second.loss_bwd.outer == (2, 2)          # [BS_f, f]
    assert second.loss_bwd.inner == (2, 5)          # [BS_p, L2/f]
    assert second.grad_bwd == second.weight_fwd


def test_unit_factors_degenerate_to_original_shapes():
    req = _request([nn.conv(2, 3), nn.flatten(), nn.dense(4)], (1, 6, 6), [1, 1],
                   bs=2, bs_f=1, c_f=1)
    plan = plan_tiling(req)
    for e in plan.entries:
        assert all(v == 1 for v in e.weight_fwd.outer)
        assert e.weight_fwd.dims()[0] in (3, 75)
    assert plan.entries[0].output_fwd.outer == (1, 1)


def test_non_dividing_factor_names_layer_and_dim():
    for factor in (3, 0):
        req = _request([nn.conv(3, 4)], (2, 6, 6), [factor], bs=1, bs_f=1, c_f=1)
        with pytest.raises(FactorError, match=rf"layer 0 \(conv\).*factor {factor}.*filters=4"):
            plan_tiling(req)


def test_chained_factor_divisibility_checked():
    # a later layer consumes a factor that divides its input width (the width
    # the previous layer's factor split), so c_f, consumed by the first, is
    # the one consumed factor that can fail to divide
    req = _request([nn.dense(9), nn.dense(2)], (10,), [3, 1], bs=1, bs_f=1, c_f=4)
    with pytest.raises(FactorError, match=r"layer 0 \(fcl\): factor 4 does not divide l1=10"):
        plan_tiling(req)


def test_bs_factorization_validated():
    with pytest.raises(FactorError, match="BS"):
        _request([nn.dense(2)], (3,), [1], bs=4, bs_f=3, c_f=1)


@pytest.mark.parametrize("factors", [[2, 3], [2, 3, 1, 1]])
def test_factor_count_must_match_the_conv_dense_layers(factors):
    with pytest.raises(FactorError, match=f"{len(factors)} factors for 3 conv/dense layers"):
        request_from_model(_micro_model(), factors, bs=4)


def test_pass_layers_carry_factor_through():
    req = _request([nn.conv(3, 4), nn.maxpool(2), nn.relu(), nn.flatten(), nn.dense(6)],
                   (1, 8, 8), [2, 3], bs=2, bs_f=2, c_f=1)
    plan = plan_tiling(req)
    assert plan.entries[1].consumed_factor == 2     # fcl consumes the conv factor
    assert plan.entries[1].weight_fwd.outer == (2, 3)


def test_shape_products_recover_original_dims():
    rng = np.random.default_rng(0)
    for _ in range(40):
        f1 = int(rng.choice([1, 2, 4]))
        c_f = int(rng.choice([1, 2]))
        filters = f1 * int(rng.integers(1, 5))
        channels = c_f * int(rng.integers(1, 4))
        l2a = int(rng.choice([6, 12, 24]))
        fa = int(rng.choice([1, 2, 3, 6]))
        bs_f = int(rng.choice([1, 2, 4]))
        req = _request([nn.conv(3, filters), nn.flatten(), nn.dense(l2a)], (channels, 6, 6),
                       [f1, fa], bs=4, bs_f=bs_f, c_f=c_f)
        plan = plan_tiling(req)
        conv_e, fcl_e = plan.entries
        assert conv_e.weight_fwd.dims() == (filters, channels, 3, 3)
        assert conv_e.output_fwd.dims() == (4, filters, 4, 4)
        assert fcl_e.weight_fwd.dims() == (filters * 16, l2a)
        assert fcl_e.output_fwd.dims() == (4, l2a)
        # chaining invariant
        assert fcl_e.consumed_factor == conv_e.produced_factor


# ---------------------------------------------------------------------------
# tiled matmul / conv
# ---------------------------------------------------------------------------

def test_tiled_matmul_f1_is_naive():
    rng = np.random.default_rng(1)
    m1 = rng.normal(size=(3, 8))
    m2 = rng.normal(size=(8, 5))
    assert np.array_equal(tiled_matmul(m1, m2, 1), m1 @ m2)


def test_tiled_matmul_integer_exact_for_all_factors():
    rng = np.random.default_rng(2)
    m1 = rng.integers(-50, 50, size=(2, 4))
    m2 = rng.integers(-50, 50, size=(4, 3))
    ref = scalar_matmul(m1, m2)
    for f in (1, 2, 4):
        out = tiled_matmul(m1, m2, f)
        assert out.dtype.kind == "i"
        assert np.array_equal(out, ref)


def test_tiled_matmul_float32_close_to_float64_oracle():
    rng = np.random.default_rng(3)
    m1 = rng.normal(size=(6, 12)).astype(np.float32)
    m2 = rng.normal(size=(12, 7)).astype(np.float32)
    ref = np.asarray(m1, dtype=np.float64) @ np.asarray(m2, dtype=np.float64)
    for f in (1, 2, 3, 4, 6, 12):
        out = tiled_matmul(m1, m2, f)
        assert out.dtype == np.float32
        rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1e-6)
        assert rel.max() < 1e-5


def test_tiled_matmul_divisibility():
    with pytest.raises(FactorError):
        tiled_matmul(np.zeros((2, 5)), np.zeros((5, 2)), 2)
    with pytest.raises(nn.ShapeMismatchError):
        tiled_matmul(np.zeros((2, 4)), np.zeros((5, 2)), 1)


def test_tiled_conv_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 4, 6, 6))
    w = rng.normal(size=(3, 4, 3, 3))
    b = rng.normal(size=3)
    ref = scalar_conv2d(x, w, b)
    for f in (1, 2, 4):
        out = tiled_conv2d(x, w, b, stride=(1, 1), f=f)
        assert np.abs(out - ref).max() < 1e-10


def test_tiled_conv_integer_exact():
    rng = np.random.default_rng(5)
    x = rng.integers(-9, 9, size=(1, 2, 5, 5))
    w = rng.integers(-9, 9, size=(2, 2, 2, 2))
    ref = scalar_conv2d(x, w).astype(np.int64)
    for f in (1, 2):
        out = tiled_conv2d(x, w, f=f)
        assert out.dtype.kind == "i"
        assert np.array_equal(out, ref)


def test_tiled_conv_float32_close_to_float64_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 12, 6, 6)).astype(np.float32)
    w = rng.normal(size=(3, 12, 3, 3)).astype(np.float32)
    # a draw whose two channel halves nearly cancel: every output is about
    # 2**-10 of each half's partial, so float32 addition of the partials
    # would miss the bound by orders of magnitude
    xc = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
    wc = rng.normal(size=(3, 4, 2, 2)).astype(np.float32)
    xc[:, 2:] = xc[:, :2]
    wc[:, 2:] = -wc[:, :2] * np.float32(1 + 2 ** -10)
    for xs, ws in ((x, w), (xc, wc)):
        ref = nn.conv2d_forward(xs.astype(np.float64), ws.astype(np.float64), None, (1, 1))
        c = xs.shape[1]
        for f in [f for f in range(1, c + 1) if c % f == 0]:
            out = tiled_conv2d(xs, ws, f=f)
            assert out.dtype == np.float32
            rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1e-6)
            assert rel.max() < 1e-5, (c, f, rel.max())


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------

def _micro_model(dtype=np.float64, seed=9):
    return nn.Model([nn.conv(3, 4), nn.relu(), nn.maxpool(2), nn.flatten(),
                     nn.dense(6), nn.relu(), nn.dense(3)],
                    (2, 8, 8), seed=seed, dtype=dtype)


def _reference(model, x, y):
    out = model.forward(x)
    loss, dout = nn.softmax_cross_entropy(out, nn.one_hot(y, 3, model.dtype))
    model.backward(dout)
    return out, loss, model.gradients()


def test_unit_factor_plan_is_bit_identical():
    m = _micro_model()
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 2, 8, 8))
    y = rng.integers(0, 3, size=4)
    plan = plan_tiling(request_from_model(m, [1, 1, 1], bs=4, bs_f=1, c_f=1))
    res = execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=3)
    ref_out, ref_loss, ref_grads = _reference(m, x, y)
    assert np.array_equal(res.outputs, ref_out)
    assert res.loss == ref_loss
    for (i, n, g), (_, _, rg) in zip(res.grads, ref_grads):
        assert np.array_equal(g, rg), (i, n)


@pytest.mark.parametrize("bs_f,factors,c_f", [
    (2, [2, 2, 1], 2),
    (4, [4, 3, 3], 1),
    (1, [2, 1, 3], 2),
])
def test_tiled_execution_matches_engine(bs_f, factors, c_f):
    m = _micro_model()
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 2, 8, 8))
    y = rng.integers(0, 3, size=4)
    plan = plan_tiling(request_from_model(m, factors, bs=4, bs_f=bs_f, c_f=c_f))
    res = execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=3)
    ref_out, ref_loss, ref_grads = _reference(m, x, y)
    assert np.abs(res.outputs - ref_out).max() < 1e-10
    assert res.loss == pytest.approx(ref_loss, rel=1e-12)
    for (i, n, g), (_, _, rg) in zip(res.grads, ref_grads):
        assert np.abs(g - rg).max() < 1e-10, (i, n)


def test_tiled_execution_float32_tolerance():
    m = _micro_model(dtype=np.float32)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 2, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=4)
    plan = plan_tiling(request_from_model(m, [4, 2, 1], bs=4, bs_f=2, c_f=1))
    res = execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=3)
    ref_out = m.forward(x)
    rel = np.abs(res.outputs - ref_out) / np.maximum(np.abs(ref_out), 1e-6)
    assert rel.max() < 1e-5


def test_random_plans_match_the_engine():
    """Any factors that divide the micro model tile it to the float64 engine's
    results, with a clean stream audit and the reported lane counts."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # conv 4 filters over 2 channels, dense 36 -> 6, dense 6 -> 3
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(factors=st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 3, 6]),
                                        st.sampled_from([1, 3])),
                      c_f=st.sampled_from([1, 2]),
                      batch=st.sampled_from([(2, 1), (2, 2), (4, 2), (4, 4), (6, 3), (6, 6)]),
                      seed=st.integers(0, 2**16))
    def check(factors, c_f, batch, seed):
        bs, bs_f = batch
        m = _micro_model(seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(bs, 2, 8, 8))
        y = rng.integers(0, 3, size=bs)
        plan = plan_tiling(request_from_model(m, list(factors), bs=bs, bs_f=bs_f, c_f=c_f))
        res = execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=3)
        res.audit.verify()
        ref_out, ref_loss, ref_grads = _reference(m, x, y)
        assert np.abs(res.outputs - ref_out).max() < 1e-10
        assert abs(res.loss - ref_loss) < 1e-10
        assert [(i, n) for i, n, _ in res.grads] == [(i, n) for i, n, _ in ref_grads]
        for (i, n, g), (_, _, rg) in zip(res.grads, ref_grads):
            assert np.abs(g - rg).max() < 1e-10, (i, n)
        lanes = {lay["index"]: lay["lanes"] for lay in plan_report(plan)["layers"]}
        assert res.lanes_by_layer == lanes

    check()


def test_same_loss_under_batch_tiling():
    m = nn.Model([nn.dense(8), nn.relu(), nn.dense(2)], (5,), seed=21, dtype=np.float64)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 5))
    y = rng.normal(size=(2, 2))
    plan = plan_tiling(request_from_model(m, [2, 1], bs=2, bs_f=2, c_f=1))
    res = execute_plan(plan, m, x, y.reshape(2, 2), loss="mse")
    ref_loss, _ = nn.mse_loss(m.forward(x), y)
    assert res.loss == pytest.approx(ref_loss, rel=1e-12)


@pytest.mark.parametrize("loss,n_classes,match", [
    ("cross_entropy", None, "n_classes"),
    ("hinge", 3, "unknown loss"),
])
def test_execute_plan_rejects_a_bad_loss(loss, n_classes, match):
    m = _micro_model()
    x = np.random.default_rng(16).normal(size=(4, 2, 8, 8))
    plan = plan_tiling(request_from_model(m, [1, 1, 1], bs=4, bs_f=1, c_f=1))
    with pytest.raises(ValueError, match=match):
        execute_plan(plan, m, x, np.zeros(4, dtype=np.int64), loss=loss, n_classes=n_classes)


def test_stream_audit_single_use_discipline():
    m = _micro_model()
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 2, 8, 8))
    y = rng.integers(0, 3, size=4)
    plan = plan_tiling(request_from_model(m, [2, 3, 1], bs=4, bs_f=2, c_f=1))
    res = execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=3)
    audit = res.audit
    audit.verify()
    # duplication counts: weight tiles once per batch lane, input tiles once
    # per output lane
    for key, enq in audit.enqueued.items():
        assert enq == audit.dequeued[key]
        assert audit.produced[key] == 1
    # first conv: f=2 out-lane tiles x g=c_f=1 channel tiles
    w_keys = [k for k in audit.produced if k[1] == "w" and k[0] == 0]
    assert len(w_keys) == 2 * 1
    assert all(audit.dequeued[k] == plan.bs_f for k in w_keys)
    x_keys = [k for k in audit.produced if k[1] == "x" and k[0] == 0]
    assert all(audit.dequeued[k] == 2 for k in x_keys)   # duplicated to f=2 lanes


def test_lane_counts_match_report():
    m = _micro_model()
    plan = plan_tiling(request_from_model(m, [2, 3, 1], bs=4, bs_f=2, c_f=1))
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 2, 8, 8))
    res = execute_plan(plan, m, x)
    rep = plan_report(plan)
    lanes = {lay["index"]: lay["lanes"] for lay in rep["layers"]}
    for idx, count in res.lanes_by_layer.items():
        assert count == lanes[idx]


class _Spy:
    """Stands in for an ``nn`` function and records each call's arguments."""

    def __init__(self, monkeypatch, name):
        self.fn = getattr(nn, name)
        self.signature = inspect.signature(self.fn)
        self.calls = []
        monkeypatch.setattr(nn, name, self)

    def __call__(self, *args, **kwargs):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.calls.append(bound.arguments)
        return self.fn(*args, **kwargs)


# the tiled benchmark's image edge model under its f4/bs_f4 plan, and an MLP
# whose first layer is dense
@pytest.mark.parametrize("specs,input_shape,factors", [
    ([nn.conv(5, 4), nn.relu(), nn.maxpool(2), nn.conv(5, 4), nn.relu(),
      nn.flatten(), nn.dense(64), nn.relu(), nn.dense(10)], (1, 28, 28), [4, 4, 4, 2]),
    ([nn.dense(8), nn.relu(), nn.dense(6), nn.relu(), nn.dense(10)], (12,), [4, 2, 2]),
])
def test_execute_plan_skips_unread_work(monkeypatch, specs, input_shape, factors):
    """No input gradient for layer 0, one lowering per (lane, conv layer,
    input tile) per pass, and each untiled layer once per pass on the whole
    batch."""
    m = nn.Model(specs, input_shape, seed=3)
    rng = np.random.default_rng(18)
    x = rng.random((8,) + input_shape, dtype=np.float32)
    y = rng.integers(0, 10, size=8)
    plan = plan_tiling(request_from_model(m, factors, bs=8, bs_f=4, c_f=1))
    backward = [_Spy(monkeypatch, "conv2d_backward"), _Spy(monkeypatch, "dense_backward")]
    im2col = _Spy(monkeypatch, "_im2col")
    untiled = {name: _Spy(monkeypatch, name) for name in
               ("relu_forward", "relu_backward", "maxpool2d_forward", "maxpool2d_backward")}
    relus, pools = (sum(spec.kind == kind for spec in specs) for kind in ("relu", "maxpool"))

    def untiled_calls():   # calls per untiled kernel since the last look, each on the batch
        assert all(len(next(iter(c.values()))) == len(x) for spy in untiled.values()
                   for c in spy.calls)
        counts = {name: len(spy.calls) for name, spy in untiled.items()}
        for spy in untiled.values():
            spy.calls.clear()
        return counts

    def lowered_tiles():   # how often each distinct input tile was lowered
        return Counter((c["x"].__array_interface__["data"][0], c["x"].shape, c["x"].strides)
                       for c in im2col.calls)

    tiles = sum(plan.bs_f * e.consumed_factor for e in plan.entries if e.kind == "conv")
    execute_plan(plan, m, x)
    assert len(im2col.calls) == tiles and set(lowered_tiles().values()) <= {1}
    assert untiled_calls() == {"relu_forward": relus, "relu_backward": 0,
                               "maxpool2d_forward": pools, "maxpool2d_backward": 0}
    im2col.calls.clear()
    execute_plan(plan, m, x, y, loss="cross_entropy", n_classes=10)
    assert len(im2col.calls) == 2 * tiles and set(lowered_tiles().values()) <= {2}
    assert untiled_calls() == {"relu_forward": relus, "relu_backward": relus,
                               "maxpool2d_forward": pools, "maxpool2d_backward": pools}
    calls = [c for spy in backward for c in spy.calls]
    first = [c["input_grad"] for c in calls if np.shares_memory(c["x"], x)]
    later = [c["input_grad"] for c in calls if not np.shares_memory(c["x"], x)]
    assert len(first) == plan.bs_f * factors[0] and not any(first)
    assert later and all(later)


def test_plan_label_and_report():
    req = request_from_config({
        "bs": 2, "bs_f": 2, "c_f": 1,
        "input": {"channels": 1, "height": 8, "width": 8},
        "layers": [
            {"kind": "conv", "filters": 2, "kernel": [3, 3], "factor": 1},
            {"kind": "relu"},
            {"kind": "conv", "filters": 2, "kernel": [3, 3], "factor": 1},
            {"kind": "flatten"},
            {"kind": "fcl", "l2": 4, "factor": 1},
        ],
    })
    plan = plan_tiling(req)
    assert plan_label(plan) == "BS_f=2-F_f=1,1"
    rep = plan_report(plan)
    assert rep["label"] == "BS_f=2-F_f=1,1"
    text = plan_report_text(plan)
    assert "BS_f=2-F_f=1,1" in text and "conv" in text and "fcl" in text


def test_unit_plan_single_lane_everywhere():
    req = request_from_config({
        "bs": 1, "bs_f": 1, "c_f": 1,
        "input": {"features": 12},
        "layers": [{"kind": "fcl", "l2": 6, "factor": 1},
                   {"kind": "relu"},
                   {"kind": "fcl", "l2": 2, "factor": 1}],
    })
    plan = plan_tiling(req)
    rep = plan_report(plan)
    assert all(lay["lanes"] == 1 for lay in rep["layers"])
    assert plan_label(plan) == "BS_f=1-L_f=1,1"


def test_request_from_config_conv_chain_dims():
    req = request_from_config({
        "bs": 2, "bs_f": 1, "c_f": 1,
        "input": {"channels": 1, "height": 28, "width": 28},
        "layers": [
            {"kind": "conv", "filters": 2, "kernel": [5, 5], "factor": 2},
            {"kind": "maxpool", "size": [2, 2]},
            {"kind": "conv", "filters": 4, "kernel": [5, 5], "factor": 2},
            {"kind": "flatten"},
            {"kind": "fcl", "l2": 10, "factor": 1},
        ],
    })
    conv1, conv2 = req.model.layers[0], req.model.layers[2]
    assert conv1.out_shape[1:] == (24, 24)
    assert (conv2.in_shape[0],) + conv2.out_shape[1:] == (2, 8, 8)
    fcl = req.model.layers[4]
    assert fcl.in_dim == 4 * 8 * 8
    plan = plan_tiling(req)
    assert plan.entries[1].consumed_factor == 2
    assert plan.entries[2].consumed_factor == 2     # conv factor carries across flatten


def test_request_from_config_errors():
    with pytest.raises(FactorError, match="input"):
        request_from_config({"bs": 1, "layers": []})
    with pytest.raises(FactorError, match="unknown kind"):
        request_from_config({"bs": 1, "input": {"features": 4},
                             "layers": [{"kind": "wat"}]})
    with pytest.raises(FactorError, match="BS"):
        request_from_config({"bs": 4, "bs_f": 2, "bs_p": 3, "input": {"features": 4},
                             "layers": []})
    with pytest.raises(FactorError, match=r"layer 1 \(conv\): 'stride' must be 2 positive"):
        request_from_config({"bs": 1, "input": {"channels": 1, "height": 4, "width": 4},
                             "layers": [{"kind": "relu"},
                                        {"kind": "conv", "filters": 2, "kernel": [2, 2],
                                         "stride": 2.5}]})
