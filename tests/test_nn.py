import numpy as np
import pytest

from edgefuse import nn
from edgefuse.ensemble import EnsembleConfig, make_ensemble_model

from helpers import (assert_grads_match, model_gradcheck, numeric_grad,
                     scalar_cross_entropy, scalar_maxpool2d, scalar_maxpool2d_backward,
                     scalar_mlp, scalar_mse)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_zero_weight_dense_gives_zero_output():
    m = nn.Model([nn.dense(3)], (4,), seed=0)
    m.layers[0].params["w"][:] = 0.0
    out = m.forward(np.random.default_rng(0).normal(size=(5, 4)))
    assert np.all(out == 0.0)


def test_dense_affine_arithmetic():
    m = nn.Model([nn.dense(1)], (1,), seed=0, dtype=np.float64)
    m.layers[0].params["w"][:] = 2.0
    m.layers[0].params["b"][:] = 1.0
    out = m.forward(np.array([[3.0]]))
    assert out[0, 0] == pytest.approx(7.0, abs=0)


def test_dense_bias_of_a_wider_dtype_widens_the_output():
    x, w = np.ones((2, 3), np.float32), np.ones((3, 4), np.float32)
    out = nn.dense_forward(x, w, np.full(4, 0.1))
    assert out.dtype == np.float64 and np.array_equal(out, np.float32(3) + np.full((2, 4), 0.1))


def test_mlp_forward_matches_scalar_oracle():
    m = nn.Model([nn.dense(6), nn.relu(), nn.dense(5), nn.relu(), nn.dense(3)],
                 (4,), seed=42, dtype=np.float64)
    x = np.random.default_rng(7).normal(size=(9, 4))
    ours = m.forward(x)
    layers = [(m.layers[0].params["w"], m.layers[0].params["b"]),
              (m.layers[2].params["w"], m.layers[2].params["b"]),
              (m.layers[4].params["w"], m.layers[4].params["b"])]
    ref = scalar_mlp(x, layers)
    rel = np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-12)
    assert rel.max() < 1e-6


def test_forward_shape_mismatch_raises():
    m = nn.Model([nn.dense(3)], (4,), seed=0)
    with pytest.raises(nn.ShapeMismatchError):
        m.forward(np.zeros((2, 5)))


def test_forward_nonfinite_raises():
    m = nn.Model([nn.dense(3)], (4,), seed=0, dtype=np.float64)
    x = np.full((1, 4), np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(nn.NonFiniteError):
        m.forward(x)


INFER_MODELS = {
    "dense edge": ((nn.dense(64), nn.relu(), nn.dense(64), nn.relu(), nn.dense(3)), (6,)),
    "image edge": ((nn.conv(5, 2), nn.relu(), nn.maxpool(2), nn.conv(5, 2), nn.relu(),
                    nn.flatten(), nn.dense(64), nn.relu(), nn.dense(10)), (1, 28, 28)),
    "meta-learner": (make_ensemble_model(EnsembleConfig(
        n_edges=10, feature_width=64, task="classification", n_outputs=10)).specs, (1, 10, 64)),
}
CACHES = ("_x", "_argmax", "_x_shape", "_shape")      # what forward keeps for backward


@pytest.mark.parametrize("kind", INFER_MODELS)
def test_infer_is_forward_bit_for_bit_and_keeps_nothing(kind):
    specs, input_shape = INFER_MODELS[kind]
    model = nn.Model(specs, input_shape, seed=3)
    rng = np.random.default_rng(4)
    model.forward(rng.standard_normal((2,) + input_shape))
    kept = [{name: getattr(layer, name) for name in CACHES if hasattr(layer, name)}
            for layer in model.layers]
    x = np.abs(rng.standard_normal((5,) + input_shape))
    out = model.infer(x)
    tapped = [model.infer(x, upto) for upto in range(len(model.layers))]
    for layer, before in zip(model.layers, kept):
        assert all(getattr(layer, name) is value for name, value in before.items())
    act = x.astype(np.float32)
    for layer, got in zip(model.layers, tapped):        # forward's activation at each layer
        act = layer.forward(act)
        assert got.dtype == act.dtype and got.shape == act.shape
        assert got.tobytes() == act.tobytes()
    assert out.tobytes() == model.forward(x).tobytes()


def test_conv_kernel_larger_than_input_rejected():
    with pytest.raises(nn.ShapeMismatchError):
        nn.Model([nn.conv(5, 1)], (1, 4, 4), seed=0)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_zero_error_mse_gives_zero_gradients():
    m = nn.Model([nn.dense(2)], (3,), seed=1, dtype=np.float64)
    x = np.random.default_rng(0).normal(size=(4, 3))
    out = m.forward(x)
    _, dout = nn.mse_loss(out, out.copy())
    m.backward(dout)
    for _, _, g in m.gradients():
        assert np.all(g == 0.0)


def test_single_dense_mse_closed_form_gradient():
    # loss = (wx + b - y)^2, so dw = 2(wx + b - y)x and db = 2(wx + b - y)
    m = nn.Model([nn.dense(1)], (1,), seed=3, dtype=np.float64)
    w = float(m.layers[0].params["w"][0, 0])
    b = float(m.layers[0].params["b"][0])
    x_val, y_val = 1.7, -0.4
    out = m.forward(np.array([[x_val]]))
    _, dout = nn.mse_loss(out, np.array([[y_val]]))
    m.backward(dout)
    resid = w * x_val + b - y_val
    grads = {n: g for _, n, g in m.gradients()}
    assert grads["w"][0, 0] == pytest.approx(2 * resid * x_val, rel=1e-12)
    assert grads["b"][0] == pytest.approx(2 * resid, rel=1e-12)


def test_conv_dense_net_gradcheck():
    m = nn.Model([nn.conv(3, 2), nn.relu(), nn.maxpool(2), nn.flatten(),
                  nn.dense(5), nn.relu(), nn.dense(3)],
                 (2, 8, 8), seed=11, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 2, 8, 8))
    y = rng.integers(0, 3, size=3)

    def loss_fn():
        out = m.forward(x)
        return nn.softmax_cross_entropy(out, nn.one_hot(y, 3, np.float64))[0]

    out = m.forward(x)
    _, dout = nn.softmax_cross_entropy(out, nn.one_hot(y, 3, np.float64))
    m.backward(dout)
    model_gradcheck(m, loss_fn)


def test_relu_and_pool_input_gradients():
    m = nn.Model([nn.conv(2, 1), nn.relu(), nn.maxpool(2), nn.flatten(), nn.dense(2)],
                 (1, 6, 6), seed=2, dtype=np.float64)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 1, 6, 6)) + 0.05   # nudge off relu kinks
    y = rng.normal(size=(2, 2))

    def loss_fn():
        return nn.mse_loss(m.forward(x), y)[0]

    out = m.forward(x)
    _, dout = nn.mse_loss(out, y)
    dx = m.backward(dout)
    assert_grads_match(dx, numeric_grad(loss_fn, x), what="input gradient")


# ---------------------------------------------------------------------------
# conv input gradient
# ---------------------------------------------------------------------------

# (input shape, weight shape, stride); the last is the meta-learner's wide
# kernel, 160 kernel positions for the dx loop of conv2d_backward
CONV_CASES = [
    ((2, 2, 6, 7), (3, 2, 2, 3), (1, 1)),
    ((2, 2, 5, 9), (3, 2, 2, 3), (1, 2)),
    ((2, 1, 10, 64), (2, 1, 5, 32), (2, 16)),
]


def _conv_case(x_shape, w_shape, stride, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    dout = rng.normal(size=nn.conv2d_forward(x, w, None, stride).shape)
    return x, w, dout


@pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
def test_conv_input_gradient_matches_finite_differences(x_shape, w_shape, stride):
    x, w, dout = _conv_case(x_shape, w_shape, stride)
    dx, _, _ = nn.conv2d_backward(x, w, dout, stride)

    def loss_fn():   # <conv(x), dout>: its x-gradient is conv2d_backward's dx
        return float((nn.conv2d_forward(x, w, None, stride) * dout).sum())

    assert_grads_match(dx, numeric_grad(loss_fn, x), what="conv input gradient")


@pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
def test_conv_given_cols_are_bit_identical(x_shape, w_shape, stride):
    x, w, dout = _conv_case(x_shape, w_shape, stride, seed=1)
    b = np.random.default_rng(2).normal(size=w_shape[0])
    cols = nn._im2col(x, *w_shape[2:], *stride)
    assert np.array_equal(nn.conv2d_forward(x, w, b, stride, cols=cols),
                          nn.conv2d_forward(x, w, b, stride))
    for input_grad in (True, False):
        given = nn.conv2d_backward(x, w, dout, stride, input_grad, cols=cols)
        built = nn.conv2d_backward(x, w, dout, stride, input_grad)
        for a, ref in zip(given, built):
            assert (a is None and ref is None) or np.array_equal(a, ref)


@pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
def test_conv_without_input_gradient_keeps_dw_and_db(x_shape, w_shape, stride):
    x, w, dout = _conv_case(x_shape, w_shape, stride, seed=3)
    _, dw, db = nn.conv2d_backward(x, w, dout, stride)
    dx, dw_only, db_only = nn.conv2d_backward(x, w, dout, stride, input_grad=False)
    assert dx is None
    assert np.array_equal(dw_only, dw) and np.array_equal(db_only, db)


# ---------------------------------------------------------------------------
# max pooling, bit for bit against the loop oracle
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_pool(x, size):
    out, argmax = nn.maxpool2d_forward(x, size)
    ref_out, ref_arg = scalar_maxpool2d(x, size)
    _same_bits(out, ref_out)
    assert np.array_equal(argmax, ref_arg)
    dout = np.random.default_rng(1).normal(size=out.shape).astype(x.dtype)
    _same_bits(nn.maxpool2d_backward(dout, argmax, x.shape, size),
               scalar_maxpool2d_backward(dout, ref_arg, x.shape, size))
    return out, argmax


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [(2, 2), (2, 3), (3, 3)])
def test_maxpool_ties_go_to_the_first_maximum(size, dtype):
    # three values per window position: most windows hold a tie for the max
    x = np.random.default_rng(2).integers(0, 3, size=(2, 3, 7, 9)).astype(dtype)
    _, argmax = _check_pool(x, size)
    assert argmax.max() > 0   # not every window resolved at its first cell


def test_maxpool_signed_zero_tie_keeps_the_first_zero():
    x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]], [[[0.0, -0.0], [-0.0, -1.0]]]])
    out, argmax = _check_pool(x, (2, 2))
    assert np.signbit(out.ravel()).tolist() == [True, False]
    assert argmax.ravel().tolist() == [0, 0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_nan_in_a_window_gives_nan(dtype):
    x = np.random.default_rng(3).normal(size=(1, 2, 6, 6)).astype(dtype)
    x[0, 0, 0, 1] = np.nan                      # window (0,0), position 1
    x[0, 0, 3, 3] = 1e3                         # window (1,1): a max before the NaN
    x[0, 0, 3, 2] = np.nan                      # window (1,1), position 2
    x[0, 1, 5, 4] = np.nan                      # window (2,2), last position
    x[0, 1, 4, 4] = np.inf
    out, argmax = _check_pool(x, (2, 2))
    assert np.isnan(out[0, 0, 0, 0]) and argmax[0, 0, 0, 0] == 1
    assert np.isnan(out[0, 0, 1, 1]) and argmax[0, 0, 1, 1] == 2
    assert np.isnan(out[0, 1, 2, 2]) and argmax[0, 1, 2, 2] == 2
    assert np.isnan(out).sum() == 3


def test_maxpool_first_nan_wins_by_payload():
    payloads = np.array([0x7FC00001, 0x7FC00002, 0x3F800000, 0x7FC00003], dtype=np.uint32)
    x = payloads.view(np.float32).reshape(1, 1, 2, 2)
    out, argmax = _check_pool(x, (2, 2))
    assert out.view(np.uint32).ravel().tolist() == [0x7FC00001]
    assert argmax.ravel().tolist() == [0]


@pytest.mark.parametrize("size", [(2, 2), (2, 3), (3, 3)])
def test_maxpool_drops_trailing_rows_and_columns(size):
    ph, pw = size
    x = np.random.default_rng(4).normal(size=(2, 2, 3 * ph + ph - 1, 2 * pw + pw - 1))
    x[:, :, 3 * ph:, :] = 1e6                   # trailing rows
    x[:, :, :, 2 * pw:] = 1e6                   # trailing columns
    out, argmax = _check_pool(x, size)
    assert out.shape == (2, 2, 3, 2)
    assert out.max() < 1e6
    dx = nn.maxpool2d_backward(np.ones_like(out), argmax, x.shape, size)
    assert not dx[:, :, 3 * ph:, :].any() and not dx[:, :, :, 2 * pw:].any()


@pytest.mark.parametrize("size", [(2, 2), (2, 3), (3, 3)])
def test_maxpool_backward_routes_each_gradient_to_its_argmax(size):
    ph, pw = size
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 2, 2 * ph, 3 * pw))
    out, argmax = _check_pool(x, size)
    dout = rng.normal(size=out.shape)
    dx = nn.maxpool2d_backward(dout, argmax, x.shape, size)
    assert np.count_nonzero(dx) == dout.size
    def per_window(a, fill):   # (3, 2, 2, 3) window reductions of a masked array
        return np.where(dx != 0, a, fill).reshape(3, 2, 2, ph, 3, pw)

    assert np.array_equal(per_window(x, -np.inf).max(axis=(3, 5)), out)   # the max cell
    assert np.array_equal(per_window(dx, 0.0).sum(axis=(3, 5)), dout)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_cross_entropy_confident_correct_is_near_zero():
    val = nn.cross_entropy(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    assert 0.0 <= val < 1e-9


def test_cross_entropy_uniform_is_log_c():
    probs = np.full((4, 10), 0.1)
    onehot = nn.one_hot([0, 3, 5, 9], 10, np.float64)
    assert nn.cross_entropy(probs, onehot) == pytest.approx(np.log(10), rel=1e-12)


def test_cross_entropy_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(16, 7))
    probs = nn.softmax(logits)
    onehot = nn.one_hot(rng.integers(0, 7, size=16), 7, np.float64)
    assert nn.cross_entropy(probs, onehot) == pytest.approx(
        scalar_cross_entropy(probs, onehot), abs=1e-7)


def test_cross_entropy_handles_zero_probability():
    probs = np.array([[0.0, 1.0]])
    onehot = np.array([[1.0, 0.0]])
    val = nn.cross_entropy(probs, onehot)
    assert np.isfinite(val) and val > 0


def test_mse_trivial_and_oracle():
    assert nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))[0] == 0.0
    assert nn.mse_loss(np.array([0.0, 0.0]), np.array([1.0, 3.0]))[0] == pytest.approx(5.0)
    rng = np.random.default_rng(3)
    p, t = rng.normal(size=20), rng.normal(size=20)
    assert nn.mse_loss(p, t)[0] == pytest.approx(scalar_mse(p, t), abs=1e-9)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.normal(scale=rng.uniform(0.1, 30), size=(8, 6))
        probs = nn.softmax(logits)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
        assert nn.cross_entropy(probs, nn.one_hot(rng.integers(0, 6, 8), 6, np.float64)) >= 0


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _one_param_model(value):
    m = nn.Model([nn.dense(1)], (1,), seed=0, dtype=np.float64)
    m.layers[0].params["w"][:] = value
    m.layers[0].params["b"][:] = 0.0
    return m


def test_sgd_step():
    m = _one_param_model(1.0)
    m.layers[0].grads = {"w": np.array([[2.0]]), "b": np.array([0.0])}
    nn.SGD(0.1).step(m)
    assert m.layers[0].params["w"][0, 0] == pytest.approx(0.8, rel=1e-12)


def test_zero_gradient_leaves_parameters_unchanged():
    for opt in (nn.SGD(0.5), nn.Adam(0.5)):
        m = _one_param_model(1.23)
        m.layers[0].grads = {"w": np.zeros((1, 1)), "b": np.zeros(1)}
        opt.step(m)
        assert m.layers[0].params["w"][0, 0] == 1.23


def test_adam_first_step_unit_gradient():
    # first-step bias correction gives m_hat / sqrt(v_hat) = 1, so the update
    # is lr / (1 + eps) regardless of gradient scale
    m = _one_param_model(1.0)
    m.layers[0].grads = {"w": np.array([[1.0]]), "b": np.zeros(1)}
    nn.Adam(1e-4).step(m)
    delta = 1.0 - m.layers[0].params["w"][0, 0]
    assert delta == pytest.approx(1e-4, abs=1e-10)


def test_nonfinite_gradient_rejected():
    m = _one_param_model(1.0)
    m.layers[0].grads = {"w": np.array([[np.nan]]), "b": np.zeros(1)}
    with pytest.raises(nn.NonFiniteError):
        nn.SGD(0.1).step(m)


# ---------------------------------------------------------------------------
# training loop / determinism
# ---------------------------------------------------------------------------

def _train_once(seed, epochs=3):
    rng = np.random.default_rng(99)
    x = rng.normal(size=(32, 5)).astype(np.float32)
    y = rng.integers(0, 3, size=32)
    m = nn.Model([nn.dense(8), nn.relu(), nn.dense(3)], (5,), seed=seed)
    nn.fit(m, x, y, loss="cross_entropy", optimizer=nn.SGD(0.05), epochs=epochs,
           batch_size=8, rng=np.random.default_rng(seed), n_classes=3)
    return m


def test_training_is_bit_deterministic():
    m1, m2 = _train_once(7), _train_once(7)
    for (_, _, p1), (_, _, p2) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1, p2)


def test_divergence_reports_epoch():
    m = nn.Model([nn.dense(1)], (1,), seed=0)
    x = np.full((4, 1), 1e20, dtype=np.float32)
    y = np.zeros(4, dtype=np.float32)
    with np.errstate(over="ignore"), pytest.raises(nn.DivergenceError) as err:
        nn.fit(m, x, y, loss="mse", optimizer=nn.SGD(1e-4), epochs=2,
               batch_size=4, rng=np.random.default_rng(0))
    assert err.value.epoch == 0


@pytest.mark.parametrize("loss,n_classes,match", [
    ("cross_entropy", None, "n_classes"),
    ("hinge", 3, "unknown loss"),
])
def test_fit_rejects_a_bad_loss(loss, n_classes, match):
    m = nn.Model([nn.dense(3)], (2,), seed=0)
    with pytest.raises(ValueError, match=match):
        nn.fit(m, np.ones((4, 2), dtype=np.float32), np.zeros(4, dtype=np.int64), loss=loss,
               optimizer=nn.SGD(0.1), epochs=1, batch_size=2, rng=np.random.default_rng(0),
               n_classes=n_classes)


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

def test_param_count_closed_forms():
    m = nn.Model([nn.conv(5, 4), nn.relu(), nn.maxpool(2), nn.conv(3, 2), nn.relu(),
                  nn.flatten(), nn.dense(64), nn.relu(), nn.dense(10)],
                 (3, 28, 28), seed=0)
    conv1 = 4 * (3 * 5 * 5 + 1)
    conv2 = 2 * (4 * 3 * 3 + 1)
    flat = 2 * 10 * 10
    dense1 = flat * 64 + 64
    dense2 = 64 * 10 + 10
    assert m.param_count() == conv1 + conv2 + dense1 + dense2
    assert m.layers[0].param_count() == conv1
    assert m.layers[3].param_count() == conv2


def test_gradcheck_every_layer_kind_short_sweep():
    # quick per-kind sweep; the acceptance suite runs the 100-instance version
    rng = np.random.default_rng(123)
    for trial in range(10):
        m = nn.Model([nn.conv(2, 2), nn.relu(), nn.maxpool(2), nn.flatten(),
                      nn.dense(4), nn.relu(), nn.dense(2)],
                     (1, 5, 5), seed=trial, dtype=np.float64)
        x = rng.normal(size=(2, 1, 5, 5))
        y = rng.integers(0, 2, size=2)

        def loss_fn():
            return nn.softmax_cross_entropy(m.forward(x), nn.one_hot(y, 2, np.float64))[0]

        _, dout = nn.softmax_cross_entropy(m.forward(x), nn.one_hot(y, 2, np.float64))
        m.backward(dout)
        model_gradcheck(m, loss_fn)


# ---------------------------------------------------------------------------
# flat parameter buffer
# ---------------------------------------------------------------------------

def _reference_sgd(lr):
    def step(model, state):
        for (_, _, p), (_, _, g) in zip(model.parameters(), model.gradients()):
            p -= lr * g
    return step


def _reference_adam(lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop the flat optimizer replaces."""
    def step(model, state):
        state["t"] = t = state.get("t", 0) + 1
        for (i, name, p), (_, _, g) in zip(model.parameters(), model.gradients()):
            m, v = state.setdefault((i, name), (np.zeros_like(p), np.zeros_like(p)))
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * (g * g)
            mhat = m / (1 - beta1 ** t)
            vhat = v / (1 - beta2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)
    return step


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_flat_optimizer_bit_identical_to_per_parameter_loop(kind):
    specs = [nn.conv((2, 3), 4, stride=(1, 2)), nn.relu(), nn.flatten(),
             nn.dense(6), nn.relu(), nn.dense(3)]
    flat_model = nn.Model(specs, (1, 4, 9), seed=3)
    ref_model = nn.Model(specs, (1, 4, 9), seed=3)
    opt = nn.SGD(0.05) if kind == "sgd" else nn.Adam(1e-2)
    ref = _reference_sgd(0.05) if kind == "sgd" else _reference_adam(1e-2)
    state = {}
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=(5, 1, 4, 9)).astype(np.float32)
        y = nn.one_hot(rng.integers(0, 3, 5), 3)
        for model in (flat_model, ref_model):
            _, dout = nn.softmax_cross_entropy(model.forward(x), y)
            model.backward(dout)
        opt.step(flat_model)
        ref(ref_model, state)
        for (_, key, p), (_, _, q) in zip(flat_model.parameters(), ref_model.parameters()):
            assert np.array_equal(p, q), key


def test_set_parameters_then_step_moves_the_loaded_weights():
    m = nn.Model([nn.dense(4), nn.relu(), nn.dense(2)], (3,), seed=0)
    rng = np.random.default_rng(2)
    loaded = {k: rng.uniform(0.1, 1.0, v.shape).astype(np.float32)
              for k, v in m.get_parameters().items()}
    kept = {k: v.copy() for k, v in loaded.items()}
    m.set_parameters(loaded)
    for i, name, p in m.parameters():
        assert np.shares_memory(p, m.flat) and np.array_equal(p, loaded[f"layer{i}.{name}"])
    x = np.random.default_rng(1).normal(size=(6, 3)).astype(np.float32)
    _, dout = nn.softmax_cross_entropy(m.forward(x), nn.one_hot(np.arange(6) % 2, 2))
    m.backward(dout)
    nn.Adam(0.1).step(m)
    for key, p in m.get_parameters().items():
        assert not np.array_equal(p, loaded[key]), key
        assert np.array_equal(loaded[key], kept[key])   # the caller's arrays are not aliased


def test_fit_names_the_epoch_of_a_non_finite_output():
    m = nn.Model([nn.dense(1)], (1,), seed=0)
    x = np.ones((4, 1), dtype=np.float32)
    x[3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(nn.NonFiniteError) as err:
        nn.fit(m, x, np.zeros(4, dtype=np.float32), loss="mse", optimizer=nn.SGD(0.1),
               epochs=2, batch_size=2, rng=np.random.default_rng(0))
    assert err.value.epoch == 0
    assert str(err.value) == "non-finite values in model output at epoch 0"


def test_backward_without_input_gradient_keeps_parameter_gradients():
    specs = [nn.conv((2, 3), 4, stride=(1, 2)), nn.relu(), nn.flatten(), nn.dense(3)]
    m = nn.Model(specs, (1, 4, 9), seed=5)
    x = np.random.default_rng(4).normal(size=(6, 1, 4, 9)).astype(np.float32)
    _, dout = nn.softmax_cross_entropy(m.forward(x), nn.one_hot(np.arange(6) % 3, 3))
    assert m.backward(dout).shape == x.shape
    full = [g.copy() for _, _, g in m.gradients()]
    assert m.backward(dout, input_grad=False) is None
    for g, ref in zip((g for _, _, g in m.gradients()), full):
        assert np.array_equal(g, ref)
