import numpy as np
import pytest

from edgefuse import nn
from edgefuse.datasets import (PartitionSpec, make_synthetic_classification,
                               sample_edge_assignment)
from edgefuse.edge import EdgeArtifact, EdgeModelConfig, extract_embeddings, train_edge
from edgefuse.ensemble import (EnsembleConfig, build_ensemble_dataset, ensemble_logits,
                               evaluate, make_ensemble_model, predict, stack_embeddings,
                               train_ensemble, vote_baselines)
from edgefuse.metrics import _tied_ranks, binary_auc, confusion_matrix
from edgefuse.vae import Vae, slot_latent

from helpers import average_ranks, scalar_conv2d


@pytest.fixture(scope="module")
def stack_setup():
    c, dims, n_edges = 3, 4, 3
    train = make_synthetic_classification(120, c, dims, seed=31, center_seed=31, separation=5.0)
    test = make_synthetic_classification(60, c, dims, seed=32, center_seed=31,
                                         separation=5.0)
    asg = sample_edge_assignment(train, test, PartitionSpec(alpha=0.4, delta=0.3,
                                                            n_edges=n_edges, seed=33))
    edges = []
    for i in range(n_edges):
        cfg = EdgeModelConfig(task="classification",
                              specs=(nn.dense(64), nn.relu(), nn.dense(c)),
                              input_shape=(dims,), epochs=3, feature_width=64,
                              seed=40 + i, n_classes=c, lr=0.02, batch_size=16)
        edges.append(train_edge(cfg, train, asg.train_indices[i]))
    vaes = [Vae(64, seed=50 + i) for i in range(n_edges)]
    return train, test, asg, edges, vaes


# ---------------------------------------------------------------------------
# stacked dataset construction
# ---------------------------------------------------------------------------

def test_full_coverage_means_no_imputation(stack_setup):
    train, test, _, edges, vaes = stack_setup
    asg_full = sample_edge_assignment(train, test,
                                      PartitionSpec(alpha=1.0, delta=0.0, n_edges=3, seed=1))
    values = build_ensemble_dataset(edges, vaes, train, asg_full.train_indices, policy="vae")
    assert stack_embeddings(edges, train, asg_full.train_indices)[1].all()
    for i, art in enumerate(edges):
        emb = extract_embeddings(art, train, np.arange(len(train)))
        assert np.array_equal(values[:, i, :], emb)       # bit-equal, untouched


def test_received_slots_bit_equal_edge_embeddings(stack_setup):
    train, _, asg, edges, vaes = stack_setup
    values = build_ensemble_dataset(edges, vaes, train, asg.train_indices, policy="vae")
    _, mask = stack_embeddings(edges, train, asg.train_indices)
    for i, art in enumerate(edges):
        idx = asg.train_indices[i]
        emb = extract_embeddings(art, train, idx)
        assert np.array_equal(values[idx, i, :], emb)
        assert mask[idx, i].all() and mask[:, i].sum() == len(idx)


def test_uncovered_sample_fully_imputed(stack_setup):
    train, _, asg, edges, vaes = stack_setup
    dropped = [ix[ix != 0] for ix in asg.train_indices]
    assert not stack_embeddings(edges, train, dropped)[1][0].any()
    values = build_ensemble_dataset(edges, vaes, train, dropped, policy="vae")
    for i, vae in enumerate(vaes):     # row 0's own latent, decoded by edge i's VAE (float32)
        expected = vae.decode(slot_latent(0, i, 0)[None, None])[0, 0]
        np.testing.assert_allclose(values[0, i], expected, rtol=1e-5, atol=1e-5)
    zero = build_ensemble_dataset(edges, vaes, train, dropped, policy="zero")
    assert np.all(zero[0] == 0.0)


def test_mask_fraction_tracks_alpha_expectation():
    c, dims = 10, 4
    train = make_synthetic_classification(1000, c, dims, seed=0, center_seed=0, separation=4.0)
    test = make_synthetic_classification(500, c, dims, seed=1, center_seed=0,
                                         separation=4.0)
    asg = sample_edge_assignment(train, test, PartitionSpec(alpha=0.3, delta=0.2,
                                                            n_edges=20, seed=4))
    # mask-true fraction equals realized per-edge coverage; both sit near the
    # U[alpha, 1] mean of (1 + alpha) / 2
    mask = np.zeros((1000, 20), dtype=bool)
    for i, ix in enumerate(asg.train_indices):
        mask[ix, i] = True
    realized = np.mean([len(ix) for ix in asg.train_indices]) / 1000
    assert mask.mean() == pytest.approx(realized, abs=1e-12)
    assert abs(mask.mean() - (1 + 0.3) / 2) < 0.02


def test_feature_width_mismatch_rejected(stack_setup):
    train, _, asg, edges, vaes = stack_setup
    bad = list(edges)
    cfg = EdgeModelConfig(task="classification",
                          specs=(nn.dense(32), nn.relu(), nn.dense(3)),
                          input_shape=(4,), epochs=0, feature_width=32,
                          seed=0, n_classes=3)
    bad[1] = train_edge(cfg, train, asg.train_indices[1])
    with pytest.raises(nn.ShapeMismatchError):
        build_ensemble_dataset(bad, vaes, train, asg.train_indices, policy="zero")


# ---------------------------------------------------------------------------
# model / kernel geometry
# ---------------------------------------------------------------------------

def test_kernel_defaults_to_half_stack():
    cfg = EnsembleConfig(n_edges=20, feature_width=64, task="classification", n_outputs=10)
    assert cfg.resolved_kernel() == (10, 32)
    assert cfg.resolved_stride() == (5, 16)


def test_odd_dims_floor_with_warning():
    cfg = EnsembleConfig(n_edges=5, feature_width=6, task="classification", n_outputs=2)
    with pytest.warns(UserWarning, match="floored"):
        assert cfg.resolved_kernel() == (2, 3)


def test_output_head_matches_task():
    for task, outputs in (("classification", 7), ("regression", 1)):
        cfg = EnsembleConfig(n_edges=4, feature_width=8, task=task, n_outputs=outputs)
        model = make_ensemble_model(cfg)
        assert model.output_shape == (outputs,)


def test_micro_conv_forward_matches_scalar_oracle():
    # N=2 edges, width 4: kernel (1, 2), stride (1, 1)
    cfg = EnsembleConfig(n_edges=2, feature_width=4, task="classification",
                         n_outputs=2, n_filters=3, seed=7)
    assert cfg.resolved_kernel() == (1, 2)
    assert cfg.resolved_stride() == (1, 1)
    model = make_ensemble_model(cfg)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 1, 2, 4)).astype(np.float32)
    conv = model.layers[0]
    ours = nn.conv2d_forward(x, conv.params["w"], conv.params["b"], conv.stride)
    ref = scalar_conv2d(x, conv.params["w"], conv.params["b"], conv.stride)
    assert np.abs(ours - ref).max() < 1e-5


# ---------------------------------------------------------------------------
# training / prediction
# ---------------------------------------------------------------------------

def _toy_matrix(n=40, n_edges=4, width=8, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    values = rng.normal(size=(n, n_edges, width)).astype(np.float32)
    values[:, 0, 0] = labels * 3.0          # plant an easy signal
    return values, labels


def test_single_class_labels_learned_exactly():
    mat, _ = _toy_matrix()
    labels = np.full(len(mat), 2)
    cfg = EnsembleConfig(n_edges=4, feature_width=8, task="classification",
                         n_outputs=3, epochs=60, lr=0.01, batch_size=16, seed=1)
    model, trace = train_ensemble(mat, labels, cfg)
    assert np.all(predict(model, mat) == 2)
    assert trace[-1] < 0.05


def test_batch_of_one_matches_batched_inference():
    mat, labels = _toy_matrix(seed=4)
    cfg = EnsembleConfig(n_edges=4, feature_width=8, task="classification",
                         n_outputs=2, epochs=3, lr=0.01, batch_size=16, seed=3)
    model, _ = train_ensemble(mat, labels, cfg)
    batched = ensemble_logits(model, mat)
    singles = np.concatenate([ensemble_logits(model, mat[i:i + 1])
                              for i in range(len(labels))])
    assert np.allclose(batched, singles, atol=1e-5)
    assert np.array_equal(batched.argmax(axis=1), singles.argmax(axis=1))


def test_regression_head_predicts_reals():
    rng = np.random.default_rng(5)
    n = 50
    values = rng.normal(size=(n, 4, 8)).astype(np.float32)
    target = values[:, 0, 0].astype(np.float64) * 2.0
    cfg = EnsembleConfig(n_edges=4, feature_width=8, task="regression",
                         n_outputs=1, epochs=80, lr=0.02, batch_size=16, seed=4)
    model, trace = train_ensemble(values, target, cfg)
    preds = predict(model, values, task="regression")
    assert preds.shape == (n,)
    assert trace[-1] < trace[0]


def test_misaligned_labels_rejected():
    mat, labels = _toy_matrix()
    cfg = EnsembleConfig(n_edges=4, feature_width=8, task="classification",
                         n_outputs=2, epochs=1, seed=0)
    with pytest.raises(nn.ShapeMismatchError):
        train_ensemble(mat, labels[:-3], cfg)


# ---------------------------------------------------------------------------
# voting baselines
# ---------------------------------------------------------------------------

def _bias_edge(logit_bias, c=3, dims=2, seed=0):
    """An edge whose logits equal ``logit_bias`` for any input (zero weights)."""
    cfg = EdgeModelConfig(task="classification",
                          specs=(nn.dense(64), nn.relu(), nn.dense(c)),
                          input_shape=(dims,), epochs=0, feature_width=64,
                          seed=seed, n_classes=c)
    art = train_edge(cfg, _bias_edge.data, np.arange(4))
    head = art.model.layers[-1]
    head.params["w"][:] = 0.0
    head.params["b"][:] = np.asarray(logit_bias, dtype=np.float32)
    return art


_bias_edge.data = make_synthetic_classification(4, 3, 2, seed=77)


def test_majority_vote_mode_and_tie_break():
    edges = [_bias_edge([5.0, 0.0, 0.0]), _bias_edge([4.0, 0.0, 0.0]),
             _bias_edge([0.0, 6.0, 0.0])]
    votes = vote_baselines(edges, _bias_edge.data, np.arange(4))
    assert np.all(votes["majority"] == 0)          # {0, 0, 1} -> 0
    # a perfect 1-1-1 split breaks ties toward the lowest class index
    edges = [_bias_edge([5.0, 0.0, 0.0]), _bias_edge([0.0, 5.0, 0.0]),
             _bias_edge([0.0, 0.0, 5.0])]
    votes = vote_baselines(edges, _bias_edge.data, np.arange(4))
    assert np.all(votes["majority"] == 0)


def test_single_edge_votes_equal_edge_prediction(stack_setup):
    train, test, asg, edges, _ = stack_setup
    idx = np.arange(20)
    votes = vote_baselines(edges[:1], test, idx)
    from edgefuse.edge import edge_logits
    expected = edge_logits(edges[0], test, idx).argmax(axis=1)
    assert np.array_equal(votes["majority"], expected)
    assert np.array_equal(votes["average"], expected)


def test_average_vote_matches_scalar_oracle(stack_setup):
    train, test, asg, edges, _ = stack_setup
    idx = np.arange(15)
    votes = vote_baselines(edges, test, idx)
    from edgefuse.edge import edge_predict_proba
    probs = [edge_predict_proba(a, test, idx) for a in edges]
    expected = []
    for r in range(len(idx)):
        mean = np.zeros(3)
        for p in probs:
            for j in range(3):
                mean[j] += float(p[r, j])
        expected.append(int(np.argmax(mean / len(edges))))
    assert np.array_equal(votes["average"], np.asarray(expected))


def test_vote_baselines_need_an_edge(stack_setup):
    _, test, _, _, _ = stack_setup
    with pytest.raises(ValueError):
        vote_baselines([], test, np.arange(3))


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

def test_perfect_predictions_score_one():
    y = np.array([0, 1, 2, 1, 0])
    scores = np.eye(3)[y]
    rep = evaluate(y, y, "classification", scores=scores, n_classes=3)
    assert rep.accuracy == 1.0
    for entry in rep.per_class:
        assert entry["precision"] == 1.0
        assert entry["recall"] == 1.0
        assert entry["auc"] == 1.0
    reg = evaluate(y.astype(float), y.astype(float), "regression")
    assert reg.rmse == 0.0 and reg.mae == 0.0 and reg.r2 == 1.0


def test_constant_predictor_r2_zero():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    rep = evaluate(np.full(4, truth.mean()), truth, "regression")
    assert rep.r2 == pytest.approx(0.0, abs=1e-12)


def test_confusion_matrix_fixture_exact():
    y_true = np.array([0, 0, 1, 1, 2, 2, 2, 1])
    y_pred = np.array([0, 1, 1, 1, 2, 0, 2, 2])
    cm = confusion_matrix(y_true, y_pred, 3)
    assert np.array_equal(cm, [[1, 1, 0], [0, 2, 1], [1, 0, 2]])
    rep = evaluate(y_pred, y_true, "classification", n_classes=3)
    assert rep.per_class[1]["precision"] == pytest.approx(2 / 3)
    assert rep.per_class[1]["recall"] == pytest.approx(2 / 3)
    assert rep.per_class[0]["precision"] == pytest.approx(1 / 2)
    assert rep.accuracy == pytest.approx(5 / 8)


def test_auc_undefined_for_single_class_truth():
    y_true = np.zeros(5, dtype=int)
    scores = np.random.default_rng(0).random((5, 2))
    rep = evaluate(np.zeros(5, dtype=int), y_true, "classification",
                   scores=scores, n_classes=2)
    assert rep.per_class[0]["auc"] is None and rep.per_class[1]["auc"] is None
    assert rep.macro_auc is None
    assert rep.accuracy == 1.0


def test_binary_auc_hand_cases():
    assert binary_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert binary_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert binary_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert binary_auc([0.3, 0.7], [0, 0]) is None


def test_tied_ranks_match_pairwise_oracle():
    """Ties share their mid-rank, each NaN ranks alone after every number,
    and the result equals an O(n^2) pairwise count exactly."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, np.nan]), st.floats())

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(xs=st.lists(values, max_size=25))
    def check(xs):
        ranks = _tied_ranks(np.asarray(xs, dtype=np.float64))
        assert ranks.tolist() == average_ranks(xs)

    check()


def test_binned_regression_accuracy():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.array([1.1, 1.9, 2.4, 10.0])     # 2.4 lands in bin 1, truth 3.0 in bin 2
    edges = np.array([1.5, 2.5, 3.5])
    rep = evaluate(pred, truth, "regression", bin_edges=edges)
    assert rep.binned_accuracy == pytest.approx(3 / 4)
