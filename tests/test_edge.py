import numpy as np
import pytest

from edgefuse import nn
from edgefuse.datasets import make_synthetic_classification
from edgefuse.edge import (EdgeModelConfig, embedding_tap_index, edge_accuracy,
                           extract_embeddings, random_edge_config, train_edge)


def _kinds(specs):
    return [s.kind for s in specs]


def test_image_template_layout():
    cfg = random_edge_config("classification", (1, 28, 28), seed=5, n_classes=10)
    kinds = _kinds(cfg.specs)
    assert kinds[:6] == ["conv", "relu", "maxpool", "conv", "relu", "flatten"]
    assert kinds[-1] == "dense"
    assert cfg.specs[-1].units == 10
    assert cfg.specs[0].kernel == (5, 5) and cfg.specs[3].kernel == (5, 5)
    assert cfg.specs[2].kernel == (2, 2)
    assert cfg.f_e in (1, 2, 4)
    assert cfg.specs[0].filters == cfg.f_e == cfg.specs[3].filters
    hidden = [s for s in cfg.specs if s.kind == "dense"][:-1]
    assert 1 <= len(hidden) <= 2 and all(s.units == 64 for s in hidden)


def test_regression_template_layout():
    cfg = random_edge_config("regression", (13,), seed=7)
    kinds = _kinds(cfg.specs)
    assert "conv" not in kinds and "maxpool" not in kinds
    assert cfg.specs[-1].units == 1
    hidden = [s for s in cfg.specs if s.kind == "dense"][:-1]
    assert 1 <= len(hidden) <= 2 and all(s.units == 64 for s in hidden)


def test_template_space_varies_with_seed():
    drawn = {random_edge_config("classification", (1, 28, 28), seed=s, n_classes=10).f_e
             for s in range(40)}
    assert drawn == {1, 2, 4}


def test_epoch_sampling_respects_range():
    epochs = [random_edge_config("regression", (8,), seed=s).epochs for s in range(1000)]
    assert min(epochs) == 10 and max(epochs) == 49


def test_config_deterministic_per_seed():
    a = random_edge_config("classification", (1, 28, 28), seed=3, n_classes=5)
    b = random_edge_config("classification", (1, 28, 28), seed=3, n_classes=5)
    assert a == b


def test_head_width_validation():
    cfg = random_edge_config("classification", (6,), seed=0, n_classes=4)
    with pytest.raises(ValueError):
        EdgeModelConfig(task="classification", specs=cfg.specs, input_shape=(6,),
                        epochs=1, feature_width=64, seed=0, n_classes=7)


@pytest.fixture(scope="module")
def blob_data():
    train = make_synthetic_classification(400, 4, 6, seed=21, center_seed=21, separation=5.0)
    test = make_synthetic_classification(200, 4, 6, seed=22, center_seed=21,
                                         separation=5.0)
    return train, test


def _quick_config(seed=1, epochs=30, lr=0.05, n_classes=4, dims=6):
    base = random_edge_config("classification", (dims,), seed=seed, n_classes=n_classes)
    return EdgeModelConfig(task="classification", specs=base.specs, input_shape=(dims,),
                           epochs=epochs, feature_width=64, seed=seed,
                           n_classes=n_classes, lr=lr, batch_size=32)


def test_zero_epochs_gives_initial_weights_and_valid_embeddings(blob_data):
    train, _ = blob_data
    cfg = _quick_config(epochs=0)
    art = train_edge(cfg, train, np.arange(100))
    fresh = nn.Model(cfg.specs, cfg.input_shape, seed=art.model.seed)
    for (_, _, p), (_, _, q) in zip(art.model.parameters(), fresh.parameters()):
        assert np.array_equal(p, q)
    emb = extract_embeddings(art, train, np.arange(10))
    assert emb.shape == (10, 64) and np.all(np.isfinite(emb))


def test_training_beats_chance_on_separable_blobs(blob_data):
    train, _ = blob_data
    cfg = _quick_config(epochs=30, lr=0.05)
    art = train_edge(cfg, train, np.arange(len(train)))
    assert art.train_accuracy is not None and art.train_accuracy > 0.25
    assert len(art.loss_trace) == 30
    assert art.loss_trace[-1] < art.loss_trace[0]


def test_training_deterministic(blob_data):
    train, _ = blob_data
    cfg = _quick_config(epochs=5)
    a = train_edge(cfg, train, np.arange(200))
    b = train_edge(cfg, train, np.arange(200))
    for (_, _, p), (_, _, q) in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(p, q)


def test_empty_assignment_rejected(blob_data):
    train, _ = blob_data
    with pytest.raises(ValueError, match="empty"):
        train_edge(_quick_config(), train, np.array([], dtype=np.int64))


def test_edge_independence_under_training_order(blob_data):
    # training other edges first must not change this edge's weights
    train, _ = blob_data
    cfg_a, cfg_b = _quick_config(seed=31, epochs=3), _quick_config(seed=32, epochs=3)
    solo = train_edge(cfg_a, train, np.arange(150))
    train_edge(cfg_b, train, np.arange(150, 300))
    after = train_edge(cfg_a, train, np.arange(150))
    for (_, _, p), (_, _, q) in zip(solo.model.parameters(), after.model.parameters()):
        assert np.array_equal(p, q)


def test_embedding_width_is_feature_width(blob_data):
    train, _ = blob_data
    for seed in range(5):
        cfg = _quick_config(seed=seed, epochs=1)
        art = train_edge(cfg, train, np.arange(50))
        emb = extract_embeddings(art, train, np.arange(7))
        assert emb.shape == (7, 64)


def test_duplicate_indices_duplicate_rows(blob_data):
    train, _ = blob_data
    art = train_edge(_quick_config(epochs=2), train, np.arange(64))
    emb = extract_embeddings(art, train, np.array([3, 3, 9]))
    assert np.array_equal(emb[0], emb[1])
    assert not np.array_equal(emb[0], emb[2])


def test_embeddings_match_tapped_forward(blob_data):
    train, _ = blob_data
    cfg = _quick_config(epochs=2)
    art = train_edge(cfg, train, np.arange(64))
    idx = np.array([1, 5, 8])
    emb = extract_embeddings(art, train, idx)
    _, taps = art.model.forward(train.inputs[idx], taps=(art.tap_index,))
    assert np.array_equal(emb, taps[art.tap_index])
    # and the tap really is the post-relu penultimate dense activation
    assert art.model.specs[art.tap_index].kind == "relu"
    assert art.model.specs[art.tap_index - 1].kind == "dense"
    assert art.model.specs[art.tap_index - 1].units == 64
    assert np.all(emb >= 0.0)


def test_edge_accuracy_in_unit_interval(blob_data):
    train, test = blob_data
    art = train_edge(_quick_config(epochs=3), train, np.arange(120))
    acc = edge_accuracy(art, test, np.arange(len(test)))
    assert 0.0 <= acc <= 1.0


def test_tap_index_requires_template_shape():
    assert embedding_tap_index((nn.dense(64), nn.relu(), nn.dense(3)), 64) == 1
    assert embedding_tap_index((nn.dense(32), nn.relu(), nn.dense(3)), 64) is None
    assert embedding_tap_index((nn.dense(3),), 64) is None
