import struct

import numpy as np
import pytest

from edgefuse.datasets import (Dataset, PartitionSpec, bin_regression_targets,
                               bin_targets, decile_edges, load_csv_regression,
                               load_idx_images, make_synthetic_classification,
                               sample_edge_assignment)


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def _write_idx_images(path, images):
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.astype(np.uint8).tobytes())


def _write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_standard_test_file_shape(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10000, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10000, dtype=np.uint8)
    _write_idx_images(tmp_path / "imgs", images)
    _write_idx_labels(tmp_path / "labels", labels)
    ds = load_idx_images(tmp_path / "imgs", tmp_path / "labels")
    assert len(ds) == 10000
    assert ds.inputs.shape == (10000, 1, 28, 28)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    assert ds.inputs.max() == pytest.approx(1.0)   # 255 present somewhere
    assert np.array_equal(ds.labels, labels)


def test_idx_empty_file_is_truncated_header(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated header"):
        load_idx_images(path, path)


def test_idx_label_count_mismatch_with_header(tmp_path):
    rng = np.random.default_rng(3)
    _write_idx_images(tmp_path / "imgs", rng.integers(0, 256, (6, 4, 4), dtype=np.uint8))
    labels = tmp_path / "labels"
    with open(labels, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 6))
        f.write(bytes([1, 2, 3, 4, 5]))            # header says 6, body has 5
    with pytest.raises(ValueError, match="truncated body"):
        load_idx_images(tmp_path / "imgs", labels)


def test_idx_image_label_count_mismatch(tmp_path):
    rng = np.random.default_rng(1)
    _write_idx_images(tmp_path / "imgs", rng.integers(0, 256, (4, 5, 5), dtype=np.uint8))
    _write_idx_labels(tmp_path / "labels", [0, 1, 2])
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx_images(tmp_path / "imgs", tmp_path / "labels")


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
    with pytest.raises(ValueError, match="bad magic"):
        load_idx_images(path, path)


# ---------------------------------------------------------------------------
# CSV regression files
# ---------------------------------------------------------------------------

def test_csv_zscore_statistics(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(2)
    rows = rng.normal([10.0, -3.0, 0.5], [2.0, 0.1, 5.0], size=(5, 3))
    target = rng.normal(size=5)
    with open(path, "w") as f:
        f.write("a,b,c,y\n")
        for r, t in zip(rows, target):
            f.write(",".join(str(v) for v in r) + f",{t}\n")
    ds, _ = load_csv_regression(path, "y")
    assert ds.inputs.shape == (5, 3)
    assert np.abs(ds.inputs.mean(axis=0)).max() < 1e-6
    assert np.abs(ds.inputs.std(axis=0) - 1.0).max() < 1e-5
    assert np.allclose(ds.labels, target)


def test_csv_constant_column_becomes_zero(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,y\n3.0,1.0\n3.0,2.0\n3.0,3.0\n")
    ds, _ = load_csv_regression(path, "y")
    assert np.all(ds.inputs == 0.0)


def test_csv_header_only_errors(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,y\n")
    with pytest.raises(ValueError, match="no rows"):
        load_csv_regression(path, "y")


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,y\n1.0,2.0\nbad,3.0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv_regression(path, "y")


def test_csv_missing_target_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="missing target column"):
        load_csv_regression(path, "y")


def test_csv_shared_stats_apply_to_test_split(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("a,y\n0.0,1.0\n2.0,2.0\n4.0,3.0\n")
    test = tmp_path / "test.csv"
    test.write_text("a,y\n2.0,9.0\n")
    _, stats = load_csv_regression(train, "y")
    ds, _ = load_csv_regression(test, "y", feature_stats=stats)
    assert ds.inputs[0, 0] == pytest.approx(0.0)   # train mean is 2.0


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------

def test_blobs_exact_class_balance():
    ds = make_synthetic_classification(100, 10, 4, seed=0)
    counts = np.bincount(ds.labels, minlength=10)
    assert np.all(counts == 10)


def test_blobs_deterministic_per_seed():
    a = make_synthetic_classification(60, 3, 5, seed=9)
    b = make_synthetic_classification(60, 3, 5, seed=9)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)
    c = make_synthetic_classification(60, 3, 5, seed=10)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_shared_centers_across_splits():
    tr = make_synthetic_classification(300, 3, 4, seed=1, center_seed=77, separation=8.0)
    te = make_synthetic_classification(300, 3, 4, seed=2, center_seed=77, separation=8.0)
    tr_means = np.stack([tr.inputs[tr.labels == j].mean(axis=0) for j in range(3)])
    te_means = np.stack([te.inputs[te.labels == j].mean(axis=0) for j in range(3)])
    assert np.abs(tr_means - te_means).max() < 1.0


def test_separated_blobs_linearly_classifiable():
    # independent oracle: least-squares one-hot regression, argmax decision
    ds = make_synthetic_classification(500, 5, 8, seed=3, separation=6.0)
    x = np.hstack([ds.inputs, np.ones((len(ds), 1))])
    onehot = np.eye(5)[ds.labels]
    w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    pred = (x @ w).argmax(axis=1)
    assert (pred == ds.labels).mean() > 0.95


def test_blobs_require_n_at_least_c():
    with pytest.raises(ValueError):
        make_synthetic_classification(5, 10, 3, seed=0)


# ---------------------------------------------------------------------------
# decile binning
# ---------------------------------------------------------------------------

def _reg_dataset(targets):
    t = np.asarray(targets, dtype=np.float64)
    return Dataset(inputs=np.zeros((len(t), 2), dtype=np.float32), labels=t,
                   task="regression")


def test_uniform_ranks_give_equal_bins():
    train = _reg_dataset(np.arange(1, 101, dtype=np.float64))
    test = _reg_dataset([50.0])
    tr_view, _, edges = bin_regression_targets(train, test)
    assert len(edges) == 9
    assert np.all((edges > 10) & (edges < 100))
    assert edges[0] == pytest.approx(10.9)
    counts = np.bincount(tr_view.labels, minlength=10)
    assert np.all(counts == 10)


def test_out_of_range_test_targets_clamp():
    train = _reg_dataset(np.arange(1, 101, dtype=np.float64))
    test = _reg_dataset([-1000.0, 1000.0])
    _, te_view, _ = bin_regression_targets(train, test)
    assert te_view.labels[0] == 0
    assert te_view.labels[1] == 9


def test_skewed_targets_bin_counts_within_one():
    rng = np.random.default_rng(4)
    targets = rng.lognormal(mean=0.0, sigma=2.0, size=1003)
    train = _reg_dataset(targets)
    tr_view, _, _ = bin_regression_targets(train, _reg_dataset([1.0]))
    counts = np.bincount(tr_view.labels, minlength=10)
    assert counts.max() - counts.min() <= 1
    assert set(counts) <= {100, 101}


def test_rank_oracle_agreement():
    # bin of each train target should equal its rank-derived decile
    rng = np.random.default_rng(5)
    targets = rng.normal(size=200)
    edges = decile_edges(targets)
    bins = bin_targets(targets, edges)
    ranks = np.argsort(np.argsort(targets))
    expected = np.minimum(ranks * 10 // 200, 9)
    assert np.array_equal(bins, expected)


def test_too_few_distinct_targets():
    with pytest.raises(ValueError, match="distinct"):
        decile_edges(np.array([1.0, 2.0, 3.0] * 10))


def test_tied_targets_keep_strictly_increasing_edges():
    targets = np.concatenate([np.zeros(500), np.arange(1, 51, dtype=np.float64)])
    edges = decile_edges(targets)
    assert np.all(np.diff(edges) > 0)


# ---------------------------------------------------------------------------
# partition sampling
# ---------------------------------------------------------------------------

def _cls_pair(n_train=600, n_test=300, c=3, seed=0, sep=4.0):
    tr = make_synthetic_classification(n_train, c, 4, seed=seed, center_seed=seed, separation=sep)
    te = make_synthetic_classification(n_test, c, 4, seed=seed + 1, center_seed=seed,
                                       separation=sep)
    return tr, te


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(alpha=0.0, delta=0.1, n_edges=2)
    with pytest.raises(ValueError):
        PartitionSpec(alpha=0.5, delta=1.5, n_edges=2)
    with pytest.raises(ValueError):
        PartitionSpec(alpha=0.5, delta=0.5, n_edges=0)


def test_alpha_quarter_means_at_least_quarter_per_class():
    tr, te = _cls_pair()
    spec = PartitionSpec(alpha=0.25, delta=0.0, n_edges=8, seed=1)
    asg = sample_edge_assignment(tr, te, spec)
    assert np.all(asg.train_fractions >= 0.25) and np.all(asg.train_fractions <= 1.0)
    for i in range(8):
        for j in range(3):
            cls_idx = set(tr.class_indices(j))
            got = [k for k in asg.train_indices[i] if k in cls_idx]
            assert len(got) >= 0.25 * len(cls_idx) - 0.5


def test_delta_bounds_on_test_fraction():
    tr, te = _cls_pair()
    spec = PartitionSpec(alpha=0.05, delta=0.5, n_edges=10, seed=2)
    asg = sample_edge_assignment(tr, te, spec)
    lo = asg.train_fractions * 0.5
    hi = asg.train_fractions * 1.5
    assert np.all(asg.test_fractions_raw >= lo - 1e-12)
    assert np.all(asg.test_fractions_raw <= hi + 1e-12)
    assert np.all(asg.test_fractions >= 0.0) and np.all(asg.test_fractions <= 1.0)
    # the worked example: a 10% train fraction under delta=0.5 stays in [5%, 15%]
    frac = asg.train_fractions.copy()
    frac[:] = 0.10
    assert np.all(0.05 - 1e-12 <= frac * 0.5) and np.all(frac * 1.5 <= 0.15 + 1e-12)


def test_delta_zero_matches_train_fraction_exactly():
    tr, te = _cls_pair()
    spec = PartitionSpec(alpha=0.3, delta=0.0, n_edges=5, seed=3)
    asg = sample_edge_assignment(tr, te, spec)
    assert np.array_equal(asg.test_fractions, asg.train_fractions)


def test_alpha_one_gives_full_training_set():
    tr, te = _cls_pair()
    spec = PartitionSpec(alpha=1.0, delta=0.0, n_edges=4, seed=4)
    asg = sample_edge_assignment(tr, te, spec)
    for i in range(4):
        assert len(asg.train_indices[i]) == len(tr)
    assert asg.union_train_coverage(len(tr)) == 1.0


def test_sampling_is_within_class():
    tr, te = _cls_pair()
    spec = PartitionSpec(alpha=0.2, delta=0.3, n_edges=6, seed=5)
    asg = sample_edge_assignment(tr, te, spec)
    for i in range(6):
        labels = np.asarray(tr.labels)[asg.train_indices[i]]
        counts = np.bincount(labels, minlength=3)
        assert np.all(counts >= 1)          # every class represented
        # indices are unique (subset semantics, no replacement)
        assert len(np.unique(asg.train_indices[i])) == len(asg.train_indices[i])


def test_assignment_deterministic():
    tr, te = _cls_pair()
    spec = PartitionSpec(alpha=0.2, delta=0.3, n_edges=3, seed=6)
    a1 = sample_edge_assignment(tr, te, spec)
    a2 = sample_edge_assignment(tr, te, spec)
    for i in range(3):
        assert np.array_equal(a1.train_indices[i], a2.train_indices[i])
        assert np.array_equal(a1.test_indices[i], a2.test_indices[i])


def test_mean_edge_coverage_tracks_alpha_expectation():
    # the mean per-edge coverage estimates (1 + alpha) / 2
    tr, te = _cls_pair(n_train=20000, n_test=2000, c=10, seed=8)
    for alpha, expected in [(0.05, 0.525), (0.3, 0.65), (0.7, 0.85)]:
        spec = PartitionSpec(alpha=alpha, delta=0.0, n_edges=20, seed=9)
        asg = sample_edge_assignment(tr, te, spec)
        assert asg.mean_edge_train_coverage(len(tr)) == pytest.approx(expected, abs=0.05)
    # and with many edges the union covers essentially everything
    spec = PartitionSpec(alpha=0.05, delta=0.0, n_edges=20, seed=10)
    asg = sample_edge_assignment(tr, te, spec)
    assert asg.union_train_coverage(len(tr)) > 0.95


def test_class_absent_in_test_errors():
    tr, _ = _cls_pair()
    te_missing = Dataset(inputs=np.zeros((5, 4), dtype=np.float32),
                         labels=np.zeros(5, dtype=np.int64), task="classification",
                         n_classes=3)
    spec = PartitionSpec(alpha=0.5, delta=0.0, n_edges=2, seed=0)
    with pytest.raises(ValueError, match="absent from test"):
        sample_edge_assignment(tr, te_missing, spec)
