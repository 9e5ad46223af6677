"""Dataset ingestion, synthetic generation, skewed partition sampling, and
decile binning of regression targets.

Partitions follow the two-knob skew model: every edge samples, per class, a
uniform fraction X ~ U[alpha, 1] of that class's training indices, and a test
fraction clamp(X * (1 + Y), 0, 1) with Y ~ U[-delta, delta].
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .seeding import rng_from

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    inputs: np.ndarray            # (n, ...) float32
    labels: np.ndarray            # (n,) int64 class ids or float targets
    task: str                     # "classification" | "regression"
    n_classes: Optional[int] = None
    split: str = "train"

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError(f"inputs/labels length mismatch: {len(self.inputs)} vs {len(self.labels)}")
        if self.task == "classification":
            if self.n_classes is None:
                raise ValueError("classification dataset needs n_classes")
            labels = np.asarray(self.labels)
            if len(labels) and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise ValueError("labels outside [0, n_classes)")

    def __len__(self) -> int:
        return len(self.inputs)

    def class_indices(self, cls: int) -> np.ndarray:
        return np.nonzero(np.asarray(self.labels, dtype=np.int64) == cls)[0]


# ---------------------------------------------------------------------------
# IDX (big-endian image/label) files
# ---------------------------------------------------------------------------

def _read_idx(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise ValueError(f"{path}: truncated header")
        magic, count = struct.unpack(">II", header)
        if magic == IDX_IMAGE_MAGIC:
            dims = f.read(8)
            if len(dims) < 8:
                raise ValueError(f"{path}: truncated header")
            rows, cols = struct.unpack(">II", dims)
            body = f.read()
            if len(body) < count * rows * cols:
                raise ValueError(f"{path}: truncated body ({len(body)} bytes for {count} images)")
            return np.frombuffer(body, dtype=np.uint8, count=count * rows * cols).reshape(count, rows, cols)
        if magic == IDX_LABEL_MAGIC:
            body = f.read()
            if len(body) < count:
                raise ValueError(f"{path}: truncated body ({len(body)} labels, header says {count})")
            return np.frombuffer(body, dtype=np.uint8, count=count)
        raise ValueError(f"{path}: bad magic 0x{magic:08x}")


def load_idx_images(images_path, labels_path, split="train") -> Dataset:
    """Load an IDX image/label file pair into a classification dataset.

    Pixels are scaled to [0, 1]; images come out as (n, 1, H, W) float32.
    """
    images = _read_idx(images_path)
    labels = _read_idx(labels_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path}: not an image file")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: not a label file")
    if len(images) != len(labels):
        raise ValueError(f"image/label count mismatch: {len(images)} vs {len(labels)}")
    x = (images.astype(np.float32) / 255.0)[:, None, :, :]
    y = labels.astype(np.int64)
    n_classes = int(y.max()) + 1 if len(y) else 0
    return Dataset(inputs=x, labels=y, task="classification", n_classes=n_classes, split=split)


# ---------------------------------------------------------------------------
# CSV regression files
# ---------------------------------------------------------------------------

def load_csv_regression(path, target_column: str, split="train",
                        feature_stats: Optional[tuple] = None):
    """Load a numeric CSV with a header row into a regression dataset.

    Features are z-score normalized per column (columns with zero variance
    become all-zero); the target column is kept raw. Pass the returned
    ``feature_stats`` back in when loading the matching test file so both
    splits share the training normalization.

    Returns (Dataset, feature_stats).
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no rows") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise ValueError(f"{path}: missing target column {target_column!r}")
        t_col = header.index(target_column)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError(f"{path}: no rows")
    data = np.asarray(rows, dtype=np.float64)
    target = data[:, t_col].astype(np.float64)
    feats = np.delete(data, t_col, axis=1)
    if feature_stats is None:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feature_stats = (mean, std)
    mean, std = feature_stats
    safe = np.where(std > 0, std, 1.0)
    feats = (feats - mean) / safe
    feats[:, std == 0] = 0.0
    ds = Dataset(inputs=feats.astype(np.float32), labels=target, task="regression", split=split)
    return ds, feature_stats


# ---------------------------------------------------------------------------
# Synthetic classification blobs
# ---------------------------------------------------------------------------

def make_synthetic_classification(n: int, c: int, dims: int, seed,
                                  separation: float = 3.0,
                                  center_seed=None, split="train") -> Dataset:
    """Gaussian class blobs with balanced classes, deterministic per seed.

    Class centers come from ``center_seed`` (defaults to ``seed``) so a train
    and a test split can share geometry while drawing independent noise.
    """
    if n < c:
        raise ValueError(f"need n >= c, got n={n}, c={c}")
    center_rng = rng_from(center_seed if center_seed is not None else seed, "blob-centers")
    centers = center_rng.normal(0.0, separation, size=(c, dims))
    rng = rng_from(seed, "blob-noise")
    base, extra = divmod(n, c)
    counts = np.full(c, base, dtype=np.int64)
    counts[:extra] += 1
    labels = np.repeat(np.arange(c, dtype=np.int64), counts)
    inputs = centers[labels] + rng.normal(0.0, 1.0, size=(n, dims))
    order = rng.permutation(n)
    return Dataset(inputs=inputs[order].astype(np.float32), labels=labels[order],
                   task="classification", n_classes=c, split=split)


# ---------------------------------------------------------------------------
# Decile binning of regression targets
# ---------------------------------------------------------------------------

N_BINS = 10          # deciles


def decile_edges(train_targets: np.ndarray) -> np.ndarray:
    """Equal-density bin edges from training targets (N_BINS - 1 edges).

    Duplicate edges caused by heavy ties are nudged to the next distinct
    target value so every bin stays addressable.
    """
    t = np.asarray(train_targets, dtype=np.float64)
    distinct = np.unique(t)
    if len(distinct) < N_BINS:
        raise ValueError(f"fewer than {N_BINS} distinct target values ({len(distinct)})")
    edges = np.quantile(t, np.arange(1, N_BINS) / N_BINS)
    for j in range(1, len(edges)):
        if edges[j] <= edges[j - 1]:
            nxt = distinct[distinct > edges[j - 1]]
            edges[j] = nxt[0]
    return edges


def bin_targets(targets: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map targets to bin ids; values beyond the edge range clamp to 0 / last."""
    return np.searchsorted(edges, np.asarray(targets, dtype=np.float64), side="left").astype(np.int64)


def bin_regression_targets(train: Dataset, test: Dataset):
    """Return (train_view, test_view, edges) with targets replaced by decile
    bin ids computed on the training split only."""
    if train.task != "regression":
        raise ValueError("expected regression datasets")
    if len(train) == 0:
        raise ValueError("empty training split")
    edges = decile_edges(train.labels)
    train_view = Dataset(inputs=train.inputs, labels=bin_targets(train.labels, edges),
                         task="classification", n_classes=N_BINS, split=train.split)
    test_view = Dataset(inputs=test.inputs, labels=bin_targets(test.labels, edges),
                        task="classification", n_classes=N_BINS, split=test.split)
    return train_view, test_view, edges


# ---------------------------------------------------------------------------
# Skewed edge partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    alpha: float          # minimum per-class train fraction, (0, 1]
    delta: float          # max relative train/test fraction discrepancy, [0, 1]
    n_edges: int
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.n_edges < 1:
            raise ValueError("n_edges must be >= 1")


@dataclass
class EdgeAssignment:
    """Per-edge train/test index sets plus the realized per-class fractions."""

    spec: PartitionSpec
    train_indices: list
    test_indices: list
    train_fractions: np.ndarray       # (N, c) drawn X
    test_fractions: np.ndarray        # (N, c) clamped X*(1+Y)
    test_fractions_raw: np.ndarray    # (N, c) before the [0,1] clamp

    @property
    def n_edges(self) -> int:
        return self.spec.n_edges

    def union_train_coverage(self, n_train: int) -> float:
        if self.n_edges == 0 or n_train == 0:
            return 0.0
        covered = np.zeros(n_train, dtype=bool)
        for idx in self.train_indices:
            covered[idx] = True
        return float(covered.mean())

    def mean_edge_train_coverage(self, n_train: int) -> float:
        return float(np.mean([len(idx) / n_train for idx in self.train_indices]))

    def coverage_stats(self, n_train: int) -> dict:
        return {
            "union_train_coverage": self.union_train_coverage(n_train),
            "mean_edge_train_coverage": self.mean_edge_train_coverage(n_train),
            "edge_train_counts": [int(len(i)) for i in self.train_indices],
            "edge_test_counts": [int(len(i)) for i in self.test_indices],
        }


def _fraction_count(n: int, frac: float) -> int:
    # round with a floor of one sample so no class is ever empty
    return max(1, min(n, int(round(n * frac))))


def sample_edge_assignment(train: Dataset, test: Dataset, spec: PartitionSpec) -> EdgeAssignment:
    """Draw per-edge, per-class train/test index subsets under (alpha, delta).

    Sampling is without replacement within each class; the same draw order is
    used for every edge so results depend only on (spec, seed).
    """
    if train.task != "classification":
        raise ValueError("partition sampling needs classification labels (bin regression targets first)")
    c = train.n_classes
    train_by_class = [train.class_indices(j) for j in range(c)]
    test_by_class = [test.class_indices(j) for j in range(c)]
    for j in range(c):
        if len(train_by_class[j]) == 0:
            raise ValueError(f"class {j} absent from training split")

    n, big = spec.n_edges, c
    train_fracs = np.zeros((n, big))
    test_fracs = np.zeros((n, big))
    test_fracs_raw = np.zeros((n, big))
    train_sets, test_sets = [], []
    for i in range(n):
        rng = rng_from(spec.seed, "edge-partition", i)
        tr_parts, te_parts = [], []
        for j in range(c):
            x = rng.uniform(spec.alpha, 1.0)
            take = _fraction_count(len(train_by_class[j]), x)
            tr_parts.append(rng.choice(train_by_class[j], size=take, replace=False))
            y = rng.uniform(-spec.delta, spec.delta)
            raw = x * (1.0 + y)
            frac_test = min(max(raw, 0.0), 1.0)
            train_fracs[i, j] = x
            test_fracs_raw[i, j] = raw
            test_fracs[i, j] = frac_test
            if frac_test > 0:
                if len(test_by_class[j]) == 0:
                    raise ValueError(f"class {j} absent from test split but fraction {frac_test:.3f} requested")
                take_t = _fraction_count(len(test_by_class[j]), frac_test)
                te_parts.append(rng.choice(test_by_class[j], size=take_t, replace=False))
        train_sets.append(np.sort(np.concatenate(tr_parts)))
        test_sets.append(np.sort(np.concatenate(te_parts)) if te_parts else np.empty(0, dtype=np.int64))
    return EdgeAssignment(spec=spec, train_indices=train_sets, test_indices=test_sets,
                          train_fractions=train_fracs, test_fractions=test_fracs,
                          test_fractions_raw=test_fracs_raw)
