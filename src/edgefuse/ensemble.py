"""The server-side meta-learner: stack per-edge embeddings into an
(n, N, width) float32 array, fill its missing slots, convolve a (N/2, width/2)
kernel bank over it, and predict. Training and inference take that one array;
only ``stack_embeddings`` also returns the (n, N) mask of received slots. Also
provides the majority / average voting baselines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn
from .datasets import Dataset
from .edge import EdgeArtifact, batched_forward, edge_predict_proba, extract_embeddings
from .metrics import MetricReport, classification_report, regression_report
from .seeding import derived_seed, rng_from
from .vae import Vae, fill


@dataclass(frozen=True)
class EnsembleConfig:
    n_edges: int
    feature_width: int
    task: str
    n_outputs: int                      # classes, or 1 for regression
    n_filters: int = 64
    hidden: int = 64
    epochs: int = 100
    lr: float = 1e-4
    batch_size: int = 128
    seed: int = 0

    def resolved_kernel(self) -> tuple[int, int]:
        if self.n_edges % 2 or self.feature_width % 2:
            warnings.warn("odd N or feature width: ensemble kernel floored to (N//2, width//2)")
        return (max(1, self.n_edges // 2), max(1, self.feature_width // 2))

    def resolved_stride(self) -> tuple[int, int]:
        kh, kw = self.resolved_kernel()
        return (max(1, kh // 2), max(1, kw // 2))

    @property
    def loss(self) -> str:
        return "cross_entropy" if self.task == "classification" else "mse"


def stack_embeddings(edges: Sequence[EdgeArtifact], dataset: Dataset, index_sets):
    """Edge i's embeddings of its rows ``index_sets[i]`` of ``dataset`` in an
    (n, N, width) float32 stack, zero elsewhere, plus the (n, N) mask of the
    slots that hold one."""
    width = edges[0].feature_width
    values = np.zeros((len(dataset), len(edges), width), dtype=np.float32)
    mask = np.zeros((len(dataset), len(edges)), dtype=bool)
    for i, art in enumerate(edges):
        if art.feature_width != width:
            raise nn.ShapeMismatchError(f"edge {i} feature width {art.feature_width} != {width}")
        idx = np.asarray(index_sets[i], dtype=np.int64)
        values[idx, i, :] = extract_embeddings(art, dataset, idx)
        mask[idx, i] = True
    return values, mask


def build_ensemble_dataset(edges: Sequence[EdgeArtifact], vaes: Optional[Sequence[Vae]],
                           dataset: Dataset, index_sets, *, policy: str = "vae",
                           fill_seed=0) -> np.ndarray:
    """The filled (n, N, width) float32 array of every edge's embeddings for
    all dataset rows: slot (k, i) holds edge i's real embedding when k is in
    ``index_sets[i]``, and is filled per the policy otherwise."""
    values, mask = stack_embeddings(edges, dataset, index_sets)
    return fill(policy, values, mask, vaes=vaes, seed=fill_seed)


def make_ensemble_model(config: EnsembleConfig) -> nn.Model:
    kernel = config.resolved_kernel()
    stride = config.resolved_stride()
    specs = [
        nn.conv(kernel, config.n_filters, stride=stride),
        nn.relu(),
        nn.flatten(),
        nn.dense(config.hidden),
        nn.relu(),
        nn.dense(config.n_outputs),
    ]
    input_shape = (1, config.n_edges, config.feature_width)
    seed = derived_seed(config.seed, "ensemble-weights")
    return nn.Model(specs, input_shape, seed=seed, dtype=np.float32)


def _as_conv_input(values: np.ndarray) -> np.ndarray:
    n, n_edges, width = values.shape
    return values.reshape(n, 1, n_edges, width)


def train_ensemble(values: np.ndarray, labels, config: EnsembleConfig):
    """Train the meta-learner on a filled (n, N, width) array; returns (model, loss trace)."""
    y = np.asarray(labels)
    if len(y) != len(values):
        raise nn.ShapeMismatchError("labels do not align with the embedding matrix")
    model = make_ensemble_model(config)
    rng = rng_from(config.seed, "ensemble-shuffle")
    trace = nn.fit(model, _as_conv_input(values), y, loss=config.loss,
                   optimizer=nn.Adam(config.lr), epochs=config.epochs,
                   batch_size=config.batch_size, rng=rng,
                   n_classes=config.n_outputs if config.task == "classification" else None)
    return model, trace


def ensemble_logits(model: nn.Model, values: np.ndarray) -> np.ndarray:
    return batched_forward(model, _as_conv_input(values))


def predict(model: nn.Model, values: np.ndarray, task: str = "classification") -> np.ndarray:
    """Class ids for classification, real values for regression."""
    logits = ensemble_logits(model, values)
    if task == "classification":
        return logits.argmax(axis=1)
    return logits[:, 0]


def predict_proba(model: nn.Model, values: np.ndarray) -> np.ndarray:
    return nn.softmax(ensemble_logits(model, values))


def vote_baselines(edges: Sequence[EdgeArtifact], dataset: Dataset, indices) -> dict:
    """Majority vote (mode of per-edge argmax, ties to the lowest class) and
    average vote (argmax of the mean softmax) over the given samples."""
    if not edges:
        raise ValueError("need at least one edge")
    idx = np.asarray(indices, dtype=np.int64)
    probs = np.stack([edge_predict_proba(art, dataset, idx) for art in edges])  # (N, n, c)
    n_classes = probs.shape[2]
    votes = probs.argmax(axis=2)                                # (N, n)
    counts = np.zeros((len(idx), n_classes), dtype=np.int64)
    for e in range(votes.shape[0]):
        np.add.at(counts, (np.arange(len(idx)), votes[e]), 1)
    majority = counts.argmax(axis=1)                            # argmax takes lowest index on ties
    average = probs.mean(axis=0).argmax(axis=1)
    return {"majority": majority, "average": average}


def evaluate(predictions, truth, task: str, *, scores: Optional[np.ndarray] = None,
             n_classes: Optional[int] = None, bin_edges=None) -> MetricReport:
    if task == "classification":
        return classification_report(truth, predictions, scores=scores, n_classes=n_classes)
    if task == "regression":
        return regression_report(truth, predictions, bin_edges=bin_edges)
    raise ValueError(f"unknown task {task!r}")
