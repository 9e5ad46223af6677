"""Weak edge models: randomized configs, local training, embedding export.

Every edge model ends in a 64-unit (``feature_width``) dense layer followed
by the task head; the post-ReLU activations of that layer are the embedding
that gets transferred. Image inputs draw from the conv template family,
flat inputs from the dense family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn
from .datasets import Dataset
from .seeding import derived_seed, rng_from

CONV_FILTER_CHOICES = (1, 2, 4)
DEFAULT_EPOCH_RANGE = (10, 49)
FORWARD_CHUNK = 512                # rows per inference forward pass


@dataclass(frozen=True)
class EdgeModelConfig:
    task: str                      # "classification" | "regression"
    specs: tuple                   # LayerSpec sequence
    input_shape: tuple
    epochs: int
    feature_width: int
    seed: int
    n_classes: Optional[int] = None
    lr: float = 1e-4
    batch_size: int = 32

    def __post_init__(self):
        # each error starts with the field it rejects; io names the artifact file before it
        tap = embedding_tap_index(self.specs, self.feature_width)
        if tap is None:
            raise ValueError(f"specs lack a penultimate dense layer of {self.feature_width!r} units")
        head = self.specs[-1]
        if head.kind != "dense":
            raise ValueError("specs must end in a dense output layer")
        if self.task == "classification":
            if head.units != self.n_classes:
                raise ValueError(f"specs end in {head.units} units, not n_classes={self.n_classes}")
        elif self.task == "regression":
            if head.units != 1:
                raise ValueError(f"specs end in {head.units} units; a regression head has 1")
        else:
            raise ValueError(f"task {self.task!r} is unknown")

    @property
    def loss(self) -> str:
        return "cross_entropy" if self.task == "classification" else "mse"

    @property
    def f_e(self) -> Optional[int]:
        """Filters of the first conv layer; None for a dense-only model."""
        return next((s.filters for s in self.specs if s.kind == "conv"), None)


def embedding_tap_index(specs: Sequence, feature_width: int) -> Optional[int]:
    """Index of the activation right after the last hidden dense layer.

    That layer must have ``feature_width`` units; returns None when the
    architecture does not fit the template contract.
    """
    dense_idx = [i for i, s in enumerate(specs) if s.kind == "dense"]
    if len(dense_idx) < 2:
        return None
    penult = dense_idx[-2]
    if specs[penult].units != feature_width:
        return None
    if penult + 1 >= len(specs) or specs[penult + 1].kind != "relu":
        return None
    return penult + 1


def random_edge_config(task: str, input_shape, seed, *, n_classes: Optional[int] = None,
                       epoch_range=DEFAULT_EPOCH_RANGE, feature_width: int = 64,
                       lr: float = 1e-4, batch_size: int = 32) -> EdgeModelConfig:
    """Draw one architecture + epoch count from the weak-model template space.

    Images: conv(5x5, f_e) -> pool(2x2) -> conv(5x5, f_e) -> 1-2 dense(64) -> head,
    with f_e in {1, 2, 4}. Flat inputs: 1-2 dense(64) -> head. All choices come
    from a generator keyed by ``seed``, so the draw is reproducible.
    """
    lo, hi = epoch_range
    if lo < 0 or hi < lo:
        raise ValueError(f"bad epoch range {epoch_range}")
    rng = rng_from(seed, "edge-config")
    f_e = int(rng.choice(CONV_FILTER_CHOICES))
    n_hidden = int(rng.integers(1, 3))
    epochs = int(rng.integers(lo, hi + 1))
    out_units = n_classes if task == "classification" else 1
    if task == "classification" and n_classes is None:
        raise ValueError("classification config needs n_classes")

    specs: list = []
    if len(input_shape) == 3:
        specs += [nn.conv(5, f_e), nn.relu(), nn.maxpool(2), nn.conv(5, f_e), nn.relu(), nn.flatten()]
    elif len(input_shape) == 1:
        pass
    else:
        raise ValueError(f"unsupported input shape {input_shape}")
    for _ in range(n_hidden):
        specs += [nn.dense(feature_width), nn.relu()]
    specs.append(nn.dense(out_units))

    return EdgeModelConfig(task=task, specs=tuple(specs), input_shape=tuple(input_shape),
                           epochs=epochs, feature_width=feature_width, seed=int(seed),
                           n_classes=n_classes, lr=lr, batch_size=batch_size)


@dataclass
class EdgeArtifact:
    config: EdgeModelConfig
    model: nn.Model
    loss_trace: list
    epochs_run: int
    n_train: int
    train_accuracy: Optional[float] = None

    @property
    def feature_width(self) -> int:
        return self.config.feature_width

    @property
    def tap_index(self) -> int:
        """Index of the layer whose activations are the embeddings."""
        return embedding_tap_index(self.config.specs, self.config.feature_width)

    def param_count(self) -> int:
        return self.model.param_count()


def build_edge_model(config: EdgeModelConfig) -> nn.Model:
    seed = derived_seed(config.seed, "edge-weights")
    return nn.Model(config.specs, config.input_shape, seed=seed, dtype=np.float32)


def train_edge(config: EdgeModelConfig, dataset: Dataset, train_indices) -> EdgeArtifact:
    """Train one edge model on its assigned index subset only.

    0 epochs is legal and returns the freshly initialized model; the
    embeddings of an untrained model are still well-formed.
    """
    idx = np.asarray(train_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty edge assignment")
    model = build_edge_model(config)
    x = dataset.inputs[idx]
    y = np.asarray(dataset.labels)[idx]
    opt = nn.SGD(config.lr)
    rng = rng_from(config.seed, "edge-shuffle")
    trace = nn.fit(model, x, y, loss=config.loss, optimizer=opt,
                   epochs=config.epochs, batch_size=config.batch_size,
                   rng=rng, n_classes=config.n_classes)
    art = EdgeArtifact(config=config, model=model, loss_trace=trace,
                       epochs_run=config.epochs, n_train=int(idx.size))
    if config.task == "classification":
        art.train_accuracy = edge_accuracy(art, dataset, idx)
    return art


def batched_forward(model: nn.Model, x: np.ndarray, upto: Optional[int] = None) -> np.ndarray:
    """``model.infer(x, upto)`` in chunks of ``FORWARD_CHUNK`` rows."""
    outs = [model.infer(x[start:start + FORWARD_CHUNK], upto)
            for start in range(0, len(x), FORWARD_CHUNK)]
    shape = model.output_shape if upto is None else model.layers[upto].out_shape
    return np.concatenate(outs) if outs else np.zeros((0,) + shape, dtype=model.dtype)


def extract_embeddings(artifact: EdgeArtifact, dataset: Dataset, indices) -> np.ndarray:
    """Penultimate-layer activations for the given sample indices, in order."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros((0, artifact.feature_width), dtype=np.float32)
    return batched_forward(artifact.model, dataset.inputs[idx], upto=artifact.tap_index)


def edge_logits(artifact: EdgeArtifact, dataset: Dataset, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    return batched_forward(artifact.model, dataset.inputs[idx])


def edge_predict_proba(artifact: EdgeArtifact, dataset: Dataset, indices) -> np.ndarray:
    return nn.softmax(edge_logits(artifact, dataset, indices))


def edge_accuracy(artifact: EdgeArtifact, dataset: Dataset, indices) -> float:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return float("nan")
    pred = edge_logits(artifact, dataset, idx).argmax(axis=1)
    truth = np.asarray(dataset.labels, dtype=np.int64)[idx]
    return float((pred == truth).mean())
