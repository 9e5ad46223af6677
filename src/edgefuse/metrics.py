"""Evaluation metrics: confusion matrix, per-class one-vs-rest scores, ROC
AUC, and the regression trio (RMSE / MAE / R^2) plus decile-binned accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def accuracy(y_true, y_pred) -> float:
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    return float((t == p).mean())


def _tied_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mid-rank; each NaN
    ranks alone, after every number, in input order."""
    order = np.argsort(x, kind="mergesort")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True,
                                 equal_nan=False)
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(first + 0.5 * (counts - 1) + 1.0, counts)
    return ranks


def binary_auc(scores, positives) -> Optional[float]:
    """ROC AUC via the rank statistic; None when a class side is empty."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positives, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _tied_ranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class MetricReport:
    task: str
    n_samples: int
    accuracy: Optional[float] = None
    per_class: Optional[list] = None          # classification only
    macro_precision: Optional[float] = None
    macro_recall: Optional[float] = None
    macro_auc: Optional[float] = None
    rmse: Optional[float] = None              # regression only
    mae: Optional[float] = None
    r2: Optional[float] = None
    binned_accuracy: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def classification_report(y_true, y_pred, scores: Optional[np.ndarray] = None,
                          n_classes: Optional[int] = None) -> MetricReport:
    """Per-class one-vs-rest precision/recall/accuracy (and AUC when
    per-class scores are given). AUC is None, not NaN, for classes absent
    from the truth."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if n_classes is None:
        n_classes = int(max(t.max(), p.max())) + 1
    cm = confusion_matrix(t, p, n_classes)
    n = len(t)
    per_class = []
    for j in range(n_classes):
        tp = int(cm[j, j])
        fp = int(cm[:, j].sum() - tp)
        fn = int(cm[j, :].sum() - tp)
        tn = n - tp - fp - fn
        prec = tp / (tp + fp) if tp + fp else None
        rec = tp / (tp + fn) if tp + fn else None
        acc = (tp + tn) / n if n else None
        auc = binary_auc(scores[:, j], t == j) if scores is not None else None
        per_class.append({"class": j, "precision": prec, "recall": rec,
                          "accuracy": acc, "auc": auc})
    defined = lambda key: [c[key] for c in per_class if c[key] is not None]
    mp = float(np.mean(defined("precision"))) if defined("precision") else None
    mr = float(np.mean(defined("recall"))) if defined("recall") else None
    ma = float(np.mean(defined("auc"))) if defined("auc") else None
    return MetricReport(task="classification", n_samples=n, accuracy=accuracy(t, p),
                        per_class=per_class, macro_precision=mp, macro_recall=mr,
                        macro_auc=ma)


def regression_report(y_true, y_pred, bin_edges: Optional[np.ndarray] = None) -> MetricReport:
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    err = p - t
    rmse = float(np.sqrt((err ** 2).mean()))
    mae = float(np.abs(err).mean())
    ss_res = float((err ** 2).sum())
    ss_tot = float(((t - t.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    binned = None
    if bin_edges is not None:
        tb = np.searchsorted(bin_edges, t, side="left")
        pb = np.searchsorted(bin_edges, p, side="left")
        binned = float((tb == pb).mean())
    return MetricReport(task="regression", n_samples=len(t), rmse=rmse, mae=mae,
                        r2=r2, binned_accuracy=binned)
