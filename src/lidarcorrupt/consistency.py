"""Numeric kernels for cross-density consistency training.

Pure functions only: random point masking, prediction subsampling, k-NN
inverse-distance interpolation of sparse predictions onto dense anchors,
and the completion/confirmation losses with their weighted sum. No training
loop, no gradients; external training code supplies the prediction fields
and consumes the loss values. Works unchanged on per-point class scores and
on flattened grid-cell feature maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng

__all__ = [
    "PredictionField",
    "MaskSelection",
    "random_mask",
    "subsample_prediction",
    "interpolate_prediction",
    "completion_loss",
    "confirmation_loss",
    "total_loss",
    "cross_entropy",
]


@dataclass(frozen=True)
class PredictionField:
    """Per-anchor predictions: an (N, D) value matrix tied to (N, 3) anchors."""

    values: np.ndarray
    anchor_xyz: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        anchors = np.ascontiguousarray(self.anchor_xyz, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        anchors = anchors.reshape(-1, 3)
        if len(values) != len(anchors):
            raise ValueError(f"{len(values)} value rows for {len(anchors)} anchors")
        if not np.isfinite(values).all() or not np.isfinite(anchors).all():
            raise ValueError("prediction field contains non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "anchor_xyz", anchors)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MaskSelection:
    """Indices kept after random masking at ratio beta."""

    kept: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        kept = np.ascontiguousarray(self.kept, dtype=np.int64).reshape(-1)
        if kept.size and (np.diff(kept) <= 0).any():
            raise ValueError("kept indices must be strictly increasing")
        if not 0 <= self.beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        object.__setattr__(self, "kept", kept)

    def __len__(self) -> int:
        return len(self.kept)


def random_mask(n: int, beta: float, seed: int = 0) -> MaskSelection:
    """Keep round((1 - beta) * n) indices, sampled uniformly without replacement."""
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    n_keep = int(np.rint((1.0 - beta) * n))
    rng = make_rng("point-mask", seed)
    kept = np.sort(rng.choice(n, size=n_keep, replace=False))
    return MaskSelection(kept=kept, beta=beta)


def subsample_prediction(full: PredictionField, sel: MaskSelection) -> PredictionField:
    """Rows of `full` restricted to the selection, anchors included."""
    if sel.kept.size and sel.kept[-1] >= len(full):
        raise IndexError(
            f"selection index {sel.kept[-1]} out of range for field of {len(full)}"
        )
    return PredictionField(
        values=full.values[sel.kept], anchor_xyz=full.anchor_xyz[sel.kept]
    )


def interpolate_prediction(
    partial: PredictionField, targets: np.ndarray, k: int = 3
) -> PredictionField:
    """Inverse-distance k-NN interpolation of a sparse field onto `targets`.

    Each target row is the convex combination of its k nearest partial rows
    weighted by 1/distance; a target coincident with a partial anchor copies
    that row exactly.

    Raises:
        ValueError: empty partial field or k < 1.
    """
    if len(partial) == 0:
        raise ValueError("cannot interpolate from an empty prediction field")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # Importing scipy.spatial takes longer than the rest of the package
    # together and no command-line path comes here, so it is loaded on the
    # first call rather than with the package.
    from scipy.spatial import cKDTree

    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    k_eff = min(k, len(partial))

    tree = cKDTree(partial.anchor_xyz)
    dist, idx = tree.query(targets, k=k_eff)
    if k_eff == 1:
        dist, idx = dist[:, None], idx[:, None]

    # dist columns are sorted, so a coincident anchor is always column 0.
    exact = dist[:, 0] == 0.0
    out = np.empty((len(targets), partial.values.shape[1]))
    if exact.any():
        out[exact] = partial.values[idx[exact, 0]]
    inexact = ~exact
    if inexact.any():
        w = 1.0 / dist[inexact]
        w /= w.sum(axis=1, keepdims=True)
        out[inexact] = np.einsum("nk,nkd->nd", w, partial.values[idx[inexact]])
    return PredictionField(values=out, anchor_xyz=targets)


def _mean_squared_row_distance(a: PredictionField, b: PredictionField) -> float:
    if a.values.shape != b.values.shape:
        raise ValueError(
            f"field shapes differ: {a.values.shape} vs {b.values.shape}"
        )
    if len(a) == 0:
        return 0.0
    diff = a.values - b.values
    return float(np.mean(np.sum(diff * diff, axis=1)))


def completion_loss(
    teacher_full: PredictionField, student_interp: PredictionField
) -> float:
    """Squared row distance (mean over rows) between dense teacher output and
    the student's interpolated prediction."""
    return _mean_squared_row_distance(teacher_full, student_interp)


def confirmation_loss(
    teacher_sub: PredictionField, student_partial: PredictionField
) -> float:
    """Squared row distance (mean over rows) between the subsampled teacher
    output and the student's sparse prediction."""
    return _mean_squared_row_distance(teacher_sub, student_partial)


def total_loss(
    l_full: float,
    l_part: float,
    l_p2f: float,
    l_f2p: float,
    alpha1: float = 50.0,
    alpha2: float = 100.0,
) -> float:
    """Weighted objective: l_full + l_part + alpha1 * l_p2f + alpha2 * l_f2p."""
    return float(l_full + l_part + alpha1 * l_p2f + alpha2 * l_f2p)


def cross_entropy(
    pred_scores: np.ndarray, gt: np.ndarray, ignore_label: int = 255
) -> float:
    """Mean negative log of the normalized score at the true class.

    Scores must be nonnegative; each row is normalized by its sum (so
    one-hot rows score ~0 loss and uniform rows score ln C). Rows whose
    ground truth equals `ignore_label` are excluded.

    Raises:
        ValueError: length mismatch, negative scores, or all rows ignored.
    """
    scores = np.asarray(pred_scores, dtype=np.float64)
    gt = np.asarray(gt).reshape(-1).astype(np.int64)
    if scores.ndim != 2 or len(scores) != len(gt):
        raise ValueError(
            f"need (N, C) scores matching {len(gt)} labels, got shape {scores.shape}"
        )
    if (scores < 0).any():
        raise ValueError("scores must be nonnegative")
    counted = gt != ignore_label
    if not counted.any():
        raise ValueError("cross entropy undefined: every row is ignored")
    scores = scores[counted]
    gt = gt[counted]
    floor = 1e-12
    row_sum = np.maximum(scores.sum(axis=1), floor)
    p = np.maximum(scores[np.arange(len(gt)), gt] / row_sum, floor)
    return float(-np.log(p).mean())
