"""Robustness arithmetic: mIoU, corruption error, resilience rate, reports.

Corruption error (CE) normalizes a model's error by a fixed baseline
model's error, per corruption; the baseline scores 100 by construction and
lower is better. Resilience rate (RR) is corrupted accuracy relative to
clean accuracy; higher is better. Both accept either the three per-severity
accuracies or their mean (the formulas are linear, so the results agree).
Accuracies are fractions in [0, 1]; CE/RR are percentages.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import UndefinedMetricError
from .profiles import CorruptionKind, DatasetProfile, _is_number

__all__ = [
    "confusion_matrix",
    "miou",
    "per_class_iou",
    "corruption_error",
    "resilience_rate",
    "remap_injected",
    "AccuracyRecord",
    "RobustnessReport",
    "aggregate",
    "render_report",
    "read_accuracy_record",
    "write_accuracy_record",
]


Accuracies = Union[float, Sequence[float]]


def confusion_matrix(
    pred: np.ndarray, gt: np.ndarray, num_classes: int, ignore_label: int = 255
) -> np.ndarray:
    """Count matrix with cell (g, p) = points of ground truth g predicted p.

    Points whose ground truth equals `ignore_label` are not counted.

    Raises:
        ValueError: length mismatch, or a counted label >= num_classes.
    """
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if len(pred) != len(gt):
        raise ValueError(f"{len(pred)} predictions for {len(gt)} ground-truth labels")
    # Masking and range checks run in the labels' own dtype; only the
    # counted, in-range subset is widened, into the one bincount key.
    counted = gt != ignore_label
    pred, gt = pred[counted], gt[counted]
    for name, arr in (("gt", gt), ("pred", pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            bad = arr[(arr < 0) | (arr >= num_classes)][0]
            raise ValueError(f"{name} label {bad} outside [0, {num_classes})")
    key = gt.astype(np.intp)
    key *= num_classes
    # The checked labels fit intp; a plain `+=` would fail for uint64 pred.
    np.add(key, pred, out=key, dtype=np.intp, casting="unsafe")
    cm = np.bincount(key, minlength=num_classes * num_classes)
    return cm.reshape(num_classes, num_classes)


def per_class_iou(cm: np.ndarray) -> np.ndarray:
    """IoU per class; NaN for classes absent from both prediction and truth."""
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {cm.shape}")
    tp = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, tp / union, np.nan)


def miou(cm: np.ndarray) -> float:
    """Mean IoU over classes present in prediction or ground truth.

    Raises:
        UndefinedMetricError: every class absent (empty confusion matrix).
    """
    iou = per_class_iou(cm)
    present = ~np.isnan(iou)
    if not present.any():
        raise UndefinedMetricError("mIoU undefined: no class present in pred or gt")
    return float(iou[present].mean())


def _mean_accuracy(acc: Accuracies, what: str) -> float:
    values = np.atleast_1d(np.asarray(acc, dtype=np.float64))
    if values.ndim != 1 or values.size not in (1, 3):
        raise ValueError(f"{what} must be one mean or three per-severity values")
    if (values < 0).any() or (values > 1).any():
        raise ValueError(f"{what} accuracies must lie in [0, 1], got {values}")
    return float(values.mean())


def corruption_error(acc: Accuracies, baseline_acc: Accuracies) -> float:
    """CE in percent: the model's summed error over the baseline's.

    Raises:
        ZeroDivisionError: the baseline has zero error on this corruption.
    """
    model_err = 1.0 - _mean_accuracy(acc, "model")
    base_err = 1.0 - _mean_accuracy(baseline_acc, "baseline")
    if base_err <= 0:
        raise ZeroDivisionError("baseline error is zero; CE undefined")
    return 100.0 * model_err / base_err


def resilience_rate(acc: Accuracies, clean_acc: float) -> float:
    """RR in percent: mean corrupted accuracy over clean accuracy.

    May exceed 100 when a corruption helps the model; no clamping.

    Raises:
        ZeroDivisionError: clean accuracy is zero.
    """
    if clean_acc <= 0:
        raise ZeroDivisionError("clean accuracy is zero; RR undefined")
    return 100.0 * _mean_accuracy(acc, "model") / float(clean_acc)


def remap_injected(semantic: np.ndarray, profile: DatasetProfile) -> np.ndarray:
    """Map injected fog/snow/crosstalk class ids to the profile's ignore label."""
    semantic = np.asarray(semantic)
    out = semantic.copy()
    for class_id in sorted(profile.injected_classes()):
        out[semantic == class_id] = profile.ignore_label
    return out


@dataclass(frozen=True)
class AccuracyRecord:
    """One model's clean accuracy and per-corruption accuracies.

    `per_corruption` maps corruption name -> one mean or three per-severity
    accuracies, all fractions in [0, 1]. A record is complete when all eight
    corruptions are present.
    """

    model: str
    clean_acc: float
    per_corruption: Mapping[str, tuple[float, ...]]
    metric_kind: str = "mIoU"

    def __post_init__(self) -> None:
        if not 0 <= self.clean_acc <= 1:
            raise ValueError(f"clean accuracy must be in [0, 1], got {self.clean_acc}")
        norm = {}
        for key, values in self.per_corruption.items():
            kind = CorruptionKind(key)
            tup = tuple(float(v) for v in np.atleast_1d(values))
            if len(tup) not in (1, 3):
                raise ValueError(
                    f"{self.model}/{kind.value}: need 1 or 3 accuracies, got {len(tup)}"
                )
            if any(not 0 <= v <= 1 for v in tup):
                raise ValueError(f"{self.model}/{kind.value}: accuracies outside [0, 1]")
            norm[kind.value] = tup
        object.__setattr__(self, "per_corruption", norm)

    def is_complete(self) -> bool:
        return all(kind.value in self.per_corruption for kind in CorruptionKind)

    def accuracy(self, kind: CorruptionKind) -> tuple[float, ...]:
        return self.per_corruption[kind.value]


@dataclass(frozen=True)
class RobustnessReport:
    """CE/RR per corruption plus their means, for one model vs one baseline."""

    model: str
    baseline_model: str
    per_corruption_ce: Mapping[str, float]
    per_corruption_rr: Mapping[str, float]
    mce: float = field(init=False)
    mrr: float = field(init=False)

    def __post_init__(self) -> None:
        ce = [self.per_corruption_ce[k.value] for k in CorruptionKind]
        rr = [self.per_corruption_rr[k.value] for k in CorruptionKind]
        object.__setattr__(self, "mce", float(np.mean(ce)))
        object.__setattr__(self, "mrr", float(np.mean(rr)))


def aggregate(
    records: Iterable[AccuracyRecord], baseline: AccuracyRecord
) -> list[RobustnessReport]:
    """CE/RR for every record against `baseline`; means over the 8 corruptions.

    Raises:
        ValueError: a record (or the baseline) is missing a corruption.
    """
    if not baseline.is_complete():
        raise ValueError(f"baseline record {baseline.model!r} is incomplete")
    reports = []
    for record in records:
        if not record.is_complete():
            missing = [k.value for k in CorruptionKind if k.value not in record.per_corruption]
            raise ValueError(f"record {record.model!r} is missing {missing}")
        ce = {}
        rr = {}
        for kind in CorruptionKind:
            ce[kind.value] = corruption_error(
                record.accuracy(kind), baseline.accuracy(kind)
            )
            rr[kind.value] = resilience_rate(record.accuracy(kind), record.clean_acc)
        reports.append(
            RobustnessReport(
                model=record.model,
                baseline_model=baseline.model,
                per_corruption_ce=ce,
                per_corruption_rr=rr,
            )
        )
    return reports


def _report_rows(reports: Sequence[RobustnessReport]) -> tuple[list[str], list[list]]:
    header = ["model", "mce", "mrr"]
    header += [f"{k.value}_ce" for k in CorruptionKind]
    header += [f"{k.value}_rr" for k in CorruptionKind]
    rows = []
    for rep in reports:
        row: list = [rep.model, rep.mce, rep.mrr]
        row += [rep.per_corruption_ce[k.value] for k in CorruptionKind]
        row += [rep.per_corruption_rr[k.value] for k in CorruptionKind]
        rows.append(row)
    return header, rows


def render_report(reports: Sequence[RobustnessReport], format: str = "csv") -> str:
    """Render reports as csv, json, or markdown with a stable column order.

    Columns: model, mCE, mRR, then the per-corruption CE block and RR block,
    corruptions in canonical order. Values carry two decimals.

    Raises:
        ValueError: unknown format.
    """
    header, rows = _report_rows(reports)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.2f}" for v in row[1:]])
        return buf.getvalue()
    if format == "json":
        payload = [
            {key: (row[i] if i == 0 else round(row[i], 2)) for i, key in enumerate(header)}
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    if format == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for row in rows:
            cells = [row[0]] + [f"{v:.2f}" for v in row[1:]]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}; use csv, json, or markdown")


def write_accuracy_record(record: AccuracyRecord) -> str:
    """Serialize a record to its JSON file format."""
    payload = {
        "model": record.model,
        "metric": record.metric_kind,
        "clean": record.clean_acc,
        "corruptions": {k: list(v) for k, v in record.per_corruption.items()},
    }
    return json.dumps(payload, indent=2) + "\n"


def read_accuracy_record(text: str) -> AccuracyRecord:
    """Parse the JSON accuracy-record format written by `write_accuracy_record`.
    Accuracies are JSON numbers (`profiles._is_number`): a string or a
    boolean is malformed, not read as the number it spells."""
    payload = json.loads(text)
    try:
        model, clean, corruptions = payload["model"], payload["clean"], payload["corruptions"]
        if not _is_number(clean):
            raise TypeError(f"clean must be a number, got {clean!r}")
        for kind, values in corruptions.items():
            if not isinstance(values, list) or not all(map(_is_number, values)):
                raise TypeError(f"{kind} must be a list of numbers, got {values!r}")
        return AccuracyRecord(model=model, clean_acc=float(clean), per_corruption=corruptions,
                              metric_kind=payload.get("metric", "mIoU"))
    except KeyError as exc:
        raise ValueError(f"accuracy record has no {exc.args[0]!r} field") from exc
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"accuracy record is malformed: {exc}") from exc
