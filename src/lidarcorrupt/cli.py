"""Command-line surface: batch corruption, segmentation scoring, reports.

Subcommands:
  * ``corrupt``  — generate corrupted copies of a dataset for the selected
    corruptions and severities, with a checksummed manifest.
  * ``evaluate`` — score prediction label files against ground truth and
    write an accuracy record.
  * ``report``   — turn accuracy records into a CE/RR robustness report.

Exit codes: 0 success, 1 partial failure (some frames failed or data error),
2 configuration error.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import click
import numpy as np

from .corruptions import CorruptedFrame, CorruptionSpec, FrameContext, apply
from .errors import LidarCorruptError, PairingError, ProfileError
from .metrics import (
    KIND_ORDER,
    AccuracyRecord,
    aggregate,
    confusion_matrix,
    miou,
    read_accuracy_record,
    remap_injected,
    render_report,
    write_accuracy_record,
)
from .profiles import CorruptionKind, DatasetProfile, Severity, load_profile
from .rng import derive_seed
# bench/spans.py wraps the scan and box codecs by their names in this module,
# and a traced run fails if one is missing, so they stay imported unused.
from .scan_io import (  # noqa: F401
    frame_stems,
    load_frame,
    read_kitti_boxes,
    read_kitti_scan,
    read_nuscenes_scan,
    read_semkitti_labels,
    write_kitti_scan,
    write_nuscenes_scan,
    write_scan,
    write_semkitti_labels,
)

__all__ = ["RunConfig", "run_corrupt", "run_evaluate", "run_report", "main"]

ALL_SEVERITIES = tuple(Severity)


@dataclass(frozen=True)
class RunConfig:
    """Everything one `corrupt` run depends on."""

    profile_name: str
    input_root: Path
    output_root: Path
    kinds: tuple[CorruptionKind, ...] = tuple(CorruptionKind)
    severities: tuple[Severity, ...] = ALL_SEVERITIES
    seed: int = 0
    workers: int = 1
    overrides: Mapping[str, object] = field(default_factory=dict)
    profile_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_root", Path(self.input_root))
        object.__setattr__(self, "output_root", Path(self.output_root))
        if not self.input_root.is_dir():
            raise ProfileError(f"input root {self.input_root} is not a directory")
        if self.input_root.resolve() == self.output_root.resolve():
            raise ProfileError("output root must differ from input root")
        if not self.kinds or not self.severities:
            raise ProfileError("corruption and severity selections must be nonempty")
        if self.workers < 1:
            raise ProfileError(f"workers must be >= 1, got {self.workers}")

    def load(self) -> DatasetProfile:
        return load_profile(self.profile_name, self.profile_dir).with_overrides(
            dict(self.overrides)
        )


def _severity_params(
    profile: DatasetProfile, kind: CorruptionKind, severity: Severity
) -> dict:
    return {
        pname: profile.severity_value(kind, severity, pname)
        for pname in profile.severity[kind.value]
    }


def _corrupt_one_frame(args: tuple) -> tuple[list[dict], list[dict]]:
    """Worker: corrupt one frame for every selected (kind, severity).

    `args` is (stem, cfg, profile), with the profile loaded once per run.
    The frame's derived structures are built once and shared by all of its
    outputs.

    Returns (manifest entries, failures); never raises, so one bad frame
    cannot abort the batch.
    """
    stem, cfg, profile = args
    entries: list[dict] = []
    failures: list[dict] = []
    try:
        loaded = load_frame(cfg.input_root, stem, profile)
        frame = CorruptedFrame.clean(loaded.cloud, loaded.labels, loaded.boxes)
    except Exception as exc:  # reported per frame, batch continues
        return [], [{"frame": stem, "error": str(exc)}]

    ctx = FrameContext(frame, profile, cfg.seed)
    for kind in cfg.kinds:
        for severity in cfg.severities:
            try:
                spec = CorruptionSpec(kind=kind, severity=severity, seed=cfg.seed)
                result = apply(spec, frame, profile, ctx)
                out_dir = cfg.output_root / kind.value / severity.value
                out_dir.mkdir(parents=True, exist_ok=True)
                frame_seed = derive_seed(cfg.seed, stem, kind, severity)
                params = _severity_params(profile, kind, severity)

                outputs = [(f"{stem}.bin", write_scan(result.cloud, profile))]
                if result.labels is not None:
                    outputs.append((f"{stem}.label", write_semkitti_labels(result.labels)))
                for name, payload in outputs:
                    path = out_dir / name
                    path.write_bytes(payload)
                    entries.append(
                        {
                            "file": str(path.relative_to(cfg.output_root)),
                            "frame": stem,
                            "kind": kind.value,
                            "severity": severity.value,
                            "seed": frame_seed,
                            "params": params,
                            "sha256": hashlib.sha256(payload).hexdigest(),
                        }
                    )
            except Exception as exc:  # reported per frame, batch continues
                failures.append(
                    {
                        "frame": stem,
                        "kind": kind.value,
                        "severity": severity.value,
                        "error": str(exc),
                    }
                )
    return entries, failures


def _frame_result(stem: str, future: Future) -> tuple[list[dict], list[dict]]:
    """A pooled frame's result, or one frame-level failure if a worker died
    and broke the pool before the frame's result came back."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return [], [{"frame": stem, "error": f"{type(exc).__name__}: {exc}"}]


def run_corrupt(cfg: RunConfig) -> dict:
    """Generate the corruption sets and write `manifest.json` under the output root.

    Output bytes are a pure function of (cfg, input bytes): per-frame seeds
    depend only on the global seed and frame identity, and the manifest is
    assembled in sorted order regardless of worker scheduling, so reruns and
    different worker counts reproduce identical checksums. A frame whose
    worker dies is recorded as a failure; the frames that finished keep their
    entries and the manifest is still written.
    """
    profile = cfg.load()  # fail fast on unknown profiles/overrides
    stems = frame_stems(cfg.input_root)
    cfg.output_root.mkdir(parents=True, exist_ok=True)

    job_args = [(stem, cfg, profile) for stem in stems]
    if cfg.workers > 1 and len(stems) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_corrupt_one_frame, arg) for arg in job_args]
            results = [_frame_result(s, f) for s, f in zip(stems, futures)]
    else:
        results = [_corrupt_one_frame(arg) for arg in job_args]

    all_entries: list[dict] = []
    all_failures: list[dict] = []
    for entries, failures in results:
        all_entries.extend(entries)
        all_failures.extend(failures)
    all_entries.sort(key=lambda e: e["file"])
    all_failures.sort(
        key=lambda e: (e["frame"], e.get("kind", ""), e.get("severity", ""))
    )
    manifest = {
        "profile": profile.name,
        "seed": cfg.seed,
        "corruptions": [k.value for k in cfg.kinds],
        "severities": [s.value for s in cfg.severities],
        "params": dict(profile.params),
        "overrides": {str(k): v for k, v in cfg.overrides.items()},
        "entries": all_entries,
        "failures": all_failures,
    }
    (cfg.output_root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def _matched_stems(pred_dir: Path, gt_dir: Path) -> list[str]:
    pred_stems = {p.stem for p in pred_dir.glob("*.label")}
    gt_stems = {p.stem for p in gt_dir.glob("*.label")}
    missing = sorted(gt_stems - pred_stems)
    if missing:
        raise PairingError(f"missing prediction for frame {missing[0]} under {pred_dir}")
    extra = sorted(pred_stems - gt_stems)
    if extra:
        raise PairingError(f"prediction {extra[0]} has no ground truth under {gt_dir}")
    return sorted(gt_stems)


def _miou_over_dir(
    pred_dir: Path, gt_dir: Path, profile: DatasetProfile, num_classes: int
) -> float:
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for stem in _matched_stems(pred_dir, gt_dir):
        pred = read_semkitti_labels((pred_dir / f"{stem}.label").read_bytes())
        gt = read_semkitti_labels((gt_dir / f"{stem}.label").read_bytes())
        if len(pred) != len(gt):
            raise PairingError(
                f"frame {stem}: {len(pred)} predictions for {len(gt)} labels"
            )
        gt_sem = remap_injected(gt.semantic, profile)
        cm += confusion_matrix(
            pred.semantic, gt_sem, num_classes, ignore_label=profile.ignore_label
        )
    return miou(cm)


def run_evaluate(
    pred_root: Path,
    gt_root: Path,
    profile: DatasetProfile,
    num_classes: int,
    model: str = "model",
) -> AccuracyRecord:
    """Score predictions against ground truth, per corruption and severity.

    Expects ``clean/`` plus ``<kind>/<severity>/`` subdirectories of
    ``.label`` files on both sides (corruption directories present in the
    ground truth are scored; absent ones are skipped). Injected corruption
    classes in the ground truth are remapped to the profile's ignore label
    before scoring.
    """
    pred_root, gt_root = Path(pred_root), Path(gt_root)
    clean_gt = gt_root / "clean"
    if not clean_gt.is_dir():
        raise PairingError(f"ground truth has no clean/ directory under {gt_root}")
    clean = _miou_over_dir(pred_root / "clean", clean_gt, profile, num_classes)

    per_corruption: dict[str, tuple[float, ...]] = {}
    for kind in KIND_ORDER:
        values = []
        for severity in ALL_SEVERITIES:
            gt_dir = gt_root / kind.value / severity.value
            if not gt_dir.is_dir():
                continue
            values.append(
                _miou_over_dir(
                    pred_root / kind.value / severity.value, gt_dir, profile, num_classes
                )
            )
        if values:
            per_corruption[kind.value] = tuple(values)
    return AccuracyRecord(
        model=model, clean_acc=clean, per_corruption=per_corruption, metric_kind="mIoU"
    )


def run_report(
    record_paths: Sequence[Path], baseline_path: Path, fmt: str = "csv"
) -> str:
    """Render the CE/RR report for the given records against the baseline."""
    baseline = read_accuracy_record(Path(baseline_path).read_text())
    records = [read_accuracy_record(Path(p).read_text()) for p in record_paths]
    if not records:
        records = [baseline]
    return render_report(aggregate(records, baseline), fmt)


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise click.BadParameter(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        if "," in raw:
            try:
                value = [float(v) for v in raw.split(",")]
            except ValueError:
                value = raw
        else:
            value = raw
    return key.strip(), value


def _parse_kinds(text: str) -> tuple[CorruptionKind, ...]:
    if text.strip().lower() in ("", "all"):
        return tuple(CorruptionKind)
    try:
        return tuple(CorruptionKind(v.strip()) for v in text.split(","))
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _parse_severities(text: str) -> tuple[Severity, ...]:
    if text.strip().lower() in ("", "all"):
        return ALL_SEVERITIES
    try:
        return tuple(Severity(v.strip()) for v in text.split(","))
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


@click.group()
def main() -> None:
    """Deterministic LiDAR corruption suite and robustness metrics."""


@main.command("corrupt")
@click.option("--dataset", required=True,
              help="Profile name: semantickitti, kitti, nuscenes, or wod.")
@click.option("--in", "in_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_root", required=True, type=click.Path(file_okay=False))
@click.option("--corruptions", default="all", show_default=True,
              help="Comma-separated corruption names or 'all'.")
@click.option("--severities", default="all", show_default=True,
              help="Comma-separated severities or 'all'.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--workers", default=1, show_default=True, type=int)
@click.option("--set", "overrides", multiple=True,
              help="Profile override key=value (repeatable).")
@click.option("--profile-dir", default=None, type=click.Path(file_okay=False))
def cmd_corrupt(dataset, in_root, out_root, corruptions, severities, seed, workers,
                overrides, profile_dir):
    """Write corrupted scans (and labels) plus a checksummed manifest."""
    try:
        cfg = RunConfig(
            profile_name=dataset,
            input_root=Path(in_root),
            output_root=Path(out_root),
            kinds=_parse_kinds(corruptions),
            severities=_parse_severities(severities),
            seed=seed,
            workers=workers,
            overrides=dict(_parse_override(o) for o in overrides),
            profile_dir=None if profile_dir is None else Path(profile_dir),
        )
        manifest = run_corrupt(cfg)
    except (ProfileError, click.BadParameter) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    n_files = len(manifest["entries"])
    n_failed = len(manifest["failures"])
    click.echo(f"wrote {n_files} files, {n_failed} failures -> {out_root}/manifest.json")
    for failure in manifest["failures"]:
        click.echo(f"  failed: {failure}", err=True)
    if n_failed:
        sys.exit(1)


@main.command("evaluate")
@click.option("--pred", "pred_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--gt", "gt_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--dataset", required=True)
@click.option("--num-classes", required=True, type=click.IntRange(1, 65536),
              help="Classes scored, 1 to 65536 (semantic ids are 16-bit).")
@click.option("--model", default="model", show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.option("--profile-dir", default=None, type=click.Path(file_okay=False))
def cmd_evaluate(pred_root, gt_root, dataset, num_classes, model, out_path, profile_dir):
    """Score prediction labels against ground truth into an accuracy record."""
    try:
        profile = load_profile(dataset, profile_dir)
    except ProfileError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    try:
        record = run_evaluate(Path(pred_root), Path(gt_root), profile, num_classes, model)
    except (LidarCorruptError, ValueError, OSError, MemoryError) as exc:
        click.echo(f"evaluation failed: {exc}", err=True)
        sys.exit(1)
    text = write_accuracy_record(record)
    if out_path:
        Path(out_path).write_text(text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command("report")
@click.argument("records", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--baseline", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", default="csv", show_default=True,
              type=click.Choice(["csv", "json", "markdown"]))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def cmd_report(records, baseline, fmt, out_path):
    """Aggregate accuracy records into a CE/RR robustness report."""
    try:
        text = run_report([Path(r) for r in records], Path(baseline), fmt)
    except (LidarCorruptError, ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        click.echo(f"report failed: {exc}", err=True)
        sys.exit(1)
    if out_path:
        Path(out_path).write_text(text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
