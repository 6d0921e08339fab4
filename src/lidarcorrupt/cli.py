"""Command-line surface: batch corruption, segmentation scoring, reports.

Subcommands:
  * ``corrupt``  — generate corrupted copies of a dataset for the selected
    corruptions and severities, with a checksummed manifest.
  * ``evaluate`` — score prediction label files against ground truth and
    write an accuracy record.
  * ``report``   — turn accuracy records into a CE/RR robustness report.
  * ``verify``   — re-hash the files a ``corrupt`` manifest lists.

Exit codes: 0 success, 1 partial failure (some frames failed or data error),
2 configuration error.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import click
import numpy as np

from .corruptions import FrameContext, apply
from .errors import LidarCorruptError, ManifestError, PairingError, ProfileError
from .errors import UndefinedMetricError
from .metrics import (
    AccuracyRecord,
    aggregate,
    confusion_matrix,
    miou,  # noqa: F401
    read_accuracy_record,
    remap_injected,
    render_report,
    write_accuracy_record,
)
from .profiles import CorruptionKind, DatasetProfile, Severity, load_profile
from .types import PointCloud
# bench/spans.py wraps the scan and box codecs and `derive_seed` below, and
# the metrics functions above, by their names in this module, and a traced
# run fails if one is missing, so they stay imported: the codecs, `derive_seed`
# and `miou` unused, and `confusion_matrix` called only to name a bad label.
from .rng import derive_seed  # noqa: F401
from .scan_io import (  # noqa: F401
    frame_stems,
    label_words,
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

__all__ = ["RunConfig", "run_corrupt", "run_evaluate", "run_report", "run_verify", "main"]

# The output directories a run may write, relative to its output root.
_OUT_DIRS = [f"{k.value}/{s.value}" for k in CorruptionKind for s in Severity]


@dataclass(frozen=True)
class RunConfig:
    """Everything one `corrupt` run depends on."""

    profile_name: str
    input_root: Path
    output_root: Path
    kinds: tuple[CorruptionKind, ...] = tuple(CorruptionKind)
    severities: tuple[Severity, ...] = tuple(Severity)
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
        for name, members in (("kinds", CorruptionKind), ("severities", Severity)):
            chosen = getattr(self, name)
            if isinstance(chosen, str):  # else each character would be a name
                raise ProfileError(f"{name} must be a sequence of names, got {str(chosen)!r}")
            try:  # a name, as the command line gives it, is its member
                object.__setattr__(self, name, tuple(map(members, chosen)))
            except ValueError as exc:
                raise ProfileError(str(exc)) from exc
        if not self.kinds or not self.severities:
            raise ProfileError("corruption and severity selections must be nonempty")
        for what, chosen in (("corruption", self.kinds), ("severity", self.severities)):
            repeated = sorted({str(c) for c in chosen if chosen.count(c) > 1})
            if repeated:
                raise ProfileError(f"{what} selection repeats {', '.join(repeated)}")
        if self.workers < 1:
            raise ProfileError(f"workers must be >= 1, got {self.workers}")

    def load(self) -> DatasetProfile:
        return load_profile(self.profile_name, self.profile_dir).with_overrides(
            dict(self.overrides)
        )


def _write_atomic(path: Path, data: bytes | memoryview | str) -> None:
    """Write `path` as a `.tmp` sibling renamed into place, so no partial
    file ever carries the final name; on failure the `.tmp` is removed."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit(text: str, out_path: Optional[str]) -> None:
    """Print `text`, or write it to `out_path`; an unwritable path exits 2."""
    if not out_path:
        click.echo(text, nl=False)
        return
    try:
        _write_atomic(Path(out_path), text)
    except OSError as exc:
        click.echo(f"configuration error: cannot write {out_path}: {exc}", err=True)
        sys.exit(2)
    click.echo(f"wrote {out_path}")


def _encode_and_hash(cloud: PointCloud, profile: DatasetProfile,
                     labels: Optional[bytes], hashes: list) -> list:
    """Helper-thread half of one output: encode the scan, hash each payload.

    Calls nothing that bench/spans.py wraps (file I/O, this module's codec
    names, cloud construction): the traced run's span stack is single-threaded.
    """
    payloads = [write_scan(cloud, profile)]
    if labels is not None:
        payloads.append(labels)
    for payload, digest in zip(payloads, hashes):
        digest.update(payload)
    return payloads


def _failure(stage: str, exc: BaseException, **where: str) -> dict:
    """A manifest failure: where and at which stage, the exception's class and message."""
    return {**where, "stage": stage, "type": type(exc).__name__, "error": str(exc)}


def _corrupt_one_frame(args: tuple) -> tuple[list[dict], list[dict]]:
    """Worker: corrupt one frame for every selected (kind, severity).

    `args` is (stem, cfg, profile), with the profile loaded once per run.
    The frame's derived structures are built once and shared by all of its
    outputs, and kind by kind, so each corruption draws once. Output k's
    scan encode and hashes run on one helper thread while this thread
    computes output k+1, then writes output k: at most two payloads are
    alive, and no output byte depends on the overlap.

    Returns (manifest entries, failures); never raises, so one bad frame
    cannot abort the batch.
    """
    stem, cfg, profile = args
    entries: list[dict] = []
    failures: list[dict] = []
    try:
        ctx = FrameContext(load_frame(cfg.input_root, stem, profile), profile, cfg.seed)
    except Exception as exc:  # reported per frame, batch continues
        return [], [_failure("load", exc, frame=stem)]

    def record_failure(stage: str, kind: str, severity: str, exc: Exception) -> None:
        failures.append(_failure(stage, exc, frame=stem, kind=kind, severity=severity))

    def settle(job: tuple) -> None:
        """Make one output's directory, await its encode and hashes, write its files."""
        output, paths, hashes, encoded = job
        try:
            paths[0].parent.mkdir(parents=True, exist_ok=True)
            for path, payload, digest in zip(paths, encoded.result(), hashes):
                _write_atomic(path, payload)
                entries.append({"file": str(path.relative_to(cfg.output_root)),
                                **output, "sha256": digest.hexdigest()})
        except Exception as exc:  # reported per output, frame continues
            record_failure("write", output["kind"], output["severity"], exc)

    pending = None
    with ThreadPoolExecutor(max_workers=1) as helper:
        for kind in cfg.kinds:
            for severity in cfg.severities:
                job = None
                try:
                    result = apply(kind, ctx, severity)
                    out_dir = cfg.output_root / kind.value / severity.value
                    output = {"frame": stem, "kind": kind.value, "severity": severity.value,
                              "seed": ctx.seed_of(kind),
                              "params": profile.severity_params(kind, severity)}
                    paths = [out_dir / f"{stem}.bin"]
                    labels = None
                    if result.labels is not None:
                        paths.append(out_dir / f"{stem}.label")
                        labels = write_semkitti_labels(result.labels)
                    hashes = [hashlib.sha256() for _ in paths]
                    job = (output, paths, hashes, helper.submit(
                        _encode_and_hash, result.cloud, profile, labels, hashes))
                except Exception as exc:  # reported per output, frame continues
                    record_failure("apply", kind.value, severity.value, exc)
                if pending is not None:
                    settle(pending)
                pending = job
        if pending is not None:
            settle(pending)
    return entries, failures


def _pooled_results(job_args: list, workers: int) -> list:
    """`_corrupt_one_frame` over `job_args` on pools of `workers` processes.

    Only `workers` frames are submitted at a time, so a dead worker fails just
    the frames then running (one killed it; which cannot be told). The rest go
    to a fresh pool; each pool settles at least one frame, so this ends."""
    results, todo = [], list(job_args)
    while todo:
        running, limit = {}, workers
        with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
            while True:
                try:
                    while todo and len(running) < limit:
                        running[pool.submit(_corrupt_one_frame, todo[0])] = todo[0][0]
                        del todo[0]
                except BrokenProcessPool:  # a worker died after the last wait
                    limit = 0
                if not running:
                    break
                for future in wait(running, return_when=FIRST_COMPLETED).done:
                    stem, exc = running.pop(future), future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        limit = 0
                        results.append(([], [_failure("worker", exc, frame=stem)]))
                    else:
                        results.append(future.result())
    return results


def run_corrupt(cfg: RunConfig) -> dict:
    """Generate the corruption sets and write `manifest.json` under the output root.

    Output bytes are a pure function of (cfg, input bytes): per-frame seeds
    depend only on the global seed and frame identity, and the manifest is
    assembled in sorted order regardless of worker scheduling, so reruns and
    different worker counts reproduce identical checksums. A frame whose
    worker dies is recorded as a failure; the other frames keep their
    entries and the manifest is still written. A root that holds a
    `manifest.json` file or an output directory of an earlier run, or an
    unwritable root or manifest, raises ProfileError.
    """
    profile = cfg.load()  # fail fast on unknown profiles/overrides
    for name, used in (("manifest.json", Path.is_file), *((d, Path.is_dir) for d in _OUT_DIRS)):
        if used(cfg.output_root / name):
            raise ProfileError(f"output root {cfg.output_root} holds {name} of an earlier run")
    stems = frame_stems(cfg.input_root)
    try:
        cfg.output_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProfileError(f"cannot write {cfg.output_root}: {exc}") from exc

    job_args = [(stem, cfg, profile) for stem in stems]
    if cfg.workers > 1 and len(stems) > 1:
        results = _pooled_results(job_args, cfg.workers)
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
    path = cfg.output_root / "manifest.json"
    try:
        _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ProfileError(f"cannot write {path}: {exc}") from exc
    return manifest


class _ReadBuffer:
    """One buffer that files are read into whole, in turn: it grows to the
    longest file read yet and is reused for the next."""

    def __init__(self) -> None:
        self._bytes = np.empty(0, np.uint8)

    def read(self, path: Path) -> memoryview:
        """All of `path`'s bytes, as a view that the next read overwrites.

        The buffer holds the file's size and one byte more, so the read that
        returns nothing shows the end was reached; a file that grows while
        it is read grows the buffer again. Raises what `Path.open` raises.
        """
        with path.open("rb", buffering=0) as file:
            n, size = 0, os.fstat(file.fileno()).st_size
            while True:
                if len(self._bytes) <= max(size, n):
                    grown = np.empty(max(size, 2 * n) + 1, np.uint8)
                    grown[:n] = self._bytes[:n]
                    self._bytes = grown
                got = file.readinto(memoryview(self._bytes)[n:])
                if not got:
                    return memoryview(self._bytes)[:n]
                n += got


def run_verify(out_root: Path) -> tuple[int, int, list[str]]:
    """Re-hash every file that `out_root/manifest.json` lists.

    Returns the number of entries whose file matches, the number of entries,
    and one line per entry whose file is outside `out_root` (not read),
    missing, unreadable or has a SHA-256 other than the entry's, then one
    per file under a `<kind>/<severity>/` directory that no entry names.

    Raises:
        ManifestError: no `manifest.json`, or one that is not a manifest:
            not JSON, or no "entries" list of "file" and "sha256" strings.
    """
    path = Path(out_root) / "manifest.json"
    try:
        listed = [(e["file"], e["sha256"]) for e in json.loads(path.read_text())["entries"]]
        if not all(isinstance(v, str) for entry in listed for v in entry):
            raise TypeError("an entry's file or sha256 is not a string")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ManifestError(f"{path} is missing or not a manifest: {exc}") from exc
    problems, buffer = [], _ReadBuffer()
    for name, digest in listed:
        if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == os.pardir:
            problems.append(f"outside: {name}")
            continue
        try:
            data = buffer.read(path.parent / name)
        except FileNotFoundError:
            problems.append(f"missing: {name}")
            continue
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
            problems.append(f"unreadable: {name}: {exc}")
            continue
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"differs: {name}")
    matched = len(listed) - len(problems)
    names = {os.path.normpath(name) for name, _ in listed}
    for out_dir in _OUT_DIRS:
        if (path.parent / out_dir).is_dir():
            problems += [f"unlisted: {out_dir}/{p.name}" for p in
                         sorted((path.parent / out_dir).iterdir())
                         if f"{out_dir}/{p.name}" not in names]
    return matched, len(listed), problems


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


class _ScoreBuffers:
    """What one `run_evaluate` call reads and counts every file pair through:
    a read buffer per side, the pairs' keys and the run starts of the sorted
    keys, each grown to the longest file yet and reused for the next."""

    def __init__(self) -> None:
        self.pred, self.gt = _ReadBuffer(), _ReadBuffer()
        self._key, self._starts = np.empty(0, "<u4"), np.empty(0, bool)

    def pair_counts(self, gt: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys ``gt << 16 | pred`` of two files' label words,
        ascending, and the number of points that hold each."""
        if len(self._key) < len(gt):
            self._key, self._starts = np.empty(len(gt), "<u4"), np.empty(len(gt), bool)
        key, starts = self._key[:len(gt)], self._starts[:len(gt)]
        np.left_shift(gt, 16, out=key)  # from whole words: the shift drops gt's instance half,
        key.view("<u2")[::2] = pred.view("<u2")[::2]  # and only pred's low half fills the zeros
        key.sort()
        starts[:1] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        return key[first], np.diff(first, append=len(key))


def _miou_over_dir(pred_dir: Path, gt_dir: Path, profile: DatasetProfile,
                   num_classes: int, buffers: _ScoreBuffers) -> float:
    """mIoU of one directory from its distinct (gt, pred) semantic id pairs.

    Each file's pairs are counted as keys ``gt << 16 | pred``, its distinct gt
    ids remapped once, and only pairs with a counted gt kept. A class's IoU is
    its agreeing points over the points it holds in gt or pred, each a
    bincount over the pairs, so memory grows with them, not ``num_classes²``.
    Files are read and counted through `buffers`, which the caller reuses.

    Raises:
        PairingError: unmatched stems, or a file of another length.
        MalformedScanError: a file that is not whole label words, by its path.
        ValueError: `confusion_matrix`'s message, for the first file with a
            counted label >= num_classes.
        UndefinedMetricError: no counted point in the directory.
    """
    parts = [(np.zeros(0, np.uint32), np.zeros(0, np.uint32), np.zeros(0, np.intp))]
    for stem in _matched_stems(pred_dir, gt_dir):
        pred_path, gt_path = pred_dir / f"{stem}.label", gt_dir / f"{stem}.label"
        pred = label_words(buffers.pred.read(pred_path), str(pred_path))
        gt = label_words(buffers.gt.read(gt_path), str(gt_path))
        if len(pred) != len(gt):
            raise PairingError(f"frame {stem}: {len(pred)} predictions for {len(gt)} labels")
        file_keys, file_counts = buffers.pair_counts(gt, pred)
        file_gt = remap_injected(file_keys >> 16, profile)
        counted = file_gt != profile.ignore_label
        file_gt, file_pred = file_gt[counted], (file_keys & 0xFFFF)[counted]
        if (np.maximum(file_gt, file_pred) >= num_classes).any():
            confusion_matrix(pred.view("<u2")[::2],  # raises, naming the first bad id
                             remap_injected(gt.view("<u2")[::2], profile),
                             num_classes, ignore_label=profile.ignore_label)
        parts.append((file_gt, file_pred, file_counts[counted]))
    gt_ids, pred_ids, counts = (np.concatenate(part) for part in zip(*parts))
    classes, where = np.unique(np.concatenate((gt_ids, pred_ids)), return_inverse=True)
    if not len(classes):
        raise UndefinedMetricError("mIoU undefined: no class present in pred or gt")
    gt_class, pred_class = np.split(where, 2)
    agree = gt_class == pred_class
    tp = np.bincount(gt_class[agree], counts[agree], len(classes))
    held = np.bincount(where, np.tile(counts, 2), len(classes))  # gt's points plus pred's
    return float((tp / (held - tp)).mean())


def run_evaluate(
    pred_root: Path,
    gt_root: Path,
    profile: DatasetProfile,
    num_classes: int,
    model: str = "model",
) -> AccuracyRecord:
    """Score predictions against ground truth, per corruption and severity.

    Expects ``clean/`` plus ``<kind>/<severity>/`` subdirectories of
    ``.label`` files on both sides. A corruption absent from the ground
    truth is skipped; one present needs all three severities. Injected
    corruption classes in the ground truth are remapped to the profile's
    ignore label before scoring. Each directory is scored from the counts of
    its files' distinct (gt, pred) pairs, so any `num_classes` in [1, 65536]
    runs in memory that grows with those pairs, not with ``num_classes²``.
    Every file is read and counted through the same buffers, one set per call.

    Raises:
        PairingError: no ``clean/``, or a corruption with only some of its
            severity directories in the ground truth.
    """
    pred_root, gt_root = Path(pred_root), Path(gt_root)
    clean_gt = gt_root / "clean"
    if not clean_gt.is_dir():
        raise PairingError(f"ground truth has no clean/ directory under {gt_root}")
    present = []
    for kind in CorruptionKind:
        missing = [f"{kind.value}/{s.value}" for s in Severity
                   if not (gt_root / kind.value / s.value).is_dir()]
        if 0 < len(missing) < len(Severity):
            raise PairingError(
                f"ground truth has {kind.value} but no {', '.join(missing)} "
                f"directory under {gt_root}; a corruption needs all three severities"
            )
        if not missing:
            present.append(kind.value)
    buffers = _ScoreBuffers()
    clean = _miou_over_dir(pred_root / "clean", clean_gt, profile, num_classes, buffers)
    per_corruption = {
        kind: tuple(
            _miou_over_dir(pred_root / kind / s.value, gt_root / kind / s.value,
                           profile, num_classes, buffers)
            for s in Severity
        )
        for kind in present
    }
    return AccuracyRecord(
        model=model, clean_acc=clean, per_corruption=per_corruption, metric_kind="mIoU"
    )


def run_report(
    record_paths: Sequence[Path], baseline_path: Path, fmt: str = "csv"
) -> str:
    """Render the CE/RR report for the given records against the baseline; a
    ValueError names the file that holds no accuracy record, and a
    ProfileError a record scored with another metric than the baseline."""
    records = []
    for path in (baseline_path, *record_paths):
        try:
            records.append(read_accuracy_record(Path(path).read_text()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if records[-1].metric_kind != records[0].metric_kind:
            raise ProfileError(f"{path} holds {records[-1].metric_kind} scores but baseline "
                               f"{baseline_path} holds {records[0].metric_kind}")
    return render_report(aggregate(records[1:] or records, records[0]), fmt)


def _parse_override(text: str) -> tuple[str, object]:
    """``KEY=VALUE``: VALUE as JSON, a comma list as a JSON list, else as given."""
    if "=" not in text:
        raise click.BadParameter(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    for candidate in (raw, f"[{raw}]") if "," in raw else (raw,):
        try:
            return key.strip(), json.loads(candidate)
        except json.JSONDecodeError:
            pass
    return key.strip(), raw


def _parse_selection(choices: type, text: str) -> tuple:
    """Comma-separated names, which `RunConfig` turns into members of the enum
    `choices`, or all of its members for "all" or ""."""
    if text.strip().lower() in ("", "all"):
        return tuple(choices)
    return tuple(v.strip() for v in text.split(","))


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
            kinds=_parse_selection(CorruptionKind, corruptions),
            severities=_parse_selection(Severity, severities),
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
    _emit(write_accuracy_record(record), out_path)


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
    except ProfileError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    except (LidarCorruptError, ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        click.echo(f"report failed: {exc}", err=True)
        sys.exit(1)
    _emit(text, out_path)


@main.command("verify")
@click.argument("out_root", type=click.Path(file_okay=False))
def cmd_verify(out_root):
    """Re-hash every file OUT_ROOT/manifest.json lists against its checksum,
    and name the files under OUT_ROOT/<kind>/<severity>/ that it does not list."""
    try:
        matched, checked, problems = run_verify(Path(out_root))
    except ManifestError as exc:
        click.echo(f"cannot verify: {exc}", err=True)
        sys.exit(2)
    for line in problems:
        click.echo(line)
    click.echo(f"{matched} of {checked} files match {out_root}/manifest.json")
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
