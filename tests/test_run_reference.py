"""`run_corrupt` against a whole-run reference that shares nothing.

The reference computes each (frame, kind, severity) alone: a fresh
`load_frame`, a fresh `FrameContext`, `apply`, then the encode, the hash and
the write, serially. So no context cache, `keep_only`, shared draw, helper
thread or process pool stands between a frame and its output. Its file ->
SHA-256 map and its failure list must equal `run_corrupt`'s, at 1 and 2
workers, on Hypothesis-drawn datasets: 1-3 frames of 0-600 points, with
labels, boxes or neither, in 4-channel (`semantickitti`, `kitti`) or
5-channel (`nuscenes`) scans.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcorrupt import LabelArray, PointCloud, load_profile
from lidarcorrupt.cli import RunConfig, run_corrupt
from lidarcorrupt.corruptions import FrameContext, apply
from lidarcorrupt.profiles import CorruptionKind, Severity
from lidarcorrupt.scan_io import (frame_stems, load_frame, write_kitti_scan, write_nuscenes_scan,
                                  write_scan, write_semkitti_labels)

from conftest import BOXES, write_kitti_boxes

SEED = 11
# Ground, vehicle and other ids of both label spaces.
SEMANTIC_IDS = [10, 14, 24, 40, 44, 48, 70]


@st.composite
def datasets(draw):
    """(profile name, annotation, per-frame (point count, seed)) of a dataset."""
    name = draw(st.sampled_from(["semantickitti", "kitti", "nuscenes"]))
    annotation = "labels" if name == "semantickitti" else draw(
        st.sampled_from(["labels", "boxes", "neither"]))
    frames = draw(st.lists(st.tuples(st.integers(0, 600), st.integers(0, 2**16)),
                           min_size=1, max_size=3))
    return name, annotation, frames


def write_input(root, name, annotation, frames):
    """Frames of points around a sensor, the first half on a ground plane."""
    (root / "velodyne").mkdir(parents=True)
    for d in ("labels", "boxes"):
        if annotation == d:
            (root / d).mkdir()
    for i, (n, seed) in enumerate(frames):
        rng, stem = np.random.default_rng(seed), f"{i:06d}"
        xyz = np.column_stack([rng.uniform(-40, 40, (n, 2)), rng.uniform(-1.5, 3, n)])
        xyz[: n // 2, 2] = -1.7
        intensity = rng.uniform(0, 1, n)
        if name == "nuscenes":
            cloud = PointCloud(xyz.astype(np.float32), np.round(intensity * 255).astype(np.float32),
                               ring=rng.integers(0, 32, n).astype(np.int32))
            (root / "velodyne" / f"{stem}.bin").write_bytes(write_nuscenes_scan(cloud))
        else:
            cloud = PointCloud(xyz.astype(np.float32), intensity.astype(np.float32))
            (root / "velodyne" / f"{stem}.bin").write_bytes(write_kitti_scan(cloud))
        if annotation == "labels":
            semantic = rng.choice(SEMANTIC_IDS, n).astype(np.uint16)
            labels = LabelArray(semantic, rng.integers(0, 3, n).astype(np.uint16))
            (root / "labels" / f"{stem}.label").write_bytes(write_semkitti_labels(labels))
        if annotation == "boxes":
            (root / "boxes" / f"{stem}.txt").write_text(write_kitti_boxes(BOXES))


def failure(stage, exc, **where):
    return {**where, "stage": stage, "type": type(exc).__name__, "error": str(exc)}


def reference_run(in_root, out_root, name):
    """(file -> SHA-256, failures) of every output, each computed alone."""
    profile = load_profile(name)
    digests, failures = {}, []
    for stem in frame_stems(in_root):
        try:
            load_frame(in_root, stem, profile)
        except Exception as exc:
            failures.append(failure("load", exc, frame=stem))
            continue
        for kind in CorruptionKind:
            for severity in Severity:
                where = {"frame": stem, "kind": kind.value, "severity": severity.value}
                try:
                    ctx = FrameContext(load_frame(in_root, stem, profile), profile, SEED)
                    out = apply(kind, ctx, severity)
                    payloads = {"bin": write_scan(out.cloud, profile)}
                    if out.labels is not None:
                        payloads["label"] = write_semkitti_labels(out.labels)
                except Exception as exc:
                    failures.append(failure("apply", exc, **where))
                    continue
                for suffix, data in payloads.items():
                    rel = f"{kind.value}/{severity.value}/{stem}.{suffix}"
                    (out_root / rel).parent.mkdir(parents=True, exist_ok=True)
                    (out_root / rel).write_bytes(data)
                    digests[rel] = hashlib.sha256(data).hexdigest()
    failures.sort(key=lambda f: (f["frame"], f.get("kind", ""), f.get("severity", "")))
    return digests, failures  # as the manifest lists them: by frame, kind and severity


def on_disk(root):
    """File -> SHA-256 of every file under `root` but the manifest."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"}


@settings(max_examples=8, deadline=None)
@given(dataset=datasets())
def test_run_matches_per_output_reference(tmp_path_factory, dataset):
    name, annotation, frames = dataset
    root = tmp_path_factory.mktemp("run-reference")
    write_input(root / "in", name, annotation, frames)
    expected, expected_failures = reference_run(root / "in", root / "reference", name)
    assert on_disk(root / "reference") == expected
    for workers in (1, 2):
        out = root / f"w{workers}"
        manifest = run_corrupt(RunConfig(name, root / "in", out, seed=SEED, workers=workers))
        assert {e["file"]: e["sha256"] for e in manifest["entries"]} == expected
        assert on_disk(out) == expected
        assert manifest["failures"] == expected_failures
