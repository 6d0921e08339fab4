"""Output checksums pinned across commits.

Reruns of one commit are compared with each other elsewhere; this test pins
the SHA-256 of every manifest entry for a tiny fixture dataset per profile,
and of the `evaluate` accuracy record and the CSV report for a small label
tree, so a change to any output byte fails here. A deliberate output change
is declared in CHANGES.md, and the pins are then re-recorded with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lidarcorrupt import (
    CorruptionKind,
    LabelArray,
    Severity,
    load_profile,
    write_semkitti_labels,
)
from lidarcorrupt.cli import RunConfig, run_corrupt, run_evaluate, run_report
from lidarcorrupt.metrics import write_accuracy_record

from conftest import write_dataset

GOLDEN = Path(__file__).with_name("golden_sha256.json")
PROFILES = ("kitti", "nuscenes", "semantickitti", "wod")


def fixture_checksums(profile_name: str, root: Path) -> dict:
    src = write_dataset(root / "in", profile_name, n_frames=1)
    manifest = run_corrupt(RunConfig(
        profile_name=profile_name, input_root=src, output_root=root / "out", seed=11))
    assert manifest["failures"] == []
    return {e["file"]: e["sha256"] for e in manifest["entries"]}


def strided_ransac_checksums(root: Path) -> dict:
    """wet_ground over 2 kitti frames of 64 beams x 300 = 19,200 points, above
    the 16384 that RANSAC scores, so every 2nd point is scored. The manifest
    must be the same at 1 and 2 workers."""
    src = write_dataset(root / "in", "kitti", n_frames=2, points_per_beam=300)
    manifests = [run_corrupt(RunConfig(
        profile_name="kitti", input_root=src, output_root=root / f"out-w{workers}",
        kinds=(CorruptionKind.WET_GROUND,), seed=11, workers=workers)) for workers in (1, 2)]
    assert manifests[0] == manifests[1]
    assert manifests[0]["failures"] == []
    return {e["file"]: e["sha256"] for e in manifests[0]["entries"]}


def write_label_tree(root: Path, flip: float, seed: int) -> None:
    """`clean/` plus every `<kind>/<severity>/` of 2 frames of semantickitti ids.

    Ground truth holds ignored (0) and injected (21-23) ids; predictions are
    ground truth with a share of points flipped that grows with the directory.
    """
    rng = np.random.default_rng(seed)
    subdirs = ["clean"] + [f"{k.value}/{s.value}" for k in CorruptionKind for s in Severity]
    for i, sub in enumerate(subdirs):
        for stem in ("000000", "000001"):
            gt = rng.choice([0, 1, 9, 10, 11, 15, 18, 21, 22, 23], size=400)
            flipped = rng.random(400) < flip * (1 + i / 8)
            pred = np.where(flipped, rng.integers(0, 24, 400), gt)
            for side, semantic in (("gt", gt), ("pred", pred)):
                (root / side / sub).mkdir(parents=True, exist_ok=True)
                labels = LabelArray(semantic.astype(np.uint16), np.zeros(400, np.uint16))
                (root / side / sub / f"{stem}.label").write_bytes(write_semkitti_labels(labels))


def evaluate_checksums(root: Path) -> dict:
    profile = load_profile("semantickitti")
    paths = []
    for model, flip, seed in (("model", 0.05, 5), ("baseline", 0.1, 6)):
        write_label_tree(root / model, flip, seed)
        record = run_evaluate(root / model / "pred", root / model / "gt", profile, 24, model)
        paths.append(root / f"{model}.json")
        paths[-1].write_text(write_accuracy_record(record))
    report = run_report(paths[:1], paths[1], "csv")
    return {"record": hashlib.sha256(paths[0].read_bytes()).hexdigest(),
            "report_csv": hashlib.sha256(report.encode()).hexdigest()}


@pytest.mark.parametrize("profile_name", PROFILES)
def test_checksums_pinned(profile_name, tmp_path):
    pinned = json.loads(GOLDEN.read_text())[profile_name]
    assert fixture_checksums(profile_name, tmp_path) == pinned


def test_strided_ransac_checksums_pinned(tmp_path):
    pinned = json.loads(GOLDEN.read_text())["kitti_strided_ransac"]
    assert strided_ransac_checksums(tmp_path) == pinned


def test_evaluate_outputs_pinned(tmp_path):
    pinned = json.loads(GOLDEN.read_text())["evaluate"]
    assert evaluate_checksums(tmp_path) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {p: fixture_checksums(p, Path(tmp) / p) for p in PROFILES}
        pins["kitti_strided_ransac"] = strided_ransac_checksums(Path(tmp) / "strided")
        pins["evaluate"] = evaluate_checksums(Path(tmp) / "evaluate")
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
