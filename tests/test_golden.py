"""Output checksums pinned across commits.

Reruns of one commit are compared with each other elsewhere; this test pins
the SHA-256 of every manifest entry for a tiny fixture dataset per profile,
so a change to any output byte fails here. A deliberate output change is
declared in CHANGES.md, and the pins are then re-recorded with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from lidarcorrupt.cli import RunConfig, run_corrupt

from conftest import write_dataset

GOLDEN = Path(__file__).with_name("golden_sha256.json")
PROFILES = ("kitti", "nuscenes", "semantickitti", "wod")


def fixture_checksums(profile_name: str, root: Path) -> dict:
    src = write_dataset(root / "in", profile_name, n_frames=1)
    manifest = run_corrupt(RunConfig(
        profile_name=profile_name, input_root=src, output_root=root / "out", seed=11))
    assert manifest["failures"] == []
    return {e["file"]: e["sha256"] for e in manifest["entries"]}


@pytest.mark.parametrize("profile_name", PROFILES)
def test_checksums_pinned(profile_name, tmp_path):
    pinned = json.loads(GOLDEN.read_text())[profile_name]
    assert fixture_checksums(profile_name, tmp_path) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {p: fixture_checksums(p, Path(tmp) / p) for p in PROFILES}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
