"""End-to-end command-line behavior on small on-disk fixtures."""

import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from lidarcorrupt import (
    LabelArray,
    PointCloud,
    ProfileError,
    read_nuscenes_scan,
    write_kitti_scan,
    write_nuscenes_scan,
    write_semkitti_labels,
)
from lidarcorrupt import cli
from lidarcorrupt.cli import RunConfig, main

from conftest import make_beam_cloud

_REAL_CORRUPT_ONE_FRAME = cli._corrupt_one_frame
DYING_STEM = "000002"


def _die_on_last_frame(args):
    """Pool stand-in for `_corrupt_one_frame`: kills its worker on DYING_STEM
    once every other frame has returned, so which frames finish is fixed."""
    stem, cfg, _ = args
    done = cfg.output_root.parent / "done"
    if stem != DYING_STEM:
        result = _REAL_CORRUPT_ONE_FRAME(args)
        done.mkdir(exist_ok=True)
        (done / stem).touch()
        return result
    deadline = time.monotonic() + 30
    while len(list(done.glob("*"))) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.5)  # let the last finished result reach the parent
    os._exit(1)


@pytest.fixture
def runner():
    return CliRunner()


def build_dataset(root, n_frames=1, beams=64, points_per_beam=2):
    """SemanticKITTI-style mini dataset with mixed labels."""
    (root / "velodyne").mkdir(parents=True)
    (root / "labels").mkdir()
    for i in range(n_frames):
        cloud, _ = make_beam_cloud(
            beams, points_per_beam, seed=100 + i, frame_id=f"{i:06d}"
        )
        rng = np.random.default_rng(200 + i)
        semantic = rng.choice([10, 40, 44, 48, 70], size=len(cloud)).astype(np.uint16)
        labels = LabelArray(semantic, np.zeros(len(cloud), np.uint16))
        (root / "velodyne" / f"{i:06d}.bin").write_bytes(write_kitti_scan(cloud))
        (root / "labels" / f"{i:06d}.label").write_bytes(write_semkitti_labels(labels))
    return root


def entry_checksums(manifest):
    return {e["file"]: e["sha256"] for e in manifest["entries"]}


class TestCorrupt:
    def test_empty_input(self, runner, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["corrupt", "--dataset", "kitti", "--in", str(src), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["entries"] == []
        assert manifest["failures"] == []

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_input_root_not_a_directory(self, runner, tmp_path, kind):
        src, out = tmp_path / "in", tmp_path / "out"
        if kind == "file":
            src.write_bytes(b"")
        with pytest.raises(ProfileError, match="not a directory"):
            RunConfig(profile_name="kitti", input_root=src, output_root=out)
        result = runner.invoke(
            main, ["corrupt", "--dataset", "kitti", "--in", str(src), "--out", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_full_matrix_counts(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(out), "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        scans = list(out.rglob("*.bin"))
        labels = list(out.rglob("*.label"))
        assert len(scans) == 24  # 8 corruptions x 3 severities
        assert len(labels) == 24
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["entries"]) == 48
        files = [e["file"] for e in manifest["entries"]]
        assert files == sorted(files)

    def test_idempotent_checksums(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1)
        checksums = []
        for name in ("out1", "out2"):
            result = runner.invoke(
                main,
                ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                 "--out", str(tmp_path / name), "--seed", "3"],
            )
            assert result.exit_code == 0, result.output
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            checksums.append(entry_checksums(manifest))
        assert checksums[0] == checksums[1]

    def test_worker_count_invariance(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=2)
        checksums = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            result = runner.invoke(
                main,
                ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                 "--out", str(tmp_path / name), "--seed", "5", "--workers", workers],
            )
            assert result.exit_code == 0, result.output
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            checksums.append(entry_checksums(manifest))
        assert checksums[0] == checksums[1]

    def test_subset_selection(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(out), "--corruptions", "fog,motion_blur",
             "--severities", "heavy"],
        )
        assert result.exit_code == 0, result.output
        assert len(list(out.rglob("*.bin"))) == 2

    def test_override_recorded_and_applied(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(out), "--corruptions", "crosstalk",
             "--set", "crosstalk_sigma=1.5"],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["crosstalk_sigma"] == 1.5
        assert manifest["overrides"] == {"crosstalk_sigma": 1.5}

    @pytest.mark.parametrize(
        "override", ["crosstalk_sigmaa=2.0", "fog.beta_bss=0.01,0.05,0.3"]
    )
    def test_unknown_override_key_rejected(self, runner, tmp_path, override):
        src = build_dataset(tmp_path / "in", n_frames=1)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(out), "--set", override],
        )
        assert result.exit_code == 2, result.output
        assert override.split("=")[0] in result.output
        assert "crosstalk_sigma, " in result.output
        assert "fog.beta_bs" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("override,expected", [
        ("crosstalk_sigma=abc", "a number"),
        ("crosstalk_sigma=true", "a number"),
        ("crosstalk_sigma=1,2", "a number"),
        ("fog_scatter_fraction=0.1", "a list of 2 numbers"),
        ("fog_scatter_fraction=0.1,0.2,0.3", "a list of 2 numbers"),
        ("fog.beta_bs=0.01,0.05", "a 3-entry severity triple of numbers"),
        ("fog.beta_bs=0.01,abc,0.3", "a 3-entry severity triple of numbers"),
        ("fog.beta_bs=0.05", "a 3-entry severity triple of numbers"),
        ("fog.alpha_axis=abc", "a nonempty list of numbers"),
        ("fog.alpha_axis=[]", "a nonempty list of numbers"),
        ("fog.alpha_axis=[0.01, true]", "a nonempty list of numbers"),
    ])
    def test_wrong_override_type_rejected(self, runner, tmp_path, override, expected):
        src = build_dataset(tmp_path / "in", n_frames=1)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(out), "--set", override],
        )
        assert result.exit_code == 2, result.output
        assert f"override {override.split('=')[0]!r} must be {expected}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "crosstalk_sigma=2", "fog_scatter_fraction=0.1,0.4",
        "fog.beta_bs=[0.01, 0.05, 1]", "fog.alpha_axis=[0.02]",
    ])
    def test_well_typed_override_accepted(self, runner, tmp_path, override):
        src = build_dataset(tmp_path / "in", n_frames=1)
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(tmp_path / "out"), "--corruptions", "fog,crosstalk",
             "--severities", "light", "--set", override],
        )
        assert result.exit_code == 0, result.output

    def test_profile_loaded_once_per_run(self, tmp_path, monkeypatch):
        from lidarcorrupt import cli

        calls = []
        load = cli.load_profile
        monkeypatch.setattr(
            cli, "load_profile", lambda *a, **k: calls.append(a) or load(*a, **k)
        )
        src = build_dataset(tmp_path / "in", n_frames=3)
        manifest = cli.run_corrupt(cli.RunConfig(
            profile_name="semantickitti", input_root=src,
            output_root=tmp_path / "out", kinds=(cli.CorruptionKind.FOG,),
        ))
        assert len(manifest["entries"]) == 3 * 3 * 2
        assert len(calls) == 1

    def test_same_in_out_rejected(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in")
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(src)]
        )
        assert result.exit_code == 2

    def test_unknown_corruption_rejected(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in")
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(tmp_path / "out"), "--corruptions", "hail"]
        )
        assert result.exit_code == 2

    def test_nuscenes_five_channel_roundtrip(self, runner, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        rng = np.random.default_rng(55)
        cloud = PointCloud(
            xyz=rng.uniform(-40, 40, (64, 3)).astype(np.float32),
            intensity=rng.integers(0, 256, 64).astype(np.float32),
            ring=rng.integers(0, 32, 64).astype(np.int32),
        )
        (src / "000000.bin").write_bytes(write_nuscenes_scan(cloud))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "nuscenes", "--in", str(src),
             "--out", str(out), "--corruptions", "beam_missing",
             "--severities", "heavy"],
        )
        assert result.exit_code == 0, result.output
        written = read_nuscenes_scan(
            (out / "beam_missing" / "heavy" / "000000.bin").read_bytes()
        )
        assert 0 < len(written) < 64  # 24 of 32 beams dropped
        # survivors keep their raw 0-255 intensity convention and ring ids
        assert set(written.ring.tolist()) <= set(cloud.ring.tolist())
        assert written.intensity.max() <= 255.0
        original = {tuple(r) for r in cloud.xyz.tolist()}
        assert all(tuple(r) in original for r in written.xyz.tolist())

    def test_manifest_checksums_verifiable(self, runner, tmp_path):
        import hashlib

        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["corrupt", "--dataset", "semantickitti", "--in", str(src),
             "--out", str(out), "--corruptions", "fog,beam_missing"],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        files = [e["file"] for e in manifest["entries"]]
        assert len(files) == len(set(files))  # each file listed exactly once
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(files) == on_disk
        for entry in manifest["entries"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_dead_worker_keeps_finished_frames(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_corrupt_one_frame", _die_on_last_frame)
        src = build_dataset(tmp_path / "in", n_frames=3, beams=8)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(out), "--corruptions", "motion_blur", "--workers", "2"]
        )
        assert result.exit_code == 1, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted({e["frame"] for e in manifest["entries"]}) == ["000000", "000001"]
        assert len(manifest["entries"]) == 2 * 3 * 2
        [failure] = manifest["failures"]
        assert failure["frame"] == DYING_STEM
        assert failure["error"].startswith("BrokenProcessPool: ")

    def test_partial_failure_exit_one(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1)
        (src / "velodyne" / "zzzbad.bin").write_bytes(bytes(7))  # malformed length
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(out), "--corruptions", "motion_blur"]
        )
        assert result.exit_code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["frame"] == "zzzbad"
        assert len(manifest["entries"]) == 6  # good frame still processed


def write_label_dir(path, semantic_arrays):
    path.mkdir(parents=True, exist_ok=True)
    for stem, semantic in semantic_arrays.items():
        labels = LabelArray(
            np.asarray(semantic, np.uint16), np.zeros(len(semantic), np.uint16)
        )
        (path / f"{stem}.label").write_bytes(write_semkitti_labels(labels))


class TestEvaluate:
    def _build_eval_tree(self, root, pred_semantic, gt_semantic):
        for sub in ("clean", "fog/light", "fog/moderate", "fog/heavy"):
            write_label_dir(root / "gt" / sub, {"000000": gt_semantic})
            write_label_dir(root / "pred" / sub, {"000000": pred_semantic})

    def test_perfect_predictions(self, runner, tmp_path):
        semantic = [1, 2, 3, 1, 2, 3]
        self._build_eval_tree(tmp_path, semantic, semantic)
        out_file = tmp_path / "record.json"
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "4",
             "--model", "perfect", "--out", str(out_file)],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(out_file.read_text())
        assert record["clean"] == 1.0
        assert record["corruptions"]["fog"] == [1.0, 1.0, 1.0]

    def test_single_class_prediction_hand_value(self, runner, tmp_path):
        # gt has classes 1 and 2 in equal parts; prediction says 1 everywhere:
        # IoU_1 = 2/4, IoU_2 = 0 -> mIoU = 0.25
        gt = [1, 1, 2, 2]
        pred = [1, 1, 1, 1]
        self._build_eval_tree(tmp_path, pred, gt)
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "3"],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["clean"] == pytest.approx(0.25)

    def test_injected_classes_ignored(self, runner, tmp_path):
        # injected fog points (id 21) map to the ignore label and drop out of
        # scoring entirely; without the remap they would score IoU 0 and drag
        # the mean to 1/3
        gt = [1, 1, 21, 21]
        pred = [1, 1, 2, 2]
        self._build_eval_tree(tmp_path, pred, gt)
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "22"],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["clean"] == pytest.approx(1.0)

    def test_missing_prediction_named(self, runner, tmp_path):
        write_label_dir(tmp_path / "gt" / "clean", {"000000": [1, 2], "000001": [1, 2]})
        write_label_dir(tmp_path / "pred" / "clean", {"000000": [1, 2]})
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "3"],
        )
        assert result.exit_code == 1
        assert "000001" in result.output

    @pytest.mark.parametrize("num_classes", ["0", "-3", "65537", "70000"])
    def test_num_classes_out_of_range_rejected(self, runner, tmp_path, num_classes):
        self._build_eval_tree(tmp_path, [1, 2], [1, 2])
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", num_classes],
        )
        assert result.exit_code == 2, result.output
        assert "--num-classes" in result.output
        assert "1<=x<=65536" in result.output

    @pytest.mark.parametrize("num_classes", [1, 65536])
    def test_num_classes_range_inclusive(self, runner, tmp_path, monkeypatch, num_classes):
        # A stub scorer: 65536 classes would need a 32 GiB confusion matrix.
        from lidarcorrupt import cli

        seen = []

        def stub(pred_root, gt_root, profile, num_classes, model):
            seen.append(num_classes)
            return cli.AccuracyRecord(model=model, clean_acc=1.0, per_corruption={})

        monkeypatch.setattr(cli, "run_evaluate", stub)
        self._build_eval_tree(tmp_path, [0], [0])
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", str(num_classes)],
        )
        assert result.exit_code == 0, result.output
        assert seen == [num_classes]

    def test_out_of_memory_reported_as_failure(self, runner, tmp_path, monkeypatch):
        from lidarcorrupt import cli

        def no_memory(*args):
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(cli, "run_evaluate", no_memory)
        self._build_eval_tree(tmp_path, [1], [1])
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "3"],
        )
        assert result.exit_code == 1
        assert "evaluation failed: Unable to allocate 32.0 GiB" in result.output


class TestReport:
    def _record_payload(self, model, clean, fog):
        corruptions = {
            "fog": [fog], "wet_ground": [0.5], "snow": [0.5], "motion_blur": [0.4],
            "beam_missing": [0.55], "crosstalk": [0.58], "incomplete_echo": [0.54],
            "cross_sensor": [0.46],
        }
        return {"model": model, "metric": "mIoU", "clean": clean,
                "corruptions": corruptions}

    def test_baseline_self_report(self, runner, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(self._record_payload("base", 0.6276, 0.5587)))
        result = runner.invoke(main, ["report", "--baseline", str(base)])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[1].split(",")[:2] == ["base", "100.00"]

    def test_formats_carry_same_numbers(self, runner, tmp_path):
        base = tmp_path / "base.json"
        other = tmp_path / "other.json"
        base.write_text(json.dumps(self._record_payload("base", 0.6276, 0.5587)))
        other.write_text(json.dumps(self._record_payload("kp", 0.6217, 0.5446)))
        csv_out = runner.invoke(
            main, ["report", str(other), "--baseline", str(base), "--format", "csv"]
        )
        json_out = runner.invoke(
            main, ["report", str(other), "--baseline", str(base), "--format", "json"]
        )
        assert csv_out.exit_code == 0 and json_out.exit_code == 0
        row = csv_out.output.strip().splitlines()[1].split(",")
        payload = json.loads(json_out.output)[0]
        assert payload["model"] == row[0]
        assert payload["fog_ce"] == pytest.approx(float(row[3]))
        # published cell: KPConv fog CE vs MinkUNet18 baseline
        assert payload["fog_ce"] == pytest.approx(103.20, abs=0.05)

    def test_incomplete_record_fails(self, runner, tmp_path):
        base = tmp_path / "base.json"
        payload = self._record_payload("base", 0.6, 0.5)
        del payload["corruptions"]["fog"]
        base.write_text(json.dumps(payload))
        result = runner.invoke(main, ["report", "--baseline", str(base)])
        assert result.exit_code == 1

    def test_zero_error_baseline_reported_cleanly(self, runner, tmp_path):
        # a perfect baseline makes CE undefined; that is a data error, not a crash
        base = tmp_path / "base.json"
        payload = self._record_payload("base", 1.0, 1.0)
        payload["corruptions"] = {k: [1.0] for k in payload["corruptions"]}
        base.write_text(json.dumps(payload))
        result = runner.invoke(main, ["report", "--baseline", str(base)])
        assert result.exit_code == 1
        assert "CE undefined" in result.output
