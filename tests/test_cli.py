"""End-to-end command-line behavior on small on-disk fixtures."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
from lidarcorrupt import cli, corruptions
from lidarcorrupt.cli import RunConfig, main
from lidarcorrupt.corruptions import FrameContext
from lidarcorrupt.profiles import CorruptionKind
from lidarcorrupt.rng import derive_seed, make_rng
from lidarcorrupt.scan_io import load_frame

from conftest import NUSCENES_BEAMS, make_beam_cloud, write_dataset

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


def _die_on_first_frame(args):
    """Pool stand-in for `_corrupt_one_frame`: kills its worker on 000000."""
    if args[0] == "000000":
        os._exit(1)
    return _REAL_CORRUPT_ONE_FRAME(args)


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


def unwritable(tmp_path):
    """A path below a regular file, where no file or directory can be made."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    return blocker / "sub"


def assert_unwritable(result, tmp_path, path, *others):
    """Exit 2 with a configuration error naming `path`, no traceback, and
    nothing written: `tmp_path` holds the blocking file and `others` only."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"configuration error: cannot write {path}: " in result.output
    assert "Traceback" not in result.output
    assert sorted(os.listdir(tmp_path)) == sorted(["blocker", *others])
    assert (tmp_path / "blocker").read_text() == "kept"


def entry_checksums(manifest):
    return {e["file"]: e["sha256"] for e in manifest["entries"]}


def builtin_tables():
    return json.loads((Path(cli.__file__).parent / "data" / "profiles.json").read_text())


DELETE = object()
SK = ("profiles", "semantickitti")
HUGE = 10 ** 400  # an int too large for a float
# fault -> (a key path into the built-in tables, the value set there or DELETE)
TABLE_EDITS = {
    "no beam_count": ((*SK, "beam_count"), DELETE),
    "non-numeric triple": ((*SK, "fog.beta_bs"), ["a", "b", "c"]),
    "empty axis": ((*SK, "fog.alpha_axis"), []),
    "no defaults": (("defaults",), DELETE),
    "no profiles table": (("profiles",), DELETE),
    "no snow.snowfall_rate": ((*SK, "snow.snowfall_rate"), DELETE),
    "misspelled key": (("defaults", "crosstalk_sigm"), 3.0),
    "misspelled dotted defaults key": (("defaults", "fog.beta_b"), [0, 0, 0]),
    "field typo": ((*SK, "beam_cout"), 32),
    "nested severity table": ((*SK, "severity"), {"fog": {"beta_bs": [0, 0, 0]}}),
    "params table": ((*SK, "params"), {"crosstalk_sigma": 3.0}),
    "fog_class 'x'": ((*SK, "fog_class"), "x"),
    "fog_class 70000": ((*SK, "fog_class"), 70000),
    "fog_class -1": ((*SK, "fog_class"), -1),
    "fog_class 21.5": ((*SK, "fog_class"), 21.5),
    "vehicle_classes [70000]": ((*SK, "vehicle_classes"), [70000]),
    "ground_classes '40'": ((*SK, "ground_classes"), "40"),
    "ground_classes 40": ((*SK, "ground_classes"), 40),
    "ground_classes [40, 48.5]": ((*SK, "ground_classes"), [40, 48.5]),
    "vehicle_classes [10, 10.0]": ((*SK, "vehicle_classes"), [10, 10.0]),
    "vehicle_box_classes [1, 1]": ((*SK, "vehicle_box_classes"), [1, 1]),
    "ignore_label [0]": ((*SK, "ignore_label"), [0]),
    "ignore_label 70000": ((*SK, "ignore_label"), 70000),
    "beam_count 64.5": ((*SK, "beam_count"), 64.5),
    "requires_labels 'no'": ((*SK, "requires_labels"), "no"),
    "intensity_scale '255'": ((*SK, "intensity_scale"), "255"),
    "intensity_scale 10**400": ((*SK, "intensity_scale"), HUGE),
}
# Every profile key, in the order a key error lists them: by corruption kind,
# as `profiles.KINDS` lists them, then the RANSAC settings.
VALID_KEYS = (
    "fog.alpha_axis, fog.beta_bs, fog_beta_0, fog_response_distance, fog_scatter_fraction, "
    "wet_ground.water_height_mm, wet_noise_floor, wet_kappa_per_mm, snow.snowfall_rate, "
    "snow_reflectivity, snow_particles_per_meter_per_rate, snow_extinction_per_rate, "
    "snow_min_particle_range, motion_blur.sigma_t, beam_missing.beams_dropped, "
    "crosstalk.fraction, crosstalk_sigma, incomplete_echo.fraction, "
    "cross_sensor.beams_kept, subsample_keep, ransac_iterations, ransac_threshold"
)


def bad_profile_dir(root, fault):
    """A profile directory with no table file, a non-JSON one, one whose
    semantickitti entry is not an object, or the built-in tables edited as
    TABLE_EDITS[fault] says."""
    root.mkdir()
    if fault in TABLE_EDITS:
        (*path, last), value = TABLE_EDITS[fault]
        source = builtin_tables()
        table = source
        for key in path:
            table = table[key]
        if value is DELETE:
            del table[last]
        else:
            table[last] = value
        (root / "profiles.json").write_text(json.dumps(source))
    elif fault == "entry not an object":
        (root / "profiles.json").write_text('{"profiles": {"semantickitti": 64}}')
    elif fault == "invalid json":
        (root / "profiles.json").write_text('{"profiles": {')
    return root


# (fault, message after "configuration error: "), with {dir} the profile
# directory and {keys} the valid keys.
BAD_PROFILE_DIRS = [
    ("missing", "cannot load profile tables {dir}/profiles.json"),
    ("invalid json", "cannot load profile tables {dir}/profiles.json"),
    ("no beam_count", "profile 'semantickitti' has no 'beam_count' field"),
    ("entry not an object", "profile 'semantickitti' is malformed"),
    ("non-numeric triple", "semantickitti: fog.beta_bs must be a 3-entry severity "
                           "triple of numbers, got ['a', 'b', 'c']"),
    ("empty axis", "semantickitti: fog.alpha_axis must be a nonempty list of numbers, "
                   "got []"),
    ("no defaults", "semantickitti: missing key 'fog_beta_0'; valid keys: {keys}\n"),
    ("no profiles table", 'profile tables {dir}/profiles.json have no "profiles" table\n'),
    ("no snow.snowfall_rate",
     "semantickitti: missing key 'snow.snowfall_rate'; valid keys: {keys}\n"),
    ("misspelled key", "semantickitti: unknown key 'crosstalk_sigm'; valid keys: {keys}\n"),
    ("misspelled dotted defaults key",
     "semantickitti: unknown key 'fog.beta_b'; valid keys: {keys}\n"),
    ("field typo", "semantickitti: unknown key 'beam_cout'; valid keys: {keys}\n"),
    ("nested severity table", "semantickitti: unknown key 'severity'; valid keys: {keys}\n"),
    ("params table", "semantickitti: unknown key 'params'; valid keys: {keys}\n"),
    ("fog_class 'x'",
     "semantickitti: fog_class must be a whole number in [0, 65535] or null, got 'x'\n"),
    ("fog_class 70000",
     "semantickitti: fog_class must be a whole number in [0, 65535] or null, got 70000\n"),
    ("fog_class -1",
     "semantickitti: fog_class must be a whole number in [0, 65535] or null, got -1\n"),
    ("fog_class 21.5",
     "semantickitti: fog_class must be a whole number in [0, 65535] or null, got 21.5\n"),
    ("vehicle_classes [70000]", "semantickitti: vehicle_classes must be whole numbers in "
                                "[0, 65535], got [70000]\n"),
    ("ground_classes '40'",
     "semantickitti: ground_classes must be whole numbers in [0, 65535], got '40'\n"),
    ("ground_classes 40",
     "semantickitti: ground_classes must be whole numbers in [0, 65535], got 40\n"),
    ("ground_classes [40, 48.5]",
     "semantickitti: ground_classes must be whole numbers in [0, 65535], got [40, 48.5]\n"),
    ("vehicle_classes [10, 10.0]",
     "semantickitti: vehicle_classes must be distinct ids, got [10, 10.0]\n"),
    ("vehicle_box_classes [1, 1]",
     "semantickitti: vehicle_box_classes must be distinct ids, got [1, 1]\n"),
    ("ignore_label [0]",
     "semantickitti: ignore_label must be a whole number in [0, 65535], got [0]\n"),
    ("ignore_label 70000",
     "semantickitti: ignore_label must be a whole number in [0, 65535], got 70000\n"),
    ("beam_count 64.5", "semantickitti: beam_count must be a whole number >= 1, got 64.5\n"),
    ("requires_labels 'no'",
     "semantickitti: requires_labels must be true or false, got 'no'\n"),
    ("intensity_scale '255'", "semantickitti: intensity_scale must be > 0, got '255'\n"),
    pytest.param("intensity_scale 10**400",
                 f"semantickitti: intensity_scale must be > 0, got {HUGE}\n",
                 id="intensity_scale 10**400"),
]

# (profile, --set override, message after "configuration error: ") of values
# of the wrong shape or outside the range a profile table allows.
OUT_OF_RANGE = [
    ("semantickitti", "subsample_keep=0", "subsample_keep must be in (0, 1], got 0"),
    ("semantickitti", "cross_sensor.beams_kept=0,0,0",
     "cross_sensor.beams_kept must be a whole number in [1, 64], got [0, 0, 0]"),
    ("semantickitti", "beam_missing.beams_dropped=99,99,99",
     "beam_missing.beams_dropped must be a whole number in [0, 64], got [99, 99, 99]"),
    ("semantickitti", "fog.beta_bs=-1,-1,-1",
     "fog.beta_bs must be >= 0, got [-1, -1, -1]"),
    ("semantickitti", "ransac_threshold=-1", "ransac_threshold must be >= 0, got -1"),
    ("semantickitti", "wet_noise_floor=-5", "wet_noise_floor must be >= 0, got -5"),
    ("semantickitti", "ransac_iterations=0",
     "ransac_iterations must be a whole number >= 1, got 0"),
    ("kitti", "ransac_iterations=0", "ransac_iterations must be a whole number >= 1, got 0"),
    ("semantickitti", "crosstalk_sigma=abc", "crosstalk_sigma must be a number, got 'abc'"),
    ("semantickitti", "crosstalk_sigma=[3, 3]", "crosstalk_sigma must be a number, got [3, 3]"),
    ("semantickitti", "fog_scatter_fraction=[0.1]",
     "fog_scatter_fraction must be a list of 2 numbers, got [0.1]"),
    ("semantickitti", "fog_scatter_fraction=0.5,0.1",
     "fog_scatter_fraction must be a pair low <= high in [0, 1], got [0.5, 0.1]"),
    ("semantickitti", "fog_scatter_fraction=0.2,1.5",
     "fog_scatter_fraction must be a pair low <= high in [0, 1], got [0.2, 1.5]"),
    ("kitti", "ransac_iterations=true", "ransac_iterations must be a number, got True"),
    ("kitti", "ransac_threshold=NaN", "ransac_threshold must be a number, got nan"),
    pytest.param("semantickitti", f"crosstalk_sigma={HUGE}",
                 f"crosstalk_sigma must be a number, got {HUGE}",
                 id="semantickitti-crosstalk_sigma=10**400"),
]


def out_of_range_profile_dir(root, profile_name, override):
    """The built-in tables with one entry of `profile_name` set as `override` does."""
    key, value = cli._parse_override(override)
    source = builtin_tables()
    source["profiles"][profile_name][key] = value
    root.mkdir()
    (root / "profiles.json").write_text(json.dumps(source))
    return root


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

    @pytest.mark.parametrize("profile_name,points_per_beam,selection", [
        *(pytest.param(name, 6, [], id=name)
          for name in ("kitti", "nuscenes", "semantickitti", "wod")),
        # 64 beams x 300 = 19,200 points a frame, so RANSAC scores every 2nd point.
        pytest.param("kitti", 300, ["--corruptions", "wet_ground"], id="kitti-strided-ransac"),
    ])
    def test_worker_count_invariance(self, runner, tmp_path, profile_name, points_per_beam,
                                     selection):
        # Three frames, so two workers run them in the process pool and one
        # runs two: the golden pins use one frame and never reach it. The
        # manifest bytes must match, and each run's outputs verify.
        src = write_dataset(tmp_path / "in", profile_name, n_frames=3,
                            points_per_beam=points_per_beam)
        manifests = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            result = runner.invoke(
                main,
                ["corrupt", "--dataset", profile_name, "--in", str(src), "--out", str(out),
                 "--seed", "3", "--workers", workers, *selection],
            )
            assert result.exit_code == 0, result.output
            result = runner.invoke(main, ["verify", str(out)])
            assert result.exit_code == 0, result.output
            manifests.append((out / "manifest.json").read_bytes())
        assert json.loads(manifests[0])["failures"] == []
        assert manifests[0] == manifests[1]

    def test_degenerate_frames_write_every_output(self, tmp_path):
        # Frames of 0, 1, 3 and 2 labelled points take each operator's
        # general path (only the zero-strength identities return early):
        # all 8 x 3 outputs of every frame are written, at either worker count.
        src = tmp_path / "in"
        (src / "velodyne").mkdir(parents=True)
        (src / "labels").mkdir()
        rng = np.random.default_rng(11)
        for i, n in enumerate((0, 1, 3, 2)):
            cloud = PointCloud(xyz=rng.uniform(-20, 20, (n, 3)).astype(np.float32),
                               intensity=rng.uniform(0.05, 1, n).astype(np.float32))
            semantic = np.array([40, 10, 48][:n], dtype=np.uint16)  # road, car, sidewalk
            (src / "velodyne" / f"{i:06d}.bin").write_bytes(write_kitti_scan(cloud))
            (src / "labels" / f"{i:06d}.label").write_bytes(
                write_semkitti_labels(LabelArray(semantic, np.zeros(n, np.uint16))))
        manifests = []
        for workers in (1, 2):
            out = tmp_path / str(workers)
            manifest = cli.run_corrupt(RunConfig(profile_name="semantickitti", input_root=src,
                                                 output_root=out, seed=3, workers=workers))
            assert manifest["failures"] == []
            assert len(manifest["entries"]) == 4 * 8 * 3 * 2  # a .bin and a .label each
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_path_makes_no_svd(self, tmp_path, monkeypatch, workers):
        # Ground planes, from labels (semantickitti) or by RANSAC (kitti), come
        # from a 3x3 scatter matrix: an SVD of the points would wake OpenBLAS's
        # threads in every worker. Two frames, so two workers run in the pool,
        # whose forked workers inherit the patch.
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on the corrupt path")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for profile_name, files_per_output in (("semantickitti", 2), ("kitti", 1)):
            src = write_dataset(tmp_path / profile_name, profile_name, n_frames=2)
            manifest = cli.run_corrupt(RunConfig(
                profile_name=profile_name, input_root=src,
                output_root=tmp_path / "out" / profile_name, seed=3, workers=workers))
            assert manifest["failures"] == []
            assert len(manifest["entries"]) == 2 * 8 * 3 * files_per_output

    def test_manifest_seed_reproduces_each_draw(self, tmp_path):
        # An entry's seed is its kind's in the frame, from (run seed, stem,
        # kind); a generator keyed by it gives the draw its outputs read.
        src = write_dataset(tmp_path / "in", "semantickitti", n_frames=2)
        cfg = RunConfig(profile_name="semantickitti", input_root=src,
                        output_root=tmp_path / "out", seed=3)
        entries = cli.run_corrupt(cfg)["entries"]
        profile = cfg.load()
        assert {e["frame"] for e in entries} == {"000000", "000001"}
        for stem in ("000000", "000001"):
            ctx = FrameContext(load_frame(src, stem, profile), profile, cfg.seed)
            for entry in (e for e in entries if e["frame"] == stem):
                kind = CorruptionKind(entry["kind"])
                assert entry["seed"] == derive_seed(cfg.seed, stem, kind)
                if kind not in corruptions._DRAWS:
                    continue
                redrawn = corruptions._DRAWS[kind](
                    make_rng(kind, entry["seed"]), ctx, len(ctx.cloud))
                drawn = ctx.draw(kind)
                if kind is not CorruptionKind.CROSSTALK:
                    redrawn, drawn = (redrawn,), (drawn,)
                assert all(map(np.array_equal, redrawn, drawn))

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

    def test_subset_writes_the_bytes_of_a_full_run(self, runner, tmp_path):
        # A severity reads its kind's draw for the frame, whichever severities
        # and corruptions the run selects, so its files are those of a full run.
        src = build_dataset(tmp_path / "in", n_frames=2)
        manifests = {}
        for name, selection in (("full", []), ("subset", [
                "--corruptions", "snow,motion_blur,crosstalk", "--severities", "heavy"])):
            result = runner.invoke(main, ["corrupt", "--dataset", "semantickitti", "--in",
                                          str(src), "--out", str(tmp_path / name), *selection])
            assert result.exit_code == 0, result.output
            manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        full = {e["file"]: e for e in manifests["full"]["entries"]}
        subset = manifests["subset"]["entries"]
        assert len(subset) == 2 * 3 * 2  # 2 frames, 3 corruptions, a scan and labels
        for entry in subset:
            assert entry == full[entry["file"]]
            assert ((tmp_path / "subset" / entry["file"]).read_bytes()
                    == (tmp_path / "full" / entry["file"]).read_bytes())

    def test_entries_record_params_as_the_operator_reads_them(self, runner, tmp_path):
        # The profile keeps `--set KEY=16,32,48` as the ints its rule asks
        # for, so the entries record what the operator reads, as a run
        # without the --set does.
        src = build_dataset(tmp_path / "in", n_frames=1)
        entries = []
        for name, overrides in (("plain", []), ("set", [
                "--set", "beam_missing.beams_dropped=16,32,48",
                "--set", "cross_sensor.beams_kept=48,32,16"])):
            result = runner.invoke(main, ["corrupt", "--dataset", "semantickitti", "--in",
                                          str(src), "--out", str(tmp_path / name), *overrides])
            assert result.exit_code == 0, result.output
            entries.append(json.loads((tmp_path / name / "manifest.json").read_text())["entries"])
        assert json.dumps(entries[0]) == json.dumps(entries[1])  # 48 and 48.0 differ here
        params = {e["kind"]: e["params"] for e in entries[1] if e["severity"] == "heavy"}
        assert json.dumps(params["beam_missing"]) == '{"beams_dropped": 48}'
        assert params["fog"]["alpha_axis"] == [0.0, 0.005, 0.01, 0.02, 0.03, 0.06]

    def test_equal_override_records_equal_params(self, runner, tmp_path):
        # A value given as it is already held, in another spelling (16 for
        # 16.0, 3 for 3.0), changes no byte of the manifest but `overrides`.
        src = write_dataset(tmp_path / "in", "kitti", n_frames=1)
        manifests = []
        for name, overrides in (("plain", []), ("set", [
                "--set", "beam_missing.beams_dropped=16,32,48", "--set", "crosstalk_sigma=3"])):
            result = runner.invoke(main, ["corrupt", "--dataset", "kitti", "--in", str(src),
                                          "--out", str(tmp_path / name), *overrides])
            assert result.exit_code == 0, result.output
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        assert manifests[1].pop("overrides") == {
            "beam_missing.beams_dropped": [16, 32, 48], "crosstalk_sigma": 3}
        assert manifests[0].pop("overrides") == {}
        assert json.dumps(manifests[0]) == json.dumps(manifests[1])  # 3 and 3.0 differ here

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
        ("ransac_threshold=Infinity", "a number"),
        ("crosstalk_sigma=NaN", "a number"),
        ("crosstalk_sigma=-Infinity", "a number"),
        ("fog.beta_bs=0.01,nan,0.3", "a 3-entry severity triple of numbers"),
        ("fog.alpha_axis=[0.01, NaN]", "a nonempty list of numbers"),
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
        key = override.split("=")[0]
        assert f"configuration error: semantickitti: {key} must be {expected}, got " in (
            result.output)
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

    def test_unwritable_output_is_configuration_error(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in")
        out = unwritable(tmp_path)
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(out), "--corruptions", "fog"]
        )
        assert_unwritable(result, tmp_path, out, "in")

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
            (out / "beam_missing" / "heavy" / "000000.bin").read_bytes(),
            beam_count=NUSCENES_BEAMS,
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
        assert (failure["stage"], failure["type"]) == ("worker", "BrokenProcessPool")

    def test_dead_worker_fails_only_frames_in_flight(self, tmp_path, monkeypatch):
        src = build_dataset(tmp_path / "in", n_frames=8, beams=8)
        kinds = (cli.CorruptionKind.MOTION_BLUR, cli.CorruptionKind.FOG)
        clean = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=tmp_path / "clean",
            kinds=kinds, workers=1))
        monkeypatch.setattr(cli, "_corrupt_one_frame", _die_on_first_frame)
        manifest = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=tmp_path / "out",
            kinds=kinds, workers=2))
        failed = {f["frame"] for f in manifest["failures"]}
        # Two frames run at a time; the other one in flight may fail with 000000.
        assert "000000" in failed and len(failed) <= 2
        assert all((f["stage"], f["type"]) == ("worker", "BrokenProcessPool")
                   for f in manifest["failures"])
        assert manifest["entries"] == [e for e in clean["entries"] if e["frame"] not in failed]
        assert len(manifest["entries"]) == (8 - len(failed)) * 2 * 3 * 2

    def test_fresh_pool_after_each_break(self, tmp_path, monkeypatch):
        """Pools break at 000000 and at 000005: those two frames fail, the
        rest run on the pools started after each break."""
        sizes = []

        class BreakingPool:
            """Runs tasks inline; a dying frame breaks the pool, so its future
            fails and every later submit raises."""

            def __init__(self, max_workers):
                sizes.append(max_workers)
                self.broken = False

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, args):
                if self.broken:
                    raise BrokenProcessPool("pool broke")
                future = Future()
                if args[0] in ("000000", "000005"):
                    self.broken = True
                    future.set_exception(BrokenProcessPool("worker died"))
                else:
                    future.set_result(fn(args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", BreakingPool)
        src = build_dataset(tmp_path / "in", n_frames=8, beams=8)
        manifest = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=tmp_path / "out",
            kinds=(cli.CorruptionKind.MOTION_BLUR,), workers=2))
        assert sizes == [2, 2, 2]
        assert sorted({e["frame"] for e in manifest["entries"]}) == [
            "000001", "000002", "000003", "000004", "000006", "000007"]
        assert manifest["failures"] == [
            {"frame": stem, "stage": "worker", "type": "BrokenProcessPool", "error": "worker died"}
            for stem in ("000000", "000005")]

    @pytest.mark.parametrize("workers,pool_size", [(2, 2), (64, 3)])
    def test_pool_sized_to_frames(self, tmp_path, monkeypatch, workers, pool_size):
        sizes = []

        class InlinePool:
            """Records the pool size and runs each task in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        src = build_dataset(tmp_path / "in", n_frames=3, beams=8)
        manifest = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=tmp_path / "out",
            kinds=(cli.CorruptionKind.MOTION_BLUR,), workers=workers))
        assert sizes == [pool_size]
        assert len(manifest["entries"]) == 3 * 3 * 2 and manifest["failures"] == []

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        doomed = out / "fog" / "heavy" / "000000.bin"
        write_bytes = Path.write_bytes

        def flaky(path, data):
            if path == doomed.with_name("000000.bin.tmp"):
                write_bytes(path, data[:10])
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", flaky)
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        manifest = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=out,
            kinds=(cli.CorruptionKind.FOG, cli.CorruptionKind.MOTION_BLUR)))
        assert manifest["failures"] == [{"frame": "000000", "kind": "fog", "severity": "heavy",
                                         "stage": "write", "type": "OSError",
                                         "error": "disk full"}]
        assert not doomed.exists()
        assert not list(out.rglob("*.tmp"))
        assert len(manifest["entries"]) == 2 * 3 * 2 - 2
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        assert on_disk == {e["file"] for e in manifest["entries"]}
        for entry in manifest["entries"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        assert json.loads((out / "manifest.json").read_text()) == manifest

    def test_failed_write_while_next_output_encodes(self, tmp_path, monkeypatch):
        """Output k (fog/moderate) fails to write its label while output k+1
        (fog/heavy) is being encoded on the helper thread."""
        out = tmp_path / "out"
        doomed = out / "fog" / "moderate" / "000000.label.tmp"
        next_encoding, write_failed = threading.Event(), threading.Event()
        encodes = []
        write_scan, write_bytes = cli.write_scan, Path.write_bytes

        def held_write_scan(cloud, profile):
            encodes.append(threading.current_thread() is threading.main_thread())
            if len(encodes) == 3:  # fog/heavy: stay in flight until k's write failed
                next_encoding.set()
                assert write_failed.wait(10)
            return write_scan(cloud, profile)

        def flaky(path, data):
            if path == doomed:
                assert next_encoding.wait(10)
                write_bytes(path, data[:10])
                write_failed.set()
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(cli, "write_scan", held_write_scan)
        monkeypatch.setattr(Path, "write_bytes", flaky)
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        manifest = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=out,
            kinds=(cli.CorruptionKind.FOG, cli.CorruptionKind.MOTION_BLUR)))
        assert write_failed.is_set() and encodes == [False] * 6
        assert manifest["failures"] == [{"frame": "000000", "kind": "fog",
                                         "severity": "moderate", "stage": "write",
                                         "type": "OSError", "error": "disk full"}]
        assert not list(out.rglob("*.tmp"))
        assert not doomed.with_name("000000.label").exists()
        # the .bin of output k was written before its label failed, and stays
        assert "fog/moderate/000000.bin" in entry_checksums(manifest)
        assert len(manifest["entries"]) == 2 * 3 * 2 - 1
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        assert on_disk == {e["file"] for e in manifest["entries"]}
        for entry in manifest["entries"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_encode_error_on_helper_becomes_output_record(self, tmp_path, monkeypatch):
        write_scan = cli.write_scan
        calls = []

        def failing_write_scan(cloud, profile):
            calls.append(threading.current_thread() is threading.main_thread())
            if len(calls) == 2:  # fog/moderate
                raise ValueError("cloud has no ring channel; cannot encode nuScenes scan")
            return write_scan(cloud, profile)

        monkeypatch.setattr(cli, "write_scan", failing_write_scan)
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        out = tmp_path / "out"
        manifest = cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=out,
            kinds=(cli.CorruptionKind.FOG,)))
        assert calls == [False] * 3  # every encode ran off the main thread
        assert manifest["failures"] == [{
            "frame": "000000", "kind": "fog", "severity": "moderate", "stage": "write",
            "type": "ValueError", "error": "cloud has no ring channel; cannot encode nuScenes scan"}]
        assert sorted(entry_checksums(manifest)) == [
            f"fog/{s}/000000.{ext}" for s in ("heavy", "light") for ext in ("bin", "label")]
        assert not (out / "fog" / "moderate" / "000000.bin").exists()
        assert not list(out.rglob("*.tmp"))

    def test_manifest_stable_under_fast_thread_switching(self, tmp_path):
        """Switching threads every microsecond interleaves the frame's thread
        and its helper as finely as possible; the manifest must not change."""
        src = build_dataset(tmp_path / "in", n_frames=2, beams=8)
        manifests = []
        for name, interval in (("slow", sys.getswitchinterval()), ("fast", 1e-6)):
            saved = sys.getswitchinterval()
            sys.setswitchinterval(interval)
            try:
                manifests.append(cli.run_corrupt(RunConfig(
                    profile_name="semantickitti", input_root=src,
                    output_root=tmp_path / name)))
            finally:
                sys.setswitchinterval(saved)
        slow, fast = manifests
        assert fast == slow and fast["failures"] == [] and len(fast["entries"]) == 96
        for entry in fast["entries"]:
            data = (tmp_path / "fast" / entry["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        write_text = Path.write_text

        def flaky(path, data, *args, **kwargs):
            if path.name == "manifest.json.tmp":
                write_text(path, data[:10])
                raise OSError("disk full")
            return write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", flaky)
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        out = tmp_path / "out"
        with pytest.raises(ProfileError, match=f"^cannot write {out}/manifest.json: disk full$"):
            cli.run_corrupt(RunConfig(profile_name="semantickitti", input_root=src,
                                      output_root=out, kinds=(cli.CorruptionKind.FOG,)))
        assert not (out / "manifest.json").exists()
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("fault,message", BAD_PROFILE_DIRS)
    def test_bad_profile_dir_is_configuration_error(self, runner, tmp_path, fault,
                                                    message):
        profiles = bad_profile_dir(tmp_path / "profiles", fault)
        src = build_dataset(tmp_path / "in", n_frames=1)
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(tmp_path / "out"), "--profile-dir", str(profiles)])
        assert result.exit_code == 2, result.output
        message = message.replace("{dir}", str(profiles)).replace("{keys}", VALID_KEYS)
        assert f"configuration error: {message}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", ["--set", "--profile-dir"])
    @pytest.mark.parametrize("profile,override,message", OUT_OF_RANGE)
    def test_out_of_range_value_is_configuration_error(self, runner, tmp_path, how,
                                                       profile, override, message):
        src = build_dataset(tmp_path / "in", n_frames=1)
        if how == "--set":
            extra = ["--set", override]
        else:
            extra = ["--profile-dir",
                     str(out_of_range_profile_dir(tmp_path / "profiles", profile, override))]
        result = runner.invoke(
            main, ["corrupt", "--dataset", profile, "--in", str(src),
                   "--out", str(tmp_path / "out"), *extra])
        assert result.exit_code == 2, result.output
        assert f"configuration error: {profile}: {message}\n" in result.output
        assert not (tmp_path / "out").exists()

    # A repeated name, a name of no member, no worker or an override with no
    # value is a configuration error.
    @pytest.mark.parametrize("option,text,message", [
        ("--corruptions", "fog,fog", "corruption selection repeats fog"),
        ("--corruptions", "snow,fog,snow,fog", "corruption selection repeats fog, snow"),
        ("--severities", "heavy,light,heavy", "severity selection repeats heavy"),
        ("--corruptions", "fog,smog", "'smog' is not a valid CorruptionKind"),
        ("--severities", "light,extreme", "'extreme' is not a valid Severity"),
        ("--workers", "0", "workers must be >= 1, got 0"),
        ("--set", "crosstalk_sigma", "override 'crosstalk_sigma' must look like key=value"),
    ])
    def test_repeated_selection_is_configuration_error(self, runner, tmp_path, option,
                                                       text, message):
        src = build_dataset(tmp_path / "in", n_frames=1)
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(tmp_path / "out"), option, text])
        assert result.exit_code == 2, result.output
        assert f"configuration error: {message}\n" in result.output
        assert not (tmp_path / "out").exists()

    # A repeated name, a name of no member, an empty selection or no worker
    # is a configuration error.
    @pytest.mark.parametrize("field,chosen,message", [
        ("kinds", (cli.CorruptionKind.FOG, cli.CorruptionKind.FOG),
         "corruption selection repeats fog"),
        ("severities", (cli.Severity.HEAVY, cli.Severity.HEAVY),
         "severity selection repeats heavy"),
        ("kinds", ("fog", "smog"), "'smog' is not a valid CorruptionKind"),
        ("severities", ("light", "extreme"), "'extreme' is not a valid Severity"),
        ("kinds", "fog", "kinds must be a sequence of names, got 'fog'"),
        pytest.param("kinds", cli.CorruptionKind.FOG,
                     "kinds must be a sequence of names, got 'fog'", id="kinds-FOG"),
        ("severities", "heavy", "severities must be a sequence of names, got 'heavy'"),
        pytest.param("severities", cli.Severity.HEAVY,
                     "severities must be a sequence of names, got 'heavy'", id="severities-HEAVY"),
        ("kinds", (), "corruption and severity selections must be nonempty"),
        ("severities", [], "corruption and severity selections must be nonempty"),
        ("workers", 0, "workers must be >= 1, got 0"),
    ])
    def test_repeated_selection_rejected_by_run_config(self, tmp_path, field, chosen,
                                                       message):
        src = build_dataset(tmp_path / "in", n_frames=1)
        with pytest.raises(ProfileError, match=f"^{message}$"):
            RunConfig(profile_name="semantickitti", input_root=src,
                      output_root=tmp_path / "out", **{field: chosen})

    def test_selection_by_name_equals_selection_by_member(self, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        manifests = [cli.run_corrupt(RunConfig(
            profile_name="semantickitti", input_root=src, output_root=tmp_path / name,
            kinds=kinds, severities=severities)) for name, kinds, severities in (
                ("members", (cli.CorruptionKind.FOG, cli.CorruptionKind.SNOW),
                 (cli.Severity.HEAVY,)),
                ("names", ("fog", "snow"), ("heavy",)))]
        assert manifests[0]["failures"] == []
        assert len(manifests[0]["entries"]) == 4
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("used,name", [
        ("earlier run", "manifest.json"), ("output directory", "snow/heavy")])
    def test_used_output_root_is_configuration_error(self, runner, tmp_path, used, name):
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        out = tmp_path / "out"
        args = ["corrupt", "--dataset", "semantickitti", "--in", str(src), "--out", str(out)]
        if used == "earlier run":
            assert runner.invoke(main, [*args, "--corruptions", "fog"]).exit_code == 0
        else:
            (out / name).mkdir(parents=True)
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        result = runner.invoke(main, [*args, "--seed", "5"])
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"configuration error: output root {out} holds {name} of an earlier run\n")
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    def test_unwritable_output_directory_fails_its_outputs_at_write(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        out = tmp_path / "out"
        out.mkdir()
        (out / "fog").write_text("not a directory")
        result = runner.invoke(main, ["corrupt", "--dataset", "semantickitti", "--in",
                                      str(src), "--out", str(out),
                                      "--corruptions", "fog,snow"])
        assert result.exit_code == 1, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(f["kind"], f["severity"], f["stage"], f["type"])
                for f in manifest["failures"]] == [
            ("fog", severity, "write", "NotADirectoryError")
            for severity in ("heavy", "light", "moderate")]
        assert sorted(e["file"] for e in manifest["entries"]) == sorted(
            f"snow/{severity}/000000.{ext}" for severity in cli.Severity
            for ext in ("bin", "label"))

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


class TestVerify:
    def _corrupt(self, runner, tmp_path):
        src = build_dataset(tmp_path / "in", n_frames=2, beams=8)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                   "--out", str(out), "--corruptions", "fog,snow", "--workers", "2"])
        assert result.exit_code == 0, result.output
        return out

    def test_fresh_output_verifies(self, runner, tmp_path):
        out = self._corrupt(runner, tmp_path)
        result = runner.invoke(main, ["verify", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"24 of 24 files match {out}/manifest.json\n"

    def test_flipped_byte_and_missing_file_listed(self, runner, tmp_path):
        out = self._corrupt(runner, tmp_path)
        label = out / "snow" / "heavy" / "000001.label"
        data = bytearray(label.read_bytes())
        data[5] ^= 0x01
        label.write_bytes(bytes(data))
        (out / "fog" / "light" / "000000.bin").unlink()
        unreadable = out / "fog" / "heavy" / "000001.bin"
        unreadable.unlink()
        unreadable.mkdir()
        result = runner.invoke(main, ["verify", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.splitlines() == [
            f"unreadable: fog/heavy/000001.bin: [Errno 21] Is a directory: '{unreadable}'",
            "missing: fog/light/000000.bin",
            "differs: snow/heavy/000001.label",
            f"21 of 24 files match {out}/manifest.json",
        ]

    def test_files_no_entry_names_listed(self, runner, tmp_path):
        # Files written into a finished root beside its own outputs, such as
        # another run's and a leftover `.tmp`, are named and fail the check.
        src = build_dataset(tmp_path / "in", n_frames=1, beams=8)
        out = tmp_path / "out"
        result = runner.invoke(main, ["corrupt", "--dataset", "semantickitti", "--in",
                                      str(src), "--out", str(out), "--corruptions", "fog"])
        assert result.exit_code == 0, result.output
        for kind in cli.CorruptionKind:
            for severity in cli.Severity:
                if kind is not cli.CorruptionKind.FOG:
                    (out / kind / severity).mkdir(parents=True)
                    for ext in ("bin", "label"):
                        (out / kind / severity / f"000000.{ext}").write_bytes(b"other run")
        (out / "fog" / "heavy" / "000000.bin.tmp").write_bytes(b"partial")
        result = runner.invoke(main, ["verify", str(out)])
        assert result.exit_code == 1, result.output
        lines = result.output.splitlines()
        assert lines[-1] == f"6 of 6 files match {out}/manifest.json"
        assert lines[0] == "unlisted: fog/heavy/000000.bin.tmp"
        assert sorted(lines[1:-1]) == sorted(
            f"unlisted: {kind}/{severity}/000000.{ext}" for kind in cli.CorruptionKind
            if kind is not cli.CorruptionKind.FOG for severity in cli.Severity
            for ext in ("bin", "label"))
        assert len(lines) == 1 + 7 * 3 * 2 + 1

    def test_entry_outside_out_listed(self, runner, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not an output")
        digest = hashlib.sha256(outside.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps({"entries": [
            {"file": "../outside.txt", "sha256": digest},
            {"file": str(outside), "sha256": digest},
            {"file": "fog/../../outside.txt", "sha256": digest},
            {"file": "fog/light/a\u0000.bin", "sha256": digest},  # no path can hold it
        ]}))
        result = runner.invoke(main, ["verify", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.splitlines() == [
            "outside: ../outside.txt",
            f"outside: {outside}",
            "outside: fog/../../outside.txt",
            "unreadable: fog/light/a\u0000.bin: embedded null byte",
            f"0 of 4 files match {out}/manifest.json",
        ]

    @pytest.mark.parametrize("manifest", [None, "{", "[]", '{"entries": 3}',
                                          '{"entries": [{"file": "a.bin"}]}',
                                          '{"entries": [{"file": 1, "sha256": "00"}]}'])
    def test_no_manifest_is_exit_two(self, runner, tmp_path, manifest):
        out = tmp_path / "out"
        out.mkdir()
        if manifest is not None:
            (out / "manifest.json").write_text(manifest)
        result = runner.invoke(main, ["verify", str(out)])
        assert result.exit_code == 2, result.output
        assert f"cannot verify: {out}/manifest.json is missing or not a manifest" in (
            result.output)


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

    def test_unwritable_record_is_configuration_error(self, runner, tmp_path):
        semantic = [1, 2, 3, 1, 2, 3]
        self._build_eval_tree(tmp_path, semantic, semantic)
        out_file = unwritable(tmp_path) / "record.json"
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "4", "--out", str(out_file)],
        )
        assert_unwritable(result, tmp_path, out_file, "gt", "pred")

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

    def test_num_classes_65536_scores_as_260(self, runner, tmp_path):
        self._build_eval_tree(tmp_path, [1, 2, 40, 40, 9], [1, 40, 40, 21, 9])
        records = []
        for classes in ("65536", "260"):
            result = runner.invoke(
                main,
                ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                 "--dataset", "semantickitti", "--num-classes", classes],
            )
            assert result.exit_code == 0, result.output
            records.append(result.output)
        assert records[0] == records[1]
        assert json.loads(records[0])["clean"] == pytest.approx((1 + 0.5 + 0 + 1) / 4)

    def test_many_ids_score_in_memory_of_their_pairs(self, tmp_path):
        # 3000 distinct ids at 65536 classes: a class-by-class count matrix and
        # its float copy would take 16 * 3000² bytes (144 MB); the pair counts
        # take a few hundred kB.
        ids = np.arange(3000, dtype=np.uint16)
        write_label_dir(tmp_path / "gt" / "clean", {"000000": ids})
        write_label_dir(tmp_path / "pred" / "clean", {"000000": ids})
        profile = cli.load_profile("semantickitti")
        tracemalloc.start()
        try:
            record = cli.run_evaluate(tmp_path / "pred", tmp_path / "gt", profile, 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.clean_acc == 1.0
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"

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

    def test_malformed_label_file_named(self, runner, tmp_path):
        self._build_eval_tree(tmp_path, [1, 2, 3], [1, 2, 3])
        bad = tmp_path / "pred" / "fog" / "moderate" / "000000.label"
        bad.write_bytes(bad.read_bytes()[:11])
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "4"],
        )
        assert result.exit_code == 1
        assert result.output == (
            f"evaluation failed: {bad}: byte length 11 is not a multiple of 4\n")

    @pytest.mark.parametrize("fault,message", BAD_PROFILE_DIRS)
    def test_bad_profile_dir_is_configuration_error(self, runner, tmp_path, fault,
                                                    message):
        profiles = bad_profile_dir(tmp_path / "profiles", fault)
        self._build_eval_tree(tmp_path, [1, 2], [1, 2])
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "3",
             "--profile-dir", str(profiles)],
        )
        assert result.exit_code == 2, result.output
        message = message.replace("{dir}", str(profiles)).replace("{keys}", VALID_KEYS)
        assert f"configuration error: {message}" in result.output

    @pytest.mark.parametrize("profile,override,message", OUT_OF_RANGE)
    def test_out_of_range_value_is_configuration_error(self, runner, tmp_path, profile,
                                                       override, message):
        profiles = out_of_range_profile_dir(tmp_path / "profiles", profile, override)
        self._build_eval_tree(tmp_path, [1, 2], [1, 2])
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", profile, "--num-classes", "3", "--profile-dir", str(profiles)],
        )
        assert result.exit_code == 2, result.output
        assert f"configuration error: {profile}: {message}\n" in result.output

    @pytest.mark.parametrize("severities,missing", [
        (("heavy",), "fog/light, fog/moderate"),
        (("light", "heavy"), "fog/moderate"),
    ])
    def test_corruption_with_some_severities_rejected(self, runner, tmp_path,
                                                      severities, missing):
        for sub in ("clean",) + tuple(f"fog/{s}" for s in severities):
            write_label_dir(tmp_path / "gt" / sub, {"000000": [1, 2]})
            write_label_dir(tmp_path / "pred" / sub, {"000000": [1, 2]})
        result = runner.invoke(
            main,
            ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
             "--dataset", "semantickitti", "--num-classes", "3"],
        )
        assert result.exit_code == 1, result.output
        assert (f"evaluation failed: ground truth has fog but no {missing} directory"
                in result.output)

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

    def test_unwritable_report_is_configuration_error(self, runner, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(self._record_payload("base", 0.6276, 0.5587)))
        out_file = unwritable(tmp_path) / "report.csv"
        result = runner.invoke(
            main, ["report", "--baseline", str(base), "--out", str(out_file)]
        )
        assert_unwritable(result, tmp_path, out_file, "base.json")

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


# A malformed accuracy record -> the error after its file name.
BAD_RECORDS = {
    "record []": ([], "accuracy record is malformed: "),
    "corruptions []": ({"model": "m", "clean": 0.5, "corruptions": []},
                       "accuracy record is malformed: "),
    "fog null": ({"model": "m", "clean": 0.5, "corruptions": {"fog": None}},
                 "accuracy record is malformed: "),
    "no clean": ({"model": "m", "corruptions": {}}, "accuracy record has no 'clean' field\n"),
    "clean '0.7'": ({"model": "m", "clean": "0.7", "corruptions": {}},
                    "accuracy record is malformed: clean must be a number, got '0.7'\n"),
    "clean true": ({"model": "m", "clean": True, "corruptions": {}},
                   "accuracy record is malformed: clean must be a number, got True\n"),
    "fog '1'": ({"model": "m", "clean": 0.5, "corruptions": {"fog": "1"}},
                "accuracy record is malformed: fog must be a list of numbers, got '1'\n"),
    "fog booleans": ({"model": "m", "clean": 0.5, "corruptions": {"fog": [True, True, False]}},
                     "accuracy record is malformed: fog must be a list of numbers, "
                     "got [True, True, False]\n"),
    "clean 1.5": ({"model": "m", "clean": 1.5, "corruptions": {}},
                  "clean accuracy must be in [0, 1], got 1.5\n"),
    "fog [1.5]": ({"model": "m", "clean": 0.5, "corruptions": {"fog": [1.5]}},
                  "m/fog: accuracies outside [0, 1]\n"),
    "fog of 2": ({"model": "m", "clean": 0.5, "corruptions": {"fog": [0.5, 0.5]}},
                 "m/fog: need 1 or 3 accuracies, got 2\n"),
}


@pytest.mark.parametrize("case", ["truncated pred", "corrupt below a file",
                                  "manifest is a directory", "evaluate below a file",
                                  *BAD_RECORDS, "extra prediction", "no clean/",
                                  "mixed metrics"])
def test_failed_run_names_its_cause_without_traceback(tmp_path, case):
    # What a shell sees: the exit code, and one line on stderr that names
    # the file, with no traceback on either stream.
    src = build_dataset(tmp_path / "in", beams=8)
    write_label_dir(tmp_path / "gt" / "clean", {"000000": [1, 2, 3]})
    write_label_dir(tmp_path / "pred" / "clean", {"000000": [1, 2, 3]})
    evaluate = ["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                "--dataset", "semantickitti", "--num-classes", "4"]
    blocked = unwritable(tmp_path)
    if case == "truncated pred":
        bad = tmp_path / "pred" / "clean" / "000000.label"
        bad.write_bytes(bad.read_bytes()[:11])
        args, code = evaluate, 1
        message = f"evaluation failed: {bad}: byte length 11 is not a multiple of 4\n"
    elif case in BAD_RECORDS:
        record, reason = BAD_RECORDS[case]
        bad = tmp_path / "record.json"
        bad.write_text(json.dumps(record))
        args, code = ["report", "--baseline", str(bad)], 1
        message = f"report failed: {bad}: {reason}"
    elif case == "extra prediction":
        write_label_dir(tmp_path / "pred" / "clean", {"000001": [1, 2, 3]})
        args, code = evaluate, 1
        message = (f"evaluation failed: prediction 000001 has no ground truth under "
                   f"{tmp_path}/gt/clean\n")
    elif case == "no clean/":
        (tmp_path / "empty").mkdir()
        args, code = [*evaluate[:3], "--gt", str(tmp_path / "empty"), *evaluate[5:]], 1
        message = ("evaluation failed: ground truth has no clean/ directory under "
                   f"{tmp_path}/empty\n")
    elif case == "mixed metrics":
        paths = []
        for name, metric in (("base", "mAP"), ("model", "mIoU")):
            paths.append(tmp_path / f"{name}.json")
            scores = {kind.value: [0.5] for kind in CorruptionKind}
            paths[-1].write_text(json.dumps({"model": name, "metric": metric, "clean": 0.6,
                                             "corruptions": scores}))
        args, code = ["report", str(paths[1]), "--baseline", str(paths[0])], 2
        message = (f"configuration error: {paths[1]} holds mIoU scores but baseline {paths[0]} "
                   "holds mAP\n")
    elif case == "corrupt below a file":
        args, code = ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                      "--out", str(blocked)], 2
        message = f"configuration error: cannot write {blocked}: "
    elif case == "manifest is a directory":
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        args, code = ["corrupt", "--dataset", "semantickitti", "--in", str(src),
                      "--out", str(tmp_path / "out"), "--corruptions", "fog"], 2
        message = f"configuration error: cannot write {tmp_path}/out/manifest.json: "
    else:
        blocked = blocked / "record.json"
        args, code = [*evaluate, "--out", str(blocked)], 2
        message = f"configuration error: cannot write {blocked}: "
    # `main` in a fresh interpreter, as the console script (which need not
    # be installed) runs it, importing the package this suite imports.
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", "from lidarcorrupt.cli import main; main()", *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert result.returncode == code, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr + result.stdout
    assert (tmp_path / "blocker").read_text() == "kept"
