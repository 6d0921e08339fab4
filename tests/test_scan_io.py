"""Codec round-trips and dataset iteration."""

import re
import struct

import numpy as np
import pytest

from lidarcorrupt import (
    CorruptionKind,
    CorruptScanError,
    CorruptedFrame,
    LabelArray,
    MalformedScanError,
    PairingError,
    PointCloud,
    Provenance,
    frame_stems,
    load_frame,
    load_profile,
    read_kitti_boxes,
    read_kitti_scan,
    read_nuscenes_scan,
    read_scan,
    read_semkitti_labels,
    write_kitti_scan,
    write_nuscenes_scan,
    write_scan,
    write_semkitti_labels,
)
from lidarcorrupt.cli import RunConfig, run_corrupt

from conftest import NUSCENES_BEAMS, assert_same_bits, write_dataset, write_kitti_boxes


def random_cloud(rng, n, with_ring=False, beam_count=32):
    return PointCloud(
        xyz=rng.uniform(-80, 80, (n, 3)).astype(np.float32),
        intensity=rng.uniform(0, 1, n).astype(np.float32),
        ring=rng.integers(0, beam_count, n).astype(np.int32) if with_ring else None,
    )


class TestKittiScan:
    def test_single_zero_point(self):
        pc = read_kitti_scan(bytes(16))
        assert len(pc) == 1
        assert pc.xyz.tolist() == [[0.0, 0.0, 0.0]]
        assert pc.intensity.tolist() == [0.0]
        assert pc.ring is None

    def test_empty(self):
        assert len(read_kitti_scan(b"")) == 0

    def test_known_values_roundtrip(self):
        raw = struct.pack("<4f", 1.0, 2.0, 3.0, 0.5)
        pc = read_kitti_scan(raw)
        assert pc.xyz.tolist() == [[1.0, 2.0, 3.0]]
        assert pc.intensity.tolist() == [0.5]
        assert write_kitti_scan(pc) == raw

    def test_bad_length(self):
        with pytest.raises(MalformedScanError):
            read_kitti_scan(bytes(15))

    def test_nonfinite_rejected_with_index(self):
        raw = struct.pack("<8f", 0, 0, 0, 0, 1, float("nan"), 1, 1)
        with pytest.raises(CorruptScanError, match="index 1"):
            read_kitti_scan(raw)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pc = random_cloud(rng, int(rng.integers(0, 1000)))
            raw = write_kitti_scan(pc)
            back = read_kitti_scan(raw)
            assert_same_bits(back, pc)
            assert write_kitti_scan(back) == raw

    def test_zero_point_count_bytes(self):
        assert write_kitti_scan(random_cloud(np.random.default_rng(0), 0)) == b""
        assert len(write_kitti_scan(random_cloud(np.random.default_rng(0), 1))) == 16


class TestNuscenesScan:
    def test_single_zero_point(self):
        pc = read_nuscenes_scan(bytes(20), beam_count=NUSCENES_BEAMS)
        assert len(pc) == 1
        assert pc.ring.tolist() == [0]

    def test_ring_boundary(self):
        raw = struct.pack("<5f", 0, 0, 0, 0, 31.0)
        assert read_nuscenes_scan(raw, beam_count=NUSCENES_BEAMS).ring.tolist() == [31]

    # Checked as stored, before any cast: a fraction, NaN, inf or a value
    # past int32 is named as it is in the file, with its point.
    @pytest.mark.parametrize("shown", ["32.0", "-1.0", "3.4", "-0.4", "nan", "inf", "-inf", "1e+12"])
    def test_ring_out_of_range(self, shown):
        raw = struct.pack("<10f", 0, 0, 0, 0, 1.0, 0, 0, 0, 0, float(shown))
        message = f"ring value {shown} at point 1 is not a beam id in [0, {NUSCENES_BEAMS})"
        with pytest.raises(CorruptScanError, match=re.escape(message)):
            read_nuscenes_scan(raw, beam_count=NUSCENES_BEAMS)

    def test_bad_length(self):
        with pytest.raises(MalformedScanError):
            read_nuscenes_scan(bytes(19), beam_count=NUSCENES_BEAMS)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pc = random_cloud(rng, int(rng.integers(0, 500)), with_ring=True)
            raw = write_nuscenes_scan(pc)
            back = read_nuscenes_scan(raw, beam_count=NUSCENES_BEAMS)
            assert_same_bits(back, pc)
            assert write_nuscenes_scan(back) == raw

    def test_write_requires_ring(self):
        with pytest.raises(ValueError, match="ring"):
            write_nuscenes_scan(random_cloud(np.random.default_rng(0), 3))


class TestLabels:
    def test_zero_word(self):
        labels = read_semkitti_labels(struct.pack("<I", 0))
        assert labels.semantic.tolist() == [0]
        assert labels.instance.tolist() == [0]

    def test_packed_word(self):
        labels = read_semkitti_labels(struct.pack("<I", 0x00020001))
        assert labels.semantic.tolist() == [1]
        assert labels.instance.tolist() == [2]

    def test_bad_length(self):
        with pytest.raises(MalformedScanError):
            read_semkitti_labels(bytes(6))

    def test_random_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(0, 2000))
            words = rng.integers(0, 2**32, n, dtype=np.uint64).astype("<u4")
            raw = words.tobytes()
            labels = read_semkitti_labels(raw)
            assert write_semkitti_labels(labels) == raw
            # bit arithmetic oracle
            assert np.array_equal(labels.semantic, (words & 0xFFFF).astype(np.uint16))
            assert np.array_equal(labels.instance, (words >> 16).astype(np.uint16))

    def test_value_roundtrip(self):
        labels = LabelArray(
            semantic=np.array([1, 40, 255], np.uint16),
            instance=np.array([0, 7, 65535], np.uint16),
        )
        assert_same_bits(read_semkitti_labels(write_semkitti_labels(labels)), labels)


class TestKittiBoxes:
    LINE = "Car 0.0 0 -1.57 0 0 50 50 1.5 1.6 3.9 2.0 3.0 -1.0 0.3\n"

    def test_parse_geometry(self):
        boxes = read_kitti_boxes(self.LINE)
        assert len(boxes.boxes) == 1
        box = boxes.boxes[0]
        assert box.class_id == 0
        assert box.lwh == (3.9, 1.6, 1.5)
        assert box.center == (2.0, 3.0, -1.0 + 0.75)
        assert box.yaw == pytest.approx(0.3)

    def test_dontcare_skipped(self):
        text = self.LINE + "DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10\n"
        assert len(read_kitti_boxes(text).boxes) == 1

    def test_unknown_type(self):
        with pytest.raises(MalformedScanError, match="unknown type"):
            read_kitti_boxes("Spaceship 0 0 0 0 0 0 0 1 1 1 0 0 0 0\n")

    @pytest.mark.parametrize("row,error", [
        ("Car 0 0 0", "box label line 3: expected 15+ fields, got 4"),
        ("Spaceship 0 0 0 0 0 0 0 1 1 1 0 0 0 0", "box label line 3: unknown type 'Spaceship'"),
        ("Car 0 0 0 0 0 0 0 1.5 wide 4 1 2 -1 0.3",
         "box label line 3: could not convert string to float: 'wide'"),
        ("Car 0 0 0 0 0 0 0 1.5 0 4 1 2 -1 0.3",
         "box label line 3: box dimensions must be positive, got (4.0, 0.0, 1.5)"),
        ("Car 0 0 0 0 0 0 0 1.7e308 1 4 1 2 1.7e308 0.3", "box label line 3: non-finite geometry"),
    ])
    def test_rejected_row_named_by_line_from_one(self, row, error):
        with pytest.raises(MalformedScanError) as info:
            read_kitti_boxes(self.LINE + "\n" + row + "\n")
        assert str(info.value) == error

    @pytest.mark.parametrize("column,value", [
        (8, "nan"), (9, "nan"), (10, "inf"), (11, "inf"), (12, "-inf"), (13, "nan"),
        (14, "nan"),
    ])
    def test_non_finite_rejected_with_line(self, column, value):
        fields = self.LINE.split()
        fields[column] = value
        with pytest.raises(MalformedScanError, match="box label line 2: non-finite"):
            read_kitti_boxes(self.LINE + " ".join(fields) + "\n")

    def test_non_finite_box_fails_frame_once_at_load(self, tmp_path):
        (tmp_path / "in" / "boxes").mkdir(parents=True)
        cloud = random_cloud(np.random.default_rng(0), 8)
        (tmp_path / "in" / "000000.bin").write_bytes(write_kitti_scan(cloud))
        (tmp_path / "in" / "boxes" / "000000.txt").write_text(
            "Car 0 0 0 0 0 0 0 1.5 nan 4 1 2 -1 0.3\n")
        manifest = run_corrupt(RunConfig(profile_name="kitti", input_root=tmp_path / "in",
                                         output_root=tmp_path / "out"))
        assert manifest["entries"] == []
        assert manifest["failures"] == [
            {"frame": "000000", "stage": "load", "type": "MalformedScanError",
             "error": "boxes/000000.txt: box label line 1: non-finite geometry"}]

    def test_roundtrip(self):
        boxes = read_kitti_boxes(self.LINE)
        again = read_kitti_boxes(write_kitti_boxes(boxes))
        assert again.boxes[0].center == pytest.approx(boxes.boxes[0].center)
        assert again.boxes[0].lwh == pytest.approx(boxes.boxes[0].lwh)
        assert again.boxes[0].yaw == pytest.approx(boxes.boxes[0].yaw)
        assert again.boxes[0].class_id == boxes.boxes[0].class_id


def load_dataset(root, profile):
    """Every frame of `root`, in `frame_stems` order."""
    return [load_frame(root, stem, profile) for stem in frame_stems(root)]


class TestIterateDataset:
    def _write_scan(self, path, n=4, seed=0):
        rng = np.random.default_rng(seed)
        pc = random_cloud(rng, n)
        path.write_bytes(write_kitti_scan(pc))
        return pc

    def test_empty_dir(self, tmp_path):
        profile = load_profile("kitti")
        assert load_dataset(tmp_path, profile) == []

    def test_lexicographic_order(self, tmp_path):
        profile = load_profile("kitti")
        self._write_scan(tmp_path / "000001.bin", seed=1)
        self._write_scan(tmp_path / "000000.bin", seed=2)
        names = [f.cloud.frame_id for f in load_dataset(tmp_path, profile)]
        assert names == ["000000", "000001"]

    def test_missing_label_raises(self, tmp_path):
        profile = load_profile("semantickitti")
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "labels").mkdir()
        self._write_scan(tmp_path / "velodyne" / "000000.bin")
        with pytest.raises(PairingError, match="000000"):
            load_dataset(tmp_path, profile)

    def test_label_pairing_and_alignment(self, tmp_path):
        profile = load_profile("semantickitti")
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "labels").mkdir()
        self._write_scan(tmp_path / "velodyne" / "000000.bin", n=4)
        labels = LabelArray(np.full(4, 40, np.uint16), np.zeros(4, np.uint16))
        (tmp_path / "labels" / "000000.label").write_bytes(write_semkitti_labels(labels))
        frames = load_dataset(tmp_path, profile)
        assert len(frames) == 1
        assert len(frames[0].labels) == len(frames[0].cloud)

    def test_misaligned_labels(self, tmp_path):
        profile = load_profile("semantickitti")
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "labels").mkdir()
        self._write_scan(tmp_path / "velodyne" / "000000.bin", n=4)
        labels = LabelArray(np.zeros(3, np.uint16), np.zeros(3, np.uint16))
        (tmp_path / "labels" / "000000.label").write_bytes(write_semkitti_labels(labels))
        with pytest.raises(PairingError, match="000000"):
            load_dataset(tmp_path, profile)

    def test_boxes_attached_for_kitti(self, tmp_path):
        profile = load_profile("kitti")
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "boxes").mkdir()
        self._write_scan(tmp_path / "velodyne" / "000000.bin")
        (tmp_path / "boxes" / "000000.txt").write_text(TestKittiBoxes.LINE)
        frame = load_dataset(tmp_path, profile)[0]
        assert frame.boxes is not None and len(frame.boxes.boxes) == 1
        assert frame.labels is None

    def test_missing_box_file_raises(self, tmp_path):
        profile = load_profile("kitti")
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "boxes").mkdir()
        self._write_scan(tmp_path / "velodyne" / "000000.bin")
        with pytest.raises(PairingError, match="000000"):
            load_dataset(tmp_path, profile)

    def test_load_frame_is_a_clean_corrupted_frame(self, tmp_path):
        profile = load_profile("kitti")
        self._write_scan(tmp_path / "000007.bin", n=5)
        frame = load_frame(tmp_path, "000007", profile)
        assert isinstance(frame, CorruptedFrame)
        assert frame.cloud.frame_id == "000007"
        assert frame.provenance.tolist() == [Provenance.ORIGINAL] * 5

    def test_nuscenes_intensity_normalized(self, tmp_path):
        profile = load_profile("nuscenes")
        pc = PointCloud(
            xyz=np.zeros((2, 3), np.float32),
            intensity=np.array([0.0, 255.0], np.float32),
            ring=np.array([0, 5], np.int32),
        )
        (tmp_path / "000000.bin").write_bytes(write_nuscenes_scan(pc))
        frame = load_dataset(tmp_path, profile)[0]
        assert frame.cloud.intensity.tolist() == [0.0, 1.0]
        assert frame.cloud.ring.tolist() == [0, 5]


PROFILES = ("semantickitti", "kitti", "nuscenes", "wod")


class TestScanCodec:
    @pytest.mark.parametrize("name", PROFILES)
    def test_write_inverts_read(self, name):
        profile = load_profile(name)
        rng = np.random.default_rng(11)
        pc = random_cloud(rng, 500, with_ring=name == "nuscenes",
                          beam_count=profile.beam_count)
        if name == "nuscenes":  # raw nuScenes intensities are integers in [0, 255]
            pc = pc.with_fields(intensity=rng.integers(0, 256, 500).astype(np.float32))
            data = write_nuscenes_scan(pc)
        else:
            data = write_kitti_scan(pc)
        cloud = read_scan(data, profile, "f")
        assert cloud.frame_id == "f"
        assert (cloud.intensity <= 1).all()
        assert write_scan(cloud, profile) == data

    @pytest.mark.parametrize("name", PROFILES)
    def test_channels_follow_ring(self, name):
        profile = load_profile(name)
        pc = random_cloud(np.random.default_rng(3), 7, with_ring=True)
        assert len(write_scan(pc, profile)) == 7 * 5 * 4
        ringless = PointCloud(xyz=pc.xyz, intensity=pc.intensity)
        assert len(write_scan(ringless, profile)) == 7 * 4 * 4

    @pytest.mark.parametrize("name", PROFILES)
    @pytest.mark.parametrize("n,with_ring", [(500, False), (500, True), (0, False)])
    def test_write_scan_is_a_byte_view_of_the_former_encoding(self, name, n, with_ring):
        profile = load_profile(name)
        pc = random_cloud(np.random.default_rng(n + 7), n, with_ring=with_ring,
                          beam_count=profile.beam_count)
        # the former encode: a scaled copy of the cloud, then its records
        scaled = (pc.intensity * profile.intensity_scale).astype(np.float32)
        expected = np.empty((n, 5 if with_ring else 4), dtype="<f4")
        expected[:, :3] = pc.xyz
        expected[:, 3] = scaled
        if with_ring:
            expected[:, 4] = pc.ring
        view = write_scan(pc, profile)
        assert isinstance(view, memoryview)
        assert (view.ndim, view.format, len(view)) == (1, "B", expected.nbytes)
        assert bytes(view) == expected.tobytes()

    def test_frame_stems_requires_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            frame_stems(tmp_path / "missing")

    def test_missing_label_message_is_shared(self, tmp_path):
        profile = load_profile("semantickitti")
        (tmp_path / "in" / "velodyne").mkdir(parents=True)
        (tmp_path / "in" / "labels").mkdir()
        pc = random_cloud(np.random.default_rng(0), 4)
        (tmp_path / "in" / "velodyne" / "000000.bin").write_bytes(write_kitti_scan(pc))
        expected = "frame 000000: missing label file labels/000000.label"
        with pytest.raises(PairingError) as info:
            load_dataset(tmp_path / "in", profile)
        assert str(info.value) == expected
        with pytest.raises(PairingError, match=expected):
            load_frame(tmp_path / "in", "000000", profile)
        manifest = run_corrupt(RunConfig(profile_name="semantickitti",
                                         input_root=tmp_path / "in",
                                         output_root=tmp_path / "out"))
        assert manifest["failures"] == [{"frame": "000000", "stage": "load",
                                         "type": "PairingError", "error": expected}]

    @pytest.mark.parametrize("path,error", [
        ("velodyne/000000.bin",
         "velodyne/000000.bin: kitti scan: byte length 11 is not a multiple of 16"),
        ("labels/000000.label",
         "labels/000000.label: label stream: byte length 11 is not a multiple of 4"),
    ])
    def test_truncated_file_named_at_load(self, tmp_path, path, error):
        src = write_dataset(tmp_path / "in", "semantickitti", n_frames=2)
        (src / path).write_bytes((src / path).read_bytes()[:11])
        with pytest.raises(MalformedScanError) as info:
            load_frame(src, "000000", load_profile("semantickitti"))
        assert str(info.value) == error
        out = tmp_path / "out"
        manifest = run_corrupt(RunConfig(profile_name="semantickitti", input_root=src,
                                         output_root=out, kinds=(CorruptionKind.FOG,)))
        assert manifest["failures"] == [{"frame": "000000", "stage": "load",
                                         "type": "MalformedScanError", "error": error}]
        assert len(manifest["entries"]) == 6
        for entry in manifest["entries"]:
            assert entry["frame"] == "000001" and (out / entry["file"]).is_file()


class TestIntensityContract:
    """Intensities below 0 or above 1 after scaling are rejected once, at read."""

    @staticmethod
    def scan_with_intensity(name, value, index=3):
        rng = np.random.default_rng(5)
        pc = random_cloud(rng, 6, with_ring=name == "nuscenes")
        if name == "nuscenes":  # raw 0-255
            pc = pc.with_fields(intensity=np.round(pc.intensity * 255))
        intensity = pc.intensity.copy()
        intensity[index] = value
        pc = pc.with_fields(intensity=intensity)
        return write_nuscenes_scan(pc) if name == "nuscenes" else write_kitti_scan(pc)

    @pytest.mark.parametrize("name,value", [("wod", 1.5), ("kitti", 1.01), ("nuscenes", 256.0)])
    def test_above_one_rejected_with_point_index(self, name, value):
        data = self.scan_with_intensity(name, value)
        with pytest.raises(CorruptScanError, match=f"intensity {value:g} at point 3 "):
            read_scan(data, load_profile(name), "f")

    @pytest.mark.parametrize("name,value", [("wod", 1.0), ("wod", 1.0 + 5e-7),
                                            ("nuscenes", 255.0)])
    def test_top_of_range_accepted(self, name, value):
        cloud = read_scan(self.scan_with_intensity(name, value), load_profile(name))
        assert cloud.intensity[3] == np.float32(value / load_profile(name).intensity_scale)

    @pytest.mark.parametrize("name,value", [("wod", -0.5), ("kitti", -1e-7), ("nuscenes", -1.0)])
    def test_below_zero_rejected_with_point_index(self, name, value):
        data = self.scan_with_intensity(name, value)
        with pytest.raises(CorruptScanError, match=f"intensity {value:g} at point 3 is below 0 "):
            read_scan(data, load_profile(name), "f")

    @pytest.mark.parametrize("name", ["kitti", "nuscenes"])
    def test_negative_zero_accepted(self, name):
        cloud = read_scan(self.scan_with_intensity(name, -0.0), load_profile(name))
        assert cloud.intensity[3] == 0 and np.signbit(cloud.intensity[3])

    def test_negative_frame_fails_once_at_load(self, tmp_path):
        # Ten negative returns in a 2,560-point scan: the frame fails at
        # load, so no operator sees them and no output is written.
        cloud = random_cloud(np.random.default_rng(9), 2560)
        intensity = cloud.intensity.copy()
        intensity[100:110] = -0.5
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "000000.bin").write_bytes(
            write_kitti_scan(cloud.with_fields(intensity=intensity)))
        manifest = run_corrupt(RunConfig(profile_name="kitti", input_root=tmp_path / "in",
                                         output_root=tmp_path / "out"))
        assert manifest["entries"] == []
        [failure] = manifest["failures"]
        assert failure["frame"] == "000000" and "kind" not in failure
        assert "intensity -0.5 at point 100 is below 0" in failure["error"]

    def test_frame_fails_once_at_load(self, tmp_path):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "000000.bin").write_bytes(self.scan_with_intensity("wod", 2.0))
        manifest = run_corrupt(RunConfig(profile_name="wod", input_root=tmp_path / "in",
                                         output_root=tmp_path / "out"))
        assert manifest["entries"] == []
        [failure] = manifest["failures"]
        assert failure["frame"] == "000000" and "kind" not in failure
        assert "intensity 2 at point 3" in failure["error"]
