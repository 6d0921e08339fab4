"""Container validation and box geometry."""

import math

import numpy as np
import pytest

from lidarcorrupt import Box, BoxSet, CorruptScanError, LabelArray, PointCloud


class TestPointCloud:
    def test_empty_representable(self):
        pc = PointCloud(xyz=np.zeros((0, 3)), intensity=np.zeros(0))
        assert len(pc) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((2, 3)), intensity=np.zeros(3))

    def test_ring_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((2, 3)), intensity=np.zeros(2), ring=np.zeros(3, int))

    def test_nonfinite_rejected(self):
        xyz = np.array([[0, 0, 0], [np.inf, 0, 0]], np.float32)
        with pytest.raises(CorruptScanError):
            PointCloud(xyz=xyz, intensity=np.zeros(2))

    def test_select_keeps_alignment(self):
        pc = PointCloud(
            xyz=np.arange(12, dtype=np.float32).reshape(4, 3),
            intensity=np.arange(4, dtype=np.float32),
            ring=np.arange(4, dtype=np.int32),
        )
        sub = pc.select(np.array([0, 2]))
        assert sub.intensity.tolist() == [0.0, 2.0]
        assert sub.ring.tolist() == [0, 2]

    def test_equals_is_bitwise(self):
        pc = PointCloud(xyz=np.zeros((1, 3)), intensity=np.zeros(1))
        other = PointCloud(xyz=np.zeros((1, 3)), intensity=np.array([1e-8]))
        assert pc.equals(pc)
        assert not pc.equals(other)


class TestLabelArray:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabelArray(np.zeros(2, np.uint16), np.zeros(3, np.uint16))

    def test_sixteen_bit_range_preserved(self):
        labels = LabelArray(
            np.array([0, 65535], np.uint16), np.array([65535, 0], np.uint16)
        )
        assert labels.semantic.tolist() == [0, 65535]
        assert labels.instance.tolist() == [65535, 0]


class TestBoxes:
    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            Box(center=(0, 0, 0), lwh=(0.0, 1, 1), yaw=0, class_id=0)

    @pytest.mark.parametrize("center,lwh,yaw", [
        ((0, 0, math.inf), (1, 1, 1), 0.0),
        ((0, 0, 0), (1, math.nan, 1), 0.0),
        ((0, 0, 0), (1, 1, 1), math.nan),
        ((-math.inf, 0, 0), (1, 1, math.inf), 0.0),
    ])
    def test_non_finite_values_rejected(self, center, lwh, yaw):
        with pytest.raises(ValueError, match="non-finite geometry"):
            Box(center=center, lwh=lwh, yaw=yaw, class_id=0)

    def test_yaw_normalized(self):
        box = Box(center=(0, 0, 0), lwh=(1, 1, 1), yaw=3 * math.pi, class_id=0)
        assert -math.pi < box.yaw <= math.pi
        assert box.yaw == pytest.approx(math.pi)

    def test_contains_axis_aligned(self):
        boxes = BoxSet((Box(center=(0, 0, 0), lwh=(4, 2, 2), yaw=0.0, class_id=0),))
        pts = np.array([[1.9, 0.9, 0.9], [2.1, 0, 0], [0, 1.1, 0], [0, 0, -1.1]])
        assert boxes.contains(pts).tolist() == [True, False, False, False]

    def test_contains_rotated_matches_oracle(self):
        yaw = 0.7
        box = Box(center=(2.0, -1.0, 0.5), lwh=(4, 2, 1), yaw=yaw, class_id=3)
        boxes = BoxSet((box,))
        rng = np.random.default_rng(40)
        pts = rng.uniform(-4, 8, (300, 3))
        got = boxes.contains(pts)
        c, s = math.cos(yaw), math.sin(yaw)
        for i, (x, y, z) in enumerate(pts):
            dx, dy, dz = x - 2.0, y + 1.0, z - 0.5
            lx = c * dx + s * dy
            ly = -s * dx + c * dy
            inside = abs(lx) <= 2 and abs(ly) <= 1 and abs(dz) <= 0.5
            assert got[i] == inside

    def test_contains_class_filter(self):
        boxes = BoxSet(
            (
                Box(center=(0, 0, 0), lwh=(2, 2, 2), yaw=0.0, class_id=0),
                Box(center=(10, 0, 0), lwh=(2, 2, 2), yaw=0.0, class_id=5),
            )
        )
        pts = np.array([[0, 0, 0], [10, 0, 0]])
        assert boxes.contains(pts, class_ids={0}).tolist() == [True, False]
        assert boxes.contains(pts).tolist() == [True, True]
