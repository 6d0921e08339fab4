"""Container validation, row selection and box geometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcorrupt import Box, BoxSet, CorruptScanError, LabelArray, PointCloud
from lidarcorrupt.corruptions import CorruptedFrame


class TestPointCloud:
    def test_empty_representable(self):
        pc = PointCloud(xyz=np.zeros((0, 3)), intensity=np.zeros(0))
        assert len(pc) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((2, 3)), intensity=np.zeros(3))

    @pytest.mark.parametrize("shape", [(3, 4), (6,), (0,), (4, 2), (2, 3, 1)])
    def test_xyz_of_another_shape_rejected(self, shape):
        # a transposed or flat array is not read row by row as points
        message = re.escape(f"xyz has shape {shape}, expected (N, 3)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            PointCloud(xyz=np.zeros(shape), intensity=np.zeros(shape[-1]))

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


@st.composite
def selections(draw):
    """(frame, index): a frame of 0-12 points, and a mask, integer indices
    (negative ones too) or an empty index into it."""
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(
        xyz=rng.normal(0, 30, (n, 3)), intensity=rng.random(n),
        ring=draw(st.sampled_from([None, rng.integers(0, 64, n)])), frame_id="f",
    )
    labels = LabelArray(rng.integers(0, 2**16, n), rng.integers(0, 2**16, n))
    frame = CorruptedFrame(cloud, labels, provenance=rng.integers(0, 4, n))
    indices = st.lists(st.integers(-n, n - 1), max_size=2 * n) if n else st.just([])
    index = draw(st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda m: np.array(m, bool)),
        indices.map(lambda i: np.array(i, np.int64)),
        st.sampled_from([np.zeros(0, np.int64), np.zeros(n, bool)]),
    ))
    return frame, index


class TestSelect:
    """Gathered selection equals plain NumPy indexing of every array."""

    @settings(max_examples=200, deadline=None)
    @given(selections())
    def test_matches_numpy_indexing(self, case):
        frame, index = case
        cloud, labels = frame.cloud, frame.labels
        for sub in (frame.select(index), CorruptedFrame(
                cloud.select(index), labels.select(index), provenance=frame.provenance[index])):
            assert np.array_equal(sub.cloud.xyz, cloud.xyz[index])
            assert np.array_equal(sub.cloud.intensity, cloud.intensity[index])
            if cloud.ring is None:
                assert sub.cloud.ring is None
            else:
                assert np.array_equal(sub.cloud.ring, cloud.ring[index])
            assert np.array_equal(sub.labels.semantic, labels.semantic[index])
            assert np.array_equal(sub.labels.instance, labels.instance[index])
            assert np.array_equal(sub.provenance, frame.provenance[index])
            assert sub.cloud.frame_id == "f" and sub.boxes is frame.boxes

    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_wrong_length_mask_raises(self, length):
        cloud = PointCloud(xyz=np.zeros((3, 3)), intensity=np.zeros(3))
        labels = LabelArray(np.zeros(3, np.uint16), np.zeros(3, np.uint16))
        mask = np.ones(length, bool)
        for select in (cloud.select, labels.select, CorruptedFrame(cloud, labels).select):
            with pytest.raises(IndexError):
                select(mask)


def contains_reference(boxes, xyz, class_ids=None):
    """`BoxSet.contains` as it tested every point against every box."""
    pts = np.asarray(xyz, dtype=np.float64)
    inside = np.zeros(len(pts), dtype=bool)
    for box in boxes:
        if class_ids is not None and box.class_id not in class_ids:
            continue
        d = pts - np.asarray(box.center)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        local_x = c * d[:, 0] + s * d[:, 1]
        local_y = -s * d[:, 0] + c * d[:, 1]
        l, w, h = box.lwh
        inside |= (
            (np.abs(local_x) <= l / 2)
            & (np.abs(local_y) <= w / 2)
            & (np.abs(d[:, 2]) <= h / 2)
        )
    return inside


@st.composite
def boxes_and_points(draw):
    """Boxes of any yaw, thin to huge, centred near or far from the origin,
    and points on their faces and corners, 1 ulp either side, and around."""
    size = st.one_of(st.floats(1e-3, 50), st.sampled_from([1e-300, 1e-9, 1e9, 1e300]))
    coord = st.one_of(st.floats(-100, 100), st.floats(-1e12, 1e12))
    boxes, pts = [], []
    for _ in range(draw(st.integers(1, 3))):
        l, w, h = draw(st.tuples(size, size, size))
        diagonal = math.atan2(w, l)  # these yaws put a corner on the x or y axis
        yaw = draw(st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(
            [0.0, diagonal, -diagonal, math.pi / 2 - diagonal, math.pi - diagonal])))
        box = Box(draw(st.tuples(coord, coord, coord)), (l, w, h), yaw, draw(st.integers(0, 2)))
        boxes.append(box)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        half = np.array(box.lwh) / 2
        # Each local coordinate is on a face, at the centre or within twice the box.
        local = np.choose(rng.integers(0, 4, (16, 3)),
                          [-half, half, 0 * half, half * rng.uniform(-2, 2, (16, 3))])
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        p = np.column_stack([c * local[:, 0] - s * local[:, 1],
                             s * local[:, 0] + c * local[:, 1], local[:, 2]]) + box.center
        ulps = rng.integers(-1, 2, p.shape)
        pts.append(np.where(ulps == 0, p, np.nextafter(p, np.copysign(np.inf, ulps))))
    return BoxSet(tuple(boxes)), np.concatenate(pts)


class TestContainsReference:
    """Testing only the points near each box gives the mask of testing all."""

    @settings(max_examples=300, deadline=None)
    @given(boxes_and_points(), st.sampled_from([None, {0}, {1, 2}]))
    def test_equals_unfiltered_loop(self, case, class_ids):
        boxes, pts = case
        # Coordinates past float32's range cast to inf: such points are inside no box.
        with np.errstate(over="ignore", invalid="ignore"):
            for xyz in (pts, pts.astype(np.float32)):
                assert np.array_equal(boxes.contains(xyz, class_ids),
                                      contains_reference(boxes, xyz, class_ids))
