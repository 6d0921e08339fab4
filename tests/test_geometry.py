"""Geometry primitives: ranges, RANSAC, beam partitioning, voxelization."""

import math

import numpy as np
import pytest

from lidarcorrupt import (
    BeamPartitionError,
    LabelArray,
    NoPlaneError,
    PointCloud,
    VoxelConfig,
    fit_ground_ransac,
    ground_mask_from_labels,
    load_profile,
    partition_beams,
    point_ranges,
    voxelize_fixed,
    voxelize_flexible,
)
from lidarcorrupt import geometry
from lidarcorrupt.geometry import BeamMethod, GroundSource
from lidarcorrupt.rng import make_rng

from conftest import make_beam_cloud


def cloud_from_xyz(xyz, frame_id="f"):
    xyz = np.asarray(xyz, dtype=np.float32)
    return PointCloud(xyz=xyz, intensity=np.zeros(len(xyz), np.float32), frame_id=frame_id)


class TestRanges:
    def test_origin(self):
        assert point_ranges(np.array([0.0, 0.0, 0.0])) == 0.0

    def test_pythagorean(self):
        assert point_ranges(np.array([3.0, 4.0, 0.0])) == 5.0

    def test_unit_decomposition(self):
        assert point_ranges(np.array([1.0, 2.0, 2.0])) == pytest.approx(3.0)

    def test_batch_nonnegative(self):
        rng = np.random.default_rng(0)
        xyz = rng.normal(size=(100, 3))
        r = point_ranges(xyz)
        assert (r >= 0).all()
        assert np.allclose(r, [math.sqrt(x * x + y * y + z * z) for x, y, z in xyz])


class TestRansac:
    def _ground_fixture(self, seed=0):
        rng = np.random.default_rng(seed)
        ground = np.column_stack(
            [rng.uniform(-20, 20, 100), rng.uniform(-20, 20, 100), np.full(100, -1.7)]
        )
        outliers = np.column_stack(
            [rng.uniform(-20, 20, 10), rng.uniform(-20, 20, 10), np.full(10, 2.0)]
        )
        return cloud_from_xyz(np.vstack([ground, outliers]))

    def test_recovers_plane(self):
        model = fit_ground_ransac(self._ground_fixture(), seed=1)
        a, b, c, d = model.plane
        assert (a, b) == pytest.approx((0.0, 0.0), abs=1e-6)
        assert c == pytest.approx(1.0, abs=1e-6)
        assert d == pytest.approx(1.7, abs=1e-6)  # fixture z is float32-quantized
        # every exactly-on-plane point is an inlier; the 10 elevated are not
        assert model.inlier_mask[:100].all()
        assert not model.inlier_mask[100:].any()
        assert model.source is GroundSource.RANSAC

    def test_unit_normal_upward(self):
        model = fit_ground_ransac(self._ground_fixture(seed=4), seed=9)
        a, b, c, _ = model.plane
        assert a * a + b * b + c * c == pytest.approx(1.0, abs=1e-6)
        assert c >= 0

    def test_three_points_exact(self):
        pc = cloud_from_xyz([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
        model = fit_ground_ransac(pc, seed=0)
        assert model.inlier_mask.all()
        assert model.distances(pc.xyz).max() < 1e-9

    def test_two_points_rejected(self):
        with pytest.raises(NoPlaneError):
            fit_ground_ransac(cloud_from_xyz([[0, 0, 0], [1, 1, 1]]), seed=0)

    def test_collinear_rejected(self):
        pc = cloud_from_xyz([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]])
        with pytest.raises(NoPlaneError):
            fit_ground_ransac(pc, seed=0)

    def test_same_seed_same_plane(self):
        pc = self._ground_fixture(seed=2)
        m1 = fit_ground_ransac(pc, seed=42)
        m2 = fit_ground_ransac(pc, seed=42)
        assert m1.plane == m2.plane
        assert np.array_equal(m1.inlier_mask, m2.inlier_mask)

    def test_inliers_satisfy_threshold(self):
        pc = self._ground_fixture(seed=3)
        model = fit_ground_ransac(pc, inlier_threshold=0.15, seed=5)
        dist = model.distances(pc.xyz)
        assert (dist[model.inlier_mask] <= 0.15).all()
        assert (dist[~model.inlier_mask] > 0.15).all()



def ransac_reference(pts, iterations, threshold, seed):
    """The per-hypothesis scoring loop that blocked scoring must reproduce.

    Returns (normal, offset, count) of the first best-supported triple, or
    None when every triple is degenerate.
    """
    rng = make_rng("ransac", seed)
    best = None
    for _ in range(iterations):
        idx = rng.choice(len(pts), size=3, replace=False)
        p0, p1, p2 = pts[idx]
        normal = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        d = -float(normal @ p0)
        count = int((np.abs(pts @ normal + d) <= threshold).sum())
        if best is None or count > best[2]:
            best = (normal, d, count)
    return best


class TestBlockedRansacScoring:
    """Blocked scoring picks the same hypothesis as scoring one at a time."""

    @staticmethod
    def _scene(n, seed, duplicates=0):
        rng = np.random.default_rng(seed)
        n_ground = n // 2
        ground = np.column_stack([
            rng.uniform(-30, 30, n_ground), rng.uniform(-30, 30, n_ground),
            -1.7 + rng.normal(0, 0.05, n_ground),
        ])
        clutter = rng.uniform(-30, 30, (n - n_ground, 3))
        xyz = np.vstack([ground, clutter])
        # Repeated points make some sampled triples degenerate.
        xyz[:duplicates] = xyz[0]
        return cloud_from_xyz(xyz)

    def _check_winner(self, pc, seed, iterations=200, threshold=0.15):
        """The model equals the one refined from the reference loop's winner."""
        pts = pc.xyz.astype(np.float64)
        normal, d, count = ransac_reference(pts, iterations, threshold, seed)
        counts = geometry._inlier_counts(pts, normal[:, None], np.array([d]), threshold)
        assert int(counts[0]) == count
        model = fit_ground_ransac(
            pc, iterations=iterations, inlier_threshold=threshold, seed=seed
        )
        expected = refine_reference(pts, normal, d, count, threshold)
        assert model.plane == expected[0]
        assert np.array_equal(model.inlier_mask, expected[1])


    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2023])
    def test_winner_matches_reference_loop(self, seed, monkeypatch):
        monkeypatch.setattr(geometry, "_RANSAC_BLOCK", 64)
        pc = self._scene(64 * 9 + 17, seed)  # not a multiple of the block
        self._check_winner(pc, seed)

    @pytest.mark.parametrize("n", [3, 5, 63, 64, 65, 1000])
    def test_point_counts_around_block_size(self, n, monkeypatch):
        monkeypatch.setattr(geometry, "_RANSAC_BLOCK", 64)
        self._check_winner(self._scene(n, seed=n), seed=n)

    def test_degenerate_triples_skipped(self, monkeypatch):
        monkeypatch.setattr(geometry, "_RANSAC_BLOCK", 64)
        pc = self._scene(300, seed=5, duplicates=250)
        pts = pc.xyz.astype(np.float64)
        rng = make_rng("ransac", 11)
        degenerate = 0
        for _ in range(200):
            p0, p1, p2 = pts[rng.choice(len(pts), size=3, replace=False)]
            degenerate += np.linalg.norm(np.cross(p1 - p0, p2 - p0)) < 1e-12
        assert 0 < degenerate < 200
        self._check_winner(pc, seed=11)

    def test_default_block_size(self):
        self._check_winner(self._scene(geometry._RANSAC_BLOCK * 2 + 5, seed=9), seed=9)


def refine_reference(pts, normal, d, count, threshold):
    """The least-squares refinement and orientation applied to a winner."""
    mask = np.abs(pts @ normal + d) <= threshold
    if mask.sum() >= 3:
        centroid = pts[mask].mean(axis=0)
        _, _, vt = np.linalg.svd(pts[mask] - centroid, full_matrices=False)
        refit_normal = vt[-1]
        refit_d = -float(refit_normal @ centroid)
        refit_mask = np.abs(pts @ refit_normal + refit_d) <= threshold
        if refit_mask.sum() >= count:
            normal, d, mask = refit_normal, refit_d, refit_mask
    if normal[2] < 0:
        normal, d = -normal, -d
    return (tuple(float(v) for v in normal) + (float(d),)), mask


class TestGroundMaskFromLabels:
    def test_all_ground(self):
        profile = load_profile("semantickitti")
        labels = LabelArray(np.full(5, 40, np.uint16), np.zeros(5, np.uint16))
        assert ground_mask_from_labels(labels, profile).all()

    def test_no_ground(self):
        profile = load_profile("semantickitti")
        labels = LabelArray(np.full(5, 10, np.uint16), np.zeros(5, np.uint16))
        assert not ground_mask_from_labels(labels, profile).any()

    def test_mixed_matches_membership_oracle(self):
        profile = load_profile("semantickitti")
        rng = np.random.default_rng(7)
        semantic = rng.choice([10, 40, 44, 48, 49, 50, 70], size=200).astype(np.uint16)
        labels = LabelArray(semantic, np.zeros(200, np.uint16))
        mask = ground_mask_from_labels(labels, profile)
        oracle = [int(s) in profile.ground_classes for s in semantic]
        assert mask.tolist() == oracle


class TestPartitionBeams:
    def test_ring_passthrough(self):
        cloud, true_beam = make_beam_cloud(with_ring=True)
        part = partition_beams(cloud, load_profile("semantickitti"))
        assert part.method is BeamMethod.RING_CHANNEL
        assert np.array_equal(part.beam_of, true_beam)

    def test_elevation_recovers_generating_beam(self):
        cloud, true_beam = make_beam_cloud(with_ring=False)
        part = partition_beams(cloud, 64)
        assert part.method is BeamMethod.ELEVATION_QUANTIZATION
        assert np.array_equal(part.beam_of, true_beam)

    def test_single_point_assigned(self):
        pc = cloud_from_xyz([[5.0, 0.0, 1.0]])
        part = partition_beams(pc, 64)
        assert 0 <= part.beam_of[0] < 64

    def test_missing_beam_count(self):
        pc = cloud_from_xyz([[5.0, 0.0, 1.0]])
        with pytest.raises(BeamPartitionError):
            partition_beams(pc, None)

    def test_monotone_in_elevation(self):
        cloud, _ = make_beam_cloud(beams=16, points_per_beam=7, with_ring=False)
        part = partition_beams(cloud, 16)
        xyz = cloud.xyz.astype(np.float64)
        elev = np.arcsin(xyz[:, 2] / np.linalg.norm(xyz, axis=1))
        order = np.argsort(elev)
        assert (np.diff(part.beam_of[order]) <= 0).all()

    def test_every_point_assigned(self):
        cloud, _ = make_beam_cloud(beams=32, points_per_beam=3, with_ring=False)
        part = partition_beams(cloud, 32)
        assert ((part.beam_of >= 0) & (part.beam_of < 32)).all()


class TestVoxelize:
    def test_exact_division(self):
        pc = cloud_from_xyz([[0.5, 0.5, 0.5]])
        cfg = VoxelConfig(l=(0.05, 0.05, 0.05))
        assert voxelize_fixed(pc, cfg).tolist() == [[10, 10, 10]]

    def test_negative_floor(self):
        pc = cloud_from_xyz([[-0.01, 0.0, 0.0]])
        cfg = VoxelConfig(l=(0.05, 0.05, 0.05))
        assert voxelize_fixed(pc, cfg).tolist() == [[-1, 0, 0]]

    def test_matches_scalar_floor_oracle(self):
        rng = np.random.default_rng(21)
        xyz = rng.uniform(-50, 50, (500, 3)).astype(np.float32)
        cfg = VoxelConfig(l=(0.05, 0.1, 0.2))
        coords = voxelize_fixed(cloud_from_xyz(xyz), cfg)
        for i in range(len(xyz)):
            for axis in range(3):
                assert coords[i, axis] == math.floor(
                    float(xyz[i, axis].astype(np.float64)) / cfg.l[axis]
                )

    def test_flexible_gamma_zero_equals_fixed(self):
        rng = np.random.default_rng(22)
        xyz = rng.uniform(-50, 50, (1000, 3)).astype(np.float32)
        pc = cloud_from_xyz(xyz)
        cfg = VoxelConfig(l=(0.05, 0.05, 0.05), gamma=0.0)
        coords, sizes = voxelize_flexible(pc, cfg, seed=3)
        assert np.array_equal(coords, voxelize_fixed(pc, cfg))
        assert sizes.tolist() == [0.05, 0.05, 0.05]

    def test_flexible_sizes_within_interval(self):
        pc = cloud_from_xyz([[1.0, 1.0, 1.0]])
        cfg = VoxelConfig(l=(0.05, 0.05, 0.05), gamma=0.02)
        for seed in range(300):
            _, sizes = voxelize_flexible(pc, cfg, seed=seed)
            assert (sizes >= 0.03).all() and (sizes <= 0.07).all()

    def test_flexible_deterministic(self):
        rng = np.random.default_rng(23)
        pc = cloud_from_xyz(rng.uniform(-10, 10, (100, 3)))
        cfg = VoxelConfig(l=(0.05, 0.05, 0.05), gamma=0.02)
        c1, s1 = voxelize_flexible(pc, cfg, seed=77)
        c2, s2 = voxelize_flexible(pc, cfg, seed=77)
        assert np.array_equal(c1, c2)
        assert np.array_equal(s1, s2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VoxelConfig(l=(0.0, 0.05, 0.05))
        with pytest.raises(ValueError):
            VoxelConfig(l=(0.05, 0.05, 0.05), gamma=0.03)


def plane_from_mask_reference(xyz, mask):
    """The former label-plane fit: (upward normal, d), or None under 3 points."""
    pts = xyz[mask].astype(np.float64)
    if len(pts) < 3:
        return None
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    normal = vt[-1]
    if normal[2] < 0:
        normal = -normal
    return normal, -float(normal @ centroid)


class TestLstsqPlane:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_bitwise(self, dtype, seed):
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(-30, 30, (500, 3)).astype(dtype)
        xyz[:, 2] = (0.02 * xyz[:, 0] - 1.7 + rng.normal(0, 0.05, 500)).astype(dtype)
        mask = rng.random(500) < 0.6
        before = xyz.copy()
        normal, d = geometry.lstsq_plane(xyz, mask)
        ref_normal, ref_d = plane_from_mask_reference(xyz, mask)
        assert np.array_equal(normal, ref_normal) and d == ref_d
        assert normal[2] >= 0
        assert np.array_equal(xyz, before)  # the caller's points are not centred

    def test_normal_points_up_on_tilted_planes(self):
        rng = np.random.default_rng(0)
        svd_downward = 0
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a = np.cross(n, [1.0, 0.0, 0.0])
            a /= np.linalg.norm(a)
            uv = rng.uniform(-5, 5, (50, 2))
            xyz = uv[:, :1] * a + uv[:, 1:] * np.cross(n, a) + 3.0 * n
            svd_downward += np.linalg.svd(xyz - xyz.mean(axis=0))[2][-1][2] < 0
            normal, d = geometry.lstsq_plane(xyz, np.ones(50, bool))
            assert normal[2] >= 0
            assert np.allclose(normal, n if n[2] >= 0 else -n)
            assert np.allclose(xyz @ normal + d, 0)
        assert svd_downward  # the flip is exercised

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_under_three_points_is_none(self, count):
        xyz = np.arange(12, dtype=np.float32).reshape(4, 3)
        mask = np.arange(4) < count
        assert geometry.lstsq_plane(xyz, mask) is None
