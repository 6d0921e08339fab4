"""Operator-level behavior: formulas, count exactness, identities, alignment."""

import math

import numpy as np
import pytest

from lidarcorrupt import (
    Box,
    BoxSet,
    LabelArray,
    PointCloud,
    load_profile,
)
from lidarcorrupt.corruptions import (
    CorruptedFrame,
    FrameContext,
    Provenance,
    apply,
    apply_beam_missing,
    apply_cross_sensor,
    apply_crosstalk,
    apply_fog,
    apply_incomplete_echo,
    apply_motion_blur,
    apply_snow,
    apply_wet_ground,
)
from lidarcorrupt.geometry import GroundModel
from lidarcorrupt.profiles import CorruptionKind, Severity

from conftest import (
    FOG,
    PARAMS,
    SNOW,
    WET,
    assert_same_bits,
    draw,
    make_beam_cloud,
    make_labeled_frame,
    partition,
)


def simple_frame(n=50, seed=0, semantic=40, with_boxes=False):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(
        xyz=rng.uniform(-30, 30, (n, 3)).astype(np.float32),
        intensity=rng.uniform(0.05, 1.0, n).astype(np.float32),
        frame_id="frame",
    )
    labels = LabelArray(
        np.full(n, semantic, np.uint16), np.arange(n, dtype=np.uint16)
    )
    boxes = None
    if with_boxes:
        boxes = BoxSet((Box(center=(0, 0, 0), lwh=(4, 2, 2), yaw=0.3, class_id=0),))
    return CorruptedFrame(cloud, labels, boxes)


def assert_identity(frame_in, frame_out):
    assert_same_bits(frame_out.cloud, frame_in.cloud)
    assert_same_bits(frame_out.labels, frame_in.labels)
    assert frame_out.boxes is frame_in.boxes or frame_out.boxes == frame_in.boxes


class TestFog:
    def test_zero_parameters_identity(self):
        frame = simple_frame()
        out = apply_fog(frame, alpha=0.0, beta_bs=0.0, draw=draw("fog", 50, 1), **FOG)
        assert_identity(frame, out)
        assert (out.provenance == Provenance.ORIGINAL).all()

    def test_hard_response_scalar(self):
        # one point at range 10 with unit intensity: exp(-2 * 0.06 * 10)
        cloud = PointCloud(
            xyz=np.array([[10.0, 0.0, 0.0]], np.float32),
            intensity=np.array([1.0], np.float32),
        )
        out = apply_fog(CorruptedFrame(cloud), alpha=0.06, beta_bs=0.0, draw=draw("fog", 1),
                        **FOG)
        assert out.cloud.intensity[0] == pytest.approx(math.exp(-1.2), rel=1e-6)

    def test_attenuation_formula_exact(self):
        frame = simple_frame(n=500, seed=2)
        alpha = 0.02
        out = apply_fog(frame, alpha=alpha, beta_bs=0.0, draw=draw("fog", 500, 3), **FOG)
        r = np.linalg.norm(frame.cloud.xyz.astype(np.float64), axis=1)
        expected = (
            frame.cloud.intensity.astype(np.float64) * np.exp(-2 * alpha * r)
        ).astype(np.float32)
        assert np.array_equal(out.cloud.intensity, expected)
        assert np.array_equal(out.cloud.xyz, frame.cloud.xyz)

    def test_scattered_point_moves_toward_sensor(self):
        cloud = PointCloud(
            xyz=np.array([[10.0, 5.0, -1.0]], np.float32),
            intensity=np.array([0.8], np.float32),
        )
        frame = CorruptedFrame(
            cloud, LabelArray(np.array([40], np.uint16), np.array([0], np.uint16))
        )
        # at 11.2 m the linear soft response (~1.55) outshines the hard one (~0.21)
        out = apply_fog(frame, alpha=0.06, beta_bs=1.0, draw=draw("fog", 1, 5), fog_class=21,
                        **FOG)
        assert out.provenance[0] == Provenance.INJECTED_FOG
        assert out.labels.semantic[0] == 21
        ratio = np.linalg.norm(out.cloud.xyz[0]) / np.linalg.norm(cloud.xyz[0])
        assert 0.05 <= ratio <= 0.5
        # still on the same ray
        cos = np.dot(out.cloud.xyz[0], cloud.xyz[0]) / (
            np.linalg.norm(out.cloud.xyz[0]) * np.linalg.norm(cloud.xyz[0])
        )
        assert cos == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= out.cloud.intensity[0] <= 1.0

    def test_unnormalized_intensity_rejected(self):
        cloud = PointCloud(
            xyz=np.zeros((1, 3), np.float32), intensity=np.array([3.0], np.float32)
        )
        with pytest.raises(ValueError, match="normalized"):
            apply_fog(CorruptedFrame(cloud), alpha=0.0, beta_bs=0.0, draw=draw("fog", 1),
                      **FOG)

    def test_alpha_monotonicity(self):
        frame = simple_frame(n=300, seed=4)
        low = apply_fog(frame, alpha=0.01, beta_bs=0.0, draw=draw("fog", 300), **FOG)
        high = apply_fog(frame, alpha=0.03, beta_bs=0.0, draw=draw("fog", 300), **FOG)
        assert (high.cloud.intensity <= low.cloud.intensity).all()
        positive = frame.cloud.intensity > 0
        assert (high.cloud.intensity[positive] < low.cloud.intensity[positive]).all()

    def test_deterministic(self):
        frame = simple_frame(n=200, seed=6)
        a = apply_fog(frame, alpha=0.03, beta_bs=0.2, draw=draw("fog", 200, 9), **FOG)
        b = apply_fog(frame, alpha=0.03, beta_bs=0.2, draw=draw("fog", 200, 9), **FOG)
        assert_same_bits(a.cloud, b.cloud)


def wet(frame, ground, **params):
    """Wet ground at the incidence angles `FrameContext.incidence` gives."""
    incidence = ground.cos_incidence(frame.cloud.xyz, frame.ranges)
    return apply_wet_ground(frame, ground, incidence, **{**WET, **params})


class TestWetGround:
    def _flat_frame(self, n=200, z=-2.0, seed=0, intensity=None):
        rng = np.random.default_rng(seed)
        xyz = np.column_stack(
            [rng.uniform(2, 40, n), rng.uniform(-20, 20, n), np.full(n, z)]
        ).astype(np.float32)
        if intensity is None:
            intensity = rng.uniform(0.2, 1.0, n).astype(np.float32)
        cloud = PointCloud(xyz=xyz, intensity=intensity, frame_id="wet")
        labels = LabelArray(np.full(n, 40, np.uint16), np.zeros(n, np.uint16))
        return CorruptedFrame(cloud, labels)

    @staticmethod
    def _ground(frame, mask):
        return GroundModel.from_mask(frame.cloud.xyz, mask)

    def test_dry_ground_identity(self):
        frame = self._flat_frame()
        out = wet(frame, self._ground(frame, np.ones(200, bool)), d_w=0.0)
        assert_identity(frame, out)

    def test_no_ground_identity(self):
        frame = self._flat_frame()
        out = wet(frame, self._ground(frame, np.zeros(200, bool)), d_w=1.2)
        assert_identity(frame, out)

    def test_attenuation_oracle_on_known_plane(self):
        frame = self._flat_frame(n=100, z=-2.0, seed=1)
        mask = np.ones(100, bool)
        model = GroundModel(plane=(0.0, 0.0, 1.0, 2.0), inlier_mask=mask)
        d_w, kappa, i_n = 1.0, 0.1, 0.02
        out = wet(frame, model, d_w=d_w, i_n=i_n, kappa_per_mm=kappa)

        xyz = frame.cloud.xyz.astype(np.float64)
        r = np.linalg.norm(xyz, axis=1)
        cos_inc = np.abs(xyz[:, 2]) / r
        expected = frame.cloud.intensity.astype(np.float64) * np.exp(
            -kappa * d_w / cos_inc
        )
        survivors = expected >= i_n
        assert len(out.cloud) == int(survivors.sum())
        assert np.array_equal(
            out.cloud.intensity, expected[survivors].astype(np.float32)
        )
        assert np.array_equal(out.cloud.xyz, frame.cloud.xyz[survivors])
        assert len(out.labels) == len(out.cloud)

    def test_nonground_points_bitwise_unchanged(self):
        frame = self._flat_frame(n=80, seed=2)
        mask = np.zeros(80, bool)
        mask[:40] = True
        out = wet(frame, self._ground(frame, mask), d_w=1.2)
        # last 40 points are non-ground: values preserved exactly
        kept_tail = out.cloud.xyz[len(out.cloud) - 40 :]
        assert np.array_equal(kept_tail, frame.cloud.xyz[40:])
        assert np.array_equal(
            out.cloud.intensity[len(out.cloud) - 40 :], frame.cloud.intensity[40:]
        )

    def test_mask_length_mismatch(self):
        frame = self._flat_frame()
        ground = GroundModel.from_mask(frame.cloud.xyz[:3], np.ones(3, bool))
        with pytest.raises(ValueError, match="mask"):
            apply_wet_ground(frame, ground, np.ones(200), d_w=1.0, **WET)

    def test_deeper_water_deletes_more(self):
        frame = self._flat_frame(n=400, seed=3)
        ground = self._ground(frame, np.ones(400, bool))
        light = wet(frame, ground, d_w=0.2)
        heavy = wet(frame, ground, d_w=1.2)
        assert len(heavy.cloud) <= len(light.cloud) <= 400
        assert len(heavy.cloud) < 400  # heavy rain visibly deletes returns


class TestSnow:
    def test_zero_rate_identity(self):
        frame = simple_frame(seed=7)
        assert_identity(frame, apply_snow(frame, r_s=0.0, draw=draw("snow", 50), **SNOW))

    def test_forced_particle_field_oracle(self):
        cloud, _ = make_beam_cloud(beams=4, points_per_beam=5, seed=8)
        labels = LabelArray(
            np.full(len(cloud), 40, np.uint16), np.zeros(len(cloud), np.uint16)
        )
        frame = CorruptedFrame(cloud, labels)
        r = np.linalg.norm(cloud.xyz.astype(np.float64), axis=1)
        r_s = 2.5
        k = SNOW["extinction_per_rate"] * r_s
        # Exactly one ray meets a particle, at half its range: the exponential
        # draw that puts it there, and none (an infinite one) on the others.
        exponentials = np.full(len(cloud), np.inf)
        exponentials[7] = (r[7] / 2 - SNOW["min_particle_range"]) * (
            SNOW["particles_per_meter_per_rate"] * r_s)
        out = apply_snow(frame, r_s=r_s, draw=exponentials, snow_class=22, **SNOW)

        assert np.linalg.norm(out.cloud.xyz[7].astype(np.float64)) == pytest.approx(
            r[7] / 2, rel=1e-5
        )
        assert out.labels.semantic[7] == 22
        assert out.provenance[7] == Provenance.INJECTED_SNOW
        others = np.arange(len(cloud)) != 7
        expected = (
            cloud.intensity.astype(np.float64) * np.exp(-2 * k * r)
        ).astype(np.float32)
        assert np.array_equal(out.cloud.intensity[others], expected[others])
        assert np.array_equal(out.cloud.xyz[others], cloud.xyz[others])
        assert (out.labels.semantic[others] == 40).all()

    def test_subnormal_rate_places_no_particle(self):
        # E / rate overflows to inf at a rate this small: no particle on any
        # ray, as at a rate of 0, and no overflow warning.
        frame = simple_frame(n=50, seed=7)
        out = apply_snow(frame, r_s=5e-307, draw=np.full(50, 0.7), snow_class=22, **SNOW)
        assert (out.provenance == Provenance.ORIGINAL).all()
        assert np.array_equal(out.cloud.xyz, frame.cloud.xyz)

    def test_sampled_snow_deterministic(self):
        frame = simple_frame(n=400, seed=9)
        a = apply_snow(frame, r_s=2.5, draw=draw("snow", 400, 11), snow_class=22, **SNOW)
        b = apply_snow(frame, r_s=2.5, draw=draw("snow", 400, 11), snow_class=22, **SNOW)
        assert_same_bits(a.cloud, b.cloud)
        assert np.array_equal(a.provenance, b.provenance)

    def test_rate_monotone_in_hits(self):
        frame = simple_frame(n=2000, seed=10)
        light = apply_snow(frame, r_s=0.5, draw=draw("snow", 2000, 3), snow_class=22, **SNOW)
        heavy = apply_snow(frame, r_s=2.5, draw=draw("snow", 2000, 3), snow_class=22, **SNOW)
        n_light = (light.provenance == Provenance.INJECTED_SNOW).sum()
        n_heavy = (heavy.provenance == Provenance.INJECTED_SNOW).sum()
        assert n_heavy > n_light > 0


class TestMotionBlur:
    def test_zero_sigma_identity(self):
        frame = simple_frame(seed=12)
        assert_identity(frame, apply_motion_blur(frame, sigma_t=0.0, draw=draw("motion_blur", 50)))

    def test_preserves_count_intensity_labels(self):
        frame = simple_frame(n=300, seed=13)
        out = apply_motion_blur(frame, sigma_t=0.25, draw=draw("motion_blur", 300, 1))
        assert len(out.cloud) == 300
        assert np.array_equal(out.cloud.intensity, frame.cloud.intensity)
        assert_same_bits(out.labels, frame.labels)
        assert not np.array_equal(out.cloud.xyz, frame.cloud.xyz)

    def test_offset_statistics(self):
        n = 20000
        cloud = PointCloud(
            xyz=np.zeros((n, 3), np.float32), intensity=np.zeros(n, np.float32)
        )
        out = apply_motion_blur(CorruptedFrame(cloud), sigma_t=0.25,
                                draw=draw("motion_blur", n, 2))
        offsets = out.cloud.xyz.astype(np.float64)
        assert abs(offsets.std() - 0.25) < 0.005
        assert abs(offsets.mean()) < 0.005


class TestBeamMissing:
    def test_zero_identity(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        frame = CorruptedFrame(cloud)
        part = partition(cloud, 64)
        assert_identity(frame, apply_beam_missing(frame, part, m=0, draw=draw("beam_missing", 64)))

    def test_all_beams_empty_cloud(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        part = partition(cloud, 64)
        out = apply_beam_missing(CorruptedFrame(cloud), part, m=64,
                                 draw=draw("beam_missing", 64))
        assert len(out.cloud) == 0

    def test_count_oracle(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        part = partition(cloud, 64)
        out = apply_beam_missing(CorruptedFrame(cloud), part, m=16,
                                 draw=draw("beam_missing", 64, 5))
        assert len(out.cloud) == 480
        out_part = partition(out.cloud, 64)
        assert len(set(out_part.beam_of.tolist())) == 48

    def test_survivors_bitwise_equal_and_ordered(self, beam_cloud_64x10):
        cloud, true_beam = beam_cloud_64x10
        labels = LabelArray(
            np.arange(len(cloud)).astype(np.uint16) % 50,
            np.zeros(len(cloud), np.uint16),
        )
        frame = CorruptedFrame(cloud, labels)
        part = partition(cloud, 64)
        out = apply_beam_missing(frame, part, m=32, draw=draw("beam_missing", 64, 6))
        # reconstruct the surviving index set from instance... use xyz match
        survivor_rows = {tuple(row) for row in out.cloud.xyz.tolist()}
        idx = [i for i, row in enumerate(cloud.xyz.tolist()) if tuple(row) in survivor_rows]
        assert len(idx) == len(out.cloud)
        assert np.array_equal(out.cloud.xyz, cloud.xyz[idx])
        assert np.array_equal(out.cloud.intensity, cloud.intensity[idx])
        assert np.array_equal(out.labels.semantic, labels.semantic[idx])

    def test_m_out_of_range(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        part = partition(cloud, 64)
        with pytest.raises(ValueError):
            apply_beam_missing(CorruptedFrame(cloud), part, m=65,
                               draw=draw("beam_missing", 64))

    @pytest.mark.parametrize("bad", [-1, 64, 3], ids=["below", "past", "repeated"])
    def test_draw_not_a_permutation(self, beam_cloud_64x10, bad):
        cloud, _ = beam_cloud_64x10
        beams = draw("beam_missing", 64)
        beams[beams == 5] = bad
        with pytest.raises(ValueError, match="^draw is not a permutation of the 64 beam ids$"):
            apply_beam_missing(CorruptedFrame(cloud), partition(cloud, 64), m=0, draw=beams)


class TestCrosstalk:
    def test_zero_identity(self):
        frame = simple_frame(seed=14)
        out = apply_crosstalk(frame, k_t=0.0, sigma_c=3.0, draw=draw("crosstalk", 50))
        assert_identity(frame, out)

    def test_exact_selection_count(self):
        frame = simple_frame(n=1000, seed=15)
        out = apply_crosstalk(frame, k_t=0.01, sigma_c=3.0, draw=draw("crosstalk", 1000, 1),
                              crosstalk_class=23)
        jittered = out.provenance == Provenance.JITTERED_CROSSTALK
        assert jittered.sum() == 10
        assert (out.labels.semantic[jittered] == 23).all()
        assert (out.labels.semantic[~jittered] == 40).all()
        # untouched points are bitwise identical
        assert np.array_equal(out.cloud.xyz[~jittered], frame.cloud.xyz[~jittered])
        assert np.array_equal(
            out.cloud.intensity[~jittered], frame.cloud.intensity[~jittered]
        )
        assert len(out.cloud) == 1000

    def test_intensity_clamped(self):
        frame = simple_frame(n=500, seed=16)
        out = apply_crosstalk(frame, k_t=0.5, sigma_c=5.0, draw=draw("crosstalk", 500, 2))
        assert (out.cloud.intensity >= 0).all() and (out.cloud.intensity <= 1).all()

    def test_invalid_fraction(self):
        frame = simple_frame()
        with pytest.raises(ValueError):
            apply_crosstalk(frame, k_t=1.5, sigma_c=3.0, draw=draw("crosstalk", 50))


class TestIncompleteEcho:
    def _vehicle_frame(self, n=1000, n_vehicle=100, seed=17):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(
            xyz=rng.uniform(-30, 30, (n, 3)).astype(np.float32),
            intensity=rng.uniform(0, 1, n).astype(np.float32),
            frame_id="echo",
        )
        semantic = np.full(n, 40, np.uint16)
        semantic[:n_vehicle] = 10  # car
        labels = LabelArray(semantic, np.zeros(n, np.uint16))
        boxes = BoxSet((Box(center=(0, 0, 0), lwh=(4, 2, 2), yaw=0.0, class_id=0),))
        return CorruptedFrame(cloud, labels, boxes)

    def test_zero_fraction_identity(self):
        frame = self._vehicle_frame()
        out = apply_incomplete_echo(frame, frame.labels.semantic == 10, k_e=0.0,
                                    draw=draw("incomplete_echo", 100))
        assert_identity(frame, out)

    def test_no_vehicles_identity(self):
        frame = simple_frame(semantic=40)
        out = apply_incomplete_echo(frame, frame.labels.semantic == 10, k_e=0.75,
                                    draw=draw("incomplete_echo", 0))
        assert_identity(frame, out)

    def test_count_and_membership_oracle(self):
        frame = self._vehicle_frame()
        out = apply_incomplete_echo(frame, frame.labels.semantic == 10, k_e=0.75,
                                    draw=draw("incomplete_echo", 100, 3))
        assert len(out.cloud) == 925
        # every deleted point was vehicle-labeled: survivors include all 900 others
        assert (out.labels.semantic == 40).sum() == 900
        assert (out.labels.semantic == 10).sum() == 25
        assert out.boxes is frame.boxes

    def test_box_based_vehicle_query(self):
        rng = np.random.default_rng(18)
        inside = rng.uniform(-0.9, 0.9, (40, 3)).astype(np.float32)
        outside = (rng.uniform(10, 20, (60, 3))).astype(np.float32)
        cloud = PointCloud(
            xyz=np.vstack([inside, outside]),
            intensity=np.zeros(100, np.float32),
            frame_id="box-echo",
        )
        boxes = BoxSet((Box(center=(0, 0, 0), lwh=(2, 2, 2), yaw=0.0, class_id=0),))
        frame = CorruptedFrame(cloud, labels=None, boxes=boxes)
        mask = FrameContext(frame, load_profile("kitti"), seed=0).vehicle_mask
        assert mask.tolist() == [True] * 40 + [False] * 60
        out = apply_incomplete_echo(frame, mask, k_e=0.75, draw=draw("incomplete_echo", 40, 4))
        assert len(out.cloud) == 100 - 30  # round(0.75 * 40) of the inside points
        # all surviving far points untouched
        survivors = {tuple(r) for r in out.cloud.xyz.tolist()}
        assert all(tuple(r) in survivors for r in outside.tolist())

    @pytest.mark.parametrize("profile_name,pedestrian", [
        ("kitti", False), ("semantickitti", True), ("nuscenes", True), ("wod", True)])
    def test_box_classes_filter_vehicle_query(self, profile_name, pedestrian):
        # kitti counts Car/Van/Truck/Cyclist boxes as vehicles, not Pedestrian.
        # An empty vehicle_box_classes filters no box, so the other profiles
        # count the Pedestrian's point too (an empty vehicle_classes marks none).
        cloud = PointCloud(xyz=np.array([[0, 0, 0], [10, 0, 0]], np.float32),
                           intensity=np.zeros(2, np.float32))
        boxes = BoxSet((Box(center=(0, 0, 0), lwh=(2, 2, 2), yaw=0.0, class_id=0),
                        Box(center=(10, 0, 0), lwh=(2, 2, 2), yaw=0.0, class_id=3)))
        frame = CorruptedFrame(cloud, boxes=boxes)
        mask = FrameContext(frame, load_profile(profile_name), seed=0).vehicle_mask
        assert mask.tolist() == [True, pedestrian]

    def test_labels_take_precedence_over_boxes(self):
        frame = self._vehicle_frame()
        mask = FrameContext(frame, load_profile("semantickitti"), seed=0).vehicle_mask
        assert np.array_equal(mask, frame.labels.semantic == 10)

    def test_requires_labels_or_boxes(self):
        cloud = PointCloud(
            xyz=np.zeros((5, 3), np.float32), intensity=np.zeros(5, np.float32)
        )
        ctx = FrameContext(CorruptedFrame(cloud), load_profile("semantickitti"), 0)
        with pytest.raises(ValueError, match="labels or boxes"):
            ctx.vehicle_mask

    def test_misaligned_mask_rejected(self):
        frame = self._vehicle_frame()
        with pytest.raises(ValueError, match="vehicle mask length 999 != point count 1000"):
            apply_incomplete_echo(frame, np.ones(999, bool), k_e=0.5,
                                  draw=draw("incomplete_echo", 999))


class TestCrossSensor:
    def test_full_retention_identity(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        frame = CorruptedFrame(cloud)
        part = partition(cloud, 64)
        out = apply_cross_sensor(frame, part, beams_kept=64, subsample_keep=1.0)
        assert_identity(frame, out)

    def test_equal_interval_positions(self):
        # one beam with 4 points: positions 0 and 2 survive
        xyz = np.array([[1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]], np.float32)
        cloud = PointCloud(
            xyz=xyz,
            intensity=np.arange(4, dtype=np.float32) / 4,
            ring=np.zeros(4, np.int32),
        )
        part = partition(cloud, 1)
        out = apply_cross_sensor(
            CorruptedFrame(cloud), part, beams_kept=1, subsample_keep=0.5
        )
        assert out.cloud.xyz[:, 0].tolist() == [1.0, 3.0]

    def test_count_oracle(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        part = partition(cloud, 64)
        out = apply_cross_sensor(
            CorruptedFrame(cloud), part, beams_kept=16, subsample_keep=0.5
        )
        assert len(out.cloud) == 80

    def test_per_beam_ceil_half(self):
        # beams of sizes 1..5: survivors per beam = ceil(size / 2)
        rows = []
        ring = []
        for beam, size in enumerate([1, 2, 3, 4, 5]):
            for j in range(size):
                rows.append([beam + 1.0, j + 1.0, 0.0])
                ring.append(beam)
        cloud = PointCloud(
            xyz=np.array(rows, np.float32),
            intensity=np.zeros(len(rows), np.float32),
            ring=np.array(ring, np.int32),
        )
        part = partition(cloud, 5)
        out = apply_cross_sensor(
            CorruptedFrame(cloud), part, beams_kept=5, subsample_keep=0.5
        )
        out_ring = out.cloud.ring.tolist()
        for beam, size in enumerate([1, 2, 3, 4, 5]):
            assert out_ring.count(beam) == math.ceil(size / 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("subsample_keep", [1.0, 0.5, 0.3])
    def test_matches_per_beam_loop(self, seed, subsample_keep):
        # Unsorted, uneven beams, empty beams and ring ids past beam_count.
        rng = np.random.default_rng(seed)
        n = 500
        ring = rng.integers(0, 40, n).astype(np.int32)
        ring[ring == 7] = 8
        cloud = PointCloud(
            xyz=rng.uniform(-20, 20, (n, 3)).astype(np.float32),
            intensity=rng.uniform(0, 1, n).astype(np.float32),
            ring=ring,
        )
        part = partition(cloud, 32)
        stride = max(1, int(round(1.0 / subsample_keep)))
        for beams_kept in (1, 5, 16, 32):
            kept_beams = np.floor(np.arange(beams_kept) * 32 / beams_kept).astype(int)
            keep = np.zeros(n, dtype=bool)
            for beam in kept_beams:
                keep[np.flatnonzero(part.beam_of == beam)[::stride]] = True
            out = apply_cross_sensor(
                CorruptedFrame(cloud), part, beams_kept, subsample_keep
            )
            assert_same_bits(out.cloud, cloud.select(keep))

    def test_beams_out_of_range(self, beam_cloud_64x10):
        cloud, _ = beam_cloud_64x10
        part = partition(cloud, 64)
        with pytest.raises(ValueError):
            apply_cross_sensor(CorruptedFrame(cloud), part, beams_kept=65,
                               subsample_keep=PARAMS["subsample_keep"])


class TestDispatcher:
    def test_deterministic_bytes(self):
        from lidarcorrupt import write_kitti_scan

        frame = make_labeled_frame(seed=20)
        profile = load_profile("semantickitti")
        a = apply(CorruptionKind.MOTION_BLUR, FrameContext(frame, profile, 7), Severity.LIGHT)
        b = apply(CorruptionKind.MOTION_BLUR, FrameContext(frame, profile, 7), Severity.LIGHT)
        assert write_kitti_scan(a.cloud) == write_kitti_scan(b.cloud)

    def test_beam_missing_heavy_drops_48(self):
        frame = make_labeled_frame(seed=21)
        profile = load_profile("semantickitti")
        out = apply(CorruptionKind.BEAM_MISSING, FrameContext(frame, profile, 1), Severity.HEAVY)
        assert len(out.cloud) == 160  # 16 of 64 beams remain, 10 points each

    @pytest.mark.parametrize("kind", list(CorruptionKind))
    @pytest.mark.parametrize("severity", list(Severity))
    def test_smoke_matrix_on_tiny_fixture(self, kind, severity):
        rng = np.random.default_rng(22)
        cloud = PointCloud(
            xyz=rng.uniform(-10, 10, (5, 3)).astype(np.float32),
            intensity=rng.uniform(0, 1, 5).astype(np.float32),
            frame_id="tiny",
        )
        labels = LabelArray(
            np.array([10, 40, 40, 48, 70], np.uint16), np.zeros(5, np.uint16)
        )
        frame = CorruptedFrame(cloud, labels)
        out = apply(kind, FrameContext(frame, load_profile("semantickitti"), 3), severity)
        assert out.labels is not None
        assert len(out.labels) == len(out.cloud)
        assert len(out.provenance) == len(out.cloud)

    def test_boxes_never_altered(self):
        frame = simple_frame(n=64, seed=23, with_boxes=True)
        profile = load_profile("semantickitti")
        for kind in CorruptionKind:
            out = apply(kind, FrameContext(frame, profile, 5), Severity.HEAVY)
            assert out.boxes is frame.boxes

    @pytest.mark.parametrize(
        "kind,tag",
        [
            (CorruptionKind.FOG, Provenance.INJECTED_FOG),
            (CorruptionKind.SNOW, Provenance.INJECTED_SNOW),
            (CorruptionKind.CROSSTALK, Provenance.JITTERED_CROSSTALK),
        ],
    )
    def test_injected_class_hygiene(self, kind, tag):
        # a point carries an injected class id iff it carries the matching tag
        frame = make_labeled_frame(seed=24)
        profile = load_profile("semantickitti")
        out = apply(kind, FrameContext(frame, profile, 2), Severity.HEAVY)
        injected_id = {
            CorruptionKind.FOG: profile.fog_class,
            CorruptionKind.SNOW: profile.snow_class,
            CorruptionKind.CROSSTALK: profile.crosstalk_class,
        }[kind]
        labeled = out.labels.semantic == injected_id
        tagged = out.provenance == tag
        assert np.array_equal(labeled, tagged)
        assert tagged.any()  # heavy severity injects on this fixture


class TestWithFields:
    def test_tags_and_relabels_changed_points_only(self):
        frame = simple_frame(n=5, with_boxes=True)
        changed = np.array([True, False, True, False, False])
        xyz = frame.cloud.xyz + np.float32(1)
        out = frame.with_fields(xyz, changed=changed, tag=Provenance.INJECTED_SNOW,
                                class_id=21)
        assert np.array_equal(out.cloud.xyz, xyz)
        assert np.array_equal(out.cloud.intensity, frame.cloud.intensity)
        assert out.provenance.tolist() == [2, 0, 2, 0, 0]
        assert out.labels.semantic.tolist() == [21, 40, 21, 40, 40]
        assert np.array_equal(out.labels.instance, frame.labels.instance)
        assert out.boxes is frame.boxes
        # the input frame is untouched
        assert (frame.provenance == 0).all() and (frame.labels.semantic == 40).all()

    def test_empty_changed_keeps_labels_and_provenance(self):
        frame = simple_frame(n=5)
        intensity = np.zeros(5, np.float32)
        out = frame.with_fields(intensity=intensity, changed=np.zeros(5, bool),
                                tag=Provenance.INJECTED_FOG, class_id=20)
        assert np.array_equal(out.cloud.intensity, intensity)
        assert np.shares_memory(out.cloud.xyz, frame.cloud.xyz)  # not copied
        assert out.labels is frame.labels and out.provenance is frame.provenance

    def test_no_labels(self):
        frame = CorruptedFrame(simple_frame(n=3).cloud)
        out = frame.with_fields(changed=np.array([False, True, False]),
                                tag=Provenance.JITTERED_CROSSTALK, class_id=22)
        assert out.labels is None
        assert out.provenance.tolist() == [0, 3, 0]
        assert_same_bits(out.cloud, frame.cloud)

    def test_no_class_id_tags_without_relabelling(self):
        frame = simple_frame(n=3)
        out = frame.with_fields(changed=np.array([True, True, False]),
                                tag=Provenance.INJECTED_FOG)
        assert out.labels is frame.labels
        assert out.provenance.tolist() == [1, 1, 0]


def _nan_or_negative_cases():
    """(operator call on a 50-point frame, parameter name it must name)."""
    nan = float("nan")
    ground = GroundModel(plane=None, inlier_mask=np.ones(50, dtype=bool))
    cases = []
    for bad in (nan, -1.0, math.inf):
        cases += [
            (lambda f, v=bad: apply_fog(f, v, 0.008, draw("fog", 50), **FOG), "alpha"),
            (lambda f, v=bad: apply_fog(f, 0.01, v, draw("fog", 50), **FOG), "beta_bs"),
            (lambda f, v=bad: apply_snow(f, v, draw("snow", 50), **SNOW), "r_s"),
            (lambda f, v=bad: apply_motion_blur(f, v, draw("motion_blur", 50)), "sigma_t"),
            (lambda f, v=bad: apply_crosstalk(f, 0.5, v, draw("crosstalk", 50)), "sigma_c"),
            (lambda f, v=bad: wet(f, ground, d_w=v), "d_w"),
            (lambda f, v=bad: apply_incomplete_echo(f, np.ones(50, bool), v,
                                                    draw("incomplete_echo", 50)), "k_e"),
        ]
    return cases


class TestBadStrengths:
    """A NaN, negative or infinite strength raises a ValueError that names
    its parameter."""

    @pytest.mark.parametrize("call, name", _nan_or_negative_cases())
    def test_rejected_by_name(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(simple_frame())


class TestDrawLength:
    """A draw of another shape than its operator reads is rejected."""

    @pytest.mark.parametrize("call", [
        lambda f: apply_fog(f, 0.06, 1.0, draw("fog", 49), **FOG),
        lambda f: apply_snow(f, 2.5, draw("snow", 51), **SNOW),
        lambda f: apply_motion_blur(f, 0.25, draw("motion_blur", 49)),
        lambda f: apply_beam_missing(f, partition(f.cloud, 4), 2, draw("beam_missing", 3)),
        lambda f: apply_crosstalk(f, 0.5, 3.0, draw("crosstalk", 51)),
        lambda f: apply_incomplete_echo(f, np.arange(50) < 10, 0.5, draw("incomplete_echo", 9)),
        lambda f: apply_wet_ground(f, GroundModel(None, np.ones(50, bool)), np.ones(5), 1.0,
                                   **WET),
        # the whole shape: one column would move every point alike on x, y and z
        lambda f: apply_motion_blur(f, 0.25, draw("fog", 50)[:, None]),
        # crosstalk's noise: 4 columns, a row for each of the round(k_t * N) points
        lambda f: apply_crosstalk(f, 0.5, 3.0, (draw("crosstalk", 50)[0],
                                                draw("crosstalk", 24)[1])),
        lambda f: apply_crosstalk(f, 0.5, 3.0, (draw("crosstalk", 50)[0],
                                                draw("crosstalk", 50)[1][:, :3])),
        # at zero strength too, where nothing is dropped or jittered
        lambda f: apply_beam_missing(f, partition(f.cloud, 4), 0, draw("beam_missing", 3)),
        lambda f: apply_crosstalk(f, 0.0, 3.0, draw("crosstalk", 51)),
        lambda f: apply_incomplete_echo(f, np.arange(50) < 10, 0.0, draw("incomplete_echo", 9)),
    ])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="^draw has shape .*, expected "):
            call(simple_frame(n=50))

