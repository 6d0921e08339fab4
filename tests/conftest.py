"""Shared synthetic-scan builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from lidarcorrupt import (
    Box,
    BoxSet,
    LabelArray,
    PointCloud,
    load_profile,
    partition_beams,
    point_ranges,
    write_kitti_boxes,
    write_kitti_scan,
    write_nuscenes_scan,
    write_semkitti_labels,
)
from lidarcorrupt.corruptions import CorruptedFrame

# The semantickitti profile's values by their `--set` keys; the operators'
# dataset constants are read from it as `apply` reads them (every built-in
# profile shares the `defaults` table).
PARAMS = load_profile("semantickitti").params
FOG = {"beta_0": PARAMS["fog_beta_0"], "response_distance": PARAMS["fog_response_distance"],
       "scatter_fraction": tuple(PARAMS["fog_scatter_fraction"])}
WET = {"i_n": PARAMS["wet_noise_floor"], "kappa_per_mm": PARAMS["wet_kappa_per_mm"]}
SNOW = {key: PARAMS[f"snow_{key}"] for key in (
    "particles_per_meter_per_rate", "extinction_per_rate", "reflectivity", "min_particle_range")}
RANSAC = {"iterations": PARAMS["ransac_iterations"],
          "inlier_threshold": PARAMS["ransac_threshold"]}
NUSCENES_BEAMS = load_profile("nuscenes").beam_count

# With `CI` set, Hypothesis loads its `ci` profile, which derandomizes every
# property test, so each CI run would replay one fixed example sequence. This
# keeps the rest of `ci` (print_blob prints how to reproduce a failing example)
# but draws new examples each run, so CI too can find a rare failing input.
if settings.get_current_profile_name() == "ci":
    settings.register_profile("ci-random", settings.get_profile("ci"), derandomize=False)
    settings.load_profile("ci-random")

# Another in-range value for each profile key, by its `--set` name.
PARAM_CHANGES = {
    "fog_beta_0": 20.0, "fog_response_distance": 80.0, "fog_scatter_fraction": [0.2, 0.9],
    "wet_kappa_per_mm": 0.5, "wet_noise_floor": 0.3,
    "snow_particles_per_meter_per_rate": 0.02, "snow_extinction_per_rate": 0.05,
    "snow_reflectivity": 0.9, "snow_min_particle_range": 5.0,
    "crosstalk_sigma": 1.0, "ransac_iterations": 3, "ransac_threshold": 0.5,
    "subsample_keep": 0.25,
    "fog.alpha_axis": [0.1, 0.2], "fog.beta_bs": [0.02, 0.1, 0.4],
    "wet_ground.water_height_mm": [0.5, 2.0, 3.0], "snow.snowfall_rate": [1.0, 2.0, 4.0],
    "motion_blur.sigma_t": [0.1, 0.15, 0.5], "beam_missing.beams_dropped": [8, 24, 40],
    "crosstalk.fraction": [0.02, 0.05, 0.1], "incomplete_echo.fraction": [0.5, 0.6, 0.7],
    "cross_sensor.beams_kept": [40, 24, 8],
}


def draw(kind, n, seed=0):
    """A draw of the form `FrameContext.draw` gives `kind`, for an operator
    called directly: `n` is the point count, or the beam count for
    beam_missing and the vehicle point count for incomplete_echo. Crosstalk
    gets noise rows for every point, so any k_t in [0, 1] can read it."""
    rng = np.random.default_rng(seed)
    if kind == "crosstalk":
        return rng.permutation(n), rng.standard_normal((n, 4))
    return {"fog": rng.random, "snow": rng.standard_exponential,
            "motion_blur": lambda n: rng.standard_normal((n, 3))}.get(kind, rng.permutation)(n)


def partition(cloud, beam_count):
    """`partition_beams` from the cloud's own point ranges."""
    return partition_beams(cloud, beam_count, point_ranges(cloud.xyz))


def make_beam_cloud(
    beams: int = 64,
    points_per_beam: int = 10,
    seed: int = 0,
    with_ring: bool = True,
    frame_id: str = "000000",
):
    """Synthetic multi-beam scan; beam 0 has the highest elevation.

    Returns (cloud, true_beam) where true_beam records the generating beam
    of every point.
    """
    rng = np.random.default_rng(seed)
    elevations = np.deg2rad(np.linspace(3.0, -25.0, beams))
    xyz = []
    true_beam = []
    for beam, elev in enumerate(elevations):
        azimuth = rng.uniform(0.0, 2.0 * np.pi, points_per_beam)
        dist = rng.uniform(5.0, 40.0, points_per_beam)
        jitter = rng.uniform(-1e-4, 1e-4, points_per_beam)
        e = elev + jitter
        xyz.append(
            np.stack(
                [
                    dist * np.cos(e) * np.cos(azimuth),
                    dist * np.cos(e) * np.sin(azimuth),
                    dist * np.sin(e),
                ],
                axis=1,
            )
        )
        true_beam.extend([beam] * points_per_beam)
    xyz = np.concatenate(xyz).astype(np.float32)
    true_beam = np.asarray(true_beam, dtype=np.int64)
    n = len(xyz)
    cloud = PointCloud(
        xyz=xyz,
        intensity=rng.uniform(0.05, 1.0, n).astype(np.float32),
        ring=true_beam.astype(np.int32) if with_ring else None,
        frame_id=frame_id,
    )
    return cloud, true_beam


def make_labeled_frame(
    beams: int = 64,
    points_per_beam: int = 10,
    seed: int = 0,
    semantic: int = 40,
    with_ring: bool = True,
) -> CorruptedFrame:
    cloud, _ = make_beam_cloud(beams, points_per_beam, seed, with_ring)
    labels = LabelArray(
        semantic=np.full(len(cloud), semantic, dtype=np.uint16),
        instance=np.zeros(len(cloud), dtype=np.uint16),
    )
    return CorruptedFrame(cloud, labels)


BOXES = BoxSet((
    Box(center=(8.0, 0.0, -1.0), lwh=(20.0, 16.0, 8.0), yaw=0.3, class_id=0),
    Box(center=(-10.0, 5.0, 0.0), lwh=(6.0, 6.0, 30.0), yaw=-1.0, class_id=3),
))


def write_dataset(root, profile_name, n_frames, points_per_beam=6, boxes=True):
    """On-disk dataset in the layout `corrupt` reads, one builder per profile."""
    (root / "velodyne").mkdir(parents=True)
    for i in range(n_frames):
        stem = f"{i:06d}"
        if profile_name == "nuscenes":
            cloud, _ = make_beam_cloud(32, points_per_beam, seed=50 + i, frame_id=stem)
            cloud = cloud.with_fields(intensity=np.round(cloud.intensity * 255))
            (root / "velodyne" / f"{stem}.bin").write_bytes(write_nuscenes_scan(cloud))
        else:
            cloud, _ = make_beam_cloud(64, points_per_beam, seed=50 + i,
                                       with_ring=False, frame_id=stem)
            (root / "velodyne" / f"{stem}.bin").write_bytes(write_kitti_scan(cloud))
        if profile_name in ("semantickitti", "nuscenes"):
            (root / "labels").mkdir(exist_ok=True)
            rng = np.random.default_rng(70 + i)
            semantic = rng.choice([10, 14, 24, 40, 44, 48, 70],
                                  size=len(cloud)).astype(np.uint16)
            labels = LabelArray(semantic, rng.integers(0, 3, len(cloud)).astype(np.uint16))
            (root / "labels" / f"{stem}.label").write_bytes(write_semkitti_labels(labels))
        if boxes and profile_name in ("kitti", "wod"):
            (root / "boxes").mkdir(exist_ok=True)
            (root / "boxes" / f"{stem}.txt").write_text(write_kitti_boxes(BOXES))
    return root


@pytest.fixture
def beam_cloud_64x10():
    return make_beam_cloud(64, 10, seed=3)


@pytest.fixture
def labeled_frame():
    return make_labeled_frame(seed=5)
