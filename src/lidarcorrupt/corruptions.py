"""The eight corruption operators and their severity-resolving dispatcher.

Every operator is a pure function: given the same frame, parameters, and
seed it returns a bitwise-identical result, independent of thread count or
call order. Operators never mutate their input frame, keep labels aligned
with the cloud through drops and injections, and never touch box
annotations. Points that an operator invents or relocates are tagged in the
output's provenance array and, when the dataset profile defines one,
relabeled with the matching injected class id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (
    BeamPartition,
    GroundModel,
    fit_ground_ransac,
    ground_mask_from_labels,
    partition_beams,
    point_ranges,
)
from .profiles import CorruptionKind, DatasetProfile, Severity
from .rng import derive_seed, make_rng
from .types import INTENSITY_TOLERANCE, BoxSet, LabelArray, PointCloud, row_indices

__all__ = [
    "Provenance",
    "CorruptionSpec",
    "CorruptedFrame",
    "apply_fog",
    "apply_wet_ground",
    "apply_snow",
    "apply_motion_blur",
    "apply_beam_missing",
    "apply_crosstalk",
    "apply_incomplete_echo",
    "apply_cross_sensor",
    "FrameContext",
    "apply",
]


class Provenance(enum.IntEnum):
    """Per-point origin tag carried through every operator."""

    ORIGINAL = 0
    INJECTED_FOG = 1
    INJECTED_SNOW = 2
    JITTERED_CROSSTALK = 3


@dataclass(frozen=True)
class CorruptionSpec:
    """Reproducibility key for one corrupted frame."""

    kind: CorruptionKind
    severity: Severity
    seed: int


@dataclass(frozen=True)
class CorruptedFrame:
    """A cloud with aligned labels/boxes and per-point provenance tags."""

    cloud: PointCloud
    labels: Optional[LabelArray] = None
    boxes: Optional[BoxSet] = None
    provenance: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != len(self.cloud):
            raise ValueError(
                f"{len(self.labels)} labels for {len(self.cloud)} points"
            )
        prov = self.provenance
        if prov is None:
            prov = np.zeros(len(self.cloud), dtype=np.uint8)
        else:
            prov = np.ascontiguousarray(prov, dtype=np.uint8)
            if len(prov) != len(self.cloud):
                raise ValueError(
                    f"{len(prov)} provenance tags for {len(self.cloud)} points"
                )
        object.__setattr__(self, "provenance", prov)

    @cached_property
    def ranges(self) -> np.ndarray:
        """Each point's distance from the sensor, computed on first use."""
        return point_ranges(self.cloud.xyz)

    def select(self, index: np.ndarray) -> "CorruptedFrame":
        """Sub-frame at `index`; labels and provenance stay aligned."""
        idx = row_indices(index, len(self.cloud))
        return CorruptedFrame(
            cloud=self.cloud.select(idx),
            labels=None if self.labels is None else self.labels.select(idx),
            boxes=self.boxes,
            provenance=self.provenance.take(idx),
        )

    def with_fields(
        self, xyz: Optional[np.ndarray] = None, intensity: Optional[np.ndarray] = None, *,
        changed: Optional[np.ndarray] = None, tag: Optional[Provenance] = None,
        class_id: Optional[int] = None,
    ) -> "CorruptedFrame":
        """Copy with replaced coordinates and/or intensity; boxes kept. The
        points in the mask `changed` are tagged `tag` and, when the frame has
        labels and `class_id` is not None, relabeled `class_id`."""
        labels, provenance = self.labels, self.provenance
        if changed is not None and changed.any():
            provenance = provenance.copy()
            provenance[changed] = tag
            if labels is not None and class_id is not None:
                semantic = labels.semantic.copy()
                semantic[changed] = class_id
                labels = labels.with_semantic(semantic)
        return replace(self, cloud=self.cloud.with_fields(xyz, intensity),
                       labels=labels, provenance=provenance)


def apply_fog(
    frame: CorruptedFrame,
    alpha: float,
    beta_bs: float,
    seed: int,
    beta_0: float = 50.0,
    response_distance: float = 50.0,
    scatter_fraction: tuple[float, float] = (0.05, 0.5),
    fog_class: Optional[int] = None,
) -> CorruptedFrame:
    """Fog: attenuate every return and scatter those the fog outshines.

    The attenuated (hard-target) response is i * exp(-2 * alpha * range).
    The competing fog (soft-target) response is
    i * range^2 / beta_0 * beta_bs * clip(1 - range / response_distance, 0, 1):
    a fixed linear response that falls to 0 at `response_distance`. A point
    whose soft response wins is relocated to a fraction of its range
    (uniform in `scatter_fraction`) along the same ray, takes the soft
    intensity (clamped to [0, 1]), and is relabeled `fog_class`.

    Raises:
        ValueError: alpha negative or intensities not normalized to [0, 1].
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    intensity = frame.cloud.intensity
    if intensity.size and float(intensity.max()) > 1.0 + INTENSITY_TOLERANCE:
        raise ValueError(
            "fog expects intensities normalized to [0, 1]; "
            f"max is {float(intensity.max()):.4g}"
        )
    n = len(frame.cloud)
    if n == 0:
        return frame

    i64 = intensity.astype(np.float64)
    r = frame.ranges
    i_hard = i64 * np.exp(-2.0 * alpha * r)
    response = np.clip(1.0 - r / response_distance, 0.0, 1.0)
    i_soft = i64 * (r * r / beta_0) * beta_bs * response
    scattered = i_soft > i_hard

    rng = make_rng("fog", seed)
    fraction = rng.uniform(scatter_fraction[0], scatter_fraction[1], size=n)

    xyz = frame.cloud.xyz.copy()
    if scattered.any():
        xyz[scattered] = (
            frame.cloud.xyz[scattered].astype(np.float64)
            * fraction[scattered, None]
        ).astype(np.float32)
    out_i = np.where(scattered, np.clip(i_soft, 0.0, 1.0), i_hard).astype(np.float32)

    return frame.with_fields(xyz, out_i, changed=scattered, tag=Provenance.INJECTED_FOG,
                             class_id=fog_class)


def apply_wet_ground(
    frame: CorruptedFrame,
    ground: GroundModel,
    d_w: float,
    i_n: float = 0.02,
    kappa_per_mm: float = 0.1,
) -> CorruptedFrame:
    """Wet ground: attenuate ground returns, drop those below the noise floor.

    Ground-point intensity is scaled by exp(-kappa * d_w / cos(theta)) where
    theta is the beam's incidence angle against the ground plane (normal
    incidence when `ground.plane` is None); grazing beams lose the most
    energy. Attenuated returns below `i_n` are deleted together with their
    labels. Non-ground points pass through bitwise. `d_w` is in millimeters
    of water; `d_w` = 0 is a dry road and an exact identity.

    Raises:
        ValueError: d_w negative, or ground mask misaligned with the cloud.
    """
    if d_w < 0:
        raise ValueError(f"water height must be >= 0, got {d_w}")
    n = len(frame.cloud)
    mask = np.asarray(ground.inlier_mask, dtype=bool)
    if len(mask) != n:
        raise ValueError(f"ground mask length {len(mask)} != point count {n}")
    if d_w == 0 or n == 0 or not mask.any():
        return frame

    if ground.plane is None:
        cos_inc = np.ones(n)
    else:
        r = frame.ranges
        xyz = frame.cloud.xyz.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_inc = np.abs(xyz @ ground.normal) / np.maximum(r, 1e-12)
        cos_inc = np.where(r > 0, cos_inc, 1.0)
    attenuation = np.exp(-kappa_per_mm * d_w / np.maximum(cos_inc, 1e-6))

    i64 = frame.cloud.intensity.astype(np.float64)
    wet_i = np.where(mask, i64 * attenuation, i64)
    survivors = ~mask | (wet_i >= i_n)

    # Off the ground wet_i is the float32 intensity itself, so it casts back bitwise.
    updated = frame.with_fields(intensity=wet_i.astype(np.float32))
    if survivors.all():
        return updated
    return updated.select(survivors)


def sample_particle_distances(
    ranges: np.ndarray,
    r_s: float,
    rng: np.random.Generator,
    particles_per_meter_per_rate: float = 0.004,
    min_particle_range: float = 1.0,
) -> np.ndarray:
    """Distance to the nearest airborne particle along each ray (inf if none).

    Particle count per ray is Poisson with mean proportional to the snowfall
    rate and the ray length; given k particles uniformly placed between
    `min_particle_range` and the return range, the nearest sits at the
    minimum of k uniforms, drawn here in closed form.
    """
    n = len(ranges)
    span = np.maximum(ranges - min_particle_range, 0.0)
    counts = rng.poisson(particles_per_meter_per_rate * r_s * span)
    u = rng.uniform(size=n)
    distances = np.full(n, np.inf)
    hit = counts > 0
    if hit.any():
        k = counts[hit].astype(np.float64)
        nearest = 1.0 - np.power(1.0 - u[hit], 1.0 / k)
        distances[hit] = min_particle_range + span[hit] * nearest
    return distances


def apply_snow(
    frame: CorruptedFrame,
    r_s: float,
    seed: int,
    snow_class: Optional[int] = None,
    particles_per_meter_per_rate: float = 0.004,
    extinction_per_rate: float = 0.005,
    reflectivity: float = 0.3,
    min_particle_range: float = 1.0,
    particle_distances: Optional[np.ndarray] = None,
) -> CorruptedFrame:
    """Snow: re-terminate rays on sampled particles, attenuate the rest.

    Particles are sampled per ray with density proportional to the snowfall
    rate `r_s` (mm/h) and the ray length. A ray whose nearest particle lies
    closer than its original return is cut short at the particle with
    `reflectivity`-scaled intensity and relabeled `snow_class`. All other
    returns lose intensity to extinction: exp(-2 * k * range) with
    k = `extinction_per_rate` * r_s. `r_s` = 0 is an exact identity.
    `particle_distances` overrides the sampler (one distance per ray, inf
    for none) for reproducing a known particle field.
    """
    if r_s < 0:
        raise ValueError(f"snowfall rate must be >= 0, got {r_s}")
    n = len(frame.cloud)
    if r_s == 0 or n == 0:
        return frame

    r = frame.ranges
    if particle_distances is None:
        rng = make_rng("snow", seed)
        particle_distances = sample_particle_distances(
            r, r_s, rng, particles_per_meter_per_rate, min_particle_range
        )
    else:
        particle_distances = np.asarray(particle_distances, dtype=np.float64)
        if len(particle_distances) != n:
            raise ValueError("particle_distances must have one entry per point")
    hit = particle_distances < r

    k = extinction_per_rate * r_s
    i64 = frame.cloud.intensity.astype(np.float64)
    xyz = frame.cloud.xyz.copy()
    intensity = (i64 * np.exp(-2.0 * k * r)).astype(np.float32)
    if hit.any():
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0, particle_distances / np.maximum(r, 1e-300), 0.0)
        xyz[hit] = (
            frame.cloud.xyz[hit].astype(np.float64) * scale[hit, None]
        ).astype(np.float32)
        hit_i = reflectivity * i64[hit] * np.exp(-2.0 * k * particle_distances[hit])
        intensity[hit] = np.clip(hit_i, 0.0, 1.0).astype(np.float32)

    return frame.with_fields(xyz, intensity, changed=hit, tag=Provenance.INJECTED_SNOW,
                             class_id=snow_class)


def apply_motion_blur(frame: CorruptedFrame, sigma_t: float, seed: int) -> CorruptedFrame:
    """Motion blur: independent Gaussian jitter on each coordinate axis.

    Intensity, labels, and point count are untouched. sigma_t = 0 is an
    exact identity.
    """
    if sigma_t < 0:
        raise ValueError(f"sigma_t must be >= 0, got {sigma_t}")
    if sigma_t == 0 or len(frame.cloud) == 0:
        return frame
    rng = make_rng("motion-blur", seed)
    offsets = rng.normal(0.0, sigma_t, size=(len(frame.cloud), 3))
    xyz = (frame.cloud.xyz.astype(np.float64) + offsets).astype(np.float32)
    return frame.with_fields(xyz)


def apply_beam_missing(
    frame: CorruptedFrame, partition: BeamPartition, m: int, seed: int
) -> CorruptedFrame:
    """Beam missing: drop all points of m uniformly chosen beams."""
    if not 0 <= m <= partition.beam_count:
        raise ValueError(
            f"m must be in [0, {partition.beam_count}], got {m}"
        )
    if m == 0:
        return frame
    rng = make_rng("beam-missing", seed)
    dropped = rng.choice(partition.beam_count, size=m, replace=False)
    keep = ~np.isin(partition.beam_of, dropped)
    return frame.select(keep)


def apply_crosstalk(
    frame: CorruptedFrame,
    k_t: float,
    sigma_c: float,
    seed: int,
    crosstalk_class: Optional[int] = None,
) -> CorruptedFrame:
    """Crosstalk: jitter a random k_t fraction of points on all four channels.

    Exactly round(k_t * N) points are selected uniformly; each has Gaussian
    noise (std `sigma_c`) added to x, y, z, and intensity, with intensity
    clamped back to [0, 1]. Selected points are relabeled `crosstalk_class`.
    """
    if not 0 <= k_t <= 1:
        raise ValueError(f"k_t must be in [0, 1], got {k_t}")
    n = len(frame.cloud)
    n_sel = int(np.rint(k_t * n))
    if n_sel == 0:
        return frame
    rng = make_rng("crosstalk", seed)
    selected = rng.choice(n, size=n_sel, replace=False)
    noise = rng.normal(0.0, sigma_c, size=(n_sel, 4))

    xyz = frame.cloud.xyz.copy()
    xyz[selected] = (
        frame.cloud.xyz[selected].astype(np.float64) + noise[:, :3]
    ).astype(np.float32)
    intensity = frame.cloud.intensity.copy()
    intensity[selected] = np.clip(
        frame.cloud.intensity[selected].astype(np.float64) + noise[:, 3], 0.0, 1.0
    ).astype(np.float32)

    mask = np.zeros(n, dtype=bool)
    mask[selected] = True
    return frame.with_fields(xyz, intensity, changed=mask,
                             tag=Provenance.JITTERED_CROSSTALK, class_id=crosstalk_class)


def apply_incomplete_echo(
    frame: CorruptedFrame, vehicle_mask: np.ndarray, k_e: float, seed: int
) -> CorruptedFrame:
    """Incomplete echo: delete a k_e fraction of the vehicle points.

    `vehicle_mask` marks the vehicle points (`FrameContext.vehicle_mask`
    finds them from labels or boxes). Exactly round(k_e * |V|) points are
    removed with their labels; boxes are returned untouched.

    Raises:
        ValueError: `vehicle_mask` misaligned with the cloud.
    """
    if not 0 <= k_e <= 1:
        raise ValueError(f"k_e must be in [0, 1], got {k_e}")
    if len(vehicle_mask) != len(frame.cloud):
        raise ValueError(
            f"vehicle mask length {len(vehicle_mask)} != point count {len(frame.cloud)}"
        )

    candidates = np.flatnonzero(vehicle_mask)
    n_del = int(np.rint(k_e * len(candidates)))
    if n_del == 0:
        return frame
    rng = make_rng("incomplete-echo", seed)
    doomed = rng.choice(candidates, size=n_del, replace=False)
    keep = np.ones(len(frame.cloud), dtype=bool)
    keep[doomed] = False
    return frame.select(keep)


def apply_cross_sensor(
    frame: CorruptedFrame,
    partition: BeamPartition,
    beams_kept: int,
    subsample_keep: float = 0.5,
) -> CorruptedFrame:
    """Cross-sensor: retain an equal-stride subset of beams, then thin each.

    `beams_kept` beams are chosen at equal stride across the
    elevation-ordered beam list (no randomness), and within each surviving
    beam every round(1/subsample_keep)-th point survives in original order.
    """
    if not 1 <= beams_kept <= partition.beam_count:
        raise ValueError(
            f"beams_kept must be in [1, {partition.beam_count}], got {beams_kept}"
        )
    if not 0 < subsample_keep <= 1:
        raise ValueError(f"subsample_keep must be in (0, 1], got {subsample_keep}")
    stride = max(1, int(round(1.0 / subsample_keep)))
    kept_beams = np.floor(
        np.arange(beams_kept) * partition.beam_count / beams_kept
    ).astype(np.int64)

    keep = np.isin(partition.beam_of, kept_beams) & (partition.ranks % stride == 0)
    if keep.all():
        return frame
    return frame.select(keep)


class FrameContext:
    """Derived structures of one frame, computed on first use and cached.

    The beam partition, the ground and the vehicle mask depend on the frame
    but not on the corruption or severity, so one context serves all of a
    frame's outputs. A structure whose computation raises is not cached: each
    output that needs it fails with the same error, and the others are
    unaffected. Point ranges are cached on the frame (`CorruptedFrame.ranges`)
    and beam ranks on the partition (`BeamPartition.ranks`).

    The ground is the ground-labelled points and their plane
    (`GroundModel.from_mask`), or, when the frame has no labels or the
    profile no ground classes, a RANSAC fit seeded by (run seed, frame id,
    wet_ground).
    """

    def __init__(
        self, frame: CorruptedFrame, profile: DatasetProfile, seed: int
    ) -> None:
        self.frame = frame
        self.profile = profile
        self.seed = seed

    @cached_property
    def partition(self) -> BeamPartition:
        return partition_beams(self.frame.cloud, int(self.profile.beam_count))

    @cached_property
    def ground(self) -> GroundModel:
        frame, profile = self.frame, self.profile
        if frame.labels is not None and profile.ground_classes:
            return GroundModel.from_mask(
                frame.cloud.xyz, ground_mask_from_labels(frame.labels, profile)
            )
        return fit_ground_ransac(
            frame.cloud,
            iterations=int(profile.params["ransac_iterations"]),
            inlier_threshold=float(profile.params["ransac_threshold"]),
            seed=derive_seed(
                self.seed, frame.cloud.frame_id, CorruptionKind.WET_GROUND
            ),
        )

    @cached_property
    def vehicle_mask(self) -> np.ndarray:
        """Vehicle-labelled points, or else the points in vehicle-class boxes.
        Raises ValueError when the frame has neither labels nor boxes."""
        frame, profile = self.frame, self.profile
        if frame.labels is not None and profile.vehicle_classes:
            return np.isin(
                frame.labels.semantic,
                np.array(sorted(profile.vehicle_classes), dtype=np.int64),
            )
        if frame.boxes is not None:
            return frame.boxes.contains(
                frame.cloud.xyz, profile.vehicle_box_classes or None
            )
        raise ValueError(
            "incomplete echo needs semantic labels or boxes to find vehicle points"
        )


def apply(
    spec: CorruptionSpec,
    frame: CorruptedFrame,
    profile: DatasetProfile,
    ctx: Optional[FrameContext] = None,
) -> CorruptedFrame:
    """Apply one corruption at one severity, resolving parameters from the profile.

    Derives the operator seed from (spec.seed, frame id, kind, severity), so
    any single corrupted frame is reproducible in isolation. Prerequisite
    structures (ground, beam partition, vehicle mask) come from `ctx`, which
    callers corrupting one frame many times build once with
    `FrameContext(frame, profile, spec.seed)`. Without one, a throwaway
    context is built, with the same result.

    Raises:
        ValueError: `ctx` was built for another frame, profile or seed.
    """
    if ctx is None:
        ctx = FrameContext(frame, profile, spec.seed)
    elif ctx.frame is not frame or ctx.profile is not profile or ctx.seed != spec.seed:
        raise ValueError("frame context was built for another frame, profile or seed")
    seed = derive_seed(spec.seed, frame.cloud.frame_id, spec.kind, spec.severity)
    kind, params = spec.kind, profile.params
    entry = profile.severity_params(kind, spec.severity)

    if kind is CorruptionKind.FOG:
        return apply_fog(
            frame,
            alpha=float(make_rng("fog-alpha", seed).choice(entry["alpha_axis"])),
            beta_bs=float(entry["beta_bs"]),
            seed=seed,
            beta_0=float(params["fog_beta_0"]),
            response_distance=float(params["fog_response_distance"]),
            scatter_fraction=tuple(params["fog_scatter_fraction"]),
            fog_class=profile.fog_class,
        )
    if kind is CorruptionKind.WET_GROUND:
        return apply_wet_ground(
            frame,
            ground=ctx.ground,
            d_w=float(entry["water_height_mm"]),
            i_n=float(params["wet_noise_floor"]),
            kappa_per_mm=float(params["wet_kappa_per_mm"]),
        )
    if kind is CorruptionKind.SNOW:
        return apply_snow(
            frame,
            r_s=float(entry["snowfall_rate"]),
            seed=seed,
            snow_class=profile.snow_class,
            particles_per_meter_per_rate=float(params["snow_particles_per_meter_per_rate"]),
            extinction_per_rate=float(params["snow_extinction_per_rate"]),
            reflectivity=float(params["snow_reflectivity"]),
            min_particle_range=float(params["snow_min_particle_range"]),
        )
    if kind is CorruptionKind.MOTION_BLUR:
        return apply_motion_blur(
            frame,
            sigma_t=float(entry["sigma_t"]),
            seed=seed,
        )
    if kind is CorruptionKind.BEAM_MISSING:
        return apply_beam_missing(
            frame,
            ctx.partition,
            m=int(entry["beams_dropped"]),
            seed=seed,
        )
    if kind is CorruptionKind.CROSSTALK:
        return apply_crosstalk(
            frame,
            k_t=float(entry["fraction"]),
            sigma_c=float(params["crosstalk_sigma"]),
            seed=seed,
            crosstalk_class=profile.crosstalk_class,
        )
    if kind is CorruptionKind.INCOMPLETE_ECHO:
        return apply_incomplete_echo(
            frame,
            ctx.vehicle_mask,
            k_e=float(entry["fraction"]),
            seed=seed,
        )
    if kind is CorruptionKind.CROSS_SENSOR:
        return apply_cross_sensor(
            frame,
            ctx.partition,
            beams_kept=int(entry["beams_kept"]),
            subsample_keep=float(params["subsample_keep"]),
        )
    raise ValueError(f"unknown corruption kind {kind!r}")
