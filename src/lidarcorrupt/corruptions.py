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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .geometry import (
    BeamPartition,
    GroundModel,
    GroundSource,
    fit_ground_ransac,
    ground_mask_from_labels,
    lstsq_plane,
    partition_beams,
    point_ranges,
)
from .profiles import CorruptionKind, DatasetProfile, Severity
from .rng import derive_seed, make_rng
from .types import INTENSITY_TOLERANCE, BoxSet, LabelArray, PointCloud

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

    @classmethod
    def clean(
        cls,
        cloud: PointCloud,
        labels: Optional[LabelArray] = None,
        boxes: Optional[BoxSet] = None,
    ) -> "CorruptedFrame":
        return cls(cloud=cloud, labels=labels, boxes=boxes)

    def select(self, index: np.ndarray) -> "CorruptedFrame":
        """Sub-frame at `index`; labels and provenance stay aligned."""
        return CorruptedFrame(
            cloud=self.cloud.select(index),
            labels=None if self.labels is None else self.labels.select(index),
            boxes=self.boxes,
            provenance=self.provenance[index],
        )


def _relabel(
    labels: Optional[LabelArray], mask: np.ndarray, class_id: Optional[int]
) -> Optional[LabelArray]:
    if labels is None or class_id is None or not mask.any():
        return labels
    semantic = labels.semantic.copy()
    semantic[mask] = class_id
    return labels.with_semantic(semantic)


def _tag(provenance: np.ndarray, mask: np.ndarray, tag: Provenance) -> np.ndarray:
    out = provenance.copy()
    out[mask] = int(tag)
    return out


def _linear_decay_response(distance: float) -> Callable[[np.ndarray], np.ndarray]:
    def response(ranges: np.ndarray) -> np.ndarray:
        return np.clip(1.0 - ranges / distance, 0.0, 1.0)

    return response


def _ranges_of(frame: CorruptedFrame, ranges: Optional[np.ndarray]) -> np.ndarray:
    if ranges is None:
        return point_ranges(frame.cloud.xyz)
    if len(ranges) != len(frame.cloud):
        raise ValueError(f"{len(ranges)} ranges for {len(frame.cloud)} points")
    return ranges


def apply_fog(
    frame: CorruptedFrame,
    alpha: float,
    beta_bs: float,
    seed: int,
    beta_0: float = 50.0,
    response_distance: float = 50.0,
    scatter_fraction: tuple[float, float] = (0.05, 0.5),
    fog_class: Optional[int] = None,
    soft_response: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ranges: Optional[np.ndarray] = None,
) -> CorruptedFrame:
    """Fog: attenuate every return and scatter those the fog outshines.

    The attenuated (hard-target) response is i * exp(-2 * alpha * range).
    The competing fog (soft-target) response is
    i * range^2 / beta_0 * beta_bs * response(range), where `response` is a
    swappable response curve defaulting to a linear decay clamped at
    `response_distance`. A point whose soft response wins is relocated to a
    fraction of its range (uniform in `scatter_fraction`) along the same ray,
    takes the soft intensity (clamped to [0, 1]), and is relabeled
    `fog_class`. `ranges` optionally supplies the precomputed point ranges.

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

    response = soft_response or _linear_decay_response(response_distance)
    i64 = intensity.astype(np.float64)
    r = _ranges_of(frame, ranges)
    i_hard = i64 * np.exp(-2.0 * alpha * r)
    i_soft = i64 * (r * r / beta_0) * beta_bs * response(r)
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

    return CorruptedFrame(
        cloud=frame.cloud.with_fields(xyz=xyz, intensity=out_i),
        labels=_relabel(frame.labels, scattered, fog_class),
        boxes=frame.boxes,
        provenance=_tag(frame.provenance, scattered, Provenance.INJECTED_FOG),
    )


def _plane_from_mask(cloud: PointCloud, mask: np.ndarray) -> Optional[GroundModel]:
    """Least-squares plane over masked points; None if under-determined."""
    fit = lstsq_plane(cloud.xyz, mask)
    if fit is None:
        return None
    normal, d = fit
    a, b, c = (float(v) for v in normal)
    return GroundModel(
        plane=(a, b, c, d), inlier_mask=mask, source=GroundSource.SEMANTIC_LABELS
    )


def apply_wet_ground(
    frame: CorruptedFrame,
    ground: Union[GroundModel, np.ndarray],
    d_w: float,
    i_n: float = 0.02,
    seed: int = 0,
    kappa_per_mm: float = 0.1,
    ranges: Optional[np.ndarray] = None,
) -> CorruptedFrame:
    """Wet ground: attenuate ground returns, drop those below the noise floor.

    Ground-point intensity is scaled by exp(-kappa * d_w / cos(theta)) where
    theta is the beam's incidence angle against the ground plane; grazing
    beams lose the most energy. Attenuated returns below `i_n` are deleted
    together with their labels. Non-ground points pass through bitwise.
    `d_w` is in millimeters of water; `d_w` = 0 is a dry road and an exact
    identity. The attenuation model is deterministic; `seed` is accepted for
    interface symmetry. `ranges` optionally supplies the precomputed point
    ranges.

    Raises:
        ValueError: d_w negative, or ground mask misaligned with the cloud.
    """
    if d_w < 0:
        raise ValueError(f"water height must be >= 0, got {d_w}")
    n = len(frame.cloud)
    if isinstance(ground, GroundModel):
        model: Optional[GroundModel] = ground
        mask = np.asarray(ground.inlier_mask, dtype=bool)
    else:
        mask = np.asarray(ground, dtype=bool)
        model = None
    if len(mask) != n:
        raise ValueError(f"ground mask length {len(mask)} != point count {n}")
    if d_w == 0 or n == 0 or not mask.any():
        return frame
    if model is None:
        model = _plane_from_mask(frame.cloud, mask)

    xyz = frame.cloud.xyz.astype(np.float64)
    if model is not None:
        r = _ranges_of(frame, ranges)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_inc = np.abs(xyz @ model.normal) / np.maximum(r, 1e-12)
        cos_inc = np.where(r > 0, cos_inc, 1.0)
    else:
        # Under-determined ground geometry: assume normal incidence.
        cos_inc = np.ones(n)
    attenuation = np.exp(-kappa_per_mm * d_w / np.maximum(cos_inc, 1e-6))

    i64 = frame.cloud.intensity.astype(np.float64)
    wet_i = np.where(mask, i64 * attenuation, i64)
    survivors = ~mask | (wet_i >= i_n)

    intensity = frame.cloud.intensity.copy()
    ground_kept = mask & survivors
    intensity[ground_kept] = wet_i[ground_kept].astype(np.float32)
    updated = CorruptedFrame(
        cloud=frame.cloud.with_fields(intensity=intensity),
        labels=frame.labels,
        boxes=frame.boxes,
        provenance=frame.provenance,
    )
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
    ranges: Optional[np.ndarray] = None,
) -> CorruptedFrame:
    """Snow: re-terminate rays on sampled particles, attenuate the rest.

    Particles are sampled per ray with density proportional to the snowfall
    rate `r_s` (mm/h) and the ray length. A ray whose nearest particle lies
    closer than its original return is cut short at the particle with
    `reflectivity`-scaled intensity and relabeled `snow_class`. All other
    returns lose intensity to extinction: exp(-2 * k * range) with
    k = `extinction_per_rate` * r_s. `r_s` = 0 is an exact identity.
    `particle_distances` overrides the sampler (one distance per ray, inf
    for none) for reproducing a known particle field. `ranges` optionally
    supplies the precomputed point ranges.
    """
    if r_s < 0:
        raise ValueError(f"snowfall rate must be >= 0, got {r_s}")
    n = len(frame.cloud)
    if r_s == 0 or n == 0:
        return frame

    r = _ranges_of(frame, ranges)
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

    return CorruptedFrame(
        cloud=frame.cloud.with_fields(xyz=xyz, intensity=intensity),
        labels=_relabel(frame.labels, hit, snow_class),
        boxes=frame.boxes,
        provenance=_tag(frame.provenance, hit, Provenance.INJECTED_SNOW),
    )


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
    return CorruptedFrame(
        cloud=frame.cloud.with_fields(xyz=xyz),
        labels=frame.labels,
        boxes=frame.boxes,
        provenance=frame.provenance,
    )


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
    return CorruptedFrame(
        cloud=frame.cloud.with_fields(xyz=xyz, intensity=intensity),
        labels=_relabel(frame.labels, mask, crosstalk_class),
        boxes=frame.boxes,
        provenance=_tag(frame.provenance, mask, Provenance.JITTERED_CROSSTALK),
    )


def _vehicle_mask(
    frame: CorruptedFrame,
    vehicle_classes: Iterable[int],
    vehicle_box_classes: Optional[Iterable[int]],
) -> np.ndarray:
    vehicle_classes = frozenset(vehicle_classes)
    if frame.labels is not None and vehicle_classes:
        return np.isin(
            frame.labels.semantic, np.array(sorted(vehicle_classes), dtype=np.int64)
        )
    if frame.boxes is not None:
        classes = None if vehicle_box_classes is None else frozenset(vehicle_box_classes)
        return frame.boxes.contains(frame.cloud.xyz, classes)
    raise ValueError(
        "incomplete echo needs semantic labels or boxes to find vehicle points"
    )


def apply_incomplete_echo(
    frame: CorruptedFrame,
    k_e: float,
    seed: int,
    vehicle_classes: Iterable[int] = (),
    vehicle_box_classes: Optional[Iterable[int]] = None,
    vehicle_mask: Optional[np.ndarray] = None,
) -> CorruptedFrame:
    """Incomplete echo: delete a k_e fraction of vehicle points.

    The vehicle set comes from semantic labels when available, otherwise
    from membership in vehicle-class boxes, unless `vehicle_mask` supplies
    it precomputed. Exactly round(k_e * |V|) points are removed with their
    labels; boxes are returned untouched.

    Raises:
        ValueError: neither labels (with a class set) nor boxes available,
            or `vehicle_mask` misaligned with the cloud.
    """
    if not 0 <= k_e <= 1:
        raise ValueError(f"k_e must be in [0, 1], got {k_e}")
    if vehicle_mask is None:
        vehicle_mask = _vehicle_mask(frame, vehicle_classes, vehicle_box_classes)
    elif len(vehicle_mask) != len(frame.cloud):
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


def beam_ranks(partition: BeamPartition) -> np.ndarray:
    """Each point's position among its beam's points, in cloud order."""
    # A stable sort groups each beam's points in original order; a point's
    # rank within its beam is its offset from the beam's first position.
    order = np.argsort(partition.beam_of, kind="stable")
    beams = partition.beam_of[order]
    position = np.arange(len(beams))
    first = np.ones(len(beams), dtype=bool)
    first[1:] = beams[1:] != beams[:-1]
    ranks = np.empty_like(position)
    ranks[order] = position - np.maximum.accumulate(np.where(first, position, 0))
    return ranks


def apply_cross_sensor(
    frame: CorruptedFrame,
    partition: BeamPartition,
    beams_kept: int,
    subsample_keep: float = 0.5,
    ranks: Optional[np.ndarray] = None,
) -> CorruptedFrame:
    """Cross-sensor: retain an equal-stride subset of beams, then thin each.

    `beams_kept` beams are chosen at equal stride across the
    elevation-ordered beam list (no randomness), and within each surviving
    beam every round(1/subsample_keep)-th point survives in original order.
    `ranks` optionally supplies the precomputed `beam_ranks(partition)`.
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

    if ranks is None:
        ranks = beam_ranks(partition)
    elif len(ranks) != len(partition.beam_of):
        raise ValueError(f"{len(ranks)} beam ranks for {len(partition.beam_of)} points")
    keep = np.isin(partition.beam_of, kept_beams) & (ranks % stride == 0)
    if keep.all():
        return frame
    return frame.select(keep)


class FrameContext:
    """Derived structures of one frame, computed on first use and cached.

    The point ranges, the beam partition, the points' ranks within their
    beams, the ground and the vehicle mask depend on the frame but not on
    the corruption or severity, so one context serves all of a frame's
    outputs. A structure whose computation raises is not cached: each
    output that needs it fails with the same error, and the others are
    unaffected.

    The ground is the plane through the ground-labelled points (their mask
    when fewer than 3), or, when the frame has no labels or the profile no
    ground classes, a RANSAC `GroundModel` seeded by (run seed, frame id,
    wet_ground).
    """

    def __init__(
        self, frame: CorruptedFrame, profile: DatasetProfile, seed: int
    ) -> None:
        self.frame = frame
        self.profile = profile
        self.seed = seed

    @cached_property
    def ranges(self) -> np.ndarray:
        return point_ranges(self.frame.cloud.xyz)

    @cached_property
    def partition(self) -> BeamPartition:
        return partition_beams(self.frame.cloud, self.profile)

    @cached_property
    def beam_ranks(self) -> np.ndarray:
        return beam_ranks(self.partition)

    @cached_property
    def ground(self) -> Union[GroundModel, np.ndarray]:
        frame, profile = self.frame, self.profile
        if frame.labels is not None and profile.ground_classes:
            mask = ground_mask_from_labels(frame.labels, profile)
            model = _plane_from_mask(frame.cloud, mask)
            return mask if model is None else model
        return fit_ground_ransac(
            frame.cloud,
            iterations=int(profile.param("ransac_iterations")),
            inlier_threshold=float(profile.param("ransac_threshold")),
            seed=derive_seed(
                self.seed, frame.cloud.frame_id, CorruptionKind.WET_GROUND
            ),
        )

    @cached_property
    def vehicle_mask(self) -> np.ndarray:
        return _vehicle_mask(
            self.frame,
            self.profile.vehicle_classes,
            self.profile.vehicle_box_classes or None,
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
    structures (ranges, ground, beam partition and ranks, vehicle mask) come
    from `ctx`, which callers corrupting one frame many times build once with
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
    kind, severity = spec.kind, spec.severity

    if kind is CorruptionKind.FOG:
        axis = profile.severity_value(kind, severity, "alpha_axis")
        alpha = float(make_rng("fog-alpha", seed).choice(axis))
        return apply_fog(
            frame,
            alpha=alpha,
            beta_bs=float(profile.severity_value(kind, severity, "beta_bs")),
            seed=seed,
            beta_0=float(profile.param("fog_beta_0")),
            response_distance=float(profile.param("fog_response_distance")),
            scatter_fraction=tuple(profile.param("fog_scatter_fraction")),
            fog_class=profile.fog_class,
            ranges=ctx.ranges,
        )
    if kind is CorruptionKind.WET_GROUND:
        return apply_wet_ground(
            frame,
            ground=ctx.ground,
            d_w=float(profile.severity_value(kind, severity, "water_height_mm")),
            i_n=float(profile.param("wet_noise_floor")),
            seed=seed,
            kappa_per_mm=float(profile.param("wet_kappa_per_mm")),
            ranges=ctx.ranges,
        )
    if kind is CorruptionKind.SNOW:
        return apply_snow(
            frame,
            r_s=float(profile.severity_value(kind, severity, "snowfall_rate")),
            seed=seed,
            snow_class=profile.snow_class,
            particles_per_meter_per_rate=float(
                profile.param("snow_particles_per_meter_per_rate")
            ),
            extinction_per_rate=float(profile.param("snow_extinction_per_rate")),
            reflectivity=float(profile.param("snow_reflectivity")),
            min_particle_range=float(profile.param("snow_min_particle_range")),
            ranges=ctx.ranges,
        )
    if kind is CorruptionKind.MOTION_BLUR:
        return apply_motion_blur(
            frame,
            sigma_t=float(profile.severity_value(kind, severity, "sigma_t")),
            seed=seed,
        )
    if kind is CorruptionKind.BEAM_MISSING:
        return apply_beam_missing(
            frame,
            ctx.partition,
            m=int(profile.severity_value(kind, severity, "beams_dropped")),
            seed=seed,
        )
    if kind is CorruptionKind.CROSSTALK:
        return apply_crosstalk(
            frame,
            k_t=float(profile.severity_value(kind, severity, "fraction")),
            sigma_c=float(profile.param("crosstalk_sigma")),
            seed=seed,
            crosstalk_class=profile.crosstalk_class,
        )
    if kind is CorruptionKind.INCOMPLETE_ECHO:
        return apply_incomplete_echo(
            frame,
            k_e=float(profile.severity_value(kind, severity, "fraction")),
            seed=seed,
            vehicle_mask=ctx.vehicle_mask,
        )
    if kind is CorruptionKind.CROSS_SENSOR:
        return apply_cross_sensor(
            frame,
            ctx.partition,
            beams_kept=int(profile.severity_value(kind, severity, "beams_kept")),
            subsample_keep=float(profile.param("subsample_keep")),
            ranks=ctx.beam_ranks,
        )
    raise ValueError(f"unknown corruption kind {kind!r}")
