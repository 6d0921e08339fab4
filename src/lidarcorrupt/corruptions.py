"""The eight corruption operators and their severity-resolving dispatcher.

Every operator is a pure function: given the same frame, parameters, and
draw (its randomness, from `FrameContext.draw`) it returns a bitwise-identical
result, independent of thread count or call order. Operators never mutate
their input frame, keep labels aligned with the cloud through drops and
injections, and never touch box annotations. Points that an operator invents
or relocates are tagged in the output's provenance array and, when the
dataset profile defines one, relabeled with the matching injected class id.
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass
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
from .profiles import KINDS, CorruptionKind, DatasetProfile, Severity
from .rng import derive_seed, make_rng
from .types import INTENSITY_TOLERANCE, BoxSet, LabelArray, PointCloud, row_indices

__all__ = [
    "Provenance",
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
class CorruptedFrame:
    """A cloud with aligned labels/boxes and per-point provenance tags."""

    cloud: PointCloud
    labels: Optional[LabelArray] = None
    boxes: Optional[BoxSet] = None
    provenance: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != len(self.cloud):
            raise ValueError(f"{len(self.labels)} labels for {len(self.cloud)} points")
        prov = self.provenance
        if prov is None:
            prov = np.zeros(len(self.cloud), dtype=np.uint8)
        else:
            prov = np.ascontiguousarray(prov, dtype=np.uint8)
            if len(prov) != len(self.cloud):
                raise ValueError(f"{len(prov)} provenance tags for {len(self.cloud)} points")
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
        """A `CorruptedFrame` with replaced coordinates and/or intensity; boxes
        kept. The points at `changed` (a mask or indices) are tagged `tag` and,
        when the frame has labels and `class_id` is not None, relabeled `class_id`."""
        labels, provenance = self.labels, self.provenance
        idx = None if changed is None else row_indices(changed, len(self.cloud))
        if idx is not None and idx.size:
            provenance = provenance.copy()
            provenance[idx] = tag
            if labels is not None and class_id is not None:
                semantic = labels.semantic.copy()
                semantic[idx] = class_id
                labels = labels.with_semantic(semantic)
        return CorruptedFrame(self.cloud.with_fields(xyz, intensity), labels,
                              self.boxes, provenance)


def _check_strength(name: str, value: float) -> None:
    """ValueError naming `name` unless `value` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _checked(draw: np.ndarray, *shape: int) -> np.ndarray:
    """`draw`, or ValueError unless its shape is `shape`."""
    if draw.shape != shape:
        raise ValueError(f"draw has shape {draw.shape}, expected {shape}")
    return draw


def apply_fog(
    frame: CorruptedFrame,
    alpha: float,
    beta_bs: float,
    draw: np.ndarray,
    beta_0: float,
    response_distance: float,
    scatter_fraction: tuple[float, float],
    fog_class: Optional[int] = None,
) -> CorruptedFrame:
    """Fog: attenuate every return and scatter those the fog outshines.

    The attenuated (hard-target) response is i * exp(-2 * alpha * range).
    The competing fog (soft-target) response is
    i * range^2 / beta_0 * beta_bs * clip(1 - range / response_distance, 0, 1):
    a fixed linear response that falls to 0 at `response_distance`. A point
    whose soft response wins is relocated to low + (high - low) * u of its
    range along the same ray, for its uniform u in [0, 1) in `draw` and the
    pair `scatter_fraction`, takes the soft intensity (clamped to [0, 1]),
    and is relabeled `fog_class`. Only the scattered rows are gathered and
    rewritten, by index, with the same arithmetic per row as a full pass.

    Raises:
        ValueError: alpha or beta_bs not finite and >= 0, intensities not
            normalized to [0, 1], or a draw of another shape.
    """
    _check_strength("alpha", alpha)
    _check_strength("beta_bs", beta_bs)
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
    idx = np.flatnonzero(i_soft > i_hard)
    low, high = scatter_fraction
    fraction = low + (high - low) * _checked(draw, n).take(idx)

    xyz = frame.cloud.xyz.copy()
    xyz[idx] = (xyz.take(idx, axis=0).astype(np.float64) * fraction[:, None]).astype(np.float32)
    out_i = i_hard.astype(np.float32)
    out_i[idx] = np.clip(i_soft.take(idx), 0.0, 1.0)

    return frame.with_fields(xyz, out_i, changed=idx, tag=Provenance.INJECTED_FOG,
                             class_id=fog_class)


def apply_wet_ground(
    frame: CorruptedFrame,
    ground: GroundModel,
    incidence: np.ndarray,
    d_w: float,
    i_n: float,
    kappa_per_mm: float,
) -> CorruptedFrame:
    """Wet ground: attenuate ground returns, drop those below the noise floor.

    Ground-point intensity is scaled by exp(-kappa * d_w / cos(theta)), for
    each point's cosine of incidence on the ground plane in `incidence`
    (`GroundModel.cos_incidence`); grazing beams lose the most energy.
    Attenuated returns below `i_n` are deleted together with their labels.
    Non-ground points pass through bitwise. `d_w` is in millimeters of
    water; `d_w` = 0 is a dry road and an exact identity.

    Raises:
        ValueError: d_w not finite and >= 0, or ground mask misaligned.
    """
    _check_strength("d_w", d_w)
    n = len(frame.cloud)
    mask = np.asarray(ground.inlier_mask, dtype=bool)
    if len(mask) != n:
        raise ValueError(f"ground mask length {len(mask)} != point count {n}")
    if d_w == 0 or n == 0 or not mask.any():
        return frame

    attenuation = np.exp(-kappa_per_mm * d_w / _checked(incidence, n))

    i64 = frame.cloud.intensity.astype(np.float64)
    wet_i = np.where(mask, i64 * attenuation, i64)
    survivors = ~mask | (wet_i >= i_n)

    # Off the ground wet_i is the float32 intensity itself, so it casts back bitwise.
    updated = frame.with_fields(intensity=wet_i.astype(np.float32))
    if survivors.all():
        return updated
    return updated.select(survivors)


def apply_snow(
    frame: CorruptedFrame,
    r_s: float,
    draw: np.ndarray,
    snow_class: Optional[int] = None,
    *,
    particles_per_meter_per_rate: float,
    extinction_per_rate: float,
    reflectivity: float,
    min_particle_range: float,
) -> CorruptedFrame:
    """Snow: re-terminate rays on sampled particles, attenuate the rest.

    Particles lie on each ray past `min_particle_range` at a Poisson rate of
    `particles_per_meter_per_rate` * `r_s` (mm/h) per meter, so the nearest
    is at `min_particle_range` + E / rate for the ray's standard exponential
    E in `draw`. A ray whose nearest particle lies closer than its return is
    cut short at the particle with `reflectivity`-scaled intensity and
    relabeled `snow_class`. All other returns lose intensity to extinction:
    exp(-2 * k * range) with k = `extinction_per_rate` * r_s. `r_s` = 0 is
    an exact identity. Only the rays cut short are gathered and rewritten,
    by index, each with the arithmetic of a full-length pass.
    """
    _check_strength("r_s", r_s)
    if r_s == 0 or len(frame.cloud) == 0:
        return frame

    r = frame.ranges
    with np.errstate(divide="ignore", invalid="ignore"):  # no particles at a rate of 0
        particle_distances = min_particle_range + _checked(draw, len(r)) / (
            particles_per_meter_per_rate * r_s)
    idx = np.flatnonzero(particle_distances < r)

    k = extinction_per_rate * r_s
    i64 = frame.cloud.intensity.astype(np.float64)
    xyz = frame.cloud.xyz.copy()
    intensity = (i64 * np.exp(-2.0 * k * r)).astype(np.float32)
    hit_d, hit_r = particle_distances.take(idx), r.take(idx)
    scale = np.where(hit_r > 0, hit_d / np.maximum(hit_r, 1e-300), 0.0)
    xyz[idx] = (xyz.take(idx, axis=0).astype(np.float64) * scale[:, None]).astype(np.float32)
    hit_i = reflectivity * i64.take(idx) * np.exp(-2.0 * k * hit_d)
    intensity[idx] = np.clip(hit_i, 0.0, 1.0)

    return frame.with_fields(xyz, intensity, changed=idx, tag=Provenance.INJECTED_SNOW,
                             class_id=snow_class)


def apply_motion_blur(frame: CorruptedFrame, sigma_t: float, draw: np.ndarray) -> CorruptedFrame:
    """Motion blur: independent Gaussian jitter on each coordinate axis.

    Each point moves by sigma_t times its row of `draw`, (N, 3) standard
    normals. Intensity, labels, and point count are untouched. sigma_t = 0 is
    an exact identity. xyz + offsets is summed in float64 and rounded to
    float32 in blocks of rows, so the float64 temporary is one block's.
    """
    _check_strength("sigma_t", sigma_t)
    if sigma_t == 0 or len(frame.cloud) == 0:
        return frame
    xyz, draw = np.empty_like(frame.cloud.xyz), _checked(draw, len(frame.cloud), 3)
    for rows in (slice(i, i + 8192) for i in range(0, len(xyz), 8192)):
        xyz[rows] = draw[rows] * sigma_t + frame.cloud.xyz[rows]
    return frame.with_fields(xyz)


def apply_beam_missing(
    frame: CorruptedFrame, partition: BeamPartition, m: int, draw: np.ndarray
) -> CorruptedFrame:
    """Beam missing: drop all points of the first m beams of `draw`, a
    permutation of the partition's beam ids."""
    if not 0 <= m <= partition.beam_count:
        raise ValueError(f"m must be in [0, {partition.beam_count}], got {m}")
    if m == 0:
        return frame
    keep = ~np.isin(partition.beam_of, _checked(draw, partition.beam_count)[:m])
    return frame.select(keep)


def apply_crosstalk(
    frame: CorruptedFrame,
    k_t: float,
    sigma_c: float,
    draw: tuple[np.ndarray, np.ndarray],
    crosstalk_class: Optional[int] = None,
) -> CorruptedFrame:
    """Crosstalk: jitter a random k_t fraction of points on all four channels.

    `draw` is (order, noise), a permutation of the N points and rows of 4
    standard normals: the first round(k_t * N) points of `order` get sigma_c
    times the first noise rows added to x, y, z, and intensity, with
    intensity clamped back to [0, 1], and are relabeled `crosstalk_class`.
    """
    if not 0 <= k_t <= 1:
        raise ValueError(f"k_t must be in [0, 1], got {k_t}")
    _check_strength("sigma_c", sigma_c)
    n = len(frame.cloud)
    n_sel = int(np.rint(k_t * n))
    if n_sel == 0:
        return frame
    order, noise = draw
    selected, noise = _checked(order, n)[:n_sel], _checked(noise[:n_sel], n_sel, 4) * sigma_c

    xyz = frame.cloud.xyz.copy()
    xyz[selected] = (
        frame.cloud.xyz[selected].astype(np.float64) + noise[:, :3]
    ).astype(np.float32)
    intensity = frame.cloud.intensity.copy()
    intensity[selected] = np.clip(
        frame.cloud.intensity[selected].astype(np.float64) + noise[:, 3], 0.0, 1.0
    ).astype(np.float32)

    return frame.with_fields(xyz, intensity, changed=selected,
                             tag=Provenance.JITTERED_CROSSTALK, class_id=crosstalk_class)


def apply_incomplete_echo(
    frame: CorruptedFrame, vehicle_mask: np.ndarray, k_e: float, draw: np.ndarray
) -> CorruptedFrame:
    """Incomplete echo: delete a k_e fraction of the vehicle points.

    `vehicle_mask` marks the V vehicle points (`FrameContext.vehicle_mask`
    finds them from labels or boxes); those at the first round(k_e * V) of
    `draw`, a permutation of range(V), are removed with their labels.

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
    doomed = candidates.take(_checked(draw, len(candidates))[:n_del])
    keep = np.ones(len(frame.cloud), dtype=bool)
    keep[doomed] = False
    return frame.select(keep)


def apply_cross_sensor(
    frame: CorruptedFrame,
    partition: BeamPartition,
    beams_kept: int,
    subsample_keep: float,
) -> CorruptedFrame:
    """Cross-sensor: retain an equal-stride subset of beams, then thin each.

    `beams_kept` beams are chosen at equal stride across the
    elevation-ordered beam list (no randomness), and within each surviving
    beam every round(1/subsample_keep)-th point survives in original order.
    """
    if not 1 <= beams_kept <= partition.beam_count:
        raise ValueError(f"beams_kept must be in [1, {partition.beam_count}], got {beams_kept}")
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


class FrameContext(CorruptedFrame):
    """An input frame bound to its profile and run seed, with its derived
    structures computed on first use and cached.

    The beam partition, the ground (and its incidence) and the vehicle mask
    depend on the frame but not on the corruption or severity, so one
    context serves all of a frame's outputs. A structure whose computation
    raises is not cached: each output that needs it fails with the same
    error, and the others are unaffected. Point ranges are cached as the
    inherited `ranges`, and beam ranks on the partition. An operator's
    output is a plain `CorruptedFrame`, or, for an identity, the context.

    The ground is the ground-labelled points and their plane
    (`GroundModel.from_mask`), or, when the frame has no labels or the
    profile no ground classes, a RANSAC fit seeded by `seed_of(wet_ground)`.
    """

    def __init__(self, frame: CorruptedFrame, profile: DatasetProfile, seed: int) -> None:
        super().__init__(frame.cloud, frame.labels, frame.boxes, frame.provenance)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_draw", (None, None))

    def seed_of(self, kind: CorruptionKind) -> int:
        """The seed of `kind`'s randomness in this frame: (run seed, frame id, kind)."""
        return derive_seed(self.seed, self.cloud.frame_id, kind)

    def draw(self, kind: CorruptionKind):
        """`kind`'s randomness for this frame (`_DRAWS`), seeded by `seed_of`
        and shared by its severities; only the last kind's is kept."""
        if self._draw[0] != kind:
            self.keep_only(kind)  # free the last kind's arrays before drawing
            rng = make_rng(kind, self.seed_of(kind))
            object.__setattr__(self, "_draw", (kind, _DRAWS[kind](rng, self, len(self.cloud))))
        return self._draw[1]

    def keep_only(self, kind: CorruptionKind) -> None:
        """Free the per-kind arrays that `kind` does not read: another
        kind's draw, and the incidence outside wet ground."""
        if self._draw[0] != kind:
            object.__setattr__(self, "_draw", (None, None))
        if kind != CorruptionKind.WET_GROUND:
            self.__dict__.pop("incidence", None)

    @cached_property
    def partition(self) -> BeamPartition:
        cloud = self.cloud  # the ranges go unread with a ring channel
        return partition_beams(cloud, self.profile.beam_count,
                               None if cloud.ring is not None else self.ranges)

    @cached_property
    def ground(self) -> GroundModel:
        profile = self.profile
        if self.labels is not None and profile.ground_classes:
            return GroundModel.from_mask(
                self.cloud.xyz, ground_mask_from_labels(self.labels, profile)
            )
        return fit_ground_ransac(
            self.cloud,
            iterations=profile.params["ransac_iterations"],
            inlier_threshold=profile.params["ransac_threshold"],
            seed=self.seed_of(CorruptionKind.WET_GROUND),
        )

    @cached_property
    def incidence(self) -> np.ndarray:
        """`GroundModel.cos_incidence` of the ground, for wet ground."""
        return self.ground.cos_incidence(self.cloud.xyz, self.ranges)

    @cached_property
    def vehicle_mask(self) -> np.ndarray:
        """Vehicle-labelled points, or else the points in vehicle-class boxes.
        Raises ValueError when the frame has neither labels nor boxes."""
        profile = self.profile
        if self.labels is not None and profile.vehicle_classes:
            return np.isin(
                self.labels.semantic,
                np.array(sorted(profile.vehicle_classes), dtype=np.int64),
            )
        if self.boxes is not None:
            return self.boxes.contains(self.cloud.xyz, profile.vehicle_box_classes or None)
        raise ValueError(
            "incomplete echo needs semantic labels or boxes to find vehicle points"
        )


# Each random kind's `draw` from (generator, context, point count). Its
# severities read a prefix or a scaling of it, so a heavier one corrupts a
# superset. Crosstalk's noise rows cover its heaviest severity.
_DRAWS = {
    CorruptionKind.FOG: lambda rng, ctx, n: rng.random(n),
    CorruptionKind.SNOW: lambda rng, ctx, n: rng.standard_exponential(n),
    CorruptionKind.MOTION_BLUR: lambda rng, ctx, n: rng.standard_normal((n, 3)),
    CorruptionKind.BEAM_MISSING: lambda rng, ctx, n: rng.permutation(ctx.partition.beam_count),
    CorruptionKind.CROSSTALK: lambda rng, ctx, n: (rng.permutation(n), rng.standard_normal(
        (int(np.rint(max(ctx.profile.params["crosstalk.fraction"]) * n)), 4))),
    CorruptionKind.INCOMPLETE_ECHO:
        lambda rng, ctx, n: rng.permutation(np.count_nonzero(ctx.vehicle_mask)),
}


def apply(kind: CorruptionKind, frame: FrameContext, severity: Severity) -> CorruptedFrame:
    """One corruption at one severity of `frame`, parameters from `frame.profile`.

    `apply_<kind>` gets each parameter after `frame` by its name: a
    `profiles.KINDS` keyword is its profile value at the severity, as the
    profile holds it, with an ``_axis`` one drawn with the seed
    `frame.seed_of(kind)`; `draw` is `frame.draw(kind)`; a name ending in
    ``_class`` is the profile's injected class id; any other is that
    `FrameContext` structure (ground, incidence, beam partition, vehicle mask). Build the context once per frame with
    `FrameContext(frame, profile, seed)`, and loop kind by kind, so each
    kind is drawn once.
    """
    frame.keep_only(kind)
    operator = globals()[f"apply_{kind}"]  # a wrapper set on the module runs
    kwargs = {}
    for name in list(inspect.signature(operator).parameters)[1:]:  # frame builds only these
        if name in KINDS[kind]:
            key = KINDS[kind][name]
            value = frame.profile.value_at(key, severity)
            if key.endswith("_axis"):
                value = float(make_rng(f"{kind}-{name}", frame.seed_of(kind)).choice(value))
            kwargs[name] = value
        else:
            kwargs[name] = frame.draw(kind) if name == "draw" else getattr(
                frame.profile if name.endswith("_class") else frame, name)
    return operator(frame, **kwargs)
