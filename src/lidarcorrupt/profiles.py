"""Dataset profiles: per-dataset corruption parameters and class-id sets.

The built-in tables live in ``data/profiles.json`` (editable, versioned).
Each profile carries the sensor beam count, the severity parameter triples
for all eight corruptions, the semantic class-id sets used by ground and
vehicle queries, and the synthetic class ids assigned to injected fog, snow,
and crosstalk points. A table entry holds its fields and its values by their
``--set`` names, over a ``defaults`` table of the values all entries share.

A profile is checked whole when it is built, from a table or by
`with_overrides`: its keys must be those of `_ENTRIES` (from `KINDS`, the
one list of what each corruption reads), with values of their shape there,
`requires_labels` true or false, and each value in its range (`_RANGES`).
ProfileError reads ``PROFILE: KEY must be ...``, echoing the value as
written, or names a missing or unknown key. Once checked, each value is kept
as its rule's type, so every reader takes it as the profile holds it.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional

from .errors import ProfileError

__all__ = [
    "CorruptionKind",
    "Severity",
    "DatasetProfile",
    "KINDS",
    "load_profile",
    "available_profiles",
]


class CorruptionKind(str, enum.Enum):
    """The eight corruption types, in canonical report order."""

    FOG = "fog"
    WET_GROUND = "wet_ground"
    SNOW = "snow"
    MOTION_BLUR = "motion_blur"
    BEAM_MISSING = "beam_missing"
    CROSSTALK = "crosstalk"
    INCOMPLETE_ECHO = "incomplete_echo"
    CROSS_SENSOR = "cross_sensor"

    def __str__(self) -> str:  # stable for seed derivation and paths
        return self.value


class Severity(str, enum.Enum):
    LIGHT = "light"
    MODERATE = "moderate"
    HEAVY = "heavy"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DatasetProfile:
    """All per-dataset constants needed to corrupt and score one dataset.

    `params` maps every key of `_ENTRIES` to its value, by its ``--set``
    name. A dotted key (``fog.beta_bs``) is a [light, moderate, heavy]
    triple, or, ending in ``_axis``, a list that `corruptions.apply` draws
    one value from per frame and corruption, so a frame's three severities
    share it; any other is a dataset-wide constant. Class ids are whole
    numbers in [0, 65535] (semantic ids are 16-bit), box classes whole
    numbers. The three class-id sets are given as lists of distinct ids and
    kept as frozensets of ints; any other number is kept as an int where its
    rule asks for a whole number and as a float otherwise, alone or in a list. An empty `vehicle_classes` marks no point a vehicle,
    but an empty `vehicle_box_classes` counts every box as one. Building a
    profile checks it whole (see the module docstring) and raises
    ProfileError on the first fault.
    """

    name: str
    beam_count: int
    intensity_scale: float
    ignore_label: int
    fog_class: Optional[int]
    snow_class: Optional[int]
    crosstalk_class: Optional[int]
    ground_classes: frozenset[int]
    vehicle_classes: frozenset[int]
    vehicle_box_classes: frozenset[int]
    requires_labels: bool
    params: Mapping[str, Any]

    def __post_init__(self) -> None:
        unknown = [key for key in self.params if key not in _ENTRIES]
        missing = [key for key in _ENTRIES if key not in self.params]
        for what, keys in (("unknown", unknown), ("missing", missing)):
            if keys:
                raise ProfileError(f"{self.name}: {what} key {keys[0]!r}; "
                                   f"valid keys: {', '.join(_ENTRIES)}")
        for key, shape in _ENTRIES.items():
            if not _has_shape(shape, self.params[key]):
                raise ProfileError(f"{self.name}: {key} must be {shape}, got {self.params[key]!r}")
        if not isinstance(self.requires_labels, bool):
            raise ProfileError(f"{self.name}: requires_labels must be true or false, "
                               f"got {self.requires_labels!r}")
        checked = {name: value for name, value in vars(self).items()
                   if name in _RANGES and not (name in _INJECTED and value is None)}
        typed = {}
        for key, value in {**checked, **self.params}.items():
            rule, allowed = _RANGES.get(key, (">= 0", lambda v, profile: True))
            whole = "whole" in rule  # the rule's words say whether it takes a whole number
            listed = isinstance(value, (list, tuple, frozenset))
            values = value if listed else [value]
            # A field is one number, or for a class-id list a list of them.
            if (key in checked and listed != (key in _CLASS_LISTS)) or not all(
                    _is_number(v) and v >= 0 and (_whole(v) or not whole) and allowed(v, self)
                    for v in values):
                rule = rule.format(beam_count=self.beam_count)
                raise ProfileError(f"{self.name}: {key} must be {rule}, got {value!r}")
            if key in _CLASS_LISTS and len(set(values)) < len(values):
                raise ProfileError(f"{self.name}: {key} must be distinct ids, got {value!r}")
            values = [int(v) if whole else float(v) for v in values]
            typed[key] = (frozenset(values) if key in _CLASS_LISTS
                          else values if listed else values[0])
        for name in checked:
            object.__setattr__(self, name, typed.pop(name))
        object.__setattr__(self, "params", typed)
        injected = self.injected_classes()
        for name, classes in (
            ("ground_classes", self.ground_classes),
            ("vehicle_classes", self.vehicle_classes),
        ):
            overlap = injected & classes
            if overlap:
                raise ProfileError(
                    f"{self.name}: {name} overlaps injected class ids {sorted(overlap)}"
                )

    def value_at(self, key: str, severity: Severity) -> Any:
        """`key`'s value at `severity`: a triple's entry, any other value whole."""
        value = self.params[key]
        return value[list(Severity).index(severity)] if _ENTRIES[key] == _TRIPLE else value

    def severity_params(self, kind: CorruptionKind, severity: Severity) -> dict:
        """`kind`'s severity entries at `severity`, keyed after the dot; each
        ``_axis`` whole."""
        return {key.partition(".")[2]: self.value_at(key, severity)
                for key in KINDS[kind].values() if "." in key}

    def injected_classes(self) -> frozenset[int]:
        return frozenset(getattr(self, name) for name in _INJECTED) - {None}

    def with_overrides(self, overrides: Mapping[str, Any]) -> "DatasetProfile":
        """Copy with the `params` values of `overrides`' keys replaced. The
        copy is checked as every profile is.

        Raises:
            ProfileError: a key names no profile value, or a value has the
                wrong shape or is out of range.
        """
        return replace(self, params={**self.params, **overrides})


def _is_number(value: Any) -> bool:
    """An int or float that is a finite float: NaN, infinity and an int too
    large for a float are not parameter values."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _whole(value: Any) -> bool:
    return isinstance(value, int) or value.is_integer()


_NUMBER = "a number"
_PAIR = "a list of 2 numbers"
_TRIPLE = "a 3-entry severity triple of numbers"
_AXIS = "a nonempty list of numbers"

# What each corruption reads: operator keyword -> profile key. A dotted key
# ("kind.name") is a severity triple, one ending in "_axis" a list that
# `corruptions.apply` draws from, any other a constant.
KINDS = {
    CorruptionKind.FOG: {
        "alpha": "fog.alpha_axis", "beta_bs": "fog.beta_bs", "beta_0": "fog_beta_0",
        "response_distance": "fog_response_distance",
        "scatter_fraction": "fog_scatter_fraction"},
    CorruptionKind.WET_GROUND: {
        "d_w": "wet_ground.water_height_mm", "i_n": "wet_noise_floor",
        "kappa_per_mm": "wet_kappa_per_mm"},
    CorruptionKind.SNOW: {
        "r_s": "snow.snowfall_rate", "reflectivity": "snow_reflectivity",
        "particles_per_meter_per_rate": "snow_particles_per_meter_per_rate",
        "extinction_per_rate": "snow_extinction_per_rate",
        "min_particle_range": "snow_min_particle_range"},
    CorruptionKind.MOTION_BLUR: {"sigma_t": "motion_blur.sigma_t"},
    CorruptionKind.BEAM_MISSING: {"m": "beam_missing.beams_dropped"},
    CorruptionKind.CROSSTALK: {"k_t": "crosstalk.fraction", "sigma_c": "crosstalk_sigma"},
    CorruptionKind.INCOMPLETE_ECHO: {"k_e": "incomplete_echo.fraction"},
    CorruptionKind.CROSS_SENSOR: {
        "beams_kept": "cross_sensor.beams_kept", "subsample_keep": "subsample_keep"},
}

# Every `params` key a profile has, no more and no fewer, with the shape of
# its value: those of `KINDS` (the fog scatter fraction a pair), then the
# RANSAC settings that `corruptions.FrameContext.ground` reads.
_ENTRIES = {
    **{key: _AXIS if key.endswith("_axis") else _TRIPLE if "." in key else _NUMBER
       for table in KINDS.values() for key in table.values()},
    "fog_scatter_fraction": _PAIR, "ransac_iterations": _NUMBER, "ransac_threshold": _NUMBER,
}


def _has_shape(shape: str, value: Any) -> bool:
    if shape == _NUMBER:
        return _is_number(value)
    if not isinstance(value, (list, tuple)) or not all(_is_number(v) for v in value):
        return False
    return len(value) > 0 if shape == _AXIS else len(value) == (2 if shape == _PAIR else 3)


def _is_class_id(value: Any, profile: DatasetProfile) -> bool:
    return value <= 65535


_CLASS_LISTS = ("ground_classes", "vehicle_classes", "vehicle_box_classes")
# The fields of the class ids given to injected points; each may be null.
_INJECTED = ("fog_class", "snow_class", "crosstalk_class")

# The range of a profile value beyond the rule that it is no negative number:
# key -> (the range in words, whether each number `v` of `profile` is in it).
# A rule whose words say "whole" also takes whole numbers only, kept as ints.
_RANGES = {
    "beam_count": ("a whole number >= 1", lambda v, profile: v >= 1),
    "intensity_scale": ("> 0", lambda v, profile: v > 0),
    "ignore_label": ("a whole number in [0, 65535]", _is_class_id),
    **dict.fromkeys(_INJECTED, ("a whole number in [0, 65535] or null", _is_class_id)),
    "ground_classes": ("whole numbers in [0, 65535]", _is_class_id),
    "vehicle_classes": ("whole numbers in [0, 65535]", _is_class_id),
    "vehicle_box_classes": ("whole numbers >= 0", lambda v, profile: True),
    "fog_beta_0": ("> 0", lambda v, profile: v > 0),
    "fog_response_distance": ("> 0", lambda v, profile: v > 0),
    "fog_scatter_fraction": (
        "a pair low <= high in [0, 1]",  # so no number is above 1 or above high
        lambda v, profile: v <= min(1, profile.params["fog_scatter_fraction"][1])),
    "subsample_keep": ("in (0, 1]", lambda v, profile: 0 < v <= 1),
    "crosstalk.fraction": ("in [0, 1]", lambda v, profile: v <= 1),
    "incomplete_echo.fraction": ("in [0, 1]", lambda v, profile: v <= 1),
    "beam_missing.beams_dropped": ("a whole number in [0, {beam_count}]",
                                   lambda v, profile: v <= profile.beam_count),
    "cross_sensor.beams_kept": ("a whole number in [1, {beam_count}]",
                                lambda v, profile: 1 <= v <= profile.beam_count),
    "ransac_iterations": ("a whole number >= 1", lambda v, profile: v >= 1),
}


def _profile_source(directory: Optional[str | Path]) -> dict:
    """`directory`'s profile tables, or the built-in ones; ProfileError names
    a table file that cannot be read, is not JSON or has no "profiles" table."""
    root = resources.files("lidarcorrupt") / "data" if directory is None else Path(directory)
    path = root / "profiles.json"
    try:
        source = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ProfileError(f"cannot load profile tables {path}: {exc}") from exc
    if not isinstance(source, dict) or not isinstance(source.get("profiles"), dict):
        raise ProfileError(f'profile tables {path} have no "profiles" table')
    return source


def available_profiles(directory: Optional[str | Path] = None) -> list[str]:
    return sorted(_profile_source(directory)["profiles"])


def load_profile(
    name: str, directory: Optional[str | Path] = None
) -> DatasetProfile:
    """Load a named dataset profile from the built-in tables, or `directory`'s:
    its entry's keys over the ``defaults`` table, and each key not a field in `params`.

    Raises:
        ProfileError: unknown name, unreadable tables, or an entry with a
            missing, unknown or malformed key.
    """
    source = _profile_source(directory)
    try:
        raw = source["profiles"][name.lower()]
    except KeyError as exc:
        raise ProfileError(
            f"unknown profile {name!r}; available: {sorted(source['profiles'])}"
        ) from exc
    try:
        params = {**source.get("defaults", {}), **raw}
        given = {f.name: params.pop(f.name) for f in fields(DatasetProfile)
                 if f.name not in ("name", "params")}
        return DatasetProfile(name=name.lower(), params=params, **given)
    except KeyError as exc:
        raise ProfileError(f"profile {name!r} has no {exc.args[0]!r} field") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProfileError(f"profile {name!r} is malformed: {exc}") from exc
