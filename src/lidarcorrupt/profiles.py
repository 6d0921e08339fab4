"""Dataset profiles: per-dataset corruption parameters and class-id sets.

The built-in tables live in ``data/profiles.json`` (editable, versioned): an
entry per dataset, by ``--set`` names, over a ``defaults`` table of the
values all entries share.

A profile is checked whole when it is built, from a table or by
`with_overrides`, in one pass over `RULES`: the one table of every field and
`params` key, with its shape, its range in words, the test of that range and
whether it takes whole numbers. ProfileError reads ``PROFILE: KEY must be
...``, echoing the value as written, or names a missing or unknown key. Each
checked value is kept as its rule's type; the operators check their
keywords by the same rules.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .errors import ProfileError

__all__ = [
    "CorruptionKind",
    "Severity",
    "DatasetProfile",
    "KINDS",
    "RULES",
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

    `params` maps every `RULES` key that is no field to its value: a dotted
    key's is a [light, moderate, heavy] triple, or, ending in ``_axis``, a
    list that `corruptions.apply` draws one value from per frame and
    corruption. An empty `vehicle_classes` marks no point a vehicle, but an
    empty `vehicle_box_classes` counts every box as one. Building a profile
    checks it whole and raises ProfileError on the first fault.
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
        valid = [key for key in RULES if key not in vars(self)]  # the keys that are no field
        for what, keys in (("unknown", [key for key in self.params if key not in valid]),
                           ("missing", [key for key in valid if key not in self.params])):
            if keys:
                raise ProfileError(f"{self.name}: {what} key {keys[0]!r}; "
                                   f"valid keys: {', '.join(valid)}")
        typed = {}
        for key, rule in RULES.items():  # the fields first, so a beam rule reads the beam count
            value = self.params[key] if key in valid else vars(self)[key]
            try:
                typed[key] = rule.typed(key, value, typed.get("beam_count"))
            except ValueError as exc:
                raise ProfileError(f"{self.name}: {exc}") from None
        for key in vars(self).keys() & typed.keys():
            object.__setattr__(self, key, typed.pop(key))
        object.__setattr__(self, "params", typed)
        for name in ("ground_classes", "vehicle_classes"):
            overlap = self.injected_classes() & getattr(self, name)
            if overlap:
                raise ProfileError(f"{self.name}: {name} overlaps injected class ids "
                                   f"{sorted(overlap)}")

    def value_at(self, key: str, severity: Severity) -> Any:
        """`key`'s value at `severity`: a triple's entry, any other value whole."""
        value = self.params[key]
        return value[list(Severity).index(severity)] if RULES[key].shape == _TRIPLE else value

    def severity_params(self, kind: CorruptionKind, severity: Severity) -> dict:
        """`kind`'s severity entries at `severity`, keyed after the dot; each
        ``_axis`` whole."""
        return {key.partition(".")[2]: self.value_at(key, severity)
                for key in KINDS[kind].values() if "." in key}

    def injected_classes(self) -> frozenset[int]:
        return frozenset((self.fog_class, self.snow_class, self.crosstalk_class)) - {None}

    def with_overrides(self, overrides: Mapping[str, Any]) -> "DatasetProfile":
        """Copy with the `params` values of `overrides`' keys replaced. The
        copy is checked as every profile is.

        Raises:
            ProfileError: a key names no profile value, or a value has the
                wrong shape or is out of range.
        """
        return replace(self, params={**self.params, **overrides})


def _is_number(value: Any) -> bool:
    """A real number (numpy's too) that is a finite float: NaN, infinity, a
    boolean and an int too large for a float are not parameter values."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The shapes of a `params` value, as its message names them.
_NUMBER = "a number"
_PAIR = "a list of 2 numbers"
_TRIPLE = "a 3-entry severity triple of numbers"
_AXIS = "a nonempty list of numbers"
# The shapes of a field; a misshapen field's message names its range.
_FIELD = "one number"
_ID_OR_NULL = "one number or null"
_IDS = "a list of distinct numbers"
_FLAG = "true or false"


class Rule(NamedTuple):
    """A value's shape, its range in words, `test(v, beam_count)` of each of
    its numbers `v` >= 0 against that range, and whether it is whole."""

    shape: str
    words: str = ">= 0"
    test: Callable[[float, Optional[int]], bool] = lambda v, beams: True
    whole: bool = False

    def typed(self, name: str, value: Any, beam_count: Optional[int], entry: bool = False) -> Any:
        """`value` as an int if whole, else a float, alone, in a list or in a
        frozenset of ids; else ValueError ``NAME must be RULE, got VALUE``.
        An `entry` is what an operator takes: one number of a triple or axis."""
        shape = _NUMBER if entry and self.shape in (_TRIPLE, _AXIS) else self.shape
        if (shape == _FLAG and isinstance(value, bool)) or (shape == _ID_OR_NULL and value is None):
            return value
        listed = isinstance(value, (list, tuple, frozenset) if shape == _IDS else (list, tuple))
        values = list(value) if listed else [value]
        if (shape == _FLAG or listed != (shape in (_PAIR, _TRIPLE, _AXIS, _IDS))
                or len(values) != {_PAIR: 2, _TRIPLE: 3}.get(shape, len(values))
                or (shape == _AXIS and not values) or not all(map(_is_number, values))):
            fault = shape if shape in (_NUMBER, _PAIR, _TRIPLE, _AXIS) else self.words
        elif not (all(v >= 0 and (float(v).is_integer() or not self.whole)
                      and self.test(v, beam_count) for v in values)
                  and (shape != _PAIR or values[0] <= values[1])):
            fault = self.words.format(beam_count=beam_count)
        elif shape == _IDS and len(set(values)) < len(values):
            fault = "distinct ids"
        else:
            values = [int(v) if self.whole else abs(float(v)) for v in values]  # -0.0 is 0.0
            return frozenset(values) if shape == _IDS else values if listed else values[0]
        raise ValueError(f"{name} must be {fault}, got {value!r}")


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


def _is_class_id(v: float, beam_count: Optional[int]) -> bool:
    return v <= 65535


# Every profile key's rule, in the order a profile is checked (the fields
# first, so a beam rule reads a checked beam count) and a message lists the
# `params` keys: each operator's from `KINDS` (a number, a triple if dotted,
# an axis if ending in "_axis"; >= 0), then the RANSAC settings. A key of a
# narrower range is given again below, keeping its place.
RULES = {
    "beam_count": Rule(_FIELD, "a whole number >= 1", lambda v, beams: v >= 1, whole=True),
    "intensity_scale": Rule(_FIELD, "> 0", lambda v, beams: v > 0),
    "ignore_label": Rule(_FIELD, "a whole number in [0, 65535]", _is_class_id, whole=True),
    **dict.fromkeys(("fog_class", "snow_class", "crosstalk_class"), Rule(
        _ID_OR_NULL, "a whole number in [0, 65535] or null", _is_class_id, whole=True)),
    "ground_classes": Rule(_IDS, "whole numbers in [0, 65535]", _is_class_id, whole=True),
    "vehicle_classes": Rule(_IDS, "whole numbers in [0, 65535]", _is_class_id, whole=True),
    "vehicle_box_classes": Rule(_IDS, "whole numbers >= 0", whole=True),
    "requires_labels": Rule(_FLAG, "true or false"),
    **{key: Rule(_AXIS if key.endswith("_axis") else _TRIPLE if "." in key else _NUMBER)
       for table in KINDS.values() for key in table.values()},
    "ransac_iterations": Rule(_NUMBER, "a whole number >= 1", lambda v, beams: v >= 1, whole=True),
    "ransac_threshold": Rule(_NUMBER),
    "fog_beta_0": Rule(_NUMBER, "> 0", lambda v, beams: v > 0),
    "fog_response_distance": Rule(_NUMBER, "> 0", lambda v, beams: v > 0),
    "fog_scatter_fraction": Rule(_PAIR, "a pair low <= high in [0, 1]", lambda v, beams: v <= 1),
    "beam_missing.beams_dropped": Rule(_TRIPLE, "a whole number in [0, {beam_count}]",
                                       lambda v, beams: v <= beams, whole=True),
    "crosstalk.fraction": Rule(_TRIPLE, "in [0, 1]", lambda v, beams: v <= 1),
    "incomplete_echo.fraction": Rule(_TRIPLE, "in [0, 1]", lambda v, beams: v <= 1),
    "cross_sensor.beams_kept": Rule(_TRIPLE, "a whole number in [1, {beam_count}]",
                                    lambda v, beams: 1 <= v <= beams, whole=True),
    "subsample_keep": Rule(_NUMBER, "in (0, 1]", lambda v, beams: 0 < v <= 1),
    # A jitter that, times a standard normal from numpy (|z| < 14), stays
    # below float32's largest value, 3.4e38.
    "motion_blur.sigma_t": Rule(_TRIPLE, "in [0, 1e37]", lambda v, beams: v <= 1e37),
    "crosstalk_sigma": Rule(_NUMBER, "in [0, 1e37]", lambda v, beams: v <= 1e37),
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
