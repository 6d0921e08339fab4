"""Dataset profiles: per-dataset corruption parameters and class-id sets.

The built-in tables live in ``data/profiles.json`` (editable, versioned).
Each profile carries the sensor beam count, the severity parameter triples
for all eight corruptions, the semantic class-id sets used by ground and
vehicle queries, and the synthetic class ids assigned to injected fog, snow,
and crosstalk points. A different table directory can be selected with the
``LIDARCORRUPT_PROFILES`` environment variable or per call.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional

from .errors import ProfileError

__all__ = [
    "CorruptionKind",
    "Severity",
    "DatasetProfile",
    "load_profile",
    "available_profiles",
    "PROFILE_DIR_ENV",
]

PROFILE_DIR_ENV = "LIDARCORRUPT_PROFILES"


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

    @property
    def index(self) -> int:
        return ("light", "moderate", "heavy").index(self.value)


@dataclass(frozen=True)
class DatasetProfile:
    """All per-dataset constants needed to corrupt and score one dataset.

    `severity` maps corruption name -> parameter name -> value. Parameter
    names ending in ``_axis`` are frame-level sampling axes; every other
    entry is a [light, moderate, heavy] triple. `params` holds dataset-wide
    engineering constants (noise floors, sigma defaults, RANSAC settings).
    No number in either, nor `beam_count` or `intensity_scale`, may be
    negative, and some have a narrower range (`_RANGES`); a value out of
    range raises ProfileError.
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
    severity: Mapping[str, Mapping[str, Any]]
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        injected = self.injected_classes()
        for name, classes in (
            ("ground_classes", self.ground_classes),
            ("vehicle_classes", self.vehicle_classes),
        ):
            overlap = injected & set(classes)
            if overlap:
                raise ProfileError(
                    f"{self.name}: {name} overlaps injected class ids {sorted(overlap)}"
                )
        entries = {f"{kind}.{pname}": value  # a triple, or an axis when named so
                   for kind, table in self.severity.items() for pname, value in table.items()}
        for key, value in entries.items():
            expected = _expected_shape(key, [0, 0, 0], value)
            if expected is not None:
                raise ProfileError(f"{self.name}: {key} must be {expected}, got {value!r}")
        sensor = {"beam_count": self.beam_count, "intensity_scale": self.intensity_scale}
        for key, value in {**sensor, **self.params, **entries}.items():
            rule, allowed = _RANGES.get(key, (">= 0", lambda v, profile: True))
            values = value if isinstance(value, (list, tuple)) else [value]
            if not all(v >= 0 and allowed(v, self) for v in values if _is_number(v)):
                rule = rule.format(beam_count=self.beam_count)
                raise ProfileError(f"{self.name}: {key} must be {rule}, got {value!r}")

    def severity_value(self, kind: CorruptionKind, severity: Severity, param: str):
        """The value of `param` for `kind` at `severity` (axes returned whole)."""
        try:
            table = self.severity[kind.value]
            value = table[param]
        except KeyError as exc:
            raise ProfileError(
                f"profile {self.name!r} has no {kind.value}.{param} entry"
            ) from exc
        if param.endswith("_axis"):
            return list(value)
        return value[severity.index]

    def param(self, name: str):
        try:
            return self.params[name]
        except KeyError as exc:
            raise ProfileError(f"profile {self.name!r} has no parameter {name!r}") from exc

    def injected_classes(self) -> frozenset[int]:
        return frozenset(
            c for c in (self.fog_class, self.snow_class, self.crosstalk_class)
            if c is not None
        )

    def with_overrides(self, overrides: Mapping[str, Any]) -> "DatasetProfile":
        """Copy with parameters replaced.

        Plain keys update `params`; dotted keys like ``fog.beta_bs`` replace a
        severity-table entry. A value must have the shape of the one it
        replaces: a number for a number, a list of as many numbers for a
        list (a severity triple, for instance), and a nonempty list of
        numbers for an ``_axis``. NaN and infinity are not numbers here.

        Raises:
            ProfileError: a key names no existing parameter or table entry
                (the message lists the valid keys), or a value has the
                wrong shape or is out of range.
        """
        params = dict(self.params)
        severity = {k: dict(v) for k, v in self.severity.items()}
        for key, value in overrides.items():
            if "." in key:
                kind_name, pname = key.split(".", 1)
                if kind_name not in severity:
                    raise ProfileError(f"unknown corruption {kind_name!r} in override {key!r}")
                table = severity[kind_name]
            else:
                pname, table = key, params
            if pname not in table:
                valid = sorted(params) + sorted(
                    f"{kind}.{name}" for kind, entries in severity.items() for name in entries
                )
                raise ProfileError(
                    f"unknown override key {key!r} for profile {self.name!r}; "
                    f"valid keys: {', '.join(valid)}"
                )
            expected = _expected_shape(key, table[pname], value)
            if expected is not None:
                raise ProfileError(f"override {key!r} must be {expected}, got {value!r}")
            table[pname] = value
        return replace(self, params=params, severity=severity)


def _is_number(value: Any) -> bool:
    """An int or a finite float: NaN and infinity are not parameter values."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _whole(value: Any) -> bool:
    return float(value).is_integer()


# The range of a profile value beyond the rule that no value is negative:
# key -> (the range in words, whether one number `v` of `profile` is in it).
_RANGES = {
    "beam_count": ("a whole number >= 1", lambda v, profile: _whole(v) and v >= 1),
    "intensity_scale": ("> 0", lambda v, profile: v > 0),
    "fog_beta_0": ("> 0", lambda v, profile: v > 0),
    "fog_response_distance": ("> 0", lambda v, profile: v > 0),
    "subsample_keep": ("in (0, 1]", lambda v, profile: 0 < v <= 1),
    "crosstalk.fraction": ("in [0, 1]", lambda v, profile: v <= 1),
    "incomplete_echo.fraction": ("in [0, 1]", lambda v, profile: v <= 1),
    "beam_missing.beams_dropped": ("a whole number in [0, {beam_count}]",
                                   lambda v, profile: _whole(v) and v <= profile.beam_count),
    "cross_sensor.beams_kept": ("a whole number in [1, {beam_count}]",
                                lambda v, profile: _whole(v) and 1 <= v <= profile.beam_count),
    "ransac_iterations": ("a whole number >= 1", lambda v, profile: _whole(v) and v >= 1),
}


def _expected_shape(key: str, old: Any, new: Any) -> Optional[str]:
    """What override `key` must be to replace `old`, or None when `new` is that."""
    numbers = isinstance(new, (list, tuple)) and all(_is_number(v) for v in new)
    if key.endswith("_axis"):
        return None if numbers and len(new) > 0 else "a nonempty list of numbers"
    if isinstance(old, (list, tuple)):
        if numbers and len(new) == len(old):
            return None
        if "." in key:
            return "a 3-entry severity triple of numbers"
        return f"a list of {len(old)} numbers"
    if _is_number(old) and not _is_number(new):
        return "a number"
    return None


def _profile_source(directory: Optional[str | Path]) -> dict:
    """The profile tables; ProfileError names a table file that cannot be
    read, is not JSON or has no "profiles" table."""
    if directory is None:
        directory = os.environ.get(PROFILE_DIR_ENV)
    if directory is None:
        return json.loads(
            resources.files("lidarcorrupt").joinpath("data/profiles.json").read_text()
        )
    path = Path(directory) / "profiles.json"
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
    """Load a named dataset profile from the built-in (or overridden) tables.

    Raises:
        ProfileError: unknown name, unreadable tables, or an entry with a
            missing or malformed field.
    """
    source = _profile_source(directory)
    try:
        raw = source["profiles"][name.lower()]
    except KeyError as exc:
        raise ProfileError(
            f"unknown profile {name!r}; available: {sorted(source['profiles'])}"
        ) from exc
    try:
        params = dict(source.get("defaults", {}))
        params.update(raw.get("params", {}))
        return DatasetProfile(
            name=name.lower(),
            beam_count=int(raw["beam_count"]),
            intensity_scale=float(raw["intensity_scale"]),
            ignore_label=int(raw["ignore_label"]),
            fog_class=raw["fog_class"],
            snow_class=raw["snow_class"],
            crosstalk_class=raw["crosstalk_class"],
            ground_classes=frozenset(raw["ground_classes"]),
            vehicle_classes=frozenset(raw["vehicle_classes"]),
            vehicle_box_classes=frozenset(raw["vehicle_box_classes"]),
            requires_labels=bool(raw["requires_labels"]),
            severity=raw["severity"],
            params=params,
        )
    except KeyError as exc:
        raise ProfileError(f"profile {name!r} has no {exc.args[0]!r} field") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProfileError(f"profile {name!r} is malformed: {exc}") from exc
