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
        for kind, table in self.severity.items():
            for pname, value in table.items():
                if pname.endswith("_axis"):
                    continue
                if not isinstance(value, (list, tuple)) or len(value) != 3:
                    raise ProfileError(
                        f"{self.name}: {kind}.{pname} must be a 3-entry severity triple"
                    )

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

    def injected_class(self, kind: CorruptionKind) -> Optional[int]:
        return {
            CorruptionKind.FOG: self.fog_class,
            CorruptionKind.SNOW: self.snow_class,
            CorruptionKind.CROSSTALK: self.crosstalk_class,
        }.get(kind)

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
        numbers for an ``_axis``.

        Raises:
            ProfileError: a key names no existing parameter or table entry
                (the message lists the valid keys), or a value has the
                wrong shape.
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
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    if directory is None:
        directory = os.environ.get(PROFILE_DIR_ENV)
    if directory is not None:
        text = (Path(directory) / "profiles.json").read_text()
    else:
        text = (
            resources.files("lidarcorrupt").joinpath("data/profiles.json").read_text()
        )
    return json.loads(text)


def available_profiles(directory: Optional[str | Path] = None) -> list[str]:
    return sorted(_profile_source(directory)["profiles"])


def load_profile(
    name: str, directory: Optional[str | Path] = None
) -> DatasetProfile:
    """Load a named dataset profile from the built-in (or overridden) tables."""
    source = _profile_source(directory)
    try:
        raw = source["profiles"][name.lower()]
    except KeyError as exc:
        raise ProfileError(
            f"unknown profile {name!r}; available: {sorted(source['profiles'])}"
        ) from exc
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
