"""Core data containers shared across the toolkit.

A scan is held as a :class:`PointCloud` (float32 coordinates and intensity,
optional per-point ring index), per-point annotations as a
:class:`LabelArray`, and 3D box annotations as a :class:`BoxSet`. All three
are thin wrappers over numpy arrays; every operation in the package treats
them as immutable and returns new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CorruptScanError

__all__ = ["PointCloud", "LabelArray", "Box", "BoxSet"]

# Operators take intensities in [0, 1]; a value above 1 + this is out of contract.
INTENSITY_TOLERANCE = 1e-6


def row_indices(index: np.ndarray, n: int) -> np.ndarray:
    """`index` into n rows as integer indices, a mask (of length n, else
    IndexError) as its True positions: `take` at them gathers the same rows
    as plain indexing, several times faster than a boolean select."""
    index = np.asarray(index)
    if index.dtype == bool and index.shape != (n,):
        raise IndexError(f"boolean index of shape {index.shape} for {n} rows")
    return np.flatnonzero(index) if index.dtype == bool else index


@dataclass(frozen=True)
class PointCloud:
    """One LiDAR scan: N points with coordinates, intensity, optional ring.

    Attributes:
        xyz: (N, 3) float32 coordinates in meters.
        intensity: (N,) float32 return intensity, raw sensor units as stored.
        ring: optional (N,) int32 beam/ring index of each point.
        frame_id: opaque identifier, usually the file stem.
    """

    xyz: np.ndarray
    intensity: np.ndarray
    ring: Optional[np.ndarray] = None
    frame_id: str = ""

    def __post_init__(self) -> None:
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float32).reshape(-1, 3)
        intensity = np.ascontiguousarray(self.intensity, dtype=np.float32).reshape(-1)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", intensity)
        if len(intensity) != len(xyz):
            raise ValueError(
                f"intensity length {len(intensity)} != point count {len(xyz)}"
            )
        if self.ring is not None:
            ring = np.ascontiguousarray(self.ring, dtype=np.int32).reshape(-1)
            if len(ring) != len(xyz):
                raise ValueError(f"ring length {len(ring)} != point count {len(xyz)}")
            object.__setattr__(self, "ring", ring)
        if not np.isfinite(xyz).all() or not np.isfinite(intensity).all():
            bad = np.flatnonzero(
                ~(np.isfinite(xyz).all(axis=1) & np.isfinite(intensity))
            )
            raise CorruptScanError(f"non-finite value at point index {bad[0]}")

    def __len__(self) -> int:
        return len(self.xyz)

    def select(self, index: np.ndarray) -> "PointCloud":
        """Return the sub-cloud at `index` (mask or integer indices), order kept."""
        idx = row_indices(index, len(self))
        return PointCloud(
            xyz=self.xyz.take(idx, axis=0),
            intensity=self.intensity.take(idx),
            ring=None if self.ring is None else self.ring.take(idx),
            frame_id=self.frame_id,
        )

    def with_fields(
        self,
        xyz: Optional[np.ndarray] = None,
        intensity: Optional[np.ndarray] = None,
    ) -> "PointCloud":
        """Copy with replaced coordinates and/or intensity."""
        return PointCloud(
            xyz=self.xyz if xyz is None else xyz,
            intensity=self.intensity if intensity is None else intensity,
            ring=self.ring,
            frame_id=self.frame_id,
        )

    def equals(self, other: "PointCloud") -> bool:
        """Bitwise equality of coordinates, intensity, and ring."""
        if len(self) != len(other):
            return False
        same = np.array_equal(
            self.xyz.view(np.uint32), other.xyz.view(np.uint32)
        ) and np.array_equal(
            self.intensity.view(np.uint32), other.intensity.view(np.uint32)
        )
        if self.ring is None or other.ring is None:
            return same and (self.ring is None) == (other.ring is None)
        return same and np.array_equal(self.ring, other.ring)


@dataclass(frozen=True)
class LabelArray:
    """Per-point semantic and instance labels, index-aligned with a cloud."""

    semantic: np.ndarray
    instance: np.ndarray

    def __post_init__(self) -> None:
        semantic = np.ascontiguousarray(self.semantic, dtype=np.uint16).reshape(-1)
        instance = np.ascontiguousarray(self.instance, dtype=np.uint16).reshape(-1)
        if len(semantic) != len(instance):
            raise ValueError(
                f"semantic length {len(semantic)} != instance length {len(instance)}"
            )
        object.__setattr__(self, "semantic", semantic)
        object.__setattr__(self, "instance", instance)

    def __len__(self) -> int:
        return len(self.semantic)

    def select(self, index: np.ndarray) -> "LabelArray":
        idx = row_indices(index, len(self))
        return LabelArray(self.semantic.take(idx), self.instance.take(idx))

    def with_semantic(self, semantic: np.ndarray) -> "LabelArray":
        return LabelArray(semantic, self.instance)

    def equals(self, other: "LabelArray") -> bool:
        return np.array_equal(self.semantic, other.semantic) and np.array_equal(
            self.instance, other.instance
        )


@dataclass(frozen=True)
class Box:
    """Oriented 3D box: center, length/width/height, yaw about +z, class id.

    Every value must be finite and the dimensions strictly positive; yaw
    is normalized to (-pi, pi].
    """

    center: tuple[float, float, float]
    lwh: tuple[float, float, float]
    yaw: float
    class_id: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.center, *self.lwh, self.yaw))):
            raise ValueError("non-finite geometry")
        if min(self.lwh) <= 0:
            raise ValueError(f"box dimensions must be positive, got {self.lwh}")
        yaw = math.remainder(self.yaw, 2.0 * math.pi)
        if yaw <= -math.pi:
            yaw += 2.0 * math.pi
        object.__setattr__(self, "yaw", yaw)


@dataclass(frozen=True)
class BoxSet:
    """A frame's 3D box annotations. Never altered by any corruption."""

    boxes: tuple[Box, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def contains(
        self, xyz: np.ndarray, class_ids: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Mask of points inside any box (optionally restricted to classes).

        Points are tested in the cloud's frame: the box z axis is vertical,
        length runs along the yaw direction. A box tests only the points
        within `reach` of its centre in x and y, by the same float64 steps, so
        the mask is that of testing all: a point inside is within the half
        diagonal in x and y up to <8 ulp of rotation rounding, and `reach` adds
        a relative 2**-40 for it and an absolute 2**-1000 for underflow.
        """
        pts = np.asarray(xyz, dtype=np.float64)
        inside = np.zeros(len(pts), dtype=bool)
        for box in self.boxes:
            if class_ids is not None and box.class_id not in class_ids:
                continue
            l, w, h = box.lwh
            reach = 0.5 * math.hypot(l, w) * (1 + 2**-40) + 2**-1000
            near = np.flatnonzero(np.abs(pts[:, 0] - box.center[0]) <= reach)
            near = near[np.abs(pts[near, 1] - box.center[1]) <= reach]
            d = pts[near] - np.asarray(box.center)
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            local_x = c * d[:, 0] + s * d[:, 1]
            local_y = -s * d[:, 0] + c * d[:, 1]
            inside[near] |= (
                (np.abs(local_x) <= l / 2)
                & (np.abs(local_y) <= w / 2)
                & (np.abs(d[:, 2]) <= h / 2)
            )
        return inside
