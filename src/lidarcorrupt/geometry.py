"""Geometric primitives shared by the corruption operators.

Covers range computation, RANSAC ground-plane fitting (with least-squares
refinement), beam partitioning (ring passthrough or elevation-quantile
clustering), and fixed/flexible voxelization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import NoPlaneError
from .profiles import DatasetProfile
from .rng import make_rng
from .types import LabelArray, PointCloud

__all__ = [
    "point_ranges",
    "GroundModel",
    "lstsq_plane",
    "fit_ground_ransac",
    "ground_mask_from_labels",
    "BeamPartition",
    "partition_beams",
    "VoxelConfig",
    "voxelize_fixed",
    "voxelize_flexible",
]


def point_ranges(xyz: np.ndarray) -> np.ndarray:
    """Euclidean distance from the sensor origin of each row of an (N, 3)
    array, as an (N,) float64 array."""
    return np.linalg.norm(np.asarray(xyz, dtype=np.float64), axis=1)


@dataclass(frozen=True)
class GroundModel:
    """Ground plane a*x + b*y + c*z + d = 0 with unit normal (a, b, c), and
    the ground points. `plane` is None when fewer than 3 points define none."""

    plane: Optional[tuple[float, float, float, float]]
    inlier_mask: np.ndarray

    @classmethod
    def from_mask(cls, xyz: np.ndarray, mask: np.ndarray) -> "GroundModel":
        """The labelled ground `xyz[mask]` and its least-squares plane."""
        fit = lstsq_plane(xyz, mask)
        plane = None if fit is None else (*(float(v) for v in fit[0]), fit[1])
        return cls(plane=plane, inlier_mask=mask)

    @property
    def normal(self) -> np.ndarray:
        """The plane's unit normal; ValueError when there is no plane."""
        if self.plane is None:
            raise ValueError("ground model has no plane (fewer than 3 ground points)")
        return np.asarray(self.plane[:3], dtype=np.float64)

    def distances(self, xyz: np.ndarray) -> np.ndarray:
        """Unsigned point-to-plane distances; ValueError when there is no plane."""
        pts = np.asarray(xyz, dtype=np.float64)
        return np.abs(pts @ self.normal + self.plane[3])


def lstsq_plane(
    xyz: np.ndarray, mask: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """Least-squares plane (upward unit normal, d) through `xyz[mask]`, or None
    under 3 points. The masked copy is centred in place: one copy, not two."""
    pts = xyz[mask].astype(np.float64, copy=False)
    if len(pts) < 3:
        return None
    centroid = pts.mean(axis=0)
    pts -= centroid
    normal = np.linalg.svd(pts, full_matrices=False)[2][-1]
    if normal[2] < 0:
        normal = -normal
    return normal, -float(normal @ centroid)


# Rows of points scored against all RANSAC hypotheses per matmul. Bounds the
# scoring buffer at _RANSAC_BLOCK x iterations float64 values. At most 65535,
# so a block's count per hypothesis fits the uint16 it is summed in.
_RANSAC_BLOCK = 256


def _inlier_counts(
    pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray, threshold: float
) -> np.ndarray:
    """Per hypothesis, the number of points within `threshold` of its plane.

    `normals` is (3, H) and `offsets` (H,). Points are scored in fixed row
    blocks through reused buffers, so memory stays bounded for any N. The
    offset rides in the matmul as `[x y z 1] @ [n; d]`: the kernel sums the
    terms in order, so it adds `1 * d` last, exactly as `+ d` after it would.
    """
    planes = np.vstack([normals, offsets])
    rows = min(_RANSAC_BLOCK, len(pts))
    coords, buf = np.ones((rows, 4)), np.empty((rows, planes.shape[1]))
    counts = np.zeros(planes.shape[1], dtype=np.int64)
    for start in range(0, len(pts), _RANSAC_BLOCK):
        k = min(_RANSAC_BLOCK, len(pts) - start)
        coords[:k, :3] = pts[start:start + k]
        dist = np.matmul(coords[:k], planes, out=buf[:k])
        np.abs(dist, out=dist)
        counts += (dist <= threshold).view(np.uint8).sum(axis=0, dtype=np.uint16)
    return counts


def fit_ground_ransac(
    pc: PointCloud,
    iterations: int = 200,
    inlier_threshold: float = 0.15,
    seed: int = 0,
) -> GroundModel:
    """Fit the dominant plane by RANSAC over sampled point triples.

    The best-supported sample (the first one on ties) is refined by a
    least-squares fit on its inliers; the refit is kept only if it does not
    lose support. The normal is oriented upward (c >= 0) and the returned
    inlier mask is consistent with the final plane. The triples are drawn
    one `choice` per iteration and crossed in one elementwise `np.cross`;
    the norms and offsets stay per-row dot products, as in a loop per triple.

    Raises:
        NoPlaneError: fewer than 3 points, or every sampled triple collinear.
    """
    pts = pc.xyz.astype(np.float64)
    n = len(pts)
    if n < 3:
        raise NoPlaneError(f"need at least 3 points to fit a plane, got {n}")
    rng = make_rng("ransac", seed)

    triples = pts[np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])]
    p0, p1, p2 = triples.transpose(1, 0, 2)
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.array([np.linalg.norm(normal) for normal in normals])
    valid = norms >= 1e-12
    if not valid.any():
        raise NoPlaneError("all sampled triples were degenerate (collinear points)")
    normals = normals[valid] / norms[valid, None]
    offsets = np.array([-float(normal @ p) for normal, p in zip(normals, p0[valid])])

    counts = _inlier_counts(pts, normals.T, offsets, inlier_threshold)
    best = int(np.argmax(counts))
    best_normal, best_d, best_count = normals[best], offsets[best], int(counts[best])

    mask = np.abs(pts @ best_normal + best_d) <= inlier_threshold
    refit = lstsq_plane(pts, mask)
    if refit is not None:
        refit_normal, refit_d = refit
        refit_mask = np.abs(pts @ refit_normal + refit_d) <= inlier_threshold
        if refit_mask.sum() >= best_count:
            best_normal, best_d, mask = refit_normal, refit_d, refit_mask

    if best_normal[2] < 0:
        best_normal, best_d = -best_normal, -best_d
    a, b, c = (float(v) for v in best_normal)
    return GroundModel(plane=(a, b, c, float(best_d)), inlier_mask=mask)


def ground_mask_from_labels(labels: LabelArray, profile: DatasetProfile) -> np.ndarray:
    """True where the semantic label belongs to the profile's ground classes."""
    return np.isin(labels.semantic, np.array(sorted(profile.ground_classes), dtype=np.int64))


@dataclass(frozen=True)
class BeamPartition:
    """Per-point beam assignment; beam 0 is the highest-elevation beam."""

    beam_of: np.ndarray
    beam_count: int

    @cached_property
    def ranks(self) -> np.ndarray:
        """Each point's position among its beam's points, in cloud order."""
        # A stable sort groups each beam's points in original order; a point's
        # rank within its beam is its offset from the beam's first position.
        order = np.argsort(self.beam_of, kind="stable")
        beams = self.beam_of[order]
        position = np.arange(len(beams))
        first = np.ones(len(beams), dtype=bool)
        first[1:] = beams[1:] != beams[:-1]
        ranks = np.empty_like(position)
        ranks[order] = position - np.maximum.accumulate(np.where(first, position, 0))
        return ranks


def partition_beams(pc: PointCloud, beam_count: int) -> BeamPartition:
    """Assign every point to one of `beam_count` beams.

    Uses the ring channel verbatim when present. Otherwise points are bucketed
    into `beam_count` equal-count bins of elevation angle asin(z / range),
    with beam ids ordered by descending elevation.
    """
    if pc.ring is not None:
        return BeamPartition(beam_of=pc.ring.astype(np.int64), beam_count=beam_count)
    if len(pc) == 0:
        return BeamPartition(beam_of=np.zeros(0, dtype=np.int64), beam_count=beam_count)

    xyz = pc.xyz.astype(np.float64)
    ranges = np.linalg.norm(xyz, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_elev = np.where(ranges > 0, xyz[:, 2] / np.maximum(ranges, 1e-300), 0.0)
    elevation = np.arcsin(np.clip(sin_elev, -1.0, 1.0))

    quantiles = np.arange(1, beam_count) / beam_count
    boundaries = np.quantile(elevation, quantiles)
    bins = np.searchsorted(boundaries, elevation, side="right")
    beam_of = (beam_count - 1 - bins).astype(np.int64)
    return BeamPartition(beam_of=beam_of, beam_count=beam_count)


@dataclass(frozen=True)
class VoxelConfig:
    """Voxel sizes per axis (meters) and jitter half-width gamma.

    gamma must satisfy 0 <= gamma < min(l) / 2 so jittered sizes stay
    positive.
    """

    l: tuple[float, float, float]
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if min(self.l) <= 0:
            raise ValueError(f"voxel sizes must be positive, got {self.l}")
        if not 0 <= self.gamma < min(self.l) / 2:
            raise ValueError(
                f"gamma must be in [0, min(l)/2) = [0, {min(self.l) / 2}), got {self.gamma}"
            )


def _floor_coords(xyz: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    pts = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    return np.floor(pts / sizes).astype(np.int64)


def voxelize_fixed(pc: Union[PointCloud, np.ndarray], cfg: VoxelConfig) -> np.ndarray:
    """Integer voxel coordinates floor(p / l), component-wise."""
    xyz = pc.xyz if isinstance(pc, PointCloud) else pc
    return _floor_coords(xyz, np.asarray(cfg.l, dtype=np.float64))


def voxelize_flexible(
    pc: Union[PointCloud, np.ndarray], cfg: VoxelConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Voxelize with per-call jittered sizes l + dv, dv ~ U(-gamma, gamma)^3.

    One offset triple is drawn per call (per frame, not per point), so all
    points of a frame share a single voxel grid. Returns (coords, sizes).
    With gamma = 0 the output is identical to `voxelize_fixed`.
    """
    rng = make_rng("flexible-voxel", seed)
    dv = rng.uniform(-cfg.gamma, cfg.gamma, size=3)
    sizes = np.asarray(cfg.l, dtype=np.float64) + dv
    xyz = pc.xyz if isinstance(pc, PointCloud) else pc
    return _floor_coords(xyz, sizes), sizes
