"""Bit-exact codecs for benchmark scan/label formats plus dataset iteration.

Formats:
  * KITTI-style scan (``.bin``): packed little-endian float32 records
    ``[x, y, z, intensity]``.
  * nuScenes scan (``.bin``): packed little-endian float32 records
    ``[x, y, z, intensity, ring]``; the ring channel stores the beam index
    as an integral float.
  * SemanticKITTI label (``.label``): little-endian uint32 words with the
    semantic id in the low 16 bits and the instance id in the high 16 bits.
  * KITTI object boxes (``.txt``): whitespace-delimited text rows per the
    KITTI object convention (geometry and class only; score/truncation/
    occlusion columns are ignored).

All codecs are pure functions over byte strings and are safe to call
concurrently. Decoders reject non-finite values instead of propagating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .errors import CorruptScanError, MalformedScanError, PairingError
from .profiles import DatasetProfile
from .types import Box, BoxSet, LabelArray, PointCloud

__all__ = [
    "read_kitti_scan",
    "write_kitti_scan",
    "read_nuscenes_scan",
    "write_nuscenes_scan",
    "read_semkitti_labels",
    "write_semkitti_labels",
    "read_kitti_boxes",
    "write_kitti_boxes",
    "DatasetFrame",
    "iterate_dataset",
    "KITTI_CLASS_IDS",
]

# KITTI object type -> small integer class id (parser-local convention).
KITTI_CLASS_IDS = {
    "Car": 0,
    "Van": 1,
    "Truck": 2,
    "Pedestrian": 3,
    "Person_sitting": 4,
    "Cyclist": 5,
    "Tram": 6,
    "Misc": 7,
}
_KITTI_CLASS_NAMES = {v: k for k, v in KITTI_CLASS_IDS.items()}


def _decode_floats(data: bytes, channels: int, what: str) -> np.ndarray:
    record = 4 * channels
    if len(data) % record != 0:
        raise MalformedScanError(
            f"{what}: byte length {len(data)} is not a multiple of {record}"
        )
    return np.frombuffer(data, dtype="<f4").reshape(-1, channels)


def read_kitti_scan(data: bytes, frame_id: str = "") -> PointCloud:
    """Decode a 4-channel KITTI-style scan. Raises on bad length or NaN/Inf."""
    raw = _decode_floats(data, 4, "kitti scan")
    return PointCloud(xyz=raw[:, :3], intensity=raw[:, 3], frame_id=frame_id)


def write_kitti_scan(pc: PointCloud) -> bytes:
    """Encode to packed [x, y, z, intensity] float32; inverse of read."""
    out = np.empty((len(pc), 4), dtype="<f4")
    out[:, :3] = pc.xyz
    out[:, 3] = pc.intensity
    return out.tobytes()


def read_nuscenes_scan(data: bytes, frame_id: str = "", beam_count: int = 32) -> PointCloud:
    """Decode a 5-channel nuScenes scan; the 5th channel becomes the ring index."""
    raw = _decode_floats(data, 5, "nuscenes scan")
    ring = np.rint(raw[:, 4]).astype(np.int32)
    bad = np.flatnonzero((ring < 0) | (ring >= beam_count))
    if bad.size:
        raise CorruptScanError(
            f"ring index {ring[bad[0]]} outside [0, {beam_count}) at point {bad[0]}"
        )
    return PointCloud(xyz=raw[:, :3], intensity=raw[:, 3], ring=ring, frame_id=frame_id)


def write_nuscenes_scan(pc: PointCloud) -> bytes:
    """Encode to packed [x, y, z, intensity, ring] float32. Requires a ring channel."""
    if pc.ring is None:
        raise ValueError("cloud has no ring channel; cannot encode nuScenes scan")
    out = np.empty((len(pc), 5), dtype="<f4")
    out[:, :3] = pc.xyz
    out[:, 3] = pc.intensity
    out[:, 4] = pc.ring
    return out.tobytes()


def read_semkitti_labels(data: bytes) -> LabelArray:
    """Decode packed 32-bit label words (semantic low half, instance high half)."""
    if len(data) % 4 != 0:
        raise MalformedScanError(
            f"label stream: byte length {len(data)} is not a multiple of 4"
        )
    # A little-endian word stores its low (semantic) half first.
    halves = np.frombuffer(data, dtype="<u2").reshape(-1, 2)
    return LabelArray(semantic=halves[:, 0], instance=halves[:, 1])


def write_semkitti_labels(labels: LabelArray) -> bytes:
    """Pack to 32-bit label words; lossless inverse of read."""
    words = labels.semantic.astype(np.uint32) | (
        labels.instance.astype(np.uint32) << np.uint32(16)
    )
    return words.astype("<u4").tobytes()


def read_kitti_boxes(text: str) -> BoxSet:
    """Parse KITTI object label text into a BoxSet.

    Only geometry and class are used: dimensions (h, w, l), location
    (bottom-center, lifted to the geometric center), and rotation as yaw.
    Boxes are taken at face value in the cloud's frame; labels still in the
    camera frame must be transformed by the caller. `DontCare` rows carry no
    valid geometry and are skipped.
    """
    boxes = []
    for lineno, line in enumerate(text.splitlines()):
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "DontCare":
            continue
        if len(fields) < 15:
            raise MalformedScanError(
                f"box label line {lineno}: expected 15+ fields, got {len(fields)}"
            )
        if fields[0] not in KITTI_CLASS_IDS:
            raise MalformedScanError(f"box label line {lineno}: unknown type {fields[0]!r}")
        h, w, l = (float(v) for v in fields[8:11])
        x, y, z = (float(v) for v in fields[11:14])
        yaw = float(fields[14])
        boxes.append(
            Box(
                center=(x, y, z + h / 2.0),
                lwh=(l, w, h),
                yaw=yaw,
                class_id=KITTI_CLASS_IDS[fields[0]],
            )
        )
    return BoxSet(tuple(boxes))


def write_kitti_boxes(boxes: BoxSet) -> str:
    """Render a BoxSet back to KITTI object label text (geometry columns only)."""
    lines = []
    for b in boxes:
        name = _KITTI_CLASS_NAMES.get(b.class_id, "Misc")
        l, w, h = b.lwh
        x, y, z = b.center
        lines.append(
            f"{name} 0 0 0 0 0 0 0 "
            f"{h:.6f} {w:.6f} {l:.6f} {x:.6f} {y:.6f} {z - h / 2.0:.6f} {b.yaw:.6f}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class DatasetFrame:
    """One dataset entry: cloud plus whatever annotations were found."""

    frame_id: str
    cloud: PointCloud
    labels: Optional[LabelArray] = None
    boxes: Optional[BoxSet] = None


def _scan_dir(root: Path) -> Path:
    velo = root / "velodyne"
    return velo if velo.is_dir() else root


def iterate_dataset(root: str | Path, profile: DatasetProfile) -> Iterator[DatasetFrame]:
    """Yield frames from a dataset directory in lexicographic frame-id order.

    Layout: scans as ``velodyne/*.bin`` (or flat ``*.bin`` under `root`),
    packed labels as ``labels/<stem>.label``, box annotations as
    ``boxes/<stem>.txt``. Labels are mandatory when the profile requires
    them; otherwise labels/boxes are attached when their directory exists.
    Intensities are scaled by the profile's `intensity_scale` so downstream
    operators always see the [0, 1] convention.

    Raises:
        PairingError: missing or misaligned label/box file for a scan.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    scan_dir = _scan_dir(root)
    label_dir = root / "labels"
    box_dir = root / "boxes"
    five_channel = profile.name == "nuscenes"

    for scan_path in sorted(scan_dir.glob("*.bin")):
        stem = scan_path.stem
        data = scan_path.read_bytes()
        if five_channel:
            cloud = read_nuscenes_scan(data, frame_id=stem, beam_count=profile.beam_count)
        else:
            cloud = read_kitti_scan(data, frame_id=stem)
        if profile.intensity_scale != 1.0:
            cloud = cloud.with_fields(
                intensity=(cloud.intensity / profile.intensity_scale).astype(np.float32)
            )

        labels = None
        if label_dir.is_dir() or profile.requires_labels:
            label_path = label_dir / f"{stem}.label"
            if not label_path.is_file():
                if profile.requires_labels:
                    raise PairingError(f"frame {stem}: missing label file {label_path}")
            else:
                labels = read_semkitti_labels(label_path.read_bytes())
                if len(labels) != len(cloud):
                    raise PairingError(
                        f"frame {stem}: {len(labels)} labels for {len(cloud)} points"
                    )

        boxes = None
        if box_dir.is_dir():
            box_path = box_dir / f"{stem}.txt"
            if not box_path.is_file():
                raise PairingError(f"frame {stem}: missing box file {box_path}")
            boxes = read_kitti_boxes(box_path.read_text())

        yield DatasetFrame(frame_id=stem, cloud=cloud, labels=labels, boxes=boxes)
