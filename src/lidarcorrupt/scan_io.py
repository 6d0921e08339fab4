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
from .types import INTENSITY_TOLERANCE, Box, BoxSet, LabelArray, PointCloud

__all__ = [
    "read_kitti_scan",
    "write_kitti_scan",
    "read_nuscenes_scan",
    "write_nuscenes_scan",
    "read_semkitti_labels",
    "write_semkitti_labels",
    "read_kitti_boxes",
    "write_kitti_boxes",
    "read_scan",
    "write_scan",
    "DatasetFrame",
    "frame_stems",
    "load_frame",
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


def read_scan(data: bytes, profile: DatasetProfile, frame_id: str = "") -> PointCloud:
    """Decode a scan in the profile's layout (nuScenes: 5 channels with the
    ring, others: 4), dividing intensity by the profile's `intensity_scale`.

    Raises:
        CorruptScanError: an intensity is above 1 after the division.
    """
    if profile.name == "nuscenes":
        cloud = read_nuscenes_scan(data, frame_id=frame_id, beam_count=profile.beam_count)
    else:
        cloud = read_kitti_scan(data, frame_id=frame_id)
    scale = profile.intensity_scale
    if scale != 1.0:
        cloud = cloud.with_fields(intensity=(cloud.intensity / scale).astype(np.float32))
    over = np.flatnonzero(cloud.intensity > 1.0 + INTENSITY_TOLERANCE)
    if over.size:
        i = over[0]
        raise CorruptScanError(
            f"intensity {float(cloud.intensity[i]) * scale:.6g} at point {i} is above "
            f"1 after dividing by the {profile.name} intensity_scale {scale:g}"
        )
    return cloud


def write_scan(cloud: PointCloud, profile: DatasetProfile) -> bytes:
    """Inverse of `read_scan`: a cloud with a ring (which only a nuScenes
    scan has) gets 5 channels, others 4; intensity is multiplied back."""
    if profile.intensity_scale != 1.0:
        cloud = cloud.with_fields(
            intensity=(cloud.intensity * profile.intensity_scale).astype(np.float32)
        )
    if cloud.ring is not None:
        return write_nuscenes_scan(cloud)
    return write_kitti_scan(cloud)


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


def frame_stems(root: str | Path) -> list[str]:
    """Sorted frame ids of ``velodyne/*.bin`` (or flat ``*.bin``) under `root`.

    Raises:
        FileNotFoundError: `root` is not a directory.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    return sorted(p.stem for p in _scan_dir(root).glob("*.bin"))


def load_frame(root: str | Path, stem: str, profile: DatasetProfile) -> DatasetFrame:
    """Read one frame's scan, ``labels/<stem>.label`` and ``boxes/<stem>.txt``.

    Labels are attached when the file exists and mandatory when the profile
    requires them. Boxes are mandatory when ``boxes/`` exists.

    Raises:
        PairingError: missing or misaligned label/box file for the scan.
    """
    root = Path(root)
    cloud = read_scan((_scan_dir(root) / f"{stem}.bin").read_bytes(), profile, stem)

    labels = None
    label_path = root / "labels" / f"{stem}.label"
    if label_path.is_file():
        labels = read_semkitti_labels(label_path.read_bytes())
        if len(labels) != len(cloud):
            raise PairingError(
                f"frame {stem}: {len(labels)} labels for {len(cloud)} points"
            )
    elif profile.requires_labels:
        raise PairingError(f"frame {stem}: missing label file labels/{stem}.label")

    boxes = None
    if (root / "boxes").is_dir():
        box_path = root / "boxes" / f"{stem}.txt"
        if not box_path.is_file():
            raise PairingError(f"frame {stem}: missing box file boxes/{stem}.txt")
        boxes = read_kitti_boxes(box_path.read_text())

    return DatasetFrame(frame_id=stem, cloud=cloud, labels=labels, boxes=boxes)


def iterate_dataset(root: str | Path, profile: DatasetProfile) -> Iterator[DatasetFrame]:
    """Yield `load_frame` of each of the `frame_stems`; raises as they do."""
    for stem in frame_stems(root):
        yield load_frame(root, stem, profile)
