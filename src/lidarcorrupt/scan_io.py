"""Bit-exact codecs for benchmark scan/label formats plus frame loading.

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

from pathlib import Path

import numpy as np

from .corruptions import CorruptedFrame
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
    "read_scan",
    "write_scan",
    "frame_stems",
    "load_frame",
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


def _pack(pc: PointCloud, channels: int, scale: float = 1.0) -> np.ndarray:
    """The (N, channels) `<f4` records [x, y, z, intensity * scale(, ring)].

    Fills one buffer and builds no cloud. Multiplying by 1.0 is exact. The
    coordinates are copied a column at a time, which is faster than one
    strided (N, 3) copy and moves the same values.
    """
    out = np.empty((len(pc), channels), dtype="<f4")
    for j in range(3):
        out[:, j] = pc.xyz[:, j]
    np.multiply(pc.intensity, scale, out=out[:, 3])
    if channels == 5:
        out[:, 4] = pc.ring
    return out


def write_kitti_scan(pc: PointCloud) -> bytes:
    """Encode to packed [x, y, z, intensity] float32; inverse of read."""
    return _pack(pc, 4).tobytes()


def read_nuscenes_scan(data: bytes, frame_id: str = "", *, beam_count: int) -> PointCloud:
    """Decode a 5-channel nuScenes scan; the 5th channel, a whole number in
    [0, beam_count), becomes the ring index."""
    raw = _decode_floats(data, 5, "nuscenes scan")
    stored = raw[:, 4]  # NaN fails every test here, inf the range test
    bad = np.flatnonzero(~((stored >= 0) & (stored < beam_count) & (stored == np.floor(stored))))
    if bad.size:
        raise CorruptScanError(f"ring value {stored[bad[0]]!s} at point {bad[0]} "
                               f"is not a beam id in [0, {beam_count})")
    return PointCloud(xyz=raw[:, :3], intensity=raw[:, 3], ring=stored.astype(np.int32),
                      frame_id=frame_id)


def write_nuscenes_scan(pc: PointCloud) -> bytes:
    """Encode to packed [x, y, z, intensity, ring] float32. Requires a ring channel."""
    if pc.ring is None:
        raise ValueError("cloud has no ring channel; cannot encode nuScenes scan")
    return _pack(pc, 5).tobytes()


def label_words(data: bytes | memoryview, what: str = "label stream") -> np.ndarray:
    """`data` as 32-bit label words (a view); MalformedScanError names `what`."""
    if len(data) % 4 != 0:
        raise MalformedScanError(f"{what}: byte length {len(data)} is not a multiple of 4")
    return np.frombuffer(data, dtype="<u4")


def read_semkitti_labels(data: bytes) -> LabelArray:
    """Decode packed 32-bit label words (semantic low half, instance high half)."""
    halves = label_words(data).view("<u2").reshape(-1, 2)  # little-endian: semantic first
    return LabelArray(semantic=halves[:, 0], instance=halves[:, 1])


def write_semkitti_labels(labels: LabelArray) -> bytes:
    """Pack to 32-bit label words; lossless inverse of read. A little-endian
    word's bytes are its low (semantic) half, then its high (instance) half."""
    halves = np.empty((len(labels), 2), dtype="<u2")
    halves[:, 0] = labels.semantic
    halves[:, 1] = labels.instance
    return halves.tobytes()


def read_kitti_boxes(text: str) -> BoxSet:
    """Parse KITTI object label text into a BoxSet.

    Only geometry and class are used: dimensions (h, w, l), location
    (bottom-center, lifted to the geometric center), and rotation as yaw.
    Boxes are taken at face value in the cloud's frame; labels still in the
    camera frame must be transformed by the caller. `DontCare` rows carry no
    valid geometry and are skipped.

    Raises:
        MalformedScanError: a row that does not parse or makes no valid
            `Box`, naming its line (counted from 1).
    """
    boxes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        try:
            h, w, l, x, y, z, yaw = (float(v) for v in fields[8:15])
            boxes.append(
                Box(
                    center=(x, y, z + h / 2.0),
                    lwh=(l, w, h),
                    yaw=yaw,
                    class_id=KITTI_CLASS_IDS[fields[0]],
                )
            )
        except ValueError as exc:
            raise MalformedScanError(f"box label line {lineno}: {exc}") from exc
    return BoxSet(tuple(boxes))


def read_scan(data: bytes, profile: DatasetProfile, frame_id: str = "") -> PointCloud:
    """Decode a scan in the profile's layout, dividing intensity by the
    profile's `intensity_scale`. The layout follows the name, not a key:
    `nuscenes` reads 5-channel records with the ring, every other name 4.

    Raises:
        CorruptScanError: an intensity is below 0 or above 1 after the division.
    """
    if profile.name == "nuscenes":
        cloud = read_nuscenes_scan(data, frame_id=frame_id, beam_count=profile.beam_count)
    else:
        cloud = read_kitti_scan(data, frame_id=frame_id)
    scale = profile.intensity_scale
    if scale != 1.0:  # a scale of 1 skips a full-frame divide and copy
        cloud = cloud.with_fields(intensity=(cloud.intensity / scale).astype(np.float32))
    bad = np.flatnonzero((cloud.intensity < 0) | (cloud.intensity > 1.0 + INTENSITY_TOLERANCE))
    if bad.size:
        i, bound = bad[0], "below 0" if cloud.intensity[bad[0]] < 0 else "above 1"
        raise CorruptScanError(
            f"intensity {float(cloud.intensity[i]) * scale:.6g} at point {i} is {bound} "
            f"after dividing by the {profile.name} intensity_scale {scale:g}"
        )
    return cloud


def write_scan(cloud: PointCloud, profile: DatasetProfile) -> memoryview:
    """Inverse of `read_scan`: a cloud with a ring (which only a nuScenes
    scan has) gets 5 channels, others 4; intensity is multiplied back.

    Returns a 1-D byte view of the encoded records, whose `len` is the byte
    count, without copying them to `bytes`. No cloud is built, so the
    encode may run on a helper thread.
    """
    records = _pack(cloud, 4 if cloud.ring is None else 5, profile.intensity_scale)
    return memoryview(records.reshape(-1).view(np.uint8))


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


def load_frame(root: str | Path, stem: str, profile: DatasetProfile) -> CorruptedFrame:
    """Read one frame's scan, ``labels/<stem>.label`` and ``boxes/<stem>.txt``
    into a clean frame (every point `Provenance.ORIGINAL`, frame id `stem`).

    Labels are attached when the file exists and mandatory when the profile
    requires them. Boxes are mandatory when ``boxes/`` exists.

    Raises:
        PairingError: missing or misaligned label/box file for the scan.
        MalformedScanError, CorruptScanError: a scan, label or box file that
            does not decode; the message starts with its path under `root`.
    """
    root = Path(root)
    path = _scan_dir(root) / f"{stem}.bin"
    try:
        cloud = read_scan(path.read_bytes(), profile, stem)
        path = root / "labels" / f"{stem}.label"
        labels = read_semkitti_labels(path.read_bytes()) if path.is_file() else None
        if labels is None and profile.requires_labels:
            raise PairingError(f"frame {stem}: missing label file labels/{stem}.label")
        if labels is not None and len(labels) != len(cloud):
            raise PairingError(f"frame {stem}: {len(labels)} labels for {len(cloud)} points")
        path, boxes = root / "boxes" / f"{stem}.txt", None
        if path.parent.is_dir():
            if not path.is_file():
                raise PairingError(f"frame {stem}: missing box file boxes/{stem}.txt")
            boxes = read_kitti_boxes(path.read_text())
    except (MalformedScanError, CorruptScanError) as exc:
        raise type(exc)(f"{path.relative_to(root).as_posix()}: {exc}") from exc
    return CorruptedFrame(cloud, labels, boxes)
