"""Seeded synthetic inputs for the benchmark: KITTI-scale scans and label trees.

Only numpy is used, and every file format is written here directly, so the
inputs do not depend on the code under test. The same seed always gives the
same bytes.

A scan is 64 beams x 1900 points (121,600 points), elevations +2 to -24.8
degrees. Downward rays hit a slightly tilted ground plane 1.73 m below the
sensor, rays that meet a car box return from its surface, and the rest hit
building or vegetation walls whose distance is constant per azimuth sector.
The cars are annotated as KITTI object rows, with boxes 5% larger than the
car geometry so every car return lies strictly inside its box.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BEAMS = 64
POINTS_PER_BEAM = 1900
POINTS_PER_FRAME = BEAMS * POINTS_PER_BEAM
SENSOR_HEIGHT = 1.73
MAX_GROUND_RANGE = 80.0
CARS_PER_FRAME = 10

# SemanticKITTI ids: road, sidewalk, parking, other-ground, car, building,
# vegetation. Ground ids match the semantickitti profile's ground classes.
ROAD, SIDEWALK, PARKING, OTHER_GROUND = 40, 48, 44, 49
CAR, BUILDING, VEGETATION = 10, 50, 70
LABEL_IDS = (ROAD, SIDEWALK, PARKING, OTHER_GROUND, CAR, BUILDING, VEGETATION)

# Evaluate tree: injected fog/snow/crosstalk ids of the semantickitti profile,
# which scores them as its ignore label 0.
KINDS = ("fog", "wet_ground", "snow", "motion_blur", "beam_missing",
         "crosstalk", "incomplete_echo", "cross_sensor")
SEVERITIES = ("light", "moderate", "heavy")
INJECTED_ID = {"fog": 21, "snow": 22, "crosstalk": 23}
IGNORE_LABEL = 0
NUM_CLASSES = 260
# Fraction of gt points each corruption directory keeps, per severity.
KEEP_FRACTION = {
    "wet_ground": (0.97, 0.93, 0.9),
    "beam_missing": (0.75, 0.5, 0.25),
    "incomplete_echo": (0.96, 0.95, 0.94),
    "cross_sensor": (0.375, 0.25, 0.125),
}
INJECTED_FRACTION = {"fog": (0.02, 0.1, 0.3), "snow": (0.01, 0.03, 0.08),
                     "crosstalk": (0.006, 0.008, 0.01)}


def _rng(seed: int, *parts: object) -> np.random.Generator:
    """A generator keyed by the benchmark seed and a stable tuple of parts."""
    key = [seed] + [int.from_bytes(str(p).encode(), "little") % (2**63) for p in parts]
    return np.random.default_rng(key)


def _car_boxes(rng: np.random.Generator, ground: tuple[float, float]) -> np.ndarray:
    """(K, 7) rows cx, cy, z_bottom, l, w, h, yaw of cars standing on the ground."""
    tx, ty = ground
    rho = rng.uniform(6.0, 35.0, CARS_PER_FRAME)
    phi = np.linspace(0.0, 2 * np.pi, CARS_PER_FRAME, endpoint=False)
    phi = phi + rng.uniform(-0.2, 0.2, CARS_PER_FRAME)
    cx, cy = rho * np.cos(phi), rho * np.sin(phi)
    z_bottom = -SENSOR_HEIGHT + tx * cx + ty * cy
    dims = np.stack([rng.uniform(3.8, 4.8, CARS_PER_FRAME),
                     rng.uniform(1.6, 1.9, CARS_PER_FRAME),
                     rng.uniform(1.4, 1.7, CARS_PER_FRAME)], axis=1)
    yaw = rng.uniform(-np.pi, np.pi, CARS_PER_FRAME)
    return np.column_stack([cx, cy, z_bottom, dims, yaw])


def _ray_box_hits(dirs: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest entry distance of each ray into any box, and that box's index."""
    best = np.full(len(dirs), np.inf)
    which = np.full(len(dirs), -1)
    for k, (cx, cy, zb, l, w, h, yaw) in enumerate(boxes):
        c, s = np.cos(yaw), np.sin(yaw)
        # Ray origin and direction in the box frame (origin at its centre).
        o = np.array([-cx * c - cy * s, cx * s - cy * c, -(zb + h / 2)])
        d = np.stack([dirs[:, 0] * c + dirs[:, 1] * s,
                      -dirs[:, 0] * s + dirs[:, 1] * c,
                      dirs[:, 2]], axis=1)
        half = np.array([l, w, h]) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half - o) / d
            t2 = (half - o) / d
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (t_near <= t_far) & (t_near > 0.5) & (t_near < best)
        best[hit] = t_near[hit]
        which[hit] = k
    return best, which


def make_frame(seed: int, index: int):
    """One scan: (xyz float32 (N, 3), intensity, semantic, instance, car boxes)."""
    rng = _rng(seed, "frame", index)
    elev = np.deg2rad(np.linspace(2.0, -24.8, BEAMS))
    elev = np.repeat(elev, POINTS_PER_BEAM) + rng.uniform(-2e-4, 2e-4, POINTS_PER_FRAME)
    azim = np.tile(np.linspace(0, 2 * np.pi, POINTS_PER_BEAM, endpoint=False), BEAMS)
    azim = azim + np.repeat(rng.uniform(0, 2 * np.pi / POINTS_PER_BEAM, BEAMS),
                            POINTS_PER_BEAM)
    dirs = np.stack([np.cos(elev) * np.cos(azim), np.cos(elev) * np.sin(azim),
                     np.sin(elev)], axis=1)

    ground = tuple(rng.uniform(-0.01, 0.01, 2))
    boxes = _car_boxes(rng, ground)
    # Ground plane z = -h + tx*x + ty*y; along a ray t * d this meets at t_g.
    denom = dirs[:, 2] - ground[0] * dirs[:, 0] - ground[1] * dirs[:, 1]
    with np.errstate(divide="ignore"):
        t_ground = np.where(denom < 0, -SENSOR_HEIGHT / denom, np.inf)
    t_ground[t_ground > MAX_GROUND_RANGE] = np.inf
    t_car, car_of = _ray_box_hits(dirs, boxes)
    sectors = 72
    sector = (azim / (2 * np.pi) * sectors).astype(np.int64) % sectors
    wall_range = rng.uniform(8.0, 60.0, sectors)[sector]
    wall_label = np.where(rng.random(sectors) < 0.5, BUILDING, VEGETATION)[sector]

    t = np.minimum(np.minimum(t_ground, t_car), wall_range)
    semantic = wall_label.astype(np.uint16)
    on_ground = t == t_ground
    ground_ids = np.array([ROAD, SIDEWALK, PARKING, OTHER_GROUND], dtype=np.uint16)
    semantic[on_ground] = ground_ids[sector[on_ground] % 4]
    on_car = (t == t_car) & ~on_ground
    semantic[on_car] = CAR
    instance = np.where(on_car, car_of + 1, 0).astype(np.uint16)

    t = t + rng.normal(0.0, 0.01, POINTS_PER_FRAME) * ~on_car
    xyz = (dirs * t[:, None]).astype(np.float32)
    intensity = np.where(on_ground, rng.uniform(0.05, 0.4, POINTS_PER_FRAME),
                         rng.uniform(0.05, 1.0, POINTS_PER_FRAME)).astype(np.float32)
    # Annotated boxes are 5% larger than the car geometry.
    ann = boxes.copy()
    ann[:, 3:6] *= 1.05
    ann[:, 2] -= boxes[:, 5] * 0.025
    return xyz, intensity, semantic, instance, ann


def _label_bytes(semantic: np.ndarray, instance: np.ndarray) -> bytes:
    words = semantic.astype(np.uint32) | (instance.astype(np.uint32) << np.uint32(16))
    return words.astype("<u4").tobytes()


def _box_text(boxes: np.ndarray) -> str:
    """KITTI object rows: type, 7 unused columns, h w l, bottom-centre x y z, yaw."""
    rows = []
    for cx, cy, zb, l, w, h, yaw in boxes:
        rows.append(f"Car 0 0 0 0 0 0 0 {h:.6f} {w:.6f} {l:.6f} "
                    f"{cx:.6f} {cy:.6f} {zb:.6f} {yaw:.6f}")
    return "\n".join(rows) + "\n"


def write_scan_dataset(root: Path, seed: int, frames: int, labels: bool,
                       boxes: bool) -> int:
    """Write `frames` scans (plus labels and/or box files); returns the point count."""
    (root / "velodyne").mkdir(parents=True)
    if labels:
        (root / "labels").mkdir()
    if boxes:
        (root / "boxes").mkdir()
    total = 0
    for i in range(frames):
        xyz, intensity, semantic, instance, ann = make_frame(seed, i)
        stem = f"{i:06d}"
        scan = np.empty((len(xyz), 4), dtype="<f4")
        scan[:, :3] = xyz
        scan[:, 3] = intensity
        (root / "velodyne" / f"{stem}.bin").write_bytes(scan.tobytes())
        if labels:
            (root / "labels" / f"{stem}.label").write_bytes(_label_bytes(semantic, instance))
        if boxes:
            (root / "boxes" / f"{stem}.txt").write_text(_box_text(ann))
        total += len(xyz)
    return total


def _eval_pair(rng: np.random.Generator, clean: np.ndarray, kind, sev):
    """(gt, pred) semantic arrays for one directory; kind None is clean/."""
    gt = clean
    if kind in KEEP_FRACTION:
        keep = rng.random(len(gt)) < KEEP_FRACTION[kind][sev]
        gt = gt[keep]
    gt = gt.copy()
    if kind in INJECTED_FRACTION:
        injected = rng.random(len(gt)) < INJECTED_FRACTION[kind][sev]
        gt[injected] = INJECTED_ID[kind]
    flip_fraction = 0.03 if kind is None else 0.05 + 0.04 * sev + 0.01 * KINDS.index(kind)
    pred = gt.copy()
    pred[np.isin(pred, list(INJECTED_ID.values()))] = ROAD
    flipped = rng.random(len(gt)) < flip_fraction
    pred[flipped] = np.asarray(LABEL_IDS, dtype=np.uint16)[
        rng.integers(0, len(LABEL_IDS), int(flipped.sum()))]
    return gt, pred


def _miou(gt: list[np.ndarray], pred: list[np.ndarray]) -> float:
    """mIoU from a bincount confusion matrix; injected ids scored as ignored."""
    g = np.concatenate(gt).astype(np.int64)
    p = np.concatenate(pred).astype(np.int64)
    g[np.isin(g, list(INJECTED_ID.values()))] = IGNORE_LABEL
    counted = g != IGNORE_LABEL
    cm = np.bincount(g[counted] * NUM_CLASSES + p[counted],
                     minlength=NUM_CLASSES * NUM_CLASSES).reshape(NUM_CLASSES, NUM_CLASSES)
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float((tp[present] / union[present]).mean())


def write_eval_tree(root: Path, seed: int, frames: int) -> tuple[dict, int, int]:
    """Write pred/ and gt/ label trees (clean/ plus 24 corruption dirs).

    Returns (reference scores, gt points written, gt files written). The
    reference maps "clean" and "<kind>/<severity>" to the mIoU computed
    here from the in-memory arrays.
    """
    clean = [make_frame(seed, i)[2] for i in range(frames)]
    dirs = [("clean", None, None)] + [
        (f"{k}/{s}", k, i) for k in KINDS for i, s in enumerate(SEVERITIES)]
    reference = {}
    points = files = 0
    for rel, kind, sev in dirs:
        gts, preds = [], []
        for i, labels in enumerate(clean):
            gt, pred = _eval_pair(_rng(seed, "eval", rel, i), labels, kind, sev)
            for side, sem in (("gt", gt), ("pred", pred)):
                out = root / side / rel
                out.mkdir(parents=True, exist_ok=True)
                instance = np.zeros(len(sem), dtype=np.uint16)
                (out / f"{i:06d}.label").write_bytes(_label_bytes(sem, instance))
            gts.append(gt)
            preds.append(pred)
            points += len(gt)
            files += 1
        reference[rel] = _miou(gts, preds)
    return reference, points, files
