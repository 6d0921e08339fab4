"""Deterministic LiDAR corruption suite with robustness metrics.

Eight physically motivated corruption operators (fog, wet ground, snow,
motion blur, beam missing, crosstalk, incomplete echo, cross-sensor) over
KITTI-style point clouds, each at three severity levels with label
co-update; plus the CE/RR robustness metrics, flexible voxelization, and
cross-density consistency loss kernels. Everything is seeded and bitwise
reproducible.
"""

from .consistency import (
    MaskSelection,
    PredictionField,
    completion_loss,
    confirmation_loss,
    cross_entropy,
    interpolate_prediction,
    random_mask,
    subsample_prediction,
    total_loss,
)
from .corruptions import (
    CorruptedFrame,
    CorruptionSpec,
    FrameContext,
    Provenance,
    apply,
    apply_beam_missing,
    apply_cross_sensor,
    apply_crosstalk,
    apply_fog,
    apply_incomplete_echo,
    apply_motion_blur,
    apply_snow,
    apply_wet_ground,
)
from .errors import (
    BeamPartitionError,
    CorruptScanError,
    LidarCorruptError,
    MalformedScanError,
    NoPlaneError,
    PairingError,
    ProfileError,
    UndefinedMetricError,
)
from .geometry import (
    BeamPartition,
    GroundModel,
    VoxelConfig,
    fit_ground_ransac,
    ground_mask_from_labels,
    partition_beams,
    point_ranges,
    voxelize_fixed,
    voxelize_flexible,
)
from .metrics import (
    AccuracyRecord,
    RobustnessReport,
    aggregate,
    confusion_matrix,
    corruption_error,
    miou,
    remap_injected,
    render_report,
    resilience_rate,
)
from .profiles import CorruptionKind, DatasetProfile, Severity, load_profile
from .rng import derive_seed, make_rng
from .scan_io import (
    DatasetFrame,
    frame_stems,
    iterate_dataset,
    load_frame,
    read_kitti_boxes,
    read_kitti_scan,
    read_nuscenes_scan,
    read_scan,
    read_semkitti_labels,
    write_kitti_boxes,
    write_kitti_scan,
    write_nuscenes_scan,
    write_scan,
    write_semkitti_labels,
)
from .types import Box, BoxSet, LabelArray, PointCloud

__version__ = "0.1.0"
