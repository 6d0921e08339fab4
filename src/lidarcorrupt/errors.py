"""Exception hierarchy for scan decoding, geometry, and metric failures."""

__all__ = ["LidarCorruptError", "MalformedScanError", "CorruptScanError", "PairingError",
           "NoPlaneError", "ManifestError", "ProfileError", "UndefinedMetricError"]


class LidarCorruptError(Exception):
    """Base class for all package-specific errors."""


class MalformedScanError(LidarCorruptError):
    """Byte stream length is not a whole number of records, or a box label
    row does not parse."""


class CorruptScanError(LidarCorruptError):
    """Decoded scan carries non-finite or out-of-range values."""


class PairingError(LidarCorruptError):
    """A frame is missing its paired label or box file."""


class NoPlaneError(LidarCorruptError):
    """Plane fitting failed: too few points or all samples degenerate."""


class ManifestError(LidarCorruptError):
    """An output directory has no readable run manifest."""


class ProfileError(LidarCorruptError):
    """A configuration error (exit 2): a profile or its tables, a `--set`
    value, a corruption or severity selection, `workers`, an input or
    output root (used, or unwritable), or a `report` of mixed metrics."""


class UndefinedMetricError(LidarCorruptError):
    """A metric has no defined value (e.g. mIoU with no observed classes)."""
