"""Exception hierarchy for scan decoding, geometry, and metric failures."""


class LidarCorruptError(Exception):
    """Base class for all package-specific errors."""


class MalformedScanError(LidarCorruptError):
    """Byte stream length is not a whole number of records."""


class CorruptScanError(LidarCorruptError):
    """Decoded scan carries non-finite or out-of-range values."""


class PairingError(LidarCorruptError):
    """A frame is missing its paired label or box file."""


class NoPlaneError(LidarCorruptError):
    """Plane fitting failed: too few points or all samples degenerate."""


class ManifestError(LidarCorruptError):
    """An output directory has no readable run manifest."""


class ProfileError(LidarCorruptError):
    """Dataset profile is missing parameters for a requested corruption."""


class UndefinedMetricError(LidarCorruptError):
    """A metric has no defined value (e.g. mIoU with no observed classes)."""
