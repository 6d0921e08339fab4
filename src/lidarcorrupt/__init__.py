"""Deterministic LiDAR corruption suite with robustness metrics.

Eight physically motivated corruption operators (fog, wet ground, snow,
motion blur, beam missing, crosstalk, incomplete echo, cross-sensor) over
KITTI-style point clouds, each at three severity levels with label
co-update; plus the CE/RR robustness metrics, flexible voxelization, and
cross-density consistency loss kernels. Everything is seeded and bitwise
reproducible.
"""

from .consistency import *  # noqa: F401,F403
from .corruptions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .scan_io import *  # noqa: F401,F403
from .types import *  # noqa: F401,F403

__version__ = "0.1.0"
