"""The golden pins hold under other numpy SIMD and OpenBLAS kernels.

`tests/test_golden.py` runs in a fresh interpreter with numpy's dispatched
SIMD targets disabled (`NPY_DISABLE_CPU_FEATURES`, so only its baseline
kernels run), with OpenBLAS forced to an old core
(`OPENBLAS_CORETYPE=Prescott`), and with both. The interpreter first checks
that numpy turned its targets off, so that setup cannot pass unapplied; the
OpenBLAS core is not read back, since the library's name and symbols vary
between numpy builds. Each run covers only the CPU and the numpy and
OpenBLAS builds it runs on.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lidarcorrupt

GOLDEN = Path(__file__).with_name("test_golden.py")


def dispatch_targets() -> list:
    """numpy's dispatched SIMD targets, or [] when it exposes none."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return list(getattr(importlib.import_module(name), "__cpu_dispatch__", []))
        except ImportError:
            continue
    return []


# Run in the child: fail unless numpy disabled every target it was asked to,
# then run the pinned tests.
CHILD = """
import os, sys
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
still_on = [name for name in disabled if umath.__cpu_features__.get(name)]
assert not still_on, f"numpy kept {still_on} on"
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


@pytest.mark.parametrize("numpy_baseline,openblas_prescott",
                         [(True, False), (False, True), (True, True)],
                         ids=["numpy-baseline", "openblas-prescott", "both"])
def test_golden_pins_hold_under_other_kernels(numpy_baseline, openblas_prescott):
    env = dict(os.environ)
    for name in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        env.pop(name, None)
    if numpy_baseline:
        targets = dispatch_targets()
        if not targets:
            pytest.skip("numpy exposes no __cpu_dispatch__ list of SIMD targets")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    if openblas_prescott:
        env["OPENBLAS_CORETYPE"] = "Prescott"
    path = [str(Path(lidarcorrupt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    result = subprocess.run([sys.executable, "-c", CHILD, str(GOLDEN)], cwd=GOLDEN.parent,
                            capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stdout + result.stderr
    assert " passed" in result.stdout and "failed" not in result.stdout, result.stdout
