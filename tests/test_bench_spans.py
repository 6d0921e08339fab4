"""The traced benchmark's hooks still resolve against the package.

`bench/spans.py` wraps package functions by their attribute names. A name
that a refactor removes makes every traced run fail, so this imports the
module from `bench/` as it is and enters and leaves its instrumentation.
"""

import importlib.util
import pathlib
import sys
from pathlib import Path

import pytest

from lidarcorrupt import cli, scan_io
from lidarcorrupt.cli import RunConfig, run_corrupt

from conftest import write_dataset

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_instrument_resolves_and_restores(spans):
    write_bytes = pathlib.Path.write_bytes
    with spans.instrument(spans.Tracer()):
        assert pathlib.Path.write_bytes is not write_bytes
        assert cli.write_kitti_scan is not scan_io.write_kitti_scan
    assert pathlib.Path.write_bytes is write_bytes
    for name in ("read_kitti_scan", "read_nuscenes_scan", "read_kitti_boxes",
                 "write_kitti_scan", "write_nuscenes_scan", "write_semkitti_labels"):
        assert getattr(cli, name) is getattr(scan_io, name)


def test_traced_corrupt_maps_every_span(spans, tmp_path):
    src = write_dataset(tmp_path / "in", "semantickitti", n_frames=1, points_per_beam=2)
    cfg = RunConfig(profile_name="semantickitti", input_root=src,
                    output_root=tmp_path / "out", kinds=(cli.CorruptionKind.FOG,))
    tracer = spans.Tracer()
    with spans.batch(tracer):
        manifest = run_corrupt(cfg)
    assert manifest["failures"] == [] and len(manifest["entries"]) == 6
    summary = spans.summarize(tracer.spans)
    assert summary["unmapped"] == []
    assert summary["counts"]["cli.files_written"] == 6
