"""The traced benchmark's hooks still resolve against the package.

`bench/spans.py` wraps package functions by their attribute names. A name
that a refactor removes makes every traced run fail, so this imports the
module from `bench/` as it is and enters and leaves its instrumentation.
"""

import importlib.util
import pathlib
import sys
import threading
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


def test_traced_corrupt_times_each_operator_once_per_output(spans, tmp_path):
    """`apply` finds `apply_<kind>` in the module at call time, so the
    tracer's wrapper times every operator call, inside its dispatch span."""
    src = write_dataset(tmp_path / "in", "semantickitti", n_frames=1, points_per_beam=2)
    cfg = RunConfig(profile_name="semantickitti", input_root=src,
                    output_root=tmp_path / "out")
    tracer = spans.Tracer()
    with spans.batch(tracer):
        manifest = run_corrupt(cfg)
    assert manifest["failures"] == []
    outputs = {(e["kind"], e["severity"]) for e in manifest["entries"]}
    assert len(outputs) == 8 * 3
    for kind in spans.KINDS:
        calls = [sp for sp in tracer.spans if sp.name == f"corruptions.{kind}"]
        assert len(calls) == sum(k == kind for k, _ in outputs) == 3
        assert all(tracer.spans[sp.parent].name == "corruptions.apply" for sp in calls)


def test_traced_apply_counts_points_in_and_out(spans, tmp_path):
    """`points_in` and `points_out` come from `cli.apply`'s frame argument
    and result: the frame's points once per severity, and the points of
    the scans written."""
    src = write_dataset(tmp_path / "in", "semantickitti", n_frames=1, points_per_beam=2)
    n_points = len(scan_io.read_kitti_scan((src / "velodyne" / "000000.bin").read_bytes()))
    cfg = RunConfig(profile_name="semantickitti", input_root=src, output_root=tmp_path / "out",
                    kinds=(cli.CorruptionKind.BEAM_MISSING,))
    tracer = spans.Tracer()
    with spans.batch(tracer):
        manifest = run_corrupt(cfg)
    assert manifest["failures"] == [] and len(manifest["entries"]) == 3 * 2
    written = sum(len(scan_io.read_kitti_scan(path.read_bytes()))
                  for path in (tmp_path / "out").rglob("*.bin"))
    counts = spans.summarize(tracer.spans)["counts"]
    assert counts["corruptions.points_in"] == 3 * n_points
    assert counts["corruptions.points_out"] == written < 3 * n_points


def test_traced_nuscenes_corrupt_spans_stay_on_main_thread(spans, tmp_path):
    """The output stage's helper thread calls nothing the tracer wraps: every
    span opens on the main thread, nests, and each written file is counted."""
    src = write_dataset(tmp_path / "in", "nuscenes", n_frames=1, points_per_beam=3)
    cfg = RunConfig(profile_name="nuscenes", input_root=src, output_root=tmp_path / "out")
    tracer = spans.Tracer()
    threads = set()
    open_span = tracer.span

    def span_on_thread(name):
        threads.add(threading.get_ident())
        return open_span(name)

    tracer.span = span_on_thread
    with spans.batch(tracer):
        manifest = run_corrupt(cfg)
    assert manifest["failures"] == [] and len(manifest["entries"]) == 8 * 3 * 2
    assert threads == {threading.get_ident()}
    summary = spans.summarize(tracer.spans)
    assert summary["unmapped"] == []
    assert summary["min_self_s"] >= 0
    assert abs(summary["total_self_s"] - summary["root_s"]) <= 1e-6 * summary["root_s"]
    assert summary["counts"]["cli.files_written"] == len(manifest["entries"])
