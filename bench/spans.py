"""In-memory spans for the traced run, recorded from outside the package.

`instrument` replaces the functions the pipeline calls through, at the
module and class attributes where the calls look them up, with wrappers
that record a span per call: name, start, end, parent span and run id.
The originals are put back when the block ends, so the package source is
never changed and the untraced runs execute it unwrapped.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded in the traced run (one worker), so
spans nest strictly and the self times of all spans add up to the
duration of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from lidarcorrupt.profiles import CorruptionKind

KINDS = tuple(kind.value for kind in CorruptionKind)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    run: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; `run` is the id shared by the spans of one batch."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None,
                  name, self.run, 0.0)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[[tuple, object], dict]] = None,
             within: Optional[str] = None) -> Callable:
        """`fn` recording a span per call; `count(args, result)` adds counters.

        With `within`, a call is recorded only when the innermost open span's
        name starts with it; otherwise its time stays in that span's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if within is not None and not (
                    self._stack and self.spans[self._stack[-1]].name.startswith(within)):
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.counts = count(args, result)
            return result

        return traced

    def write(self, path: pathlib.Path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp.id, "parent": sp.parent, "name": sp.name,
                                     "run": sp.run, "start": sp.start, "end": sp.end,
                                     **sp.counts}) + "\n")


class _ModuleShim:
    """Stands in for a module in one namespace, overriding some attributes."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _len_arg(i: int, key: str):
    return lambda args, result: {key: len(args[i])}


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer boundary the `corrupt`/`evaluate`/`report` paths cross."""
    from lidarcorrupt import cli, corruptions, geometry, profiles, types

    def apply_counts(args, result):
        return {"points_in": len(args[1].cloud), "points_out": len(result.cloud)}

    def sha256(data=b"", **kwargs):
        with tracer.span("cli.sha256"):
            return hashlib.sha256(data, **kwargs)

    def dumps(*args, **kwargs):
        with tracer.span("cli.manifest"):
            return json.dumps(*args, **kwargs)

    # File I/O counts as a cli layer of its own only when the CLI itself
    # calls it. Inside another span (the profile read in `load_profile`, the
    # benchmark's own record write) it is that span's self time.
    io = "cli."
    table = [
        (cli, "run_corrupt", "cli.run_corrupt", None),
        (cli, "run_evaluate", "cli.run_evaluate", None),
        (cli, "run_report", "cli.run_report", None),
        (cli, "_corrupt_one_frame", "cli.frame", None),
        (cli, "_miou_over_dir", "cli.score_dir", None),
        (cli, "load_profile", "profiles.load", None),
        (profiles.DatasetProfile, "with_overrides", "profiles.overrides", None),
        (cli, "read_kitti_scan", "scan_io.decode", _len_arg(0, "bytes")),
        (cli, "read_nuscenes_scan", "scan_io.decode", _len_arg(0, "bytes")),
        (cli, "read_semkitti_labels", "scan_io.decode", _len_arg(0, "bytes")),
        (cli, "read_kitti_boxes", "scan_io.decode", _len_arg(0, "bytes")),
        (cli, "write_kitti_scan", "scan_io.encode", lambda a, r: {"bytes": len(r)}),
        (cli, "write_nuscenes_scan", "scan_io.encode", lambda a, r: {"bytes": len(r)}),
        (cli, "write_semkitti_labels", "scan_io.encode", lambda a, r: {"bytes": len(r)}),
        (pathlib.Path, "write_bytes", "cli.write", _len_arg(1, "bytes"), io),
        (pathlib.Path, "write_text", "cli.manifest", None, io),
        (pathlib.Path, "read_bytes", "cli.read", None, io),
        (pathlib.Path, "read_text", "cli.read", None, io),
        (cli, "apply", "corruptions.apply", apply_counts),
        (cli, "derive_seed", "rng.derive_seed", None),
        (corruptions, "derive_seed", "rng.derive_seed", None),
        (corruptions, "make_rng", "rng.make_rng", None),
        (geometry, "make_rng", "rng.make_rng", None),
        (corruptions, "partition_beams", "geometry.partition", None),
        (corruptions, "point_ranges", "geometry.ranges", None),
        (corruptions, "fit_ground_ransac", "geometry.ransac", None),
        (corruptions, "ground_mask_from_labels", "geometry.ground_labels", None),
        (types.PointCloud, "__post_init__", "types.validate", lambda a, r: {"clouds": 1}),
        (types.LabelArray, "__post_init__", "types.validate", None),
        (types.BoxSet, "contains", "types.box_contains", None),
        (cli, "confusion_matrix", "metrics.confusion", _len_arg(1, "points")),
        (cli, "remap_injected", "metrics.remap", None),
        (cli, "miou", "metrics.miou", None),
        (cli, "aggregate", "metrics.report", None),
        (cli, "render_report", "metrics.report", None),
        (cli, "read_accuracy_record", "metrics.report", None),
        (cli, "write_accuracy_record", "metrics.report", None),
    ] + [(corruptions, f"apply_{k}", f"corruptions.{k}", None) for k in KINDS]

    saved = []
    try:
        for owner, attr, name, count, *within in table:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count, *within))
        for attr, shim in (("hashlib", _ModuleShim(hashlib, sha256=sha256)),
                           ("json", _ModuleShim(json, dumps=dumps))):
            saved.append((cli, attr, getattr(cli, attr)))
            setattr(cli, attr, shim)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def batch(tracer: Tracer) -> Iterator[None]:
    """Instrument the package and open the root span of one traced batch."""
    with instrument(tracer), tracer.span("bench.batch"):
        yield


# Per-layer self-time metric of every span name; "bench.batch" is the
# benchmark's own glue around the calls and is reported as unattributed.
SELF_TIME_METRIC = {
    "cli.run_corrupt": "cli.self_s", "cli.run_evaluate": "cli.self_s",
    "cli.run_report": "cli.self_s", "cli.frame": "cli.self_s",
    "cli.score_dir": "cli.self_s",
    "cli.sha256": "cli.sha256_s", "cli.write": "cli.write_s",
    "cli.manifest": "cli.manifest_s", "cli.read": "cli.read_s",
    "profiles.load": "profiles.load_s", "profiles.overrides": "profiles.load_s",
    "scan_io.decode": "scan_io.decode_s", "scan_io.encode": "scan_io.encode_s",
    "corruptions.apply": "corruptions.dispatch_s",
    **{f"corruptions.{k}": f"corruptions.{k}_s" for k in KINDS},
    "rng.derive_seed": "rng.self_s", "rng.make_rng": "rng.self_s",
    "geometry.partition": "geometry.partition_s", "geometry.ranges": "geometry.ranges_s",
    "geometry.ransac": "geometry.ransac_s", "geometry.ground_labels": "geometry.ground_labels_s",
    "types.validate": "types.validate_s", "types.box_contains": "types.box_contains_s",
    "metrics.confusion": "metrics.confusion_s", "metrics.remap": "metrics.remap_s",
    "metrics.miou": "metrics.miou_s", "metrics.report": "metrics.report_s",
    "bench.batch": "trace.unattributed_s",
}

# Per-layer call counts and work counters: metric -> (span name, counter or None).
COUNT_METRIC = {
    "geometry.ransac_calls": ("geometry.ransac", None),
    "geometry.partition_calls": ("geometry.partition", None),
    "geometry.ranges_calls": ("geometry.ranges", None),
    "corruptions.points_in": ("corruptions.apply", "points_in"),
    "corruptions.points_out": ("corruptions.apply", "points_out"),
    "types.clouds_built": ("types.validate", "clouds"),
    "scan_io.bytes_encoded": ("scan_io.encode", "bytes"),
    "scan_io.decode_calls": ("scan_io.decode", None),
    "scan_io.bytes_decoded": ("scan_io.decode", "bytes"),
    "cli.files_written": ("cli.write", None),
    "cli.bytes_written": ("cli.write", "bytes"),
    "profiles.load_calls": ("profiles.load", None),
    "rng.make_rng_calls": ("rng.make_rng", None),
    "rng.derive_seed_calls": ("rng.derive_seed", None),
    "metrics.confusion_calls": ("metrics.confusion", None),
    "metrics.points_scored": ("metrics.confusion", "points"),
}


def summarize(spans: list[Span]) -> dict:
    """Totals over all spans: self seconds per metric and the counters.

    Also returns the root duration, the summed self time and the smallest
    self time, so the caller can check that self times account for the
    root spans exactly and none is negative.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    self_s = {m: 0.0 for m in set(SELF_TIME_METRIC.values())}
    unmapped = set()
    total_self = 0.0
    min_self = 0.0
    for sp in spans:
        own = (sp.end - sp.start) - child_time[sp.id]
        total_self += own
        min_self = min(min_self, own)
        if sp.name in SELF_TIME_METRIC:
            self_s[SELF_TIME_METRIC[sp.name]] += own
        else:
            unmapped.add(sp.name)
    counts = {}
    for metric, (name, key) in COUNT_METRIC.items():
        counts[metric] = sum(1 if key is None else sp.counts.get(key, 0)
                             for sp in spans if sp.name == name)
    return {
        "self_s": self_s,
        "counts": counts,
        "apply_ms": [1e3 * (sp.end - sp.start) for sp in spans
                     if sp.name == "corruptions.apply"],
        "root_s": sum(sp.end - sp.start for sp in spans if sp.parent is None),
        "total_self_s": total_self,
        "min_self_s": min_self,
        "unmapped": sorted(unmapped),
    }
