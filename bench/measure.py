"""Timed closed loop over one workload, run in a fresh interpreter by run.py.

Usage: python3 measure.py SPEC.json RESULT.json

The spec names the workload's inputs and settings (see run.py). Each
batch is one call of the package's entry point over the whole input set,
as the CLI would make it; the next batch starts when the previous one has
returned. One untimed batch warms the loop up. Untraced, batches then run
for `seconds` at the workload's worker count. Traced, untraced and traced
batches alternate at one worker, so the tracing overhead is measured on
the same inputs, and one more batch at nproc workers checks that the
worker count does not change the manifest.

Between batches, spread evenly over the `seconds`, the loop times
`setup_samples` fresh interpreters that import `lidarcorrupt.cli` and load
the profile. Peak RSS is read right after the timed loop, from this
process and its reaped children: the pool workers and the set-up
interpreters, which import a subset of what this process holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import lidarcorrupt.cli as cli
t1 = time.perf_counter()
cli.load_profile(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "profile_s": t2 - t1, "file": cli.__file__}))
"""


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _traced(tracer):
    """The traced-batch context, or no context at all when not tracing."""
    return contextlib.nullcontext() if tracer is None else spans.batch(tracer)


def time_setup(spec: dict) -> dict:
    """Wall, import and profile-load seconds of a fresh interpreter importing
    the CLI and loading the workload's profile."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, spec["profile"]],
                          capture_output=True, text=True, timeout=60, check=True)
    wall = time.perf_counter() - t0
    out = json.loads(proc.stdout)
    if not out["file"].startswith(spec["src"]):
        raise RuntimeError(f"imported {out['file']}, not the package under {spec['src']}")
    return {"wall_s": wall, "import_s": out["import_s"], "profile_s": out["profile_s"]}


def corrupt_batch(cli, spec: dict, out: Path, workers: int, tracer=None) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with _traced(tracer):
        cfg = cli.RunConfig(profile_name=spec["profile"], input_root=Path(spec["input"]),
                            output_root=out, seed=spec["seed"], workers=workers)
        manifest = cli.run_corrupt(cfg)
    wall = time.perf_counter() - t0
    per_frame: dict[str, int] = {}
    for entry in manifest["entries"]:
        per_frame[entry["frame"]] = per_frame.get(entry["frame"], 0) + 1
    complete = sum(1 for n in per_frame.values() if n == spec["outputs_per_frame"])
    return {"wall_s": wall, "workers": workers, "complete_frames": complete,
            "entries": len(manifest["entries"]), "failures": len(manifest["failures"]),
            "digest": _digest(manifest)}


def evaluate_batch(cli, spec: dict, record_path: Path, tracer=None) -> dict:
    t0 = time.perf_counter()
    with _traced(tracer):
        profile = cli.load_profile(spec["profile"])
        record = cli.run_evaluate(Path(spec["pred"]), Path(spec["gt"]), profile,
                                  spec["num_classes"], model="bench")
        record_path.write_text(cli.write_accuracy_record(record))
        report = cli.run_report([record_path], record_path, "csv")
    wall = time.perf_counter() - t0
    text = record_path.read_text()
    return {"wall_s": wall, "workers": 1, "record": text, "report": report,
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def run(spec: dict) -> dict:
    from lidarcorrupt import cli

    work = Path(spec["work"])
    corrupt = spec["kind"] == "corrupt"

    def batch(workers: int, tracer=None, out: str = "out") -> dict:
        if corrupt:
            return corrupt_batch(cli, spec, work / out, workers, tracer)
        return evaluate_batch(cli, spec, work / f"{out}.json", tracer)

    result: dict = {"lidarcorrupt": cli.__file__, "batches": [], "setup": []}
    setup = result["setup"]
    time_setup(spec)  # compiles the bytecode that the timed starts reuse
    batch(1 if spec["trace"] else spec["workers"])  # warm-up, not recorded

    start = time.perf_counter()

    def running() -> bool:
        """Times the set-up samples now due; False once `seconds` are over."""
        elapsed = time.perf_counter() - start
        due = math.ceil(spec["setup_samples"] * min(1.0, elapsed / spec["seconds"]))
        while len(setup) < due:
            setup.append(time_setup(spec))
        return not result["batches"] or elapsed < spec["seconds"]

    if not spec["trace"]:
        while running():
            result["batches"].append(batch(spec["workers"]))
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        tracer = spans.Tracer()
        result["traced"] = []
        while running():
            result["batches"].append(batch(1))
            tracer.run = f"{spec['run_id']}/batch{len(result['traced'])}"
            result["traced"].append(batch(1, tracer))
        tracer.write(Path(spec["spans_path"]))
        result["trace"] = spans.summarize(tracer.spans)
    if corrupt and spec["trace"]:
        # The one-worker traced batches must match a batch at nproc workers.
        result["check_batch"] = batch(spec["nproc"], out="out_check")
    return result


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(run(spec)))


if __name__ == "__main__":
    main()
