"""Benchmark of the lidarcorrupt pipeline: `corrupt` and `evaluate` end to end.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:
  corrupt-labelled-w1    semantickitti, 2 labelled frames per batch, 1 worker
  corrupt-unlabelled-wN  kitti, 4 frames with box files per batch, nproc workers
  evaluate-score         run_evaluate + run_report over 4 frames x 25 label dirs

One run generates its inputs from --seed (untimed), runs measure.py in a
fresh interpreter for --seconds of back-to-back batches, and finally
checks every output. Spread over those seconds, measure.py also times 16
fresh interpreters importing `lidarcorrupt.cli` and loading the profile;
setup_s is their median. The package runs with the interpreter's and the
C library's defaults.
With --trace 0 it reports the end-to-end metrics: frames and points done
over the summed batch wall time, setup_s and peak RSS. With --trace 1 it
reports the per-layer self times and counters of traced one-worker
batches, per input frame (corrupt) or per scored ground-truth file
(evaluate). See README.md in this directory for every metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record, with the
environment, every batch and every check, is written under
.bench_work/results/, and the traced run's spans under .bench_work/spans/.
Inputs and outputs live in a per-run directory under .bench_work/ that is
removed at exit. The package is imported from src/ next to this
directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 16

WORKLOADS = {
    "corrupt-labelled-w1": {"kind": "corrupt", "profile": "semantickitti", "frames": 2,
                            "labels": True, "boxes": False, "workers": "1"},
    "corrupt-unlabelled-wN": {"kind": "corrupt", "profile": "kitti", "frames": 4,
                              "labels": False, "boxes": True, "workers": "nproc"},
    "evaluate-score": {"kind": "evaluate", "profile": "semantickitti", "frames": 4,
                       "workers": "1"},
}

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _filesystem(path: Path) -> dict:
    """Mount point and type of the filesystem holding `path`, from /proc/mounts."""
    best = ("", "unknown")
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best[0]):
                best = (mount, fields[2])
    except OSError:
        pass
    return {"mount": best[0], "type": best[1]}


def environment(work: Path, seed: int) -> dict:
    blas: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

    def version(pkg: str):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": _nproc(), "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "click": version("click"),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads_env": threads, "seed": seed,
            "output_fs": _filesystem(work)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_corrupt(res: dict, out: Path, expected: int) -> tuple[int, int, list]:
    """Outputs attempted and failed over every batch, plus notes on failures.

    A batch whose manifest differs from the first batch's counts all its
    outputs as failed. The files of the last batch are re-read: each must
    re-hash to its manifest checksum, hold only finite values, and each
    .label must have one word per point of its .bin.
    """
    batches = res["batches"] + res.get("traced", []) + (
        [res["check_batch"]] if "check_batch" in res else [])
    reference = batches[0]["digest"]
    attempted = failed = 0
    notes = []
    for i, b in enumerate(batches):
        attempted += expected
        if b["digest"] != reference:
            failed += expected
            notes.append(f"batch {i} ({b['workers']} workers): manifest differs from batch 0")
        else:
            failed += expected - b["entries"]
    if failed and not notes:
        notes.append("manifests list fewer outputs than selected")
    manifest = json.loads((out / "manifest.json").read_text())
    if hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest() != reference:
        notes.append("manifest on disk differs from batch 0")
        failed += 1
    bad = 0
    for entry in manifest["entries"]:
        path = out / entry["file"]
        ok = path.is_file() and _sha256(path) == entry["sha256"]
        if ok and path.suffix == ".bin":
            data = path.read_bytes()
            ok = len(data) % 16 == 0 and bool(np.isfinite(np.frombuffer(data, "<f4")).all())
        elif ok and path.suffix == ".label":
            scan = path.with_suffix(".bin")
            ok = scan.is_file() and path.stat().st_size // 4 == scan.stat().st_size // 16
        if not ok:
            bad += 1
            if bad <= 5:
                notes.append(f"output check failed: {entry['file']}")
    return attempted, failed + bad, notes


def check_evaluate(res: dict, reference: dict) -> tuple[int, int, list]:
    """Every batch must write the same record, equal to the bincount reference
    computed by the input generator, and its self-report must read mCE 100.00."""
    batches = res["batches"] + res.get("traced", [])
    per_batch = len(reference) + 1
    attempted = per_batch * len(batches)
    failed = 0
    notes = []
    first = batches[0]
    for i, b in enumerate(batches):
        if b["digest"] != first["digest"]:
            failed += per_batch
            notes.append(f"batch {i}: record differs from batch 0")
            continue
        rows = list(csv.DictReader(io.StringIO(b["report"])))
        if len(rows) != 1 or rows[0]["mce"] != "100.00":
            failed += 1
            notes.append(f"batch {i}: record against itself gives {rows}")
    record = json.loads(first["record"])
    scores = {"clean": record["clean"]}
    for kind, values in record["corruptions"].items():
        for sev, value in zip(inputs.SEVERITIES, values):
            scores[f"{kind}/{sev}"] = value
    for key, expected in reference.items():
        got = scores.get(key)
        if got is None or abs(got - expected) > 1e-12:
            failed += len(batches)
            notes.append(f"{key}: mIoU {got} != reference {expected}")
    return attempted, failed, notes


def check_reference(state: Path, workload: str, seed: int, digest: str) -> list:
    """A note if this run's manifest or record differs from that of an earlier
    run of the same code, workload and seed in this checkout.

    The first such run stores its digest under .bench_work/digests/, keyed by
    a hash of the package source and of inputs.py, so a changed program or
    input generator starts a new reference.
    """
    code = hashlib.sha256()
    for path in sorted(SRC.rglob("*")) + [BENCH / "inputs.py"]:
        if path.is_file() and path.suffix in (".py", ".json"):
            code.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    ref = state / "digests" / f"{workload}-seed{seed}-{code.hexdigest()[:16]}"
    if ref.is_file():
        earlier = ref.read_text()
        if earlier != digest:
            return [f"output differs from an earlier run with seed {seed}: "
                    f"{digest[:12]} != {earlier[:12]}"]
        return []
    ref.parent.mkdir(exist_ok=True)
    tmp = ref.with_name(f"{ref.name}.{os.getpid()}")
    tmp.write_text(digest)
    os.replace(tmp, ref)
    return []


def end_to_end(res: dict, wl: dict, setup: dict, points_per_unit: float) -> dict:
    batches = res["batches"]
    if wl["kind"] == "corrupt":
        units = [b["complete_frames"] for b in batches]
    else:
        units = [wl["files"]] * len(batches)
    wall = sum(b["wall_s"] for b in batches)
    return {
        "frames_per_s": sum(units) / wall,
        "points_per_s": sum(units) * points_per_unit / wall,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict, wl: dict, setup: dict) -> tuple[dict, list]:
    tr = res["trace"]
    traced_walls = [b["wall_s"] for b in res["traced"]]
    untraced_walls = [b["wall_s"] for b in res["batches"]]
    per_batch = wl["frames"] if wl["kind"] == "corrupt" else wl["files"]
    n = per_batch * len(traced_walls)
    metrics = {m: v / n for m, v in tr["self_s"].items() if m != "trace.unattributed_s"}
    metrics.update({m: v / n for m, v in tr["counts"].items()})
    apply_ms = tr["apply_ms"]
    metrics["corruptions.apply_ms_p50"] = float(np.percentile(apply_ms, 50)) if apply_ms else 0.0
    metrics["corruptions.apply_ms_p95"] = float(np.percentile(apply_ms, 95)) if apply_ms else 0.0
    metrics["corruptions.apply_samples"] = len(apply_ms)
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.profile_s"] = setup["profile_s"]
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1.0)
    outside = sum(traced_walls) - tr["root_s"]
    metrics["trace.unattributed_frac"] = ((tr["self_s"]["trace.unattributed_s"] + outside)
                                          / sum(traced_walls))
    notes = []
    if abs(tr["total_self_s"] - tr["root_s"]) > 1e-6 * tr["root_s"] or tr["min_self_s"] < -1e-6:
        notes.append(f"span self times do not add up: {tr['total_self_s']} vs {tr['root_s']}, "
                     f"smallest {tr['min_self_s']}")
    if tr["unmapped"]:
        notes.append(f"spans without a layer metric: {tr['unmapped']}")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lidarcorrupt" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'lidarcorrupt'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    wl = dict(WORKLOADS[args.workload])
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    state = ROOT / ".bench_work"
    work = state / run_id
    work.mkdir(parents=True)
    try:
        return _run(args, wl, run_id, state, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl: dict, run_id: str, state: Path, work: Path, started: float) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    nproc = _nproc()
    spec = {"kind": wl["kind"], "profile": wl["profile"], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc, "work": str(work),
            "run_id": run_id, "workers": nproc if wl["workers"] == "nproc" else 1,
            "src": str(SRC), "setup_samples": SETUP_SAMPLES}
    if wl["kind"] == "corrupt":
        spec["input"] = str(work / "in")
        points = inputs.write_scan_dataset(work / "in", args.seed, wl["frames"],
                                           labels=wl["labels"], boxes=wl["boxes"])
        spec["outputs_per_frame"] = ((2 if wl["labels"] else 1)
                                     * len(inputs.KINDS) * len(inputs.SEVERITIES))
        points_per_unit = points / wl["frames"]
        reference = None
    else:
        spec.update(pred=str(work / "eval" / "pred"), gt=str(work / "eval" / "gt"),
                    num_classes=inputs.NUM_CLASSES)
        reference, points, wl["files"] = inputs.write_eval_tree(work / "eval", args.seed,
                                                                wl["frames"])
        points_per_unit = points / wl["files"]
    (state / "spans").mkdir(exist_ok=True)
    spec["spans_path"] = str(state / "spans" / f"{run_id}.jsonl")
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    # Its own session, so a timeout can stop the pool workers with it.
    proc = subprocess.Popen([sys.executable, str(BENCH / "measure.py"), str(spec_path),
                             str(result_path)], env=env, start_new_session=True)
    try:
        returncode = proc.wait(timeout=TIME_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("error: measure.py ran out of time", file=sys.stderr)
        return 1
    if returncode != 0:
        print(f"error: measure.py exited with {returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    samples = res["setup"]
    setup = {"setup_s": statistics.median(s["wall_s"] for s in samples),
             "samples_s": [s["wall_s"] for s in samples],
             "import_s": statistics.median(s["import_s"] for s in samples),
             "profile_s": statistics.median(s["profile_s"] for s in samples)}

    if wl["kind"] == "corrupt":
        attempted, failed, notes = check_corrupt(
            res, work / "out", wl["frames"] * spec["outputs_per_frame"])
    else:
        attempted, failed, notes = check_evaluate(res, reference)
    rerun = check_reference(state, args.workload, args.seed, res["batches"][0]["digest"])
    if rerun:
        notes += rerun
        failed = attempted
    if args.trace:
        metrics, trace_notes = per_layer(res, wl, setup)
        notes += trace_notes
    else:
        metrics = end_to_end(res, wl, setup, points_per_unit)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    correct = failed == 0 and not notes
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()}}

    record = dict(out, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=environment(work, args.seed), setup=setup,
                  notes=notes, batches=res["batches"], traced=res.get("traced"),
                  check_batch=res.get("check_batch"))
    for b in record["batches"] + (record["traced"] or []):
        b.pop("record", None)
    (state / "results").mkdir(exist_ok=True)
    record_path = state / "results" / f"{run_id}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(f"record: {record_path}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
