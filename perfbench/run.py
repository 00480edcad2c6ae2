#!/usr/bin/env python3
"""rebel-boost benchmark runner.

Run from the root of a source checkout (it imports the package from ./src):

    python3 perfbench/run.py --workload grid --seed 0 --seconds 55 --trace 0

Workloads, each run in fresh single-threaded processes (workers=1):

  grid   rebel.synth.run_comparison under the criterion-4 protocol (K=4,
         2 clusters per class, d=2, 1000/500 rows, half-normal normalized
         costs, a0 fitted) at 1 dataset x 4 cost matrices and 100 stump
         rounds per call.  Small trainings whose data fits in cache:
         per-round boost overhead and small-N stump search dominate; no
         CSV work and no layer growth.
  csv    `rebel train` through rebel.cli.main on a generated 10k x 20, K=5
         CSV with a cost-matrix file, depth-2 trees, --trace and a 1k-row
         --val file, then `rebel predict` through rebel.cli.main on a
         10k x 20 feature CSV with a 300-stump model: CSV parsing, layer
         growth, round selection, model and trace writes, bulk scoring and
         output formatting.

After every main call the same closed loop with one caller runs a slice of
64-row batches scored by StrongClassifier.scores + argmax on a model loaded
once during set-up (the 300-stump model on csv, a generated 100-stump K=4,
d=2 model on grid), so that batch latency is defined on both workloads.

Inputs are generated from --seed before anything is timed.  A run is three
worker processes, one after another, that each repeat the main call and its
batch slice for a third of --seconds; each worker is followed by set-up-only
processes.  wall_s is the 90th percentile of the main-call times, setup_s
the median over all untraced processes, and batch latencies are pooled.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics (medians over traced iterations) with --trace 1.  A fuller record
(inputs, output digests, provenance, per-iteration values) goes to
perfbench/results/.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import (END_TO_END, HERE, PER_LAYER, SCALES, WORKLOADS, pin_environment,
                    sha256_file)

pin_environment()

import numpy as np  # noqa: E402  (after the thread pins)

import inputs  # noqa: E402

RUN_DEADLINE_S = 170.0
RESULTS = os.path.join(HERE, "results")
RECORDED = os.path.join(HERE, "recorded_digests.json")


class WorkerError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full",
                   help="input sizes; 'tiny' is for the self-check only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rebel", "__init__.py")):
        print(f"error: no rebel package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    scale = SCALES[args.scale]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        data = inputs.make_inputs(args.workload, args.seed, scale, workdir)
        bench = Bench(args, scale, src, root, workdir, data, started)
        reps = bench.run_workers()
        setups = bench.setups
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = summarize(args, scale, data, reps, setups, root)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": record["details"]}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


class Bench:
    """Spawns worker processes for one workload and collects their results."""

    def __init__(self, args, scale, src, root, workdir, data, started):
        self.args = args
        self.scale = scale
        self.src = src
        self.root = root
        self.workdir = workdir
        self.data = data
        self.deadline = started + RUN_DEADLINE_S
        self.count = 0
        self.setups = []         # set-up times of every untraced process spawned

    def spec(self, traced: bool, setup_only: bool) -> dict:
        self.count += 1
        tag = f"rep{self.count}"
        paths = dict(self.data["paths"])
        params = dict(self.data["params"])
        argvs = []
        workload = self.args.workload
        if workload == "csv":
            paths["model_out"] = os.path.join(self.workdir, f"{tag}-model.txt")
            paths["trace_out"] = os.path.join(self.workdir, f"{tag}-trace.csv")
            paths["predictions_out"] = os.path.join(self.workdir, f"{tag}-predictions.csv")
            argvs = [["train", "--data", paths["train_csv"], "--labels", "col:-1",
                      "--costs", paths["costs_csv"], "--rounds", str(params["rounds"]),
                      "--depth", str(params["depth"]), "--out", paths["model_out"],
                      "--trace", paths["trace_out"], "--val", paths["val_csv"]],
                     ["predict", "--model", paths["model"], "--data", paths["features_csv"],
                      "--out", paths["predictions_out"]]]
        return {"workload": workload, "src": self.src, "traced": traced,
                "setup_only": setup_only, "paths": paths, "params": params, "argvs": argvs,
                "batch_rows": self.scale["batch_rows"],
                "batches": self.scale["batches"][workload],
                "min_iterations": self.scale["min_iterations"],
                "out": os.path.join(self.workdir, f"{tag}-result.json")}

    def spawn(self, spec: dict) -> dict:
        spec_path = os.path.join(self.workdir, f"rep{self.count}-spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(5.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                  cwd=self.root, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker exceeded {timeout:.0f}s") from exc
        if proc.returncode != 0 or not os.path.exists(spec["out"]):
            raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(spec["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        result["traced"] = spec["traced"]
        if not spec["traced"]:
            self.setups.append(result["setup_s"])
        return result

    def run_workers(self) -> list:
        """Run the run's worker processes one after another; returns their results.

        The run's --seconds are cut into one equal slot per worker.  A worker
        iterates the workload until its slot (less the time its set-up-only
        followers will need) is used up, and each untraced worker is
        followed by a few set-up-only processes, so set-up samples are
        spread over the run as the iterations are.  The traced run
        alternates traced and untraced workers, starting traced, so tracing
        overhead is measured in the same run.
        """
        trace = bool(self.args.trace)
        workers = self.scale["workers"]
        probes = 0 if trace else self.scale["probes_per_worker"]
        slot = self.args.seconds / workers
        start = time.monotonic()
        reps = []
        for k in range(workers):
            traced = trace and k % 2 == 0
            spec = self.spec(traced, setup_only=False)
            reserve = probes * (statistics.median(self.setups) if self.setups else 0.3)
            spec["deadline"] = start + (k + 1) * slot - reserve
            if traced and not any(r["traced"] for r in reps):
                spec["spans_out"] = os.path.join(self.workdir, "spans.json")
            reps.append(self.spawn(spec))
            self.run_setup_probes(probes)
            if "spans_out" in spec:
                os.makedirs(RESULTS, exist_ok=True)
                shutil.move(spec["spans_out"], os.path.join(
                    RESULTS, f"spans-{self.args.workload}-{self.args.scale}.json"))
        return reps

    def run_setup_probes(self, count: int) -> None:
        for _ in range(max(0, count)):
            self.spawn(self.spec(False, setup_only=True))


def percentile(values, q) -> float:
    return float(np.percentile(values, q))


def summarize(args, scale, data, reps, setups, root) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    # every worker sees the same inputs, so outputs must match bit for bit
    first = reps[0]["digests"]
    for r in reps[1:]:
        same = r["digests"] == first
        attempted += 1
        failed += 0 if same else 1
        if not same:
            problems.append("output digests differ between workers")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    walls = [w for r in plain for w in r["walls_s"]]
    latencies = [t for r in plain for t in r["latencies_s"]]
    # The 90th percentile, not the median, of the main-call times: on a
    # shared host the machine runs at its usual speed with stretches of up
    # to twice that, lasting seconds to minutes, and a high percentile
    # follows the usual speed whether or not a run caught such a stretch.
    wall = percentile(walls, 90)
    rows = reps[0]["rows"]
    details = {
        "scale": args.scale,
        "workers": len(plain),
        "traced_workers": len(traced),
        "iterations": len(walls),
        "setup_samples": len(setups),
        "batch_samples": len(latencies),
        "batch_p50_ms": percentile(latencies, 50) * 1e3,
        "batch_p99_ms": percentile(latencies, 99) * 1e3,
        "batch_rows": scale["batch_rows"],
        "served_rounds": reps[0]["served_rounds"],
        "fail_frac": failed / attempted if attempted else 0.0,
        "wall_p50_s": statistics.median(walls),
        "rows_per_s": rows / wall,
        "wall_s_each": walls,
        "setup_s_each": setups,
        "digests": first,
        "digests_vs_recorded": compare_recorded(args, data, first),
        "inputs": data["records"],
        "params": data["params"],
        "provenance": provenance(root),
    }
    if args.workload == "grid":
        details["trials_per_s"] = reps[0]["trials"] / wall
        details["win_fraction"] = reps[0]["win_fraction"]

    if args.trace:
        traced_walls = [w for r in traced for w in r["walls_s"]]
        metrics = median_metrics([layer for r in traced for layer in r["layers"]])
        metrics["trace.overhead_s"] = percentile(traced_walls, 90) - wall
        details["traced_wall_s"] = percentile(traced_walls, 90)
        details["untraced_wall_s"] = wall
        details["missing_spans"] = sorted({m for r in traced for m in r["missing_spans"]})
        details["hook_failures"] = sorted({m for r in traced for m in r["hook_failures"]})
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "batch_p95_ms": percentile(latencies, 95) * 1e3,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
        "problems": problems,
    }


def median_metrics(rows: list) -> dict:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def compare_recorded(args, data, digests) -> str:
    """Compare output digests with those recorded for the default seed, if any."""
    if not os.path.exists(RECORDED):
        return "no record"
    with open(RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)
    entry = recorded.get("workloads", {}).get(args.workload)
    if args.seed != recorded.get("seed") or args.scale != recorded.get("scale") or not entry:
        return "no record for this seed and scale"
    if entry["inputs"] != data["records"]:
        return "inputs differ from the record"
    if entry["outputs"] != digests:
        return "outputs differ from the record at " + recorded.get("git_rev", "?")
    return "match"


def provenance(root) -> dict:
    return {
        "git_rev": git_rev(root),
        "src_sha256": src_digest(os.path.join(root, "src", "rebel")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_rev(root):
    """HEAD commit from .git when the checkout has one (a plain export does not)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def src_digest(package_dir) -> str:
    """sha256 over the package's .py files, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + sha256_file(os.path.join(package_dir, name)).encode())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    sys.exit(main())
