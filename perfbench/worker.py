"""One worker process of a benchmark run: set-up, then iterations of the workload.

Usage: python3 perfbench/worker.py SPEC.json

run.py writes SPEC.json and reads back the result file it names.
Timeline of a worker:

  1. set-up: interpreter start, NumPy and rebel import, and loading the
     model the batch loop serves; run.py measures from process spawn to
     the `ready` timestamp taken here;
  2. iterations, until the next one would pass the spec's deadline (and at
     least `min_iterations`), each of them:
       a. the workload's main call, timed as one wall_s sample;
       b. a slice of the batch loop: one caller scores `batches` fixed-size
          batches with StrongClassifier.scores + argmax on a model loaded
          once, cycling over the batch rows; only the first pass over them
          is kept for checking, so the loop does not grow the heap the
          collector has to walk;
       c. outside the timed regions, the outputs are checked (first
          iteration) or compared by digest with the first iteration's;
     in a traced worker each iteration has its own tracer, installed
     before (a) and removed after (b);
  3. peak RSS is read and the batch results are checked.
"""
import gc
import json
import os
import statistics
import sys
import time

from common import GRID_ROWS_PER_TRIAL, pin_environment, sha256_file, sha256_text

pin_environment()

import resource  # noqa: E402

import numpy as np  # noqa: E402

LOSS_TOL = 1e-12


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import rebel
    import rebel.cli
    import rebel.io
    import rebel.synth
    if not os.path.abspath(rebel.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"imported rebel from {rebel.__file__}, not {spec['src']}")
    Tracer = None
    if spec["traced"]:
        from tracer import Tracer

    workload = spec["workload"]
    paths = spec["paths"]
    served = rebel.io.load_model(paths["model"])
    ready = time.monotonic()
    if spec["setup_only"]:
        _write(spec["out"], {"ready": ready})
        return 0

    if workload == "grid":
        def call():
            return rebel.synth.run_comparison(**spec["params"])
    else:
        def call():
            return [rebel.cli.main(argv) for argv in spec["argvs"]]

    rows = np.load(paths["batch_rows"])
    batch = spec["batch_rows"]
    distinct = rows.shape[0] // batch
    first_pass = []          # (scores, preds) of each distinct batch, checked later
    repeats_differ = 0
    walls = []
    latencies = []
    layers = []
    spans = None
    checks = Checks()
    result = {"ready": ready}
    reference = None
    first_digests = None
    durations = []
    while True:
        began = time.monotonic()
        tracer = None
        if Tracer is not None:
            tracer = Tracer()
            tracer.install()
        gc.collect()
        start = time.perf_counter()
        outcome = call()
        walls.append(time.perf_counter() - start)
        for b in range(spec["batches"]):
            lo = (b % distinct) * batch
            x = rows[lo:lo + batch]
            t0 = time.perf_counter()
            scores = served.scores(x)
            preds = np.argmax(scores, axis=1) + 1
            latencies.append(time.perf_counter() - t0)
            if len(first_pass) < distinct:
                first_pass.append((scores, preds))
            else:
                seen_scores, seen_preds = first_pass[b % distinct]
                repeats_differ += not (np.array_equal(scores, seen_scores)
                                       and np.array_equal(preds, seen_preds))
        if tracer is not None:
            tracer.uninstall()
            layers.append(tracer.summary())
            result["missing_spans"] = tracer.missing
            result["hook_failures"] = sorted(tracer.hook_failures)
            if spans is None:
                spans = tracer.span_table()
            del tracer

        # the first iteration's outputs get the full checks; later ones must
        # reproduce its digests byte for byte
        if first_digests is None:
            if workload == "grid":
                _check_grid(outcome, spec, checks, result)
            else:
                _check_train(outcome[0], spec, checks, rebel.io)
                reference = _check_predict(outcome[1], spec, checks)
                params = spec["params"]
                result["rows"] = params["train_rows"] + params["val_rows"] + params["predict_rows"]
            first_digests = result["digests"] = _digests(workload, outcome, spec)
        else:
            digests = _digests(workload, outcome, spec)
            checks.op(digests == first_digests,
                      f"iteration {len(walls)} outputs differ from the first iteration's")
        del outcome
        durations.append(time.monotonic() - began)
        if (len(walls) >= spec["min_iterations"]
                and time.monotonic() + statistics.median(durations) > spec["deadline"]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference is None:
        reference = served.scores(rows[:distinct * batch])
    for b, (scores, preds) in enumerate(first_pass):
        expected = reference[b * batch:(b + 1) * batch]
        checks.op(np.array_equal(preds, np.argmax(scores, axis=1) + 1)
                  and np.allclose(scores, expected, rtol=1e-9, atol=1e-12),
                  f"batch at row {b * batch} disagrees with full-input scores")
    repeats = len(latencies) - len(first_pass)
    checks.record(repeats, repeats_differ,
                  f"{repeats_differ} repeated batches differ from their first pass")
    result.update({"walls_s": walls, "peak_rss_mb": peak_rss_mb, "latencies_s": latencies,
                   "served_rounds": _model_rounds(paths["model"])})
    if Tracer is not None:
        result["layers"] = layers
        if spec.get("spans_out"):
            _write(spec["spans_out"], spans)
    result.update(checks.as_dict())
    _write(spec["out"], result)
    return 0


class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 10:
            self.problems.append(message)

    def op(self, ok: bool, message: str) -> None:
        self.record(1, 0 if ok else 1, message)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def _check_grid(rows, spec, checks, result) -> None:
    params = spec["params"]
    expected = params["n_datasets"] * params["n_matrices"]
    missing = abs(expected - len(rows))
    checks.record(missing, missing, f"{len(rows)} grid rows, expected {expected}")
    for r in rows:
        a, b = r["rebel_risk"], r["twostep_risk"]
        winner = "rebel" if a < b else "twostep" if b < a else "tie"
        checks.op(bool(np.isfinite(a) and np.isfinite(b) and a >= 0 and b >= 0
                       and r["winner"] == winner),
                  f"trial {r['trial_id']}: risks {a!r}/{b!r}, winner {r['winner']}")
    result["rows"] = len(rows) * GRID_ROWS_PER_TRIAL
    result["trials"] = len(rows)
    result["win_fraction"] = (sum(r["winner"] == "rebel" for r in rows) / len(rows)
                              if rows else 0.0)


def _check_train(code, spec, checks, rebel_io) -> None:
    paths = spec["paths"]
    if code != 0 or not os.path.exists(paths["model_out"]):
        checks.op(False, f"rebel train exited {code}")
        return
    with open(paths["model_out"], "rb") as fh:
        saved = fh.read()
    resaved = paths["model_out"] + ".resaved"
    rebel_io.save_model(rebel_io.load_model(paths["model_out"]), resaved)
    with open(resaved, "rb") as fh:
        roundtrip = fh.read() == saved
    with open(paths["trace_out"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        trace_rows = [line.strip().split(",") for line in fh if line.strip()]
    col = header.index("loss") if "loss" in header else None
    losses = [float(r[col]) for r in trace_rows] if col is not None else []
    monotone = col is not None and all(
        b <= a + LOSS_TOL * max(1.0, abs(a)) for a, b in zip(losses, losses[1:]))
    problems = []
    if not roundtrip:
        problems.append("model save -> load -> save is not byte-identical")
    if not monotone:
        problems.append("trace loss is not nonincreasing")
    rounds = _model_rounds(paths["model_out"])
    if len(trace_rows) != rounds:
        problems.append(f"{len(trace_rows)} trace rows for {rounds} model rounds")
    checks.op(not problems, "; ".join(problems))


def _check_predict(code, spec, checks):
    """Check `rebel predict` output; returns its scores as the batch loop's reference."""
    paths = spec["paths"]
    n = spec["params"]["predict_rows"]
    if code != 0 or not os.path.exists(paths["predictions_out"]):
        checks.record(n, n, f"rebel predict exited {code}")
        return None
    table = np.loadtxt(paths["predictions_out"], delimiter=",", skiprows=1, ndmin=2)
    preds = table[:, 0].astype(np.int64)
    scores = table[:, 1:]
    bad = int(np.sum(preds != np.argmax(scores, axis=1) + 1))
    checks.record(n, min(n, bad + abs(n - table.shape[0])),
                  f"{table.shape[0]} prediction rows for {n} inputs, "
                  f"{bad} not the argmax of their scores")
    return scores


def _digests(workload, outcome, spec) -> dict:
    """sha256 of the main call's outputs: the comparison table, or the files written."""
    if workload == "grid":
        lines = ["trial_id,dataset_seed,cost_seed,rebel_risk,twostep_risk,winner"]
        lines += [f"{r['trial_id']},{r['dataset_seed']},{r['cost_seed']},"
                  f"{r['rebel_risk']!r},{r['twostep_risk']!r},{r['winner']}" for r in outcome]
        return {"comparison_csv": sha256_text("\n".join(lines) + "\n")}
    # a file counts only when the call that writes it succeeded, so a stale
    # file from an earlier iteration cannot stand in for a failed call
    paths = spec["paths"]
    train_code, predict_code = outcome
    files = {"model": ("model_out", train_code), "trace": ("trace_out", train_code),
             "predictions": ("predictions_out", predict_code)}
    return {name: sha256_file(paths[role]) if code == 0 and os.path.exists(paths[role]) else None
            for name, (role, code) in files.items()}


def _model_rounds(path) -> int:
    """Round count from a model file's `rounds N` header line."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("rounds "):
                return int(line.split()[1])
    return 0


def _write(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
