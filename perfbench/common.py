"""Settings shared by the benchmark runner (run.py), its worker processes and the self-check.

This module imports nothing beyond the standard library, so `pin_environment`
can run before NumPy is first imported.
"""
import hashlib
import os

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid", "csv")

# BLAS/OpenMP pools are pinned to one thread so that the single-process
# workloads measure the program, not how many cores the pool grabbed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# "full" is the benchmark; "tiny" only exists so the self-check runs in seconds.
# Main calls are sized to take about a second or less, so a run holds dozens
# of wall_s samples.  `batches` is the batch-loop slice run after each main
# call, about a sixth of a second on both workloads.  A run is `workers`
# worker processes, each followed by `probes_per_worker` set-up-only ones.
SCALES = {
    "full": dict(grid_datasets=1, grid_matrices=4, grid_rounds=100,
                 csv_rows=10_000, val_rows=1_000, n_features=20, n_classes=5,
                 train_rounds=5, train_depth=2, model_rounds=300, batch_rows=64,
                 batches={"grid": 40, "csv": 20},
                 workers=3, min_iterations=2, probes_per_worker=4),
    "tiny": dict(grid_datasets=1, grid_matrices=2, grid_rounds=5,
                 csv_rows=1500, val_rows=300, n_features=20, n_classes=5,
                 train_rounds=2, train_depth=2, model_rounds=20, batch_rows=64,
                 batches={"grid": 10, "csv": 10},
                 workers=2, min_iterations=1, probes_per_worker=1),
}

# Grid rows per trial under the criterion-4 protocol (synth defaults):
# 1000 training rows and 500 test rows.
GRID_ROWS_PER_TRIAL = 1500

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "batch_p95_ms": "ms",
}

PER_LAYER = {
    "io.load_dataset_s": "s",
    "io.load_features_s": "s",
    "io.rows_parsed": "count",
    "io.parse_rows_per_s": "rows/s",
    "io.load_model_s": "s",
    "io.save_model_s": "s",
    "io.write_trace_s": "s",
    "weak.stump_search_calls": "count",
    "weak.stump_search_s": "s",
    "weak.accumulate_split_s": "s",
    "weak.build_grid_s": "s",
    "weak.grow_layer_calls": "count",
    "weak.grow_layer_s": "s",
    "weak.leaves_changed_ratio": "ratio",
    "weak.tree_evaluate_s": "s",
    "boost.train_calls": "count",
    "boost.train_s": "s",
    "boost.train_p50_s": "s",
    "boost.train_p95_s": "s",
    "boost.rounds_run": "count",
    "boost.rounds_used_ratio": "ratio",
    "boost.update_weights_s": "s",
    "boost.self_s": "s",
    "boost.scores_s": "s",
    "boost.rows_scored": "count",
    "costs.dataset_terms_calls": "count",
    "costs.dataset_terms_s": "s",
    "costs.loss_floor_s": "s",
    "synth.gen_dataset_s": "s",
    "synth.gen_cost_matrix_s": "s",
    "synth.self_s": "s",
    "baselines.posterior_all_s": "s",
    "baselines.two_step_predict_all_s": "s",
    "loss.empirical_risk_s": "s",
    "evaluation.select_rounds_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "trace.overhead_s": "s",
}


def pin_environment() -> None:
    """One BLAS/OpenMP thread, and no REBEL_WORKERS override."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REBEL_WORKERS", None)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
