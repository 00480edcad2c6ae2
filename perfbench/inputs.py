"""Seeded input generation for the benchmark workloads, outside any timed region.

Everything here depends only on the seed and NumPy, never on the program
under test, so that the inputs (and their digests) stay the same across
commits of the program.  Feature values are rounded to four decimals and
written with four decimals, so the CSV text parses back to exactly the
float64 arrays kept for the batch loop.
"""
import os

import numpy as np

from common import sha256_file

# Independent random streams per input, so one input's size never shifts another.
STREAM_CENTERS, STREAM_TRAIN, STREAM_VAL, STREAM_COSTS, STREAM_PREDICT, STREAM_MODEL = range(6)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _blobs(rng, centers: np.ndarray, n: int):
    """Gaussian blobs around per-class centers; labels are 1..K."""
    k, d = centers.shape
    labels = rng.integers(1, k + 1, size=n)
    features = np.round(centers[labels - 1] + rng.normal(size=(n, d)), 4)
    return features, labels


def _write_csv(path, features: np.ndarray, labels=None) -> None:
    d = features.shape[1]
    if labels is None:
        np.savetxt(path, features, fmt="%.4f", delimiter=",")
    else:
        np.savetxt(path, np.column_stack([features, labels]),
                   fmt=["%.4f"] * d + ["%d"], delimiter=",")


def _cost_matrix_text(rng, k: int) -> str:
    """Half-normal off-diagonal costs with a zero diagonal, one row per line."""
    entries = np.abs(rng.normal(size=(k, k))) + 0.05
    np.fill_diagonal(entries, 0.0)
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in entries)


def random_model_text(rng, k: int, rounds: int, features: np.ndarray) -> str:
    """A stump model in the version-1 text format with data-drawn thresholds."""
    d = features.shape[1]
    feats = rng.integers(0, d, size=rounds)
    rows = rng.integers(0, features.shape[0], size=rounds)
    polarity = rng.choice([-1, 1], size=rounds)
    vectors = rng.normal(scale=0.1, size=(rounds, k))
    a0 = rng.normal(scale=0.1, size=k)
    lines = ["rebel-model 1", f"k {k}", f"d {d}", "config benchmark random stumps",
             "a0 " + " ".join(repr(float(v)) for v in a0), f"rounds {rounds}"]
    for t in range(rounds):
        threshold = float(features[rows[t], feats[t]])
        lines += ["tree 1", f"node {feats[t]} {threshold!r} {polarity[t]}",
                  "a " + " ".join(repr(float(v)) for v in vectors[t])]
    lines.append("end")
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_inputs(workload: str, seed: int, scale: dict, workdir: str) -> dict:
    """Write one workload's inputs under workdir.

    Returns {"paths": {role: path}, "params": {...}, "records": [...]} where
    each record names an input with its shape and sha256.
    """
    paths = {}
    records = []

    def record(role, path, shape):
        paths[role] = path
        records.append({"name": role, "shape": list(shape), "sha256": sha256_file(path)})

    k, d = scale["n_classes"], scale["n_features"]
    batch_rows = scale["batch_rows"] * scale["batches"][workload]

    if workload == "grid":
        params = {"n_datasets": scale["grid_datasets"], "n_matrices": scale["grid_matrices"],
                  "rounds": scale["grid_rounds"], "depth": 1, "seed": seed,
                  "fit_a0": True, "workers": 1}
        # the batch loop serves a model of the grid's shape: K=4 classes,
        # d=2 features, one stump per round
        centers = _rng(seed, STREAM_CENTERS).uniform(-5.0, 5.0, size=(4, 2))
        rows, _ = _blobs(_rng(seed, STREAM_PREDICT), centers, 512)
        path = os.path.join(workdir, "batch_rows.npy")
        np.save(path, rows)
        record("batch_rows", path, rows.shape)
        path = os.path.join(workdir, "model.txt")
        _write_text(path, random_model_text(_rng(seed, STREAM_MODEL), 4,
                                            scale["grid_rounds"], rows))
        record("model", path, (scale["grid_rounds"], 4))
        records.insert(0, {"name": "grid", "shape": [params["n_datasets"], params["n_matrices"]],
                           "sha256": None})
    elif workload == "csv":
        params = {"rounds": scale["train_rounds"], "depth": scale["train_depth"]}
        centers = _rng(seed, STREAM_CENTERS).normal(size=(k, d))
        x, y = _blobs(_rng(seed, STREAM_TRAIN), centers, scale["csv_rows"])
        path = os.path.join(workdir, "train.csv")
        _write_csv(path, x, y)
        record("train_csv", path, (x.shape[0], d + 1))
        xv, yv = _blobs(_rng(seed, STREAM_VAL), centers, scale["val_rows"])
        path = os.path.join(workdir, "val.csv")
        _write_csv(path, xv, yv)
        record("val_csv", path, (xv.shape[0], d + 1))
        path = os.path.join(workdir, "costs.csv")
        _write_text(path, _cost_matrix_text(_rng(seed, STREAM_COSTS), k))
        record("costs_csv", path, (k, k))
        xp, _ = _blobs(_rng(seed, STREAM_PREDICT), centers, scale["csv_rows"])
        path = os.path.join(workdir, "features.csv")
        _write_csv(path, xp)
        record("features_csv", path, xp.shape)
        path = os.path.join(workdir, "model.txt")
        _write_text(path, random_model_text(_rng(seed, STREAM_MODEL), k,
                                            scale["model_rounds"], xp))
        record("model", path, (scale["model_rounds"], k))
        # the batch loop walks the first rows of the predict input, so its
        # scores can be checked against the rows `rebel predict` wrote
        rows = xp[:min(batch_rows, xp.shape[0])]
        path = os.path.join(workdir, "batch_rows.npy")
        np.save(path, rows)
        record("batch_rows", path, rows.shape)
        params["train_rows"] = int(x.shape[0])
        params["val_rows"] = int(xv.shape[0])
        params["predict_rows"] = int(xp.shape[0])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"paths": paths, "params": params, "records": records}
