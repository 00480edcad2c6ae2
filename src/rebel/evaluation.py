"""Model evaluation: confusion matrix, error/risk, and validation round selection."""
from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

from .costs import CostMatrix
from .loss import empirical_risk

if TYPE_CHECKING:
    from .boost import StrongClassifier
    from .io import Dataset


def evaluate(model: "StrongClassifier", data: "Dataset",
             costs: CostMatrix) -> tuple[np.ndarray, float, float]:
    """Confusion counts (true class by row, 1-based order), error rate, and mean cost.

    Error and risk are derived from the confusion matrix.
    """
    if data.k != costs.k:
        raise ValueError(f"dataset has {data.k} classes, cost matrix {costs.k}")
    if model.k != costs.k:
        raise ValueError(f"model scores {model.k} classes, cost matrix {costs.k}")
    preds = np.argmax(model.scores(data.features), axis=1) + 1
    n = data.labels.shape[0]
    confusion = np.zeros((costs.k, costs.k), dtype=np.int64)
    np.add.at(confusion, (data.labels - 1, preds - 1), 1)

    error = float((n - np.trace(confusion)) / n)
    risk = float(np.sum(confusion * costs.entries) / n)
    return confusion, error, risk


def select_rounds(model: "StrongClassifier", data: "Dataset", costs: CostMatrix) -> int:
    """Round count in 1..T with the lowest validation risk (ties to the smallest).

    Walks the model's staged scores, so the scan costs one model evaluation
    rather than one per candidate.  A model with no rounds returns 0.
    """
    if data.k != costs.k:
        raise ValueError(f"dataset has {data.k} classes, cost matrix {costs.k}")
    best_t = 0
    best_risk = np.inf
    for t, h in enumerate(model.staged_scores(data.features), 1):
        preds = np.argmax(h, axis=1) + 1
        risk = empirical_risk(preds, data.labels, costs)
        if risk < best_risk:
            best_risk = risk
            best_t = t
    return best_t


def cost_checksum(costs: CostMatrix) -> str:
    """Stable hex digest of the cost matrix's canonical CSV form."""
    canon = "\n".join(",".join(repr(float(v)) for v in row) for row in costs.entries)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def report_text(model: "StrongClassifier", data: "Dataset", costs: CostMatrix) -> str:
    """JSON evaluation report: error, risk, confusion rows, K, N, cost checksum."""
    confusion, error, risk = evaluate(model, data, costs)
    report = {
        "k": costs.k,
        "n": int(data.labels.shape[0]),
        "error": error,
        "risk": risk,
        "confusion": confusion.tolist(),
        "cost_checksum": cost_checksum(costs),
    }
    return json.dumps(report, indent=2)
