"""Model evaluation: confusion matrix, error/risk, and validation round selection."""
from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

from .boost import StrongClassifier, predict_all
from .costs import CostMatrix
from .loss import empirical_risk

if TYPE_CHECKING:
    from .io import Dataset


def _check_classes(model: StrongClassifier, data: "Dataset", costs: CostMatrix) -> None:
    if data.k != costs.k:
        raise ValueError(f"dataset has {data.k} classes, cost matrix {costs.k}")
    if model.k != costs.k:
        raise ValueError(f"model scores {model.k} classes, cost matrix {costs.k}")


def evaluate(model: StrongClassifier, data: "Dataset",
             costs: CostMatrix) -> tuple[np.ndarray, float, float]:
    """Confusion counts (true class by row, 1-based order), error rate, and mean cost.

    The predictions are `predict_all`'s and the mean cost is `empirical_risk`,
    as in `select_rounds` and the comparison grid.
    """
    _check_classes(model, data, costs)
    preds = predict_all(model, data.features)
    n = data.labels.shape[0]
    k = costs.k
    confusion = np.bincount((data.labels - 1) * k + preds - 1, minlength=k * k).reshape(k, k)
    error = float((n - np.trace(confusion)) / n)
    return confusion, error, empirical_risk(preds, data.labels, costs)


def select_rounds(model: StrongClassifier, data: "Dataset", costs: CostMatrix) -> int:
    """Round count in 1..T with the lowest validation risk (ties to the smallest).

    Walks the model's staged scores, so the scan costs one model evaluation
    rather than one per candidate.  A model with no rounds returns 0.
    """
    _check_classes(model, data, costs)
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
