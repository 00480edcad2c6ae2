"""The smoothed risk, the trainer's second objective, and the empirical risk of predictions."""
from __future__ import annotations

import numpy as np

from .costs import CostMatrix


def smoothed_risk(h: np.ndarray, cost_rows: np.ndarray, temperature: float,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean cost of predictions drawn from softmax(temperature * h), the trainer's second objective.

    Takes class-major (K, N) scores and cost rows, cost_rows[:, n] being
    sample n's cost row, or a stack of trainings, (B, K, N), for (B,) values.
    J(h) = mean_n sum_k cost_rows[k, n] q_kn with q_n = softmax(temperature h_n).
    Given the class posterior p(x) the expected value at x is
    sum_k R_k(x) q_k(x), where R_k is the expected cost of predicting k.  That
    is at least min_k R_k and gets there only as q concentrates on the
    minimum-expected-cost class: the smoothed risk is population consistent,
    and its minimizer separates the minimum-risk class by an unbounded margin
    wherever it is unique, certain or not.  As the temperature grows, J tends
    to the training risk of argmax h.

    Returns (J, q, expected), q of h's shape and expected[n] =
    sum_k cost_rows[k, n] q_kn.  The slope of J in h[k, n] is
    temperature / N * q[k, n] * (cost_rows[k, n] - expected[n]).  `out`, if
    given, is the buffer of h's shape that becomes q; it may be h itself.
    Each reduction over the classes adds K contiguous rows of one training.
    The line search calls this ten times a round, so it calls the ufuncs
    directly: the mean is np.mean's own sum divided by the count.
    """
    z = np.multiply(h, temperature, out=out)
    z -= np.maximum.reduce(z, axis=-2, keepdims=True)
    q = np.exp(z, out=z)
    q /= np.add.reduce(q, axis=-2, keepdims=True)
    expected = np.add.reduce(cost_rows * q, axis=-2)
    return np.add.reduce(expected, axis=-1) / expected.shape[-1], q, expected


def empirical_risk(predictions: np.ndarray, labels: np.ndarray, costs: CostMatrix) -> float:
    """Mean cost of 1-based predictions against 1-based true labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same shape")
    if predictions.size == 0:
        raise ValueError("empty prediction set")
    for name, arr in (("predictions", predictions), ("labels", labels)):
        if arr.min() < 1 or arr.max() > costs.k:
            raise ValueError(f"{name} out of range 1..{costs.k}")
    return float(np.mean(costs.entries[labels - 1, predictions - 1]))
