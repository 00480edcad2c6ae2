"""Coupled exponential loss, the surrogate, and the risk bound."""
import numpy as np
import pytest

from conftest import random_costs, random_model, random_problem
from rebel.boost import StrongClassifier
from rebel.costs import CostMatrix
from rebel.io import Dataset
from rebel.loss import empirical_risk, smoothed_risk
from reference_impl import coupled_sum, surrogate_loss


def test_coupled_sum_worked_example():
    # 0.5 * (e^0 + e^1 + e^-1) for label 1 at scores [0, 1, -1]
    assert coupled_sum(np.array([0.0, 1.0, -1.0]), 1) == pytest.approx(
        2.0430806348152437, abs=1e-15)


def test_coupled_sum_zero_scores():
    for k in (2, 3, 5, 8):
        assert coupled_sum(np.zeros(k), 1) == pytest.approx(k / 2.0, abs=1e-15)


def test_coupled_sum_label_range():
    with pytest.raises(ValueError):
        coupled_sum(np.zeros(3), 0)
    with pytest.raises(ValueError):
        coupled_sum(np.zeros(3), 4)


def test_coupled_sum_convex_along_segments(rng):
    """Midpoint value never exceeds the chord average."""
    for _ in range(200):
        k = int(rng.integers(2, 6))
        y = int(rng.integers(1, k + 1))
        h_a = rng.normal(scale=2.0, size=k)
        h_b = rng.normal(scale=2.0, size=k)
        mid = coupled_sum(0.5 * (h_a + h_b), y)
        chord = 0.5 * (coupled_sum(h_a, y) + coupled_sum(h_b, y))
        assert mid <= chord + 1e-12


def test_coupled_sum_dominates_misclassification(rng):
    """At least 1 whenever some wrong class ties or beats the true one."""
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        y = int(rng.integers(1, k + 1))
        h = rng.normal(scale=1.5, size=k)
        others = np.delete(h, y - 1)
        mistaken = others.max() >= h[y - 1]
        if mistaken:
            assert coupled_sum(h, y) >= 1.0 - 1e-12


def zero_model(k: int, d: int) -> StrongClassifier:
    return StrongClassifier(k=k, d=d, a0=np.zeros(k), rounds=[], fingerprint="")


def test_surrogate_at_zero_model_uniform_costs(rng):
    data, _ = random_problem(3, n=50, d=2, k=4)
    report = surrogate_loss(zero_model(4, 2), data, CostMatrix.uniform(4))
    assert report.surrogate == pytest.approx(2.0, abs=1e-12)  # K/2
    assert report.excess == pytest.approx(report.surrogate - report.floor, abs=1e-15)


def test_surrogate_matches_coupled_sum_for_uniform_costs(rng):
    """With 0-1 costs the surrogate is the mean of per-sample coupled sums."""
    data, _ = random_problem(11, n=60, d=3, k=3)
    model = random_model(7, k=3, d=3, rounds=4)
    report = surrogate_loss(model, data, CostMatrix.uniform(3))
    h = model.scores(data.features)
    direct = np.mean([coupled_sum(h[i], int(y)) for i, y in enumerate(data.labels)])
    assert report.surrogate == pytest.approx(float(direct), rel=1e-12)


def test_surrogate_bounds_risk(rng):
    for seed in range(100):
        r = np.random.default_rng(seed)
        k = int(r.integers(2, 6))
        data, costs = random_problem(seed, n=40, d=3, k=k)
        model = random_model(seed + 1000, k=k, d=3, rounds=int(r.integers(0, 6)))
        report = surrogate_loss(model, data, costs)
        assert report.surrogate >= report.risk - 1e-12
        assert report.surrogate >= report.floor - 1e-12


def test_smoothed_risk_worked_example():
    # one sample, costs [0, 1, 3], scores [ln 2, 0, 0] at temperature 1:
    # q = [2, 1, 1] / 4, expected cost (0 * 2 + 1 + 3) / 4 = 1; class-major
    # (K, N) arrays, one column
    value, q, expected = smoothed_risk(np.array([[np.log(2.0)], [0.0], [0.0]]),
                                       np.array([[0.0], [1.0], [3.0]]), 1.0)
    np.testing.assert_allclose(q, [[0.5], [0.25], [0.25]], rtol=1e-15)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert expected[0] == pytest.approx(1.0, abs=1e-15)


def test_smoothed_risk_slope_matches_finite_differences(rng):
    h = rng.normal(size=(4, 6))  # class-major: 4 classes, 6 samples
    rows = rng.uniform(0.0, 2.0, size=(4, 6))
    temperature = 3.0
    _, q, expected = smoothed_risk(h, rows, temperature)
    slope = temperature / 6 * q * (rows - expected)
    step = 1e-6
    for k in range(4):
        for n in range(6):
            bump = np.zeros_like(h)
            bump[k, n] = step
            numeric = (smoothed_risk(h + bump, rows, temperature)[0]
                       - smoothed_risk(h - bump, rows, temperature)[0]) / (2 * step)
            assert numeric == pytest.approx(slope[k, n], abs=1e-8)


def test_smoothed_risk_tends_to_training_risk(rng):
    data, costs = random_problem(4, n=40, d=3, k=4)
    model = random_model(8, k=4, d=3, rounds=5)
    h = model.scores(data.features).T  # class-major (K, N)
    rows = costs.entries.T[:, data.labels - 1]
    hard = empirical_risk(np.argmax(h, axis=0) + 1, data.labels, costs)
    assert smoothed_risk(h, rows, 1e6)[0] == pytest.approx(hard, abs=1e-9)
    # a zero temperature is a uniform guess: the mean of each row
    assert smoothed_risk(h, rows, 1e-12)[0] == pytest.approx(float(rows.mean()), rel=1e-9)


def test_empirical_risk_direct():
    costs = CostMatrix(np.array([
        [0.0, 2.0, 6.0],
        [1.0, 0.0, 1.0],
        [3.0, 5.0, 0.0],
    ]))
    labels = np.array([1, 1, 2, 3])
    preds = np.array([1, 3, 1, 2])
    # costs 0, 6, 1, 5 -> mean 3
    assert empirical_risk(preds, labels, costs) == pytest.approx(3.0, abs=1e-15)


def test_empirical_risk_validation():
    costs = CostMatrix.uniform(3)
    with pytest.raises(ValueError):
        empirical_risk(np.array([1, 2]), np.array([1]), costs)
    with pytest.raises(ValueError):
        empirical_risk(np.array([4]), np.array([1]), costs)
    with pytest.raises(ValueError):
        empirical_risk(np.array([], dtype=int), np.array([], dtype=int), costs)


def test_surrogate_rejects_mismatched_widths():
    data = Dataset(np.zeros((3, 2)), np.array([1, 2, 1]), k=2)
    with pytest.raises(ValueError):
        surrogate_loss(zero_model(3, 2), data, CostMatrix.uniform(3))
