"""Model evaluation and validation-based round selection."""
import json

import numpy as np
import pytest

from conftest import random_model, random_problem
from rebel.boost import StrongClassifier, TrainConfig, train
from rebel.costs import CostMatrix
from rebel.evaluation import cost_checksum, evaluate, report_text, select_rounds
from rebel.io import Dataset
from rebel.loss import empirical_risk
from rebel.weak import Stump, Tree


def test_evaluate_confusion_and_risk():
    model = StrongClassifier(k=2, d=1, a0=np.zeros(2), rounds=[
        (Tree.from_stump(Stump(0, 0.0, 1)), np.array([-1.0, 1.0])),
    ])
    # x > 0 predicts class 2, else class 1
    data = Dataset(np.array([[-1.0], [1.0], [2.0], [-2.0]]),
                   np.array([1, 2, 1, 2]), 2)
    costs = CostMatrix(np.array([[0.0, 4.0], [1.0, 0.0]]))
    confusion, error, risk = evaluate(model, data, costs)
    np.testing.assert_array_equal(confusion, [[1, 1], [1, 1]])
    assert error == pytest.approx(0.5)
    assert risk == pytest.approx((4.0 + 1.0) / 4.0)


def test_evaluate_rejects_mismatched_classes():
    model = StrongClassifier(k=3, d=1, a0=np.zeros(3), rounds=[])
    data = Dataset(np.zeros((2, 1)), np.array([1, 2]), 2)
    with pytest.raises(ValueError):
        evaluate(model, data, CostMatrix.uniform(2))
    with pytest.raises(ValueError, match="dataset has 2 classes, cost matrix 3"):
        evaluate(model, data, CostMatrix.uniform(3))


def test_evaluate_refuses_the_model_before_scoring():
    """A model of 3 classes against a 4-class matrix is refused by its class
    count, before its scores are computed: its features are too narrow to
    score, and that error is not the one raised."""
    model = StrongClassifier(k=3, d=2, a0=np.zeros(3), rounds=[])
    data = Dataset(np.zeros((4, 1)), np.array([1, 2, 3, 4]))
    with pytest.raises(ValueError, match="model scores 3 classes, cost matrix 4"):
        evaluate(model, data, CostMatrix.uniform(4))


def test_evaluate_agrees_with_empirical_risk():
    data, costs = random_problem(40, n=90, d=3, k=4)
    model, _ = train(data, costs, TrainConfig(rounds=10))
    confusion, error, risk = evaluate(model, data, costs)
    assert confusion.sum() == 90
    from rebel.boost import predict_all
    preds = predict_all(model, data.features)
    assert risk == empirical_risk(preds, data.labels, costs)
    assert error == float(np.mean(preds != data.labels))


def test_error_and_risk_match_per_sample_path():
    """The confusion counts, error and risk equal the per-sample figures."""
    from rebel.boost import predict_all
    for seed in range(20):
        k = 2 + seed % 4
        data, costs = random_problem(200 + seed, n=30 + 7 * seed, d=3, k=k)
        model = (train(data, costs, TrainConfig(rounds=3 + seed))[0] if seed % 4 == 0
                 else random_model(seed, k=k, d=3, depth=1 + seed % 3, rounds=seed))
        confusion, error, risk = evaluate(model, data, costs)
        preds = predict_all(model, data.features)
        counted = np.zeros((k, k), dtype=np.int64)
        np.add.at(counted, (data.labels - 1, preds - 1), 1)
        np.testing.assert_array_equal(confusion, counted)
        assert error == np.mean(preds != data.labels)
        assert risk == empirical_risk(preds, data.labels, costs)


class TestSelectRounds:
    def test_zero_round_model(self):
        model = StrongClassifier(k=2, d=1, a0=np.zeros(2), rounds=[])
        data = Dataset(np.zeros((2, 1)), np.array([1, 2]), 2)
        assert select_rounds(model, data, CostMatrix.uniform(2)) == 0

    def test_picks_best_prefix(self):
        """An overfit tail should be cut back to an interior round count."""
        data, costs = random_problem(8, n=50, d=2, k=3)
        val, _ = random_problem(9, n=50, d=2, k=3)
        model, _ = train(data, costs, TrainConfig(rounds=30))
        best = select_rounds(model, val, costs)
        assert 1 <= best <= len(model.rounds)
        # the reported count really is a minimizer over nonempty prefixes
        risks = {}
        for t in range(1, len(model.rounds) + 1):
            prefix = StrongClassifier(k=model.k, d=model.d, a0=model.a0,
                                      rounds=model.rounds[:t])
            _, _, risk = evaluate(prefix, val, costs)
            risks[t] = risk
        assert risks[best] == pytest.approx(min(risks.values()), abs=1e-15)
        # ties break toward the shortest model
        assert all(risks[t] > risks[best] - 1e-15 for t in range(1, best))

    def test_rejects_mismatched_classes(self):
        model = StrongClassifier(k=2, d=1, a0=np.zeros(2), rounds=[])
        data = Dataset(np.zeros((2, 1)), np.array([1, 2]), 2)
        with pytest.raises(ValueError, match="dataset has 2 classes, cost matrix 3"):
            select_rounds(model, data, CostMatrix.uniform(3))

    def test_rejects_a_model_of_another_class_count(self):
        """Refused before the stages are walked, as `evaluate` refuses it."""
        model = StrongClassifier(k=2, d=1, a0=np.zeros(2),
                                 rounds=[(Tree.from_stump(Stump(0, 0.0, 1)), np.array([1.0, -1.0]))])
        data = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, 2, 3]), 3)
        with pytest.raises(ValueError, match="model scores 2 classes, cost matrix 3"):
            select_rounds(model, data, CostMatrix.uniform(3))

    def test_tie_prefers_fewer_rounds(self):
        """Zero-vector rounds produce flat validation risk; pick the smallest count."""
        stump_round = (Tree.from_stump(Stump(0, 0.0, 1)), np.array([0.0, 0.0]))
        model = StrongClassifier(k=2, d=1, a0=np.array([1.0, 0.0]),
                                 rounds=[stump_round] * 4)
        data = Dataset(np.array([[-1.0], [1.0]]), np.array([1, 1]), 2)
        assert select_rounds(model, data, CostMatrix.uniform(2)) == 1


def test_report_text_fields():
    data, costs = random_problem(3, n=40, d=2, k=3)
    model, _ = train(data, costs, TrainConfig(rounds=5))
    payload = json.loads(report_text(model, data, costs))
    assert payload["k"] == 3
    assert payload["n"] == 40
    assert len(payload["confusion"]) == 3
    assert payload["cost_checksum"] == cost_checksum(costs)


def test_cost_checksum_tracks_content():
    a = CostMatrix.uniform(3)
    b = CostMatrix(np.array([
        [0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 1.0, 0.0]]))
    assert cost_checksum(a) == cost_checksum(CostMatrix.uniform(3))
    assert cost_checksum(a) != cost_checksum(b)
