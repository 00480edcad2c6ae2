"""AdaBoost reduction checks and the two-step plug-in rule."""
import numpy as np
import pytest

from conftest import random_model
from rebel.baselines import (adaboost_train, posterior_all, random_binary_dataset,
                             run_reduction_trial, two_step_predict_all)
from rebel.boost import StrongClassifier, predict_all
from rebel.costs import CostMatrix
from rebel.weak import Stump, Tree


class TestAdaBoost:
    def test_training_error_decreases(self):
        data = random_binary_dataset(4, n=150, d=4)
        model = adaboost_train(data, rounds=40)
        preds = predict_all(model, data.features)
        base = np.mean(data.labels != 1)  # all-one classifier
        assert np.mean(preds != data.labels) < min(base, 1 - base)

    def test_zero_margin_ties_to_class_one(self):
        model = adaboost_train(random_binary_dataset(4, n=20, d=1), rounds=0)
        np.testing.assert_array_equal(predict_all(model, np.zeros((3, 1))), [1, 1, 1])

    def test_rejects_multiclass_data(self):
        from conftest import random_problem
        data, _ = random_problem(0, n=30, d=2, k=3)
        with pytest.raises(ValueError):
            adaboost_train(data, rounds=2)

    def test_margin_is_weighted_vote(self):
        model = StrongClassifier(k=2, d=1, a0=np.zeros(2), rounds=[
            (Tree.from_stump(Stump(0, 0.0, 1)), np.array([0.75, -0.75])),
            (Tree.from_stump(Stump(0, 2.0, -1)), np.array([0.25, -0.25])),
        ])
        x = np.array([[1.0], [3.0], [-1.0]])
        scores = model.scores(x)
        np.testing.assert_allclose(scores[:, 0], [1.0, 0.5, -0.5], atol=1e-15)
        np.testing.assert_array_equal(scores[:, 1], -scores[:, 0])


class TestReduction:
    def test_matches_multiclass_route(self):
        for seed in (11, 29, 47, 65, 83):
            result = run_reduction_trial(seed, n=120, d=4, rounds=25)
            assert result["stump_mismatches"] == 0
            assert result["coeff_gap"] <= 1e-9
            assert result["symmetry_gap"] <= 1e-9
            assert result["rounds_compared"] == 25

    def test_mis_scaled_smoothing_diverges(self):
        """Negative control: the checker must catch a wrong epsilon."""
        diverged = False
        for seed in (11, 29, 47):
            result = run_reduction_trial(seed, n=120, d=4, rounds=25,
                                         epsilon_scale=10.0)
            if result["stump_mismatches"] > 0 or result["coeff_gap"] > 1e-9:
                diverged = True
        assert diverged

    def test_nan_coefficient_gap_is_reported(self):
        """A nan smoothing makes every AdaBoost coefficient nan.  The first
        round's stumps still agree (its search does not read epsilon), so
        its gap is nan, and the trial reports nan, not the 0.0 that
        `max(0.0, nan)` would keep."""
        result = run_reduction_trial(11, n=20, d=2, rounds=20, epsilon_scale=float("nan"))
        assert result["rounds_compared"] > result["stump_mismatches"]
        assert np.isnan(result["coeff_gap"])


class TestTwoStep:
    def test_asymmetric_costs_flip_decision(self):
        costs = CostMatrix(np.array([[0.0, 1.0], [10.0, 0.0]]))
        # expected costs are [5, 0.5]: guessing class 2 is far cheaper
        assert two_step_predict_all(np.array([[0.5, 0.5]]), costs)[0] == 2
        assert two_step_predict_all(np.array([[0.5, 0.5]]), CostMatrix.uniform(2))[0] == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            two_step_predict_all(np.array([[0.5, 0.3, 0.2]]), CostMatrix.uniform(2))

    def test_posterior_normalizes(self, rng):
        model = random_model(5, k=4, d=3, rounds=6)
        x = rng.normal(size=(15, 3))
        post = posterior_all(model, x)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0.0

    def test_posterior_uniform_at_zero_model(self):
        from rebel.boost import StrongClassifier
        model = StrongClassifier(k=4, d=2, a0=np.zeros(4), rounds=[], fingerprint="")
        post = posterior_all(model, np.zeros((1, 2)))[0]
        np.testing.assert_allclose(post, 0.25, atol=1e-15)

    def test_posterior_stable_at_large_scores(self):
        from rebel.boost import StrongClassifier
        model = StrongClassifier(k=3, d=1, a0=np.array([500.0, 0.0, -500.0]),
                                 rounds=[], fingerprint="")
        post = posterior_all(model, np.zeros((1, 1)))[0]
        assert np.all(np.isfinite(post))
        assert post[0] == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_single(self, rng):
        costs = CostMatrix(np.array([
            [0.0, 0.3, 2.0], [1.5, 0.0, 0.4], [0.2, 3.0, 0.0]]))
        posts = rng.dirichlet(np.ones(3), size=25)
        batch = two_step_predict_all(posts, costs)
        singles = [two_step_predict_all(p[None, :], costs)[0] for p in posts]
        np.testing.assert_array_equal(batch, singles)
