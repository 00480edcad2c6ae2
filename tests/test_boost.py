"""The boosting loop: weights, constant fit, stopping, and invariants."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import halves, random_costs, random_problem
from reference_impl import round_order_scores, round_order_stages, surrogate_loss
from rebel import boost
from rebel.boost import (NumericOverflowError, StrongClassifier, TrainConfig,
                         fit_constant, init_weights, predict_all, train, train_many,
                         update_weights)
from rebel.costs import CostMatrix, dataset_terms, loss_floor
from rebel.io import Dataset, model_from_text, model_to_text
from rebel.loss import smoothed_risk
from rebel.weak import (SELECT_MAX_DEPTH, SplitScores, Stump, Tree, accumulate_split,
                        class_major, split_value)


def separable_problem(seed=0, n=60, k=3):
    """Well-separated blobs; training certifies zero risk quickly."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, k + 1, size=n)
    centers = np.arange(k)[:, None] * 10.0
    features = np.column_stack([
        centers[labels - 1, 0] + rng.uniform(-1, 1, n),
        rng.normal(size=n),
    ])
    return Dataset(features, labels, k), CostMatrix.uniform(k)


class TestWeights:
    def test_init_copies(self, rng):
        data, costs = random_problem(1, n=20, d=2, k=3)
        w = init_weights(costs, data)
        cp, cm, _, _ = dataset_terms(costs, data.labels)
        assert w.shape == (6, 20) and w.flags.c_contiguous
        np.testing.assert_array_equal(halves(w)[0], cp)
        np.testing.assert_array_equal(halves(w)[1], cm)
        w += 1.0
        np.testing.assert_array_equal(halves(init_weights(costs, data))[0], cp)

    def test_update_worked_example(self):
        w = class_major(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        update_weights(w, np.array([1]), np.array([np.log(2.0), -np.log(2.0)]))
        np.testing.assert_allclose(halves(w)[0], [[2.0, 0.5]], rtol=1e-15)
        np.testing.assert_allclose(halves(w)[1], [[0.5, 2.0]], rtol=1e-15)

    def test_update_preserves_geometric_mean(self, rng):
        """sqrt(w+ w-) is invariant: the shift cancels."""
        w = class_major(rng.uniform(0.5, 2.0, size=(10, 3)), rng.uniform(0.5, 2.0, size=(10, 3)))
        before = np.sqrt(w[:3] * w[3:])
        update_weights(w, rng.choice([-1, 1], size=10), rng.normal(size=3))
        np.testing.assert_allclose(np.sqrt(w[:3] * w[3:]), before, rtol=1e-12)

    def test_overflow_raises_with_round(self):
        w = class_major(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(NumericOverflowError) as info:
            update_weights(w, np.array([1, -1]), np.array([710.0, 0.0]), round_index=7)
        assert info.value.round_index == 7
        assert "7" in str(info.value)

    def test_fit_constant_infinite_offset_raises_for_round_0(self):
        """epsilon 0 and a class no sample carries: its offset is infinite,
        and the weights it leaves are not finite."""
        data = Dataset(np.arange(8.0)[:, None], np.array([1, 2] * 4), 3)
        with pytest.raises(NumericOverflowError) as info:
            fit_constant(init_weights(CostMatrix.uniform(3), data), epsilon=0.0)
        assert info.value.round_index == 0
        with pytest.raises(NumericOverflowError, match="in round 0$"):
            train(data, CostMatrix.uniform(3), TrainConfig(rounds=3, epsilon=0.0))

    def test_fit_constant_favors_cheap_majority(self, rng):
        """Mostly class 1 and 0-1 costs: the offset ranks class 1 first."""
        labels = np.array([1] * 18 + [2] * 2)
        data = Dataset(rng.normal(size=(20, 2)), labels, 2)
        w = init_weights(CostMatrix.uniform(2), data)
        a0 = fit_constant(w, epsilon=1e-3)
        assert a0[0] > a0[1]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            TrainConfig(rounds=0)
        with pytest.raises(ValueError, match="tree_depth must be >= 1"):
            TrainConfig(rounds=5, tree_depth=0)
        with pytest.raises(ValueError, match="n_tau must be >= 1"):
            TrainConfig(rounds=5, n_tau=0)
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            TrainConfig(rounds=5, epsilon=-1.0)
        for epsilon in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
                TrainConfig(rounds=5, epsilon=epsilon)


class TestTrainValidation:
    def test_rejects_mismatched_classes(self):
        data, _ = random_problem(2, n=20, d=2, k=3)
        with pytest.raises(ValueError):
            train(data, CostMatrix.uniform(4), TrainConfig(rounds=1))

    def test_rejects_all_constant_features(self):
        data = Dataset(np.ones((10, 2)), np.array([1, 2] * 5), 2)
        with pytest.raises(ValueError):
            train(data, CostMatrix.uniform(2), TrainConfig(rounds=1))

    def test_rejects_single_sample(self):
        data = Dataset(np.zeros((1, 2)), np.array([1]), 2)
        with pytest.raises(ValueError):
            train(data, CostMatrix.uniform(2), TrainConfig(rounds=1))


class TestTrainingInvariants:
    def test_loss_monotone_nonincreasing(self):
        for seed in range(10):
            data, costs = random_problem(seed, n=80, d=3, k=int(3 + seed % 3))
            _, trace = train(data, costs, TrainConfig(rounds=25))
            losses = [trace.loss_initial] + [r.loss for r in trace.rounds]
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), k=st.integers(2, 4), n=st.integers(8, 60),
           exponents=arrays(np.float64, 16, elements=st.floats(0.0, 6.0)),
           rounds=st.integers(1, 40), depth=st.integers(1, 2),
           epsilon=st.sampled_from([None, 0.0, 1e-300]),
           warm=st.integers(1, 60))
    # class 3 of 4 has no sample: with epsilon 0 its offset is infinite
    @example(seed=2, k=4, n=8, exponents=np.zeros(16), rounds=1, depth=1, epsilon=0.0, warm=1)
    def test_loss_nonincreasing_under_extreme_costs(self, seed, k, n, exponents, rounds, depth,
                                                     epsilon, warm):
        """Off-diagonal costs 10**e, e in [0, 6], so a matrix's costs span
        ratios up to 1e6.  A run either stops on a weight overflow that names
        its round, or its trace loss never rises over exponential rounds."""
        data, _ = random_problem(seed, n=n, d=2, k=k)
        entries = 10.0 ** exponents[:k * k].reshape(k, k)
        np.fill_diagonal(entries, 0.0)
        cfg = TrainConfig(rounds=rounds, tree_depth=depth, epsilon=epsilon,
                          early_stop_on_certificate=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(boost, "WARM_ROUNDS", warm)
            try:
                # epsilon 0 lets a pure side's vector reach inf, and nan follows
                with np.errstate(all="ignore"):
                    _, trace = train(data, CostMatrix(entries), cfg)
            except NumericOverflowError as exc:
                event("overflow")
                assert 0 <= exc.round_index <= rounds  # round 0: the a0 fit
                assert str(exc).endswith(f"in round {exc.round_index}")
                return
        event(f"{sum(r.phase == 'exp' for r in trace.rounds) // 10 * 10}+ exp rounds")
        exp_losses = [trace.loss_initial] + [r.loss for r in trace.rounds if r.phase == "exp"]
        for a, b in zip(exp_losses, exp_losses[1:]):
            assert b <= a

    def test_trace_loss_matches_recomputed_surrogate(self):
        for seed in range(8):
            data, costs = random_problem(seed + 50, n=70, d=3, k=3)
            model, trace = train(data, costs, TrainConfig(rounds=15))
            report = surrogate_loss(model, data, costs)
            assert report.surrogate == pytest.approx(trace.rounds[-1].loss, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), b=st.integers(1, 4), k=st.integers(2, 5),
           depth=st.integers(1, 2), warm=st.integers(1, 10))
    def test_trace_losses_are_the_prefix_surrogates(self, seed, b, k, depth, warm):
        """In a lockstep stack, in both phases, loss_initial and every round's
        loss equal the surrogate recomputed from the scores of the model so
        far, within 1e-12 relative: the trace sums the weights it updated,
        the reference exponentiates the scores."""
        data, _ = random_problem(seed, n=60, d=3, k=k)
        rng = np.random.default_rng(seed)
        matrices = [random_costs(k, rng) for _ in range(b)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(boost, "WARM_ROUNDS", warm)
            results = train_many(data, matrices, TrainConfig(rounds=15, tree_depth=depth,
                                                             early_stop_on_certificate=False))
        for costs, (model, trace) in zip(matrices, results):
            event("risk rounds" if trace.rounds[-1].phase == "risk" else "exp rounds only")
            losses = [trace.loss_initial] + [r.loss for r in trace.rounds]
            for t, loss in enumerate(losses):
                prefix = StrongClassifier(k=k, d=model.d, a0=model.a0, rounds=model.rounds[:t])
                assert surrogate_loss(prefix, data, costs).surrogate == pytest.approx(
                    loss, rel=1e-12, abs=0.0)

    def test_round_accounting_identity(self):
        """Replay: each round's post-update loss is the achieved value of its
        vector on the weights before it, mass / (2N)."""
        data, costs = random_problem(31, n=60, d=3, k=4)
        model, trace = train(data, costs, TrainConfig(rounds=10, fit_a0=False))
        floor, _ = loss_floor(costs, data.labels)
        assert trace.floor == floor
        w = init_weights(costs, data)
        for (learner, vector), record in zip(model.rounds, trace.rounds):
            out = learner.evaluate(data.features)
            value = split_value(accumulate_split(out, w), vector)
            assert value == pytest.approx(record.loss, abs=1e-12)
            update_weights(w, out, vector)

    def test_binary_uniform_scores_antisymmetric(self):
        data, _ = random_problem(9, n=80, d=4, k=2)
        for fit_a0 in (False, True):
            model, _ = train(data, CostMatrix.uniform(2),
                             TrainConfig(rounds=20, fit_a0=fit_a0))
            h = model.scores(data.features)
            assert np.max(np.abs(h[:, 0] + h[:, 1])) < 1e-9

    def test_deterministic(self):
        data, costs = random_problem(17, n=60, d=3, k=3)
        cfg = TrainConfig(rounds=12, tree_depth=2)
        model_a, _ = train(data, costs, cfg)
        model_b, _ = train(data, costs, cfg)
        assert model_to_text(model_a) == model_to_text(model_b)

    def test_prefix_models_reproduce_trace(self):
        """Truncating the round list replays the recorded error path."""
        data, costs = random_problem(23, n=70, d=3, k=3)
        model, trace = train(data, costs, TrainConfig(rounds=8))
        for t, record in enumerate(trace.rounds, start=1):
            prefix = StrongClassifier(k=model.k, d=model.d, a0=model.a0,
                                      rounds=model.rounds[:t], fingerprint="")
            preds = predict_all(prefix, data.features)
            assert float(np.mean(preds != data.labels)) == pytest.approx(
                record.train_error, abs=1e-15)

    def test_certificate_stop_means_zero_risk(self):
        data, costs = separable_problem()
        model, trace = train(data, costs, TrainConfig(rounds=200))
        assert trace.stopped == "certificate"
        assert trace.rounds[-1].loss < trace.certificate
        assert trace.rounds[-1].train_risk == 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_certificate_is_tight_where_risk_stays_positive(self, k):
        """A separable set plus one row repeated with another label keeps the
        training risk at 1/N or more, so no round's loss may pass below the
        certificate.  The loss comes within 3x the certificate's gap above the
        floor (2.0-2.1x at 400 rounds), so a certificate set even 3x its gap
        above the floor would be passed and fail this test."""
        data, costs = separable_problem(n=60, k=k)
        data = Dataset(np.vstack([data.features, data.features[:1]]),
                       np.append(data.labels, data.labels[0] % k + 1), k)
        _, trace = train(data, costs, TrainConfig(rounds=400, early_stop_on_certificate=False))
        assert len(trace.rounds) == 400
        assert min(r.train_risk for r in trace.rounds) >= 1.0 / 61
        assert all(r.loss >= trace.certificate for r in trace.rounds)
        gap = trace.certificate - trace.floor
        assert min(r.excess for r in trace.rounds) < 3.0 * gap

    def test_early_stop_can_be_disabled(self):
        data, costs = separable_problem()
        _, trace = train(data, costs, TrainConfig(rounds=40,
                                                  early_stop_on_certificate=False))
        assert trace.stopped in ("rounds", "floor")
        assert len(trace.rounds) >= 1

    @pytest.mark.parametrize("k, stop_round", [(2, 9), (3, 133)])
    def test_floor_stop_waits_for_an_excess_of_1e_12(self, k, stop_round):
        """Driven to the floor (a tiny epsilon, no certificate stop), training stops
        on the first round whose loss excess is at most 1e-12.  Most rounds before
        it have an excess in (1e-12, 1e-6], so a looser threshold stops earlier."""
        data, costs = separable_problem(n=60, k=k)
        _, trace = train(data, costs, TrainConfig(rounds=3000, epsilon=1e-12,
                                                  early_stop_on_certificate=False))
        assert trace.stopped == "floor"
        assert len(trace.rounds) == stop_round
        assert trace.rounds[-1].excess <= 1e-12 < trace.rounds[-2].excess
        assert sum(1e-12 < r.excess <= 1e-6 for r in trace.rounds) > stop_round // 2

    def test_edge_is_nan_where_its_denominator_is_not_positive(self):
        """A mass at or below the floor leaves no edge to claim: a zero or negative
        denominator gives nan, whatever the numerator, not inf."""
        scores = SplitScores(s_plus=np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 1.0]]),
                             s_minus=np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0]]))
        gamma, phi = boost.edge(scores, np.array([2.0, 3.0, 3.0]), np.full(3, 0.5))
        np.testing.assert_array_equal(gamma, [np.nan, np.nan, 2.0 / 3.0])
        np.testing.assert_array_equal(phi, [np.nan, np.nan, 1.0 / 3.0])

    def test_phi_stays_in_unit_range_above_certificate(self):
        for seed in (2, 12, 22):
            data, costs = random_problem(seed, n=80, d=3, k=3)
            _, trace = train(data, costs, TrainConfig(rounds=25))
            prev = trace.loss_initial
            for record in trace.rounds:
                if prev >= trace.certificate and np.isfinite(record.phi):
                    assert -1e-12 <= record.phi <= 1.0 + 1e-12
                prev = record.loss


class TestSmoothedRiskPhase:
    @pytest.fixture
    def run(self, monkeypatch):
        """Train on random costs with the smoothed risk taking over after `warm` rounds."""
        def run(seed=3, rounds=30, warm=10, temperature=4.0):
            monkeypatch.setattr(boost, "WARM_ROUNDS", warm)
            monkeypatch.setattr(boost, "TEMPERATURE", temperature)
            data, costs = random_problem(seed, n=90, d=3, k=4)
            model, trace = train(data, costs, TrainConfig(rounds=rounds,
                                                          early_stop_on_certificate=False))
            return data, costs, model, trace
        return run

    def test_phases_switch_after_warm_rounds(self, run):
        _, _, model, trace = run()
        assert [r.phase for r in trace.rounds[:10]] == ["exp"] * 10
        assert all(r.phase == "risk" for r in trace.rounds[10:])
        assert len(trace.rounds) == len(model.rounds)
        for r in trace.rounds:
            assert np.isnan(r.smoothed_risk) == (r.phase == "exp")
            assert np.isnan(r.phi) == (r.phase == "risk")

    def test_smoothed_risk_decreasing_and_recomputable(self, run):
        data, costs, model, trace = run()
        values = [r.smoothed_risk for r in trace.rounds if r.phase == "risk"]
        assert len(values) >= 5
        assert all(b < a for a, b in zip(values, values[1:]))
        rows = costs.entries.T[:, data.labels - 1]  # class-major (K, N)
        recomputed = smoothed_risk(model.scores(data.features).T, rows, 4.0)[0]
        assert recomputed == pytest.approx(values[-1], abs=1e-12)

    def test_risk_rounds_stay_in_trust_region(self, run):
        _, _, model, trace = run(temperature=2.0)
        for (_, vector), r in zip(model.rounds, trace.rounds):
            if r.phase == "risk":
                assert np.max(np.abs(vector)) <= 0.5 * (1 + 1e-12)

    def test_loss_stays_the_exponential_surrogate(self, run):
        """The trace loss is the recomputed surrogate in both phases, so the certificate holds."""
        data, costs, model, trace = run()
        report = surrogate_loss(model, data, costs)
        assert report.surrogate == pytest.approx(trace.rounds[-1].loss, abs=1e-9)
        assert report.surrogate >= report.risk

    def test_refinement_lowers_training_risk(self, run):
        _, _, _, warm_only = run(warm=30)
        _, _, _, refined = run(warm=10)
        assert refined.rounds[-1].train_risk < warm_only.rounds[-1].train_risk

    def test_per_phase_invariants_at_default_schedule(self):
        """Past the default warm start with unequal costs: the loss never rises over
        exponential rounds, which keep the edge bound; the smoothed risk never rises
        over risk rounds, which claim no edge."""
        data, costs = random_problem(7, n=90, d=3, k=4)
        assert not costs.equal_off_diagonal()
        rounds = boost.WARM_ROUNDS + 20
        _, trace = train(data, costs, TrainConfig(rounds=rounds, early_stop_on_certificate=False))
        assert len(trace.rounds) == rounds
        exp_rounds = trace.rounds[:boost.WARM_ROUNDS]
        risk_rounds = trace.rounds[boost.WARM_ROUNDS:]
        assert all(r.phase == "exp" for r in exp_rounds)
        assert all(r.phase == "risk" for r in risk_rounds)

        losses = [trace.loss_initial] + [r.loss for r in exp_rounds]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        risks = [r.smoothed_risk for r in risk_rounds]
        assert all(b < a for a, b in zip(risks, risks[1:]))

        denom = trace.loss_initial - trace.floor
        sqrt_prod = 1.0
        for r in exp_rounds:
            assert r.loss >= trace.certificate and np.isfinite(r.phi)
            sqrt_prod *= np.sqrt(1.0 - r.phi ** 2)
            assert (r.loss - trace.floor) / denom <= sqrt_prod + 1e-9
        assert all(np.isnan(r.gamma) and np.isnan(r.phi) for r in risk_rounds)

    def test_line_search_keeps_no_step_that_leaves_the_risk_equal(self):
        """A training whose every probe leaves its smoothed risk equal gets a zero
        vector, and so reports "stalled"; another in the same stack still steps.
        The first one's scores are so large that no probe moves them: a step
        moves a score by at most 1/TEMPERATURE, under half an ulp of 1e20."""
        h = np.array([[[1e20, -1e20, 1e20], [-1e20, 1e20, -1e20]], np.zeros((2, 3))])
        cost_rows = np.array([[[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]]] * 2)
        before = smoothed_risk(h, cost_rows, boost.TEMPERATURE)[0]
        direction = np.array([[1.0, -1.0], [1.0, -1.0]])
        outputs = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
        vectors, risks = boost._line_search(h, cost_rows, before, direction, outputs)
        assert not vectors[0].any() and risks[0] == before[0]
        assert vectors[1].any() and risks[1] < before[1]

    def test_equal_off_diagonal_costs_never_switch(self, monkeypatch):
        monkeypatch.setattr(boost, "WARM_ROUNDS", 5)
        data, _ = random_problem(5, n=60, d=3, k=3)
        costs = CostMatrix((np.ones((3, 3)) - np.eye(3)) * [[1.0], [2.0], [0.5]])
        _, trace = train(data, costs, TrainConfig(rounds=20, early_stop_on_certificate=False))
        assert len(trace.rounds) == 20
        assert all(r.phase == "exp" for r in trace.rounds)


@st.composite
def _lockstep_case(draw):
    """A dataset (K 2-5, N 2-300, 1-3 features with ties and constant columns,
    sometimes a class no sample carries) and 1-5 cost matrices, each with
    equal off-diagonal rows (exponential rounds only) or costs 10**e, e in
    [0, 6] (a smoothed-risk phase after WARM_ROUNDS)."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    carried = draw(st.integers(1, k))  # classes 1..carried appear
    labels = rng.integers(1, carried + 1, size=n)
    features = rng.normal(size=(n, d)) + labels[:, None]
    features = np.round(features, draw(st.integers(0, 3)))
    if d > 1 and draw(st.booleans()):
        features[:, draw(st.integers(0, d - 1))] = 0.5
    matrices = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            entries = np.ones((k, k)) * 10.0 ** rng.uniform(0, 6, size=(k, 1))
        else:
            entries = 10.0 ** draw(arrays(np.float64, (k, k), elements=st.floats(0.0, 6.0)))
        np.fill_diagonal(entries, 0.0)
        matrices.append(CostMatrix(entries))
    cfg = TrainConfig(rounds=draw(st.integers(1, 30)), tree_depth=draw(st.integers(1, 3)),
                      n_tau=draw(st.sampled_from([1, 3, 20])),
                      epsilon=draw(st.sampled_from([None, 0.0, 1e-300])),
                      early_stop_on_certificate=draw(st.booleans()))
    return Dataset(features, labels, k), matrices, cfg, draw(st.integers(1, 60))


def _outcome(run):
    """(model texts and trace reprs) of a run, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            results = run()
    except Exception as exc:  # noqa: BLE001 - the comparison is over any error
        return type(exc), str(exc)
    return [(model_to_text(model), repr(trace)) for model, trace in results]


class TestLockstep:
    @settings(max_examples=200, deadline=None)
    @given(case=_lockstep_case())
    def test_lockstep_equals_one_at_a_time(self, case):
        """`train_many` over a list equals training each matrix alone, byte
        for byte, and raises what the first failing training alone raises."""
        data, matrices, cfg, warm = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(boost, "WARM_ROUNDS", warm)
            together = _outcome(lambda: train_many(data, matrices, cfg))
            alone = _outcome(lambda: [train_many(data, [c], cfg)[0] for c in matrices])
        if isinstance(together, tuple):
            event(f"raises {together[0].__name__}")
        else:
            for _, trace in together:
                event("a training stopped " + trace.split("stopped='")[1].split("'")[0])
        assert together == alone

    def test_error_of_the_first_failing_training_is_raised(self):
        """A mismatched matrix fails at set-up; the trainings after it still
        run, and its error is the one raised."""
        data, costs = random_problem(4, n=40, d=2, k=3)
        with pytest.raises(ValueError, match="dataset has 3 classes, cost matrix 4"):
            train_many(data, [costs, CostMatrix.uniform(4), costs], TrainConfig(rounds=3))
        assert train_many(data, [], TrainConfig(rounds=3)) == []


class TestPredict:
    def test_tie_goes_to_lowest_index(self):
        model = StrongClassifier(k=3, d=2, a0=np.array([0.5, 0.5, 0.0]),
                                 rounds=[], fingerprint="")
        x = np.zeros((1, 2))
        np.testing.assert_array_equal(predict_all(model, x), [1])
        np.testing.assert_array_equal(model.scores(x)[0], [0.5, 0.5, 0.0])

    def test_one_class_is_refused(self):
        with pytest.raises(ValueError, match="k >= 2"):
            StrongClassifier(k=1, d=1, a0=np.zeros(1), rounds=[])

    def test_vectors_of_another_length_are_refused(self):
        """`a0` and every round's vector hold one entry per class, or the
        model is refused, naming the round: the block path packs the
        vectors into (T, K) rows, and a short one would shift them."""
        stump = Tree.from_stump(Stump(0, 0.0, 1))
        for a0 in (np.zeros(1), np.zeros(5), np.zeros((3, 1))):
            with pytest.raises(ValueError, match=r"a0 has shape"):
                StrongClassifier(k=3, d=1, a0=a0, rounds=[])
        rounds = [(stump, np.zeros(3)), (stump, np.zeros(4)), (stump, np.zeros(2))]
        with pytest.raises(ValueError, match=r"rounds\[1\] has a vector of shape \(4,\)"):
            StrongClassifier(k=3, d=1, a0=np.zeros(3), rounds=rounds)
        with pytest.raises(ValueError, match=r"rounds\[2\] has a vector of shape \(2,\)"):
            StrongClassifier(k=3, d=1, a0=np.zeros(3), rounds=[rounds[0]] * 2 + rounds[2:])

    def test_shape_validation(self):
        model = StrongClassifier(k=2, d=3, a0=np.zeros(2), rounds=[], fingerprint="")
        with pytest.raises(ValueError):
            predict_all(model, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            model.scores(np.zeros((4, 2)))

    def test_equality_is_identity(self):
        """Two models with equal content compare unequal without raising;
        compare models by their text."""
        from conftest import random_model
        model, twin = random_model(1), random_model(1)
        assert (model == twin) is False
        assert (model == model) is True
        assert model_to_text(model) == model_to_text(twin)

    def test_predict_all_matches_single_rows(self, rng):
        from conftest import random_model
        model = random_model(3, k=3, d=4, rounds=5)
        x = rng.normal(size=(20, 4))
        batch = predict_all(model, x)
        singles = [predict_all(model, x[i:i + 1])[0] for i in range(20)]
        np.testing.assert_array_equal(batch, singles)


# a few shared values, so that thresholds often equal feature values (ties
# route to -1) and vectors hold signed zeros
_TIED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
_VALUES = st.one_of(_TIED, st.floats(-8.0, 8.0))


@st.composite
def _model_and_rows(draw):
    """A model of mixed-depth trees (1-3, both polarities), round-tripped
    through the text format, and 0-12 rows of features."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    a0 = draw(arrays(np.float64, k, elements=_VALUES))
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        depth = draw(st.integers(1, 3))
        nodes = [Stump(feature=draw(st.integers(0, d - 1)), threshold=draw(_VALUES),
                       polarity=draw(st.sampled_from([-1, 1])))
                 for _ in range(2 ** depth - 1)]
        vector = draw(arrays(np.float64, k, elements=_VALUES))
        pairs.append((Tree(depth=depth, nodes=nodes), vector))
    model = StrongClassifier(k=k, d=d, a0=a0, rounds=pairs, fingerprint="property")
    rows = draw(arrays(np.float64, (draw(st.integers(0, 12)), d), elements=_VALUES))
    return model_from_text(model_to_text(model)), rows


@st.composite
def _long_model_and_rows(draw):
    """0-40 rounds of depth 1-3 trees, with some trees deep enough to be
    routed, 0-300 rows, and a block size of 1-3 rounds for that row count."""
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    values = st.one_of(_VALUES, st.sampled_from([-1.7976931348623157e308, 1e300]))
    a0 = draw(arrays(np.float64, k, elements=_VALUES))
    pairs = []
    depths = st.sampled_from([1, 1, 2, 3, SELECT_MAX_DEPTH + 1])
    for depth in draw(st.lists(depths, max_size=40)):
        size = 2 ** depth - 1
        feats = draw(arrays(np.int64, size, elements=st.integers(0, d - 1)))
        thresholds = draw(arrays(np.float64, size, elements=_VALUES))
        polarities = draw(arrays(np.int64, size, elements=st.sampled_from([-1, 1])))
        nodes = [Stump(int(f), float(t), int(p)) for f, t, p in zip(feats, thresholds, polarities)]
        pairs.append((Tree(depth=depth, nodes=nodes),
                      draw(arrays(np.float64, k, elements=values))))
    model = StrongClassifier(k=k, d=d, a0=a0, rounds=pairs, fingerprint="property")
    rows = draw(arrays(np.float64, (draw(st.integers(0, 300)), d), elements=_VALUES))
    # any remainder below one round's K * N still gives blocks of 1-3 rounds
    per_round = k * rows.shape[0]
    block_elems = (draw(st.integers(1, 3)) * per_round
                   + draw(st.integers(0, max(0, per_round - 1))))
    return model, rows, block_elems


class TestScoringWalk:
    """`scores` and `staged_scores` against round-order summation, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_long_model_and_rows())
    # a -0.0 score plus a -0.0 step stays -0.0; a reduction started from
    # +0.0 would give +0.0
    @example(case=(StrongClassifier(k=2, d=1, a0=np.array([-0.0, -1.0]), rounds=[
        (Tree.from_stump(Stump(0, 0.0, 1)), np.array([-0.0, -0.0]))]), np.array([[1.0]]), 2))
    # a polarity -1 stump, on both of its sides, adds the signed zeros (and
    # the nan bits) of its vector times -1.0 and +1.0: a table row made by
    # np.negative would flip the nan's sign bit, where a multiply keeps it
    @example(case=(StrongClassifier(k=3, d=1, a0=np.array([-0.0, -0.0, -0.0]), rounds=[
        (Tree.from_stump(Stump(0, 0.0, -1)), np.array([0.0, -0.0, np.nan]))]),
        np.array([[1.0], [-1.0]]), 6))
    def test_blocks_of_few_rounds_match_round_order_sum(self, case):
        """Blocks of 1-3 rounds, the last one often partial: every stage is
        still the round-order sum of its prefix."""
        model, rows, block_elems = case
        # vectors of 1e300 and -max overflow the sums to inf and nan, on both sides
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(boost, "BLOCK_ELEMS", block_elems)
            patch.setattr(boost, "BLOCK_MIN_ROUNDS", 1)
            got = model.scores(rows)
            stages = list(model.staged_scores(rows))
            want = list(round_order_stages(model, rows))
        assert got.tobytes() == want[-1].tobytes()
        assert len(stages) == len(model.rounds)
        for stage, expected in zip(stages, want[1:]):
            assert stage.tobytes() == expected.tobytes()

    def test_two_scores_are_reduced_in_round_order(self):
        """The fewest scores a model has, two classes on one row, at the
        default block constants: 16 steps of 1.0 are each rounded away
        against 1e16 in round order, where a pairwise sum would keep them."""
        model = StrongClassifier(k=2, d=1, a0=np.array([1e16, 1e16]), rounds=[
            (Tree.from_stump(Stump(0, 0.0, 1)), np.array([1.0, 1.0]))] * 16)
        rows = np.array([[1.0]])
        assert boost.BLOCK_ELEMS // 2 >= len(model.rounds) >= boost.BLOCK_MIN_ROUNDS
        want = round_order_scores(model, rows)
        assert want.tolist() == [[1e16, 1e16]]
        assert model.scores(rows).tobytes() == want.tobytes()
        assert list(model.staged_scores(rows))[-1].tobytes() == want.tobytes()

    def test_served_batch_takes_the_block_path_in_round_order(self):
        """The benchmark's batch shapes at the default block constants, 64
        rows each: csv's 300 rounds at K=5 make two blocks of 150, grid's
        100 rounds at K=4 one block.  Stumps of both polarities, with a few
        depth-2 and depth-6 trees among them, sum to the round-order scores,
        and so does the last stage."""
        n = 64
        for rounds, d, k, blocks in ((300, 20, 5, 2), (100, 2, 4, 1)):
            rng = np.random.default_rng(16)
            a0 = rng.normal(size=k)
            pairs = []
            for t in range(rounds):
                depth = 6 if t % 97 == 50 else 2 if t % 41 == 7 else 1
                nodes = [Stump(int(rng.integers(0, d)), float(rng.normal()),
                               int(rng.choice([-1, 1]))) for _ in range(2 ** depth - 1)]
                pairs.append((Tree(depth=depth, nodes=nodes), rng.normal(size=k)))
            model = StrongClassifier(k=k, d=d, a0=a0, rounds=pairs)
            assert sorted({tree.depth for tree, _ in model.rounds}) == [1, 2, 6]
            assert {tree.nodes[0].polarity for tree, _ in model.rounds} == {-1, 1}
            assert boost.BLOCK_ELEMS // (k * n) >= boost.BLOCK_MIN_ROUNDS
            assert -(-rounds // (boost.BLOCK_ELEMS // (k * n))) == blocks
            rows = rng.normal(size=(n, d))
            want = round_order_scores(model, rows).tobytes()
            assert model.scores(rows).tobytes() == want
            assert list(model.staged_scores(rows))[-1].tobytes() == want

    def test_only_scores_of_small_batches_take_the_block_path(self, monkeypatch):
        """`scores` sums the benchmark's 64-row batches (300 stumps at K=5,
        d=20; 100 at K=4, d=2) with `_block_sums`; `staged_scores` on the
        same rows walks the rounds, and so does `scores` on 10k x 20 rows,
        where a block would hold fewer than `BLOCK_MIN_ROUNDS` rounds."""
        from conftest import random_model
        calls = []
        block_sums = StrongClassifier._block_sums
        monkeypatch.setattr(StrongClassifier, "_block_sums",
                            lambda model, *args: calls.append(model) or block_sums(model, *args))
        rng = np.random.default_rng(21)
        for rounds, d, k in ((300, 20, 5), (100, 2, 4)):
            model = random_model(rounds, k=k, d=d, rounds=rounds)
            rows = rng.normal(size=(64, d))
            want = round_order_scores(model, rows).tobytes()
            assert model.scores(rows).tobytes() == want
            assert calls == [model]
            assert list(model.staged_scores(rows))[-1].tobytes() == want
            assert calls == [model]
            calls.clear()
        model = random_model(300, k=5, d=20, rounds=300)
        model.scores(rng.normal(size=(10_000, 20)))
        assert calls == []

    def test_scoring_memory_stays_within_one_block_of_the_walk(self):
        """Scoring `rebel predict`'s benchmark shape (10k x 20, 300 stumps,
        K=5) peaks under the per-round walk's arrays plus one block: the
        feature-major copy, three (K, N) arrays (running sum, one round's
        step, the returned scores) and 64k doubles.  Blocks of rounds at
        this size (BLOCK_MIN_ROUNDS of them, 3.2 MB of steps at least) would
        show here before they showed in peak RSS."""
        from conftest import random_model
        n, d, k = 10_000, 20, 5
        model = random_model(11, k=k, d=d, rounds=300)
        rows = np.random.default_rng(11).normal(size=(n, d))
        bound = 8 * (n * d + 3 * k * n) + 8 * 2 ** 16
        tracemalloc.start()
        try:
            model.scores(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"scoring peaked at {peak} bytes, bound {bound}"

    def test_blocks_are_balanced_to_the_model(self):
        """`predict_all` on the grid's test rows (500 rows, 100 stumps, K=4):
        a 64k-double block would hold 32 rounds, so the walk takes 4 blocks
        of 25, and its buffers (a (25, K, N) step block, (25, N) values and
        (25, N) sides) hold no round a block lacks.  The bound adds the
        feature-major copy, three (K, N) arrays and 128 KB for NumPy's casting
        buffers and the packed model; 32-round buffers would exceed it by
        about 120 KB."""
        from conftest import random_model
        n, d, k = 500, 2, 4
        model = random_model(5, k=k, d=d, rounds=100)
        rows = np.random.default_rng(5).normal(size=(n, d))
        bound = 8 * (n * d + 3 * k * n) + 25 * n * (8 * k + 9) + 2 ** 17
        tracemalloc.start()
        try:
            got = predict_all(model, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"scoring peaked at {peak} bytes, bound {bound}"
        want = np.argmax(round_order_scores(model, rows), axis=1) + 1
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=_model_and_rows())
    def test_scores_match_round_order_sum(self, case):
        model, rows = case
        got = model.scores(rows)
        want = round_order_scores(model, rows)
        assert got.shape == want.shape == (rows.shape[0], model.k)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=_model_and_rows())
    def test_each_stage_matches_its_prefix(self, case):
        model, rows = case
        stages = list(model.staged_scores(rows))
        assert len(stages) == len(model.rounds)
        for t, stage in enumerate(stages, 1):
            prefix = StrongClassifier(k=model.k, d=model.d, a0=model.a0,
                                      rounds=model.rounds[:t])
            assert stage.flags.c_contiguous
            assert stage.tobytes() == round_order_scores(prefix, rows).tobytes()

    def test_deep_trees_match_round_order_sum(self):
        """Trees past SELECT_MAX_DEPTH are routed; the sum is the same."""
        from conftest import random_model
        rows = np.random.default_rng(7).normal(size=(50, 4))
        for depth in (SELECT_MAX_DEPTH, SELECT_MAX_DEPTH + 1, SELECT_MAX_DEPTH + 3):
            model = random_model(depth, k=3, d=4, depth=depth, rounds=4)
            want = round_order_scores(model, rows).tobytes()
            assert model.scores(rows).tobytes() == want
            assert list(model.staged_scores(rows))[-1].tobytes() == want

    def test_model_grown_after_construction_is_scored_in_full(self):
        """A model made by `dataclasses.replace` with a round added to a
        model already built and scored counts that round.  One round takes
        the per-round path; the block path's pack is tested in
        `test_rescoring_reads_the_pairs_the_model_holds`."""
        model = StrongClassifier(k=2, d=1, a0=np.zeros(2), rounds=[])
        x = np.array([[1.0]])
        np.testing.assert_array_equal(model.scores(x), [[0.0, 0.0]])
        pair = (Tree.from_stump(Stump(0, 0.0, 1)), np.array([-1.0, 1.0]))
        grown = dataclasses.replace(model, rounds=model.rounds + (pair,))
        np.testing.assert_array_equal(grown.scores(x), [[-1.0, 1.0]])
        np.testing.assert_array_equal(model.scores(x), [[0.0, 0.0]])

    @pytest.mark.parametrize("edit", ["none", "append", "replace", "new list"])
    def test_rescoring_reads_the_pairs_the_model_holds(self, edit):
        """The block path packs a model's pairs on its first call and keeps
        the pack, which holds because a model and its trees cannot be
        changed in place: appending a pair, replacing one and assigning a
        new `rounds` are refused.  A second call gives the same sums, so the
        polarity fold went into the pack once; a model made by
        `dataclasses.replace` with the edit is scored in full, on the block
        path (16 rounds and more) and on the per-round path (2 rounds), and
        `staged_scores` after `scores` gives every stage in round order."""
        from conftest import random_model
        n, d, k = 20, 4, 3
        model = random_model(17, k=k, d=d, rounds=2 * boost.BLOCK_MIN_ROUNDS)
        assert {tree.nodes[0].polarity for tree, _ in model.rounds} == {-1, 1}
        assert boost.BLOCK_ELEMS // (k * n) > len(model.rounds)
        rows = np.random.default_rng(17).normal(size=(n, d))
        other = random_model(18, k=k, d=d, depth=2, rounds=len(model.rounds))
        short = dataclasses.replace(model, rounds=model.rounds[:2])
        for base in (model, short):
            first = base.scores(rows).tobytes()
            assert first == round_order_scores(base, rows).tobytes()
            if edit == "append":
                with pytest.raises(AttributeError):
                    base.rounds.append(other.rounds[0])
                rounds = base.rounds + other.rounds[:1]
            elif edit == "replace":
                with pytest.raises(TypeError):
                    base.rounds[1] = (other.rounds[0][0], base.rounds[1][1])
                with pytest.raises(dataclasses.FrozenInstanceError):
                    base.rounds[1][0].nodes = other.rounds[0][0].nodes
                rounds = (base.rounds[:1] + ((other.rounds[0][0], base.rounds[1][1]),)
                          + base.rounds[2:])
            elif edit == "new list":
                with pytest.raises(dataclasses.FrozenInstanceError):
                    base.rounds = other.rounds
                with pytest.raises(dataclasses.FrozenInstanceError):
                    base.fingerprint = "edited"
                rounds = other.rounds[:len(base.rounds)]
            else:
                rounds = base.rounds
            assert base.scores(rows).tobytes() == first
            edited = dataclasses.replace(base, rounds=rounds)
            assert edited.fingerprint == base.fingerprint
            want = list(round_order_stages(edited, rows))
            assert edited.scores(rows).tobytes() == want[-1].tobytes()
            stages = list(edited.staged_scores(rows))
            assert len(stages) == len(edited.rounds)
            for stage, expected in zip(stages, want[1:]):
                assert stage.tobytes() == expected.tobytes()
            assert base.scores(rows).tobytes() == first
