"""Acceptance suite: seven end-to-end criteria, one printed pass/fail line each.

Criterion 4 (the cost-sensitive-vs-plug-in comparison) asserts the >= 0.70
win-fraction target at the default experiment settings; README's acceptance
section carries the measured numbers and the analysis summary.
"""
import time

import numpy as np
import pytest

from conftest import random_costs, random_problem, random_model, xor_dataset
from rebel.baselines import run_reduction_trial
from rebel.boost import TrainConfig, train, update_weights
from rebel.costs import CostMatrix, dataset_terms
from rebel.io import Dataset, model_from_text, model_to_text
from rebel.synth import run_comparison, win_fraction
from rebel.weak import (Tree, accumulate_split, build_grid, class_major,
                        grow_layer, split_value, stump_search)
from reference_impl import coupled_sum, decompose_row, naive_stump_search, sample_terms

TOL = 1e-9


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def multiclass_traces():
    """Fifty random multi-class training runs shared by criteria 2 and 3."""
    traces = []
    for i in range(50):
        k = (3, 4, 5)[i % 3]
        data, costs = random_problem(1000 + i, n=150, d=4, k=k)
        _, trace = train(data, costs, TrainConfig(rounds=40))
        traces.append(trace)
    return traces


def test_criterion_1_binary_reduction(capsys):
    """Multi-class trainer with uniform binary costs tracks AdaBoost exactly."""
    t0 = time.perf_counter()
    seeds = np.random.default_rng(0).integers(1, 2 ** 31, size=20)
    trials = [run_reduction_trial(int(seed), n=200, d=5, rounds=50) for seed in seeds]
    mismatches = sum(r["stump_mismatches"] for r in trials)
    # np.max keeps a nan gap, which fails the comparisons below
    coeff_gap = float(np.max([r["coeff_gap"] for r in trials]))
    symmetry_gap = float(np.max([r["symmetry_gap"] for r in trials]))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and coeff_gap <= TOL and symmetry_gap <= TOL and elapsed < 60.0
    announce(capsys, 1, ok,
             f"20 binary trials x 50 rounds: stump mismatches {mismatches}, "
             f"max coefficient gap {coeff_gap:.2e}, max score-symmetry gap "
             f"{symmetry_gap:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_2_loss_monotonicity_and_bound(multiclass_traces, capsys):
    """Over exponential rounds the loss never increases, and while above the
    certificate the excess-loss ratio stays under the per-round edge products;
    over smoothed-risk rounds the smoothed risk never increases."""
    worst_jump = -np.inf
    worst_gap = -np.inf
    checked = 0
    misordered = 0
    nan_phi = 0
    for trace in multiclass_traces:
        # exponential rounds come first; the edge chain ends where they do,
        # since a smoothed-risk round claims no edge (its phi is nan)
        n_exp = sum(r.phase == "exp" for r in trace.rounds)
        exp_rounds, risk_rounds = trace.rounds[:n_exp], trace.rounds[n_exp:]
        misordered += sum(r.phase != "exp" for r in exp_rounds)
        losses = [trace.loss_initial] + [r.loss for r in exp_rounds]
        risks = [r.smoothed_risk for r in risk_rounds]
        for values in (losses, risks):
            worst_jump = max([worst_jump] + [b - a for a, b in zip(values, values[1:])])
        denom = trace.loss_initial - trace.floor
        sqrt_prod = 1.0
        exp_prod = 1.0
        for r in exp_rounds:
            if r.loss < trace.certificate:
                break
            checked += 1
            nan_phi += int(np.isnan(r.phi))
            sqrt_prod *= np.sqrt(max(0.0, 1.0 - r.phi ** 2))
            exp_prod *= np.exp(-r.phi ** 2 / 2.0)
            ratio = (r.loss - trace.floor) / denom
            worst_gap = max(worst_gap, ratio - sqrt_prod, sqrt_prod - exp_prod)
    ok = worst_jump <= TOL and worst_gap <= TOL and checked > 0 and misordered == 0 and nan_phi == 0
    announce(capsys, 2, ok,
             f"50 multi-class runs: worst loss (or smoothed-risk) increase "
             f"{worst_jump:.2e}, worst bound-chain gap {worst_gap:.2e} over {checked} "
             f"exponential rounds")


def test_criterion_3_certificate(multiclass_traces, capsys):
    """Any round with loss below the certificate must show zero training risk."""
    def separable(seed, k=3, n=60):
        rng = np.random.default_rng(seed)
        y = rng.integers(1, k + 1, size=n)
        x = y[:, None] * 10.0 + rng.normal(scale=0.5, size=(n, 2))
        return Dataset(x, y, k), random_costs(k, rng)

    traces = list(multiclass_traces)
    for seed in (5, 6, 7):
        data, costs = separable(seed)
        _, trace = train(data, costs, TrainConfig(rounds=60))
        traces.append(trace)
    xor = xor_dataset()
    _, trace = train(xor, CostMatrix.uniform(2), TrainConfig(rounds=50, tree_depth=2))
    traces.append(trace)
    # runs that train on past the certificate, so that many rounds sit below it:
    # separable problems at K=2 with random costs and at K=3 with uniform ones
    # (neither has a smoothed-risk phase), each with stumps and depth-2 trees
    unstopped = []
    for depth in (1, 2):
        for seed in (5, 6, 7):
            for data, costs in (separable(seed, k=2),
                                (separable(seed)[0], CostMatrix.uniform(3))):
                _, trace = train(data, costs, TrainConfig(rounds=60, tree_depth=depth,
                                                          early_stop_on_certificate=False))
                unstopped.append(trace)

    def below_and_violations(runs):
        below = [r for trace in runs for r in trace.rounds if r.loss < trace.certificate]
        return len(below), sum(r.train_risk != 0.0 for r in below)

    below, violations = below_and_violations(traces + unstopped)
    below_unstopped, _ = below_and_violations(unstopped)
    ends = {trace.stopped for trace in unstopped}
    ok = violations == 0 and below > 0 and ends <= {"rounds", "floor"}
    announce(capsys, 3, ok,
             f"{len(traces) + len(unstopped)} runs: {below} below-certificate rounds "
             f"({below_unstopped} in the {len(unstopped)} runs past the certificate, "
             f"which stopped on {'/'.join(sorted(ends))}), {violations} risk violations")


def test_criterion_4_cost_sensitive_vs_plugin(capsys):
    """Full 10 datasets x 20 cost matrices comparison at 100 stump rounds."""
    t0 = time.perf_counter()
    rows = run_comparison(n_datasets=10, n_matrices=20, rounds=100, depth=1,
                    seed=0, fit_a0=True, workers=1)
    elapsed = time.perf_counter() - t0
    wf = win_fraction(rows)
    ok = wf >= 0.70 and elapsed < 1800.0
    rebel_risk = np.mean([r["rebel_risk"] for r in rows])
    twostep_risk = np.mean([r["twostep_risk"] for r in rows])
    announce(capsys, 4, ok,
             f"10x20 grid, 100 stump rounds: win fraction {wf:.3f} "
             f"(target >= 0.70), mean test risk trained {rebel_risk:.3f} vs "
             f"plug-in {twostep_risk:.3f}, {elapsed:.0f}s (< 1800s)")


def test_criterion_5_tree_growth(capsys):
    """Growing a layer never raises the round objective (exact), and depth-2
    trees crack the XOR pattern that stumps cannot."""
    grow_violations = 0
    calls = 0
    for trial in range(40):
        n = int(np.random.default_rng(trial).integers(30, 120))
        data, costs = random_problem(5000 + trial, n=n, d=3, k=3 + trial % 3)
        c_plus, c_minus, _, _ = dataset_terms(costs, data.labels)
        weights = class_major(c_plus, c_minus)
        eps = 1.0 / (2 * n * costs.k)
        grid = build_grid(data.features, 64)
        stump, vector, *_ = stump_search(data, weights, grid, eps)
        tree = Tree.from_stump(stump)
        for _ in range(trial % 3):
            update_weights(weights, tree.evaluate(data.features), vector)
            stump2, vector, *_ = stump_search(data, weights, grid, eps)
            tree = Tree.from_stump(stump2)
        for _ in range(3):
            before = split_value(accumulate_split(tree.evaluate(data.features), weights), vector)
            tree, vector, *_ = grow_layer(tree, vector, data, weights, grid, eps)
            after = split_value(accumulate_split(tree.evaluate(data.features), weights), vector)
            calls += 1
            if after > before:
                grow_violations += 1

    xor = xor_dataset()
    costs2 = CostMatrix.uniform(2)
    _, deep_trace = train(xor, costs2, TrainConfig(rounds=50, tree_depth=2))
    deep_zero = any(r.train_error == 0.0 for r in deep_trace.rounds)
    _, flat_trace = train(xor, costs2, TrainConfig(rounds=50, tree_depth=1))
    flat_best = min(r.train_error for r in flat_trace.rounds)

    ok = grow_violations == 0 and deep_zero and flat_best > 0.0
    announce(capsys, 5, ok,
             f"{calls} grow calls, {grow_violations} objective increases; XOR "
             f"depth-2 reaches zero training error: {deep_zero}, depth-1 best "
             f"error {flat_best:.2f}")


def test_criterion_6_search_exactness(capsys):
    """Histogram stump search equals exhaustive per-candidate scoring."""
    argmin_mismatches = 0
    worst_value_gap = 0.0
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(8, 60))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        data, costs = random_problem(8000 + i, n=n, d=d, k=k)
        n_tau = int(rng.integers(10, 2000 // d + 1))
        grid = build_grid(data.features, n_tau)
        c_plus, c_minus, _, _ = dataset_terms(costs, data.labels)
        weights = class_major(c_plus, c_minus)
        eps = 1.0 / (2 * n * k)
        for _ in range(int(rng.integers(0, 3))):
            stump, vector, *_ = stump_search(data, weights, grid, eps)
            update_weights(weights, Tree.from_stump(stump).evaluate(data.features), vector)
        stump, _, crit, *_ = stump_search(data, weights, grid, eps)
        ref_stump, ref_crit = naive_stump_search(
            data.features, weights[:k].T, weights[k:].T, grid)
        if (stump.feature, stump.threshold) != (ref_stump.feature, ref_stump.threshold):
            argmin_mismatches += 1
        worst_value_gap = max(worst_value_gap, abs(crit - ref_crit))
    ok = argmin_mismatches == 0 and worst_value_gap <= 1e-12
    announce(capsys, 6, ok,
             f"50 instances: argmin mismatches {argmin_mismatches}, worst "
             f"criterion gap {worst_value_gap:.2e}")


def test_criterion_7_math_layer(capsys):
    """Decomposition round-trip, closed-form floor vs numeric minimizer,
    surrogate domination, and model serialization parity."""
    rng = np.random.default_rng(31415)

    # cost-row decomposition reconstructs the row exactly (to 1e-12)
    worst_recon = 0.0
    b_ok = True
    for i in range(1000):
        k = 2 + i % 5
        row = rng.uniform(0.0, 4.0, size=k)
        row[rng.integers(0, k)] = 0.0
        if row.max() <= 0.0:
            row[0] = 1.0
        dec = decompose_row(row)
        rebuilt = dec.beta + dec.b.sum() - dec.b
        worst_recon = max(worst_recon, float(np.max(np.abs(rebuilt - row))))
        b_ok = b_ok and bool(np.all(dec.b >= 0.0)) and float(np.min(dec.b)) == 0.0

    # the closed-form per-sample floor matches an independent trisection minimizer
    worst_floor_gap = 0.0
    for i in range(300):
        k = 2 + i % 5
        costs = random_costs(k, rng)
        terms = sample_terms(costs, 1 + i % k)
        lo = np.full(k, -40.0)
        hi = np.full(k, 40.0)
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            f1 = terms.c_plus * np.exp(m1) + terms.c_minus * np.exp(-m1)
            f2 = terms.c_plus * np.exp(m2) + terms.c_minus * np.exp(-m2)
            take = f1 <= f2
            hi = np.where(take, m2, hi)
            lo = np.where(take, lo, m1)
        mid = (lo + hi) / 2.0
        numeric = float(np.sum(terms.c_plus * np.exp(mid) + terms.c_minus * np.exp(-mid)))
        worst_floor_gap = max(worst_floor_gap, abs(numeric - terms.c_star))

    # the coupled exponential sum dominates the misclassification indicator
    # (ties count as errors)
    h = rng.normal(scale=2.0, size=(10000, 5))
    y = rng.integers(1, 6, size=10000)
    domination_violations = 0
    for i in range(10000):
        sigma = coupled_sum(h[i], int(y[i]))
        others = np.delete(h[i], y[i] - 1)
        indicator = 0.0 if h[i][y[i] - 1] > others.max() else 1.0
        if sigma < indicator:
            domination_violations += 1

    # serialization: text round trip is byte-identical and score-exact
    serial_ok = True
    for seed in range(10):
        model = random_model(900 + seed, k=2 + seed % 4, d=3, depth=1 + seed % 2,
                             rounds=5)
        text = model_to_text(model)
        clone = model_from_text(text)
        probe = np.random.default_rng(seed).normal(size=(30, 3))
        serial_ok = serial_ok and model_to_text(clone) == text
        serial_ok = serial_ok and np.array_equal(model.scores(probe), clone.scores(probe))

    ok = (worst_recon <= 1e-12 and b_ok and worst_floor_gap <= TOL
          and domination_violations == 0 and serial_ok)
    announce(capsys, 7, ok,
             f"decomposition round-trip worst gap {worst_recon:.2e}; floor vs "
             f"numeric minimizer worst gap {worst_floor_gap:.2e}; surrogate "
             f"domination violations {domination_violations}/10000; "
             f"serialization exact: {serial_ok}")
