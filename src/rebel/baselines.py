"""Baselines: discrete AdaBoost on binary problems and the two-step cost plug-in.

The AdaBoost trainer shares the threshold grid, tie-breaking, and smoothing
scale of the multiclass trainer, so on a two-class problem with uniform costs
the two must pick the same stump and coefficient every round; the reduction
checker below verifies exactly that.  Its model is a two-class
`StrongClassifier`, so both routes are scored, saved and loaded alike.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .boost import StrongClassifier, TrainConfig, train
from .costs import CostMatrix
from .weak import SELECTION_SLACK, Stump, Tree, build_grid, class_sum, cut_sums, first_within_slack

if TYPE_CHECKING:
    from .io import Dataset


def adaboost_train(data: "Dataset", rounds: int, n_tau: int = 200,
                   epsilon: float | None = None) -> StrongClassifier:
    """Discrete AdaBoost with grid stumps searched in both polarities.

    The vote sum_t alpha_t f_t(x) comes back as a two-class StrongClassifier
    with a0 = 0 and one depth-1 tree per round whose vector is
    (alpha, -alpha), so class 1's score is the vote, class 2's its negation,
    and a zero vote ties to class 1.

    Sample weights start at one each and are never renormalized; the
    coefficient is alpha = ln((correct + eps) / (error + eps)) / 2 over
    weight masses, with eps defaulting to 1/2 (the multiclass trainer's
    smoothing scale under this weight normalization).  Stump selection
    maximizes distance of the error mass from half the round's total, with
    ties to the lowest feature, then lowest threshold, then +1 polarity.
    Starting at integer weights keeps first-round masses exact, so ties
    resolve by scan order rather than by summation noise.
    """
    if data.k != 2:
        raise ValueError("adaboost baseline needs a binary dataset")
    X = data.features
    n = X.shape[0]
    if epsilon is None:
        epsilon = 0.5
    y_star = np.where(data.labels == 1, 1.0, -1.0)
    grid = build_grid(X, n_tau)
    weights = np.ones(n)
    pairs = []

    for _ in range(rounds):
        total = weights.sum()
        masses = np.stack((np.where(y_star > 0, weights, 0.0), np.where(y_star < 0, weights, 0.0)))
        tot_neg = masses[1].sum()
        rows = []
        lowest = np.inf
        for j, thr in enumerate(grid.thresholds):
            m = thr.shape[0]
            hist = cut_sums(grid.buckets[j], masses, m + 1)
            below_pos, below_neg = np.cumsum(hist, axis=1)[:, :m]
            # +1-polarity error: negatives above the cut plus positives below it
            err_plus = (tot_neg - below_neg) + below_pos
            key = np.minimum(err_plus, total - err_plus)
            rows.append((key, err_plus))
            lowest = min(lowest, float(key.min()))

        # candidates within the slack of the best key count as tied; take the
        # earliest in scan order, mirroring the multiclass trainer's rule
        limit = lowest + SELECTION_SLACK * total
        for j, (key, err_plus) in enumerate(rows):
            if key.min() <= limit:
                i = first_within_slack(key, limit)
                break
        err = float(err_plus[i])
        polarity = 1 if err <= total - err else -1
        err = min(err, total - err)
        alpha = 0.5 * (np.log((total - err) + epsilon) - np.log(err + epsilon))
        stump = Stump(feature=j, threshold=float(grid.thresholds[j][i]), polarity=polarity)
        pairs.append((Tree.from_stump(stump), np.array([alpha, -alpha])))
        # the stump's outputs, off the bins: x > tau_i exactly when bin > i
        outputs = polarity * np.where(grid.buckets[j] > i, 1, -1)
        weights = weights * np.exp(-alpha * y_star * outputs)
    return StrongClassifier(k=2, d=X.shape[1], a0=np.zeros(2), rounds=pairs)


def posterior_all(model: StrongClassifier, features: np.ndarray) -> np.ndarray:
    """The two-step baseline's class weights per row: softmax of twice the scores.

    This is the link the baseline is defined with, not the posterior implied
    by the trainer's loss.  With 0-1 costs the surrogate is minimized class by
    class at H_k = ln(p_k / (1 - p_k)) / 2, whose inverse is
    p_k = sigmoid(2 H_k); softmax(2H) instead weighs class k in proportion to
    p_k / (1 - p_k), which overweights the likeliest class.  The row maximum
    is shifted out before exponentiating.
    """
    h = 2.0 * model.scores(features)
    h -= h.max(axis=1, keepdims=True)
    e = np.exp(h)
    return e / e.sum(axis=1, keepdims=True)


def two_step_predict_all(posteriors: np.ndarray, costs: CostMatrix) -> np.ndarray:
    """Minimum expected cost class per row of estimated posteriors, 1-based (ties to lowest index).

    Row n's expected cost of predicting k is sum_y p[n, y] * C[y, k], added in
    class order.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2 or posteriors.shape[1] != costs.k:
        raise ValueError(f"posteriors must be an (N, {costs.k}) array")
    return np.argmin(class_sum(posteriors.T[:, :, None], costs.entries), axis=1) + 1


# --- binary reduction checker --------------------------------------------


def random_binary_dataset(seed: int, n: int = 200, d: int = 5):
    """Two overlapping Gaussian classes for reduction trials."""
    from .io import Dataset

    rng = np.random.default_rng(seed)
    labels = np.empty(n, dtype=np.int64)
    labels[: n // 2] = 1
    labels[n // 2:] = 2
    shift = rng.uniform(0.3, 1.0, size=d) * np.where(labels[:, None] == 1, 1.0, -1.0)
    features = rng.normal(size=(n, d)) + shift
    return Dataset(features, labels, k=2)


def run_reduction_trial(seed: int, n: int = 200, d: int = 5, rounds: int = 50,
                        n_tau: int = 200, epsilon_scale: float = 1.0) -> dict:
    """Train both binary routes on one random problem and report worst deviations.

    epsilon_scale deliberately mis-scales the AdaBoost smoothing when != 1,
    as a negative control; the routes then diverge and the checker must say
    so.  Returns per-trial maxima: coefficient gap, score-antisymmetry gap,
    and the number of rounds whose stumps disagree.
    """
    data = random_binary_dataset(seed, n=n, d=d)
    cfg = TrainConfig(rounds=rounds, tree_depth=1, n_tau=n_tau, fit_a0=False,
                      early_stop_on_certificate=False)
    model, _ = train(data, CostMatrix.uniform(2), cfg)
    ada = adaboost_train(data, rounds=rounds, n_tau=n_tau,
                         epsilon=epsilon_scale * 0.5)

    stump_mismatches = 0
    coeff_gaps = []
    paired = 0
    for (tree, vector), (ada_tree, ada_vector) in zip(model.rounds, ada.rounds):
        root, stump = tree.nodes[0], ada_tree.nodes[0]
        paired += 1
        if (root.feature, root.threshold) != (stump.feature, stump.threshold):
            stump_mismatches += 1
            continue
        alpha = stump.polarity * float(ada_vector[0])
        coeff_gaps.append(abs(float(vector[0]) - alpha))

    h = model.scores(data.features)
    symmetry_gap = float(np.max(np.abs(h[:, 0] + h[:, 1]))) if h.size else 0.0
    return {
        "seed": seed,
        "rounds_compared": paired,
        "stump_mismatches": stump_mismatches,
        # np.max keeps a nan gap, where Python's max(0.0, nan) would drop it
        "coeff_gap": float(np.max(coeff_gaps, initial=0.0)),
        "symmetry_gap": symmetry_gap,
    }
