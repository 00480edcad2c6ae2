"""Boosting loop: the exponential surrogate of cost-sensitive risk, then the smoothed risk.

Each round jointly picks a binary weak learner and a free per-class output
vector.  Sample weights split into a positive and a negative part seeded by
the cost terms; their product is invariant under score updates, which pins
the unreachable loss floor and yields a certificate threshold below which
training risk is provably zero.

The exponential surrogate is convex and consistent, but when a row's
mistakes cost different amounts its minimizer keeps finite targets for the
other classes even where one class is certain (see `rebel.costs`), and an
additive model spends its rounds fitting those targets.  So for such cost
matrices, rounds after `WARM_ROUNDS` minimize the smoothed risk instead
(`rebel.loss.smoothed_risk`), starting from the exponential fit: each picks
its learner by the same split search run on the smoothed risk's slopes, then
scales that learner's vector by a line search on the smoothed risk itself.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .costs import CostMatrix, dataset_terms, loss_floor
from .loss import class_major_risk
from .weak import (LearnerFit, SplitScores, ThresholdGrid, Tree, accumulate_split, build_grid,
                   class_major, grow_layer, optimal_vector, stump_search)

if TYPE_CHECKING:
    from .io import Dataset

OVERFLOW_LIMIT = 1e300
FLOOR_STOP = 1e-12
# Rounds on the exponential surrogate before the smoothed risk takes over, for
# cost matrices whose rows charge their mistakes unequally.  A count rather
# than a share of the budget, so a shorter run is a prefix of a longer one.
# These three were chosen on comparison grids that criterion 4 does not use
# (README, "About criterion 4").
WARM_ROUNDS = 60
TEMPERATURE = 3.0  # softmax sharpness of the smoothed risk
GOLDEN_ITERS = 8  # golden-section steps of a smoothed-risk round's line search


# Rounds per block of the scoring walk: BLOCK_ELEMS // (K * N), so a block's
# (b, K, N) steps hold about BLOCK_ELEMS doubles (512 KB).  At 64 rows a block
# holds hundreds of rounds, and the walk makes a few NumPy calls per block
# instead of per round.  Of 8k to 256k, 64k was the fastest or within 2% of it
# at 64, 500 and 2000 rows (300 stumps, K=5, d=20, 2-vCPU Xeon).
BLOCK_ELEMS = 1 << 16
# Fewest rounds a block must hold; with fewer (large N, or a short model) the
# walk takes one round at a time.  Blocks of 13 rounds (1000 rows, K=5) were
# faster than the per-round walk, blocks of 2-6 (2000-6000 rows) no faster or
# slower, and a one-round block in 3-D slower at 10k rows.
BLOCK_MIN_ROUNDS = 8

_SIGNS = np.array([-1.0, 1.0])  # a tree's output, indexed by its +1 side as 0 or 1


class NumericOverflowError(RuntimeError):
    """A weight left the representable range; training cannot continue."""

    def __init__(self, round_index):
        self.round_index = round_index
        super().__init__(f"weight overflow (> {OVERFLOW_LIMIT:g}) in round {round_index}")


@dataclass
class StrongClassifier:
    """Additive model: scores(x) = a0 + sum_t f_t(x) * a_t, class = argmax score."""

    k: int
    d: int
    a0: np.ndarray
    rounds: list[tuple[Tree, np.ndarray]]
    fingerprint: str = ""

    def _walk(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """Class-major (K, N) running scores: a0 first, then after each round.

        Yields one buffer, updated in place.  Each round adds a * out per
        sample, out in {-1.0, +1.0}: exact, with the signed zeros of +a and
        -a, and free of the per-element branch of a select.  Rounds are
        added in order, one `np.add` each: a reordered sum (a matmul over
        rounds, say) would change the low bits.

        When a block of `BLOCK_ELEMS` holds at least `BLOCK_MIN_ROUNDS`
        rounds, the steps come a block at a time: one gather-and-compare of
        the block's root stumps, exact +-1 signs and one multiply by the
        block's vectors.  A stump's polarity is folded into its vector, which
        is exact: (p*a)*s == a*(p*s) for p, s = +-1.  A deeper tree's row of
        outputs comes from `Tree.plus_side`.  The model is packed on every
        call, so rounds appended later count.  Otherwise each round's step
        is one 2-D multiply of its vector by its +-1 outputs.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.d:
            raise ValueError(f"expected (N, {self.d}) features, got {features.shape}")
        # a feature-major copy, so that each node reads one contiguous row
        by_column = np.ascontiguousarray(features.T).T
        n = features.shape[0]
        h = np.repeat(self.a0[:, None], n, axis=1)
        yield h
        total = len(self.rounds)
        size = min(total, BLOCK_ELEMS // max(1, self.k * n))
        if size < BLOCK_MIN_ROUNDS:
            step = np.empty_like(h)
            for tree, vector in self.rounds:
                # a bool array indexes `_SIGNS` as 0/1; positional out arguments,
                # since at small N the cost is call overhead
                np.multiply(vector[:, None], _SIGNS.take(tree.plus_side(by_column)), step)
                np.add(h, step, h)
                yield h
            return

        trees = [tree for tree, _ in self.rounds]
        roots = [tree.nodes[0] for tree in trees]
        feature = np.array([root.feature for root in roots], dtype=np.intp)
        threshold = np.array([root.threshold for root in roots], dtype=np.float64)[:, None]
        vectors = np.array([vector for _, vector in self.rounds], dtype=np.float64)
        vectors[[t for t, tree in enumerate(trees)
                 if tree.depth == 1 and roots[t].polarity < 0]] *= -1.0
        deep = [t for t, tree in enumerate(trees) if tree.depth > 1]
        columns = by_column.T  # (d, N), C-contiguous
        values = np.empty((size, n))
        side = np.empty((size, n), dtype=bool)
        steps = np.empty((size, self.k, n))
        for start in range(0, total, size):
            stop = min(start + size, total)
            b = stop - start
            columns.take(feature[start:stop], 0, values[:b])
            np.greater(values[:b], threshold[start:stop], side[:b])
            for t in deep[bisect_left(deep, start):bisect_left(deep, stop)]:
                side[t - start] = trees[t].plus_side(by_column)
            np.multiply(side[:b], 2.0, values[:b])
            np.subtract(values[:b], 1.0, values[:b])
            np.multiply(vectors[start:stop, :, None], values[:b, None, :], steps[:b])
            for step in steps[:b]:
                np.add(h, step, h)
                yield h

    def staged_scores(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """(N, K) scores after each round, bit-identical to `scores` of each prefix.

        Each stage is a new C-contiguous array, as `scores` returns.
        """
        stages = self._walk(features)
        next(stages)
        for h in stages:
            yield h.T.copy()  # C order; ascontiguousarray would return a view when N or K is 1

    def scores(self, features: np.ndarray) -> np.ndarray:
        for h in self._walk(features):
            pass
        return np.ascontiguousarray(h.T)


@dataclass
class TrainConfig:
    rounds: int
    tree_depth: int = 1
    n_tau: int = 200
    epsilon: float | None = None  # None -> 1 / (2 N K)
    fit_a0: bool = True
    early_stop_on_certificate: bool = True

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.tree_depth < 1:
            raise ValueError("tree_depth must be >= 1")
        if self.n_tau < 1:
            raise ValueError("n_tau must be >= 1")
        if self.epsilon is not None and not (self.epsilon >= 0):
            raise ValueError("epsilon must be >= 0")


@dataclass
class RoundRecord:
    index: int
    loss: float
    excess: float
    gamma: float
    phi: float
    depth: int
    feature: int
    threshold: float
    train_error: float
    train_risk: float
    phase: str  # "exp": exponential surrogate round, "risk": smoothed-risk round
    smoothed_risk: float  # after a "risk" round; nan after an "exp" round


@dataclass
class TrainTrace:
    floor: float
    certificate: float
    c_star_bar: float
    loss_initial: float
    stopped: str = "rounds"
    rounds: list[RoundRecord] = field(default_factory=list)


def init_weights(costs: CostMatrix, data: "Dataset") -> np.ndarray:
    """Class-major (2K, N) weights at the zero model: the raw (c_plus, c_minus) pairs."""
    c_plus, c_minus, _, _ = dataset_terms(costs, data.labels)
    return class_major(c_plus, c_minus)


def fit_constant(weights: np.ndarray, epsilon: float) -> np.ndarray:
    """Closed-form constant score offset (the a0 term); updates weights in place.

    With epsilon 0, a class with no weight on one side gets an infinite
    offset; the weights it leaves non-finite raise NumericOverflowError for
    round 0.
    """
    k = weights.shape[0] // 2
    ones = np.ones(weights.shape[1], dtype=np.int64)
    a0, _ = optimal_vector(accumulate_split(ones, weights), epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        weights[:k] *= np.exp(a0)[:, None]
        weights[k:] *= np.exp(-a0)[:, None]
    if not np.isfinite(weights.max()):
        raise NumericOverflowError(0)
    return a0


def update_weights(weights: np.ndarray, outputs: np.ndarray, vector: np.ndarray,
                   round_index: int | None = None) -> np.ndarray:
    """Multiply in the round's contribution: w+ *= exp(f a), w- *= exp(-f a), in place."""
    k = weights.shape[0] // 2
    with np.errstate(over="ignore"):
        shift = vector[:, None] * outputs
        np.exp(shift, out=shift)
        weights[:k] *= shift
        weights[k:] /= shift
    peak = weights.max()
    if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
        raise NumericOverflowError(round_index)
    return weights


def edge(scores: SplitScores, c_star_bar: float, floor: float,
         certificate: float) -> tuple[float, float]:
    """Achieved weak-learner edge gamma and its bound-ready deflation phi.

    gamma = <|s+ - s-|, 1> / (<s+ + s-, 1> - c_star_bar); phi deflates it by
    the certificate gap so that sqrt(1 - phi^2) contracts the loss excess per
    round while the loss sits above the certificate.  Not-applicable cases
    (zero denominators at the floor) come back as nan.
    """
    denom = float(np.sum(scores.s_plus + scores.s_minus)) - c_star_bar
    if denom <= 0:
        return float("nan"), float("nan")
    gamma = float(np.sum(np.abs(scores.s_plus - scores.s_minus))) / denom
    gap = certificate - floor + c_star_bar
    if gap <= 0:
        return gamma, float("nan")
    phi = gamma * (1.0 - c_star_bar / gap)
    return gamma, phi


def _fingerprint(cfg: TrainConfig, epsilon: float) -> str:
    return (f"rounds={cfg.rounds} depth={cfg.tree_depth} ntau={cfg.n_tau} "
            f"epsilon={epsilon!r} a0={int(cfg.fit_a0)}")


def fit_learner(data: "Dataset", weights: np.ndarray, grid: ThresholdGrid, epsilon: float,
                depth: int) -> LearnerFit:
    """The round's learner for these weights: root stump search, then layer growth to `depth`.

    The fit's learner is always a Tree; its outputs and split scores are on
    the training features under `weights`.
    """
    fit = stump_search(data, weights, grid, epsilon)
    fit = fit._replace(learner=Tree.from_stump(fit.learner))
    while fit.learner.depth < depth:
        fit = grow_layer(fit.learner, fit.vector, data, weights, grid, epsilon)
    return fit


def risk_round(data: "Dataset", h: np.ndarray, cost_rows: np.ndarray, grid: ThresholdGrid,
               epsilon: float, depth: int) -> tuple[Tree, np.ndarray, np.ndarray, float]:
    """One round on the smoothed risk from class-major (K, N) scores h and cost rows.

    Returns the learner, its outputs on the training features, its vector
    and the smoothed risk after the round.

    The learner comes from the exponential split search (and layer growth)
    run on the risk's slopes: a sample-class pair whose score should rise
    weighs on the down side, one whose score should fall on the up side.
    That search's vector has the sign of the slope summed over each side, so
    it points downhill.  A golden-section line search then scales it within a
    trust region: no score may move by more than 1/TEMPERATURE in a round.
    Without that bound the smoothed risk often keeps falling as the step
    grows, because scaling every score up turns the smoothed risk into the
    training risk of argmax h; one such step saturates the softmax and
    leaves no slope for later rounds.  A round that cannot lower the risk
    comes back with a zero vector.
    """
    k = h.shape[0]
    before, q, expected = class_major_risk(h, cost_rows, TEMPERATURE)
    slope = q * (expected - cost_rows)
    pull = np.empty((2 * k, h.shape[1]))
    np.maximum(-slope, 0.0, out=pull[:k])
    np.maximum(slope, 0.0, out=pull[k:])
    learner, direction, _, outputs, _ = fit_learner(data, pull, grid, epsilon, depth)
    reach = float(np.max(np.abs(direction)))
    if reach == 0.0:
        return learner, outputs, direction, before

    move = direction[:, None] * outputs
    moved = np.empty_like(h)

    def risk(step):
        np.multiply(move, step, out=moved)
        np.add(moved, h, out=moved)
        return class_major_risk(moved, cost_rows, TEMPERATURE, out=moved)[0]

    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0 / (TEMPERATURE * reach)
    left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    v_left, v_right = risk(left), risk(right)
    for _ in range(GOLDEN_ITERS):
        if v_left < v_right:
            hi, right, v_right = right, left, v_left
            left = hi - ratio * (hi - lo)
            v_left = risk(left)
        else:
            lo, left, v_left = left, right, v_right
            right = lo + ratio * (hi - lo)
            v_right = risk(right)
    step, after = (left, v_left) if v_left < v_right else (right, v_right)
    if not after < before:
        return learner, outputs, np.zeros_like(direction), before
    return learner, outputs, step * direction, after


def train(data: "Dataset", costs: CostMatrix, cfg: TrainConfig) -> tuple[StrongClassifier, TrainTrace]:
    """Greedy stagewise training; returns the model and a per-round trace.

    Rounds minimize the exponential surrogate; when some row of the cost
    matrix charges its mistakes unequally, rounds after WARM_ROUNDS minimize
    the smoothed risk instead (`risk_round`).  The trace's loss is
    the exponential surrogate throughout, so the certificate holds in either
    phase; it is nonincreasing over exponential rounds, and the smoothed risk
    is nonincreasing over smoothed-risk rounds.

    Stops at the round budget, when the loss drops below the certificate
    threshold (if enabled), when the loss excess above the floor falls under
    1e-12, or when a smoothed-risk round finds no step that lowers the risk
    ("stalled").  Deterministic for fixed inputs and config.
    """
    cfg.validate()
    X = data.features
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to train")
    if data.k != costs.k:
        raise ValueError(f"dataset has {data.k} classes, cost matrix {costs.k}")
    if all(X[:, j].min() == X[:, j].max() for j in range(X.shape[1])):
        raise ValueError("every feature is constant; nothing to split on")

    epsilon = cfg.epsilon if cfg.epsilon is not None else 1.0 / (2.0 * n * costs.k)
    _, _, c_star, _ = dataset_terms(costs, data.labels)
    c_star_bar = float(c_star.mean() / 2.0)
    floor, certificate = loss_floor(costs, data.labels)

    weights = init_weights(costs, data)
    h = np.zeros((costs.k, n))  # class-major scores
    a0 = np.zeros(costs.k)
    if cfg.fit_a0:
        a0 = fit_constant(weights, epsilon)
        h += a0[:, None]

    def current_loss() -> float:
        # whole-array sums of C-ordered (N, K) copies: summed in the buffer's
        # class-major order, the mass would differ in the last bits
        mass = (np.ascontiguousarray(weights[:costs.k].T).sum()
                + np.ascontiguousarray(weights[costs.k:].T).sum()) / (2.0 * n)
        return float(floor + mass - c_star_bar)

    grid = build_grid(X, cfg.n_tau)
    trace = TrainTrace(floor=floor, certificate=certificate, c_star_bar=c_star_bar,
                       loss_initial=current_loss())
    model = StrongClassifier(k=costs.k, d=X.shape[1], a0=a0, rounds=[],
                             fingerprint=_fingerprint(cfg, epsilon))

    if cfg.early_stop_on_certificate and trace.loss_initial < certificate:
        trace.stopped = "certificate"
        return model, trace

    labels0 = data.labels - 1
    cost_rows = costs.entries.T.take(labels0, axis=1)  # class-major (K, N)
    refine = not costs.equal_off_diagonal()
    for t in range(1, cfg.rounds + 1):
        phase = "risk" if refine and t > WARM_ROUNDS else "exp"
        risk_after = float("nan")
        if phase == "risk":
            learner, outputs, vector, risk_after = risk_round(data, h, cost_rows, grid, epsilon,
                                                              cfg.tree_depth)
            if not np.any(vector):
                trace.stopped = "stalled"
                break
            # a smoothed-risk round's vector is not the surrogate's optimum,
            # so it claims no edge
            gamma = phi = float("nan")
        else:
            learner, vector, _, outputs, scores = fit_learner(data, weights, grid, epsilon,
                                                              cfg.tree_depth)
            gamma, phi = edge(scores, c_star_bar, floor, certificate)
        model.rounds.append((learner, vector))
        h += vector[:, None] * outputs
        update_weights(weights, outputs, vector, round_index=t)

        loss = current_loss()
        preds = np.argmax(h, axis=0)
        root = learner.nodes[0]
        trace.rounds.append(RoundRecord(
            index=t, loss=loss, excess=loss - floor, gamma=gamma, phi=phi,
            depth=learner.depth, feature=root.feature, threshold=root.threshold,
            train_error=float(np.mean(preds != labels0)),
            train_risk=float(np.mean(costs.entries[labels0, preds])),
            phase=phase, smoothed_risk=risk_after,
        ))
        if loss - floor <= FLOOR_STOP:
            trace.stopped = "floor"
            break
        if cfg.early_stop_on_certificate and loss < certificate:
            trace.stopped = "certificate"
            break

    return model, trace


def predict_all(model: StrongClassifier, features: np.ndarray) -> np.ndarray:
    """Minimum-risk class estimates, 1-based, one per row: argmax score, ties to the lowest index."""
    return np.argmax(model.scores(features), axis=1) + 1
