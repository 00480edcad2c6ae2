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

Models trained on one dataset with different cost matrices share the data,
the threshold grid and the round count, so `train_many` steps them in
lockstep: their weights are one (B, 2K, N) stack and their scores one
(B, K, N) stack, and each round makes one split search, one line search and
one pass of bookkeeping for all of them, every reduction keeping its length,
order and layout per training so that each model is bit-equal to training it
alone.  `train` is `train_many` of one matrix.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .costs import CostMatrix, dataset_terms, loss_floor
from .loss import smoothed_risk
from .weak import (Tree, accumulate_split, build_grid, class_major, grow_layer, optimal_vector,
                   search_stumps)

if TYPE_CHECKING:
    from .io import Dataset
    from .weak import SplitScores

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
_RATIO = float((np.sqrt(5.0) - 1.0) / 2.0)


# Rounds per block of `scores`' block path: BLOCK_ELEMS // (K * N), so a block's
# (b, N, K) steps hold about BLOCK_ELEMS doubles (512 KB).  At 64 rows a block
# holds hundreds of rounds, and the path makes a few NumPy calls per block
# instead of per round.  Of 16k to 128k, 64k was the fastest or within 3% of
# it at 64, 500 and 2000 rows (100 stumps at K=4, d=2; 300 at K=5, d=20;
# 2-vCPU Xeon); 16k was 11-70% slower, 32k up to 15% slower.
BLOCK_ELEMS = 1 << 16
# Fewest rounds a block must hold; with fewer (large N, or a short model)
# `scores` walks one round at a time.  Measured with the row gather (predict_all,
# in process, block path over per-round path): at K=5 (300 stumps) 0.69 at
# 1000 rows, 0.71-0.91 at 1500-2500, 1.5-1.6 at 2800-3000, 1.8 at 4000-6000
# and 2.4 at 10k; at K=4 (100 and 300 stumps) 0.47 at 1000, 0.57-0.76 at
# 2000-2730, 1.1-1.4 at 3000-6000 and 1.9 at 10k.  The crossover sits near
# 2600 rows, where the per-round multiply gets faster per element, so 8
# rounds (1638 rows at K=5, 2048 at K=4) leaves a band the block path would
# win.  A lower bound would reach it at K=4 and K=5 but reach further at
# fewer classes, past their crossover: the block path was 1.7x slower at
# 3000-3640 rows at K=3, and 1.04-1.46x slower at 1500-5400 rows at K=2.
# So it stays 8.
BLOCK_MIN_ROUNDS = 8

_SIGNS = np.array([-1.0, 1.0])  # a tree's output, indexed by its +1 side as 0 or 1


class NumericOverflowError(RuntimeError):
    """A weight left the representable range; training cannot continue."""

    def __init__(self, round_index):
        self.round_index = round_index
        super().__init__(f"weight overflow (> {OVERFLOW_LIMIT:g}) in round {round_index}")


class _Pack(NamedTuple):
    """The block path's arrays, read from a model's (tree, vector) pairs."""

    feature: np.ndarray  # (T,) each root's feature
    threshold: np.ndarray  # (T, 1) each root's threshold
    offset: np.ndarray  # (T, 1) 2t, round t's first row of `table`
    # (2T, K) rows 2t, 2t+1: round t's vector times -1.0 and +1.0, a stump's
    # polarity folded in
    table: np.ndarray
    deep: list[int]  # rounds whose tree is deeper than a stump, in order


@dataclass(frozen=True, eq=False)
class StrongClassifier:
    """Additive model: scores(x) = a0 + sum_t f_t(x) * a_t, class = argmax score.

    `==` is identity: compare two models by their text (`io.model_to_text`).

    A model is immutable, and a changed model comes from `dataclasses.replace`;
    it holds `a0` and the round vectors it was given, uncopied, so do not
    write into them.
    """

    k: int
    d: int
    a0: np.ndarray
    rounds: tuple[tuple[Tree, np.ndarray], ...]
    fingerprint: str = ""

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"a model needs k >= 2 classes, got {self.k}")
        if np.shape(self.a0) != (self.k,):
            raise ValueError(f"a0 has shape {np.shape(self.a0)}, expected ({self.k},)")
        object.__setattr__(self, "rounds", tuple(self.rounds))
        for t, (_, vector) in enumerate(self.rounds):
            if np.shape(vector) != (self.k,):
                raise ValueError(f"rounds[{t}] has a vector of shape {np.shape(vector)}, "
                                 f"expected ({self.k},)")

    @cached_property
    def _pack(self) -> _Pack:
        """The block path's arrays, packed on the first block-path call."""
        rounds = self.rounds
        roots = [tree.nodes[0] for tree, _ in rounds]
        feature = np.array([root.feature for root in roots], dtype=np.intp)
        threshold = np.array([root.threshold for root in roots], dtype=np.float64)[:, None]
        # a new array, so the polarity flip below leaves the model's vectors alone
        vectors = np.concatenate([vector for _, vector in rounds],
                                 dtype=np.float64).reshape(len(rounds), self.k)
        vectors[[t for t, (tree, _) in enumerate(rounds)
                 if tree.depth == 1 and roots[t].polarity < 0]] *= -1.0
        # the products the multiply by +-1 gives, signed zeros and nan bits
        # included (np.negative would flip a nan's sign bit)
        table = (vectors[:, None, :] * _SIGNS[:, None]).reshape(2 * len(rounds), self.k)
        offset = np.arange(0, 2 * len(rounds), 2, dtype=np.int64)[:, None]
        deep = [t for t, (tree, _) in enumerate(rounds) if tree.depth > 1]
        return _Pack(feature, threshold, offset, table, deep)

    def _rounds(self, by_column: np.ndarray) -> Iterator[np.ndarray]:
        """Class-major (K, N) running scores: a0 first, then after each round.

        Yields one buffer, updated in place.  Each round adds a * out per
        sample, out in {-1.0, +1.0}: exact, with the signed zeros of +a and
        -a, and free of the per-element branch of a select.  Rounds are
        added in order, one elementwise add each: a reordered sum (a matmul
        over rounds, say) would change the low bits.  Each step is one
        (K, N) multiply of the round's vector by its +-1 outputs.
        """
        h = np.repeat(self.a0[:, None], by_column.shape[0], axis=1)
        yield h
        step = np.empty_like(h)
        for tree, vector in self.rounds:
            # a bool array indexes `_SIGNS` as 0/1; positional out arguments,
            # since at small N the cost is call overhead
            np.multiply(vector[:, None], _SIGNS.take(tree.plus_side(by_column)), step)
            np.add(h, step, h)
            yield h

    def _block_sums(self, by_column: np.ndarray, size: int) -> np.ndarray:
        """The (N, K) scores, summed a block of up to `size` rounds at a time.

        The blocks are as few as that size needs, sized evenly (up to one
        round).  Each is one gather-and-compare of the block's root stumps,
        then one gather of rows from `_pack`'s table, which holds each
        round's vector times -1.0 and times +1.0, indexed by 2t + side, into
        a sample-major (b, N, K) block.  A stump's polarity is folded into
        its vector, which is exact: (p*a)*s == a*(p*s) for p, s = +-1.  A
        deeper tree's row of sides comes from `Tree.plus_side`.  The pack is
        built on the first call and kept with the model, so a model scored
        again skips that walk over its trees; the buffers are per call.
        Each block's steps are added in one ordered reduction, which gives
        the bits of `_rounds`' adds.
        """
        n = by_column.shape[0]
        total = len(self.rounds)
        h = np.repeat(self.a0[None, :], n, axis=0)
        # as few blocks as that size needs, sized evenly, so that no buffer
        # holds rounds its block lacks
        blocks = -(-total // size)
        size = -(-total // blocks)
        feature, threshold, offset, table, deep = self._pack
        columns = by_column.T  # (d, N), C-contiguous
        values = np.empty((size, n))
        # the rows of `table` to take; it shares the memory of `values`, which
        # are spent once a block's sides are known
        index = values.view(np.int64)
        side = np.empty((size, n), dtype=bool)
        # row 0 holds the running sum, rows 1..b a block's steps
        steps = np.empty((size + 1, n, self.k))
        for start in range(0, total, size):
            stop = min(start + size, total)
            b = stop - start
            columns.take(feature[start:stop], 0, values[:b])
            np.greater(values[:b], threshold[start:stop], side[:b])
            for t in deep[bisect_left(deep, start):bisect_left(deep, stop)]:
                side[t - start] = self.rounds[t][0].plus_side(by_column)
            np.add(side[:b], offset[start:stop], index[:b])
            # every index is in range; "raise" would buffer the output
            table.take(index[:b], 0, steps[1:b + 1], mode="clip")
            # A reduction over the outer axis adds whole (N, K) rows in order,
            # ((h + s1) + s2) + ..., one elementwise add each: the bits of
            # `_rounds`' adds (NumPy would reduce a row of one score pairwise,
            # but K >= 2).  It starts from `initial`, and -0.0 + x == x for
            # every x, where NumPy's default +0.0 turns a -0.0 sum into +0.0.
            steps[0] = h
            np.add.reduce(steps[:b + 1], axis=0, out=h, initial=-0.0)
        return h

    def _by_column(self, features: np.ndarray) -> np.ndarray:
        """The (N, d) features as float64, checked, in a feature-major copy,
        so that each node reads one contiguous row."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.d:
            raise ValueError(f"expected (N, {self.d}) features, got {features.shape}")
        return np.ascontiguousarray(features.T).T

    def staged_scores(self, features: np.ndarray) -> Iterator[np.ndarray]:
        """(N, K) scores after each round, bit-identical to `scores` of each prefix.

        Each stage is a new C-contiguous array, as `scores` returns.
        """
        stages = self._rounds(self._by_column(features))
        next(stages)
        for h in stages:
            yield h.T.copy()  # a new C-ordered array; h is the walk's buffer, updated in place

    def scores(self, features: np.ndarray) -> np.ndarray:
        """(N, K) scores, C-contiguous: by `_block_sums` when a block of
        `BLOCK_ELEMS` holds at least `BLOCK_MIN_ROUNDS` rounds, else the last
        stage of `_rounds`."""
        by_column = self._by_column(features)
        size = min(len(self.rounds), BLOCK_ELEMS // max(1, self.k * by_column.shape[0]))
        if size >= BLOCK_MIN_ROUNDS:
            return self._block_sums(by_column, size)
        for h in self._rounds(by_column):
            pass
        return np.ascontiguousarray(h.T)


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """A training's settings, checked when built.  `==` is identity."""

    rounds: int
    tree_depth: int = 1
    n_tau: int = 200
    epsilon: float | None = None  # None -> 1 / (2 N K)
    fit_a0: bool = True
    early_stop_on_certificate: bool = True

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.tree_depth < 1:
            raise ValueError("tree_depth must be >= 1")
        if self.n_tau < 1:
            raise ValueError("n_tau must be >= 1")
        if self.epsilon is not None and not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and >= 0")


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
    loss_initial: float
    stopped: str = "rounds"
    rounds: list[RoundRecord] = field(default_factory=list)


def init_weights(costs: CostMatrix, data: "Dataset", out: np.ndarray | None = None) -> np.ndarray:
    """Class-major (2K, N) weights at the zero model: the raw (c_plus, c_minus) pairs.

    `out`, if given, is the C-contiguous (2K, N) buffer to fill, as in `class_major`.
    """
    c_plus, c_minus, _, _ = dataset_terms(costs, data.labels)
    return class_major(c_plus, c_minus, out=out)


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
    if _scale_weights(weights[None], (vector[:, None] * outputs)[None])[0]:
        raise NumericOverflowError(round_index)
    return weights


def _scale_weights(weights: np.ndarray, shift: np.ndarray) -> list[bool]:
    """`update_weights` on a stack: (B, 2K, N) weights times exp(+-shift), shift (B, K, N).

    Overwrites shift with exp(shift).  Returns, per training, whether a
    weight left the representable range.
    """
    k = shift.shape[1]
    with np.errstate(over="ignore"):
        np.exp(shift, out=shift)
        weights[:, :k] *= shift
        weights[:, k:] /= shift
    # a nan peak fails the comparison too
    peak = np.maximum.reduce(weights.reshape(weights.shape[0], -1), axis=1)
    return (~(peak <= OVERFLOW_LIMIT)).tolist()


def edge(scores: SplitScores, floor: np.ndarray,
         shrink: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Achieved weak-learner edges gamma and their bound-ready deflations phi, per training.

    gamma = <|s+ - s-|, 1> / (<s+ + s-, 1> - floor); phi = gamma * shrink
    deflates it by the certificate gap, shrink = 1 - floor / certificate, so
    that sqrt(1 - phi^2) contracts the loss excess per round while the loss
    sits above the certificate.  Takes (B, K) scores and (B,) constants.
    Not-applicable cases (zero denominators at the floor, or a shrink of nan
    for a certificate that is not positive) come back as nan.
    """
    denom = np.add.reduce(scores.s_plus + scores.s_minus, axis=-1) - floor
    gamma = np.divide(np.add.reduce(np.abs(scores.s_plus - scores.s_minus), axis=-1), denom,
                      out=np.full_like(denom, np.nan), where=denom > 0)
    return gamma, gamma * shrink


def _fingerprint(cfg: TrainConfig, epsilon: float) -> str:
    return (f"rounds={cfg.rounds} depth={cfg.tree_depth} ntau={cfg.n_tau} "
            f"epsilon={epsilon!r} a0={int(cfg.fit_a0)}")


def _surrogate_losses(weights: np.ndarray) -> np.ndarray:
    """The exponential surrogate of each training of a (B, 2K, N) weight stack: its mass / (2N)."""
    b, _, n = weights.shape
    return np.add.reduce(weights.reshape(b, -1), axis=1) / (2.0 * n)


def _training_errors(h: np.ndarray, cost_rows: np.ndarray, labels0: np.ndarray, rank: np.ndarray,
                     at_sample: np.ndarray) -> tuple[list, list]:
    """Each training's error rate and mean cost of argmax h on its training samples.

    The argmax over the classes of the (B, K, N) scores, ties to the lowest
    class, is taken as the first class that reaches the maximum: rank is the
    (K, 1) column K, K-1, .., 1 in the smallest unsigned type that holds K.
    `np.argmax` over a strided axis pays per (training, sample) pair; this is
    a few whole-array passes.  It equals argmax wherever no score is nan (a
    running training's scores are finite).  at_sample is the flat index of
    (training, class 0, sample) in the (B, K, N) cost rows.
    """
    _, k, n = h.shape
    hit = np.equal(h, np.maximum.reduce(h, axis=1, keepdims=True)).view(np.uint8)
    preds = k - np.maximum.reduce(hit * rank, axis=1).astype(np.intp)
    wrong = np.add.reduce(preds != labels0, axis=1, dtype=np.intp) / n
    costs_at = cost_rows.take(preds * n + at_sample, mode="clip")
    return wrong.tolist(), (np.add.reduce(costs_at, axis=1) / n).tolist()


def _pulls(h: np.ndarray, cost_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Smoothed-risk trainings' split-search weights, into out (B, 2K, N); returns their (B,) risks.

    A sample-class pair whose score should rise weighs on the down side, one
    whose score should fall on the up side; the search's vector then has the
    sign of the slope summed over each side, so it points downhill.
    """
    k = h.shape[1]
    before, q, expected = smoothed_risk(h, cost_rows, TEMPERATURE)
    slope = np.subtract(expected[:, None, :], cost_rows)
    np.multiply(q, slope, out=slope)
    np.maximum(np.negative(slope, out=q), 0.0, out=out[:, :k])
    np.maximum(slope, 0.0, out=out[:, k:])
    return before


def _line_search(h: np.ndarray, cost_rows: np.ndarray, before: np.ndarray,
                 direction: np.ndarray, outputs: np.ndarray) -> tuple[np.ndarray, list]:
    """Golden-section steps along each smoothed-risk training's direction, all at once.

    h and cost_rows are (B, K, N), before the (B,) risks at h, direction
    (B, K) and outputs (B, N).  Each training keeps its own bracket and takes
    its own branch, in Python floats: kept in (B,) arrays and stepped through
    np.where, the brackets cost about a third of a one-training risk
    evaluation per step.  Each step is one (B, K, N) risk evaluation at every
    training's probe.  Returns (B, K) vectors and the risks after them; a
    training that cannot lower its risk gets a zero vector and keeps its risk.
    """
    move, moved = np.empty_like(h), np.empty_like(h)
    rows = list(zip(move, moved))
    for (row, _), vector, signs in zip(rows, direction, outputs):
        np.multiply(vector[:, None], signs, out=row)

    def risk(steps):
        # one multiply per training: a (B, 1, 1) array broadcast over (B, K, N)
        # takes NumPy's slow path
        for (row, out), step in zip(rows, steps):
            np.multiply(row, step, out=out)
        np.add(moved, h, out=moved)
        return smoothed_risk(moved, cost_rows, TEMPERATURE, out=moved)[0].tolist()

    reach = np.maximum.reduce(np.abs(direction), axis=1).tolist()
    # [lo, hi, left, right, v_left, v_right] per training; a zero direction
    # gets a placeholder bracket, and comes back zero
    his = [1.0 / (TEMPERATURE * r) if r > 0 else 1.0 for r in reach]
    brackets = [[0.0, hi, hi - _RATIO * hi, _RATIO * hi] for hi in his]
    for bracket, v_left, v_right in zip(brackets, risk([b[2] for b in brackets]),
                                        risk([b[3] for b in brackets])):
        bracket += v_left, v_right
    for _ in range(GOLDEN_ITERS):
        # each training's new inner point, with its value left None
        for bracket in brackets:
            lo, hi, left, right, v_left, v_right = bracket
            if v_left < v_right:  # the minimum lies below `right`
                hi, right = right, left
                left = hi - _RATIO * (hi - lo)
                bracket[:] = lo, hi, left, right, None, v_left
            else:
                lo, left = left, right
                right = lo + _RATIO * (hi - lo)
                bracket[:] = lo, hi, left, right, v_right, None
        probes = [b[2] if b[4] is None else b[3] for b in brackets]
        for bracket, value in zip(brackets, risk(probes)):
            bracket[4 if bracket[4] is None else 5] = value

    vectors = np.zeros_like(direction)
    risks = before.tolist()
    for b, (_, _, left, right, v_left, v_right) in enumerate(brackets):
        step, after = (left, v_left) if v_left < v_right else (right, v_right)
        if reach[b] > 0 and after < risks[b]:
            vectors[b] = step * direction[b]
            risks[b] = after
    return vectors, risks


class _Lane:
    """One training of a lockstep run: its a0, rounds and trace so far and its constants.

    Sets up its weights, scores and cost rows in the stack's rows it is given.
    """

    def __init__(self, index: int, data: "Dataset", costs: CostMatrix, cfg: TrainConfig,
                 epsilon: float, flat: bool, weights: np.ndarray, h: np.ndarray,
                 cost_rows: np.ndarray):
        if data.k != costs.k:
            raise ValueError(f"dataset has {data.k} classes, cost matrix {costs.k}")
        if flat:
            raise ValueError("every feature is constant; nothing to split on")
        floor, certificate = loss_floor(costs, data.labels)
        self.index = index
        # (floor, shrink): see `edge`
        self.consts = (floor, 1.0 - floor / certificate if certificate > 0 else float("nan"))
        init_weights(costs, data, out=weights)
        cost_rows[:] = weights[:costs.k]  # c_plus, the class-major (K, N) cost rows
        self.a0 = np.zeros(costs.k)
        if cfg.fit_a0:
            self.a0 = fit_constant(weights, epsilon)
            h += self.a0[:, None]  # class-major scores, zero before
        self.refine = not costs.equal_off_diagonal()
        loss = float(_surrogate_losses(weights[None])[0])
        self.trace = TrainTrace(floor=floor, certificate=certificate, loss_initial=loss)
        self.rounds = []


def train(data: "Dataset", costs: CostMatrix, cfg: TrainConfig) -> tuple[StrongClassifier, TrainTrace]:
    """Greedy stagewise training; returns the model and a per-round trace.

    Rounds minimize the exponential surrogate; when some row of the cost
    matrix charges its mistakes unequally, rounds after WARM_ROUNDS minimize
    the smoothed risk instead: the split search runs on the risk's slopes (a
    sample-class pair whose score should rise weighs on the down side, one
    whose score should fall on the up side), and a golden-section line
    search scales that learner's vector within a trust region, no score
    moving by more than 1/TEMPERATURE in a round.  Without that bound the
    smoothed risk often keeps falling as the step grows, because scaling
    every score up turns it into the training risk of argmax h; one such
    step saturates the softmax and leaves no slope for later rounds.  The
    trace's loss is the exponential surrogate throughout, so the certificate
    holds in either phase; it is nonincreasing over exponential rounds, and
    the smoothed risk is nonincreasing over smoothed-risk rounds.

    Stops at the round budget, when the loss drops below the certificate
    threshold (if enabled), when the loss excess above the floor falls under
    1e-12, or when a smoothed-risk round finds no step that lowers the risk
    ("stalled").  Deterministic for fixed inputs and config.
    """
    return train_many(data, [costs], cfg)[0]


def train_many(data: "Dataset", costs_list: list[CostMatrix],
               cfg: TrainConfig) -> list[tuple[StrongClassifier, TrainTrace]]:
    """`train` on one dataset for each cost matrix, stepped round by round in lockstep.

    Returns one (model, trace) per matrix, each bit-equal to what `train`
    alone gives.  The trainings' weights are one C-contiguous (B, 2K, N)
    array and their scores one (B, K, N) array, so a round makes one split
    search (`search_stumps`, on weights for exponential rounds and on the
    smoothed risk's slopes for the others), one line search and one pass of
    bookkeeping for all of them; layers beyond the root grow per training,
    with `grow_layer`.  A training that stops leaves the stack.  If
    trainings raise (at set-up, or on a weight overflow), the rest run to
    the end, and then the error of the lowest-index failing one is raised,
    as training them one at a time would.
    """
    X = data.features
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to train")
    flat = all(X[:, j].min() == X[:, j].max() for j in range(X.shape[1]))
    epsilon = cfg.epsilon if cfg.epsilon is not None else 1.0 / (2.0 * n * data.k)

    # the stack's rows in lane order: trainings with a smoothed-risk phase
    # last, so that those in it are the stack's tail
    order = sorted(range(len(costs_list)), key=lambda i: not costs_list[i].equal_off_diagonal())
    weights = np.empty((len(order), 2 * data.k, n))
    h = np.zeros((len(order), data.k, n))
    cost_rows = np.empty((len(order), data.k, n))
    built = [None] * len(costs_list)
    errors = {}
    lanes = []
    for row, index in enumerate(order):
        try:
            lane = _Lane(index, data, costs_list[index], cfg, epsilon, flat,
                         weights[row], h[row], cost_rows[row])
        except Exception as exc:  # noqa: BLE001 - raised for this training, after the rest
            errors[index] = exc
            continue
        built[index] = lane
        if cfg.early_stop_on_certificate and lane.trace.loss_initial < lane.trace.certificate:
            lane.trace.stopped = "certificate"
        else:
            lanes.append((row, lane))

    if lanes:
        rows = [row for row, _ in lanes]
        if len(rows) < len(order):
            weights, h, cost_rows = weights[rows], h[rows], cost_rows[rows]
        _run_lanes([lane for _, lane in lanes], weights, h, cost_rows, data, cfg, epsilon, errors)
    if errors:
        raise errors[min(errors)]
    fingerprint = _fingerprint(cfg, epsilon)
    return [(StrongClassifier(k=data.k, d=X.shape[1], a0=lane.a0, rounds=lane.rounds,
                              fingerprint=fingerprint), lane.trace) for lane in built]


def _run_lanes(lanes: list[_Lane], weights: np.ndarray, h: np.ndarray, cost_rows: np.ndarray,
               data: "Dataset", cfg: TrainConfig, epsilon: float, errors: dict) -> None:
    """The rounds of `train_many` on the lanes' stacked rows; a training that raises leaves its
    error in `errors`."""
    grid = build_grid(data.features, cfg.n_tau)
    labels0 = data.labels - 1
    k = data.k
    n = data.features.shape[0]
    consts = np.array([lane.consts for lane in lanes])  # (floor, shrink)
    # flat index of (training, class 0, sample) in the (B, K, N) cost rows
    at_sample = np.arange(len(lanes))[:, None] * (k * n) + np.arange(n)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]  # see `_training_errors`

    for t in range(1, cfg.rounds + 1):
        count = len(lanes)
        split = count if t <= WARM_ROUNDS else sum(not lane.refine for lane in lanes)
        search = weights
        if split < count:
            search = np.empty_like(weights)
            search[:split] = weights[:split]
            before = _pulls(h[split:], cost_rows[split:], search[split:])
        fit = search_stumps(search, grid, epsilon)
        trees = [Tree.from_stump(stump) for stump in fit.learner]
        vectors, outputs, scores = fit.vector, fit.outputs, fit.scores
        if cfg.tree_depth > 1:
            # layers beyond the root grow per training, on what it searched
            for b in range(count):
                grown = fit.pick(b)
                for _ in range(cfg.tree_depth - 1):
                    grown = grow_layer(trees[b], grown.vector, data, search[b], grid, epsilon)
                    trees[b] = grown.learner
                vectors[b], outputs[b] = grown.vector, grown.outputs
                scores.s_plus[b], scores.s_minus[b] = grown.scores.s_plus, grown.scores.s_minus
        del search

        # a smoothed-risk round's vector is not the surrogate's optimum, so it
        # claims no edge
        gamma, phi = edge(scores, consts[:, 0], consts[:, 1])
        gamma[split:] = phi[split:] = np.nan
        gamma, phi = gamma.tolist(), phi.tolist()
        after, stalled = [np.nan] * count, [False] * count
        if split < count:
            vectors[split:], after[split:] = _line_search(
                h[split:], cost_rows[split:], before, vectors[split:], outputs[split:])
            stalled[split:] = (~np.any(vectors[split:], axis=1)).tolist()

        shift = vectors[:, :, None] * outputs[:, None, :]
        h += shift
        overflow = _scale_weights(weights, shift)
        del shift  # before the next round's search
        losses = _surrogate_losses(weights).tolist()
        wrong, risks = _training_errors(h, cost_rows, labels0, rank, at_sample)

        alive = [True] * count
        for b, lane in enumerate(lanes):
            trace, tree, loss = lane.trace, trees[b], losses[b]
            if stalled[b]:
                trace.stopped = "stalled"
            elif overflow[b]:
                errors[lane.index] = NumericOverflowError(t)
            else:
                lane.rounds.append((tree, vectors[b]))
                root = tree.nodes[0]
                trace.rounds.append(RoundRecord(
                    index=t, loss=loss, excess=loss - trace.floor, gamma=gamma[b], phi=phi[b],
                    depth=tree.depth, feature=root.feature, threshold=root.threshold,
                    train_error=wrong[b], train_risk=risks[b], phase="exp" if b < split else "risk",
                    smoothed_risk=after[b],
                ))
                if loss - trace.floor <= FLOOR_STOP:
                    trace.stopped = "floor"
                elif cfg.early_stop_on_certificate and loss < trace.certificate:
                    trace.stopped = "certificate"
                else:
                    continue
            alive[b] = False
        if not all(alive):
            lanes = [lane for lane, keep in zip(lanes, alive) if keep]
            if not lanes:
                return
            keep = np.array(alive)
            weights, h, cost_rows, consts = weights[keep], h[keep], cost_rows[keep], consts[keep]
            at_sample = at_sample[:len(lanes)]


def predict_all(model: StrongClassifier, features: np.ndarray) -> np.ndarray:
    """Minimum-risk class estimates, 1-based, one per row: argmax score, ties to the lowest index."""
    return np.argmax(model.scores(features), axis=1) + 1
