"""Binary weak learners: stumps, complete shallow trees, and the split search.

A weak learner outputs +-1; its per-class contribution to the strong model is
a free K-vector fitted in closed form from split scores.  The search over
(feature, threshold) bins samples into threshold buckets once per feature and
reads every candidate split off prefix sums, so a full scan costs
O(d * (N + n_tau) * K) instead of O(d * n_tau * N * K).  Growing a tree
layer searches all of its leaves at once: one histogram per feature over the
index `slot * (m + 1) + bin`.  During training the stump test is read off
the bins, `bin > i` for the grid's i-th threshold: a searched stump's
outputs, and a grown layer's, whose kept leaves repeat their parent's side.
In scoring, `Stump.plus_side` holds the same test on the features.

The round's weights are one C-contiguous class-major (2K, N) array (see
`class_major`): row k holds class k's positive weights, row K + k its
negative weights, so each is one contiguous row; trainings stepped together
stack theirs, (B, 2K, N), and `search_stumps` searches them all at once.
Every per-class sum over samples (histogram buckets, the two sides of a
split, a layer's cuts) is taken by `cut_sums`: one `np.bincount` over all
rows, which adds each group in sample order exactly as a reduction over the
samples of an (N, K) array does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .io import Dataset


@dataclass(frozen=True)
class Stump:
    """Axis-aligned threshold test: polarity * sign(x[feature] - threshold), sign(0) = -1.

    Checked when built: the feature is >= 0, the threshold finite and the
    polarity +-1, the node rules of the model format.  A model checks the
    feature against its d.
    """

    feature: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.feature < 0:
            raise ValueError(f"node feature {self.feature} out of range")
        if not math.isfinite(self.threshold):
            raise ValueError("non-finite node threshold")
        if self.polarity not in (1, -1):
            raise ValueError(f"node polarity must be +-1, got {self.polarity}")

    def plus_side(self, features: np.ndarray) -> np.ndarray:
        """Where the stump outputs +1: x[feature] > threshold, inverted for polarity -1."""
        side = features[:, self.feature] > self.threshold
        return side if self.polarity > 0 else ~side


# Deepest tree that `Tree.plus_side` evaluates by selection rather than by
# routing.  Per round of a class-major scoring walk (K=5, d=20, 2-vCPU Xeon),
# selection is faster at depths 1-4 for 64, 1k and 10k rows, faster at depth
# 5 for 1k and 10k rows only, and slower from depth 6 (10k rows, depth 8:
# 6.6 ms against 1.9 ms).
SELECT_MAX_DEPTH = 5


@dataclass(frozen=True)
class Tree:
    """Complete binary tree of stumps in level order; depth D means 2^D - 1 nodes.

    A sample is routed by each stump's +-1 output (-1 left, +1 right); the
    output of the last stump on the path is the tree's output.
    """

    depth: int
    nodes: tuple[Stump, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.depth < 1:
            raise ValueError("tree depth must be >= 1")
        if len(self.nodes) != 2 ** self.depth - 1:
            raise ValueError(f"depth {self.depth} tree needs {2 ** self.depth - 1} nodes, "
                             f"got {len(self.nodes)}")

    @classmethod
    def from_stump(cls, stump: Stump) -> "Tree":
        return cls(depth=1, nodes=(stump,))

    def route(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate and also report which leaf slot (0..2^D - 1) each sample reaches."""
        n = features.shape[0]
        feat = np.array([s.feature for s in self.nodes], dtype=np.int64)
        thr = np.array([s.threshold for s in self.nodes], dtype=np.float64)
        pol = np.array([s.polarity for s in self.nodes], dtype=np.int64)
        node = np.zeros(n, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        rows = np.arange(n)
        for _ in range(self.depth):
            vals = features[rows, feat[node]]
            out = pol[node] * np.where(vals > thr[node], 1, -1)
            node = 2 * node + 1 + (out > 0)
        return out, node - (2 ** self.depth - 1)

    def plus_side(self, features: np.ndarray) -> np.ndarray:
        """Where the tree outputs +1.

        Up to SELECT_MAX_DEPTH, every node is evaluated on every sample and
        each sample selects its path's result: 2^D - 1 column comparisons,
        which beat `route`'s D row gathers there.  Deeper trees are routed.
        """
        if self.depth > SELECT_MAX_DEPTH:
            return self.route(features)[0] > 0
        return self._select(features, 0)

    def _select(self, features: np.ndarray, i: int) -> np.ndarray:
        # a node's +1 side takes its right subtree; a last-level node's side
        # is the output, as in `route`
        side = self.nodes[i].plus_side(features)
        if 2 * i + 1 >= len(self.nodes):
            return side
        return np.where(side, self._select(features, 2 * i + 2),
                        self._select(features, 2 * i + 1))

    def evaluate(self, features: np.ndarray) -> np.ndarray:
        return np.where(self.plus_side(features), 1, -1)


@dataclass
class ThresholdGrid:
    """Per-feature candidate thresholds; constant features carry a single degenerate cut.

    A grid belongs to the feature matrix it was built from: `buckets[j]`
    holds, per sample, the number of feature j's thresholds strictly below
    its value, so the split searches bin samples once per training.
    """

    thresholds: list[np.ndarray]
    buckets: list[np.ndarray]


@dataclass
class SplitScores:
    """Aggregated class weights on the agree/disagree sides of a candidate learner."""

    s_plus: np.ndarray
    s_minus: np.ndarray


class LearnerFit(NamedTuple):
    """A split search's pick: the learner, its fitted vector and unsmoothed
    criterion, and its +-1 outputs and split scores on the training data.

    `search_stumps` returns the picks of a stack of trainings in one: a list
    of learners and each array field stacked along a leading axis.
    """

    learner: Stump | Tree
    vector: np.ndarray
    criterion: float
    outputs: np.ndarray
    scores: SplitScores

    def pick(self, b: int) -> "LearnerFit":
        """Training b's fit out of a stacked one."""
        return LearnerFit(self.learner[b], self.vector[b], float(self.criterion[b]),
                          self.outputs[b], SplitScores(self.scores.s_plus[b], self.scores.s_minus[b]))


def check_features_shape(shape: tuple[int, ...]) -> None:
    """The rule on a feature matrix's shape: (N, d), neither size below 1."""
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError("features must be a non-empty (N, d) array")


def build_grid(features: np.ndarray, n_tau: int) -> ThresholdGrid:
    """Evenly spaced interior thresholds per feature: min + (i/(n_tau+1))(max-min), i=1..n_tau.

    Where max - min overflows, they are min + (i/(n_tau+1))max - (i/(n_tau+1))min:
    finite, increasing and interior.
    """
    if n_tau < 1:
        raise ValueError("n_tau must be >= 1")
    features = np.asarray(features, dtype=np.float64)
    check_features_shape(features.shape)
    ticks = np.arange(1, n_tau + 1, dtype=np.float64) / (n_tau + 1)
    thresholds, buckets = [], []
    for j in range(features.shape[1]):
        # one contiguous copy of the column for its min, max and binning: at
        # 10k x 20 (2-vCPU Xeon), 2.0 ms in all against 2.8 ms reading the
        # strided column and 3.1 ms with `features.min(axis=0)` and `.max(axis=0)`
        values = np.ascontiguousarray(features[:, j])
        lo, hi = float(values.min()), float(values.max())
        thr = np.array([lo])
        if lo != hi:  # a span that overflows is not formed; each of its terms is finite
            thr = lo + ticks * (hi - lo) if math.isfinite(hi - lo) else lo + ticks * hi - ticks * lo
        thresholds.append(thr)
        buckets.append(_bucketize(values, thr, lo, hi))
    return ThresholdGrid(thresholds=thresholds, buckets=buckets)


def class_major(w_plus: np.ndarray, w_minus: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The C-contiguous (2K, N) weight array of (N, K) positive and negative weights.

    `out`, if given, is the C-contiguous (2K, N) float64 array to fill.
    """
    n, k = np.shape(w_plus)
    # into a C-ordered buffer: of transposed inputs, concatenate makes an F-ordered one
    return np.concatenate((w_plus.T, w_minus.T), out=np.empty((2 * k, n)) if out is None else out)


# Longest row of weights that `cut_sums` sums together with the other rows in
# one bincount; longer rows take one bincount each.  Building the shared index
# costs about a nanosecond a weight, which pays for the saved calls only on
# short rows (one bincount over 8 rows of 1000 weights beat 8 calls, 21 against
# 27 us; over 10 rows of 10k it lost, 184 against 156 us), and the index is
# an intp per weight: 800 KB for a 10k x 5 training.
ONE_CALL_MAX_SAMPLES = 2048


def cut_sums(group: np.ndarray, rows: np.ndarray, groups: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """(..., groups) sums of weight rows (..., N) by a sample -> group index.

    `group` is one (N,) index for every row, or one per stack of rows,
    (B, 1, N) against (B, R, N) rows, or one per row.  Rows of up to
    ONE_CALL_MAX_SAMPLES samples are summed by one `np.bincount` over the
    index `row * groups + group` of all rows (`out`, if given, is an intp
    buffer of `rows`' shape for it); longer rows by one `np.bincount` each.
    Either way each group's sum adds its samples in sample order, as a
    reduction over axis 0 of an (N, C) array does, so the sums are bit-equal
    to masking and summing that array.
    """
    lead, n = rows.shape[:-1], rows.shape[-1]
    count = rows.size // n
    if n > ONE_CALL_MAX_SAMPLES:
        # cast once; bincount would cast a bool index on every call
        by_group = np.asarray(group, dtype=np.intp).reshape(-1, n)
        per_group = count // by_group.shape[0]
        sums = np.empty((count, groups))
        for c, row in enumerate(rows.reshape(count, n)):
            sums[c] = np.bincount(by_group[c // per_group], weights=row, minlength=groups)
        return sums.reshape(lead + (groups,))
    offsets = np.arange(0, count * groups, groups).reshape(lead + (1,))
    index = np.add(group, offsets, out=out)
    sums = np.bincount(index.reshape(-1), weights=rows.reshape(-1), minlength=count * groups)
    return sums.reshape(lead + (groups,))


def accumulate_split(outputs: np.ndarray, weights: np.ndarray) -> SplitScores:
    """Split scores of a candidate learner from its +-1 outputs.

    Samples the learner sends to +1 contribute w_plus to s_plus and w_minus
    to s_minus; samples sent to -1 contribute the swapped pair.  Normalized
    by 1/(2N).  Takes one learner's (N,) outputs and (2K, N) weights, or a
    stack of them, (B, N) and (B, 2K, N), for (B, K) scores.
    """
    k = weights.shape[-2] // 2
    n = outputs.shape[-1]
    # column 0: the -1 side, 1: the +1 side
    sides = cut_sums((outputs > 0)[..., None, :], weights, 2)
    s_plus = (sides[..., :k, 1] + sides[..., k:, 0]) / (2.0 * n)
    s_minus = (sides[..., k:, 1] + sides[..., :k, 0]) / (2.0 * n)
    return SplitScores(s_plus=s_plus, s_minus=s_minus)


def optimal_vector(scores: SplitScores, epsilon: float) -> tuple[np.ndarray, float]:
    """Closed-form output vector for fixed split scores, plus the selection criterion.

    The vector is smoothed: a_k = (ln(s_minus_k + eps) - ln(s_plus_k + eps)) / 2.
    The criterion 2 <sqrt(s_plus * s_minus), 1> is reported unsmoothed; adding
    the problem's loss floor and subtracting the mean per-sample balance
    constant turns it into the surrogate loss this learner would reach with
    the exact (unsmoothed) vector.  Scores stacked (B, K) give (B, K) vectors
    and (B,) criteria.
    """
    sp = scores.s_plus + epsilon
    sm = scores.s_minus + epsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 0.5 * (np.log(sm) - np.log(sp))
    a = np.where(np.isnan(a), 0.0, a)  # only hits 0/0 when epsilon = 0
    criterion = 2.0 * np.add.reduce(np.sqrt(scores.s_plus * scores.s_minus), axis=-1)
    return a, (criterion if criterion.ndim else float(criterion))


def split_value(scores: SplitScores, vector: np.ndarray) -> float:
    """Loss (above floor, before the balance-constant correction) achieved by `vector`."""
    return float(class_sum(scores.s_plus, np.exp(vector))
                 + class_sum(scores.s_minus, np.exp(-vector)))


def class_sum(rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """rows[0] * coef[0] + ... + rows[K-1] * coef[K-1], added in class order.

    Each term broadcasts as the operands do.  Side costs, split values and
    the plug-in's expected costs are summed here, not by a matrix product,
    whose order depends on the BLAS kernel: a tree's leaves, the refit's
    keep-the-old-vector rule and the plug-in's decisions break ties on them.
    """
    total = rows[0] * coef[0]
    for c in range(1, len(coef)):
        total += rows[c] * coef[c]
    return total


def _bucketize(values: np.ndarray, thresholds: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`np.searchsorted(thresholds, values, side="left")` for a feature's grid.

    A value's bucket is the number of thresholds strictly below it, so a
    sample sits on the +1 side of threshold i exactly when i < bucket (x > tau
    strict, ties route to -1).  The thresholds are `lo + (i/(m+1))(hi-lo)`,
    so the bucket is guessed as (x - lo) / step, then stepped down where the
    threshold below is >= x and up where the one above is < x until neither
    holds: the exact answer, whatever the guess, as the thresholds are sorted.
    With a step above 2^-46 of the larger bound (64 ulps), rounding moves the
    guess by a small part of a step, so one correction settles it.  Other
    spans (constant, overflowing, a few ulps or subnormal-wide) take
    searchsorted.
    """
    step = (hi - lo) / (len(thresholds) + 1)
    # the 2^-960 floor keeps the step far above the subnormals, whose ulps are absolute
    if not (math.isfinite(step) and step * 2.0 ** 46 > max(abs(lo), abs(hi), 2.0 ** -960)):
        return np.searchsorted(thresholds, values, side="left")
    guess = ((values - lo) / step).astype(np.intp)
    np.minimum(guess, len(thresholds), out=guess)
    # bounds[g] and bounds[g + 1] are the thresholds just below and above bucket g
    bounds = np.concatenate(([-np.inf], thresholds, [np.inf]))
    while True:
        down = bounds.take(guess) >= values
        up = bounds.take(guess + 1) < values
        if not (down.any() or up.any()):
            return guess
        guess -= down
        guess += up


# Candidates whose criterion sits within this fraction of the round's weight
# mass above the minimum count as tied and the earliest in scan order wins.
# Distinct splits can tie exactly in real arithmetic (say, a positive and a
# negative sample of equal weight swapping sides); prefix sums then differ
# only by summation noise, and a bitwise argmin would break such ties by
# noise instead of by scan order.
SELECTION_SLACK = 1e-9


def first_within_slack(values: np.ndarray, limit: float) -> int:
    """Index of the first entry <= limit, assuming one exists."""
    return int(np.nonzero(values <= limit)[0][0])


def stump_search(data: "Dataset", weights: np.ndarray, grid: ThresholdGrid,
                 epsilon: float) -> LearnerFit:
    """Best root stump over the full grid with polarity fixed to +1.

    Orientation is absorbed by the output vector, so only (feature, threshold)
    is searched.  Ties break to the lowest feature index, then the lowest
    threshold, with the SELECTION_SLACK tolerance deciding what counts as a
    tie.  The grid must have been built from `data.features`.  Returns the
    stump with its smoothed vector, unsmoothed criterion, outputs and split
    scores.
    """
    return search_stumps(weights[None], grid, epsilon).pick(0)


def search_stumps(weights: np.ndarray, grid: ThresholdGrid, epsilon: float) -> LearnerFit:
    """`stump_search` for each of a stack of C-contiguous (2K, N) weight arrays, (B, 2K, N).

    Each feature's histogram for all B * 2K rows comes from one `cut_sums`
    call; the selection runs per training, each on its own slack.  Every
    reduction keeps its length, order and layout per training, so training
    b's pick is bit-equal to `stump_search` on weights[b].  Returns a stacked
    LearnerFit (see `LearnerFit.pick`).
    """
    b, _, n = weights.shape
    norm = 1.0 / (2.0 * n)
    mass = np.add.reduce(weights.reshape(b, -1), axis=1) * norm  # sets the tie slack only

    # every feature's histogram index, when `cut_sums` takes one
    index = np.empty(weights.shape, dtype=np.intp) if n <= ONE_CALL_MAX_SAMPLES else None
    crits = [_criteria(cut_sums(grid.buckets[j], weights, thr.shape[0] + 1, out=index), norm)
             for j, thr in enumerate(grid.thresholds)]
    del index

    # per training, the lowest criterion of any feature, a nan feature skipped
    best = np.array([np.minimum.reduce(crit, axis=1) for crit in crits])
    limit = np.fmin.reduce(best, axis=0, initial=np.inf) + SELECTION_SLACK * mass
    if np.isnan(limit).any():  # exactly when a training's mass, so one of its weights, is nan
        raise ValueError(f"training {int(np.isnan(limit).argmax())} has a nan weight")
    stumps = []
    plus = np.empty((b, n), dtype=bool)
    for t, j in enumerate((best <= limit).argmax(axis=0).tolist()):
        i = first_within_slack(crits[j][t], limit[t])
        stumps.append(Stump(feature=j, threshold=float(grid.thresholds[j][i]), polarity=1))
        np.greater(grid.buckets[j], i, out=plus[t])  # x > tau_i exactly when bin > i
    outputs = np.where(plus, 1, -1)
    scores = accumulate_split(outputs, weights)
    vector, criterion = optimal_vector(scores, epsilon)
    return LearnerFit(stumps, vector, criterion, outputs, scores)


def _criteria(hist: np.ndarray, norm: float) -> np.ndarray:
    """(B, m) unsmoothed criteria of a feature's m cuts from its (B, 2K, m + 1) histograms.

    Works in place in `hist`: at a grid's size the stacked histograms are the
    search's largest temporaries.
    """
    b, rows, bins = hist.shape
    k, m = rows // 2, bins - 1
    # suffix sums, not total-minus-prefix: a side with no true mass must score
    # an exact zero or sqrt amplifies the cancellation residue past the tie slack
    above = np.add.accumulate(hist[..., ::-1], axis=2)[..., ::-1][..., 1:]
    below = np.add.accumulate(hist, axis=2, out=hist)[..., :m]  # mass on the -1 side of each cut
    s_plus = np.add(above[:, :k], below[:, k:], out=above[:, :k])
    s_plus *= norm
    s_minus = np.add(above[:, k:], below[:, :k], out=below[:, :k])
    s_minus *= norm
    # the class sum runs over the rows of a C-ordered (m, K) array: the order
    # of a sum over classes depends on the layout from K = 8 on
    prod = np.multiply(s_plus.transpose(0, 2, 1), s_minus.transpose(0, 2, 1),
                       out=np.empty((b, m, k)))
    return 2.0 * np.add.reduce(np.sqrt(prod, out=prod), axis=2)


def grow_layer(tree: Tree, vector: np.ndarray, data: "Dataset", weights: np.ndarray,
               grid: ThresholdGrid, epsilon: float) -> LearnerFit:
    """Deepen a tree by one level without ever increasing the training loss.

    Each leaf slot gets a stump initialized to its parent's parameters (a
    functional no-op), then is re-optimized over the full grid in both
    polarities while the output vector stays fixed: it minimizes the cost u
    of its samples sent to +1 plus the cost v of those sent to -1.  A leaf
    keeps its initialization unless some candidate strictly improves that
    objective; within a feature the first minimum in (threshold, +1 before
    -1) order wins, across features the lowest feature.  All leaves are
    searched in one pass per feature, over the histogram index
    `slot * (m + 1) + bin`.  Finally the vector is refitted to the deeper
    tree, keeping the old vector if smoothing would make the refit worse.
    Returns the grown tree with its vector, criterion, outputs and split
    scores; the outputs are read off the bins, as `stump_search`'s are.
    """
    u, v = _side_costs(weights, vector)
    _, slots = tree.route(data.features)
    n_slots = 2 ** tree.depth
    parents = tree.nodes[2 ** (tree.depth - 1) - 1:]
    leaf = np.arange(n_slots)
    # per slot, its own samples summed pairwise; a bincount would add them in
    # another order
    tot_u, tot_v = np.array([(u[slots == s].sum(), v[slots == s].sum()) for s in leaf]).T
    # the parent's cut: every sample of slot s took the parent's side s % 2,
    # so off the grid it costs the slot's whole u (odd) or v (even); on the
    # grid, its entry in the paired objectives below
    init_obj = np.where(leaf % 2 == 1, tot_u, tot_v)
    init_at = []  # (slot, feature, column in `paired`) of each cut on the grid
    for s in leaf:
        init = parents[s // 2]
        thr = grid.thresholds[init.feature]
        pos = int(np.searchsorted(thr, init.threshold))
        if pos < thr.shape[0] and thr[pos] == init.threshold:
            init_at.append((s, init.feature, 2 * pos + (init.polarity < 0)))

    uv = np.stack((u, v))
    best_obj = np.full(n_slots, np.inf)
    best_j = np.zeros(n_slots, dtype=np.intp)
    best_i = np.zeros(n_slots, dtype=np.intp)
    for j, thr in enumerate(grid.thresholds):
        m = thr.shape[0]
        hist = cut_sums(slots * (m + 1) + grid.buckets[j], uv, n_slots * (m + 1))
        below_u, below_v = np.cumsum(hist.reshape(2, n_slots, m + 1), axis=2)[:, :, :m]
        # candidate order: threshold ascending, +1 polarity before -1
        paired = np.empty((n_slots, 2 * m))
        paired[:, 0::2] = (tot_u[:, None] - below_u) + below_v
        paired[:, 1::2] = below_u + (tot_v[:, None] - below_v)
        i = np.argmin(paired, axis=1)
        obj = paired[leaf, i]
        better = obj < best_obj
        best_obj[better] = obj[better]
        best_j[better] = j
        best_i[better] = i[better]
        for s, feature, col in init_at:
            if feature == j:
                init_obj[s] = paired[s, col]

    # a slot that found no candidate (every objective nan) keeps its parent
    improved = (best_obj < np.inf) & ~(best_obj >= init_obj)
    new_nodes = [Stump(feature=int(best_j[s]),
                       threshold=float(grid.thresholds[best_j[s]][best_i[s] // 2]),
                       polarity=1 - 2 * int(best_i[s] % 2))
                 if improved[s] else parents[s // 2] for s in leaf]

    # the grown tree's outputs, off the bins: a kept leaf repeats its parent's
    # side, s % 2; a re-searched one outputs +1 where bin > i, inverted for -1
    plus = slots % 2 == 1
    for s in np.flatnonzero(improved):
        side = (grid.buckets[best_j[s]] > best_i[s] // 2) != (best_i[s] % 2 == 1)
        np.copyto(plus, side, where=slots == s)
    outputs = np.where(plus, 1, -1)
    grown = Tree(depth=tree.depth + 1, nodes=tree.nodes + tuple(new_nodes))
    scores = accumulate_split(outputs, weights)
    refit, criterion = optimal_vector(scores, epsilon)
    if split_value(scores, refit) > split_value(scores, vector):
        refit = vector  # smoothing moved the refit past the old vector; keep monotone
    return LearnerFit(grown, refit, criterion, outputs, scores)


def _side_costs(weights: np.ndarray, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the cost u of sending it to +1 under a fixed vector, and v of sending it to -1.

    Each is a sum over the positive weight rows plus one over the negative
    rows, each in class order (`class_sum`): the leaf search breaks ties by
    plain argmin.
    """
    k = weights.shape[0] // 2
    exp_a = np.exp(vector)
    exp_na = np.exp(-vector)
    u = class_sum(weights[:k], exp_a)
    u += class_sum(weights[k:], exp_na)
    v = class_sum(weights[:k], exp_na)
    v += class_sum(weights[k:], exp_a)
    return u, v
