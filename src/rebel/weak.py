"""Binary weak learners: stumps, complete shallow trees, and the split search.

A weak learner outputs +-1; its per-class contribution to the strong model is
a free K-vector fitted in closed form from split scores.  The search over
(feature, threshold) bins samples into threshold buckets once per feature and
reads every candidate split off prefix sums, so a full scan costs
O(d * (N + n_tau) * K) instead of O(d * n_tau * N * K).

The round's weights live in one class-major (2K, N) buffer (`WeightState.w`),
so each class's weights are one contiguous row.  Every per-class sum over
samples (histogram buckets, the two sides of a split, a leaf's cuts) is taken
by `cut_sums`: one `np.bincount` per row, which adds in sample order exactly
as a reduction over the samples of an (N, K) array does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .io import Dataset


@dataclass(frozen=True)
class Stump:
    """Axis-aligned threshold test: polarity * sign(x[feature] - threshold), sign(0) = -1."""

    feature: int
    threshold: float
    polarity: int

    def evaluate(self, features: np.ndarray) -> np.ndarray:
        vals = features[:, self.feature]
        return self.polarity * np.where(vals > self.threshold, 1, -1)


# Deepest tree that `Tree.plus_side` evaluates by selection rather than by
# routing.  Per round of a class-major scoring walk (K=5, d=20, 2-vCPU Xeon),
# selection is faster at depths 1-4 for 64, 1k and 10k rows, faster at depth
# 5 for 1k and 10k rows only, and slower from depth 6 (10k rows, depth 8:
# 6.6 ms against 1.9 ms).
SELECT_MAX_DEPTH = 5


@dataclass
class Tree:
    """Complete binary tree of stumps in level order; depth D means 2^D - 1 nodes.

    A sample is routed by each stump's +-1 output (-1 left, +1 right); the
    output of the last stump on the path is the tree's output.
    """

    depth: int
    nodes: list[Stump]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("tree depth must be >= 1")
        if len(self.nodes) != 2 ** self.depth - 1:
            raise ValueError(f"depth {self.depth} tree needs {2 ** self.depth - 1} nodes, "
                             f"got {len(self.nodes)}")

    @classmethod
    def from_stump(cls, stump: Stump) -> "Tree":
        return cls(depth=1, nodes=[stump])

    def _node_arrays(self):
        feat = np.array([s.feature for s in self.nodes], dtype=np.int64)
        thr = np.array([s.threshold for s in self.nodes], dtype=np.float64)
        pol = np.array([s.polarity for s in self.nodes], dtype=np.int64)
        return feat, thr, pol

    def route(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate and also report which leaf slot (0..2^D - 1) each sample reaches."""
        n = features.shape[0]
        feat, thr, pol = self._node_arrays()
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
        stump = self.nodes[i]
        side = features[:, stump.feature] > stump.threshold
        if stump.polarity < 0:
            side = ~side
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
    n_tau: int
    buckets: list[np.ndarray]


class WeightState:
    """Per-sample positive/negative class weights in one class-major buffer.

    `w` is a C-contiguous (2K, N) array: row k holds class k's positive
    weights, row K + k its negative weights.  `w_plus` and `w_minus` are
    (N, K) views of it, so writes through them reach the buffer; the
    constructor copies its (N, K) arguments in.
    """

    def __init__(self, w_plus: np.ndarray, w_minus: np.ndarray):
        n, k = np.shape(w_plus)
        self.w = np.empty((2 * k, n))
        self.w_plus = w_plus
        self.w_minus = w_minus

    @classmethod
    def class_major(cls, w: np.ndarray) -> "WeightState":
        """Wrap a C-contiguous (2K, N) buffer without copying it."""
        state = cls.__new__(cls)
        state.w = w
        return state

    @property
    def k(self) -> int:
        return self.w.shape[0] // 2

    @property
    def w_plus(self) -> np.ndarray:
        return self.w[:self.k].T

    @w_plus.setter
    def w_plus(self, value: np.ndarray) -> None:
        self.w[:self.k] = np.asarray(value).T

    @property
    def w_minus(self) -> np.ndarray:
        return self.w[self.k:].T

    @w_minus.setter
    def w_minus(self, value: np.ndarray) -> None:
        self.w[self.k:] = np.asarray(value).T


@dataclass
class SplitScores:
    """Aggregated class weights on the agree/disagree sides of a candidate learner."""

    s_plus: np.ndarray
    s_minus: np.ndarray


class LearnerFit(NamedTuple):
    """A split search's pick: the learner, its fitted vector and unsmoothed
    criterion, and its +-1 outputs and split scores on the training data."""

    learner: Stump | Tree
    vector: np.ndarray
    criterion: float
    outputs: np.ndarray
    scores: SplitScores


def build_grid(features: np.ndarray, n_tau: int) -> ThresholdGrid:
    """Evenly spaced interior thresholds per feature: min + (i/(n_tau+1))(max-min), i=1..n_tau."""
    if n_tau < 1:
        raise ValueError("n_tau must be >= 1")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a non-empty (N, d) array")
    ticks = np.arange(1, n_tau + 1, dtype=np.float64) / (n_tau + 1)
    out = []
    for j in range(features.shape[1]):
        lo = float(features[:, j].min())
        hi = float(features[:, j].max())
        if lo == hi:
            out.append(np.array([lo]))
        else:
            out.append(lo + ticks * (hi - lo))
    buckets = [_bucketize(features[:, j], thr) for j, thr in enumerate(out)]
    return ThresholdGrid(thresholds=out, n_tau=n_tau, buckets=buckets)


def cut_sums(group: np.ndarray, rows: np.ndarray, groups: int) -> np.ndarray:
    """(C, groups) sums of C weight rows, each contiguous, by a sample -> group index.

    One `np.bincount` per row: each group's sum adds its samples in sample
    order, as a reduction over axis 0 of an (N, C) array does, so the sums
    are bit-equal to masking and summing that array.
    """
    out = np.empty((rows.shape[0], groups))
    for c, row in enumerate(rows):
        out[c] = np.bincount(group, weights=row, minlength=groups)
    return out


def accumulate_split(outputs: np.ndarray, weights: WeightState) -> SplitScores:
    """Split scores of a candidate learner from its +-1 outputs.

    Samples the learner sends to +1 contribute w_plus to s_plus and w_minus
    to s_minus; samples sent to -1 contribute the swapped pair.  Normalized
    by 1/(2N).
    """
    k = weights.k
    n = outputs.shape[0]
    # column 0: the -1 side, 1: the +1 side; the index is cast once, not per row
    sides = cut_sums((outputs > 0).astype(np.intp), weights.w, 2)
    s_plus = (sides[:k, 1] + sides[k:, 0]) / (2.0 * n)
    s_minus = (sides[k:, 1] + sides[:k, 0]) / (2.0 * n)
    return SplitScores(s_plus=s_plus, s_minus=s_minus)


def optimal_vector(scores: SplitScores, epsilon: float) -> tuple[np.ndarray, float]:
    """Closed-form output vector for fixed split scores, plus the selection criterion.

    The vector is smoothed: a_k = (ln(s_minus_k + eps) - ln(s_plus_k + eps)) / 2.
    The criterion 2 <sqrt(s_plus * s_minus), 1> is reported unsmoothed; adding
    the problem's loss floor and subtracting the mean per-sample balance
    constant turns it into the surrogate loss this learner would reach with
    the exact (unsmoothed) vector.
    """
    sp = scores.s_plus + epsilon
    sm = scores.s_minus + epsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        a = 0.5 * (np.log(sm) - np.log(sp))
    a = np.where(np.isnan(a), 0.0, a)  # only hits 0/0 when epsilon = 0
    criterion = float(2.0 * np.sum(np.sqrt(scores.s_plus * scores.s_minus)))
    return a, criterion


def split_value(scores: SplitScores, vector: np.ndarray) -> float:
    """Loss (above floor, before the balance-constant correction) achieved by `vector`."""
    return float(scores.s_plus @ np.exp(vector) + scores.s_minus @ np.exp(-vector))


def _bucketize(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # bucket = number of thresholds strictly below the value, so a sample sits
    # on the +1 side of threshold i exactly when i < bucket (x > tau strict,
    # ties route to -1)
    return np.searchsorted(thresholds, values, side="left")


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


def stump_search(data: "Dataset", weights: WeightState, grid: ThresholdGrid,
                 epsilon: float) -> LearnerFit:
    """Best root stump over the full grid with polarity fixed to +1.

    Orientation is absorbed by the output vector, so only (feature, threshold)
    is searched.  Ties break to the lowest feature index, then the lowest
    threshold, with the SELECTION_SLACK tolerance deciding what counts as a
    tie.  The grid must have been built from `data.features`.  Returns the
    stump with its smoothed vector, unsmoothed criterion, outputs and split
    scores.
    """
    X = data.features
    n = X.shape[0]
    k = weights.k
    norm = 1.0 / (2.0 * n)
    mass = weights.w.sum() * norm  # sets the tie slack only

    rows = []
    lowest = np.inf
    for j, thr in enumerate(grid.thresholds):
        m = thr.shape[0]
        hist = cut_sums(grid.buckets[j], weights.w, m + 1)
        below = np.cumsum(hist, axis=1)[:, :m]  # mass on the -1 side of each cut
        # suffix sums, not total-minus-prefix: a side with no true mass must
        # score an exact zero or sqrt amplifies the cancellation residue past
        # the tie slack
        above = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1][:, 1:]
        s_plus = (above[:k] + below[k:]) * norm
        s_minus = (above[k:] + below[:k]) * norm
        # the class sum runs over the rows of a C-ordered (m, K) array: the
        # order of a sum over classes depends on the layout from K = 8 on
        prod = np.multiply(s_plus.T, s_minus.T, out=np.empty((m, k)))
        crit = 2.0 * np.sum(np.sqrt(prod, out=prod), axis=1)
        rows.append(crit)
        lowest = min(lowest, float(crit.min()))

    limit = lowest + SELECTION_SLACK * mass
    for j, crit in enumerate(rows):
        if crit.min() <= limit:
            i = first_within_slack(crit, limit)
            break

    stump = Stump(feature=j, threshold=float(grid.thresholds[j][i]), polarity=1)
    outputs = stump.evaluate(X)
    scores = accumulate_split(outputs, weights)
    vector, criterion = optimal_vector(scores, epsilon)
    return LearnerFit(stump, vector, criterion, outputs, scores)


def grow_layer(tree: Tree, vector: np.ndarray, data: "Dataset", weights: WeightState,
               grid: ThresholdGrid, epsilon: float) -> LearnerFit:
    """Deepen a tree by one level without ever increasing the training loss.

    Each leaf slot gets a stump initialized to its parent's parameters (a
    functional no-op), then is re-optimized over the full grid in both
    polarities while the output vector stays fixed; a leaf keeps its
    initialization unless some candidate strictly improves its routed
    objective.  Finally the vector is refitted to the deeper tree, keeping
    the old vector if smoothing would make the refit worse.  Returns the
    grown tree with its vector, criterion, outputs and split scores.
    """
    X = data.features
    u, v = _side_costs(weights, vector)
    _, slots = tree.route(X)
    first_parent = 2 ** (tree.depth - 1) - 1
    new_nodes = []
    for slot in range(2 ** tree.depth):
        parent = tree.nodes[first_parent + slot // 2]
        sel = slots == slot
        stump = parent
        if np.any(sel):
            stump = _best_leaf_stump(X, sel, u[sel], v[sel], grid, parent)
        new_nodes.append(stump)

    grown = Tree(depth=tree.depth + 1, nodes=list(tree.nodes) + new_nodes)
    outputs = grown.evaluate(X)
    scores = accumulate_split(outputs, weights)
    refit, criterion = optimal_vector(scores, epsilon)
    if split_value(scores, refit) > split_value(scores, vector):
        refit = vector  # smoothing moved the refit past the old vector; keep monotone
    return LearnerFit(grown, refit, criterion, outputs, scores)


def _side_costs(weights: WeightState, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the cost u of sending it to +1 under a fixed vector, and v of sending it to -1.

    The products read a C-ordered (N, K) copy: on the buffer's views the
    matrix-vector kernel sums in another order, and the leaf searches break
    ties by plain argmin.
    """
    exp_a = np.exp(vector)
    exp_na = np.exp(-vector)
    by_sample = np.ascontiguousarray(weights.w_plus)
    u, v = by_sample @ exp_a, by_sample @ exp_na
    np.copyto(by_sample, weights.w_minus)
    u += by_sample @ exp_na
    v += by_sample @ exp_a
    return u, v


def _best_leaf_stump(X: np.ndarray, sel: np.ndarray, u: np.ndarray, v: np.ndarray,
                     grid: ThresholdGrid, init: Stump) -> Stump:
    """Minimize sum(u on the +1 side) + sum(v on the -1 side) over (j, tau, rho).

    u and v hold the leaf's samples; `sel` picks them out of X and the
    grid's buckets.
    """
    tot_u = u.sum()
    tot_v = v.sum()
    uv = np.stack((u, v))
    best_obj = np.inf
    best = None
    init_obj = None
    for j, thr in enumerate(grid.thresholds):
        m = thr.shape[0]
        below_u, below_v = np.cumsum(cut_sums(grid.buckets[j][sel], uv, m + 1), axis=1)[:, :m]
        obj_plus = (tot_u - below_u) + below_v
        obj_minus = below_u + (tot_v - below_v)
        # candidate order: threshold ascending, +1 polarity before -1
        paired = np.empty(2 * m)
        paired[0::2] = obj_plus
        paired[1::2] = obj_minus
        i = int(np.argmin(paired))
        if paired[i] < best_obj:
            best_obj = float(paired[i])
            best = Stump(feature=j, threshold=float(thr[i // 2]), polarity=1 - 2 * (i % 2))
        if j == init.feature:
            pos = int(np.searchsorted(thr, init.threshold))
            if pos < m and thr[pos] == init.threshold:
                init_obj = float(obj_plus[pos] if init.polarity > 0 else obj_minus[pos])
    if init_obj is None:
        # inherited cut is off this grid; score it directly
        g = init.evaluate(X[sel])
        init_obj = float(u[g > 0].sum() + v[g < 0].sum())
    if best is None or best_obj >= init_obj:
        return init
    return best
