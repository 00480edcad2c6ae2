"""Slow, direct re-implementations used as oracles against the fast paths.

The cost-row decomposition, the per-sample cost terms and the surrogate loss
recomputed from a model's scores live here too: only tests use them, as a
second route through the math of `rebel.costs` and the boosting loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rebel.costs import CostMatrix, dataset_terms, loss_floor
from rebel.weak import (SELECTION_SLACK, LearnerFit, Stump, Tree, _side_costs, accumulate_split,
                        cut_sums, optimal_vector, split_value)


def naive_split_scores(outputs, w_plus, w_minus):
    """Per-class split scores by direct masking, no histograms."""
    n = outputs.shape[0]
    pos = outputs > 0
    s_plus = (w_plus[pos].sum(axis=0) + w_minus[~pos].sum(axis=0)) / (2.0 * n)
    s_minus = (w_plus[~pos].sum(axis=0) + w_minus[pos].sum(axis=0)) / (2.0 * n)
    return s_plus, s_minus


def naive_stump_search(X, w_plus, w_minus, grid):
    """Exhaustive split search: one pass of naive scores per candidate.

    Applies the same scan order and slack tie rule as the fast search:
    first (feature, threshold) in order whose criterion is within
    SELECTION_SLACK of the minimum, relative to the round's weight mass.
    """
    n = X.shape[0]
    mass = (w_plus.sum() + w_minus.sum()) / (2.0 * n)
    candidates = []
    for j, thresholds in enumerate(grid.thresholds):
        for tau in thresholds:
            out = np.where(X[:, j] > tau, 1, -1)
            s_plus, s_minus = naive_split_scores(out, w_plus, w_minus)
            crit = 2.0 * float(np.sum(np.sqrt(s_plus * s_minus)))
            candidates.append((crit, j, float(tau)))
    lowest = min(c for c, _, _ in candidates)
    limit = lowest + SELECTION_SLACK * mass
    for crit, j, tau in candidates:
        if crit <= limit:
            return Stump(feature=j, threshold=tau, polarity=1), crit
    raise AssertionError("unreachable")


def per_slot_grow_layer(tree, vector, data, weights, grid, epsilon):
    """`rebel.weak.grow_layer` searching one leaf slot at a time, each on
    copies of its own samples' bins and side costs."""
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
        refit = vector
    return LearnerFit(grown, refit, criterion, outputs, scores)


def _best_leaf_stump(X, sel, u, v, grid, init):
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
        g = Tree.from_stump(init).evaluate(X[sel])
        init_obj = float(u[g > 0].sum() + v[g < 0].sum())
    if best is None or best_obj >= init_obj:
        return init
    return best


def _cell_rows(path):
    """(line number, cells) of the nonblank lines, split on commas after
    stripping; every line must have the first line's number of cells."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                rows.append((line_no, line.strip().split(",")))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0][1])
    for line_no, cells in rows:
        if len(cells) != width:
            raise ValueError(f"{path}: line {line_no}: expected {width} cells, got {len(cells)}")
    return rows


def _parse_cells(path, rows, cols):
    out = np.empty((len(rows), len(cols)))
    for r, (line_no, cells) in enumerate(rows):
        for c, col in enumerate(cols):
            token = cells[col]
            try:
                val = float(token)
            except ValueError:
                raise ValueError(f"{path}: line {line_no}, column {col}: "
                                 f"not a number: {token!r}") from None
            if not np.isfinite(val):
                raise ValueError(f"{path}: line {line_no}, column {col}: "
                                 f"non-finite value {token!r}")
            out[r, c] = val
    return out


def cell_by_cell_parse(path, cols=None):
    """CSV feature parse one cell at a time: nonblank lines split on commas,
    `float()` per chosen cell (all cells if `cols` is None), and the first
    bad cell in row-major order named by line and column."""
    rows = _cell_rows(path)
    cols = range(len(rows[0][1])) if cols is None else cols
    return _parse_cells(path, rows, cols)


def cell_by_cell_dataset(path, label_col):
    """`cell_by_cell_parse` of every column but `label_col` (a Python index),
    plus 1-based labels and their sorted names: a label token is the stripped
    line's cell, untrimmed, and tokens number 1..K in sorted order."""
    rows = _cell_rows(path)
    width = len(rows[0][1])
    if not -width <= label_col < width:
        raise ValueError(f"label column {label_col} out of range for {width} columns")
    label_col %= width
    if width == 1:
        raise ValueError(f"{path}: no feature columns left")
    features = _parse_cells(path, rows, [c for c in range(width) if c != label_col])
    tokens = [cells[label_col] for _, cells in rows]
    names = sorted(set(tokens))
    labels = np.array([names.index(t) + 1 for t in tokens], dtype=np.int64)
    return features, labels, names


def tree_outputs(tree, features):
    """A tree's +-1 outputs, walking each sample from the root: -1 goes to
    the left child, +1 to the right, and the last stump's output counts."""
    out = np.empty(features.shape[0], dtype=np.int64)
    for r, x in enumerate(features):
        node = 0
        for _ in range(tree.depth):
            stump = tree.nodes[node]
            out[r] = stump.polarity * (1 if x[stump.feature] > stump.threshold else -1)
            node = 2 * node + (1 if out[r] < 0 else 2)
    return out


def round_order_stages(model, features):
    """Scores a0 + sum_t tree_t(x) * a_t, summed one round at a time in (N, K)
    layout: a copy after a0, then one after each round."""
    h = np.tile(model.a0, (features.shape[0], 1))
    yield h.copy()
    for tree, vector in model.rounds:
        h += tree_outputs(tree, features)[:, None] * vector
        yield h.copy()


def round_order_scores(model, features):
    """The last of `round_order_stages`: the scores of the whole model."""
    for h in round_order_stages(model, features):
        pass
    return h


# --- cost terms and the surrogate loss ---------------------------------------


@dataclass
class CostDecomposition:
    """Additive split of one cost row: row = beta * 1 + sum_k b[k] * (1 - e_k).

    The slack vector b = phi - row is the trainer's down-weight c_minus.
    """

    beta: float
    b: np.ndarray
    phi: float


@dataclass
class SampleCostTerms:
    """Per-sample weight seeds derived from the sample's cost row."""

    c_plus: np.ndarray
    c_minus: np.ndarray
    c_star: float
    h_star: np.ndarray


def decompose_row(row: np.ndarray) -> CostDecomposition:
    """Split a cost row into uniform offset beta, slack vector b, and row max phi.

    b is nonnegative with a zero at the row's most expensive class, and the
    row reconstructs exactly as beta + b.sum() - b.
    """
    row = np.asarray(row, dtype=np.float64)
    k = row.shape[0]
    phi = float(row.max())
    beta = float(row.sum() - (k - 1) * phi)
    b = phi - row
    return CostDecomposition(beta=beta, b=b, phi=phi)


def sample_terms(costs: CostMatrix, label: int) -> SampleCostTerms:
    """Weight seeds (c_plus, c_minus), balance constant c_star, and the optimal score vector.

    c_plus = row, c_minus = phi - row; c_star = 2 <sqrt(c_plus * c_minus), 1>
    is the infimum of twice this row's loss over score vectors, approached at
    h_star = (ln c_minus - ln c_plus) / 2: +inf for the true class (and any
    class that costs nothing to predict), -inf for the row's dearest classes.
    """
    c_plus, c_minus, c_star, _ = dataset_terms(costs, np.array([label]))
    with np.errstate(divide="ignore"):
        h_star = 0.5 * (np.log(c_minus[0]) - np.log(c_plus[0]))
    return SampleCostTerms(c_plus=c_plus[0], c_minus=c_minus[0], c_star=float(c_star[0]),
                           h_star=h_star)


@dataclass
class LossReport:
    surrogate: float
    floor: float
    excess: float
    error_rate: float
    risk: float


def coupled_sum(h: np.ndarray, label: int) -> float:
    """Half the true class's down-weight plus the other classes' up-weights.

    sigma(h; y) = (exp(-h_y) + sum_{k != y} exp(h_k)) / 2.  Convex in h, with
    infimum 0, and at least 1 whenever any other class scores at or above the
    true one, which is what makes it a misclassification upper bound.
    """
    h = np.asarray(h, dtype=np.float64)
    y = label - 1
    if not 0 <= y < h.shape[0]:
        raise ValueError(f"label {label} out of range for {h.shape[0]} classes")
    others = np.exp(np.delete(h, y)).sum()
    return float(0.5 * (np.exp(-h[y]) + others))


def surrogate_loss(model, data, costs: CostMatrix) -> LossReport:
    """Full-dataset surrogate loss, floor, excess, and the hard error/risk rates."""
    if data.k != costs.k:
        raise ValueError(f"dataset has {data.k} classes, cost matrix {costs.k}")
    c_plus, c_minus, c_star, _ = dataset_terms(costs, data.labels)
    floor, _ = loss_floor(costs, data.labels)
    h = model.scores(data.features)
    per_sample = (np.sum(c_plus * np.exp(h), axis=1)
                  + np.sum(c_minus * np.exp(-h), axis=1) - c_star)
    surrogate = floor + float(np.mean(per_sample)) / 2.0
    preds = np.argmax(h, axis=1) + 1
    labels0 = data.labels - 1
    error_rate = float(np.mean(preds - 1 != labels0))
    risk = float(np.mean(costs.entries[labels0, preds - 1]))
    return LossReport(surrogate=surrogate, floor=floor, excess=surrogate - floor,
                      error_rate=error_rate, risk=risk)
