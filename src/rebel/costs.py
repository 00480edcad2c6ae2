"""Cost matrices and the per-sample weight terms of the trainer's exponential surrogate.

A sample of true class y with cost row r = C[y] (r_y = 0, row maximum phi)
contributes

    loss(h; y) = 1/2 * sum_k [ c_plus_k exp(h_k) + c_minus_k exp(-h_k) ],
    c_plus = r,  c_minus = phi - r,

to the surrogate: the up-weight of class k is the cost of predicting k, and
its down-weight is the headroom below the row's dearest mistake.

- Risk bound.  If some j != y scores at least h_y, the j and y terms alone give
  loss >= (r_j exp(h_y) + phi exp(-h_y)) / 2 >= sqrt(r_j * phi) >= r_j, the
  cost of that mistake.  So the loss bounds the cost of argmax h.
- Population consistency.  With class posterior p(x), expected costs
  R_k = sum_y p_y C[y, k] and Phi = sum_y p_y phi_y, the expected loss is
  minimized class by class at h_k = ln((Phi - R_k) / R_k) / 2, which falls as
  R_k rises: argmax h is the minimum-expected-cost class.
- 0-1 costs.  r = 1 - e_y and phi = 1 give c_plus = 1 - e_y, c_minus = e_y:
  the coupled exponential loss, which for two classes is discrete AdaBoost.
- Unequal rows.  When a row's off-diagonal costs differ, c_minus is positive
  on classes other than y, so even where class y is certain the minimizer
  keeps finite targets ln((phi - r_k) / r_k) / 2 for the cheaper mistakes
  k != y, which the model must fit on top of separating y.  The trainer
  finishes such problems on the smoothed risk (`rebel.loss.smoothed_risk`);
  see `CostMatrix.equal_off_diagonal`.

Other consistent choices exist: c_plus = r - B, c_minus = A - r for any
A >= phi and B <= 0 (the row's offset sum(r) - (K - 1) phi is one such B).  With B < 0
even a certain class's score stays finite; B = 0 is the one choice that
sends it to +inf, and A = phi sends the row's dearest classes to -inf.  In
every choice the remaining classes keep finite targets where a class is
certain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIAGONAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """K x K misclassification costs; entries[y, k] is the cost of predicting k on true class y.

    Built from any square array: the entries are checked and kept as a
    float64 copy with an exact-zero diagonal.  `==` is identity.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("cost matrix needs at least 2 classes")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cost matrix has non-finite entries")
        if np.any(np.abs(np.diagonal(arr)) > DIAGONAL_TOL):
            raise ValueError("cost matrix diagonal must be zero")
        np.fill_diagonal(arr, 0.0)
        if np.any(arr < 0):
            raise ValueError("cost matrix has negative entries")
        # diagonal is zero and entries are nonnegative, so the row max is the
        # off-diagonal max
        if np.any(arr.max(axis=1) <= 0):
            raise ValueError("every row needs a strictly positive off-diagonal entry")
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def uniform(cls, k: int) -> "CostMatrix":
        """0-1 costs: every mistake costs 1."""
        return cls(np.ones((k, k)) - np.eye(k))

    def equal_off_diagonal(self) -> bool:
        """True when each row's mistakes all cost the same (0-1 costs up to a per-row scale).

        Then c_minus sits on the true class alone, and the exponential
        surrogate already drives a certain class's margin without bound.
        """
        # phi - r is zero exactly where r == phi, and phi > 0 on the diagonal
        return np.count_nonzero(_class_terms(self)[1]) == self.k


def dataset_terms(costs: CostMatrix, labels: np.ndarray):
    """Per-sample weight terms for a label array.

    Returns (C_plus, C_minus, c_star, phi): the first two are (N, K), the
    last two (N,) arrays indexed like `labels`; phi is each sample's row
    maximum, so C_plus + C_minus = phi in every class.
    """
    idx = _label_index(costs, labels)
    return tuple(term[idx] for term in _class_terms(costs))


def _label_index(costs: CostMatrix, labels: np.ndarray) -> np.ndarray:
    """0-based class index of each label, after checking the labels' shape and range."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    if labels.min() < 1 or labels.max() > costs.k:
        raise ValueError("labels out of range for cost matrix")
    return labels - 1


def _class_terms(costs: CostMatrix):
    """`dataset_terms` per true class: (C_plus, C_minus) (K, K), (c_star, phi) (K,)."""
    rows = costs.entries
    phi = rows.max(axis=1)
    cm = phi[:, None] - rows
    cstar = 2.0 * np.sum(np.sqrt(rows * cm), axis=1)
    return rows, cm, cstar, phi


def loss_floor(costs: CostMatrix, labels: np.ndarray) -> tuple[float, float]:
    """Unreachable loss floor and the certificate threshold for a labeled sample set.

    Returns (floor, certificate).  Any model's surrogate loss stays above
    floor, the mean of c_star / 2; dropping below certificate proves zero
    training risk.  The gap between them is the cheapest score tie between a
    sample's true class and any other, scaled by the per-sample normalization
    1/(2N): tying class j with the true class (c_plus = 0, c_minus = phi)
    raises twice the row's loss from its infimum by at least
    2 sqrt(r_j (2 phi - r_j)) - 2 sqrt(r_j (phi - r_j)).  Strictly positive
    off-diagonal costs make certificate > floor; a zero off-diagonal cost
    collapses the gap for that class pair.
    """
    labels = np.asarray(labels)
    rows, c_minus, cstar, phi = _class_terms(costs)
    floor = float(np.mean(0.5 * cstar[_label_index(costs, labels)]))

    # the tie gap depends only on (true class, other class); rows of the
    # classes present, with the true class itself masked out
    present = np.unique(labels) - 1
    r = rows[present]
    gap = 2.0 * np.sqrt(r * (2.0 * phi[present, None] - r)) - 2.0 * np.sqrt(r * c_minus[present])
    gap[np.arange(present.size), present] = np.inf
    return floor, floor + float(gap.min()) / (2.0 * labels.shape[0])


def normalize_random_unit(costs: CostMatrix, labels: np.ndarray) -> CostMatrix:
    """Rescale costs so a uniform random guesser pays 1 on average over `labels`."""
    expected = float(np.mean(costs.entries[_label_index(costs, labels)].mean(axis=1)))
    if expected <= 0:
        raise ValueError("expected random-guess cost is zero; cannot normalize")
    return CostMatrix(costs.entries / expected)
