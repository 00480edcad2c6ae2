import numpy as np
import pytest

from rebel.boost import StrongClassifier
from rebel.costs import CostMatrix
from rebel.io import Dataset
from rebel.weak import Stump, Tree


def random_costs(k: int, rng) -> CostMatrix:
    """Strictly positive off-diagonal costs, zero diagonal."""
    arr = rng.uniform(0.2, 3.0, size=(k, k))
    np.fill_diagonal(arr, 0.0)
    return CostMatrix(arr)


def halves(weights):
    """The (N, K) positive and negative weights of a class-major (2K, N) array, as views."""
    k = weights.shape[0] // 2
    return weights[:k].T, weights[k:].T


def random_problem(seed: int, n: int = 120, d: int = 3, k: int = 3):
    """A labeled Gaussian-blob dataset and a random positive cost matrix."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, k + 1, size=n)
    centers = rng.uniform(-3.0, 3.0, size=(k, d))
    features = centers[labels - 1] + rng.normal(size=(n, d))
    return Dataset(features, labels, k), random_costs(k, rng)


def random_model(seed: int, k: int = 3, d: int = 4, depth: int = 1,
                 rounds: int = 5) -> StrongClassifier:
    """A syntactically valid model with random stumps and vectors."""
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=k)
    pairs = []
    for _ in range(rounds):
        nodes = [Stump(feature=int(rng.integers(0, d)),
                       threshold=float(rng.normal()),
                       polarity=int(rng.choice([-1, 1])))
                 for _ in range(2 ** depth - 1)]
        pairs.append((Tree(depth=depth, nodes=nodes), rng.normal(size=k)))
    return StrongClassifier(k=k, d=d, a0=a0, rounds=pairs, fingerprint=f"synthetic seed={seed}")


def xor_dataset(n_per_cell: int = 25, seed: int = 0) -> Dataset:
    """Binary XOR layout: label 1 on the diagonal quadrants, 2 off it."""
    rng = np.random.default_rng(seed)
    cells = [(1, 1, 1), (-1, -1, 1), (1, -1, 2), (-1, 1, 2)]
    feats, labs = [], []
    for cx, cy, lab in cells:
        feats.append(np.array([cx, cy]) * 2.0 + rng.uniform(-0.8, 0.8, size=(n_per_cell, 2)))
        labs.append(np.full(n_per_cell, lab))
    return Dataset(np.vstack(feats), np.concatenate(labs), k=2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
