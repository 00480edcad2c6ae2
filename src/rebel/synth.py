"""Synthetic Gaussian-mixture problems and the cost-sensitive comparison harness.

The harness pits the cost-sensitive trainer against the two-step plug-in
(class posteriors from a cost-blind model, then minimum expected cost) on a
grid of random datasets crossed with random cost matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import posterior_all, two_step_predict_all
from .boost import TrainConfig, predict_all, train_many
from .costs import CostMatrix, normalize_random_unit
from .io import Dataset
from .loss import empirical_risk

MEAN_RANGE = (-5.0, 5.0)
COV_SCALE_RANGE = (0.5, 1.5)


def check_seed(seed: int) -> int:
    """`seed`, if it can seed a draw: seeds are >= 0.  Checked before any draw."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _check_dimensions(d: int, pairs=()) -> None:
    """A mixture has d >= 1 features, and each (mean, covariance) in `pairs`
    has shapes (d,) and (d, d)."""
    if d < 1 or any(mu.shape != (d,) or cov.shape != (d, d) for mu, cov in pairs):
        raise ValueError("inconsistent mixture dimensions")


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Per-class Gaussian clusters plus train/test sample counts and a seed.

    Checked when built, and held in tuples, so a spec cannot change after
    its checks; it holds the mean and covariance arrays it was given,
    uncopied, so do not write into them.  A changed spec comes from
    `dataclasses.replace`.  `==` is identity.
    """

    k: int
    means: tuple[tuple[np.ndarray, ...], ...]        # [class][cluster] -> (d,)
    covariances: tuple[tuple[np.ndarray, ...], ...]  # [class][cluster] -> (d, d) SPD
    train_counts: tuple[int, ...]
    test_counts: tuple[int, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(tuple(cls) for cls in self.means))
        object.__setattr__(self, "covariances", tuple(tuple(cls) for cls in self.covariances))
        object.__setattr__(self, "train_counts", tuple(self.train_counts))
        object.__setattr__(self, "test_counts", tuple(self.test_counts))
        if self.k < 2 or len(self.means) != self.k or len(self.covariances) != self.k:
            raise ValueError("spec needs per-class means/covariances for k >= 2 classes")
        if len(self.train_counts) != self.k or len(self.test_counts) != self.k:
            raise ValueError("spec needs per-class train and test counts")
        if min(self.train_counts) < 1 or min(self.test_counts) < 0 or sum(self.test_counts) < 1:
            raise ValueError("train counts must be >= 1, test counts >= 0 with a positive total")
        if any(len(m) != len(c) or not m for m, c in zip(self.means, self.covariances)):
            raise ValueError("each class needs matching non-empty mean/cov lists")
        pairs = [pair for cls in zip(self.means, self.covariances) for pair in zip(*cls)]
        _check_dimensions(self.means[0][0].shape[0], pairs)
        for _, cov in pairs:
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ValueError("covariance not symmetric")
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise ValueError("covariance not positive definite")
        check_seed(self.seed)


def _split_total(total: int, k: int) -> list[int]:
    """`total` dealt round-robin to `k` classes: the first total % k get one more."""
    return [len(range(i, total, k)) for i in range(k)]


def random_mixture_spec(k: int = 4, clusters_per_class: int = 2, d: int = 2,
                        train_total: int = 1000, test_total: int = 500,
                        seed: int = 0) -> MixtureSpec:
    """Draw cluster means uniformly in a box and covariances as rotated diagonals."""
    _check_dimensions(d)
    rng = np.random.default_rng(check_seed(seed))
    means, covs = [], []
    for _ in range(k):
        cls_means, cls_covs = [], []
        for _ in range(clusters_per_class):
            cls_means.append(rng.uniform(MEAN_RANGE[0], MEAN_RANGE[1], size=d))
            scales = rng.uniform(COV_SCALE_RANGE[0], COV_SCALE_RANGE[1], size=d)
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            cls_covs.append(q @ np.diag(scales) @ q.T)
        means.append(cls_means)
        covs.append(cls_covs)
    return MixtureSpec(k=k, means=means, covariances=covs,
                       train_counts=_split_total(train_total, k),
                       test_counts=_split_total(test_total, k), seed=seed)


def gen_dataset(spec: MixtureSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) draw from the mixture."""
    rng = np.random.default_rng(spec.seed)

    def draw(counts):
        xs, ys = [], []
        for cls in range(spec.k):
            n = counts[cls]
            if n == 0:
                continue
            clusters = spec.means[cls]
            pick = rng.integers(0, len(clusters), size=n)
            for c in range(len(clusters)):
                nc = int(np.sum(pick == c))
                if nc:
                    xs.append(rng.multivariate_normal(spec.means[cls][c],
                                                      spec.covariances[cls][c], size=nc))
                    ys.append(np.full(nc, cls + 1, dtype=np.int64))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        order = rng.permutation(x.shape[0])
        return Dataset(x[order], y[order], k=spec.k)

    return draw(spec.train_counts), draw(spec.test_counts)


def gen_cost_matrix(k: int, seed: int, labels: np.ndarray | None = None) -> CostMatrix:
    """Half-normal off-diagonal costs (zero draws resampled, zero diagonal).

    When `labels` is given the matrix is rescaled so a uniform random guess
    costs 1 on average over those labels; raw draws come back otherwise.
    """
    rng = np.random.default_rng(check_seed(seed))
    entries = np.abs(rng.normal(size=(k, k)))
    np.fill_diagonal(entries, 0.0)
    off = ~np.eye(k, dtype=bool)
    while np.any(entries[off] == 0.0):
        zero = (entries == 0.0) & off
        entries[zero] = np.abs(rng.normal(size=int(zero.sum())))
    costs = CostMatrix(entries)
    if labels is not None:
        costs = normalize_random_unit(costs, labels)
    return costs


def _comparison_dataset_block(job) -> list[dict]:
    """All trials for one dataset: shared cost-blind model, one trained model per matrix."""
    index, dataset_seed, cost_seeds, cfg, n_matrices = job
    spec = random_mixture_spec(seed=int(dataset_seed))
    train_data, test_data = gen_dataset(spec)
    matrices = [gen_cost_matrix(spec.k, int(cost_seeds[j]), labels=train_data.labels)
                for j in range(n_matrices)]
    # the cost-blind model and every matrix's model, trained in lockstep
    (neutral, _), *trained = train_many(train_data, [CostMatrix.uniform(spec.k)] + matrices, cfg)
    posteriors = posterior_all(neutral, test_data.features)

    out = []
    for j, (costs, (model, _)) in enumerate(zip(matrices, trained)):
        rebel_risk = empirical_risk(predict_all(model, test_data.features),
                                    test_data.labels, costs)
        twostep_risk = empirical_risk(two_step_predict_all(posteriors, costs),
                                      test_data.labels, costs)
        if rebel_risk < twostep_risk:
            winner = "rebel"
        elif twostep_risk < rebel_risk:
            winner = "twostep"
        else:
            winner = "tie"
        out.append({
            "trial_id": index * n_matrices + j,
            "dataset_seed": int(dataset_seed),
            "cost_seed": int(cost_seeds[j]),
            "rebel_risk": rebel_risk,
            "twostep_risk": twostep_risk,
            "winner": winner,
        })
    return out


def run_comparison(n_datasets: int = 10, n_matrices: int = 20, rounds: int = 100, depth: int = 1,
             seed: int = 0, fit_a0: bool = True, workers: int = 1) -> list[dict]:
    """Random datasets crossed with random cost matrices; one result row per trial.

    Rows are ordered by trial id regardless of worker count, so output is
    worker-count independent.
    """
    if n_datasets < 1 or n_matrices < 1:
        raise ValueError("need at least one dataset and one cost matrix")
    cfg = TrainConfig(rounds=rounds, tree_depth=depth, fit_a0=fit_a0)
    rng = np.random.default_rng(check_seed(seed))
    dataset_seeds = rng.integers(1, 2 ** 31, size=n_datasets)
    cost_seeds = rng.integers(1, 2 ** 31, size=n_matrices)
    jobs = [(i, dataset_seeds[i], cost_seeds, cfg, n_matrices) for i in range(n_datasets)]

    blocks = pool_map(_comparison_dataset_block, jobs, workers)
    return [row for block in blocks for row in block]


def pool_map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], in job order; in `workers` processes when workers > 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def win_fraction(rows: list[dict]) -> float:
    return float(np.mean([r["winner"] == "rebel" for r in rows]))


def write_comparison_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial_id,dataset_seed,cost_seed,rebel_risk,twostep_risk,winner\n")
        for r in rows:
            fh.write(f"{r['trial_id']},{r['dataset_seed']},{r['cost_seed']},"
                     f"{r['rebel_risk']!r},{r['twostep_risk']!r},{r['winner']}\n")
