"""Synthetic mixture generation and the cost-comparison harness."""
import dataclasses

import numpy as np
import pytest

from rebel.synth import (gen_cost_matrix, gen_dataset, random_mixture_spec, run_comparison,
                         win_fraction, write_comparison_csv)


def _put(nested, i, j, value):
    """A tuple of tuples, `nested`, with item [i][j] set to `value`."""
    return nested[:i] + (nested[i][:j] + (value,) + nested[i][j + 1:],) + nested[i + 1:]


class TestMixtureSpec:
    def test_random_spec_shapes(self):
        spec = random_mixture_spec(k=3, clusters_per_class=2, d=2,
                                   train_total=90, test_total=30, seed=7)
        assert spec.k == 3
        assert len(spec.means) == 3 and len(spec.means[0]) == 2
        assert spec.means[0][0].shape == (2,)
        assert spec.covariances[0][0].shape == (2, 2)
        assert sum(spec.train_counts) == 90
        assert sum(spec.test_counts) == 30

    def test_spec_cannot_change_after_its_checks(self):
        spec = random_mixture_spec(k=2, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 1
        with pytest.raises(AttributeError):
            spec.train_counts.append(5)
        with pytest.raises(TypeError):
            spec.covariances[0][0] = np.eye(2)

    def test_covariances_have_bounded_spectrum(self):
        spec = random_mixture_spec(k=4, seed=3)
        for cls in spec.covariances:
            for cov in cls:
                np.testing.assert_allclose(cov, cov.T, atol=1e-12)
                eig = np.linalg.eigvalsh(cov)
                assert eig.min() >= 0.5 - 1e-9 and eig.max() <= 1.5 + 1e-9

    def test_validate_rejects_bad_covariance(self):
        spec = random_mixture_spec(k=2, seed=1)
        not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="covariance not positive definite"):
            dataclasses.replace(spec, covariances=_put(spec.covariances, 0, 0, not_psd))

    def test_validate_rejects_bad_counts(self):
        spec = random_mixture_spec(k=2, seed=1)
        with pytest.raises(ValueError, match="train counts must be >= 1"):
            dataclasses.replace(spec, train_counts=(0,) + spec.train_counts[1:])

    @pytest.mark.parametrize("breakage, message", [
        (lambda s: dataclasses.replace(s, k=1), "for k >= 2 classes"),
        (lambda s: dataclasses.replace(s, means=s.means[:-1]), "for k >= 2 classes"),
        (lambda s: dataclasses.replace(s, test_counts=s.test_counts + (5,)),
         "per-class train and test counts"),
        (lambda s: dataclasses.replace(s, means=(s.means[0], s.means[1][:-1])),
         "matching non-empty mean/cov lists"),
        (lambda s: dataclasses.replace(s, means=(s.means[0], ()),
                                       covariances=(s.covariances[0], ())),
         "matching non-empty mean/cov lists"),
        (lambda s: dataclasses.replace(s, means=_put(s.means, 1, 0, np.zeros(3))),
         "inconsistent mixture dimensions"),
        (lambda s: dataclasses.replace(s, covariances=_put(s.covariances, 1, 0, np.eye(3))),
         "inconsistent mixture dimensions"),
        (lambda s: dataclasses.replace(s, covariances=_put(s.covariances, 1, 0,
                                                           np.array([[1.0, 0.5], [0.0, 1.0]]))),
         "covariance not symmetric"),
        (lambda s: dataclasses.replace(s, means=((), s.means[1]),
                                       covariances=((), s.covariances[1])),
         "matching non-empty mean/cov lists"),
        (lambda s: dataclasses.replace(s, seed=-1), "seed must be >= 0, got -1"),
    ])
    def test_validate_names_each_broken_rule(self, breakage, message):
        spec = random_mixture_spec(k=2, seed=1)
        with pytest.raises(ValueError, match=message):
            breakage(spec)

    @pytest.mark.parametrize("kwargs, message", [
        ({"k": 0}, "for k >= 2 classes"),
        ({"clusters_per_class": 0}, "matching non-empty mean/cov lists"),
        ({"clusters_per_class": -1}, "matching non-empty mean/cov lists"),
        ({"d": 0}, "inconsistent mixture dimensions"),
        ({"test_total": 0}, "test counts >= 0 with a positive total"),
        ({"d": -1}, "inconsistent mixture dimensions"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_random_spec_refuses_with_the_rule_it_breaks(self, kwargs, message):
        """Each of these once failed in the draw or in the spec's checks themselves
        (ZeroDivisionError, IndexError, NumPy's reductions over empty arrays, or NumPy's
        messages on a negative size or seed) instead of naming its rule."""
        with pytest.raises(ValueError, match=message):
            random_mixture_spec(**kwargs)


class TestGenDataset:
    def test_deterministic(self):
        spec = random_mixture_spec(k=3, train_total=60, test_total=30, seed=5)
        tr1, te1 = gen_dataset(spec)
        tr2, te2 = gen_dataset(spec)
        np.testing.assert_array_equal(tr1.features, tr2.features)
        np.testing.assert_array_equal(tr1.labels, tr2.labels)
        np.testing.assert_array_equal(te1.features, te2.features)
        np.testing.assert_array_equal(te1.labels, te2.labels)

    def test_even_class_split(self):
        spec = random_mixture_spec(k=4, train_total=100, test_total=40, seed=2)
        train, test = gen_dataset(spec)
        for cls in range(1, 5):
            assert np.sum(train.labels == cls) == 25
            assert np.sum(test.labels == cls) == 10

    def test_single_cluster_class_mean(self):
        """One cluster per class: the empirical mean sits on the spec mean."""
        spec = random_mixture_spec(k=2, clusters_per_class=1,
                                   train_total=2000, test_total=2, seed=9)
        train, _ = gen_dataset(spec)
        for cls in (1, 2):
            pts = train.features[train.labels == cls]
            sample_mean = pts.mean(axis=0)
            # per-coordinate std is at most sqrt(1.5); allow five sigmas
            bound = 5.0 * np.sqrt(1.5) / np.sqrt(pts.shape[0])
            assert np.all(np.abs(sample_mean - spec.means[cls - 1][0]) < bound)


class TestCostDraws:
    def test_raw_draws_are_positive_off_diagonal(self):
        for seed in range(10):
            costs = gen_cost_matrix(4, seed)
            off = costs.entries[~np.eye(4, dtype=bool)]
            assert off.min() > 0
            assert np.all(np.diagonal(costs.entries) == 0.0)

    def test_normalized_to_unit_random_guess(self, rng):
        labels = rng.integers(1, 4, size=50)
        costs = gen_cost_matrix(3, 11, labels=labels)
        guess = float(np.mean(costs.entries[labels - 1].mean(axis=1)))
        assert guess == pytest.approx(1.0, abs=1e-12)


class TestHarness:
    def test_small_run_row_schema(self):
        rows = run_comparison(n_datasets=1, n_matrices=3, rounds=4, seed=1)
        assert len(rows) == 3
        for t, row in enumerate(rows):
            assert row["trial_id"] == t
            assert row["winner"] in ("rebel", "twostep", "tie")
            assert row["rebel_risk"] >= 0.0 and row["twostep_risk"] >= 0.0
        frac = win_fraction(rows)
        assert 0.0 <= frac <= 1.0

    def test_worker_count_does_not_change_rows(self):
        serial = run_comparison(n_datasets=2, n_matrices=2, rounds=3, seed=6, workers=1)
        pooled = run_comparison(n_datasets=2, n_matrices=2, rounds=3, seed=6, workers=2)
        assert serial == pooled

    @pytest.mark.parametrize("n_datasets, n_matrices", [(0, 1), (1, 0)])
    def test_empty_grid_is_refused(self, n_datasets, n_matrices):
        with pytest.raises(ValueError, match="need at least one dataset and one cost matrix"):
            run_comparison(n_datasets=n_datasets, n_matrices=n_matrices, rounds=2, seed=3)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_is_refused(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_comparison(n_datasets=1, n_matrices=1, rounds=2, seed=3, workers=workers)

    def test_csv_header_pinned(self, tmp_path):
        rows = run_comparison(n_datasets=1, n_matrices=1, rounds=2, seed=3)
        path = tmp_path / "out.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_id,dataset_seed,cost_seed,rebel_risk,twostep_risk,winner"
        assert len(lines) == 2
