"""Cost-matrix validation, the row decomposition, and the loss floor."""
import dataclasses

import numpy as np
import pytest

from conftest import random_costs, random_problem
from rebel.boost import TrainConfig, train
from rebel.costs import CostMatrix, dataset_terms, loss_floor, normalize_random_unit
from rebel.io import load_cost_matrix, save_cost_matrix
from reference_impl import decompose_row, sample_terms


ROW = np.array([0.0, 2.0, 6.0])


def three_class_costs():
    # first row pinned to the worked example, the rest arbitrary but valid
    return CostMatrix(np.array([
        [0.0, 2.0, 6.0],
        [1.0, 0.0, 1.0],
        [3.0, 5.0, 0.0],
    ]))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CostMatrix(np.ones((2, 3)))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            CostMatrix(np.zeros((1, 1)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_tiny_diagonal_is_zeroed(self):
        c = CostMatrix(np.array([[1e-14, 1.0], [1.0, -1e-15]]))
        assert c.entries[0, 0] == 0.0 and c.entries[1, 1] == 0.0

    def test_rejects_all_zero_row(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_unit_diagonal_is_refused(self):
        """Not a cost matrix, and once trained to a "certificate" stop with floor 0."""
        with pytest.raises(ValueError, match="cost matrix diagonal must be zero"):
            CostMatrix(np.ones((3, 3)))

    def test_negative_off_diagonal_is_refused(self):
        """Once an IndexError inside training."""
        with pytest.raises(ValueError, match="cost matrix has negative entries"):
            CostMatrix(np.eye(3) - np.ones((3, 3)))

    def test_class_count_is_the_entries_size(self):
        """A 2 x 2 matrix is a 2-class one, so training it on 3 classes is refused up front."""
        costs = CostMatrix(np.ones((2, 2)) - np.eye(2))
        assert costs.k == 2
        data, _ = random_problem(0, n=60, k=3)
        with pytest.raises(ValueError, match="dataset has 3 classes, cost matrix 2"):
            train(data, costs, TrainConfig(rounds=3))

    def test_entries_are_a_checked_float64_copy(self):
        given = np.array([[0, 1], [2, 0]])
        costs = CostMatrix(given)
        given[0, 1] = 5
        assert costs.entries.dtype == np.float64
        np.testing.assert_array_equal(costs.entries, [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.entries = np.ones((2, 2))
        # a changed matrix is a new one, checked like any other
        with pytest.raises(ValueError, match="cost matrix diagonal must be zero"):
            dataclasses.replace(costs, entries=np.ones((2, 2)))

    def test_uniform(self):
        c = CostMatrix.uniform(4)
        assert c.k == 4
        np.testing.assert_array_equal(c.entries, np.ones((4, 4)) - np.eye(4))

    def test_equal_off_diagonal(self, rng):
        assert CostMatrix.uniform(4).equal_off_diagonal()
        # per-row scales keep every row's mistakes alike
        scaled = CostMatrix((np.ones((3, 3)) - np.eye(3)) * [[1.0], [2.5], [0.3]])
        assert scaled.equal_off_diagonal()
        # two classes: one mistake per row
        assert random_costs(2, rng).equal_off_diagonal()
        assert not three_class_costs().equal_off_diagonal()

    def test_equal_off_diagonal_is_exact(self):
        """A mistake one ulp cheaper than the row's dearest is a cheaper mistake."""
        entries = np.ones((3, 3)) - np.eye(3)
        entries[0, 2] = np.nextafter(1.0, 0.0)
        assert not CostMatrix(entries).equal_off_diagonal()


class TestDecomposition:
    def test_worked_example(self):
        dec = decompose_row(ROW)
        assert dec.phi == 6.0
        assert dec.beta == -4.0
        np.testing.assert_array_equal(dec.b, np.array([6.0, 4.0, 0.0]))

    def test_reconstruction_exact(self):
        dec = decompose_row(ROW)
        np.testing.assert_array_equal(dec.phi - dec.b, ROW)

    def test_sample_terms_worked_example(self):
        # row [0, 2, 6]: c+ is the row, c- = 6 - row, and
        # c* = 2 (sqrt(0 * 6) + sqrt(2 * 4) + sqrt(6 * 0)) = 4 sqrt(2)
        terms = sample_terms(three_class_costs(), 1)
        np.testing.assert_array_equal(terms.c_plus, np.array([0.0, 2.0, 6.0]))
        np.testing.assert_array_equal(terms.c_minus, np.array([6.0, 4.0, 0.0]))
        assert terms.c_star == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-12)

    def test_optimal_offsets_worked_example(self):
        # h* = ln(c- / c+) / 2: ln(6 / 0) / 2, ln(4 / 2) / 2, ln(0 / 6) / 2
        terms = sample_terms(three_class_costs(), 1)
        assert terms.h_star[0] == np.inf
        assert terms.h_star[1] == pytest.approx(0.5 * np.log(2.0), abs=1e-15)
        assert terms.h_star[2] == -np.inf

    def test_round_trip_sweep(self, rng):
        """beta <= 0 and the row splits exactly; c+ = row and c- = b, nonnegative, sum to phi."""
        for _ in range(300):
            k = int(rng.integers(2, 7))
            row = rng.uniform(0.0, 5.0, size=k)
            row[rng.integers(0, k)] = 0.0
            dec = decompose_row(row)
            assert dec.beta <= 1e-12
            np.testing.assert_allclose(dec.phi - dec.b, row, atol=1e-12)
            assert dec.b.min() >= 0.0
        for _ in range(50):
            costs = random_costs(int(rng.integers(2, 7)), rng)
            for label in range(1, costs.k + 1):
                terms = sample_terms(costs, label)
                dec = decompose_row(costs.entries[label - 1])
                np.testing.assert_array_equal(terms.c_plus, costs.entries[label - 1])
                np.testing.assert_array_equal(terms.c_minus, dec.b)
                assert terms.c_minus.min() >= 0.0
                np.testing.assert_allclose(terms.c_plus + terms.c_minus, dec.phi, atol=1e-12)

    def test_population_minimizer_ranks_by_expected_cost(self, rng):
        """Over a posterior p the expected weights are c+ = R_k and c- = Phi - R_k, so the
        expected loss is minimized at h_k = ln((Phi - R_k) / R_k) / 2, whose argmax is the
        minimum-expected-cost class."""
        for _ in range(200):
            k = int(rng.integers(3, 6))
            costs = random_costs(k, rng)
            p = rng.dirichlet(np.ones(k))
            cp, cm, _, phi = dataset_terms(costs, np.arange(1, k + 1))
            plus, minus = p @ cp, p @ cm      # expected weights per class
            expected_cost = p @ costs.entries
            np.testing.assert_allclose(plus, expected_cost, rtol=1e-12)
            np.testing.assert_allclose(minus, p @ phi - expected_cost, rtol=1e-12)
            h = 0.5 * np.log(minus / plus)
            assert np.argmax(h) == np.argmin(expected_cost)

    def test_dataset_terms_matches_per_sample(self, rng):
        costs = random_costs(4, rng)
        labels = rng.integers(1, 5, size=40)
        cp, cm, cstar, beta = dataset_terms(costs, labels)
        for i, y in enumerate(labels):
            terms = sample_terms(costs, int(y))
            np.testing.assert_array_equal(cp[i], terms.c_plus)
            np.testing.assert_array_equal(cm[i], terms.c_minus)
            assert cstar[i] == terms.c_star


class TestLossFloor:
    def test_single_sample_worked_example(self):
        # row [0, 2, 6]: floor = c* / 2 = 2 sqrt(2).  Tying class 2 (r = 2,
        # phi = 6) with the true class costs sqrt(2 * 10) - sqrt(2 * 4) over
        # the floor, class 3 costs sqrt(6 * 6) - 0 = 6; with N = 1 the
        # certificate is 2 sqrt(2) + sqrt(20) - sqrt(8) = sqrt(20).
        floor, certificate = loss_floor(three_class_costs(), np.array([1]))
        assert floor == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        assert certificate == pytest.approx(np.sqrt(20.0), abs=1e-12)

    def test_binary_zero_one_single_sample(self):
        floor, certificate = loss_floor(CostMatrix.uniform(2), np.array([1]))
        assert floor == 0.0
        assert certificate == pytest.approx(1.0, abs=1e-15)

    def test_certificate_above_floor_for_positive_costs(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            costs = random_costs(int(r.integers(2, 6)), r)
            labels = r.integers(1, costs.k + 1, size=30)
            floor, certificate = loss_floor(costs, labels)
            assert certificate > floor

    def test_floor_scales_with_duplication(self, rng):
        """The floor is a per-sample mean, so duplicating labels preserves it."""
        costs = random_costs(3, rng)
        labels = rng.integers(1, 4, size=15)
        f1, c1 = loss_floor(costs, labels)
        f2, c2 = loss_floor(costs, np.concatenate([labels, labels]))
        assert f1 == pytest.approx(f2, abs=1e-12)
        # the certificate gap halves: it carries a 1/(2N) factor
        assert (c2 - f2) == pytest.approx((c1 - f1) / 2.0, rel=1e-12)


class TestNormalization:
    def test_unit_random_guess_cost(self, rng):
        costs = random_costs(4, rng)
        labels = rng.integers(1, 5, size=60)
        normed = normalize_random_unit(costs, labels)
        guess = float(np.mean(normed.entries[labels - 1].mean(axis=1)))
        assert guess == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range_labels(self, rng):
        with pytest.raises(ValueError):
            normalize_random_unit(random_costs(3, rng), np.array([0, 1]))
        with pytest.raises(ValueError, match="labels out of range for cost matrix"):
            normalize_random_unit(random_costs(3, rng), np.array([1, 4]))

    @pytest.mark.parametrize("labels", [[[1, 2]], []])
    def test_rejects_labels_that_are_not_one_row(self, rng, labels):
        """2-D and empty labels are refused as `dataset_terms` refuses them."""
        with pytest.raises(ValueError, match="labels must be a non-empty 1-D array"):
            normalize_random_unit(random_costs(3, rng), np.array(labels, dtype=np.int64))


class TestCostIO:
    def test_round_trip(self, tmp_path, rng):
        costs = random_costs(5, rng)
        path = tmp_path / "c.csv"
        save_cost_matrix(costs, path)
        loaded = load_cost_matrix(path)
        np.testing.assert_array_equal(loaded.entries, costs.entries)

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,0,2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_cost_matrix(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(ValueError):
            load_cost_matrix(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e309"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1\n{cell},0\n")
        with pytest.raises(ValueError, match=f"line 2, column 0: non-finite value '{cell}'"):
            load_cost_matrix(path)

    def test_empty_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n \n")
        with pytest.raises(ValueError, match="no data rows"):
            load_cost_matrix(path)
