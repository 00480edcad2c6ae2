"""Stumps, threshold grids, split scores, and the two split searches."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import halves, random_costs, random_problem
from rebel.boost import init_weights, update_weights
from rebel.costs import CostMatrix
from rebel.io import Dataset
from rebel.weak import (SplitScores, Stump, Tree, _side_costs, accumulate_split, build_grid,
                        class_major, cut_sums, grow_layer, optimal_vector, search_stumps,
                        split_value, stump_search)
from reference_impl import (naive_split_scores, naive_stump_search, per_slot_grow_layer,
                            tree_outputs)


def random_weights(rng, n, k):
    return class_major(rng.uniform(0.1, 2.0, size=(n, k)), rng.uniform(0.1, 2.0, size=(n, k)))


class TestStump:
    def test_threshold_ties_route_negative(self):
        stump = Stump(feature=0, threshold=1.0, polarity=1)
        x = np.array([[0.5], [1.0], [1.5]])
        np.testing.assert_array_equal(Tree.from_stump(stump).evaluate(x), [-1, -1, 1])

    def test_polarity_flip(self):
        x = np.array([[0.5], [1.5]])
        plus = Tree.from_stump(Stump(feature=0, threshold=1.0, polarity=1)).evaluate(x)
        minus = Tree.from_stump(Stump(feature=0, threshold=1.0, polarity=-1)).evaluate(x)
        np.testing.assert_array_equal(minus, -plus)

    def test_feature_selection(self):
        stump = Stump(feature=1, threshold=0.0, polarity=1)
        x = np.array([[9.0, -1.0], [-9.0, 1.0]])
        np.testing.assert_array_equal(Tree.from_stump(stump).evaluate(x), [-1, 1])


# bounds a grid column's ends are drawn from: signed zeros, the smallest
# subnormal and normal, ends whose span overflows, and ordinary values
_GRID_ENDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -3.0, 0.1,
              1e300, 1.7e308, -1.7e308]


@st.composite
def _grid_cases(draw):
    """(N, d) features and n_tau for `build_grid`.  Each column has drawn
    ends, a free span, one 1-2 ulps wide, or none (constant), and holds the
    ends, values in between, and values exactly on its grid thresholds, each
    possibly repeated."""
    n_tau = draw(st.integers(1, 300))
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    ends = st.sampled_from(_GRID_ENDS) | st.floats(-1.7e308, 1.7e308)
    columns = []
    for _ in range(d):
        lo = draw(ends)
        width = draw(st.sampled_from(["free", "ulps", "constant"]))
        if width == "free":
            lo, hi = sorted([lo, draw(ends)])
        elif width == "ulps":
            hi = lo
            for _ in range(draw(st.integers(1, 2))):
                hi = float(np.nextafter(hi, np.inf))
        else:
            hi = lo
        thresholds = build_grid(np.array([[lo], [hi]]), n_tau).thresholds[0].tolist()
        inner = st.floats(lo, hi) if lo < hi else st.just(lo)
        values = draw(st.lists(st.sampled_from(thresholds) | inner | st.sampled_from([lo, hi]),
                               min_size=n - 2, max_size=n - 2))
        columns.append(draw(st.permutations([lo, hi] + values)))
    return np.array(columns).T, n_tau


class TestGrid:
    def test_two_point_feature_single_cut(self):
        grid = build_grid(np.array([[0.0], [10.0]]), 1)
        np.testing.assert_array_equal(grid.thresholds[0], [5.0])

    def test_two_point_feature_four_cuts(self):
        grid = build_grid(np.array([[0.0], [10.0]]), 4)
        np.testing.assert_array_equal(grid.thresholds[0], [2.0, 4.0, 6.0, 8.0])

    @pytest.mark.parametrize("features, n_tau, match", [
        ([[0.0], [1.0]], 0, "n_tau must be >= 1"),
        ([0.0, 1.0], 3, r"features must be a non-empty \(N, d\) array"),
        (np.zeros((0, 2)), 3, r"features must be a non-empty \(N, d\) array"),
        (np.zeros((2, 0)), 3, r"features must be a non-empty \(N, d\) array"),
    ])
    def test_bad_inputs_are_refused(self, features, n_tau, match):
        with pytest.raises(ValueError, match=match):
            build_grid(np.asarray(features), n_tau)

    def test_cuts_are_interior(self, rng):
        x = rng.normal(size=(50, 3))
        grid = build_grid(x, 17)
        for j in range(3):
            col = x[:, j]
            assert grid.thresholds[j].min() > col.min()
            assert grid.thresholds[j].max() < col.max()
            assert grid.thresholds[j].shape == (17,)

    def test_constant_feature(self):
        x = np.array([[3.0], [3.0], [3.0]])
        grid = build_grid(x, 10)
        np.testing.assert_array_equal(grid.thresholds[0], [3.0])
        stump = Stump(feature=0, threshold=3.0, polarity=1)
        np.testing.assert_array_equal(Tree.from_stump(stump).evaluate(x), [-1, -1, -1])

    @settings(max_examples=300, deadline=None)
    @given(case=_grid_cases())
    # values exactly on the thresholds 1/3 and 2/3
    @example(case=(np.array([[0.0], [1.0 / 3.0], [0.5], [2.0 / 3.0], [1.0]]), 2))
    # spans of 1 and 2 ulps, subnormal, overflowing: searchsorted
    @example(case=(np.array([[1.0], [1.0000000000000002]]), 300))
    @example(case=(np.array([[1.0], [1.0000000000000002], [1.0000000000000004]]), 7))
    @example(case=(np.array([[0.0], [5e-324], [1e-323]]), 300))
    @example(case=(np.array([[-1.7e308], [0.0], [1.7e308]]), 50))
    def test_buckets_are_searchsorted(self, case):
        """Each sample's bucket is the count of its feature's thresholds
        strictly below it, and binning raises no NumPy warning.  The
        thresholds are finite, non-decreasing and within the feature's range,
        an overflowing one included: its span once made every threshold inf."""
        x, n_tau = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = build_grid(x, n_tau)
        for j, thresholds in enumerate(grid.thresholds):
            assert np.isfinite(thresholds).all()
            assert (thresholds[:-1] <= thresholds[1:]).all()
            assert x[:, j].min() <= thresholds.min() and thresholds.max() <= x[:, j].max()
            expected = np.searchsorted(thresholds, x[:, j], side="left")
            assert grid.buckets[j].dtype == expected.dtype
            np.testing.assert_array_equal(grid.buckets[j], expected)


class TestSplitScores:
    def test_matches_naive(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(5, 40)), int(rng.integers(2, 5))
            w = random_weights(rng, n, k)
            out = rng.choice([-1, 1], size=n)
            scores = accumulate_split(out, w)
            sp, sm = naive_split_scores(out, *halves(w))
            np.testing.assert_allclose(scores.s_plus, sp, rtol=1e-14)
            np.testing.assert_allclose(scores.s_minus, sm, rtol=1e-14)

    def test_mass_conservation(self, rng):
        n, k = 30, 4
        w = random_weights(rng, n, k)
        out = rng.choice([-1, 1], size=n)
        scores = accumulate_split(out, w)
        mass = (halves(w)[0].sum() + halves(w)[1].sum()) / (2.0 * n)
        assert float(np.sum(scores.s_plus + scores.s_minus)) == pytest.approx(mass, rel=1e-13)

    def test_output_flip_swaps_sides(self, rng):
        w = random_weights(rng, 25, 3)
        out = rng.choice([-1, 1], size=25)
        fwd = accumulate_split(out, w)
        rev = accumulate_split(-out, w)
        np.testing.assert_array_equal(rev.s_plus, fwd.s_minus)
        np.testing.assert_array_equal(rev.s_minus, fwd.s_plus)


@st.composite
def _weighted_problems(draw):
    """A small problem with degenerate corners: N from 2, constant features,
    n_tau = 1, classes with no weight, weights from 1e-300 to 1e300, and all
    of the weight on one side (of the classes' signs or of feature 0)."""
    n = draw(st.integers(2, 60))
    k = draw(st.sampled_from([2, 3, 4, 9]))  # from K = 8, NumPy sums over classes pairwise
    d = draw(st.integers(1, 3))
    features = draw(arrays(np.float64, (n, d),
                           elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5])))
    for j in range(d):
        if draw(st.booleans()):
            features[:, j] = 0.5
    n_tau = draw(st.sampled_from([1, 2, 5, 40]))
    # full-mantissa draws, so that a sum in another order shows in the low bits
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    decades = draw(st.sampled_from([0, 3, 300]))
    mantissa = (rng.uniform(0.125, 8.0, size=(2 * k, n))
                * 10.0 ** rng.integers(-decades, decades + 1, size=(2 * k, n)))
    for row in draw(st.lists(st.integers(0, 2 * k - 1), max_size=3)):
        mantissa[row] = 0.0
    side = draw(st.sampled_from(["both", "plus", "minus", "upper"]))
    if side == "plus":
        mantissa[k:] = 0.0
    elif side == "minus":
        mantissa[:k] = 0.0
    elif side == "upper":
        mantissa[:, features[:, 0] <= np.median(features[:, 0])] = 0.0
    weights = class_major(mantissa[:k].T, mantissa[k:].T)
    return Dataset(features, np.arange(n) % k + 1, k), weights, n_tau


def _sample_major(weights):
    return tuple(np.ascontiguousarray(half) for half in halves(weights))


@st.composite
def _layer_cases(draw):
    """A `_weighted_problems` case with a tree of depth 1-4 to deepen and a
    vector.  Each node is hand-built: either polarity, cut at a grid
    threshold, at a feature value (off the grid unless the feature is
    constant) or elsewhere; deeper trees leave slots empty.  Three shapes
    aim at the reads off the bins:

    - "ulps": feature 0 is a few ulps wide, so its grid repeats thresholds;
    - "lean": samples above feature 0's median weigh only on the positive
      sign, the rest only on the negative, and the vector is positive, so
      the leaves' cheapest cuts on feature 0 have polarity -1;
    - "agree": every cut is off the grid (unless it lands on it by chance)
      and each sample weighs only on the sign that prefers the side its
      slot already takes, so leaves keep their parent's off-grid cut.
    """
    data, weights, n_tau = draw(_weighted_problems())
    features = data.features
    n, d = features.shape
    k = weights.shape[0] // 2
    shape = draw(st.sampled_from(["plain", "ulps", "lean", "agree"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "ulps":
        base = draw(st.sampled_from([0.5, -3.0, 1e300]))
        features[:, 0] = base + np.spacing(base) * rng.integers(0, 4, size=n)
    grid = build_grid(features, n_tau)
    depth = draw(st.integers(1, 4))
    nodes = []
    for _ in range(2 ** depth - 1):
        j = draw(st.integers(0, d - 1))
        where = draw(st.sampled_from(["value", "elsewhere"] if shape == "agree" else
                                     ["grid", "value", "elsewhere"]))
        if where == "grid":
            threshold = draw(st.sampled_from(grid.thresholds[j].tolist()))
        elif where == "value":
            threshold = draw(st.sampled_from(features[:, j].tolist()))
        else:
            threshold = draw(st.sampled_from([-3.0, 0.25, 0.75, 1.75, 4.0]))
        nodes.append(Stump(feature=j, threshold=float(threshold),
                           polarity=draw(st.sampled_from([1, -1]))))
    tree = Tree(depth=depth, nodes=nodes)
    vector = draw(st.sampled_from([0.0, 0.5, 40.0, 800.0])) * rng.normal(size=k)
    if shape in ("lean", "agree"):
        # under a positive vector a sample with only negative weight costs
        # less on the +1 side, one with only positive weight on the -1 side
        plus = (features[:, 0] <= np.median(features[:, 0]) if shape == "lean"
                else tree.route(features)[1] % 2 == 1)
        weights[:k, plus] = 0.0
        weights[k:, ~plus] = 0.0
        vector = np.abs(vector) + 0.5
    return data, weights, grid, tree, vector


_NAN_CUT_X = np.array([[0.0, 2.0], [0.0, 0.0], [2.0, 0.0]])


class TestSearchBitEquality:
    """The histogram kernels against the masking oracles, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(case=_weighted_problems())
    @example(case=(Dataset(np.array([[0.0], [1.0]]), np.array([1, 2]), 2),
                   class_major(np.array([[1e300, 0.0], [1e-300, 2.0]]),
                               np.array([[0.0, 0.0], [3.0, 1e300]])), 1))
    def test_stump_search_matches_naive(self, case):
        data, weights, n_tau = case
        grid = build_grid(data.features, n_tau)
        w_plus, w_minus = _sample_major(weights)
        with np.errstate(over="ignore"):
            fit = stump_search(data, weights, grid, epsilon=1e-3)
            ref_stump, ref_crit = naive_stump_search(data.features, w_plus, w_minus, grid)
        assert (fit.learner.feature, fit.learner.threshold) == (ref_stump.feature,
                                                                ref_stump.threshold)
        assert np.float64(fit.criterion).tobytes() == np.float64(ref_crit).tobytes()
        s_plus, s_minus = naive_split_scores(fit.outputs, w_plus, w_minus)
        assert fit.scores.s_plus.tobytes() == s_plus.tobytes()
        assert fit.scores.s_minus.tobytes() == s_minus.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=_weighted_problems(), flip=st.integers(0, 2 ** 30))
    def test_accumulate_split_matches_naive(self, case, flip):
        data, weights, _ = case
        n = data.features.shape[0]
        outputs = np.where(np.random.default_rng(flip).random(n) < 0.5, 1, -1)
        outputs[: flip % 3] = 1  # sometimes every sample on the +1 side
        if flip % 5 == 0:
            outputs[:] = -1
        scores = accumulate_split(outputs, weights)
        s_plus, s_minus = naive_split_scores(outputs, *_sample_major(weights))
        assert scores.s_plus.tobytes() == s_plus.tobytes()
        assert scores.s_minus.tobytes() == s_minus.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=_layer_cases())
    # slot 0's inherited cut scores nan (an infinite u below it) while feature
    # 1 offers a finite cut, which the leaf takes: nan is not >= the best
    @example(case=(Dataset(_NAN_CUT_X, np.array([1, 2, 1]), 2),
                   class_major(np.array([[1e300, 0.0], [1.0, 1.0], [1.0, 1.0]]), np.ones((3, 2))),
                   build_grid(_NAN_CUT_X, 1), Tree.from_stump(Stump(0, 1.0, 1)),
                   np.array([40.0, 0.0])))
    def test_grow_layer_matches_per_slot_search(self, case):
        data, weights, grid, tree, vector = case
        with np.errstate(over="ignore", invalid="ignore"):
            fit = grow_layer(tree, vector, data, weights, grid, epsilon=1e-3)
            ref = per_slot_grow_layer(tree, vector, data, weights, grid, epsilon=1e-3)
        assert fit.learner == ref.learner
        assert fit.outputs.dtype == ref.outputs.dtype
        np.testing.assert_array_equal(fit.outputs, ref.outputs)
        assert fit.scores.s_plus.tobytes() == ref.scores.s_plus.tobytes()
        assert fit.scores.s_minus.tobytes() == ref.scores.s_minus.tobytes()
        assert fit.vector.tobytes() == ref.vector.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=_layer_cases(), depth=st.integers(1, 5))
    def test_fit_outputs_are_the_learners_outputs(self, case, depth):
        """The outputs a fit reads off the bins are its tree's outputs on the
        features, at every depth: a root stump search, then layers grown as
        training grows them."""
        data, weights, grid, _, _ = case
        with np.errstate(over="ignore", invalid="ignore"):
            fit = stump_search(data, weights, grid, 1e-3)
            tree = Tree.from_stump(fit.learner)
            for _ in range(depth - 1):
                fit = grow_layer(tree, fit.vector, data, weights, grid, 1e-3)
                tree = fit.learner
        want = tree.evaluate(data.features)
        assert tree.depth == depth and fit.outputs.dtype == want.dtype
        np.testing.assert_array_equal(fit.outputs, want)

    def test_cut_sums_add_each_group_in_sample_order(self):
        rows = np.array([[1.0, 1e16, -1e16, 3.0], [0.5, 0.25, 0.0, 2.0]])
        group = np.array([0, 1, 1, 0])
        got = cut_sums(group, rows, 3)
        np.testing.assert_array_equal(got, [[(1.0 + 3.0), (1e16 + -1e16), 0.0],
                                            [2.5, 0.25, 0.0]])

    @pytest.mark.parametrize("one_call_max", [0, 10 ** 9])
    @pytest.mark.parametrize("per_stack", [False, True])
    def test_cut_sums_of_a_stack_equal_one_bincount_per_row(self, monkeypatch, one_call_max,
                                                             per_stack):
        """Both ways of summing (one bincount over all rows, or one per row),
        for a (B, R, N) stack and a group shared by every row or one per
        stack, give each row's own bincount, bit for bit."""
        import rebel.weak
        monkeypatch.setattr(rebel.weak, "ONE_CALL_MAX_SAMPLES", one_call_max)
        rng = np.random.default_rng(8)
        rows = rng.exponential(size=(3, 4, 500)) * 10.0 ** rng.uniform(-8, 8, size=(3, 4, 500))
        group = rng.integers(0, 7, size=(3, 1, 500) if per_stack else 500)
        got = cut_sums(group, rows, 7)
        flat_group = np.broadcast_to(group, rows.shape)
        for b, r in np.ndindex(3, 4):
            want = np.bincount(flat_group[b, r], weights=rows[b, r], minlength=7)
            assert got[b, r].tobytes() == want.tobytes()


class TestClassMajor:
    def test_rows_hold_each_class_and_sign(self, rng):
        wp, wm = rng.uniform(size=(5, 3)), rng.uniform(size=(5, 3))
        w = class_major(wp, wm)
        assert w.shape == (6, 5) and w.flags.c_contiguous and w.dtype == np.float64
        np.testing.assert_array_equal(w[:3], wp.T)
        np.testing.assert_array_equal(w[3:], wm.T)
        wp[0, 0] = -1.0  # a new array, not a view of its arguments
        assert w[0, 0] != -1.0
        assert class_major(np.ones((2, 1), dtype=np.int64), np.zeros((2, 1))).dtype == np.float64


class TestOptimalVector:
    def test_smoothed_worked_example(self):
        scores = SplitScores(s_plus=np.array([0.75, 0.0]), s_minus=np.array([0.0, 0.75]))
        a, crit = optimal_vector(scores, epsilon=0.01)
        assert a[1] == pytest.approx(2.16536667, abs=1e-8)
        assert a[0] == pytest.approx(-a[1], abs=1e-12)
        assert crit == 0.0  # unsmoothed criterion: both products are zero

    def test_orientation_antisymmetry(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            sp = rng.uniform(0.0, 1.0, size=k)
            sm = rng.uniform(0.0, 1.0, size=k)
            eps = 10.0 ** -rng.integers(2, 6)
            a_fwd, c_fwd = optimal_vector(SplitScores(sp, sm), eps)
            a_rev, c_rev = optimal_vector(SplitScores(sm, sp), eps)
            np.testing.assert_allclose(a_rev, -a_fwd, atol=1e-12)
            assert c_rev == c_fwd

    def test_unsmoothed_empty_coordinate(self):
        scores = SplitScores(s_plus=np.array([0.0, 0.5]), s_minus=np.array([0.0, 0.125]))
        a, crit = optimal_vector(scores, epsilon=0.0)
        assert a[0] == 0.0  # no mass on either side: leave the coordinate alone
        assert a[1] == pytest.approx(0.5 * np.log(0.25), abs=1e-15)
        assert crit == pytest.approx(2.0 * np.sqrt(0.5 * 0.125), rel=1e-15)

    def test_exact_vector_attains_criterion(self, rng):
        """With eps = 0 and full support, plugging a* back in gives the criterion."""
        for _ in range(30):
            k = int(rng.integers(2, 5))
            scores = SplitScores(rng.uniform(0.05, 1.0, size=k), rng.uniform(0.05, 1.0, size=k))
            a, crit = optimal_vector(scores, epsilon=0.0)
            assert split_value(scores, a) == pytest.approx(crit, rel=1e-13)

    def test_smoothing_never_beats_exact(self, rng):
        """The smoothed vector's achieved value is at least the exact optimum."""
        for _ in range(50):
            k = int(rng.integers(2, 5))
            scores = SplitScores(rng.uniform(0.0, 1.0, size=k), rng.uniform(0.0, 1.0, size=k))
            exact = 2.0 * float(np.sum(np.sqrt(scores.s_plus * scores.s_minus)))
            a, _ = optimal_vector(scores, epsilon=1e-3)
            assert split_value(scores, a) >= exact - 1e-12


class TestStumpSearch:
    def test_separable_two_blobs(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0, 1, 30), rng.uniform(5, 6, 30)])
        features = np.column_stack([rng.normal(size=60), x])
        labels = np.repeat([1, 2], 30)
        data = Dataset(features, labels, 2)
        w = init_weights(random_costs(2, rng), data)
        stump, vector, crit, *_ = stump_search(data, w, build_grid(features, 50), epsilon=1e-3)
        assert stump.feature == 1
        assert 1.0 < stump.threshold < 5.0
        assert crit <= 1e-12
        assert vector[0] < 0 < vector[1]  # class 2 sits on the +1 side

    def test_matches_naive_search(self):
        """Histogram search and the exhaustive oracle agree pick-for-pick."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 60))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            n_tau = int(rng.integers(3, 2000 // d + 1))
            data, costs = random_problem(seed, n=n, d=d, k=k)
            w = init_weights(costs, data)
            # a couple of update rounds so the weights are not the raw costs
            for _ in range(int(rng.integers(0, 3))):
                out = rng.choice([-1, 1], size=n)
                update_weights(w, out, rng.normal(scale=0.3, size=k))
            grid = build_grid(data.features, n_tau)
            stump, _, crit, *_ = stump_search(data, w, grid, epsilon=1e-3)
            ref_stump, ref_crit = naive_stump_search(data.features, *halves(w), grid)
            assert (stump.feature, stump.threshold) == (ref_stump.feature, ref_stump.threshold)
            assert crit == pytest.approx(ref_crit, abs=1e-12)

    def test_returns_outputs_and_scores_of_its_pick(self):
        for seed in range(10):
            data, costs = random_problem(400 + seed, n=50, d=3, k=3)
            w = init_weights(costs, data)
            fit = stump_search(data, w, build_grid(data.features, 30), epsilon=1e-3)
            outputs = Tree.from_stump(fit.learner).evaluate(data.features)
            np.testing.assert_array_equal(fit.outputs, outputs)
            scores = accumulate_split(outputs, w)
            assert fit.scores.s_plus.tobytes() == scores.s_plus.tobytes()
            assert fit.scores.s_minus.tobytes() == scores.s_minus.tobytes()

    def test_nan_weight_is_an_error_naming_its_training(self):
        """3 rows, 2 classes: a nan weight makes every criterion of its training nan."""
        data = Dataset([[0.0], [1.0], [2.0]], [1, 2, 1], 2)
        grid = build_grid(data.features, 10)
        w = init_weights(CostMatrix.uniform(2), data)
        stack = np.stack([w, w])
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="training 1 has a nan weight"):
            search_stumps(stack, grid, epsilon=1e-3)
        with pytest.raises(ValueError, match="training 0 has a nan weight"):
            stump_search(data, stack[1], grid, epsilon=1e-3)
        w[0, 1] = np.inf  # an inf weight still picks a stump
        stump, *_ = stump_search(data, w, grid, epsilon=1e-3)
        assert stump.feature == 0 and stump.threshold in grid.thresholds[0]

    def test_polarity_always_plus_one(self, rng):
        data, costs = random_problem(5, n=40, d=2, k=3)
        w = init_weights(costs, data)
        stump, *_ = stump_search(data, w, build_grid(data.features, 20), epsilon=1e-3)
        assert stump.polarity == 1


class TestTree:
    def test_single_node_matches_stump(self, rng):
        x = rng.normal(size=(20, 3))
        stump = Stump(feature=2, threshold=0.1, polarity=-1)
        tree = Tree.from_stump(stump)
        np.testing.assert_array_equal(tree.evaluate(x), -np.where(x[:, 2] > 0.1, 1, -1))

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            Tree(depth=2, nodes=[Stump(0, 0.0, 1)])
        with pytest.raises(ValueError, match="tree depth must be >= 1"):
            Tree(depth=0, nodes=[])

    def test_depth_two_routing(self):
        # root splits on feature 0 at 0; children split feature 1 at -1 and +1
        tree = Tree(depth=2, nodes=[
            Stump(0, 0.0, 1), Stump(1, -1.0, 1), Stump(1, 1.0, 1)])
        x = np.array([
            [-1.0, -2.0],   # left child, below its cut  -> -1
            [-1.0, 0.0],    # left child, above its cut  -> +1
            [1.0, 0.0],     # right child, below its cut -> -1
            [1.0, 2.0],     # right child, above its cut -> +1
        ])
        np.testing.assert_array_equal(tree.evaluate(x), [-1, 1, -1, 1])
        # slots name the would-be children: two exits per depth-2 leaf
        _, slots = tree.route(x)
        np.testing.assert_array_equal(slots, [0, 1, 2, 3])


    def test_evaluate_and_route_match_per_sample_walk(self):
        """Both routings agree with a walk from the root, ties and polarities
        included, on both sides of SELECT_MAX_DEPTH."""
        for seed in range(48):
            rng = np.random.default_rng(seed)
            depth = 1 + seed % 8
            x = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(30, 3))
            tree = Tree(depth=depth, nodes=[
                Stump(int(rng.integers(0, 3)), float(rng.choice([-0.5, 0.0, 0.5])),
                      int(rng.choice([-1, 1])))
                for _ in range(2 ** depth - 1)])
            want = tree_outputs(tree, x)
            np.testing.assert_array_equal(tree.evaluate(x), want)
            np.testing.assert_array_equal(tree.route(x)[0], want)


def _in_class_order(rows, coef):
    """sum_c rows[c] * coef[c] in Python floats, left to right."""
    total = rows[0] * coef[0]
    for row, c in zip(rows[1:], coef[1:]):
        total += row * c
    return total


class TestGrowLayer:
    def test_class_sums_add_in_class_order(self, rng):
        """Side costs and split values are sums over classes taken in class
        order, whatever the array layout or BLAS kernel."""
        k, n = 5, 300
        w = random_weights(rng, n, k)
        vector = rng.normal(size=k)
        exp_a, exp_na = np.exp(vector).tolist(), np.exp(-vector).tolist()
        u, v = _side_costs(w, vector)
        for i, col in enumerate(w.T.tolist()):
            assert u[i] == _in_class_order(col[:k], exp_a) + _in_class_order(col[k:], exp_na)
            assert v[i] == _in_class_order(col[:k], exp_na) + _in_class_order(col[k:], exp_a)
        scores = accumulate_split(np.where(rng.random(n) < 0.5, 1, -1), w)
        assert split_value(scores, vector) == (_in_class_order(scores.s_plus.tolist(), exp_a)
                                               + _in_class_order(scores.s_minus.tolist(), exp_na))

    def test_never_increases_split_value(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            data, costs = random_problem(seed + 300, n=60, d=3, k=3)
            w = init_weights(costs, data)
            grid = build_grid(data.features, 40)
            eps = 1e-3
            stump, vector, *_ = stump_search(data, w, grid, eps)
            tree = Tree.from_stump(stump)
            value = split_value(accumulate_split(tree.evaluate(data.features), w), vector)
            for _ in range(2):
                tree, vector, *_ = grow_layer(tree, vector, data, w, grid, eps)
                grown = split_value(accumulate_split(tree.evaluate(data.features), w), vector)
                assert grown <= value + 1e-12
                value = grown

    def test_returns_outputs_and_scores_of_grown_tree(self):
        data, costs = random_problem(450, n=80, d=3, k=4)
        w = init_weights(costs, data)
        grid = build_grid(data.features, 40)
        stump, vector, *_ = stump_search(data, w, grid, 1e-3)
        fit = grow_layer(Tree.from_stump(stump), vector, data, w, grid, 1e-3)
        outputs = fit.learner.evaluate(data.features)
        np.testing.assert_array_equal(fit.outputs, outputs)
        scores = accumulate_split(outputs, w)
        assert fit.scores.s_plus.tobytes() == scores.s_plus.tobytes()
        assert fit.scores.s_minus.tobytes() == scores.s_minus.tobytes()

    def test_pure_leaves_keep_parent_split(self):
        """A perfect root split leaves nothing to refine; growth is a no-op."""
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(5, 6, 20)])
        features = x[:, None]
        data = Dataset(features, np.repeat([1, 2], 20), 2)
        w = init_weights(random_costs(2, rng), data)
        grid = build_grid(features, 30)
        stump, vector, *_ = stump_search(data, w, grid, epsilon=1e-4)
        tree, vector2, *_ = grow_layer(Tree.from_stump(stump), vector, data, w, grid, 1e-4)
        np.testing.assert_array_equal(tree.evaluate(features),
                                      Tree.from_stump(stump).evaluate(features))
        np.testing.assert_array_equal(vector2, vector)

    def test_depth_two_learns_xor_depth_one_cannot(self):
        from conftest import xor_dataset
        from rebel.boost import TrainConfig, train
        from rebel.costs import CostMatrix

        data = xor_dataset()
        costs = CostMatrix.uniform(2)
        _, shallow = train(data, costs, TrainConfig(rounds=50, tree_depth=1, n_tau=60))
        assert min(r.train_error for r in shallow.rounds) > 0.0
        _, deep = train(data, costs, TrainConfig(rounds=50, tree_depth=2, n_tau=60))
        assert deep.rounds[-1].train_error == 0.0
        assert deep.stopped == "certificate"
