import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vflpriv import blackbox


class TestCase1:
    def test_identity_when_w_is_one(self):
        est = blackbox.bb_case1([0.2, 0.5, 1.0])
        assert np.allclose(est.x_hat, [0.2, 0.5, 1.0])

    def test_scale_cancels(self):
        est = blackbox.bb_case1([0.4, 1.0, 2.0])   # w = 2
        assert np.allclose(est.x_hat, [0.2, 0.5, 1.0])

    def test_negative_w_cancels(self):
        est = blackbox.bb_case1([-0.5, -1.0])      # w = -1
        assert np.allclose(est.x_hat, [0.5, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(blackbox.BlackboxError):
            blackbox.bb_case1([0.0, 0.0])
        with pytest.raises(blackbox.BlackboxError, match="^need at least one observation$"):
            blackbox.bb_case1([])

    def test_error_bound_from_extreme_sample(self):
        # empirical MSE is at most (x_max - 1)^2 for exact observations
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, size=50)
        est = blackbox.bb_case1(3.0 * x)
        mse = float(np.mean((est.x_hat - x) ** 2))
        assert mse <= (x.max() - 1.0) ** 2 + 1e-12


class TestCase2:
    def test_exact_on_extreme_samples(self):
        est = blackbox.bb_case2([1.0, 1.5, 2.0])   # w = 1, b = 1, x = 0, .5, 1
        assert np.allclose(est.x_hat, [0.0, 0.5, 1.0])

    def test_single_observation(self):
        est = blackbox.bb_case2([2.5])
        assert np.array_equal(est.x_hat, [0.0])

    def test_constant_observations_flagged(self):
        est = blackbox.bb_case2([1.0, 1.0, 1.0])
        assert np.array_equal(est.x_hat, [0.0, 0.0, 0.0])
        assert est.flags["constant_input"]

    def test_negative_branch(self):
        # w = -1, b = -1: the largest |v| marks x = 1
        x = np.array([0.0, 0.25, 1.0])
        est = blackbox.bb_case2(-x - 1.0)
        assert np.allclose(est.x_hat, x)

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_algebraic_identity_with_ratio_form(self, seed):
        # (v - v_m)/(v_M - v_m) == 1/(1 - alpha) with
        # alpha = (v - v_M)/(v - v_m), wherever the ratio form is defined
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.5, 3.0, size=8)
        est = blackbox.bb_case2(v)
        small = int(np.argmin(np.abs(v)))
        big = int(np.argmax(np.abs(v)))
        for i in range(8):
            if v[i] == v[small]:
                continue
            alpha = (v[i] - v[big]) / (v[i] - v[small])
            assert est.x_hat[i] == pytest.approx(1.0 / (1.0 - alpha), abs=1e-12)

    def test_error_bound_from_extremes(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=50)
        est = blackbox.bb_case2(0.98916 * x + 3.048751)
        mse = float(np.mean((est.x_hat - x) ** 2))
        assert mse <= (x.max() - 1.0) ** 2 + x.min() ** 2 + 1e-12


class TestCase3:
    def test_positive_observations_infer_negative_w(self):
        # b > 0, w < 0: larger x pushes v down
        x = np.array([0.0, 0.5, 1.0])
        v = -1.0 * x + 2.0
        est = blackbox.bb_case3(v)
        assert est.case == "3a"
        assert est.flags["sign_w"] == -1.0
        assert np.allclose(est.x_hat, x)

    def test_negative_observations_infer_positive_w(self):
        # b < 0, w > 0
        x = np.array([0.0, 0.5, 1.0])
        v = 1.5 * x - 2.0
        est = blackbox.bb_case3(v)
        assert est.case == "3a"
        assert est.flags["sign_w"] == 1.0
        assert np.allclose(est.x_hat, x)

    def test_mixed_signs_fall_back_to_half(self):
        est = blackbox.bb_case3([-1.0, 1.0])
        assert est.case == "3b"
        assert est.flags["undecidable"]
        assert np.array_equal(est.x_hat, [0.5, 0.5])
        # the refinement by a known population mean is bb_case3_population's
        assert blackbox.bb_case3_population([-1.0, 1.0], 0.5).case == "3b_population"

    def test_oriented_estimate_converges(self):
        # as the sample grows the oriented min-max approaches ground truth
        rng = np.random.default_rng(2)
        errs = []
        for n in (10, 1000):
            x = rng.uniform(0.0, 1.0, size=n)
            est = blackbox.bb_case3(-0.8 * x + 1.0)   # stays positive
            errs.append(float(np.mean((est.x_hat - x) ** 2)))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3

    def test_population_refinement_beats_half(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, size=500)
        v = 2.0 * x - 1.0                              # mixed signs
        est = blackbox.bb_case3_population(v, float(x.mean()))
        mse = float(np.mean((est.x_hat - x) ** 2))
        half_mse = float(np.mean((0.5 - x) ** 2))
        assert mse < half_mse

    @pytest.mark.parametrize("v, message", [
        ([0.3], "population refinement needs at least two observations"),
        # both orientations fit w = 0
        ([0.0, 0.0], "degenerate observations; cannot fit the affine map"),
        # constant but non-zero: rounding fits w = 1.4e-16, not 0
        ([2.0, 2.0, 2.0], "degenerate observations; cannot fit the affine map")])
    def test_population_refinement_rejects(self, v, message):
        with pytest.raises(blackbox.BlackboxError, match=f"^{message}$"):
            blackbox.bb_case3_population(v, 0.5)


class TestProperties:
    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_estimates_stay_in_unit_interval(self, vals):
        v = np.asarray(vals)
        if np.any(v != 0.0):
            for est in (blackbox.bb_case1(v), blackbox.bb_case2(v),
                        blackbox.bb_case3(v)):
                assert np.all(est.x_hat >= 0.0) and np.all(est.x_hat <= 1.0)

    def test_extreme_order_statistics_concentrate(self):
        # mean over 100 trials of (1 - max) and min both < 0.02 at n = 100
        rng = np.random.default_rng(4)
        gaps_hi, gaps_lo = [], []
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, size=100)
            gaps_hi.append(1.0 - x.max())
            gaps_lo.append(x.min())
        assert np.mean(gaps_hi) < 0.02
        assert np.mean(gaps_lo) < 0.02

    def test_trial_mean_mse_decreases_with_n(self):
        rng = np.random.default_rng(5)

        def mean_mse(n, trials=100):
            vals = []
            for _ in range(trials):
                x = rng.uniform(0.0, 1.0, size=n)
                est = blackbox.bb_case2(1.0 * x + 1.0)
                vals.append(float(np.mean((est.x_hat - x) ** 2)))
            return float(np.mean(vals))

        m10, m100, m1000 = mean_mse(10), mean_mse(100), mean_mse(1000)
        assert m100 < m10
        assert m1000 < m100

