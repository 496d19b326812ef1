import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vflpriv import metrics, numerics
from vflpriv.attacks import ATTACKS, AttackError, run_attack
from vflpriv.dataset import Dataset, SyntheticSpec, synthesize
from vflpriv.model import TrainConfig, VflModel, VflSplit, predict, train
from vflpriv.system import LinearSystem, SystemError_, build_system


class TestEmpiricalMse:
    def test_perfect_estimate(self):
        x = np.random.default_rng(0).uniform(size=(10, 3))
        assert metrics.empirical_mse(x, x) == 0.0

    def test_single_pair(self):
        assert metrics.empirical_mse([[1.0, 0.0]], [[0.0, 0.0]]) == 0.5

    def test_half_against_uniform(self):
        x = np.random.default_rng(1).uniform(size=(100_000, 1))
        got = metrics.empirical_mse(x, np.full_like(x, 0.5))
        assert got == pytest.approx(1.0 / 12.0, abs=2e-3)

    def test_shape_mismatch(self):
        with pytest.raises(metrics.MetricsError):
            metrics.empirical_mse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestMoments:
    def test_uniform_structure(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(200_000, 3))
        ds = Dataset(x=x, y=np.zeros(x.shape[0], dtype=int), k=2,
                     feature_names=list("abc"))
        mom = metrics.moments(ds)
        assert np.allclose(np.diag(mom.k0), 1.0 / 3.0, atol=3e-3)
        off = mom.k0[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.25, atol=3e-3)
        assert np.allclose(np.diag(mom.k_mu), x.var(axis=0))

    def test_constant_half_feature(self):
        x = np.column_stack([np.full(50, 0.5), np.linspace(0, 1, 50)])
        ds = Dataset(x=x, y=np.zeros(50, dtype=int), k=2,
                     feature_names=["a", "b"])
        mom = metrics.moments(ds)
        assert mom.k_half[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_empty_dataset_rejected(self):
        ds = Dataset(x=np.zeros((0, 2)), y=np.zeros(0, dtype=int), k=2, feature_names=["a", "b"])
        with pytest.raises(metrics.MetricsError, match="^empty dataset$"):
            metrics.moments(ds)

    @pytest.mark.parametrize("name", ["k0", "k_half", "k_mu"])
    def test_moment_matrix_must_be_psd(self, name):
        given = {"k0": np.eye(2), "k_half": np.eye(2), "k_mu": np.eye(2), "mu": [0.5, 0.5]}
        given[name] = np.diag([1.0, -1e-6])
        with pytest.raises(metrics.MetricsError, match=f"^{name} is not positive semidefinite$"):
            metrics.MomentMatrices(**given)

    def test_feature_subset(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(40, 4))
        ds = Dataset(x=x, y=np.zeros(40, dtype=int), k=2,
                     feature_names=list("abcd"))
        mom = metrics.moments(ds, feature_subset=[1, 3])
        assert mom.k0.shape == (2, 2)
        assert np.allclose(mom.mu, x[:, [1, 3]].mean(axis=0))


class TestClosedForms:
    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        d, m = 5, 2
        a = rng.standard_normal((m, d))
        x = rng.uniform(size=(100, d))
        ds = Dataset(x=x, y=np.zeros(100, dtype=int), k=2,
                     feature_names=[f"f{i}" for i in range(d)])
        return a, x, metrics.moments(ds)

    def test_identity_with_empirical(self):
        # the closed forms equal the empirical MSE of the matching estimators
        a, x, mom = self._instance(4)
        sys0 = LinearSystem(a=a, b=a @ x[0])
        reports = metrics.closed_form_mse(sys0, mom)
        proj = sys0.projector
        d = 5
        emp_ls, emp_hs = [], []
        for row in x:
            sys_ = LinearSystem(a=a, b=a @ row)
            ls = sys_.min_norm_solution
            hs = ls + 0.5 * proj @ np.ones(d)
            emp_ls.append(np.sum((row - ls) ** 2))
            emp_hs.append(np.sum((row - hs) ** 2))
        assert reports["ls"].closed_form == pytest.approx(
            np.mean(emp_ls) / d, abs=1e-6)
        assert reports["half_star"].closed_form == pytest.approx(
            np.mean(emp_hs) / d, abs=1e-6)

    def test_sandwich_and_mu_bound(self):
        for seed in range(10):
            a, x, mom = self._instance(seed + 10)
            sys_ = LinearSystem(a=a, b=a @ x[0])
            reports = metrics.closed_form_mse(sys_, mom)
            for r in reports.values():
                assert r.lower - 1e-9 <= r.closed_form <= r.upper + 1e-9
                assert r.mu_lower <= r.closed_form + 1e-9

    def test_determined_system_all_zero(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((6, 3))  # full column rank
        x = rng.uniform(size=(50, 3))
        ds = Dataset(x=x, y=np.zeros(50, dtype=int), k=2,
                     feature_names=list("abc"))
        sys_ = LinearSystem(a=a, b=a @ x[0])
        reports = metrics.closed_form_mse(sys_, metrics.moments(ds))
        for r in reports.values():
            assert abs(r.closed_form) < 1e-12

    def test_closed_form_outside_its_bracket_rejected(self):
        with pytest.raises(metrics.MetricsError,
                           match=r"^ls: closed form 2.0 escapes \[0.0, 1.0\]$"):
            metrics.MseReport(attack="ls", d=2, closed_form=2.0, lower=0.0, upper=1.0,
                              mu_lower=0.0)

    def test_zero_matrix_traces(self):
        x = np.random.default_rng(21).uniform(size=(50, 3))
        ds = Dataset(x=x, y=np.zeros(50, dtype=int), k=2,
                     feature_names=list("abc"))
        mom = metrics.moments(ds)
        sys_ = LinearSystem(a=np.zeros((1, 3)), b=np.zeros(1))
        reports = metrics.closed_form_mse(sys_, mom)
        assert reports["ls"].closed_form == pytest.approx(np.trace(mom.k0) / 3)
        # projector = I: bounds collapse onto the closed form
        assert reports["ls"].lower == pytest.approx(reports["ls"].upper)


def _one_moment(k):
    """Moment matrices holding the one PSD matrix k in every slot."""
    return metrics.MomentMatrices(k0=k, k_half=k, k_mu=k, mu=np.zeros(len(k)))


class TestClosedFormBounds:
    """closed_form_mse's bounds, over d: the sums of K's p smallest and p
    largest eigenvalues, p the nullity of A (von Neumann's trace inequality
    on the nullspace projector, whose eigenvalues are p ones and d - p zeros)."""

    @staticmethod
    def _draw(seed):
        """(rng, d, K) with d in 2..7 and K = B B^T of a random rank."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 8))
        b = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        return rng, d, b @ b.T

    @pytest.mark.parametrize("a, k, want", [
        # (closed form, lower, upper) over d = 2, nullspace e2, e1, (1, -1)/sqrt 2, none
        ([[1.0, 0.0]], [2.0, 1.0], (0.5, 0.5, 1.0)),
        ([[0.0, 1.0]], [2.0, 1.0], (1.0, 0.5, 1.0)),
        ([[1.0, 1.0]], [3.0, 0.0], (0.75, 0.0, 1.5)),
        ([[1.0, 0.0], [0.0, 1.0]], [2.0, 1.0], (0.0, 0.0, 0.0)),
    ])
    def test_worked_values(self, a, k, want):
        a = np.array(a)
        r = metrics.closed_form_mse(LinearSystem(a=a, b=np.zeros(len(a))),
                                    _one_moment(np.diag(k)))["ls"]
        assert r.closed_form == pytest.approx(want[0], rel=1e-15)
        assert (r.lower, r.upper) == want[1:]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_bracket_the_closed_form(self, seed):
        rng, d, k = self._draw(seed)
        a = rng.standard_normal((int(rng.integers(1, d + 2)), d))
        for r in metrics.closed_form_mse(LinearSystem(a=a, b=a @ rng.uniform(size=d)),
                                         _one_moment(k)).values():
            assert r.lower - 1e-12 <= r.closed_form <= r.upper + 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tight_where_k_is_diagonal_in_the_nullspace_basis(self, seed):
        # K = Q diag(ev) Q^T with ev ascending; a nullspace spanned by Q's
        # first (last) p columns attains the lower (upper) bound
        rng, d, _ = self._draw(seed)
        p = int(rng.integers(1, d))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        ev = np.sort(rng.uniform(0.0, 2.0, size=d))
        mom = _one_moment((q * ev) @ q.T)
        for rows, bound in ((q[:, p:], "lower"), (q[:, :d - p], "upper")):
            a = rng.standard_normal((d - p, d - p)) @ rows.T
            r = metrics.closed_form_mse(LinearSystem(a=a, b=np.zeros(d - p)), mom)["ls"]
            assert r.closed_form == pytest.approx(getattr(r, bound), rel=1e-12, abs=1e-15)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_no_bound_is_below_zero(self, seed):
        # a singular K's zero eigenvalues come out of eigvalsh as noise of
        # either sign; a nullspace of at most that many directions sums them
        rng, d, _ = self._draw(seed)
        v = rng.standard_normal((d, 1))
        a = rng.standard_normal((int(rng.integers(1, d + 1)), d))
        for r in metrics.closed_form_mse(LinearSystem(a=a, b=np.zeros(len(a))),
                                         _one_moment(v @ v.T)).values():
            assert r.lower >= 0.0 and r.upper >= 0.0


class TestDivergences:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert metrics.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
        assert oracles.total_variation(p, p) == 0.0

    def test_one_bit(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert metrics.kl_divergence(p, q) == pytest.approx(1.0)
        assert oracles.total_variation(p, q) == pytest.approx(0.5)

    def test_cross_entropy_decomposition(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        entropy = -np.sum(p * np.log2(p))
        assert oracles.cross_entropy(p, q) == pytest.approx(
            entropy + metrics.kl_divergence(p, q))

    @given(st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_kl_nonnegative_tv_in_range(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert metrics.kl_divergence(p, q) >= 0.0
        assert 0.0 <= oracles.total_variation(p, q) <= 1.0

    def test_rejects_non_probability(self):
        with pytest.raises(metrics.MetricsError):
            metrics.kl_divergence([0.5, 0.9], [0.5, 0.5])

    def test_a_release_of_the_clean_scores_reads_exactly_zero(self):
        # the first 39 test rows of window 0 at d = 6 of the CLI's k = 4 model
        # (--synth-n 1500 --seed 2): two scores lie under EPS_CLIP, and with
        # only q clipped their mean KL read -1.47e-14 bits
        ds = synthesize(SyntheticSpec(n=1500, d_t=10, k=4, seed=2))
        model = train(ds, VflSplit.contiguous(10, 0, 10), TrainConfig(seed=2)).window(
            VflSplit.contiguous(10, 0, 6))
        rows = np.flatnonzero(ds.test_mask)[:39]
        c = predict(model, ds.x[np.ix_(rows, model.split.active)],
                    ds.x[np.ix_(rows, model.split.passive)])
        assert np.count_nonzero(c < metrics.EPS_CLIP) == 2
        assert np.array_equal(metrics.kl_divergence(c, c), np.zeros(39))
        zeros = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.3, 1e-300, 0.7]])
        assert np.array_equal(metrics.kl_divergence(zeros, zeros), np.zeros(3))
        assert metrics.kl_divergence(zeros[2], zeros[2]) == 0.0

    def test_the_clip_makes_no_term_negative(self):
        # q under p, both under EPS_CLIP: q rises to p, not above it
        p, q = np.array([1.0 - 1e-13, 1e-13]), np.array([1.0 - 1e-13, 0.0])
        assert metrics.kl_divergence(p, q) == 0.0
        # q_j < p_j < EPS_CLIP: the floor drops the last term's positive part
        # while the middle one stays negative; the sum, -7.2e-14 unraised,
        # reads 0 (the exact D is +2.8e-14)
        p = np.array([0.5, 0.5 - 1e-13, 1e-13])
        assert metrics.kl_divergence(p, [0.5, 0.5 - 0.5e-13, 0.5e-13]) == 0.0
        # a q at or above EPS_CLIP keeps its plain term
        assert metrics.kl_divergence([0.5, 0.5], [0.75, 0.25]) == 0.5 * np.log2(0.5 / 0.75) + (
            0.5 * np.log2(0.5 / 0.25))


class TestBatchedDivergences:
    def _pairs(self):
        rng = np.random.default_rng(41)
        p = rng.dirichlet(np.ones(5), size=30)
        p[::4, 2] = 0.0                      # zero terms contribute nothing
        p /= p.sum(axis=1, keepdims=True)
        return p, rng.dirichlet(np.ones(5), size=30)

    def test_kl_rows_match_scalar_calls(self):
        p, q = self._pairs()
        batched = metrics.kl_divergence(p, q)
        rows = np.array([metrics.kl_divergence(a, b) for a, b in zip(p, q)])
        assert batched.shape == (30,)
        np.testing.assert_allclose(batched, rows, rtol=1e-15, atol=0.0)

    def test_one_pair_stays_a_float(self):
        p, q = self._pairs()
        for fn in (metrics.kl_divergence, oracles.total_variation,
                   oracles.cross_entropy):
            assert type(fn(p[0], q[0])) is float
            np.testing.assert_allclose(fn(p, q)[3], fn(p[3], q[3]), rtol=1e-15)

    @pytest.mark.parametrize("value", [1.2, np.nan])
    def test_one_invalid_row_raises(self, value):
        p, q = self._pairs()
        q[7, 1] = value
        with pytest.raises(metrics.MetricsError, match="row 7"):
            metrics.kl_divergence(p, q)
        with pytest.raises(metrics.MetricsError):
            metrics.kl_divergence(q[7], p[7])

    def test_shape_mismatch_raises(self):
        p, q = self._pairs()
        with pytest.raises(metrics.MetricsError):
            metrics.kl_divergence(p, q[0])

    @pytest.mark.parametrize("p, q, message", [
        ([1.0], [1.0], r"p must be k or N x k with k >= 2, got \(1,\)"),
        ([0.5, 0.5], np.full((1, 1, 2), 0.5),
         r"q must be k or N x k with k >= 2, got \(1, 1, 2\)")])
    def test_not_k_or_n_by_k_raises(self, p, q, message):
        with pytest.raises(metrics.MetricsError, match=f"^{message}$"):
            metrics.kl_divergence(p, q)


class TestAverageOverSpace:
    @pytest.fixture()
    def tiny(self):
        return synthesize(SyntheticSpec(n=120, d_t=3, k=2, seed=9))

    @pytest.fixture()
    def model(self, tiny):
        return train(tiny, VflSplit.contiguous(3, 0, 3), TrainConfig(lam=0.1, seed=0))

    def test_full_width_single_window(self, tiny, model):
        avg = metrics.average_over_space(model, tiny, 3, ["half"], n_pred=10,
                                         seed=0)["half"]
        # half ignores the model, so every window gives the same numbers
        rows = np.flatnonzero(tiny.test_mask)[:10]
        [direct] = metrics.attack_mse_on_rows(model, [model.split], tiny, rows, ["half"],
                                              0)["half"]
        assert avg == pytest.approx(direct, abs=1e-12)

    def test_dimension_guard(self, tiny, model):
        with pytest.raises(metrics.MetricsError):
            metrics.average_over_space(model, tiny, 4, ["half"])

    def test_windows_cover_all_starts(self, tiny, model, monkeypatch):
        # d=1, d_t=3: each feature serves as the passive window exactly once,
        # with the window's own generator; the three splits of the one model
        # go through one stacked call
        names, seen = ["rg", "ls", "half_star"], []
        real = metrics.attack_mse_on_rows

        def recording(m, splits, *args, **kw):
            seen.append((m, splits, real(m, splits, *args, **kw)))
            return seen[-1][2]
        monkeypatch.setattr(metrics, "attack_mse_on_rows", recording)
        avg = metrics.average_over_space(model, tiny, 1, names, n_pred=8, seed=4)
        [(m, splits, got)] = seen
        assert m is model
        assert splits == [VflSplit.contiguous(3, s, 1) for s in range(3)]
        rows = np.flatnonzero(tiny.test_mask)[:8]
        for start, split in enumerate(splits):
            want = real(model, [split], tiny, rows, names, 4 + start)
            assert {name: got[name][start] for name in names} == {
                name: want[name][0] for name in names}      # bit for bit
        assert avg == {name: float(np.mean([got[name][s] for s in range(3)]))
                       for name in names}


def _splits(model, d):
    return [VflSplit.contiguous(model.split.d_t, s, d) for s in range(model.split.d_t)]


def _random_model(k, d_t, seed, scale=2.0):
    """A table model (every feature passive) with random weights."""
    rng = np.random.default_rng(seed)
    return VflModel(w_act=np.zeros((k, 0)), w_pas=scale * rng.standard_normal((k, d_t)),
                    b=rng.standard_normal(k), k=k, split=VflSplit.contiguous(d_t, 0, d_t))


class TestStackedSweep:
    """All d_t windows as one stacked system give each window's MSE bit for
    bit as the window gets it alone, in a stack of one, with its own generator."""

    def _check(self, model, ds, d, names, init="half", seed=3, n=6):
        rows = np.flatnonzero(ds.test_mask)[:n]
        splits = _splits(model, d)
        got = metrics.attack_mse_on_rows(model, splits, ds, rows, names, seed, init=init)
        for start, split in enumerate(splits):
            want = metrics.attack_mse_on_rows(model, [split], ds, rows, names, seed + start,
                                              init=init)
            assert {name: got[name][start] for name in names} == {
                name: want[name][0] for name in names}, (d, start)
        if init == "half":          # average_over_space's init
            avg = metrics.average_over_space(model, ds, d, names, n_pred=n, seed=seed)
            assert avg == {name: float(np.mean(got[name])) for name in names}

    # gia from its random start draws from the seed, as rg does
    @pytest.mark.parametrize("init", ["half", "random"])
    @pytest.mark.parametrize("k,d_t", [(2, 5), (4, 5), (9, 4)])
    def test_every_attack_and_d(self, k, d_t, init):
        ds = synthesize(SyntheticSpec(n=60, d_t=d_t, k=k, seed=k))
        model = _random_model(k, d_t, seed=k)
        for d in range(1, d_t + 1):
            self._check(model, ds, d, list(ATTACKS), init=init)

    def test_trained_model(self):
        ds = synthesize(SyntheticSpec(n=200, d_t=5, k=2, seed=11))
        model = train(ds, VflSplit.contiguous(5, 0, 5), TrainConfig(seed=11))
        for d in (1, 2, 4, 5):
            self._check(model, ds, d, list(ATTACKS), n=20)

    def test_ranks_differ_across_windows(self):
        # feature 2 weighs both classes alike, so at d = 1 its window has
        # A = 0 (rank 0) and the other windows rank 1
        ds = synthesize(SyntheticSpec(n=60, d_t=4, k=2, seed=7))
        model = _random_model(2, 4, seed=7)
        model.w_pas[1, 2] = model.w_pas[0, 2]
        rows = np.flatnonzero(ds.test_mask)[:6]
        ranks = []
        for view in map(model.window, _splits(model, 1)):
            y_act = ds.x[np.ix_(rows, view.split.active)]
            x_pas = ds.x[np.ix_(rows, view.split.passive)]
            ranks.append(build_system(view, y_act, predict(view, y_act, x_pas)).svd.rank())
        assert ranks == [1, 1, 0, 1]
        self._check(model, ds, 1, list(ATTACKS))
        self._check(model, ds, 2, list(ATTACKS))

    def test_one_predict_and_build_system_per_d(self, monkeypatch):
        ds = synthesize(SyntheticSpec(n=60, d_t=4, k=3, seed=2))
        model = _random_model(3, 4, seed=2)
        calls = {"predict": [], "build_system": [], "run_attack": []}
        for name, seen in calls.items():
            real = getattr(metrics, name)
            monkeypatch.setattr(metrics, name, lambda *a, real=real, seen=seen, **kw:
                                seen.append(a[0]) or real(*a, **kw))
        metrics.average_over_space(model, ds, 2, ["half", "rg", "ls", "cls"], n_pred=5)
        assert [m.w_pas.shape for m in calls["predict"]] == [(4, 3, 2)]
        assert [m.w_pas.shape for m in calls["build_system"]] == [(4, 3, 2)]
        # every estimator once on the stack
        assert calls["run_attack"] == ["half", "rg", "ls", "cls"]

    def test_one_window_call_per_stack(self, monkeypatch):
        # the weights go to column order once per call; the windows are
        # gathers of that, not views of the model
        ds = synthesize(SyntheticSpec(n=60, d_t=4, k=3, seed=2))
        model = _random_model(3, 4, seed=2)
        real, seen = VflModel.window, []
        monkeypatch.setattr(VflModel, "window",
                            lambda self, split: seen.append(split) or real(self, split))
        metrics.average_over_space(model, ds, 2, ["half", "rg"], n_pred=5)
        metrics.attack_mse_on_rows(model, [VflSplit.contiguous(4, 1, 3)], ds,
                                   np.flatnonzero(ds.test_mask)[:5], ["ls", "cls"], 0)
        assert seen == [VflSplit.contiguous(4, 0, 4)] * 2


class TestWindowFailures:
    """A failure in a window, or in the stack, names the window and its rows."""

    @pytest.fixture()
    def setup(self):
        ds = synthesize(SyntheticSpec(n=120, d_t=4, k=2, seed=9))
        return ds, _random_model(2, 4, seed=9), np.flatnonzero(ds.test_mask)[:5]

    def test_stack_names_the_window(self, setup):
        # every window sees the steep model's scores, some of which underflow;
        # the stacked build names the first such row in the first window of
        # the stack, by that window's start and its own row
        ds, model, rows = setup
        steep = VflModel(w_act=model.w_act, w_pas=150.0 * model.w_pas, b=model.b, k=2,
                         split=model.split)
        x = ds.x[rows]
        low = np.flatnonzero((predict(steep, x[:, []], x) < np.finfo(float).tiny).any(axis=-1))
        assert 0 < low[0]
        splits = [VflSplit.contiguous(4, s, 2) for s in (2, 3, 0, 1)]
        with pytest.raises(SystemError_, match=f"^row {low[0]} of window start=2 has "):
            metrics.attack_mse_on_rows(steep, splits, ds, rows, ["half"], 0)

    def test_stacked_solvers_name_the_window(self, monkeypatch):
        # cls and rcc1 each run once on the stack of six d = 4 windows.
        # Features 2 and 3 weigh every class alike, so the windows holding
        # both (starts 0, 1 and 2) have nullity 2 and the others 1: rcc1
        # solves the two nullities apart, each on the flat rows of its
        # windows, and names a failed row by its window
        from vflpriv import attacks
        ds = synthesize(SyntheticSpec(n=120, d_t=6, k=4, seed=9))
        model = _random_model(4, 6, seed=9)
        model.w_pas[:, 2:4] = model.w_pas[0, 2:4]
        real_sdp, bases = attacks._rcc1_pd_solve, []
        monkeypatch.setattr(numerics, "_LSQ_MAX_ITER", 0)

        def recorded(w, c):
            bases.append(w.shape)
            return real_sdp(w, c)
        monkeypatch.setattr(attacks, "_rcc1_pd_solve", recorded)
        monkeypatch.setattr(attacks, "_RCC1_MAX_ITER", 8)
        # every row takes one Newton step, so a cap of 0 names all 30
        windows = ", ".join(rf"\[0, 1, 2, 3, 4\] of window start={s}" for s in range(6))
        with pytest.raises(numerics.NumericsError, match=(
                rf"^box least squares hit the iteration cap on 30 of 30 rows; rows {windows}; "
                r"residual( \S+){30}$")):
            metrics.average_over_space(model, ds, 4, ["half", "cls"], n_pred=5)
        with pytest.raises(AttackError, match=(
                r"^rcc1 rows \[2\] of window start=4 end with gaps \S+ above 1e-08 in at "
                r"most 8 steps$")):
            metrics.average_over_space(model, ds, 4, ["half", "rcc1"], n_pred=5)
        # each row's basis: the 15 rows of the three windows of each nullity
        assert bases == [(15, 4, 1), (15, 4, 2)]

    def test_rcc1_names_the_failing_rows_of_every_nullity(self):
        # a full-rank 2 x 3 system (nullity 1) stacked with a rank-1 one
        # (nullity 2), row 1 of each taken off the box: both planes miss the
        # box, and the one failure names both rows, each by its window
        w_pas = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
                          [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]])
        stack = VflModel(w_act=np.zeros((2, 3, 0)), w_pas=w_pas, b=np.zeros(3), k=3,
                         split=VflSplit.contiguous(3, 0, 3))
        x_pas = np.random.default_rng(0).uniform(size=(2, 4, 3))
        x_pas[:, 1] = 5.0
        y_act = np.zeros((2, 4, 0))
        c = predict(stack, y_act, x_pas)
        sys_ = build_system(stack, y_act, c)
        assert sys_.nullity.tolist() == [1, 2]
        with pytest.raises(AttackError, match=(
                r"^rcc1 rows \[1, 5\] end with gaps \S+ \S+ above 1e-08 in at most 50 "
                r"steps$")):
            run_attack("rcc1", sys_)
        with pytest.raises(AttackError, match=(
                r"^rcc1 rows \[1\] of full rank, \[1\] of rank 1 end with gaps \S+ \S+ "
                r"above 1e-08 in at most 50 steps$")):
            metrics.stack_mse(stack, y_act, c, x_pas, ["rcc1"], ["full rank", "rank 1"], 0,
                              "half", "clean")

    def test_stacked_attack_names_the_window(self, setup, monkeypatch):
        # gia runs once on the stack of 5-row windows: its flat row 7 is
        # row 2 of the second window
        from vflpriv import attacks

        def fail(sys_, **kw):
            raise AttackError("gia {rows} did not converge", [7])
        monkeypatch.setattr(attacks, "attack_gia", fail)
        ds, model, rows = setup
        with pytest.raises(AttackError, match=r"^gia rows \[2\] of window start=1 did "):
            metrics.average_over_space(model, ds, 2, ["half", "gia"], n_pred=5)

    # ROADMAP item 2: rcc1 needs the row's face, not only b*
    @pytest.mark.xfail(strict=True, raises=AttackError,
                       reason="rcc1 fails a clean row whose set is a segment on a box face")
    def test_rcc1_clean_row_on_a_box_face(self):
        # feature 2 weighs both classes alike, a zero column of A; in the
        # d = 2 window {1, 2}, test row 4 has feature 1 at exactly 0.0, so
        # its solution set lies on that face of the box and rcc1's
        # relaxation has no interior there
        ds = synthesize(SyntheticSpec(n=60, d_t=4, k=2, seed=5))
        model = _random_model(2, 4, seed=5)
        model.w_pas[1, 2] = model.w_pas[0, 2]
        rows = np.flatnonzero(ds.test_mask)
        assert rows.size == 12 and ds.x[rows[4], 1] == 0.0
        mse = metrics.attack_mse_on_rows(model, [VflSplit.contiguous(4, 1, 2)], ds, rows,
                                         ["rcc1"], 0)
        assert np.isfinite(mse["rcc1"][0])


class TestAttackMseOnRows:
    NAMES = ["rg", "half", "ls", "half_star", "rcc2", "gia"]

    @pytest.fixture(scope="class")
    def setup(self):
        ds = synthesize(SyntheticSpec(n=200, d_t=6, k=3, seed=4))
        model = train(ds, VflSplit.contiguous(6, 1, 3), TrainConfig(seed=4))
        return ds, model, np.flatnonzero(ds.test_mask)[:4]

    def test_one_system_for_every_attack(self, setup, monkeypatch):
        ds, model, rows = setup
        calls = {"predict": [], "build_system": []}
        for name, seen in calls.items():
            real = getattr(metrics, name)
            monkeypatch.setattr(metrics, name, lambda *a, real=real, seen=seen, **kw:
                                seen.append(1) or real(*a, **kw))
        # rg and gia's random starts each draw from the seed
        got = metrics.attack_mse_on_rows(model, [model.split], ds, rows, self.NAMES, 7,
                                         init="random")
        assert {name: len(seen) for name, seen in calls.items()} == {
            "predict": 1, "build_system": 1}
        assert list(got) == self.NAMES
        assert all(got[name].shape == (1,) for name in self.NAMES)

        y_act = ds.x[np.ix_(rows, model.split.active)]
        x_pas = ds.x[np.ix_(rows, model.split.passive)]
        c = predict(model, y_act, x_pas)
        sys_ = build_system(model, y_act, c)
        for name in self.NAMES:
            est = run_attack(name, sys_, seed=7, init="random")
            assert got[name][0] == metrics.empirical_mse(x_pas, est.x_hat), name

    def test_drawing_estimators_ignore_their_neighbours(self, setup):
        # rg and random-start gia on every d = 3 window read the same in any
        # order and beside any estimator as when listed alone
        ds, model, rows = setup
        splits = [VflSplit.contiguous(6, s, 3) for s in range(6)]

        def score(names):
            return metrics.attack_mse_on_rows(model, splits, ds, rows, names, 7,
                                              init="random")
        solo = {name: score([name])[name] for name in ("rg", "gia")}
        for names in (["rg", "gia"], ["gia", "rg"], ["half", "gia", "cls", "rg"]):
            got = score(names)
            for name in solo:
                assert np.array_equal(got[name], solo[name]), (names, name)

    @pytest.mark.parametrize("splits, named", [
        ([], "[]"),
        ([VflSplit.contiguous(6, 0, 3), VflSplit.contiguous(6, 1, 2)],
         "[[0, 1, 2] of 6; [1, 2] of 6]"),
        ([VflSplit.contiguous(5, 0, 3)], "[[0, 1, 2] of 5]"),
    ])
    def test_bad_splits_named(self, setup, splits, named):
        # empty, of mixed d, or over another feature count
        ds, model, rows = setup
        with pytest.raises(metrics.MetricsError, match=re.escape(
                f"need window splits of one d over the model's 6 features, got {named}")):
            metrics.attack_mse_on_rows(model, splits, ds, rows, ["half"], 0)

    def test_repeated_name_rejected(self, setup):
        ds, model, rows = setup
        with pytest.raises(metrics.MetricsError, match="repeat"):
            metrics.attack_mse_on_rows(model, [model.split], ds, rows, ["half", "ls", "half"],
                                       0)

    @pytest.mark.parametrize("rows", [[], [[0, 1]]])
    def test_rows_must_be_a_non_empty_list(self, setup, rows):
        ds, model, _ = setup
        with pytest.raises(metrics.MetricsError, match="^need a non-empty list of sample rows$"):
            metrics.attack_mse_on_rows(model, [model.split], ds, rows, ["half"], 0)


class TestEmission:
    def test_json(self, tmp_path):
        import json
        path = tmp_path / "out.json"
        oracles.write_json(path, {"x": 1.5})
        assert json.loads(path.read_text()) == {"x": 1.5}
