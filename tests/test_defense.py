import numpy as np
import pytest

import oracles
from vflpriv import defense
from vflpriv.attacks import attack_half_star, attack_ls
from vflpriv.dataset import Dataset, normalize
from vflpriv.model import VflModel, VflSplit, predict, softmax
from vflpriv.system import LinearSystem, build_system, difference_matrix


def _random_model(seed, d_t=8, d=4, k=3):
    rng = np.random.default_rng(seed)
    split = VflSplit.contiguous(d_t, 0, d)
    return VflModel(w_act=rng.standard_normal((k, d_t - d)),
                    w_pas=rng.standard_normal((k, d)),
                    b=rng.standard_normal(k), k=k, split=split)


def _system_of(model, y_act, x_pas):
    c = predict(model, y_act, x_pas)
    return build_system(model, y_act, c), c


class TestOrthonormalTransform:
    def test_validation(self):
        with pytest.raises(ValueError):
            defense.OrthonormalTransform(h=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            defense.OrthonormalTransform(h=np.ones((2, 3)))

    def test_neg_identity(self):
        t = defense.OrthonormalTransform.neg_identity(3)
        assert np.array_equal(t.h, -np.eye(3))
        x = np.array([0.2, 0.5, 0.9])
        assert np.array_equal(t.h @ x, -x)


class TestPps1:
    def test_revealed_params_keep_logits(self):
        model = _random_model(0)
        rng = np.random.default_rng(1)
        h = defense.OrthonormalTransform(
            h=np.linalg.qr(rng.standard_normal((4, 4)))[0])
        revealed = defense.pps1_reveal_params(model, h)
        x = rng.uniform(size=4)
        y = rng.uniform(size=4)
        z_orig = model.logits(y, x)
        z_revealed = revealed.logits(y, h.h @ x)
        assert np.allclose(z_orig, z_revealed, atol=1e-12)

    def test_neg_identity_is_one_minus_x(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(50, 3))
        x[0] = 0.0
        x[1] = 1.0   # pin the per-feature span to [0, 1]
        ds = Dataset(x=x, y=np.arange(50) % 2, k=2,
                     feature_names=["a", "b", "c"])
        res = defense.pps1_transform(ds, defense.OrthonormalTransform.neg_identity(3))
        assert np.allclose(res.dataset.x, 1.0 - x, atol=1e-12)
        assert np.allclose(res.scale, 1.0)
        assert np.allclose(res.offset, -1.0)

    def test_scale_and_offset_are_normalize_of_the_block(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(30, 5))
        ds = Dataset(x=x, y=np.arange(30) % 2, k=2, feature_names=list("abcde"),
                     train_mask=np.arange(30) < 20)
        h = defense.OrthonormalTransform(h=np.linalg.qr(rng.standard_normal((3, 3)))[0])
        res = defense.pps1_transform(ds, h, (4, 0, 2))
        block, lo, span = normalize(x[:, [4, 0, 2]] @ h.h.T)
        assert np.array_equal(res.scale, span) and np.array_equal(res.offset, lo)
        assert np.array_equal(res.dataset.x[:, [4, 0, 2]], block)
        assert np.array_equal(res.dataset.x[:, [1, 3]], x[:, [1, 3]])
        assert np.array_equal(res.dataset.train_mask, ds.train_mask)

    def test_passive_block_must_match_h(self):
        ds = Dataset(x=np.full((4, 3), 0.5), y=np.arange(4) % 2, k=2, feature_names=list("abc"))
        with pytest.raises(ValueError, match="^H size must match the passive feature count$"):
            defense.pps1_transform(ds, defense.OrthonormalTransform.neg_identity(3), (0, 1))

    def test_renormalized_reveal_consistent(self):
        model = _random_model(3, d_t=4, d=4)
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(40, 4))
        ds = Dataset(x=x, y=np.arange(40) % 3, k=3,
                     feature_names=list("abcd"))
        h = defense.OrthonormalTransform(
            h=np.linalg.qr(rng.standard_normal((4, 4)))[0])
        res = defense.pps1_transform(ds, h)
        revealed = defense.pps1_reveal_params_renormalized(model, res)
        y = np.zeros(0)
        for i in range(5):
            z_orig = model.w_pas @ x[i] + model.b
            z_new = revealed.w_pas @ res.dataset.x[i] + revealed.b
            assert np.allclose(z_orig, z_new, atol=1e-9)

    def test_optimal_h_maximizes_objective(self):
        model = _random_model(5)
        rng = np.random.default_rng(6)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=4))
        x = rng.uniform(size=(200, 4))
        k0 = x.T @ x / 200
        h_star = defense.pps1_optimal_h(sys_, k0)
        f_star = oracles.pps1_h_objective(sys_, k0, h_star.h)
        for _ in range(20):
            h_rand = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            assert f_star >= oracles.pps1_h_objective(sys_, k0, h_rand) - 1e-9

    def test_optimal_h_closed_form_value(self):
        # objective at the optimum: Tr((I + A^+A) K0) + 2 ||A^+A K0||_*
        model = _random_model(7)
        rng = np.random.default_rng(8)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=4))
        x = rng.uniform(size=(200, 4))
        k0 = x.T @ x / 200
        h_star = defense.pps1_optimal_h(sys_, k0)
        proj = sys_.pinv @ sys_.a
        want = (np.trace((np.eye(4) + proj) @ k0)
                + 2.0 * np.sum(np.linalg.svd(proj @ k0, compute_uv=False)))
        assert oracles.pps1_h_objective(sys_, k0, h_star.h) == pytest.approx(want)

    def test_optimal_h_collapses_to_neg_identity_when_determined(self):
        # more classes than passive features: A^+A = I and H* = -I
        model = _random_model(9, d_t=6, d=2, k=4)
        rng = np.random.default_rng(10)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=2))
        x = rng.uniform(size=(100, 2))
        k0 = x.T @ x / 100
        h_star = defense.pps1_optimal_h(sys_, k0)
        assert np.allclose(h_star.h, -np.eye(2), atol=1e-8)


class TestPps2Direction:
    def test_v1_is_top_singular_vector(self):
        model = _random_model(11)
        rng = np.random.default_rng(12)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=4))
        plan = defense.pps2_optimal_direction(sys_, 1.0)
        apj = sys_.pinv @ difference_matrix(model.k)
        sigma1 = np.linalg.svd(apj, compute_uv=False)[0]
        val = oracles.pps2_objective(sys_, np.outer(plan.v1, plan.v1))
        assert val == pytest.approx(sigma1 ** 2, abs=1e-10)

    @pytest.mark.parametrize("v1", [[1.0, 1.0], [0.6, 0.8 + 1e-9]])
    def test_plan_direction_must_be_unit(self, v1):
        with pytest.raises(ValueError, match="^v1 must be unit norm$"):
            defense.NoisePlan(1.0, np.array(v1))

    def test_dominates_random_psd(self):
        model = _random_model(13)
        rng = np.random.default_rng(14)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=4))
        alpha = 2.0
        plan = defense.pps2_optimal_direction(sys_, alpha)
        best = oracles.pps2_objective(sys_, alpha * np.outer(plan.v1, plan.v1))
        k = model.k
        for _ in range(50):
            b = rng.standard_normal((k, k))
            s = b @ b.T
            s *= alpha / np.trace(s)
            assert oracles.pps2_objective(sys_, s) <= best + 1e-8

    def test_noise_realization_budget(self):
        model = _random_model(15)
        rng = np.random.default_rng(16)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=4))
        plan = defense.pps2_optimal_direction(sys_, 3.0)
        n = oracles.noise_realization(plan, rng)
        assert np.linalg.norm(n) ** 2 == pytest.approx(3.0)

    def test_mse_under_noise_matches_row_identity(self):
        # with S = n n^T the closed form equals the exact per-row inflation
        model = _random_model(17)
        rng = np.random.default_rng(18)
        x_pas = rng.uniform(size=4)
        sys_, c = _system_of(model, rng.uniform(size=4), x_pas)
        plan = defense.pps2_optimal_direction(sys_, 0.5)
        n = oracles.noise_realization(plan, rng)
        y_act = rng.uniform(size=4)
        c = predict(model, y_act, x_pas)
        z = model.logits(y_act, x_pas)
        c_noisy = softmax(z + n)
        clean = build_system(model, y_act, c)
        noisy = build_system(model, y_act, c_noisy, source="noisy")
        shift = noisy.min_norm_solution - clean.min_norm_solution
        apj = clean.pinv @ difference_matrix(model.k)
        assert np.allclose(shift, apj @ n, atol=1e-8)
        k0 = np.eye(4) / 3.0
        d = 4
        base = oracles.mse_under_noise(clean, np.zeros((model.k, model.k)), k0)
        got = oracles.mse_under_noise(clean, np.outer(n, n), k0)
        assert got - base == pytest.approx(np.sum((apj @ n) ** 2) / d, abs=1e-10)


class TestSchemes:
    def _setup(self, seed):
        model = _random_model(seed)
        rng = np.random.default_rng(seed + 1)
        y_act = rng.uniform(size=4)
        x_pas = rng.uniform(size=4)
        z = model.logits(y_act, x_pas)
        sys_, c = _system_of(model, y_act, x_pas)
        return model, z, c, sys_

    def test_argmax_preserved_all_schemes(self):
        model, z, c, sys_ = self._setup(19)
        truth = int(np.argmax(z))
        for alpha in (0.1, 1.0, 10.0):
            plan = defense.pps2_optimal_direction(sys_, alpha)
            assert int(np.argmax(defense.pps2_scheme1(z, plan))) == truth
            c2 = defense.pps2_scheme2(z, plan)
            assert c2[truth] == c2.max()   # ties resolve toward the label
        for alpha in (0.1, 0.5, 0.9):
            assert int(np.argmax(defense.pps2_scheme3(z, alpha))) == truth
        for eps in (0.01, 0.1):
            assert int(np.argmax(defense.pps2_class_label(z, eps))) == truth

    def test_scheme3_zero_alpha_identity(self):
        _, z, c, _ = self._setup(20)
        assert np.allclose(defense.pps2_scheme3(z, 0.0), softmax(z))

    def test_scheme3_alpha_bounds(self):
        _, z, _, _ = self._setup(21)
        with pytest.raises(ValueError):
            defense.pps2_scheme3(z, 1.0)

    def test_class_label_values(self):
        _, z, _, _ = self._setup(22)
        out = defense.pps2_class_label(z, 0.05)
        k = z.size
        assert out.sum() == pytest.approx(1.0)
        assert np.sum(out == 0.05) == k - 1
        assert out.max() == pytest.approx(1.0 - (k - 1) * 0.05)

    def test_class_label_eps_bounds(self):
        _, z, _, _ = self._setup(23)
        with pytest.raises(ValueError):
            defense.pps2_class_label(z, 0.5)

    def test_outputs_are_probability_vectors(self):
        model, z, c, sys_ = self._setup(24)
        plan = defense.pps2_optimal_direction(sys_, 1.0)
        for out in (defense.pps2_scheme1(z, plan),
                    defense.pps2_scheme2(z, plan),
                    defense.pps2_scheme3(z, 0.3),
                    defense.pps2_class_label(z, 0.02)):
            assert out.sum() == pytest.approx(1.0)
            assert np.all(out >= 0.0)

    def test_dispatch(self):
        model, z, c, sys_ = self._setup(25)
        plan = defense.pps2_optimal_direction(sys_, 1.0)
        assert np.allclose(defense.apply_scheme(z, plan, "s1"),
                           defense.pps2_scheme1(z, plan))
        with pytest.raises(ValueError):
            defense.apply_scheme(z, plan, "bogus")


class TestDegradationIdentity:
    def test_neg_identity_delta_mse(self):
        # attacking the reparameterized model costs (4/d) Tr(A^+A K_half)
        model = _random_model(26, d_t=8, d=5, k=3)
        rng = np.random.default_rng(27)
        n = 300
        x = rng.uniform(size=(n, 5))
        y_act = rng.uniform(size=8 - 5)

        revealed = VflModel(w_act=model.w_act, w_pas=-model.w_pas,
                            b=model.b + model.w_pas @ np.ones(5),
                            k=model.k, split=model.split)
        deltas = {"ls": [], "half_star": []}
        proj_range = None
        for i in range(n):
            c = predict(model, y_act, x[i])
            clean = build_system(model, y_act, c)
            # the defender trained on 1 - x; scores are unchanged
            defended = build_system(revealed, y_act, c)
            if proj_range is None:
                proj_range = clean.pinv @ clean.a
            for name, fn in (("ls", attack_ls), ("half_star", attack_half_star)):
                e0 = np.sum((fn(clean).x_hat - x[i]) ** 2)
                e1 = np.sum((fn(defended).x_hat - x[i]) ** 2)
                deltas[name].append(e1 - e0)
        xc = x - 0.5
        k_half = xc.T @ xc / n
        want = 4.0 / 5 * float(np.trace(proj_range @ k_half))
        for name in ("ls", "half_star"):
            got = float(np.mean(deltas[name])) / 5
            assert got == pytest.approx(want, abs=1e-3), name


def _tied_logits():
    """k=4 logits for 8 rows; rows 0-2 tie at the top, row 3 ties everywhere."""
    rng = np.random.default_rng(31)
    z = rng.standard_normal((8, 4))
    z[:4] = [[1.5, 0.2, 1.5, -1.0],
             [0.0, 2.0, 2.0, 2.0],
             [-0.25, -1.0, -3.0, -0.25],
             [0.7, 0.7, 0.7, 0.7]]
    return z


class TestBatchedSchemes:
    @pytest.fixture()
    def plans(self):
        model = _random_model(32, d_t=10, d=6, k=4)
        rng = np.random.default_rng(33)
        sys_, _ = _system_of(model, rng.uniform(size=4), rng.uniform(size=6))
        plan = defense.pps2_optimal_direction(sys_, 1.0)
        return {"s1": plan, "s2": plan, "s3": 0.5, "class_label": 0.05}

    @pytest.mark.parametrize("scheme", ["s1", "s2", "s3", "class_label"])
    def test_batch_equals_row_by_row(self, scheme, plans):
        z = _tied_logits()
        batched = defense.apply_scheme(z, plans[scheme], scheme)
        rows = np.array([defense.apply_scheme(r, plans[scheme], scheme) for r in z])
        assert batched.shape == z.shape
        np.testing.assert_array_equal(batched, rows)
        # every row keeps its label, ties included
        label = np.argmax(z, axis=1)
        assert np.all(batched[np.arange(len(z)), label] == batched.max(axis=1))

    def test_ties_are_taken_per_row(self, plans):
        z = _tied_logits()
        out = defense.pps2_scheme2(z, plans["s2"])
        for r in range(4):
            tied = z[r] == z[r].max()
            assert tied.sum() >= 2
            assert np.all(out[r, tied] == out[r].max())

    def test_rejects_non_finite_rows(self):
        z = _tied_logits()
        z[5, 1] = np.nan
        with pytest.raises(ValueError):
            defense.apply_scheme(z, 0.5, "s3")

    @pytest.mark.parametrize("scheme", ["s1", "s2", "s3", "class_label"])
    def test_rejects_logits_with_three_axes(self, scheme, plans):
        # not one softmax over all 24 entries
        with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(2, 3, 4\)$"):
            defense.apply_scheme(np.zeros((2, 3, 4)), plans[scheme], scheme)


@pytest.mark.parametrize("helper", ["pps1_optimal_h", "pps2_optimal_direction",
                                    "closed_form_mse"])
def test_one_system_helpers_reject_a_stack(helper):
    from vflpriv import metrics
    rng = np.random.default_rng(34)
    stack = LinearSystem(a=rng.standard_normal((2, 2, 4)), b=rng.standard_normal((2, 3, 2)))
    mom = metrics.MomentMatrices(k0=np.eye(4), k_half=np.eye(4), k_mu=np.eye(4), mu=np.zeros(4))
    call = {"pps1_optimal_h": lambda: defense.pps1_optimal_h(stack, np.eye(4)),
            "pps2_optimal_direction": lambda: defense.pps2_optimal_direction(stack, 1.0),
            "closed_form_mse": lambda: metrics.closed_form_mse(stack, mom)}[helper]
    with pytest.raises(ValueError, match=rf"^{helper} takes one system, not a stack of "
                                         rf"shape \(2, 2, 4\)$"):
        call()
