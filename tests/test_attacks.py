import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vflpriv import attacks, numerics
from vflpriv.model import predict
from vflpriv.system import LinearSystem, SystemError_, build_system


def _system_with_truth(seed, d=4, m=2):
    rng = np.random.default_rng(seed)
    a, b, x_true = oracles.random_satisfiable_system(rng, d, m)
    return LinearSystem(a=a, b=b), x_true


class TestBaselines:
    def test_half_zero_rg(self):
        sys_ = LinearSystem(a=np.ones((1, 3)), b=[1.5])
        assert np.array_equal(attacks.attack_half(sys_).x_hat, [0.5, 0.5, 0.5])
        assert np.array_equal(attacks.attack_zero(sys_).x_hat, [0.0, 0.0, 0.0])
        r = attacks.attack_random(sys_, 0).x_hat
        assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_ls_min_norm(self):
        sys_, _ = _system_with_truth(1)
        est = attacks.attack_ls(sys_)
        assert np.allclose(sys_.a @ est.x_hat, sys_.b, atol=1e-9)
        # min-norm: orthogonal to the nullspace
        assert np.allclose(sys_.svd.nullspace().T @ est.x_hat, 0.0, atol=1e-9)

    def test_clamped_ls_in_box(self):
        sys_, _ = _system_with_truth(2, d=6, m=1)
        est = attacks.attack_clamped_ls(sys_)
        assert np.all(est.x_hat >= 0.0) and np.all(est.x_hat <= 1.0)


class TestBaselineFeasibility:
    """half, zero and rg report whether each row lies in its solution space."""

    A = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    POINTS = {"half": np.full(3, 0.5), "zero": np.zeros(3),
              "rg": np.random.default_rng(5).uniform(size=3)}

    @pytest.mark.parametrize("name", ["half", "zero", "rg"])
    @pytest.mark.parametrize("shift, feasible", [(0.0, True), (0.5, False)],
                             ids=["meets", "misses"])
    def test_feasible_iff_the_plane_meets_the_point(self, name, shift, feasible):
        sys_ = LinearSystem(a=self.A, b=self.A @ self.POINTS[name] + shift)
        est = attacks.run_attack(name, sys_, seed=5)
        assert np.array_equal(est.x_hat, self.POINTS[name])
        assert est.feasible is feasible

    @pytest.mark.parametrize("name", ["half", "zero"])
    def test_one_missed_row_makes_the_batch_infeasible(self, name):
        b = self.A @ self.POINTS[name]
        assert attacks.run_attack(name, LinearSystem(a=self.A, b=[b, b])).feasible
        assert not attacks.run_attack(name, LinearSystem(a=self.A, b=[b, b + 0.5])).feasible


class TestWorkedExamples:
    def test_half_worst_case(self):
        # a box corner is the farthest truth from the center: error d/4
        for d in (1, 3, 6):
            half = attacks.attack_half(LinearSystem(a=np.ones((1, d)), b=[0.5 * d])).x_hat
            assert np.sum((np.ones(d) - half) ** 2) == pytest.approx(d / 4)

    def test_ls_values(self):
        est = attacks.attack_ls(LinearSystem(a=np.array([[1.0, 1.0]]),
                                             b=np.array([0.8])))
        assert np.allclose(est.x_hat, [0.4, 0.4])
        est = attacks.attack_ls(LinearSystem(a=np.array([[1.0, -1.0]]),
                                             b=np.array([1.0])))
        assert np.allclose(est.x_hat, [0.5, -0.5])
        assert not est.feasible

    def test_clamped_ls_values(self):
        est = attacks.attack_clamped_ls(LinearSystem(a=np.array([[1.0, -1.0]]),
                                                     b=np.array([1.0])))
        assert np.allclose(est.x_hat, [0.5, 0.0])
        # clamping leaves the solution space: the point no longer solves Ax=b
        assert not est.feasible

    def test_half_star_values(self):
        est = attacks.attack_half_star(LinearSystem(a=np.array([[1.0, 0.0]]),
                                                    b=np.array([0.3])))
        assert np.allclose(est.x_hat, [0.3, 0.5])
        est = attacks.attack_half_star(LinearSystem(a=np.array([[2.0, 1.0]]),
                                                    b=np.array([0.2])))
        assert np.allclose(est.x_hat, [-0.02, 0.24])
        assert not est.feasible

    def test_rcc2_values(self):
        est = attacks.attack_rcc2(LinearSystem(a=np.array([[1.0, 1.0]]),
                                               b=np.array([0.4])))
        assert np.allclose(est.x_hat, [0.2, 0.2], atol=1e-8)
        est = attacks.attack_rcc2(LinearSystem(a=np.array([[2.0, 1.0]]),
                                               b=np.array([0.2])))
        assert np.allclose(est.x_hat, [0.0, 0.2], atol=1e-6)

    def test_rcc1_symmetric_value(self):
        est = attacks.attack_rcc1(LinearSystem(a=np.array([[1.0, 1.0]]),
                                               b=np.array([1.0])))
        assert np.allclose(est.x_hat, [0.5, 0.5], atol=1e-6)

    def test_cls_stays_on_segment(self):
        sys_ = LinearSystem(a=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        est = attacks.attack_cls(sys_)
        assert est.feasible
        assert np.allclose(sys_.a @ est.x_hat, sys_.b, atol=1e-6)


class TestDeterminedShortCircuit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))   # full column rank
        x_true = rng.uniform(0.1, 0.9, size=3)
        sys_ = LinearSystem(a=a, b=a @ x_true)
        for name in ("ls", "half_star", "cls", "rcc1", "rcc2"):
            est = attacks.run_attack(name, sys_)
            assert np.allclose(est.x_hat, x_true, atol=1e-9), name


class TestMinNormCache:
    """The min-norm solution is computed once per system, and no estimate
    hands out the cached array."""

    def test_computed_once(self, monkeypatch):
        from vflpriv import system
        sys_, _ = _system_with_truth(4)
        real, calls = system._rowwise, []
        monkeypatch.setattr(system, "_rowwise", lambda m, x: calls.append(m is sys_.pinv)
                            or real(m, x))
        for name in ("ls", "clamped_ls", "half_star", "rcc1", "rcc2"):
            attacks.run_attack(name, sys_)
        assert calls.count(True) == 1

    @pytest.mark.parametrize("name,a", [("ls", None), ("cls", "tall"), ("rcc1", "tall"),
                                        ("rcc2", "tall")])
    def test_writing_an_estimate_leaves_the_cache(self, name, a):
        # a tall A is determined: rcc1 and rcc2 return the min-norm solution,
        # cls its box least squares point
        sys_ = (_system_with_truth(5)[0] if a is None else
                LinearSystem(a=np.random.default_rng(6).standard_normal((5, 3)),
                             b=np.ones(5)))
        want = sys_.min_norm_solution.copy()
        est = attacks.run_attack(name, sys_)
        est.x_hat[...] = -7.0
        assert np.array_equal(sys_.min_norm_solution, want)
        assert np.array_equal(attacks.attack_ls(sys_).x_hat, want)


class TestHalfStar:
    def test_closest_solution_to_center(self):
        sys_, _ = _system_with_truth(4)
        est = attacks.attack_half_star(sys_)
        assert np.allclose(sys_.a @ est.x_hat, sys_.b, atol=1e-9)
        want = oracles.project_box_affine(np.full(sys_.d, 0.5), sys_.a, sys_.b)
        # when the affine projection already lands in the box they coincide
        if est.feasible:
            assert np.allclose(est.x_hat, want, atol=1e-5)

    def test_orthogonality_identity(self):
        # (x - half_star) is orthogonal to (half_star - half) for any solution x
        sys_, x_true = _system_with_truth(5)
        hs = attacks.attack_half_star(sys_).x_hat
        half = np.full(sys_.d, 0.5)
        assert abs((x_true - hs) @ (hs - half)) < 1e-9

    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_per_sample_dominance(self, seed):
        # for feasible truth: err(rcc2) <= err(half_star) <= err(half)
        sys_, x_true = _system_with_truth(seed, d=5, m=2)
        half = np.full(5, 0.5)
        hs = attacks.attack_half_star(sys_).x_hat
        r2 = attacks.attack_rcc2(sys_).x_hat
        e_half = np.sum((x_true - half) ** 2)
        e_hs = np.sum((x_true - hs) ** 2)
        e_r2 = np.sum((x_true - r2) ** 2)
        assert e_hs <= e_half + 1e-9
        assert e_r2 <= e_hs + 1e-7

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared_a", "window_stack"])
    @pytest.mark.parametrize("features", ["binary", "jittered"])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_per_sample_dominance_on_model_batches(self, k, features, stacked):
        # half, half_star and rcc2 each project the box center onto a convex
        # set that holds the truth (the box, the plane, their meet), each set
        # inside the last, so the chain can fail only on a wrong projection.
        # The batches are build_system's, from a model whose W_pas repeats a
        # column, on features exactly 0 or 1 or jittered off them, with one A
        # or a stack of three windows' A's
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(k)
        d, d_t, n = 5, 8, 20
        lead = (3,) if stacked else ()
        w_pas = rng.standard_normal(lead + (k, d))
        w_pas[..., 3] = w_pas[..., 1]
        model = VflModel(w_act=rng.standard_normal(lead + (k, d_t - d)), w_pas=w_pas,
                         b=rng.standard_normal(k), k=k, split=VflSplit.contiguous(d_t, 0, d))
        x = rng.integers(0, 2, lead + (n, d_t)).astype(float)
        if features == "jittered":
            x = np.abs(x - 0.05 * np.abs(rng.standard_normal(x.shape)))
        y_act, x_pas = x[..., d:], x[..., :d]
        sys_ = build_system(model, y_act, predict(model, y_act, x_pas))
        assert np.all(np.reshape(sys_.nullity, -1) > 0)
        err = {name: np.sum((x_pas - attacks.run_attack(name, sys_).x_hat) ** 2, axis=-1)
               for name in ("half", "half_star", "rcc2")}
        assert np.all(err["half_star"] <= err["half"] + 1e-9)
        assert np.all(err["rcc2"] <= err["half_star"] + 1e-7)


class TestRcc2:
    def test_matches_projection_oracle(self):
        for seed in range(8):
            sys_, _ = _system_with_truth(seed + 100, d=3, m=1)
            est = attacks.attack_rcc2(sys_)
            want = oracles.project_box_affine(np.full(3, 0.5), sys_.a, sys_.b)
            assert np.allclose(est.x_hat, want, atol=1e-4)
            assert est.feasible

    def test_always_feasible(self):
        # push the solution set toward a box corner so half_star exits the box
        a = np.array([[1.0, 1.0]])
        b = np.array([0.05])
        sys_ = LinearSystem(a=a, b=b)
        est = attacks.attack_rcc2(sys_)
        assert est.feasible
        assert np.allclose(sys_.a @ est.x_hat, sys_.b, atol=1e-6)

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared_a", "stacked_a"])
    def test_half_star_in_the_box_is_returned_after_no_step(self, stacked):
        # truths near the center and at vertices mix rows whose half_star
        # lies in the box with rows whose half_star does not, in each of
        # two systems; the projection starts every row at half_star
        rng = np.random.default_rng(47)
        a = rng.standard_normal((2, 2, 4) if stacked else (2, 4))
        truths = np.concatenate([rng.uniform(0.4, 0.6, (2, 3, 4)),
                                 rng.integers(0, 2, (2, 3, 4))], axis=1)
        sys_ = LinearSystem(a=a, b=truths @ a.swapaxes(-1, -2))
        est = attacks.attack_rcc2(sys_)
        half_star = attacks.attack_half_star(sys_).x_hat
        inside = np.all((half_star >= 0.0) & (half_star <= 1.0), axis=-1)
        assert np.all(inside.any(axis=1)) and not np.any(inside.all(axis=1))
        steps = est.diagnostics["iterations"]
        assert np.array_equal(est.x_hat[inside], half_star[inside])
        assert np.all(steps[inside] == 0) and np.all(steps[~inside] > 0)
        assert np.array_equal(est.diagnostics["projection"] == "closed_form", inside)

    def test_half_star_off_the_plane_is_not_returned(self):
        # the two equal rows of A ask x1 + x2 to be 0.8 and 0.9 in row 0: its
        # half_star lies in the box, 0.0707 off the plane, and the projection
        # never passes its stop test there
        sys_ = LinearSystem(a=[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                            b=[[0.8, 0.9], [0.8, 0.8]])
        half_star = attacks.attack_half_star(sys_).x_hat
        assert np.all((half_star >= 0.0) & (half_star <= 1.0))
        with pytest.raises(numerics.ConvergenceError) as err:
            attacks.attack_rcc2(sys_)
        assert err.value.rows.tolist() == [0]


class TestRcc1:
    def test_radius_upper_bounds_exact(self):
        for seed in range(8):
            sys_, _ = _system_with_truth(seed + 200, d=3, m=1)
            est = attacks.attack_rcc1(sys_)
            assert est.feasible
            _, r_exact = oracles.chebyshev_center_exact(sys_)
            assert est.diagnostics["radius"] >= r_exact - 1e-6

    def test_symmetric_segment_center_exact(self):
        # b = A (1/2 1) gives a segment symmetric about the box center,
        # where the relaxed center coincides with the exact one
        rng = np.random.default_rng(300)
        a = rng.standard_normal((2, 3))
        sys_ = LinearSystem(a=a, b=a @ np.full(3, 0.5))
        assert sys_.nullity == 1
        est = attacks.attack_rcc1(sys_)
        c_exact, r_exact = oracles.chebyshev_center_exact(sys_)
        assert np.allclose(est.x_hat, c_exact, atol=1e-3)
        assert abs(est.diagnostics["radius"] - r_exact) < 1e-3

    def test_worst_case_guarantee(self):
        # every polytope vertex lies within the reported radius of the center
        sys_, _ = _system_with_truth(301, d=3, m=1)
        est = attacks.attack_rcc1(sys_)
        verts = oracles.polytope_vertices(sys_)
        dists = np.linalg.norm(verts - est.x_hat, axis=1)
        assert np.max(dists) <= est.diagnostics["radius"] + 1e-6


def test_non_finite_estimate_rejected():
    sys_, _ = _system_with_truth(0)
    with pytest.raises(attacks.AttackError, match="^ls produced non-finite estimates$"):
        attacks.AttackEstimate(x_hat=[0.5, np.nan, 0.5, 0.5], name="ls", system=sys_)


class TestCls:
    def test_residual_zero(self):
        sys_, _ = _system_with_truth(6, d=5, m=2)
        assert attacks.attack_cls(sys_).diagnostics["residual"] < 1e-8

    def test_mixed_stack_sends_every_row_to_box_least_squares_once(self, monkeypatch):
        # a determined 3 x 3 system with singular values 1, 1e-3 and 1e-5
        # beside a nullity-1 one, 4 rows each: all eight rows reach
        # numerics.box_least_squares, in one call
        rng = np.random.default_rng(0)
        u, v = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        a = np.stack([(u * [1.0, 1e-3, 1e-5]) @ v.T,
                      rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))])
        stack = LinearSystem(a=a, b=np.einsum("smd,snd->snm", a, rng.uniform(size=(2, 4, 3))))
        assert stack.nullity.tolist() == [0, 1]
        real, given = numerics.box_least_squares, []
        monkeypatch.setattr(numerics, "box_least_squares", lambda sys_, rows, **kw: (
            given.append(rows.tolist()) or real(sys_, rows, **kw)))
        est = attacks.attack_cls(stack)
        assert given == [list(range(8))]
        for i in range(2):
            one = attacks.attack_cls(LinearSystem(a=a[i], b=stack.b[i]))
            assert np.array_equal(est.x_hat[i], one.x_hat)
            assert np.array_equal(est.diagnostics["residual"][i], one.diagnostics["residual"])


    def test_determined_rows_off_the_box_take_box_least_squares(self):
        # two determined 3 x 3 systems whose rows' A^+ b' all lie outside the
        # box: cls answers with box_least_squares' point, inside the box and
        # with a residual no higher than scipy's box least squares
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3, 3))
        stack = LinearSystem(a=a, b=np.einsum("smd,snd->snm", a,
                                              rng.uniform(1.2, 2.0, size=(2, 4, 3))))
        assert stack.nullity.tolist() == [0, 0]
        assert not np.any(stack.contains(stack.min_norm_solution))
        est = attacks.attack_cls(stack)
        assert np.array_equal(est.x_hat.reshape(8, 3),
                              numerics.box_least_squares(stack, np.arange(8)))
        assert np.all((est.x_hat >= 0.0) & (est.x_hat <= 1.0))
        for i, j in np.ndindex(2, 4):
            want = oracles.box_least_squares_ref(a[i], stack.b[i, j])
            assert est.diagnostics["residual"][i, j] <= (
                np.linalg.norm(a[i] @ want - stack.b[i, j]) + 1e-12)


class TestGia:
    def test_drives_divergence_to_zero(self, small_model):
        rng = np.random.default_rng(7)
        y_act = rng.uniform(size=5)
        x_pas = rng.uniform(size=5)
        sys_ = build_system(small_model, y_act, predict(small_model, y_act, x_pas))
        for init in ("zeros", "half", "random"):
            est = attacks.attack_gia(sys_, init=init, seed=0)
            assert est.feasible
            assert est.diagnostics["kl_bits"] < 1e-8

    def test_estimate_lies_near_solution_space(self, small_model):
        rng = np.random.default_rng(8)
        y_act = rng.uniform(size=5)
        x_pas = rng.uniform(size=5)
        sys_ = build_system(small_model, y_act, predict(small_model, y_act, x_pas))
        est = attacks.attack_gia(sys_)
        assert np.linalg.norm(sys_.a @ est.x_hat - sys_.b) < 1e-4

    def test_zero_truth_zero_init_immediate(self, small_model):
        c = predict(small_model, np.full(5, 0.4), np.zeros(5))
        est = attacks.attack_gia(build_system(small_model, np.full(5, 0.4), c),
                                 init="zeros")
        assert np.allclose(est.x_hat, 0.0, atol=1e-9)
        assert est.diagnostics["kl_bits"] < 1e-12

    def test_objective_never_worse_than_init(self, small_model):
        from vflpriv.metrics import kl_divergence
        rng = np.random.default_rng(9)
        y_act = rng.uniform(size=5)
        c = predict(small_model, y_act, rng.uniform(size=5))
        at_init = kl_divergence(predict(small_model, y_act, np.full(5, 0.5)), c)
        est = attacks.attack_gia(build_system(small_model, y_act, c), init="half")
        assert est.diagnostics["kl_bits"] <= at_init + 1e-12

    def test_reports_convergence(self, monkeypatch):
        model = _random_model()
        y_act, c = _predictions(model, 3, seed=10)
        # from zeros the rows stop after 4, 2 and 3 Newton steps, so a 2-step
        # cap stops rows 0 and 2
        monkeypatch.setattr(attacks, "_GIA_MAX_ITER", 2)
        with pytest.warns(attacks.GiaConvergenceWarning):
            est = attacks.attack_gia(build_system(model, y_act, c), init="zeros")
        one = [_gia_warns_if_stuck(build_system(model, y_act[i], c[i]), init="zeros")
               .diagnostics for i in range(3)]
        assert est.diagnostics["converged"].tolist() == [False, True, False]
        assert [d["converged"] for d in one] == [False, True, False]
        assert [d["iterations"] for d in one] == [2, 2, 2]
        monkeypatch.setattr(attacks, "_GIA_MAX_ITER", 1)
        with pytest.warns(attacks.GiaConvergenceWarning):
            capped = attacks.attack_gia(build_system(model, y_act[0], c[0]), init="zeros")
        assert capped.diagnostics["iterations"] == 1
        assert not capped.diagnostics["converged"]

    @pytest.mark.parametrize("release", ["clean", "s1", "pps1"])
    @pytest.mark.parametrize("model_name", ["small_model", "k4"])
    def test_system_form_matches_model_form(self, request, model_name, release):
        # the logits offset + M x differ from W_act y + W_pas x + b by a
        # constant per row, which softmax ignores, so both forms give one KL
        model = (request.getfixturevalue("small_model")
                 if model_name == "small_model" else _random_model())
        model, y_act, c, sys_ = _release(model, release, 4, seed=11)
        for init in ("zeros", "half", "random"):
            with pytest.MonkeyPatch.context() as capped:
                capped.setattr(attacks, "_GIA_MAX_ITER", 0)
                with pytest.warns(attacks.GiaConvergenceWarning):
                    start = attacks.attack_gia(sys_, init=init, seed=0)
            est = _gia_warns_if_stuck(sys_, init=init, seed=0)
            for i in range(4):
                # start.x_hat[i] is row i's start, from seed 0 when random
                objective = oracles.gia_model_objective(model, y_act[i], c[i])
                got = start.diagnostics["kl_bits"][i]
                assert abs(objective(start.x_hat[i])[0] - got) <= 1e-12, (init, i)
                got = est.diagnostics["kl_bits"][i]
                assert abs(objective(est.x_hat[i])[0] - got) <= 1e-12, (init, i)
                want = oracles.gia_row(objective, start.x_hat[i], 0.05, 5000, 1e-12)
                if want[3]:
                    assert est.diagnostics["converged"][i], (init, i)
                    assert got <= want[1] + 1e-12, (init, i)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
           d=st.integers(1, 8), scale=st.floats(0.1, 50.0),
           init=st.sampled_from(["zeros", "half", "random"]))
    @settings(max_examples=30, deadline=None)
    def test_stays_in_box_and_never_rises(self, seed, k, d, scale, init):
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(seed)
        d_t = d + 3
        model = VflModel(w_act=scale * rng.standard_normal((k, d_t - d)),
                         w_pas=scale * rng.standard_normal((k, d)),
                         b=rng.standard_normal(k), k=k,
                         split=VflSplit.contiguous(d_t, 0, d))
        y_act = rng.uniform(size=d_t - d)
        c = predict(model, y_act, rng.uniform(size=d))
        if np.min(c) < np.finfo(float).tiny:
            # no system, so no gia: a score without an exact log is refused
            with pytest.raises(SystemError_, match="below the smallest normal float"):
                build_system(model, y_act, c)
            return
        sys_ = build_system(model, y_act, c)
        with pytest.MonkeyPatch.context() as capped:
            capped.setattr(attacks, "_GIA_MAX_ITER", 0)
            with pytest.warns(attacks.GiaConvergenceWarning):
                at_start = attacks.attack_gia(sys_, init=init, seed=seed).diagnostics["kl_bits"]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            est = _gia_warns_if_stuck(sys_, init=init, seed=seed)
        assert np.all(np.isfinite(est.x_hat))
        assert np.all((est.x_hat >= 0.0) & (est.x_hat <= 1.0))
        assert est.diagnostics["kl_bits"] <= at_start

    @pytest.mark.parametrize("k", [2, 4, 9])
    def test_a_row_that_starts_at_its_answer_does_not_rise(self, k):
        # passive features of exactly 1/2 put the half start at KL 0 up to
        # rounding, where a move under 1e-12 can round the KL up; gia takes
        # no such move, so no row ends above its start
        model = _random_model(k)
        y_act = np.random.default_rng(7).uniform(size=(40, model.split.d_t - model.split.d))
        c = predict(model, y_act, np.full((40, model.split.d), 0.5))
        sys_ = build_system(model, y_act, c)
        with pytest.MonkeyPatch.context() as capped:
            capped.setattr(attacks, "_GIA_MAX_ITER", 0)
            with pytest.warns(attacks.GiaConvergenceWarning):
                at_start = attacks.attack_gia(sys_).diagnostics["kl_bits"]
        est = attacks.attack_gia(sys_).diagnostics
        assert est["converged"].all()
        assert np.all(est["kl_bits"] <= at_start)

    def test_unknown_init_rejected(self, small_model):
        c = predict(small_model, np.full(5, 0.5), np.full(5, 0.5))
        with pytest.raises(ValueError, match="unknown init"):
            attacks.attack_gia(build_system(small_model, np.full(5, 0.5), c),
                               init="bogus")


class TestGiaCertificates:
    """Properties of gia's answer that hold whatever its steps: every row
    converges to a point that the reference objective finds stationary, a
    clean row goes from the box center to half_star, and no clean row ends
    above the first-order descent of oracles.gia_row."""

    MODELS = [2, 4, 9, 16]

    @staticmethod
    def _model(request, k):
        return request.getfixturevalue("small_model") if k == 2 else _random_model(k)

    @pytest.mark.parametrize("release", ["clean", "bimodal", "s1", "pps1"])
    @pytest.mark.parametrize("k", MODELS)
    def test_every_row_converges_to_a_stationary_point(self, request, k, release):
        # the projected gradient x - clip(x - grad f) of the reference
        # objective, to its rounding on clean rows; a released row stops at
        # Armijo's resolution of a KL that is not 0
        model = self._model(request, k)
        model, y_act, c, sys_ = _release(model, release, 12, seed=4)
        tol = 1e-10 if release in ("clean", "bimodal") else 1e-6
        for init in ("zeros", "half", "random"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", attacks.GiaConvergenceWarning)
                est = attacks.attack_gia(sys_, init=init, seed=0)
            for i in range(12):
                x = est.x_hat[i]
                grad = oracles.gia_model_objective(model, y_act[i], c[i])(x)[1]
                assert np.linalg.norm(x - np.clip(x - grad, 0.0, 1.0)) <= tol, (init, i)

    @pytest.mark.parametrize("bimodal", [False, True])
    @pytest.mark.parametrize("k", MODELS)
    def test_half_start_ends_at_half_star(self, request, k, bimodal):
        # on clean scores grad f = M^T g lies in range(A^T), and so does each
        # Newton step, so from the box center gia stays in 1/2 + range(A^T),
        # whose one point of KL 0 is half_star, while the box clips nothing
        model = self._model(request, k)
        _, _, _, sys_ = _release(model, "bimodal" if bimodal else "clean", 40, seed=6)
        x = attacks.attack_gia(sys_).x_hat
        star = attacks.attack_half_star(sys_).x_hat
        inside = np.all((star > 0.0) & (star < 1.0), axis=1)
        assert inside.sum() >= 10
        assert np.max(np.abs(x - star)[inside]) <= 1e-9
        assert np.max(np.abs((x - 0.5) @ sys_.projector)[inside]) <= 1e-9

    @pytest.mark.parametrize("k", MODELS)
    def test_kl_no_higher_than_the_descent(self, request, k):
        model = self._model(request, k)
        y_act, c = _predictions(model, 4, seed=12)
        sys_ = build_system(model, y_act, c)
        start = attacks.attack_random(sys_, 0).x_hat
        for init in ("zeros", "half", "random"):
            est = attacks.attack_gia(sys_, init=init, seed=0)
            for i in range(4):
                x0 = start[i] if init == "random" else _gia_starts(model.split.d)[init]
                want = oracles.gia_row(oracles.gia_model_objective(model, y_act[i], c[i]),
                                       x0, 0.05, 5000, 1e-12)
                if want[3]:
                    assert est.diagnostics["kl_bits"][i] <= want[1] + 1e-12, (init, i)


class TestGiaWarning:
    """gia warns once per call when rows end unconverged, and only then."""

    def test_unconverged_rows_warn_once(self, monkeypatch):
        sys_ = build_system(_random_model(), *_predictions(_random_model(), 5, seed=10))
        monkeypatch.setattr(attacks, "_GIA_MAX_ITER", 1)
        with pytest.warns(attacks.GiaConvergenceWarning) as record:
            est = attacks.attack_gia(sys_)
        stuck = ~est.diagnostics["converged"]
        assert len(record) == 1 and stuck.any()
        message = str(record[0].message)
        assert f"gia: {stuck.sum()} of 5 rows did not converge" in message
        assert f"{est.diagnostics['kl_bits'][stuck].max():.3e} bits" in message
        # tier-1 and the numpy-only CI job make a RuntimeWarning an error
        assert not issubclass(attacks.GiaConvergenceWarning, RuntimeWarning)

    def test_converged_batch_is_silent(self, small_model):
        sys_ = build_system(small_model, *_predictions(small_model, 3, seed=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = attacks.attack_gia(sys_)
        assert est.diagnostics["converged"].all()

    def test_command_still_exits_0(self, tmp_path, monkeypatch):
        from vflpriv import cli
        monkeypatch.setattr(attacks, "_GIA_MAX_ITER", 1)
        with pytest.warns(attacks.GiaConvergenceWarning, match="did not converge"):
            assert cli.main(["attack", "--synth-n", "300", "--synth-dt", "6", "--d", "3",
                             "--attacks", "gia", "--n", "5",
                             "--out", str(tmp_path / "out.csv")]) == 0


class TestDispatch:
    def test_all_names(self):
        # the table's order is the CLI's "choose from" list and the test ids'
        assert attacks.ATTACKS == ("half", "half_star", "ls", "clamped_ls", "cls", "rcc1",
                                   "rcc2", "zero", "rg", "gia")
        sys_, _ = _system_with_truth(9)
        for name in attacks.ATTACKS[:-1]:     # all but gia, which needs log_c
            est = attacks.run_attack(name, sys_, seed=0)
            assert est.name == name
            assert est.x_hat.shape == (sys_.d,)

    def test_unknown_name(self):
        sys_, _ = _system_with_truth(10)
        with pytest.raises(ValueError):
            attacks.run_attack("nope", sys_)

    def test_gia_needs_context(self):
        # a system built by hand carries no scores, and gia needs them
        sys_, _ = _system_with_truth(12)
        assert sys_.log_c is None
        with pytest.raises(ValueError, match="released scores"):
            attacks.run_attack("gia", sys_)
        with pytest.raises(ValueError, match="released scores"):
            attacks.attack_gia(sys_)


def _random_model(k=4):
    """Random d=6 model of k classes; at k=4 its half_star leaves the box on
    some rows."""
    from vflpriv.model import VflModel, VflSplit
    rng = np.random.default_rng(28)
    d, d_t = 6, 10
    return VflModel(w_act=3.0 * rng.standard_normal((k, d_t - d)),
                    w_pas=3.0 * rng.standard_normal((k, d)),
                    b=rng.standard_normal(k), k=k,
                    split=VflSplit.contiguous(d_t, 0, d))


def _gia_warns_if_stuck(sys_, **kw):
    """attack_gia(sys_, **kw), asserting that it gives one GiaConvergenceWarning
    where a row ends unconverged and none where every row converges."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", attacks.GiaConvergenceWarning)
        est = attacks.attack_gia(sys_, **kw)
    stuck = not np.all(est.diagnostics["converged"])
    assert [w.category for w in caught] == [attacks.GiaConvergenceWarning] * stuck
    return est


def _gia_starts(d, seed=0):
    """gia's three starting points; random is attack_gia's first draw from seed."""
    return {"zeros": np.zeros(d), "half": np.full(d, 0.5),
            "random": np.random.default_rng(seed).uniform(size=d)}


def _predictions(model, n, seed):
    rng = np.random.default_rng(seed)
    y_act = rng.uniform(size=(n, model.split.d_t - model.split.d))
    x_pas = rng.uniform(size=(n, model.split.d))
    return y_act, predict(model, y_act, x_pas)


def _release(model, release, n, seed):
    """n predictions of model, their scores (clean; "bimodal", clean on
    features piled near 0 and 1; or released under s1 at alpha 10 or pps1),
    the model that released them and their system."""
    from vflpriv import defense
    if release == "bimodal":
        y_act, c = _bimodal_predictions(model, n, seed)
        return model, y_act, c, build_system(model, y_act, c)
    rng = np.random.default_rng(seed)
    y_act = rng.uniform(size=(n, model.split.d_t - model.split.d))
    x_pas = rng.uniform(size=(n, model.split.d))
    c = predict(model, y_act, x_pas)
    clean = build_system(model, y_act, c)
    if release == "s1":
        plan = defense.NoisePlan(10.0, defense.pps2_optimal_direction(clean, 10.0).v1)
        c = defense.apply_scheme(model.logits(y_act, x_pas), plan, "s1")
    elif release == "pps1":
        model = defense.pps1_reveal_params(
            model, defense.pps1_optimal_h(clean, x_pas.T @ x_pas / n))
    elif release == "clean":
        return model, y_act, c, clean
    return model, y_act, c, build_system(model, y_act, c, source="noisy")


# batched x_hat against the one-row path: closed forms to 1e-12, iterative
# solvers to a tolerance above their stopping rules
BATCH_TOL = {"ls": 1e-12, "clamped_ls": 1e-12, "half_star": 1e-12,
             "rcc2": 1e-8, "cls": 1e-8, "rcc1": 1e-8, "gia": 1e-8}


class TestBatch:
    @pytest.fixture(params=["small_model", "k4"])
    def batch(self, request):
        model = (request.getfixturevalue("small_model")
                 if request.param == "small_model" else _random_model())
        y_act, c = _predictions(model, 12, seed=4)
        return model, y_act, c, build_system(model, y_act, c)

    def test_estimators_match_one_row_path(self, batch):
        model, y_act, c, sys_ = batch
        assert sys_.b.shape == (12, model.k - 1)
        for name, tol in BATCH_TOL.items():
            est = attacks.run_attack(name, sys_)
            assert est.x_hat.shape == (12, sys_.d)
            rows_feasible = []
            for i in range(12):
                one = attacks.run_attack(name, build_system(model, y_act[i], c[i]))
                assert np.max(np.abs(est.x_hat[i] - one.x_hat)) <= tol, (name, i)
                rows_feasible.append(one.feasible)
            assert est.feasible is all(rows_feasible), name

    def test_rcc2_same_branch_per_row(self, batch):
        model, y_act, c, sys_ = batch
        est = attacks.attack_rcc2(sys_)
        branches = [attacks.attack_rcc2(build_system(model, y_act[i], c[i]))
                    .diagnostics["projection"] for i in range(12)]
        assert list(est.diagnostics["projection"]) == branches
        if model.k == 4:
            # the fixture reaches both branches
            assert set(branches) == {"closed_form", "newton"}

    def test_linear_systems_from_one_a(self):
        rng = np.random.default_rng(30)
        a, _, _ = oracles.random_satisfiable_system(rng, 5, 2)
        truths = rng.uniform(0.05, 0.95, size=(7, 5))
        sys_ = LinearSystem(a=a, b=truths @ a.T)
        for name in ("ls", "clamped_ls", "half_star", "rcc2", "cls", "rcc1"):
            est = attacks.run_attack(name, sys_)
            for i in range(7):
                one = attacks.run_attack(name, LinearSystem(a=a, b=a @ truths[i]))
                assert np.max(np.abs(est.x_hat[i] - one.x_hat)) <= BATCH_TOL[name]

    def test_rg_matches_row_by_row_draws(self):
        # numpy alone: the 5 rows are default_rng(3)'s draws, one row after another
        sys_ = LinearSystem(a=np.ones((1, 3)), b=np.full((5, 1), 1.5))
        batched = attacks.run_attack("rg", sys_, seed=3)
        rng = np.random.default_rng(3)
        assert np.array_equal(batched.x_hat, [rng.uniform(size=3) for _ in range(5)])

    @pytest.mark.parametrize("k", [9, 16])
    def test_gia_rows_keep_their_lone_bits(self, k):
        # gia sums a row's classes in order and steps each row on its own
        # products and eigenvectors, so a batch changes no row's bits
        model = _random_model(k)
        y_act, c = _predictions(model, 12, seed=4)
        for init in ("zeros", "half"):
            est = attacks.attack_gia(build_system(model, y_act, c), init=init)
            for i in range(12):
                one = attacks.attack_gia(build_system(model, y_act[i], c[i]), init=init)
                assert np.array_equal(est.x_hat[i], one.x_hat), (init, i)
                for key in ("kl_bits", "converged"):
                    assert np.array_equal(est.diagnostics[key][i], one.diagnostics[key])

    def test_gia_iterations_stay_an_int(self, small_model):
        y_act, c = _predictions(small_model, 3, seed=5)
        est = attacks.attack_gia(build_system(small_model, y_act, c))
        one = [attacks.attack_gia(build_system(small_model, y_act[i], c[i]))
               .diagnostics["iterations"] for i in range(3)]
        assert type(est.diagnostics["iterations"]) is int
        assert est.diagnostics["iterations"] == sum(one)
        assert est.diagnostics["kl_bits"].shape == (3,)


def _bimodal_predictions(model, n, seed):
    """Features piled up near 0 and 1, where half_star often leaves the box."""
    rng = np.random.default_rng(seed)

    def draw(width):
        jitter = np.abs(rng.normal(0.0, 0.05, size=(n, width)))
        return np.where(rng.random((n, width)) < 0.5, 1.0 - jitter, jitter)

    y_act = draw(model.split.d_t - model.split.d)
    return y_act, predict(model, y_act, draw(model.split.d))


def _eager_feasible(est, sys_):
    """feasible as estimators computed it when each estimate was made."""
    x = est.x_hat
    if est.name == "gia":
        return bool(np.all(x >= 0.0) and np.all(x <= 1.0))
    return bool(np.all(sys_.contains(x)))


@pytest.fixture
def contains_calls(monkeypatch):
    """The x of every LinearSystem.contains call."""
    calls = []
    real = LinearSystem.contains
    monkeypatch.setattr(LinearSystem, "contains",
                        lambda self, x: calls.append(x) or real(self, x))
    return calls


class TestNewtonGram:
    @pytest.mark.parametrize("name, m", [("cls", 3), ("gia", 4)])
    def test_eigh_takes_the_m_x_m_gram(self, monkeypatch, name, m):
        # at k = 4 and d = 30, cls's factor A / s_1 has 3 rows and gia's
        # diag(h) R 4, so every Newton step's eigh is of an m x m Gram,
        # never of a 30 x 30 curvature
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(30)
        d, d_t = 30, 34
        model = VflModel(w_act=rng.standard_normal((4, d_t - d)),
                         w_pas=rng.standard_normal((4, d)), b=rng.standard_normal(4),
                         k=4, split=VflSplit.contiguous(d_t, 0, d))
        sys_ = build_system(model, *_predictions(model, 8, seed=3))
        shapes, real = [], np.linalg.eigh

        def eigh(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        attacks.run_attack(name, sys_)
        assert shapes and all(max(shape) <= m for shape in shapes)


class TestLazyFeasible:
    """feasible is computed on its first read, from the kept system."""

    @staticmethod
    def _systems():
        from vflpriv import defense
        model = _random_model()
        rng = np.random.default_rng(12)
        y_act = rng.uniform(size=(8, model.split.d_t - model.split.d))
        x_pas = rng.uniform(size=(8, model.split.d))
        c = predict(model, y_act, x_pas)
        clean = build_system(model, y_act, c)
        plan = defense.NoisePlan(1.0, defense.pps2_optimal_direction(clean, 1.0).v1)
        noisy = defense.apply_scheme(model.logits(y_act, x_pas), plan, "s1")
        return {"clean": clean, "noisy": build_system(model, y_act, noisy, source="noisy"),
                "clean-one-row": build_system(model, y_act[0], c[0]),
                "noisy-one-row": build_system(model, y_act[3], noisy[3], source="noisy")}

    def test_equals_the_eager_expression(self):
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", attacks.GiaConvergenceWarning)
            for kind, sys_ in self._systems().items():
                for name in attacks.ATTACKS:
                    try:
                        est = attacks.run_attack(name, sys_, seed=0)
                    except (attacks.AttackError, numerics.NumericsError):
                        continue            # an empty set under noise
                    assert est.feasible is _eager_feasible(est, sys_), (kind, name)
                    seen.append((kind, name, est.feasible))
        assert len(seen) >= 36
        assert {f for *_, f in seen} == {True, False}

    @pytest.mark.parametrize("name", attacks.ATTACKS)
    def test_read_twice_calls_contains_once(self, name, contains_calls):
        sys_ = self._systems()["clean"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", attacks.GiaConvergenceWarning)
            est = attacks.run_attack(name, sys_, seed=0)
        assert not contains_calls
        assert est.feasible is est.feasible
        assert len(contains_calls) == (0 if name == "gia" else 1)

    def test_repr_and_eq_leave_the_system_out(self):
        a = np.array([[1.0, -2.0, 0.5]])
        x = np.full(3, 0.5)
        meets, misses = LinearSystem(a=a, b=a @ x), LinearSystem(a=a, b=a @ x + 1.0)
        one = attacks.AttackEstimate(x_hat=x, name="half", system=meets)
        two = attacks.AttackEstimate(x_hat=x, name="half", system=misses)
        assert one == two
        assert repr(one) == repr(two) and "system" not in repr(one)
        assert one.feasible and not two.feasible

    @pytest.mark.parametrize("argv", [
        ["figure1", "--synth-n", "150", "--synth-dt", "4", "--d-grid", "1,2"],
        ["attack", "--synth-n", "150", "--synth-dt", "6", "--d", "3",
         "--attacks", "half,ls,half_star"]], ids=["figure1", "attack"])
    def test_commands_never_read_it(self, argv, tmp_path, contains_calls):
        from vflpriv import cli
        assert cli.main([*argv, "--n", "5", "--out", str(tmp_path / "out.csv")]) == 0
        assert not contains_calls


class TestBatchedSolvers:
    """One batched call of each iterative estimator against the one-row oracles."""

    @pytest.fixture(params=["small_model", "k4", "bimodal"])
    def sys_(self, request):
        if request.param == "small_model":
            model = request.getfixturevalue("small_model")
            return build_system(model, *_predictions(model, 12, seed=4))
        if request.param == "k4":
            return build_system(_random_model(), *_predictions(_random_model(), 12, seed=4))
        return build_system(_random_model(), *_bimodal_predictions(_random_model(), 12, 0))

    @pytest.mark.parametrize("name", ["rcc2", "rcc1"])
    def test_matches_one_row_oracle(self, sys_, name):
        got = attacks.run_attack(name, sys_).x_hat
        want = oracles.row_by_row(name, sys_)
        assert got.shape == want.shape == (12, sys_.d)
        assert np.max(np.abs(got - want)) <= BATCH_TOL[name]

    def test_cls_residual_is_no_higher_than_the_one_row_oracle(self, sys_):
        # where a row's minimizer is not unique, cls and the oracle may
        # each return another point of the same least-squares set
        got = attacks.attack_cls(sys_).diagnostics["residual"]
        want = sys_.residual(oracles.row_by_row("cls", sys_))
        assert got.shape == want.shape == (12,)
        assert np.all(got <= want + 1e-12)

    def test_cls_lands_on_half_star_in_the_box(self, sys_):
        # from the center, the first Newton step of a row with a solution
        # set lands on half_star, its point nearest the center
        half_star = attacks.attack_half_star(sys_).x_hat
        inside = np.flatnonzero(np.all((half_star >= 0.0) & (half_star <= 1.0), axis=1))
        assert inside.size
        got = numerics.box_least_squares(sys_, inside)
        assert np.max(np.abs(got - half_star[inside])) <= 1e-9

    def test_cls_rows_get_their_lone_bits(self, sys_):
        got = numerics.box_least_squares(sys_, np.arange(12))
        assert not oracles.box_kkt_failures(sys_, np.arange(12), got)
        for i, b in enumerate(sys_.b):
            [one] = numerics.box_least_squares(LinearSystem(a=sys_.a, b=b), [0])
            assert np.array_equal(got[i], one), i

    def test_rcc2_diagnostics_per_row(self, sys_):
        est = attacks.attack_rcc2(sys_)
        newton = est.diagnostics["projection"] == "newton"
        iterations = est.diagnostics["iterations"]
        assert iterations.shape == est.diagnostics["residual"].shape == (12,)
        assert np.all(iterations[~newton] == 0) and np.all(iterations[newton] > 0)
        assert np.array_equal(est.diagnostics["residual"], sys_.residual(est.x_hat))

    def test_bimodal_batch_reaches_dykstra(self):
        sys_ = build_system(_random_model(), *_bimodal_predictions(_random_model(), 12, 0))
        est = attacks.attack_rcc2(sys_)
        assert np.count_nonzero(est.diagnostics["projection"] == "newton") >= 4

    def test_rcc2_cap_names_the_batch_rows(self, monkeypatch):
        sys_ = build_system(_random_model(), *_bimodal_predictions(_random_model(), 12, 0))
        newton = np.flatnonzero(attacks.attack_rcc2(sys_).diagnostics["projection"]
                                == "newton")
        monkeypatch.setattr(numerics, "_PROJECT_MAX_ITER", 1)
        with pytest.raises(numerics.ConvergenceError) as err:
            attacks.attack_rcc2(sys_)
        # every projected row hits a one-step cap; rows are named in the
        # batch's numbering, not by position among the projected rows
        assert err.value.rows.tolist() == newton.tolist()
        assert err.value.residuals["affine"].shape == (newton.size,)


# the first 5 test rows of a benchmark attack table (datagen seed [105, 1],
# passive window 3..8 of a k=4, d_t=12 model), as build_system gives them.
# Solved together on the lifted SDP, row 0 stalled at a gap of about 1.6e-9
# with its iterate near singular: a solver that factors every row's iterate
# in one stacked call fails there
RCC1_STALL_A = np.array([
    [-0.8220631356168173, 0.644280869514529, 0.12141748455740575,
     -0.45231168442231046, 1.352891273220431, 0.43520359405971715],
    [-0.1795405333995383, -0.5064213553711034, -1.3042025803219541,
     -0.3020875973421783, -0.644050553243121, 0.7438260472971192],
    [1.1476178689590262, 1.2354041703959506, 0.11800667203344217,
     1.3093766055995575, -0.5421788526802978, -1.3894837188996778]])
RCC1_STALL_B = np.array([
    [-0.19863357731721543, -0.3741521595005208, 2.3353143413382886],
    [-0.3547387144808092, -0.28602948493243396, 1.2267595283342767],
    [0.49898254041020507, -0.3729654066412895, 0.5236627855336097],
    [0.6119034317365669, -1.6606640666328705, 0.6628062197733534],
    [0.5432062029899409, 0.5451036443584751, -1.3029225409169958]])

# row 26 of window start=4 of `figure1 --n 50 --seed 4 --d-grid 6 --attacks
# rcc1` on bench/datagen.generate(path, 4, 1000, 12, 4) with datagen.JITTER =
# 0 (binary features), as build_system gives it; its passive features are
# RCC1_FACE_X, its set that one corner. Centered adaptively by Mehrotra's
# (mu_aff / mu)^3, its gap grew until the divergence stop
RCC1_FACE_A = np.array([
    [0.374954986891333, -0.4106571799452392, -0.05484975497567052,
     1.7984074606720792, 1.295050631533108, -1.7685338049768715],
    [-0.3577091002531201, -1.4496287795923255, -1.2705301043832953,
     -1.0115266049047917, 0.6501167509657249, 1.1286078542420581],
    [1.9717003279192027, 0.9195061535336971, 1.9977112643032817,
     -0.8723367661096958, -1.5979235840839796, 0.7637182249734286]])
RCC1_FACE_B = np.array([0.8843934515878691, -0.7995120286266011, -0.6784174305502826])
RCC1_FACE_X = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])


def _capped_rcc1(monkeypatch, max_iter):
    monkeypatch.setattr(attacks, "_RCC1_MAX_ITER", max_iter)


def _rcc1_rows(w, c):
    """_rcc1_pd_solve on one system's rows, each handed the system's basis
    w, raising where a gap ends above the floor as attack_rcc1 does."""
    out = attacks._rcc1_pd_solve(np.broadcast_to(w, (len(c),) + w.shape), c)
    bad = np.flatnonzero(~(out[2] <= attacks._RCC1_FLOOR))
    if bad.size:
        gaps = " ".join(f"{v:.3e}" for v in out[2][bad])
        raise attacks.AttackError(
            f"rcc1 rows {bad.tolist()} end with gaps {gaps} above {attacks._RCC1_FLOOR:g} "
            f"in at most {attacks._RCC1_MAX_ITER} steps")
    return out


def _rcc1_alone(w, c):
    """_rcc1_pd_solve on each row of one system alone: the z, dual value, gap
    and steps that every row must get in any batch."""
    outs = [attacks._rcc1_pd_solve(w[None], c[i:i + 1]) for i in range(len(c))]
    return tuple(np.concatenate(out) for out in zip(*outs))


def _rcc1_inputs(sys_):
    """One system's nullspace basis and its rows' c = q - 1/2."""
    return sys_.svd.nullspace(), sys_.min_norm_solution.reshape(-1, sys_.d) - 0.5


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(got, str):
        assert got == want
        return
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_SOLVE = np.linalg.solve
# the shape of rcc1's stacked d x d Newton solve on 5 rows at d = 6
_SCHUR = (5, 6, 6)


def _spoiled_solve(monkeypatch, fault):
    """np.linalg.solve with row 2 of each 5-row stacked Newton solve spoiled:
    singular, overflowing (a finite dalpha whose step overflows), or NaN in
    the closing Newton steps only (the 5-row solves after the batch shrank)."""
    spoiled, shrunk = [], []

    def solve(a, b):
        if a.ndim == 3 and len(a) < 5:
            shrunk.append(len(a))
        if a.shape == _SCHUR and (fault != "closing" or shrunk):
            spoiled.append(a[2])
            if fault == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            x = _SOLVE(a, b)
            x[2] = 1e300 if fault == "overflow" else np.nan
            return x
        if a.ndim == 2 and spoiled and np.array_equal(a, spoiled[-1]):
            raise np.linalg.LinAlgError("Singular matrix")     # row 2 alone
        return _SOLVE(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return spoiled


def _regime_model(k, d, d_t, scale, seed):
    from vflpriv.model import VflModel, VflSplit
    rng = np.random.default_rng(seed)
    return VflModel(w_act=scale * rng.standard_normal((k, d_t - d)),
                    w_pas=scale * rng.standard_normal((k, d)),
                    b=rng.standard_normal(k), k=k, split=VflSplit.contiguous(d_t, 0, d))


class TestRcc1PrimalDual:
    """rcc1's interior point: a certified gap per row, never a batch-wide abort."""

    def test_stalled_batch_converges_row_by_row(self):
        sys_ = LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B)
        est = attacks.attack_rcc1(sys_)
        assert est.feasible
        assert est.diagnostics["gap"].shape == est.diagnostics["iterations"].shape == (5,)
        assert np.all(est.diagnostics["gap"] <= 1e-8)
        for i, b in enumerate(RCC1_STALL_B):
            one = attacks.attack_rcc1(LinearSystem(a=RCC1_STALL_A, b=b))
            assert np.max(np.abs(est.x_hat[i] - one.x_hat)) <= 1e-6

    def test_cap_names_the_batch_rows(self, monkeypatch):
        _capped_rcc1(monkeypatch, 2)
        with pytest.raises(attacks.AttackError) as err:
            attacks.attack_rcc1(LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B))
        assert str(err.value).startswith("rcc1 rows [0, 1, 2, 3, 4] end with gaps")

    def test_cap_message_is_one_line(self, monkeypatch):
        # 40 failed rows: an array repr of their gaps would wrap
        _capped_rcc1(monkeypatch, 2)
        with pytest.raises(attacks.AttackError) as err:
            attacks.attack_rcc1(LinearSystem(a=RCC1_STALL_A, b=np.tile(RCC1_STALL_B, (8, 1))))
        message = str(err.value)
        assert "\n" not in message
        gaps = message.split(" end with gaps ")[1].split(" above ")[0].split(" ")
        assert len(gaps) == 40
        assert all(float(g) > 0.0 and g == f"{float(g):.3e}" for g in gaps)

    def test_non_finite_step_ends_only_its_row(self, monkeypatch):
        real = np.linalg.solve

        def solve(a, b):                # row 2's Newton solve fails while all 5 step
            x = real(a, b)
            if a.shape == _SCHUR:
                x[2] = np.nan
            return x

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(attacks.AttackError) as err:
            attacks.attack_rcc1(LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B))
        assert str(err.value).startswith("rcc1 rows [2] end with gaps")

    def test_overflowing_step_ends_only_its_row(self, monkeypatch):
        real = np.linalg.solve

        def solve(a, b):                # row 2's dalpha is finite, its step overflows
            x = real(a, b)
            if a.shape == _SCHUR:
                x[2] = 1e300
            return x

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(attacks.AttackError) as err:    # numpy does not warn either
            attacks.attack_rcc1(LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B))
        assert str(err.value).startswith("rcc1 rows [2] end with gaps")

    def test_singular_schur_row_ends_only_its_row(self, monkeypatch):
        real = np.linalg.solve
        calls = []      # each failed stacked solve: its (matrices, rhs, row solves)

        def solve(a, b):                # row 2's Newton matrix is singular
            if a.shape == _SCHUR:
                calls.append((a, b, []))
                raise np.linalg.LinAlgError("Singular matrix")
            if a.ndim == 2 and calls and np.array_equal(a, calls[-1][0][2]):
                raise np.linalg.LinAlgError("Singular matrix")
            x = real(a, b)
            if a.ndim == 2 and calls:
                calls[-1][2].append(x)
            return x

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(attacks.AttackError) as err:
            attacks.attack_rcc1(LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B))
        assert str(err.value).startswith("rcc1 rows [2] end with gaps")
        # the other rows solve alone to the bits the stacked solve gives them
        assert calls
        others = [0, 1, 3, 4]
        for a, b, rows in calls:
            assert np.array_equal(np.array(rows), real(a[others], b[others])[..., 0])

    @staticmethod
    def _bench_batch():
        """5 bench-shaped rows (k = 4, d = 6: a 6 x 6 Newton system each) that
        stop at steps 10 and 11, so the last step runs on a shrunk working set."""
        model = _random_model()
        return build_system(model, *_predictions(model, 5, 0))

    @pytest.mark.parametrize("batch", ["bench", "staggered", "stall"])
    def test_working_set_keeps_every_bit(self, batch):
        # staggered: 30 rows leaving the working set at three different
        # steps; every row of the batch gets the z, dual value, gap and steps
        # it gets alone
        model = _random_model()
        sys_ = {"bench": self._bench_batch,
                "staggered": lambda: build_system(model, *_bimodal_predictions(model, 30, 3)),
                "stall": lambda: LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B)}[batch]()
        w, c = _rcc1_inputs(sys_)
        got = _rcc1_rows(w, c)
        _assert_same_bits(got, _rcc1_alone(w, c))
        assert np.all(got[2] <= attacks._RCC1_FLOOR)
        assert len(np.unique(got[3])) >= {"bench": 2, "staggered": 3, "stall": 1}[batch]

    @pytest.mark.parametrize("fault", ["singular", "overflow", "closing"])
    @pytest.mark.parametrize("floor", ["kept", "lifted"])
    def test_failed_rows_keep_every_bit(self, monkeypatch, fault, floor):
        # row 2's Newton solves are spoiled: the other rows keep the bits of
        # the clean solve. With the floor lifted no row is named, so the
        # solve returns its iterates: a row spoiled from its first step stays
        # at its start, 0 steps, and "closing" spoils row 2 in the closing
        # Newton steps only, which it then skips, ending at its loop's gap
        w, c = _rcc1_inputs(self._bench_batch())
        clean = _rcc1_rows(w, c)
        if floor == "lifted":
            monkeypatch.setattr(attacks, "_RCC1_FLOOR", np.inf)
        spoiled = _spoiled_solve(monkeypatch, fault)
        try:
            got = _rcc1_rows(w, c)
        except attacks.AttackError as err:
            got = str(err)
        assert spoiled
        if floor == "kept" and fault != "closing":
            assert got.startswith("rcc1 rows [2] end with gaps")
            return
        others = [0, 1, 3, 4]
        _assert_same_bits(tuple(v[others] for v in got), tuple(v[others] for v in clean))
        if fault == "closing":
            assert got[3][2] == clean[3][2]
            assert clean[2][2] != got[2][2] <= attacks._RCC1_GAP
        else:
            assert got[3][2] == 0 and got[2][2] > 1.0

    @pytest.mark.parametrize("k, p", [(2, 1), (2, 7), (3, 4), (4, 3), (5, 6), (7, 2),
                                      (9, 5), (12, 1), (12, 7)])
    def test_matches_both_reference_solvers(self, monkeypatch, k, p):
        # two independent solvers of the same relaxation: the lifted SDP's
        # interior point (oracles.rcc1_pd_solve_batch) and a log-barrier
        # Newton method on the dual (oracles.rcc1_row). Where both converge,
        # x agrees within 1e-8 and the squared radius within 1e-9
        d = k - 1 + p
        model = _regime_model(k, d, d + 4, 3.0, seed=10 * k + p)
        sys_ = build_system(model, *_predictions(model, 6, k + p))
        assert sys_.nullity == p
        w, c = _rcc1_inputs(sys_)
        z, value, _, _ = _rcc1_rows(w, c)
        monkeypatch.setattr(oracles, "_RCC1_FLOOR", np.inf)
        lifted_z, lifted_value, lifted_gap, _ = oracles.rcc1_pd_solve_batch(w, c)
        both = lifted_gap <= attacks._RCC1_FLOOR
        assert np.count_nonzero(both) >= 4
        assert np.max(np.abs((z - lifted_z)[both] @ w.T)) <= 1e-8
        assert np.max(np.abs(value - lifted_value)[both]) <= 1e-9
        x = sys_.min_norm_solution + z @ w.T
        for i, b in enumerate(sys_.b):
            want_x, want_value = oracles.rcc1_row(LinearSystem(a=sys_.a, b=b), mu_min=1e-13,
                                                  newton_tol=1e-14, value=True)
            assert np.max(np.abs(x[i] - want_x)) <= 1e-8, i
            assert abs(value[i] - want_value) <= 1e-9, i

    def test_rows_on_a_box_corner(self):
        # binary features: the sets of many rows are the one corner x, where
        # the relaxation's optimum is 0 and rounding takes f(alpha) just
        # below it. Every row converges, no radius is NaN, and each row of
        # radius 0 returns its corner
        model, rng = _random_model(), np.random.default_rng(3)
        y_act, x_pas = ((rng.random((40, n)) < 0.5).astype(float) for n in (4, 6))
        est = attacks.attack_rcc1(build_system(model, y_act, predict(model, y_act, x_pas)))
        point = est.diagnostics["radius"] == 0.0
        assert np.count_nonzero(point) >= 4 and np.all(est.diagnostics["radius"] >= 0.0)
        assert np.max(np.abs(est.x_hat - x_pas)[point]) <= 1e-9

    def test_binary_face_row_converges(self):
        # its gap stalls under the floor (about 1.5e-9) with the dual value
        # rounding to 0, and x ends about 6e-9 from the row's one point
        sys_ = LinearSystem(a=RCC1_FACE_A, b=RCC1_FACE_B)
        est = attacks.attack_rcc1(sys_)
        assert est.diagnostics["gap"] <= 1e-8
        assert sys_.contains(est.x_hat)
        assert np.linalg.norm(est.x_hat - RCC1_FACE_X) <= est.diagnostics["radius"] + 1e-8

    def test_one_eigh_per_step(self, monkeypatch):
        # the centering is fixed at 0.1, so a step spends no eigenvalues on
        # the affine direction: one stacked eigh per loop step and per
        # closing step
        calls = []
        real = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            calls.append(len(a))
            return real(a, *args, **kwargs)

        def eigvalsh(*args, **kwargs):
            raise AssertionError("rcc1 called eigvalsh")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        steps = _rcc1_rows(*_rcc1_inputs(self._bench_batch()))[3]
        assert steps.max() == 11
        assert len(calls) == steps.max() + 2 and calls[-2:] == [5, 5]

    @staticmethod
    def _two_nullities():
        """Two 3 x 5 systems of nullity 2 and 3 (rank 3 and 2), 10 rows each."""
        rng = np.random.default_rng(5)
        a = np.stack([rng.standard_normal((3, 5)),
                      rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))])
        return LinearSystem(a=a, b=np.einsum("smd,snd->snm", a, rng.uniform(size=(2, 10, 5))))

    @pytest.mark.parametrize("block", [1, 7])
    def test_row_blocks_keep_every_bit(self, monkeypatch, block):
        # blocks of 7 split each system's 10 rows 7 + 3; blocks of 1 solve
        # each row alone: each row's results and failure text are the ones
        # the one-block solve gives it
        assert self._two_nullities().nullity.tolist() == [2, 3]
        one_block = attacks._RCC1_BLOCK
        assert one_block >= 20

        def run(rows_per_block, max_iter):
            monkeypatch.setattr(attacks, "_RCC1_BLOCK", rows_per_block)
            _capped_rcc1(monkeypatch, max_iter)
            try:
                est = attacks.attack_rcc1(self._two_nullities())
            except attacks.AttackError as err:
                return str(err), err.rows.tolist()
            return (est.x_hat, *(est.diagnostics[k] for k in ("radius", "gap", "iterations")))

        # at 2 steps every row fails, at 8 some rows of each system
        for max_iter, failed in ((attacks._RCC1_MAX_ITER, None), (2, list(range(20))),
                                 (8, [5, 13, 15])):
            got, want = run(block, max_iter), run(one_block, max_iter)
            if failed is None:
                _assert_same_bits(got, want)
            else:
                assert want[1] == failed and want[0].startswith(f"rcc1 rows {failed} ")
                assert got == want

    def test_cap_exits_3_through_the_cli(self, monkeypatch, capsys):
        from vflpriv import cli
        _capped_rcc1(monkeypatch, 2)
        assert cli.main(["attack", "--synth-n", "400", "--synth-dt", "12", "--synth-k",
                         "4", "--d", "6", "--start", "3", "--attacks", "rcc1",
                         "--n", "5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: rcc1 rows [0, 1, 2, 3, 4] of window start=3 "
                              "end with gaps")

    @pytest.mark.parametrize("scheme", [["pps1"], ["s1", "--alpha", "10"]],
                             ids=["pps1", "s1"])
    def test_planes_off_the_box_name_their_rows(self, scheme, capsys):
        # these releases move planes off the box (every row under pps1, five
        # under s1); those rows' gaps diverge and each stops on its own,
        # without aborting the batch, and numpy does not warn
        from vflpriv import cli
        assert cli.main(["defend", "--synth-n", "2000", "--synth-dt", "10",
                         "--synth-k", "4", "--d", "6", "--scheme", *scheme,
                         "--attack", "rcc1", "--n", "100"]) == 3
        assert capsys.readouterr().err.startswith("solver failure: rcc1 rows [")

    def test_diverging_rows_stop_early(self, monkeypatch, capsys):
        # pps1 moves every plane off the box and each row's gap grows without
        # bound; a row stops once its gap passes 1e3 times its first one, so
        # none takes more than 10 of its 50 Mehrotra steps
        from vflpriv import cli
        real, batches = np.linalg.eigh, []

        def counting(a, *args, **kwargs):   # one eigh per step, over its rows
            batches.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert cli.main(["defend", "--synth-n", "2000", "--synth-dt", "10", "--synth-k", "4",
                         "--d", "6", "--scheme", "pps1", "--attack", "rcc1", "--n", "100",
                         "--seed", "0"]) == 3
        err = capsys.readouterr().err       # one line
        assert err.startswith(
            f"solver failure: rcc1 rows {list(range(100))} of pps1 end with gaps")
        assert err.count("\n") == 1
        assert batches[0] == 100 and batches[-2:] == [100, 100]     # the two closing steps
        assert len(batches) - 2 <= 10

    def test_lone_row_gets_the_bits_of_its_row_in_a_batch(self):
        # bench-shaped rows (k = 4, d = 6) solved as one-row systems, 1-D or
        # 2-D, give the x, radius, gap and steps of their row in a 20-row solve
        model = _random_model()
        for seed in range(3):
            sys_ = build_system(model, *_predictions(model, 20, seed))
            big = attacks.attack_rcc1(sys_)
            for i in range(20):
                for b in (sys_.b[i], sys_.b[i:i + 1]):
                    one = attacks.attack_rcc1(LinearSystem(a=sys_.a, b=b))
                    assert np.array_equal(one.x_hat.ravel(), big.x_hat[i]), (seed, i)
                    for key in ("radius", "gap", "iterations"):
                        assert np.array_equal(one.diagnostics[key], big.diagnostics[key][i]
                                              .reshape(np.shape(one.diagnostics[key])))

    @pytest.mark.parametrize("k, d", [(8, 8), (4, 9)], ids=["nullity1", "nullity6"])
    def test_rows_at_d8_get_their_batch_bits(self, k, d):
        # at d >= 8 numpy sums a row of a batch (a column-order array) and a
        # lone or stacked row (row order) in other orders; a row's x, radius,
        # gap and steps are those of its row in the batch all the same
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(k * 100 + d)
        model = VflModel(w_act=rng.standard_normal((k, 3)), w_pas=rng.standard_normal((k, d)),
                         b=rng.standard_normal(k), k=k, split=VflSplit.contiguous(d + 3, 0, d))
        sys_ = build_system(model, *_predictions(model, 20, 1))
        big = attacks.attack_rcc1(sys_)
        stack = attacks.attack_rcc1(LinearSystem(a=np.stack([sys_.a] * 2),
                                                 b=np.stack([sys_.b, sys_.b[::-1]])))
        ones = [attacks.attack_rcc1(LinearSystem(a=sys_.a, b=sys_.b[i:i + 1]))
                for i in range(20)]
        for key in ("radius", "gap", "iterations"):
            want = big.diagnostics[key]
            assert np.array_equal(stack.diagnostics[key], [want, want[::-1]]), key
            assert np.array_equal([one.diagnostics[key][0] for one in ones], want), key
        assert np.array_equal(stack.x_hat, [big.x_hat, big.x_hat[::-1]])
        assert np.array_equal([one.x_hat[0] for one in ones], big.x_hat)

    @pytest.mark.parametrize("k, d, scale, bimodal", [
        (2, 4, 3.0, False),         # p = 3
        (6, 6, 3.0, False),         # p = 1
        (2, 3, 30.0, True),         # saturated scores, p = 2
    ], ids=["k2_d4", "k6_d6", "saturated"])
    def test_regime(self, k, d, scale, bimodal):
        model = _regime_model(k, d, 10, scale, seed=40 + k)
        y_act, c = (_bimodal_predictions if bimodal else _predictions)(model, 8, 41)
        if bimodal:
            assert np.min(c) < 1e-9         # the softmax saturates
        sys_ = build_system(model, y_act, c)
        assert sys_.nullity == d - (k - 1)
        est = attacks.attack_rcc1(sys_)
        assert np.all(est.diagnostics["gap"] <= 1e-8)
        assert np.all(sys_.contains(est.x_hat))
        for i, b in enumerate(sys_.b):
            one = LinearSystem(a=sys_.a, b=b)
            _, val = oracles.rcc1_row(one, value=True)
            assert est.diagnostics["radius"][i] ** 2 <= val + 1e-9
            if d <= 3:
                _, r_exact = oracles.chebyshev_center_exact(one)
                assert est.diagnostics["radius"][i] >= r_exact - 1e-6


def _window_systems(k, d):
    """40 test rows of a synthesize table, on its windows at 0 and 4."""
    from vflpriv.dataset import SyntheticSpec, synthesize
    from vflpriv.model import TrainConfig, VflSplit, train
    ds = synthesize(SyntheticSpec(n=400, d_t=10, k=k, seed=1))
    full = train(ds, VflSplit.contiguous(10, 0, 10), TrainConfig(seed=1))
    rows = np.flatnonzero(ds.test_mask)[:40]
    systems = []
    for start in (0, 4):
        model = full.window(VflSplit.contiguous(10, start, d))
        y_act = ds.x[rows][:, list(model.split.active)]
        x_pas = ds.x[rows][:, list(model.split.passive)]
        systems.append(build_system(model, y_act, predict(model, y_act, x_pas)))
    return systems


def _bench_rows():
    """12 bench-shaped rows of one model: k = 4, d = 6, d_t = 12, weights x 3."""
    from vflpriv.model import VflModel, VflSplit
    rng = np.random.default_rng(0)
    model = VflModel(w_act=3.0 * rng.standard_normal((4, 6)),
                     w_pas=3.0 * rng.standard_normal((4, 6)),
                     b=rng.standard_normal(4), k=4, split=VflSplit.contiguous(12, 3, 6))
    y = rng.uniform(size=(12, 6))
    return [build_system(model, y, predict(model, y, rng.uniform(size=(12, 6))))]


@pytest.mark.parametrize("systems, newton", [
    pytest.param(lambda: _window_systems(4, 6), False, id="4-6"),
    pytest.param(lambda: _window_systems(2, 4), False, id="2-4"),
    pytest.param(lambda: _window_systems(3, 4), False, id="3-4"),
    pytest.param(_bench_rows, True, id="bench_rows"),
    pytest.param(lambda: [build_system(_random_model(), *_bimodal_predictions(_random_model(), 20, s))
                          for s in (3, 4)], True, id="bimodal"),
])
def test_rows_and_windows_get_their_lone_bits(systems, newton):
    # cls's x, rcc1's x and radius and rcc2's x, residual and iterations give
    # every row of a batch the bits of its one-row call, and each system of a
    # stack the bits of its lone batch. rcc2 keeps the synthesize tables'
    # rows in its closed form; some bench-shaped and bimodal rows take Newton
    systems = systems()
    stack = LinearSystem(a=np.stack([s.a for s in systems]), b=np.stack([s.b for s in systems]))
    keys = {attacks.attack_cls: (), attacks.attack_rcc1: ("radius",),
            attacks.attack_rcc2: ("residual", "iterations")}
    for attack, names in keys.items():
        both = attack(stack)
        for w, sys_ in enumerate(systems):
            big = attack(sys_)
            assert np.array_equal(both.x_hat[w], big.x_hat), (attack, w)
            for i, b in enumerate(sys_.b):
                one = attack(LinearSystem(a=sys_.a, b=b))
                assert np.array_equal(one.x_hat, big.x_hat[i]), (attack, w, i)
                for key in names:
                    assert one.diagnostics[key] == big.diagnostics[key][i], (key, w, i)
                    assert big.diagnostics[key][i] == both.diagnostics[key][w, i], (key, w, i)
    projection = attacks.attack_rcc2(stack).diagnostics["projection"]
    assert np.any(projection == "newton") == newton


@pytest.mark.parametrize("name", attacks.ATTACKS)
def test_a_fortran_ordered_system_gets_the_bits_of_a_c_ordered_one(name):
    # the same values in either memory order reach BLAS with the same strides
    model = _random_model()
    sys_ = build_system(model, *_bimodal_predictions(model, 40, 5))
    fortran = LinearSystem(a=np.asfortranarray(sys_.a), b=np.asfortranarray(sys_.b),
                           log_c=np.asfortranarray(sys_.log_c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", attacks.GiaConvergenceWarning)
        want, got = (attacks.run_attack(name, s) for s in (sys_, fortran))
    assert np.array_equal(got.x_hat, want.x_hat)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert np.array_equal(got.diagnostics[key], value), key


def test_cls_takes_the_spectral_norm_from_the_shared_svd(monkeypatch):
    # np.linalg.norm(A, 2) is an SVD; a batch must not pay it once per row
    model = _random_model()
    y_act, c = _predictions(model, 5, seed=6)
    sys_ = build_system(model, y_act, c)
    real = np.linalg.norm
    spectral = []

    def counting(x, ord=None, *args, **kwargs):
        spectral.append(ord == 2 and np.ndim(x) == 2)
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    est = attacks.run_attack("cls", sys_)
    assert spectral and not any(spectral)
    assert np.all(sys_.residual(est.x_hat) < 1e-6)


def test_rcc1_reads_center_and_radius_off_its_iterate(monkeypatch):
    # x and the radius come off the interior point's own dual iterate
    # alpha, z = -M(alpha)^-1 g(alpha) through a stacked inverse: no stacked
    # p x p solve per row after it
    sys_ = LinearSystem(a=RCC1_STALL_A, b=RCC1_STALL_B)
    p = sys_.nullity
    real = np.linalg.solve
    shapes = []

    def counting(a, b, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    est = attacks.attack_rcc1(sys_)
    assert shapes and (len(RCC1_STALL_B), p, p) not in shapes
    assert est.feasible and est.diagnostics["radius"].shape == (len(RCC1_STALL_B),)
