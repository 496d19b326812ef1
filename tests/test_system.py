import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vflpriv.attacks import ATTACKS, GiaConvergenceWarning, attack_ls, run_attack
from vflpriv.model import predict, softmax
from vflpriv.system import (LinearSystem, SystemError_, build_system,
                            difference_matrix)


class TestDifferenceMatrix:
    def test_shape_and_rows(self):
        j = difference_matrix(4)
        assert j.shape == (3, 4)
        assert np.array_equal(j[1], [0.0, -1.0, 1.0, 0.0])

    def test_differences_logits(self):
        z = np.array([0.3, 1.1, -0.4])
        assert np.allclose(difference_matrix(3) @ z, np.diff(z))

    def test_k_guard(self):
        with pytest.raises(ValueError):
            difference_matrix(1)


class TestLogRatios:
    def test_recovers_logit_differences(self):
        # log ratios of softmax outputs equal consecutive logit differences
        z = np.array([0.5, -1.0, 2.0, 0.1])
        c = softmax(z)
        assert np.allclose(oracles.log_ratio_scores(c), np.diff(z), atol=1e-12)



class TestBuildSystem:
    def test_true_features_satisfy_system(self, small_model):
        rng = np.random.default_rng(0)
        y_act = rng.uniform(size=5)
        x_pas = rng.uniform(size=5)
        c = predict(small_model, y_act, x_pas)
        sys_ = build_system(small_model, y_act, c)
        assert np.allclose(sys_.a @ x_pas, sys_.b, atol=1e-9)
        assert sys_.contains(x_pas)

    def test_b_cannot_be_reassigned(self, small_model):
        # a new b would leave the cached A^+ b' behind, and attack_ls on it
        rng = np.random.default_rng(3)
        y_act = rng.uniform(size=5)
        sys_ = build_system(small_model, y_act, predict(small_model, y_act, rng.uniform(size=5)))
        want = attack_ls(sys_).x_hat
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys_.b = sys_.b + 1.0
        assert np.array_equal(attack_ls(sys_).x_hat, want)
        assert sys_.residual(want) < 1e-12

    def test_dimensions(self, small_model):
        y_act = np.full(5, 0.5)
        c = predict(small_model, y_act, np.full(5, 0.5))
        sys_ = build_system(small_model, y_act, c)
        assert sys_.a.shape == (small_model.k - 1, 5)
        assert sys_.d == 5
        assert sys_.svd.rank() + sys_.nullity == 5

    def test_min_norm_solution_solves(self, small_model):
        y_act = np.full(5, 0.2)
        c = predict(small_model, y_act, np.full(5, 0.8))
        sys_ = build_system(small_model, y_act, c)
        assert np.allclose(sys_.a @ sys_.min_norm_solution, sys_.b, atol=1e-9)
        assert sys_.residual(sys_.min_norm_solution) <= 1e-6

    def test_wrong_score_length(self, small_model):
        with pytest.raises(ValueError):
            build_system(small_model, np.full(5, 0.5), np.array([0.5, 0.3, 0.2]))

    def test_inconsistent_clean_scores_raise(self, small_model):
        # scores from a different logit vector cannot be clean for this input
        y_act = np.full(5, 0.5)
        sys_ = None
        with pytest.raises(SystemError_):
            # k=2 with one passive feature short of rank: craft by zeroing w_pas
            from vflpriv.model import VflModel
            crippled = VflModel(w_act=small_model.w_act,
                                w_pas=np.zeros_like(small_model.w_pas),
                                b=small_model.b, k=small_model.k,
                                split=small_model.split)
            c = predict(small_model, y_act, np.full(5, 0.9))
            sys_ = build_system(crippled, y_act, c)
        assert sys_ is None

    def test_keeps_the_scores_logs(self, small_model):
        rng = np.random.default_rng(3)
        y_act, x_pas = rng.uniform(size=(20, 5)), rng.uniform(size=(20, 5))
        c = predict(small_model, y_act, x_pas)
        j = difference_matrix(small_model.k)
        batch = build_system(small_model, y_act, c)
        assert np.array_equal(batch.log_c, np.log(c))
        # b' keeps the bits of the consecutive log ratios less the model's terms
        assert np.array_equal(batch.b, oracles.log_ratio_scores(c)
                              - np.matmul(np.matmul(y_act[:, None], small_model.w_act.T), j.T)[:, 0]
                              - j @ small_model.b)
        for i in range(20):     # a row alone gets the bits it gets in the batch
            one = build_system(small_model, y_act[i], c[i])
            assert np.array_equal(one.log_c, batch.log_c[i]), i
            assert np.array_equal(one.b, batch.b[i]), i

    @pytest.mark.parametrize("log_c, match", [
        (np.zeros(3), "shape"), (np.zeros((2, 2)), "shape"), (np.zeros((3, 3)), "shape"),
        (np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 1.0]]), "finite"),
        (np.array([[0.0, 1.0, -np.inf], [0.0, 0.0, 1.0]]), "finite")])
    def test_bad_log_c_rejected(self, log_c, match):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"log_c must .*{match}"):
            LinearSystem(a=a, b=np.zeros((2, 2)), log_c=log_c)
        assert LinearSystem(a=a, b=np.zeros((2, 2))).log_c is None

    def test_noisy_source_skips_check(self, small_model):
        from vflpriv.model import VflModel
        crippled = VflModel(w_act=small_model.w_act,
                            w_pas=np.zeros_like(small_model.w_pas),
                            b=small_model.b, k=small_model.k,
                            split=small_model.split)
        y_act = np.full(5, 0.5)
        c = predict(small_model, y_act, np.full(5, 0.9))
        build_system(crippled, y_act, c, source="noisy")

    def test_unknown_source_raises(self, small_model):
        # a misspelt source must not skip the clean check silently
        y_act = np.full(5, 0.5)
        c = predict(small_model, y_act, np.full(5, 0.9))
        with pytest.raises(ValueError, match="source must be 'clean' or 'noisy', got 'nosiy'"):
            build_system(small_model, y_act, c, source="nosiy")


class TestTransformSystem:
    def test_solution_space_preserved(self, small_model):
        rng = np.random.default_rng(1)
        y_act = rng.uniform(size=5)
        x_pas = rng.uniform(size=5)
        c = predict(small_model, y_act, x_pas)
        sys_ = build_system(small_model, y_act, c)
        m = sys_.a.shape[0]
        r = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        sys2 = oracles.transform_system(sys_, r)
        assert np.allclose(sys2.min_norm_solution, sys_.min_norm_solution,
                           atol=1e-8)
        assert np.allclose(sys2.projector, sys_.projector, atol=1e-8)

    def test_singular_r_rejected(self, small_model):
        y_act = np.full(5, 0.5)
        c = predict(small_model, y_act, np.full(5, 0.5))
        sys_ = build_system(small_model, y_act, c)
        m = sys_.a.shape[0]
        with pytest.raises(ValueError):
            oracles.transform_system(sys_, np.zeros((m, m)))

    def test_wrong_shape_rejected(self, small_model):
        y_act = np.full(5, 0.5)
        c = predict(small_model, y_act, np.full(5, 0.5))
        sys_ = build_system(small_model, y_act, c)
        with pytest.raises(ValueError):
            oracles.transform_system(sys_, np.eye(sys_.a.shape[0] + 1))


class TestBatchSystem:
    def _k4_rank_deficient(self):
        # k=4 with two passive features: A is 3 x 2, so a wrong score row
        # leaves the range of A and the clean-score check can fire
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(40)
        return VflModel(w_act=rng.standard_normal((4, 3)),
                        w_pas=rng.standard_normal((4, 2)),
                        b=rng.standard_normal(4), k=4,
                        split=VflSplit.contiguous(5, 0, 2))

    def test_shapes_and_true_features(self, small_model):
        rng = np.random.default_rng(41)
        y_act, x_pas = rng.uniform(size=(9, 5)), rng.uniform(size=(9, 5))
        sys_ = build_system(small_model, y_act, predict(small_model, y_act, x_pas))
        assert sys_.b.shape == (9, 1) and sys_.batch == (9,)
        assert np.allclose(sys_.residual(x_pas), 0.0, atol=1e-9)
        assert np.all(sys_.contains(x_pas))
        assert sys_.min_norm_solution.shape == (9, 5)
        for i in range(9):
            one = build_system(small_model, y_act[i], predict(small_model, y_act[i], x_pas[i]))
            assert np.allclose(sys_.b[i], one.b, rtol=0.0, atol=1e-12)

    def test_one_svd_per_batch(self, small_model, monkeypatch):
        from vflpriv import numerics
        calls = []
        real = numerics.svd
        monkeypatch.setattr(numerics, "svd", lambda a: calls.append(1) or real(a))
        rng = np.random.default_rng(42)
        y_act, x_pas = rng.uniform(size=(20, 5)), rng.uniform(size=(20, 5))
        sys_ = build_system(small_model, y_act, predict(small_model, y_act, x_pas))
        sys_.pinv, sys_.projector, sys_.nullity
        assert len(calls) == 1

    def test_corrupted_row_named(self):
        model = self._k4_rank_deficient()
        rng = np.random.default_rng(43)
        y_act, x_pas = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 2))
        c = predict(model, y_act, x_pas)
        c[4] = c[4][[2, 0, 3, 1]]
        one = build_system(model, y_act[4], c[4], source="noisy")
        want = np.max(np.abs(predict(model, y_act[4], one.min_norm_solution) - c[4])
                      / c[4])
        assert want > 1e-6
        with pytest.raises(SystemError_,
                           match=re.escape(f"row 4 (its min-norm solution predicts "
                                           f"scores off by {want:.3e} relative")):
            build_system(model, y_act, c)
        # the same rows without the corrupted one build cleanly
        build_system(model, np.delete(y_act, 4, axis=0), np.delete(c, 4, axis=0))

    @pytest.mark.parametrize("old, new", [
        ("- j @ model.b", ""),                                       # no bias
        ("j = difference_matrix", "j = -difference_matrix"),         # sign of J
        ("- _rowwise(j, _rowwise(model.w_act, y_act))", ""),         # no active term
    ])
    def test_mutated_build_raises_on_full_rank_model(self, old, new):
        # k=4, d=6: A has full row rank, so every b' is satisfiable and only
        # the rebuilt scores can show a wrong b'
        from vflpriv import system
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(45)
        model = VflModel(w_act=rng.standard_normal((4, 4)),
                         w_pas=rng.standard_normal((4, 6)),
                         b=rng.standard_normal(4), k=4,
                         split=VflSplit.contiguous(10, 0, 6))
        y_act, x_pas = rng.uniform(size=(200, 4)), rng.uniform(size=(200, 6))
        c = predict(model, y_act, x_pas)
        assert build_system(model, y_act, c).svd.rank() == 3
        source = inspect.getsource(system.build_system)
        assert source.count(old) == 1
        namespace = dict(vars(system))
        exec(source.replace(old, new), namespace)
        with pytest.raises(SystemError_, match="not satisfiable at row 0 "):
            namespace["build_system"](model, y_act, c)

    @pytest.mark.parametrize("source", ["clean", "noisy"])
    @pytest.mark.parametrize("score", [0.0, 5e-324, np.finfo(float).tiny / 2])
    def test_score_below_tiny_raises(self, small_model, score, source):
        # a zero or subnormal score has no exact log, so no row may use it
        rng = np.random.default_rng(44)
        y_act, x_pas = rng.uniform(size=(3, 5)), rng.uniform(size=(3, 5))
        c = predict(small_model, y_act, x_pas)
        c[2] = [1.0 - score, score]
        with pytest.raises(SystemError_, match=re.escape(f"row 2 has score {score},")):
            build_system(small_model, y_act, c, source=source)
        with pytest.raises(SystemError_, match="row 0 "):
            build_system(small_model, y_act[2], c[2], source=source)
        # the smallest normal float is still exact
        c[2] = [1.0 - np.finfo(float).tiny, np.finfo(float).tiny]
        build_system(small_model, y_act, c, source="noisy")

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, small_model, score):
        # released scores are not checked before they reach build_system
        rng = np.random.default_rng(44)
        y_act, x_pas = rng.uniform(size=(3, 5)), rng.uniform(size=(3, 5))
        c = predict(small_model, y_act, x_pas)
        c[2, 1] = score
        with pytest.raises(SystemError_,
                           match=re.escape(f"row 2 has score {score}, not a finite float")):
            build_system(small_model, y_act, c, source="noisy")

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
           scale=st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_true_features_satisfy_or_row_named(self, seed, k, scale):
        # exact scores either give a system that the true features satisfy,
        # or hold a score below the smallest normal float, whose row is named
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(seed)
        model = VflModel(w_act=scale * rng.standard_normal((k, 4)),
                         w_pas=scale * rng.standard_normal((k, 6)),
                         b=scale * rng.standard_normal(k), k=k,
                         split=VflSplit.contiguous(10, 0, 6))
        y_act, x_pas = rng.uniform(size=(50, 4)), rng.uniform(size=(50, 6))
        c = predict(model, y_act, x_pas)
        tiny_rows = np.flatnonzero(np.min(c, axis=1) < np.finfo(float).tiny)
        try:
            sys_ = build_system(model, y_act, c)
        except SystemError_ as exc:
            assert tiny_rows.size, exc
            assert f"row {tiny_rows[0]} has score" in str(exc)
        else:
            assert not tiny_rows.size
            assert np.max(sys_.residual(x_pas)) <= 1e-6

    def test_mismatched_rows_rejected(self, small_model):
        with pytest.raises(ValueError):
            build_system(small_model, np.full((3, 5), 0.5), np.full((4, 2), 0.5))


class TestLoneRow:
    """One row, in a batch of one or as the one row of each system of a
    stack, gets the bits it gets as row 0 of a larger batch, and so do the
    first rows of a batch of any count."""

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["batch", "stack"])
    def test_row_0_of_a_larger_batch(self, lead):
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(5)
        for _ in range(40):
            k, d = int(rng.integers(2, 8)), int(rng.integers(1, 12))
            model = VflModel(w_act=rng.standard_normal(lead + (k, 4)),
                             w_pas=rng.standard_normal(lead + (k, d)),
                             b=rng.standard_normal(k), k=k,
                             split=VflSplit.contiguous(d + 4, 0, d))
            y, x = rng.uniform(size=lead + (17, 4)), rng.uniform(size=lead + (17, d))
            self._assert_first_rows(model, y, x, 1)

    @pytest.mark.parametrize("d", [8, 9, 10])
    def test_every_count_at_k2(self, d):
        # at k = 2, A is one row of d >= 8 columns, a product that BLAS
        # blocks by four rows: 1 to 9 rows get their bits in a larger batch
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(d)
        model = VflModel(w_act=rng.standard_normal((2, 4)), w_pas=rng.standard_normal((2, d)),
                         b=rng.standard_normal(2), k=2, split=VflSplit.contiguous(d + 4, 0, d))
        y, x = rng.uniform(size=(64, 4)), rng.uniform(size=(64, d))
        for n in range(1, 10):
            self._assert_first_rows(model, y, x, n)

    @staticmethod
    def _assert_first_rows(model, y, x, n):
        """b', min_norm_solution, residual and contains of the first n rows
        (per system) equal those rows' in the batch of all of them."""
        c = predict(model, y, x)
        big, few = build_system(model, y, c), build_system(model, y[..., :n, :], c[..., :n, :])
        for name, got, want in (
                ("b", few.b, big.b[..., :n, :]),
                ("min_norm_solution", few.min_norm_solution, big.min_norm_solution[..., :n, :]),
                ("residual", few.residual(x[..., :n, :]), big.residual(x)[..., :n]),
                ("contains", few.contains(x[..., :n, :]), big.contains(x)[..., :n])):
            assert np.array_equal(got, want), (name, model.k, model.split.d, n)


class TestStack:
    """A batch of systems, on one A each (a with a leading axis) or on one
    shared A (b with a leading axis), gives each system the bits it gets
    alone, from one SVD."""

    def _stack(self, ranks, seed=0, m=3, d=5, n=4, shared=False):
        """A stack of systems of these ranks; a rank given as a tuple of
        singular values makes its system U diag(s) V^T, U and V random with
        orthonormal columns. shared puts every system on the first one's A,
        held once as a 2-D a."""
        rng = np.random.default_rng(seed)
        a = np.zeros((len(ranks), m, d))
        for i, r in enumerate(ranks):
            if shared and i:
                a[i] = a[0]
            elif isinstance(r, tuple):
                u, v = (np.linalg.qr(rng.standard_normal((k, len(r))))[0] for k in (m, d))
                a[i] = (u * r) @ v.T
            else:
                a[i] = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
        # features near 0 and 1, where half_star often leaves the box
        shape = (len(ranks), n, d)
        x = np.abs(rng.integers(0, 2, shape) - rng.uniform(0.0, 0.1, shape))
        b = np.einsum("smd,snd->snm", a, x)
        log_c = rng.standard_normal((len(ranks), n, m + 1))
        return LinearSystem(a=a[0] if shared else a, b=b, log_c=log_c), x

    @staticmethod
    def _own(stack, value, i):
        """System i's part of a value with one entry per A: all of it where
        every system shares the one A."""
        return value if stack.a.ndim == 2 else value[i]

    # at d = 3, determined systems (rank 3) beside nullities 1 and 2; in
    # "ill_conditioned", the determined system's singular values are 1, 1e-3
    # and 1e-5; the shared cases hold one 2-D A under b of shape (S, N, m)
    @pytest.mark.parametrize("ranks, d, shared", [
        ([3, 3, 3], 5, False), ([2, 2], 5, False), ([3, 1, 0, 3], 5, False),
        ([0, 0], 5, False), ([3, 2, 3], 3, False), ([2, 3, 1, 3], 3, False),
        ([(1.0, 1e-3, 1e-5), 2], 3, False), ([2, 2, 2], 5, True), ([2, 2, 2, 2], 3, True),
        ([3, 3], 3, True)],
        ids=["ranks0", "ranks1", "ranks2", "ranks3", "determined", "determined_two_nullities",
             "ill_conditioned", "shared", "shared_nullity_1", "shared_determined"])
    def test_each_system_as_alone(self, ranks, d, shared):
        # every estimator but rg and gia (see the next test), diagnostics included
        stack, x = self._stack(ranks, d=d, shared=shared)
        ranks = [len(r) if isinstance(r, tuple) else r for r in ranks]
        systems, own = range(len(ranks)), self._own
        assert [own(stack, stack.svd.rank(), i) for i in systems] == ranks
        assert [own(stack, stack.nullity, i) for i in systems] == [d - r for r in ranks]
        got = {name: run_attack(name, stack) for name in ATTACKS if name not in ("rg", "gia")}
        for i in systems:
            alone = LinearSystem(a=own(stack, stack.a, i), b=stack.b[i], log_c=stack.log_c[i])
            for f in ("u", "s", "v"):
                assert np.array_equal(own(stack, getattr(stack.svd, f), i), getattr(alone.svd, f))
            for name in ("pinv", "projector"):
                assert np.array_equal(own(stack, getattr(stack, name), i), getattr(alone, name))
            assert np.array_equal(stack.min_norm_solution[i], alone.min_norm_solution)
            assert np.array_equal(stack.residual(x)[i], alone.residual(x[i]))
            assert np.array_equal(stack.contains(x)[i], alone.contains(x[i]))
            for name, est in got.items():
                one = run_attack(name, alone)
                assert np.array_equal(est.x_hat[i], one.x_hat), name
                assert est.diagnostics.keys() == one.diagnostics.keys(), name
                for key, value in one.diagnostics.items():
                    assert np.array_equal(est.diagnostics[key][i], value), (name, key)

    def test_bad_shapes_rejected(self):
        stack, _ = self._stack([3, 3])
        for b in (stack.b[0], stack.b[:, 0], stack.b[None]):
            with pytest.raises(ValueError, match="b of a stack"):
                LinearSystem(a=stack.a, b=b)
        # one A: b is (m,) or (N, m) after any axes of systems, non-empty and finite
        shape = r"b must have shape \(3,\), \(N, 3\) or S \+ \(N, 3\), got "
        for b, message in ((stack.b[0, 0, :2], shape + r"\(2,\)"),
                           (np.zeros((0, 3)), "b must be non-empty and finite"),
                           ([0.5, np.nan, 0.5], "b must be non-empty and finite")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                LinearSystem(a=stack.a[0], b=b)
        assert LinearSystem(a=stack.a[0], b=stack.b).batch == (2, 4)
        a = stack.a.copy()
        a[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            LinearSystem(a=a, b=stack.b)
        # build_system: a stacked model's scores carry its leading axes, and
        # y_act holds every prediction's rows or one set that all systems share
        from vflpriv.model import VflModel, VflSplit
        rng = np.random.default_rng(46)
        w_act, w_pas = rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 3, 4))
        windows = VflModel(w_act=w_act, w_pas=w_pas, b=rng.standard_normal(3), k=3,
                           split=VflSplit.contiguous(6, 0, 4))
        y_act, x_pas = rng.uniform(size=(2, 5, 2)), rng.uniform(size=(2, 5, 4))
        c = predict(windows, y_act, x_pas)
        for scores in (c[0], c[None]):
            with pytest.raises(ValueError, match=re.escape(
                    f"a stack of (2,) models takes scores (2,) + (N, k), got {scores.shape}")):
                build_system(windows, y_act, scores)
        one = VflModel(w_act=w_act[0], w_pas=w_pas[0], b=windows.b, k=3, split=windows.split)
        for rows in (y_act[:, :4], y_act[:, :, :1], y_act[None]):
            with pytest.raises(ValueError, match=re.escape(
                    f"active features of shape {rows.shape} match neither the (2, 5) "
                    "predictions nor the (5,) rows of these scores")):
                build_system(one, rows, c)
        for model, a_shape in ((windows, (2, 2, 4)), (one, (2, 4))):
            shared = build_system(model, y_act[0], c, source="noisy")
            each = build_system(model, np.stack([y_act[0]] * 2), c, source="noisy")
            assert shared.a.shape == a_shape and np.array_equal(shared.b, each.b)

    @pytest.mark.parametrize("name, init, shared", [
        pytest.param(name, init, shared, id=f"{name}-{init}" + "-shared" * shared)
        for shared in (False, True)
        for name, init in (("rg", "half"), ("gia", "zeros"), ("gia", "half"), ("gia", "random"))])
    def test_system_i_draws_from_seed_plus_i(self, name, init, shared):
        # every output of system i of the stack is that of system i alone at
        # seed 11 + i, system i being b's system i where the systems share A
        stack, _ = self._stack([2] * 4 if shared else [3, 1, 0, 3], shared=shared)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GiaConvergenceWarning)
            got = run_attack(name, stack, init=init, seed=11)
            alone = [run_attack(name, LinearSystem(a=self._own(stack, stack.a, i), b=stack.b[i],
                                                   log_c=stack.log_c[i]),
                                init=init, seed=11 + i) for i in range(4)]
        for i, one in enumerate(alone):
            assert np.array_equal(got.x_hat[i], one.x_hat), i
            for key in ("kl_bits", "converged") if name == "gia" else ():
                assert np.array_equal(got.diagnostics[key][i], one.diagnostics[key]), (key, i)
        if name == "gia":
            assert got.diagnostics["iterations"] == sum(
                one.diagnostics["iterations"] for one in alone)
            assert type(got.diagnostics["iterations"]) is int
