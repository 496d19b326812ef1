"""Acceptance gate: one test per release criterion, each printing PASS or FAIL.

Run with -s (or rely on pytest's captured-output report) to see the verdict
lines. Tolerances are part of the contract and must not be loosened.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from vflpriv import attacks, defense, metrics
from vflpriv.attacks import run_attack
from vflpriv.blackbox import bb_case1, bb_case2
from vflpriv.dataset import Dataset, SyntheticSpec, synthesize
from vflpriv.model import TrainConfig, VflModel, VflSplit, predict, train
from vflpriv.system import LinearSystem, build_system, difference_matrix


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{desc}]: FAIL")
        raise
    print(f"criterion {num} [{desc}]: PASS")


def _attack_mse(model, ds, rows, name):
    act, pas = list(model.split.active), list(model.split.passive)
    truths, ests = [], []
    for i in rows:
        y_act, x_pas = ds.x[i, act], ds.x[i, pas]
        c = predict(model, y_act, x_pas)
        sys_ = build_system(model, y_act, c)
        ests.append(run_attack(name, sys_).x_hat)
        truths.append(x_pas)
    return metrics.empirical_mse(np.array(truths), np.array(ests))


def test_criterion_1_determined_recovery():
    """d < k: every solution-space attack reconstructs exactly."""
    with criterion(1, "determined-system recovery, MSE <= 1e-9, < 10 s"):
        t0 = time.monotonic()
        ds = synthesize(SyntheticSpec(n=1200, d_t=10, k=4, seed=1))
        model = train(ds, VflSplit.contiguous(10, 0, 3),
                      TrainConfig(seed=1, max_epochs=300))
        rows = np.flatnonzero(ds.test_mask)[:200]
        assert rows.size == 200
        for name in ("ls", "half_star", "cls", "rcc1", "rcc2"):
            mse = _attack_mse(model, ds, rows, name)
            assert mse <= 1e-9, (name, mse)
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_ordering():
    """MSE(RCC2) <= MSE(Half*) <= MSE(Half) for every d in 2..10."""
    with criterion(2, "estimator ordering rcc2 <= half_star <= half, < 2 min"):
        t0 = time.monotonic()
        ds = synthesize(SyntheticSpec(n=1200, d_t=10, k=2, seed=2))
        for d in range(2, 11):
            model = train(ds, VflSplit.contiguous(10, 0, d),
                          TrainConfig(seed=2, max_epochs=300))
            rows = np.flatnonzero(ds.test_mask)[:200]
            assert rows.size == 200
            m_half = _attack_mse(model, ds, rows, "half")
            m_hs = _attack_mse(model, ds, rows, "half_star")
            m_r2 = _attack_mse(model, ds, rows, "rcc2")
            assert m_r2 <= m_hs + 1e-9, d
            assert m_hs <= m_half + 1e-9, d
        assert time.monotonic() - t0 < 120.0


def test_criterion_3_half_vs_rg_gap():
    """Random guessing trails the constant-half baseline by exactly 1/12."""
    with criterion(3, "MSE(RG) - MSE(Half) = 1/12 +- 0.01 over 1e5 samples"):
        rng = np.random.default_rng(3)
        n, d = 100_000, 4
        x = rng.uniform(size=(n, d))
        rg = rng.uniform(size=(n, d))
        mse_rg = metrics.empirical_mse(x, rg)
        mse_half = metrics.empirical_mse(x, np.full_like(x, 0.5))
        assert abs((mse_rg - mse_half) - 1.0 / 12.0) < 0.01


def test_criterion_4_closed_form_identity():
    """Trace closed forms equal empirical MSE and sit inside their bounds."""
    with criterion(4, "closed forms match empirical to 1e-6 on 20 instances"):
        rng = np.random.default_rng(4)
        for trial in range(20):
            d = int(rng.integers(3, 7))
            m = int(rng.integers(1, d))
            a = rng.standard_normal((m, d))
            x = rng.uniform(size=(80, d))
            ds = Dataset(x=x, y=np.zeros(80, dtype=int), k=2,
                         feature_names=[f"f{i}" for i in range(d)])
            mom = metrics.moments(ds)
            sys0 = LinearSystem(a=a, b=a @ x[0])
            reports = metrics.closed_form_mse(sys0, mom)
            proj = sys0.projector
            emp_ls, emp_hs = [], []
            for row in x:
                sys_ = LinearSystem(a=a, b=a @ row)
                ls = sys_.min_norm_solution
                hs = ls + 0.5 * proj @ np.ones(d)
                emp_ls.append(np.sum((row - ls) ** 2))
                emp_hs.append(np.sum((row - hs) ** 2))
            assert abs(reports["ls"].closed_form - np.mean(emp_ls) / d) < 1e-6
            assert abs(reports["half_star"].closed_form
                       - np.mean(emp_hs) / d) < 1e-6
            for r in reports.values():
                assert r.lower - 1e-9 <= r.closed_form <= r.upper + 1e-9


def test_criterion_5_oracle_agreement():
    """RCC2 equals the projection oracle; RCC1 is feasible and conservative."""
    with criterion(5, "polytope oracles: projection 1e-4, radius bound, "
                      "segment center 1e-3"):
        rng = np.random.default_rng(5)
        n_done = 0
        while n_done < 50:
            d = int(rng.integers(2, 4))
            m = int(rng.integers(1, d))
            a, b, _ = oracles.random_satisfiable_system(rng, d, m)
            sys_ = LinearSystem(a=a, b=b)
            if sys_.nullity == 0:
                continue
            n_done += 1
            # RCC2 against the independent SLSQP projection oracle
            r2 = attacks.attack_rcc2(sys_)
            want = oracles.project_box_affine(np.full(d, 0.5), a, b)
            assert np.max(np.abs(r2.x_hat - want)) < 1e-4
            # RCC1: feasible, radius never below the exact Chebyshev radius
            r1 = attacks.attack_rcc1(sys_)
            assert r1.feasible
            _, rad_exact = oracles.chebyshev_center_exact(sys_)
            assert r1.diagnostics["radius"] >= rad_exact - 1e-6
        # symmetric segments: b = A (1/2 1) makes the feasible segment
        # symmetric about the box center, where the relaxation is tight
        n_seg = 0
        while n_seg < 10:
            d = 3
            a = rng.standard_normal((2, d))
            sys_ = LinearSystem(a=a, b=a @ np.full(d, 0.5))
            if sys_.nullity != 1:
                continue
            n_seg += 1
            r1 = attacks.attack_rcc1(sys_)
            c_exact, _ = oracles.chebyshev_center_exact(sys_)
            assert np.max(np.abs(r1.x_hat - c_exact)) < 1e-3


def test_criterion_6_blackbox_convergence():
    """Cases 1-2 mean MSE < 0.01 at N=100 and < 1e-3 at N=1000."""
    with criterion(6, "black-box cases 1-2 converge: <0.01 at N=100, "
                      "<1e-3 at N=1000"):
        rng = np.random.default_rng(6)
        for case, (w, b) in ((1, (1.3, 0.0)), (2, (1.0, 1.0))):
            fn = bb_case1 if case == 1 else bb_case2
            for n, bound in ((100, 0.01), (1000, 1e-3)):
                vals = []
                for _ in range(100):
                    x = rng.uniform(size=n)
                    est = fn(w * x + b)
                    vals.append(float(np.mean((est.x_hat - x) ** 2)))
                assert np.mean(vals) < bound, (case, n)


def test_criterion_7_reparameterization_cost():
    """H = -I: measured MSE increase equals (4/d) Tr(A^+A K_half)."""
    with criterion(7, "H=-I degradation identity within 1e-3"):
        rng = np.random.default_rng(7)
        d_t, d, k, n = 8, 5, 3, 300
        split = VflSplit.contiguous(d_t, 0, d)
        model = VflModel(w_act=rng.standard_normal((k, d_t - d)),
                         w_pas=rng.standard_normal((k, d)),
                         b=rng.standard_normal(k), k=k, split=split)
        x = rng.uniform(size=(n, d_t))
        # pin the passive spans so the renormalized transform is exactly 1 - x
        x[0, :] = 0.0
        x[1, :] = 1.0
        ds = Dataset(x=x, y=np.zeros(n, dtype=int), k=2,
                     feature_names=[f"f{i}" for i in range(d_t)])
        res = defense.pps1_transform(
            ds, defense.OrthonormalTransform.neg_identity(d),
            passive=split.passive)
        revealed = defense.pps1_reveal_params_renormalized(model, res)
        assert np.allclose(revealed.w_pas, -model.w_pas)
        assert np.allclose(revealed.b, model.b + model.w_pas @ np.ones(d))

        act, pas = list(split.active), list(split.passive)
        deltas = {"ls": [], "half_star": []}
        proj_range = None
        for i in range(n):
            y_act, x_pas = x[i, act], x[i, pas]
            c = predict(model, y_act, x_pas)
            clean = build_system(model, y_act, c)
            defended = build_system(revealed, y_act, c)
            if proj_range is None:
                proj_range = clean.pinv @ clean.a
            for name in ("ls", "half_star"):
                e0 = np.sum((run_attack(name, clean).x_hat - x_pas) ** 2)
                e1 = np.sum((run_attack(name, defended).x_hat - x_pas) ** 2)
                deltas[name].append(e1 - e0)
        xc = x[:, pas] - 0.5
        k_half = xc.T @ xc / n
        want = 4.0 / d * float(np.trace(proj_range @ k_half))
        for name in ("ls", "half_star"):
            got = float(np.mean(deltas[name])) / d
            assert abs(got - want) < 1e-3, name


def test_criterion_8_noise_direction_optimality():
    """No trace-budgeted noise correlation beats alpha v1 v1^T."""
    with criterion(8, "noise optimum sigma1^2 alpha dominates 1000 PSD draws"):
        rng = np.random.default_rng(8)
        d_t, d, k = 9, 5, 4
        split = VflSplit.contiguous(d_t, 0, d)
        model = VflModel(w_act=rng.standard_normal((k, d_t - d)),
                         w_pas=rng.standard_normal((k, d)),
                         b=rng.standard_normal(k), k=k, split=split)
        y_act = rng.uniform(size=d_t - d)
        x_pas = rng.uniform(size=d)
        sys_ = build_system(model, y_act, predict(model, y_act, x_pas))
        alpha = 2.0
        apj = sys_.pinv @ difference_matrix(k)
        sigma1 = float(np.linalg.svd(apj, compute_uv=False)[0])
        best = sigma1 ** 2 * alpha
        plan = defense.pps2_optimal_direction(sys_, alpha)
        attained = oracles.pps2_objective(
            sys_, alpha * np.outer(plan.v1, plan.v1))
        assert abs(attained - best) < 1e-8
        for _ in range(1000):
            bmat = rng.standard_normal((k, k))
            s = bmat @ bmat.T
            s *= alpha / np.trace(s)
            assert oracles.pps2_objective(sys_, s) <= best + 1e-8


def test_criterion_9_label_preservation():
    """All four noisy-score schemes keep every predicted label unchanged."""
    with criterion(9, "argmax preserved exactly on 1000 samples, all schemes"):
        rng = np.random.default_rng(9)
        d_t, d, k = 8, 4, 4
        split = VflSplit.contiguous(d_t, 0, d)
        model = VflModel(w_act=rng.standard_normal((k, d_t - d)),
                         w_pas=rng.standard_normal((k, d)),
                         b=rng.standard_normal(k), k=k, split=split)
        for _ in range(1000):
            y_act = rng.uniform(size=d_t - d)
            x_pas = rng.uniform(size=d)
            z = model.logits(y_act, x_pas)
            truth = int(np.argmax(z))
            sys_ = build_system(model, y_act, predict(model, y_act, x_pas))
            for alpha in (0.1, 1.0, 10.0):
                plan = defense.pps2_optimal_direction(sys_, alpha)
                assert int(np.argmax(defense.pps2_scheme1(z, plan))) == truth
                # the lifting rule can tie the original label with another
                # entry; the label is preserved when it attains the maximum
                c2 = defense.pps2_scheme2(z, plan)
                assert c2[truth] == c2.max()
            # the convex-mixing scheme is only label-safe for weights < 1
            for alpha in (0.1, 0.5, 0.9):
                assert int(np.argmax(defense.pps2_scheme3(z, alpha))) == truth
            for eps in (0.01, 0.05, 0.1):
                assert int(np.argmax(defense.pps2_class_label(z, eps))) == truth


def test_criterion_10_retraining_fidelity():
    """Retraining on H-transformed features reproduces the original scores."""
    with criterion(10, "avg per-sample KL < 1e-2 bits on 1000 held-out rows"):
        ds = synthesize(SyntheticSpec(n=5000, d_t=6, k=2, seed=10))
        split = VflSplit.contiguous(6, 0, 3)
        cfg = TrainConfig(seed=10, lam=1e-4)
        base = train(ds, split, cfg)
        res = defense.pps1_transform(
            ds, defense.OrthonormalTransform.neg_identity(3),
            passive=split.passive)
        retrained = train(res.dataset, split, cfg)
        rows = np.flatnonzero(ds.test_mask)
        assert rows.size == 1000
        act, pas = list(split.active), list(split.passive)
        kls = []
        for i in rows:
            c0 = predict(base, ds.x[i, act], ds.x[i, pas])
            c1 = predict(retrained, res.dataset.x[i, act],
                         res.dataset.x[i, pas])
            kls.append(metrics.kl_divergence(c0, c1))
        assert float(np.mean(kls)) < 1e-2
