import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vflpriv import attacks, numerics
from vflpriv.system import LinearSystem


def _projector(a):
    """Nullspace projector I - A^+ A of A, through a system with b = 0."""
    return LinearSystem(a=a, b=np.zeros(len(a))).projector


def _random_matrix(seed, m, d, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((m, d))
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, d))
    return left @ right


class TestPinv:
    @given(st.integers(0, 50), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_moore_penrose_properties(self, seed, m, d):
        a = _random_matrix(seed, m, d)
        ap = numerics.svd(a).pinv()
        assert np.allclose(a @ ap @ a, a, atol=1e-9)
        assert np.allclose(ap @ a @ ap, ap, atol=1e-9)
        assert np.allclose((a @ ap).T, a @ ap, atol=1e-9)
        assert np.allclose((ap @ a).T, ap @ a, atol=1e-9)

    def test_matches_reference(self):
        for seed in range(10):
            a = _random_matrix(seed, 4, 7, rank=3)
            assert np.allclose(numerics.svd(a).pinv(), np.linalg.pinv(a), atol=1e-9)

    def test_zero_matrix(self):
        assert np.array_equal(numerics.svd(np.zeros((3, 5))).pinv(), np.zeros((5, 3)))

    def test_rank_cutoff_is_relative(self):
        a = np.diag([1e3, 1e-6])   # well separated but both above the cutoff
        assert numerics.svd(a).rank() == 2
        b = np.diag([1.0, 1e-12])  # second value sits below 1e-10 * sigma_1
        assert numerics.svd(b).rank() == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerics.svd(np.array([[1.0, np.nan]])).pinv()

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(0, 3\)$"):
            numerics.svd(np.zeros((0, 3)))

    def test_lapack_failure_is_named(self, monkeypatch):
        def fail(a, full_matrices):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(numerics.NumericsError, match="^SVD did not converge: no convergence$"):
            numerics.svd(np.eye(2))

    @pytest.mark.parametrize("x, message", [
        ([], "expected a non-empty vector"),
        ([0.5, np.inf], "vector contains non-finite entries")])
    def test_as_vector_rejects(self, x, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            numerics.as_vector(x)


class TestNullspace:
    def test_projector_idempotent_symmetric(self):
        a = _random_matrix(3, 2, 5)
        p = _projector(a)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(p, p.T)
        assert np.allclose(a @ p, 0.0, atol=1e-9)

    def test_basis_orthonormal_and_annihilated(self):
        a = _random_matrix(4, 3, 6, rank=2)
        w = numerics.svd(a).nullspace()
        assert w.shape == (6, 4)
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-10)
        assert np.allclose(a @ w, 0.0, atol=1e-9)

    def test_projector_equals_wwt(self):
        a = _random_matrix(5, 2, 4)
        w = numerics.svd(a).nullspace()
        assert np.allclose(_projector(a), w @ w.T, atol=1e-10)

    def test_trivial_nullspace(self):
        a = np.eye(3)
        assert numerics.svd(a).nullspace().shape == (3, 0)

    def test_a_stack_raises(self):
        factors = numerics.svd(np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match=re.escape(
                "nullspace takes one matrix's factors, not a stack of shape (2, 4, 4)")):
            factors.nullspace()


CENTER = 0.5     # dykstra_project projects the box center, and only it


class TestProjections:
    def test_dykstra_matches_slsqp_oracle(self):
        # planes at offsets from a vertex in to the center itself, their
        # normals leaning toward that vertex, so that the center's
        # projection is clipped on some and not on others
        rng = np.random.default_rng(1)
        clipped = 0
        for t in 0.5 * np.linspace(0.0, 1.0, 10) ** 2:
            sign = rng.choice([-1.0, 1.0], size=4)
            a = sign + 0.5 * rng.standard_normal((2, 4))
            truth = 0.5 + (0.5 - t) * sign
            sys_ = LinearSystem(a=a, b=a @ truth)
            [got], _ = numerics.dykstra_project(sys_, [0])
            want = oracles.project_box_affine(np.full(4, CENTER), a, a @ truth)
            assert np.allclose(got, want, atol=1e-5)
            # the point must also solve Ax = b
            assert sys_.residual(got) < 1e-8
            clipped += bool(np.any((got == 0.0) | (got == 1.0)))
        assert 3 <= clipped <= 7

    def test_dykstra_noop_inside(self):
        # the point of x1 + 2 x2 = 2.6 nearest the center, (0.72, 0.94), is
        # in the box: the projection starts there and takes no step
        sys_ = LinearSystem(a=np.array([[1.0, 2.0]]), b=np.array([2.6]))
        got, iters = numerics.dykstra_project(sys_, [0])
        assert np.array_equal(got, [sys_.plane_center]) and iters.tolist() == [0]

    def test_dykstra_iteration_cap(self, monkeypatch):
        a = np.array([[1.0, 3.0]])
        # its nearest point to the center, (0.69, 1.07), is outside the box;
        # the projection takes 2 Newton steps
        sys_ = LinearSystem(a=a, b=np.array([3.9]))
        monkeypatch.setattr(numerics, "_PROJECT_MAX_ITER", 1)
        with pytest.raises(numerics.ConvergenceError) as err:
            numerics.dykstra_project(sys_, [0])
        assert err.value.last_iterate is not None

    def test_dykstra_n_rows_equal_n_one_row_calls(self):
        rng = np.random.default_rng(11)
        a, _, _ = oracles.random_satisfiable_system(rng, 5, 2)
        truths = np.where(rng.random((30, 5)) < 0.5, 0.98, 0.02)
        # the first 6 rows whose half_star lies outside the box, so that
        # each takes Newton steps
        start = LinearSystem(a=a, b=truths @ a.T).plane_center
        truths = truths[np.any((start < 0.0) | (start > 1.0), axis=1)][:6]
        sys_ = LinearSystem(a=a, b=truths @ a.T)
        got, iters = numerics.dykstra_project(sys_, np.arange(6))
        assert got.shape == (6, 5) and iters.shape == (6,)
        center = np.full(5, CENTER)
        for i in range(6):
            row = LinearSystem(a=a, b=sys_.b[i])
            [one], [n_one] = numerics.dykstra_project(row, [0])
            try:
                # a tight move test: at the default 1e-10 Dykstra can stop
                # short of the projection that SLSQP and Newton agree on
                oracle = oracles.dykstra_row(center, row, tol=1e-12)
            except numerics.NumericsError:  # Dykstra stalls off the plane
                oracle = oracles.project_box_affine(center, a, sys_.b[i])
            assert np.max(np.abs(got[i] - one)) <= 1e-12
            assert np.max(np.abs(got[i] - oracle)) <= 1e-9
            assert int(iters[i]) == int(n_one)
        assert np.all(iters > 0)
        # a sub-batch picked by rows gives the same projections
        sub, _ = numerics.dykstra_project(sys_, [4, 1])
        assert np.max(np.abs(sub - got[[4, 1]])) <= 1e-12

    def test_dykstra_cap_names_rows_and_residuals(self, monkeypatch):
        # row 0's half_star (0.54, 0.62) is in the box; rows 1 and 2's,
        # (0.69, 1.07) and (0.33, -0.01), are not, and they take 2 steps
        sys_ = LinearSystem(a=np.array([[1.0, 3.0]]),
                            b=np.array([[2.4], [3.9], [0.3]]))
        monkeypatch.setattr(numerics, "_PROJECT_MAX_ITER", 1)
        with pytest.raises(numerics.ConvergenceError) as err:
            numerics.dykstra_project(sys_, [0, 1, 2])
        assert err.value.rows.tolist() == [1, 2]
        assert set(err.value.residuals) == {"affine"}
        assert all(v.shape == (2,) for v in err.value.residuals.values())
        assert np.all(err.value.residuals["affine"] > 0.0)
        assert np.array_equal(err.value.last_iterate[0], sys_.plane_center[0])
        # rows are named by their index in the system, not in the sub-batch
        with pytest.raises(numerics.ConvergenceError) as err:
            numerics.dykstra_project(sys_, [2, 0])
        assert err.value.rows.tolist() == [2]

    def test_rows_alone_equal_rows_in_a_batch(self):
        # rcc2 rows 12, 48 and 49 of a benchmark table (seed 1406, pass 3,
        # window 3). Near the optimum of row 12 the dual value rises by less
        # than its own rounding, so a line search that compares dual values
        # stalls there (at affine residual 7e-10).
        a = np.array(
            [[-0.5243311285053015, 0.7393358864026481, 0.1381388997135068,
              -0.27092166314251326, 1.6402256906374795, 0.7707713314785538],
             [-0.42705936331053573, -0.634996462732366, -1.3708223940746722,
              -0.49647571430491005, -0.19691677602568813, 0.3755707429670586],
             [1.3293400033578364, 1.5606939081063835, 0.5276935589732576,
              1.6537831754405776, -1.2895455373664115, -1.5281043134564134]])
        b = np.array(
            [[-0.5744337269765285, -1.0101519455314356, 2.8397882136227333],
             [3.013626416697222, -0.5832166931724946, -0.9763400305325622],
             [1.74010758478151, -3.024588030280869, 3.5787607848706093]])
        sys_ = LinearSystem(a=a, b=b)
        got, steps = numerics.dykstra_project(sys_, np.arange(3))
        for i in range(3):
            [one], [n_one] = numerics.dykstra_project(LinearSystem(a=a, b=b[i]), [0])
            assert np.max(np.abs(got[i] - one)) <= 1e-12 and steps[i] == n_one
        assert np.all(np.max(np.abs(got @ a.T - b), axis=1) <= 1e-10)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 8),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_projection_is_exact(self, seed, m, d, data):
        rank = data.draw(st.integers(1, min(m, d)), label="rank")
        scale = data.draw(st.floats(0.01, 30.0), label="scale")
        binary = data.draw(st.booleans(), label="0/1 truths")
        rng = np.random.default_rng(seed)
        a = scale * _random_matrix(seed, m, d, rank)
        truths = (rng.integers(0, 2, size=(4, d)).astype(float) if binary
                  else rng.uniform(0.0, 1.0, size=(4, d)))
        b = truths @ a.T
        x0 = np.full(d, CENTER)
        x, _ = numerics.dykstra_project(LinearSystem(a=a, b=b), np.arange(4))
        assert np.all((x >= 0.0) & (x <= 1.0))
        bound = 1e-12 * (1.0 + np.max(np.abs(a)) + np.max(np.abs(b), axis=1))
        assert np.all(np.max(np.abs(x @ a.T - b), axis=1) <= bound)
        # the truth lies in the set, so the projection is no farther from x0,
        # up to how far a residual within the bound can leave the set
        s = np.linalg.svd(a, compute_uv=False)
        slack = 1e-9 + np.sqrt(m) * bound / s[s > 1e-10 * s[0]][-1]
        dist = np.linalg.norm(x - x0, axis=1)
        assert np.all(dist <= np.linalg.norm(truths - x0, axis=1) + slack)

    def test_binary_truths_converge(self):
        # with exact 0/1 truths the feasible set often meets the box only at
        # a face or a vertex, where rounding in b can leave the dual without
        # a maximizer; every row must still converge, alone as in the batch
        from vflpriv.model import VflModel, VflSplit, predict
        from vflpriv.system import build_system
        projected = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            model = VflModel(w_act=3.0 * rng.standard_normal((4, 4)),
                             w_pas=3.0 * rng.standard_normal((4, 6)),
                             b=rng.standard_normal(4), k=4,
                             split=VflSplit.contiguous(10, 0, 6))
            y_act = rng.uniform(size=(100, 4))
            truths = rng.integers(0, 2, size=(100, 6)).astype(float)
            sys_ = build_system(model, y_act, predict(model, y_act, truths))
            half_star = attacks.attack_half_star(sys_).x_hat
            # rows whose clipped scores moved the system off the truth are
            # left out: their set can be empty
            todo = np.flatnonzero(oracles.contains(sys_, truths, 1e-9)
                                  & np.any((half_star < 0.0) | (half_star > 1.0),
                                           axis=1))
            x, _ = numerics.dykstra_project(sys_, todo)
            assert np.all((x >= 0.0) & (x <= 1.0))
            assert np.all(np.abs(x @ sys_.a.T - sys_.b[todo]) <= 1e-10)
            for xi, i in zip(x, todo):
                [one], _ = numerics.dykstra_project(LinearSystem(a=sys_.a, b=sys_.b[i]), [0])
                assert np.max(np.abs(one - xi)) <= 1e-12
            projected += todo.size
        assert projected >= 2000


class TestBoxLeastSquares:
    def test_satisfiable_residual_zero(self):
        rng = np.random.default_rng(2)
        a, b, _ = oracles.random_satisfiable_system(rng, 5, 3)
        [x] = numerics.box_least_squares(LinearSystem(a=a, b=b), [0])
        assert np.linalg.norm(a @ x - b) < 1e-8
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_overdetermined_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        [got] = numerics.box_least_squares(LinearSystem(a=a, b=b), [0])
        want = oracles.box_least_squares_ref(a, b)
        assert np.allclose(got, want, atol=1e-6)

    def test_n_rows_equal_n_one_row_calls(self):
        rng = np.random.default_rng(12)
        a, _, _ = oracles.random_satisfiable_system(rng, 5, 2)
        b = rng.uniform(0.0, 1.0, size=(6, 5)) @ a.T
        sys_ = LinearSystem(a=a, b=b)
        got = numerics.box_least_squares(sys_, np.arange(6))
        assert got.shape == (6, 5)
        for i in range(6):
            [one] = numerics.box_least_squares(LinearSystem(a=a, b=b[i]), [0])
            assert np.max(np.abs(got[i] - one)) <= 1e-9
            assert np.max(np.abs(got[i] - oracles.box_least_squares_row(a, b[i]))) <= 1e-8

    @staticmethod
    def _staggered():
        """Six rows of one 3 x 6 system, three with a solution in the box and
        three without. The rows stop apart, after 3, 2, 2, 4, 4 and 4 Newton
        steps (the last a move under 1e-12): a cap of 1 names all six rows,
        2 four and 3 three."""
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 6))
        b = np.vstack([rng.uniform(0.0, 1.0, (3, 6)) @ a.T,
                       2.0 * rng.standard_normal((3, 3))])
        return LinearSystem(a=a, b=b)

    def test_staggered_rows_get_their_lone_bits(self):
        sys_ = self._staggered()
        got = numerics.box_least_squares(sys_, np.arange(6))
        assert not oracles.box_kkt_failures(sys_, np.arange(6), got)
        for i, b in enumerate(sys_.b):
            [one] = numerics.box_least_squares(LinearSystem(a=sys_.a, b=b), [0])
            assert np.array_equal(got[i], one), i
        assert np.array_equal(numerics.box_least_squares(sys_, [5, 0, 3]), got[[5, 0, 3]])
        # stacked with its rows reversed, each system gets its lone bits
        stack = LinearSystem(a=np.stack([sys_.a] * 2), b=np.stack([sys_.b, sys_.b[::-1]]))
        assert np.array_equal(numerics.box_least_squares(stack, np.arange(12)),
                              np.vstack([got, got[::-1]]))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_cap_gives_each_row_its_lone_bits(self, monkeypatch, max_iter):
        sys_ = self._staggered()
        monkeypatch.setattr(numerics, "_LSQ_MAX_ITER", max_iter)
        with pytest.raises(numerics.ConvergenceError) as err:
            numerics.box_least_squares(sys_, np.arange(6))
        got = err.value
        assert got.rows.tolist() == {1: [0, 1, 2, 3, 4, 5], 2: [0, 3, 4, 5],
                                     3: [3, 4, 5]}[max_iter]
        assert got.residuals.keys() == {"residual"}
        assert str(got).startswith(f"box least squares hit the iteration cap on "
                                   f"{got.rows.size} of 6 rows; rows {got.rows.tolist()}; "
                                   f"residual ")
        for i, b in enumerate(sys_.b):
            one = LinearSystem(a=sys_.a, b=b)
            if i in got.rows:
                with pytest.raises(numerics.ConvergenceError) as lone:
                    numerics.box_least_squares(one, [0])
                assert np.array_equal(lone.value.residuals["residual"],
                                      got.residuals["residual"][got.rows == i])
                [want] = lone.value.last_iterate
            else:
                [want] = numerics.box_least_squares(one, [0])
            assert np.array_equal(got.last_iterate[i], want), i

    def test_kkt_certificate_fails_on_wrong_answers(self):
        # the certificate that every box_least_squares answer of the suite
        # passes: it rejects a point off the box, a point short of the
        # minimizer and a bound coordinate whose gradient points into the box
        sys_ = self._staggered()
        rows = np.arange(6)
        x = numerics.box_least_squares(sys_, rows)
        assert not oracles.box_kkt_failures(sys_, rows, x)
        # rows 3 to 5 have no solution in the box, so A^+ b' lies off it
        assert {3, 4, 5} <= set(oracles.box_kkt_failures(sys_, rows, sys_.min_norm_solution))
        assert oracles.box_kkt_failures(sys_, rows, np.full((6, 6), 0.5)) == rows.tolist()
        bound = np.flatnonzero((x == 0.0) | (x == 1.0))
        assert bound.size
        y = x.copy()
        y.flat[bound[0]] = 0.5
        assert oracles.box_kkt_failures(sys_, rows, y) == [bound[0] // 6]

    def test_a_row_at_residual_zero_stops(self):
        # the residual reaches 0 on a face of the box, where the row's
        # solution set is a segment, and the row stops there
        sys_ = LinearSystem(a=np.array([[-0.2745256659226494, -2.0112024155759203]]),
                            b=np.array([-2.233053527480698]))
        [x] = numerics.box_least_squares(sys_, [0])
        assert abs(sys_.a @ x - sys_.b) <= 1e-12
        want = oracles.box_least_squares_row(sys_.a, sys_.b)
        assert np.linalg.norm(sys_.a @ x - sys_.b) <= np.linalg.norm(sys_.a @ want - sys_.b) + 1e-12

    def test_binary_row_converges_within_the_cap(self):
        # row 26 of window start=4 of `figure1 --d-grid 6 --n 50 --seed 4
        # --attacks cls` on a k = 4, d_t = 12 table of exactly binary
        # features (bench/datagen's generate(path, 4, 1000, 12, 4) with its
        # jitter at 0): its minimizer sits at a corner of the box with a
        # residual near 0, where accelerated projected gradient stopped at
        # 50,000 iterations with a residual of 1.8e-5
        a = np.array([
            [0.374954986891333, -0.4106571799452392, -0.05484975497567052,
             1.7984074606720792, 1.295050631533108, -1.7685338049768715],
            [-0.3577091002531201, -1.4496287795923255, -1.2705301043832953,
             -1.0115266049047917, 0.6501167509657249, 1.1286078542420581],
            [1.9717003279192027, 0.9195061535336971, 1.9977112643032817,
             -0.8723367661096958, -1.5979235840839796, 0.7637182249734286]])
        b = np.array([0.8843934515878691, -0.7995120286266011, -0.6784174305502826])
        sys_ = LinearSystem(a=a, b=b)
        [x] = numerics.box_least_squares(sys_, [0])
        assert not oracles.box_kkt_failures(sys_, [0], x[None])
        want = oracles.box_least_squares_ref(a, b)
        assert np.linalg.norm(a @ x - b) <= np.linalg.norm(a @ want - b) + 1e-12

    def test_cap_names_rows_and_residuals(self, monkeypatch):
        a = np.array([[1.0, 2.0, 0.5]])
        b = np.array([[0.7], [4.0], [-0.4]])
        monkeypatch.setattr(numerics, "_LSQ_MAX_ITER", 2)
        with pytest.raises(numerics.ConvergenceError) as err:
            numerics.box_least_squares(LinearSystem(a=a, b=b), [0, 1, 2])
        # row 0's first step from the center lands on its half_star, which
        # lies in the box, and its second stops there; rows 1 and 2 have no
        # solution in the box, and their residual stays positive
        assert err.value.rows.tolist() == [1, 2]
        assert err.value.residuals["residual"].shape == (2,)
        assert err.value.last_iterate.shape == (3, 3)
        assert np.allclose(err.value.last_iterate[0], [0.3, 0.1, 0.4], rtol=0.0, atol=1e-12)
        assert np.all(err.value.residuals["residual"] > 0.1)


@pytest.mark.parametrize("solver", [numerics.box_least_squares, numerics.dykstra_project])
@pytest.mark.parametrize("rows, out", [([7], [7]), ([4], [4]), ([-1], [-1]),
                                       ([0, 5, 3, -2], [5, -2])],
                         ids=["past_the_end", "at_the_end", "negative", "mixed"])
def test_rows_outside_the_batch_are_named(solver, rows, out):
    # no row wraps around or reaches past the R rows of the flattened batch
    sys_ = LinearSystem(a=np.array([[1.0, 1.0, 0.0]]), b=np.array([[0.2], [1.7], [3.0], [0.9]]))
    with pytest.raises(ValueError, match=re.escape(
            f"rows {out} are outside the 4 rows of the batch")):
        solver(sys_, rows)


class TestVertices:
    def test_diagonal_slice_of_square(self):
        sys_ = LinearSystem(a=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        verts = oracles.polytope_vertices(sys_)
        want = {(0.0, 1.0), (1.0, 0.0)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == want

    def test_determined_single_vertex(self):
        sys_ = LinearSystem(a=np.eye(2), b=np.array([0.25, 0.75]))
        verts = oracles.polytope_vertices(sys_)
        assert verts.shape == (1, 2)
        assert np.allclose(verts[0], [0.25, 0.75])

    def test_empty_polytope_raises(self):
        sys_ = LinearSystem(a=np.array([[1.0, 1.0]]), b=np.array([5.0]))
        with pytest.raises(numerics.NumericsError):
            oracles.polytope_vertices(sys_)

    def test_vertices_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b, _ = oracles.random_satisfiable_system(rng, 3, 1)
            sys_ = LinearSystem(a=a, b=b)
            for v in oracles.polytope_vertices(sys_):
                assert sys_.contains(v)


class TestChebyshevCenter:
    def test_segment_center_is_midpoint(self):
        # slice x + y = 1 of the unit square: segment from (1,0) to (0,1)
        sys_ = LinearSystem(a=np.array([[1.0, 1.0]]), b=np.array([1.0]))
        c, r = oracles.chebyshev_center_exact(sys_)
        assert np.allclose(c, [0.5, 0.5], atol=1e-9)
        assert abs(r - np.sqrt(0.5)) < 1e-9

    def test_full_box(self):
        a = np.zeros((1, 3))
        c, r = oracles.chebyshev_center_exact(LinearSystem(a=a, b=np.zeros(1)))
        assert np.allclose(c, 0.5, atol=1e-9)
        assert abs(r - np.sqrt(3) / 2) < 1e-9

    def test_welzl_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = rng.uniform(0.0, 1.0, size=(7, 3))
            c1, r1 = oracles._welzl(pts)
            c2, r2 = oracles.minimal_ball_brute(pts)
            assert abs(r1 - r2) < 1e-7
            assert np.allclose(c1, c2, atol=1e-6)

    def test_dimension_guard(self):
        sys_ = LinearSystem(a=np.zeros((1, 9)), b=np.zeros(1))
        with pytest.raises(ValueError):
            oracles.chebyshev_center_exact(sys_)


class TestWorkedExamples:
    """Hand-checkable values for every primitive."""

    def test_svd_values(self):
        assert np.allclose(numerics.svd(np.eye(2)).s, [1.0, 1.0])
        assert np.allclose(numerics.svd(np.zeros((2, 2))).s, [0.0, 0.0])
        assert np.allclose(numerics.svd([[3.0, 0.0], [0.0, 4.0]]).s, [4.0, 3.0])

    def test_pinv_values(self):
        assert np.allclose(numerics.svd([[1.0, 1.0]]).pinv(), [[0.5], [0.5]])
        assert np.allclose(numerics.svd(np.eye(3)).pinv(), np.eye(3))
        assert np.allclose(numerics.svd([[2.0, 0.0], [0.0, 0.0]]).pinv(),
                           [[0.5, 0.0], [0.0, 0.0]])

    def test_projector_values(self):
        assert np.allclose(_projector([[1.0, 1.0]]), [[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(_projector(np.eye(2)), np.zeros((2, 2)))
        assert np.allclose(_projector([[1.0, 0.0]]),
                           np.diag([0.0, 1.0]))

    def test_nullspace_values(self):
        w = numerics.svd([[1.0, 1.0]]).nullspace()
        assert np.allclose(np.abs(w.ravel()), 1.0 / np.sqrt(2.0))
        assert w[0, 0] * w[1, 0] < 0.0
        span = numerics.svd([[1.0, 0.0, 0.0]]).nullspace()
        assert span.shape == (3, 2)
        assert np.allclose(span[0], 0.0, atol=1e-12)

    def test_box_center_projection_values(self):
        # half_star is the projection of the box center onto Ax = b
        got = attacks.attack_half_star(LinearSystem(a=[[1.0, 1.0]], b=[0.4])).x_hat
        assert np.allclose(got, [0.2, 0.2])

    def test_dykstra_values(self):
        sys_ = LinearSystem(a=np.array([[2.0, 1.0]]), b=np.array([0.2]))
        [got], _ = numerics.dykstra_project(sys_, [0])
        assert np.allclose(got, [0.0, 0.2], atol=1e-6)
        sys2 = LinearSystem(a=np.array([[1.0, 1.0]]), b=np.array([0.4]))
        assert np.allclose(numerics.dykstra_project(sys2, [0])[0],
                           [[0.2, 0.2]], atol=1e-8)

    def test_box_least_squares_values(self):
        [got] = numerics.box_least_squares(LinearSystem(a=[[1.0, -1.0]], b=[1.0]), [0])
        assert np.allclose(got, [1.0, 0.0], atol=1e-6)
        sys2 = LinearSystem(a=np.eye(2), b=[0.3, 0.7])
        [got] = numerics.box_least_squares(sys2, [0])
        assert np.allclose(got, [0.3, 0.7], atol=1e-8)

    def test_chebyshev_values(self):
        c, r = oracles.chebyshev_center_exact(
            LinearSystem(a=np.eye(2), b=np.array([0.3, 0.7])))
        assert np.allclose(c, [0.3, 0.7]) and r == 0.0
        c2, r2 = oracles.chebyshev_center_exact(
            LinearSystem(a=np.array([[1.0, 0.0]]), b=np.array([0.4])))
        assert np.allclose(c2, [0.4, 0.5]) and abs(r2 - 0.5) < 1e-9

    def test_projector_annihilates_min_norm_shift(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 5))
        b = rng.standard_normal(2)
        p = _projector(a)
        assert np.allclose(p @ (numerics.svd(a).pinv() @ b), 0.0, atol=1e-8)
