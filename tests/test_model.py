import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vflpriv.dataset import DataError, SyntheticSpec, split_mask, synthesize
from vflpriv.model import (TrainConfig, TrainingError, VflModel, VflSplit,
                           accuracy, loss_and_grads, predict, softmax, train)


class TestSplit:
    def test_contiguous_wraparound(self):
        split = VflSplit.contiguous(19, 18, 5)
        assert split.passive == (18, 0, 1, 2, 3)
        assert 18 not in split.active
        assert split.d_t == 19

    def test_covering(self):
        for d_t in range(1, 13):
            for start in range(-d_t, 2 * d_t + 1):
                for d in range(1, d_t + 1):
                    split = VflSplit.contiguous(d_t, start, d)
                    assert sorted(split.passive + split.active) == list(range(d_t))
                    assert list(split.active) == sorted(split.active)
                    assert split == VflSplit(split.passive, d_t)

    @pytest.mark.parametrize("d", [0, -1, 11, 12])
    def test_contiguous_window_size_checked(self, d):
        with pytest.raises(ValueError, match="window size"):
            VflSplit.contiguous(10, 0, d)

    def test_full_width_window(self):
        split = VflSplit.contiguous(3, 1, 3)
        assert split.passive == (1, 2, 0) and split.active == ()

    def test_active_is_worked_out(self):
        split = VflSplit((3, 0), 5)
        assert split.active == (1, 2, 4) and split.d_t == 5 and split.d == 2
        assert repr(split) == "VflSplit(passive=(3, 0), active=(1, 2, 4))"
        with pytest.raises(TypeError):
            VflSplit(passive=(0,), active=(1,))

    @pytest.mark.parametrize("passive", [(-1, 0), (0, 5), (0, 1, 0)])
    def test_bad_passive_rejected(self, passive):
        with pytest.raises(ValueError, match=re.escape(
                f"passive features {list(passive)} must be distinct indices in [0, 3)")):
            VflSplit(passive, 3)

    @pytest.mark.parametrize("d_t", [0, -2])
    def test_d_t_below_one_rejected(self, d_t):
        with pytest.raises(ValueError,
                           match=f"^a split needs at least one feature, got d_t={d_t}$"):
            VflSplit((), d_t)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).standard_normal((5, 4))
        s = softmax(z)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert np.all(s > 0.0)

    def test_shift_invariance(self):
        z = np.array([1.0, 2.0, 3.0])
        assert np.allclose(softmax(z), softmax(z + 100.0))

    def test_no_overflow(self):
        s = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(s).all()
        assert s[0] == pytest.approx(1.0)

    def test_worked_values(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])
        assert np.allclose(softmax([7.0, 7.0, 7.0]), [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(softmax([np.log(3.0), 0.0]), [0.75, 0.25])


    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 130), rows=st.one_of(st.none(), st.integers(1, 40)),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_row_reduction_oracle_bit_for_bit(self, k, rows, scale, seed):
        # each row sums its classes in order at every k; past 7 classes numpy's
        # own last-axis sum, or a lone column's, would take its pairwise order
        shape = (k,) if rows is None else (rows, k)
        z = scale * np.random.default_rng(seed).standard_normal(shape)
        assert np.array_equal(softmax(z), oracles.softmax_rows(z))

    @pytest.mark.parametrize("shape", [(3, 7, 9), (8, 136), (2, 129), (1000,), (3, 1001),
                                       (50,), (1, 130), (1, 1000)])
    def test_stacked_rows_and_long_sums_match_the_oracle(self, shape):
        # a lone row, 1-D or 1 x k, is one class-major column, which numpy
        # would sum pairwise; it must keep the in-order bits it gets in a batch
        z = 20.0 * np.random.default_rng(8).standard_normal(shape)
        assert np.array_equal(softmax(z), oracles.softmax_rows(z))

    @pytest.mark.parametrize("k", [8, 50, 130, 1000])
    def test_a_lone_row_keeps_its_batch_bits(self, k):
        # 1-D and 1 x k, through softmax and predict. The model has one
        # feature per party, so a logit is one product per party plus the
        # bias, the same alone and in a batch: only the softmax could differ
        rng = np.random.default_rng(k)
        model = VflModel(w_act=rng.standard_normal((k, 1)), w_pas=rng.standard_normal((k, 1)),
                         b=rng.standard_normal(k), k=k, split=VflSplit.contiguous(2, 1, 1))
        z = rng.standard_normal((6, k))
        y_act, x_pas = rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1))
        batch, scores = softmax(z), predict(model, y_act, x_pas)
        for i in range(6):
            assert np.array_equal(softmax(z[i]), batch[i])
            assert np.array_equal(softmax(z[i:i + 1]), batch[i:i + 1])
            assert np.array_equal(predict(model, y_act[i], x_pas[i]), scores[i])
            assert np.array_equal(predict(model, y_act[i:i + 1], x_pas[i:i + 1]), scores[i:i + 1])


class TestGradients:
    def test_finite_difference_check(self):
        # three validation rows ahead of twelve fit rows; the gradients are the fit loss's
        rng = np.random.default_rng(3)
        n_val, n, d, k = 3, 12, 4, 3
        x = rng.uniform(size=(n_val + n, d))
        y = np.eye(k)[rng.integers(0, k, n_val + n)]
        w0 = rng.standard_normal((k, d))
        b0 = rng.standard_normal(k)
        lam = 1e-3

        _, _, gw, gb = loss_and_grads(w0, b0, x, y, lam, n_val)

        def loss_of_w(wflat):
            return loss_and_grads(wflat.reshape(k, d), b0, x, y, lam, n_val)[1]

        def loss_of_b(b):
            return loss_and_grads(w0, b, x, y, lam, n_val)[1]

        fd_w = oracles.finite_difference_grad(loss_of_w, w0.ravel())
        fd_b = oracles.finite_difference_grad(loss_of_b, b0)
        assert np.allclose(gw.ravel(), fd_w, atol=1e-5)
        assert np.allclose(gb, fd_b, atol=1e-5)

    def test_validation_loss_is_the_fit_loss(self):
        # the same rows as validation and as fit give the same loss, bit for bit
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(30, 5))
        y = np.eye(3)[rng.integers(0, 3, 30)]
        w, b = rng.standard_normal((3, 5)), rng.standard_normal(3)
        twice, y2 = np.concatenate((x, x)), np.concatenate((y, y))
        for lam in (0.0, 1e-3):
            val, fit, _, _ = loss_and_grads(w, b, twice, y2, lam, 30)
            assert val == fit

    @pytest.mark.parametrize("n, d, k", [(40, 5, 4), (800, 8, 2), (300, 6, 130), (50, 1, 3)])
    @pytest.mark.parametrize("seed", range(6))
    def test_row_major_oracle_bits(self, n, d, k, seed):
        # the losses and gradients of the oracle's row-major formulas, bit for
        # bit; 800 x 2 and 300 x 130 make sums past numpy's 128-term block
        rng = np.random.default_rng([n, seed])
        n_val = n // 10
        x = rng.uniform(size=(n, d))
        labels = rng.integers(0, k, n)
        w, b, lam = rng.standard_normal((k, d)), rng.standard_normal(k), 1e-3
        val, fit, gw, gb = loss_and_grads(w, b, x, np.eye(k)[labels], lam, n_val)
        assert val == oracles._window_loss(w, b, x[:n_val], np.eye(k)[labels[:n_val]], lam)[1]
        y_fit = np.eye(k)[labels[n_val:]]
        scores, want = oracles._window_loss(w, b, x[n_val:], y_fit, lam)
        assert fit == want
        delta = (scores - y_fit) / (n - n_val)
        assert np.array_equal(gw, delta.T @ x[n_val:] + 2.0 * lam * w)
        assert np.array_equal(gb, delta.sum(axis=0) + 2.0 * lam * b)

    def test_loss_decomposition(self):
        # zero regularization: loss equals plain cross-entropy
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.zeros((2, 2))
        b = np.zeros(2)
        val, fit, _, _ = loss_and_grads(w, b, x, y, 0.0, 1)
        assert val == pytest.approx(np.log(2.0)) and fit == pytest.approx(np.log(2.0))


class TestTraining:
    def test_deterministic(self, small_dataset):
        split = VflSplit.contiguous(10, 0, 4)
        cfg = TrainConfig(seed=5, max_epochs=200)
        m1 = train(small_dataset, split, cfg)
        m2 = train(small_dataset, split, cfg)
        assert np.array_equal(m1.w_pas, m2.w_pas)
        assert np.array_equal(m1.b, m2.b)

    def test_beats_chance(self, small_dataset, small_model):
        assert accuracy(small_model, small_dataset) > 0.75

    def test_regularization_shrinks_weights(self, small_dataset):
        split = VflSplit.contiguous(10, 0, 4)
        free = train(small_dataset, split, TrainConfig(seed=5, max_epochs=300))
        reg = train(small_dataset, split,
                    TrainConfig(seed=5, max_epochs=300, lam=0.1))
        norm = lambda m: np.sum(m.w_act ** 2) + np.sum(m.w_pas ** 2)
        assert norm(reg) < norm(free)

    def test_separable_toy_set(self):
        from vflpriv.dataset import Dataset
        # every feature of class c lies in [0.6 c, 0.6 c + 0.4]
        y = np.arange(200) % 2
        x = 0.6 * y[:, None] + 0.4 * np.random.default_rng(13).uniform(size=(200, 4))
        train_mask = np.arange(200) < 160
        ds = Dataset(x=x, y=y, k=2, feature_names=list("abcd"), train_mask=train_mask)
        model = train(ds, VflSplit.contiguous(4, 0, 2),
                      TrainConfig(seed=13, max_epochs=500))
        # accuracy scores the test rows; with the masks swapped, the training rows
        seen = Dataset(x=x, y=y, k=2, feature_names=list("abcd"), train_mask=~train_mask)
        assert accuracy(model, seen) >= 0.99
        assert accuracy(model, ds) >= 0.99
        with pytest.raises(ValueError, match="^empty evaluation mask$"):
            accuracy(model, Dataset(x=x, y=y, k=2, feature_names=list("abcd")))

    def test_a_split_of_another_table_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="^a split of 6 features cannot view a table of 10$"):
            train(small_dataset, VflSplit.contiguous(6, 0, 3), TrainConfig())

    @pytest.mark.parametrize("lead, k, d_t, message", [
        ((), 2, 6, "a split of 6 features cannot view a table of 10"),
        ((), 3, 10, "a model of 3 classes cannot score a table of 2"),
        ((2,), 2, 10, r"accuracy takes one model, not a stack of shape \(2, 2, 5\)")])
    def test_accuracy_rejects_a_model_of_another_table(self, small_dataset, lead, k, d_t,
                                                       message):
        model = VflModel(w_act=np.zeros(lead + (k, d_t - 5)), w_pas=np.zeros(lead + (k, 5)),
                         b=np.zeros(k), k=k, split=VflSplit.contiguous(d_t, 0, 5))
        with pytest.raises(ValueError, match=f"^{message}$"):
            accuracy(model, small_dataset)

    def test_empty_dataset_rejected(self, small_dataset):
        from vflpriv.dataset import Dataset
        empty = Dataset(x=np.zeros((0, 2)), y=np.zeros(0, dtype=int), k=2,
                        feature_names=["a", "b"])
        with pytest.raises(TrainingError):
            train(empty, VflSplit.contiguous(2, 0, 1), TrainConfig())
        one = Dataset(x=np.zeros((3, 2)), y=np.array([0, 1, 0]), k=2, feature_names=["a", "b"],
                      train_mask=np.array([True, False, False]))
        with pytest.raises(TrainingError, match="^need at least two training samples$"):
            train(one, VflSplit.contiguous(2, 0, 1), TrainConfig())


class TestModelObject:
    def test_logits_partition(self, small_model):
        rng = np.random.default_rng(1)
        y_act = rng.uniform(size=5)
        x_pas = rng.uniform(size=5)
        z = small_model.logits(y_act, x_pas)
        want = (small_model.w_act @ y_act + small_model.w_pas @ x_pas
                + small_model.b)
        assert np.allclose(z, want)

    def test_predict_is_probability(self, small_model):
        c = predict(small_model, np.full(5, 0.3), np.full(5, 0.6))
        assert c.shape == (2,)
        assert c.sum() == pytest.approx(1.0)

    def test_zero_parameters_give_uniform_scores(self):
        split = VflSplit.contiguous(4, 0, 2)
        flat = VflModel(w_act=np.zeros((4, 2)), w_pas=np.zeros((4, 2)),
                        b=np.zeros(4), k=4, split=split)
        assert np.allclose(predict(flat, [0.1, 0.9], [0.4, 0.6]), 0.25)

    def test_reparameterized_weights_reproduce_logits(self):
        # W H^{-1} applied to H x equals W x exactly, for orthonormal H
        rng = np.random.default_rng(14)
        split = VflSplit.contiguous(6, 0, 3)
        model = VflModel(w_act=rng.standard_normal((3, 3)),
                         w_pas=rng.standard_normal((3, 3)),
                         b=rng.standard_normal(3), k=3, split=split)
        h = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        reparam = VflModel(w_act=model.w_act, w_pas=model.w_pas @ h.T,
                           b=model.b, k=3, split=split)
        y, x = rng.uniform(size=3), rng.uniform(size=3)
        assert np.allclose(reparam.logits(y, h @ x), model.logits(y, x),
                           atol=1e-10)

    def test_save_and_window_reject_a_stack(self, tmp_path):
        # a stack's save would write a file that load rejects
        split = VflSplit.contiguous(5, 0, 2)
        stack = VflModel(w_act=np.zeros((2, 3, 3)), w_pas=np.zeros((2, 3, 2)),
                         b=np.zeros(3), k=3, split=split)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=r"^VflModel.save takes one model, not a stack "
                                             r"of shape \(2, 3, 2\)$"):
            stack.save(path)
        assert not path.exists()
        with pytest.raises(ValueError, match=r"^VflModel.window takes one model, not a stack "
                                             r"of shape \(2, 3, 2\)$"):
            stack.window(VflSplit.contiguous(5, 3, 2))

    def test_save_load_roundtrip(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        small_model.save(path)
        loaded = VflModel.load(path)
        assert np.allclose(loaded.w_pas, small_model.w_pas)
        assert np.allclose(loaded.w_act, small_model.w_act)
        assert np.allclose(loaded.b, small_model.b)
        assert loaded.split == small_model.split

    def test_shape_validation(self):
        split = VflSplit.contiguous(4, 0, 2)
        with pytest.raises(ValueError):
            VflModel(w_act=np.zeros((2, 2)), w_pas=np.zeros((2, 3)),
                     b=np.zeros(2), k=2, split=split)
        for act, pas, k, message in (
                ((1, 2), (1, 2), 1, "need at least two classes"),
                ((2, 3), (2, 2), 2, "w_act shape disagrees with the split"),
                ((3, 2, 2), (2, 2, 2), 2, r"w_act stacks \(3,\) views, w_pas \(2,\)")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                VflModel(w_act=np.zeros(act), w_pas=np.zeros(pas),
                         b=np.zeros(k), k=k, split=split)

    @pytest.mark.parametrize("y_act, x_pas", [(5, 4), (4, 5)])
    def test_logits_check_feature_counts(self, small_model, y_act, x_pas):
        with pytest.raises(ValueError, match="^feature dimensions do not match the model$"):
            small_model.logits(np.zeros(y_act), np.zeros(x_pas))

    def test_nonfinite_rejected(self):
        split = VflSplit.contiguous(4, 0, 2)
        with pytest.raises(TrainingError):
            VflModel(w_act=np.zeros((2, 2)),
                     w_pas=np.array([[np.inf, 0.0], [0.0, 0.0]]),
                     b=np.zeros(2), k=2, split=split)


class TestModelFile:
    """VflModel.load checks a file against its k and split; DataError names
    the file and the field."""

    DOC = {"k": 2, "lam": 0.0, "passive": [0, 1, 2], "active": [3, 4],
           "w_act": [0.1] * 4, "w_pas": [0.2] * 6, "b": [0.0, 1.0]}

    @staticmethod
    def _write(tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return path

    def test_saved_file_loads(self, tmp_path):
        model = VflModel.load(self._write(tmp_path, self.DOC))
        assert model.w_pas.shape == (2, 3) and model.w_act.shape == (2, 2)
        assert model.b.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("key, value, message", [
        ("w_pas", [0.2] * 5, "w_pas holds 5 values; k=2, d=3 need 6"),
        ("w_act", [0.1] * 5, "w_act holds 5 values; k=2, d_t-d=2 need 4"),
        ("b", [0.0, 1.0, 2.0], "b holds 3 values; k=2 needs 2"),
        ("b", [], "b holds 0 values; k=2 needs 2"),
        ("k", "two", "k: invalid literal"),
        ("w_pas", ["x"] * 6, "w_pas: could not convert"),
        ("w_pas", [None] * 6, "w_pas contains non-finite entries"),
        ("passive", [0, 1, 3],
         "active: [3, 4] is not the rest of the features in increasing order, [2, 4]"),
        ("active", [4, 3],
         "active: [4, 3] is not the rest of the features in increasing order, [3, 4]"),
        ("passive", [-1, 1, 2], "passive features [-1, 1, 2] must be distinct indices in [0, 5)"),
        ("active", 3, "active: "),
        ("lam", None, "lam: "),
    ])
    def test_bad_field(self, tmp_path, key, value, message):
        path = self._write(tmp_path, {**self.DOC, key: value})
        with pytest.raises(DataError) as info:
            VflModel.load(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_no_features_rejected(self, tmp_path):
        path = self._write(tmp_path, {**self.DOC, "passive": [], "active": [],
                                      "w_act": [], "w_pas": []})
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: a split needs at "
                                            "least one feature, got d_t=0$"):
            VflModel.load(path)

    @pytest.mark.parametrize("text, message", [
        ("{", "not a JSON model: "), ("[1, 2]", "not a JSON model: expected an object"),
        (json.dumps({k: v for k, v in DOC.items() if k != "b"}), "no b field")])
    def test_not_a_model(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            VflModel.load(path)

    def test_every_window_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        full = VflModel(w_act=np.zeros((3, 0)), w_pas=rng.standard_normal((3, 7)),
                        b=rng.standard_normal(3), k=3, split=VflSplit.contiguous(7, 0, 7),
                        lam=0.25)
        path = tmp_path / "m.json"
        for d in range(1, 8):
            for start in range(7):
                view = full.window(VflSplit.contiguous(7, start, d))
                view.save(path)
                assert _same_model(VflModel.load(path), view)

    def test_bias_shape_checked_on_construction(self):
        with pytest.raises(ValueError, match=r"b of shape \(3,\) disagrees with k=2"):
            VflModel(w_act=np.zeros((2, 2)), w_pas=np.zeros((2, 2)), b=np.zeros(3),
                     k=2, split=VflSplit.contiguous(4, 0, 2))


class TestWindowView:
    @pytest.fixture(scope="class")
    def full(self, small_dataset):
        return train(small_dataset, VflSplit.contiguous(10, 0, 10),
                     TrainConfig(seed=3, lam=1e-3, max_epochs=100))

    def test_viewing_back_gives_the_same_weights(self, small_model):
        view = small_model.window(VflSplit.contiguous(10, 7, 6))
        assert view.split.passive == (7, 8, 9, 0, 1, 2) and view.lam == small_model.lam
        assert _same_model(view.window(small_model.split), small_model)

    def test_every_view_gives_the_full_models_logits(self, full):
        x = np.random.default_rng(2).uniform(size=(50, 10))
        want = full.logits(np.empty((50, 0)), x)
        for d in range(1, 11):
            for start in range(10):
                view = full.window(VflSplit.contiguous(10, start, d))
                got = view.logits(x[:, list(view.split.active)], x[:, list(view.split.passive)])
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_full_width_view_has_an_empty_active_side(self, full, small_model):
        view = small_model.window(VflSplit.contiguous(10, 3, 10))
        assert view.w_act.shape == (2, 0) and view.w_pas.shape == (2, 10)
        # features 3..9 then 0..2; the model holds 0..4 passive and 5..9 active
        assert np.array_equal(view.w_pas[:, 2:7], small_model.w_act)
        assert np.array_equal(view.w_pas[:, 7:], small_model.w_pas[:, :3])
        assert _same_model(full.window(full.split), full)

    def test_other_feature_count_rejected(self, small_model):
        with pytest.raises(ValueError, match="9 features"):
            small_model.window(VflSplit.contiguous(9, 0, 4))

    def test_view_owns_its_arrays(self, small_model):
        # a read-only model (one kept and shared) still gives writable views
        model = small_model.window(small_model.split)
        for arr in (model.w_act, model.w_pas, model.b):
            arr.flags.writeable = False
        view = model.window(VflSplit.contiguous(10, 0, 10))
        view.w_pas[:] = view.b[:] = 7.0
        assert _same_model(model, small_model)


def _same_model(got, want):
    return (np.array_equal(got.w_act, want.w_act) and np.array_equal(got.w_pas, want.w_pas)
            and np.array_equal(got.b, want.b) and got.split == want.split
            and got.lam == want.lam)


class TestBatchedTraining:
    """train's full-batch Adam loop against the oracle's own loop, bit for bit."""

    @staticmethod
    def _check(ds, splits, cfgs):
        epochs = []
        for split, cfg in zip(splits, cfgs):
            want, ran = oracles.train_window(ds, split, cfg)
            assert _same_model(train(ds, split, cfg), want)
            epochs.append(ran)
        return epochs

    @pytest.mark.parametrize("k", [2, 4, 9])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_every_window_matches_its_own_loop(self, k, lam):
        # d_t = 6, d = 3: starts 4 and 5 wrap around
        ds = synthesize(SyntheticSpec(n=60 * k, d_t=6, k=k, seed=k))
        splits = [VflSplit.contiguous(6, s, 3) for s in range(6)]
        assert splits[5].passive == (5, 0, 1)
        epochs = self._check(ds, splits, [TrainConfig(lam=lam, seed=s) for s in range(6)])
        assert len(set(epochs)) > 1      # the windows stop at different epochs

    @pytest.mark.parametrize("n, d_t, k, train_frac, d, windows", [
        (1000, 8, 2, 0.8, 8, 1),    # figure1's model: all 8 features, 720 fit rows
        (1000, 8, 2, 0.8, 2, 8),    # 1,440-term sums
        (1000, 8, 2, 0.8, 4, 8),
        (1000, 12, 4, 0.2, 6, 1),   # tradeoff's shape: 180 fit rows
        (700, 6, 130, 0.8, 3, 2),   # k > 128 splits the class axis in two
    ])
    def test_bench_shapes_and_long_sums(self, n, d_t, k, train_frac, d, windows):
        ds = synthesize(SyntheticSpec(n=n, d_t=d_t, k=k, seed=k))
        ds = dataclasses.replace(ds, train_mask=split_mask(n, train_frac, k))
        splits = [VflSplit.contiguous(d_t, s, d) for s in range(windows)]
        self._check(ds, splits, [TrainConfig(seed=1 + s) for s in range(windows)])

    def test_a_first_step_that_raises_the_validation_loss_is_kept(self):
        # the forward at the initial parameters scores no step, so it never
        # enters the best-loss bookkeeping. Zero features and balanced labels
        # on the validation rows make the initial scores (b = 0) optimal
        # there, so the one step raises the validation loss; the model is
        # still the stepped one
        ds = synthesize(SyntheticSpec(n=200, d_t=4, k=2, seed=3))
        train_idx = np.flatnonzero(ds.train_mask)
        n_val = round(0.1 * train_idx.size)
        val_rows = train_idx[np.random.default_rng(0).permutation(train_idx.size)[:n_val]]
        x, y = ds.x.copy(), ds.y.copy()
        x[val_rows], y[val_rows] = 0.0, np.arange(n_val) % 2
        ds = dataclasses.replace(ds, x=x, y=y)
        assert self._check(ds, [VflSplit.contiguous(4, 0, 2)], [TrainConfig(max_epochs=1)]) == [1]

    def test_mixed_caps_seeds_and_weights(self, small_dataset):
        # window 1 stops at its cap of 15 epochs, window 3 runs none; the
        # others stop on the plateau, each at its own epoch
        splits = [VflSplit.contiguous(10, s, d) for s, d in ((0, 4), (9, 4), (3, 1), (5, 10))]
        cfgs = [TrainConfig(seed=3), TrainConfig(seed=4, max_epochs=15),
                TrainConfig(seed=5, lam=0.01), TrainConfig(seed=6, max_epochs=0)]
        epochs = self._check(small_dataset, splits, cfgs)
        assert epochs[1] == 15 and epochs[3] == 0
        assert 15 < min(epochs[0], epochs[2]) and epochs[0] != epochs[2]
        assert max(epochs[0], epochs[2]) < 3000

    @staticmethod
    def _poison(monkeypatch, call):
        """Make the fit loss of the given loss_and_grads call NaN; returns the call count."""
        from vflpriv import model as model_mod
        real, calls = model_mod.loss_and_grads, []

        def poisoned(*args):
            val, loss, gw, gb = real(*args)
            calls.append(None)
            return val, np.nan if len(calls) == call else loss, gw, gb

        monkeypatch.setattr(model_mod, "loss_and_grads", poisoned)
        return calls

    def test_divergence_names_the_epoch(self, small_dataset, monkeypatch):
        self._poison(monkeypatch, 3)
        with pytest.raises(TrainingError, match="diverged at epoch 3"):
            train(small_dataset, VflSplit.contiguous(10, 1, 3), TrainConfig(seed=1))

    def test_stop_check_runs_before_the_divergence_check(self, small_dataset, monkeypatch):
        # the fourth forward is at the parameters after the third and last
        # step; the loop never steps on its fit loss there, so a NaN in it
        # must not raise
        calls = self._poison(monkeypatch, 4)
        epochs = self._check(small_dataset, [VflSplit.contiguous(10, 0, 3)],
                             [TrainConfig(seed=0, max_epochs=3)])
        assert epochs == [3] and len(calls) == 4
