import csv
import dataclasses
import importlib
import inspect
import io
import os
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vflpriv
from vflpriv import cli, dataset


def _write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = _write_csv(tmp_path, "a,b,label\n1,x,yes\n2,y,no\n")
        table = dataset._parse_csv(dataset._read(path), -1)
        assert table.names == ["a", "b"]
        assert table.labels == ["yes", "no"]
        assert table.values[:, 0].tolist() == [1.0, 2.0]
        assert table.categorical == {1: ["x", "y"]}

    def test_numeric_cells_parsed_once_to_exact_floats(self, tmp_path):
        cells = ["0.1", "1e-320", " 2.5", "-0", "1.7976931348623157e308", "3"]
        text = "a,b,label\n" + "".join(f"{c},{c if i else 'x'},{i % 2}\n"
                                       for i, c in enumerate(cells))
        table = dataset._parse_csv(dataset._read(_write_csv(tmp_path, text)), -1)
        assert table.values[:, 0].tolist() == [float(c) for c in cells]
        assert table.categorical == {1: ["x"] + cells[1:]}   # raw strings, unparsed
        out = dataset.encode_categoricals(
            table, dataset.encode_labels(table.labels)[0], np.ones(6, dtype=bool))
        assert out[:, 0].tolist() == [float(c) for c in cells]

    def test_label_col_selection(self, tmp_path):
        path = _write_csv(tmp_path, "label,a\nyes,1\nno,2\n")
        table = dataset._parse_csv(dataset._read(path), 0)
        assert table.names == ["a"]
        assert table.labels == ["yes", "no"]

    def test_text_column_keeps_its_index(self, tmp_path):
        # a text column between two numeric ones: the numbers on either side
        # keep their places in values, the text its feature index (the label
        # column comes first, so that index is not the header's)
        path = _write_csv(tmp_path, "label,a,b,c\nyes,1,u,3.5\nno,2,w,-4\nno,5,u,6\n")
        table = dataset._parse_csv(dataset._read(path), 0)
        assert table.names == ["a", "b", "c"]
        assert table.values.tolist() == [[1.0, 0.0, 3.5], [2.0, 0.0, -4.0], [5.0, 0.0, 6.0]]
        assert table.categorical == {1: ["u", "w", "u"]}
        y = dataset.encode_labels(table.labels)[0]
        out = dataset.encode_categoricals(table, y, np.ones(3, dtype=bool))
        assert out.tolist() == [[1.0, 0.5, 3.5], [2.0, 0.0, -4.0], [5.0, 0.5, 6.0]]
        assert table.values[:, 1].tolist() == [0.0] * 3     # the table is left as it was

    def test_all_text_features_parse_and_encode(self, tmp_path):
        path = _write_csv(tmp_path, "a,b,label\nu,p,1\nu,q,0\nw,q,1\nw,p,1\n")
        table = dataset._parse_csv(dataset._read(path), -1)
        assert table.values.shape == (4, 2) and not table.values.any()
        assert table.categorical == {0: ["u", "u", "w", "w"], 1: ["p", "q", "q", "p"]}
        y = dataset.encode_labels(table.labels)[0]
        out = dataset.encode_categoricals(table, y, np.ones(4, dtype=bool))
        assert out.tolist() == [[0.5, 1.0], [0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]
        ds = dataset.load_dataset(path)
        assert ds.feature_names == ["a", "b"] and ds.y.tolist() == [1, 0, 1, 1]

    def test_ragged_row(self, tmp_path):
        path = _write_csv(tmp_path, "a,label\n1,yes\n2\n")
        with pytest.raises(dataset.DataError, match="ragged"):
            dataset._parse_csv(dataset._read(path), -1)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_cell_names_column_and_row(self, tmp_path, cell):
        path = _write_csv(tmp_path, f"a,b,label\n1,2,yes\n3,{cell},no\n")
        with pytest.raises(dataset.DataError, match=f"column 'b', row 3: '{cell}'"):
            dataset._parse_csv(dataset._read(path), -1)

    def test_empty_and_headerless(self, tmp_path):
        with pytest.raises(dataset.DataError):
            dataset._parse_csv(dataset._read(_write_csv(tmp_path, "")), -1)
        with pytest.raises(dataset.DataError, match="no data rows"):
            dataset._parse_csv(dataset._read(_write_csv(tmp_path, "a,label\n")), -1)

    def test_single_label_value(self, tmp_path):
        path = _write_csv(tmp_path, "a,label\n1,yes\n2,yes\n")
        with pytest.raises(dataset.DataError, match="distinct"):
            dataset._parse_csv(dataset._read(path), -1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(dataset.DataError, match="cannot read"):
            dataset.load_dataset(tmp_path / "nope.csv")


@pytest.fixture
def parses(monkeypatch):
    """Start with no Dataset kept and count the calls to the parser."""
    calls = []
    parse = dataset._parse_csv

    def counted(raw, label_col):
        calls.append(label_col)
        return parse(raw, label_col)

    monkeypatch.setattr(dataset, "_last_load", (None, None))
    monkeypatch.setattr(dataset, "_parse_csv", counted)
    return calls


class TestParseCache:
    """load_dataset's kept Dataset is the one parse a process keeps: a repeat
    load of the same bytes and split parses nothing."""

    def test_one_parse_for_many_loads(self, tmp_path, parses):
        path = _write_csv(tmp_path, "a,b,label\n1,x,yes\n2,y,no\n")
        sets = [dataset.load_dataset(path) for _ in range(5)]
        assert len(parses) == 1
        for ds in sets:
            assert ds.x[:, 0].tolist() == [0.0, 1.0]
            assert ds.y.tolist() == [1, 0]
        # a copy of the file under another name has the same bytes
        copy = _write_csv(tmp_path, path.read_text(encoding="utf-8"), "copy.csv")
        assert dataset.load_dataset(copy).y.tolist() == [1, 0]
        assert len(parses) == 1

    def test_a_sweep_on_one_table_parses_once(self, tmp_path, parses, capsys):
        rng = np.random.default_rng(4)
        path = _write_csv(tmp_path, "a,b,c,d,label\n" + "".join(
            ",".join(map(repr, row)) + f",{i % 2}\n"
            for i, row in enumerate(rng.uniform(size=(60, 4)).tolist())))
        data = ["--data", str(path), "--n", "5"]
        assert cli.main(["figure1", *data, "--d-grid", "1,2", "--attacks", "half"]) == 0
        for start in range(3):
            assert cli.main(["attack", *data, "--d", "2", "--start", str(start),
                             "--attacks", "half,ls"]) == 0
        assert len(parses) == 1

    @pytest.mark.parametrize("change", [{"seed": 1}, {"train_fraction": 0.6}],
                             ids=["seed", "train_fraction"])
    def test_a_new_split_parses_again(self, tmp_path, parses, change):
        path = _write_csv(tmp_path, "a,b,label\n" + TestLoadCache.TABLE)
        dataset.load_dataset(path)
        dataset.load_dataset(path, **change)
        assert len(parses) == 2

    def test_same_size_and_mtime_rewrite_is_seen(self, tmp_path, parses):
        path = _write_csv(tmp_path, "a,label\n1,yes\n2,no\n4,yes\n")
        stat = path.stat()
        assert dataset.load_dataset(path).x[:, 0].tolist() == [0.0, 1 / 3, 1.0]
        path.write_text("a,label\n1,yes\n3,no\n4,yes\n", encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        assert dataset.load_dataset(path).x[:, 0].tolist() == [0.0, 2 / 3, 1.0]
        assert len(parses) == 2

    def test_label_col_is_part_of_the_key(self, tmp_path, parses):
        path = _write_csv(tmp_path, "a,b\nu,yes\nw,no\n")
        last = dataset.load_dataset(path)
        first = dataset.load_dataset(path, label_col=0)
        assert (last.feature_names, last.y.tolist()) == (["a"], [1, 0])
        assert (first.feature_names, first.y.tolist()) == (["b"], [0, 1])
        assert dataset.load_dataset(path).feature_names == ["a"]
        assert parses == [-1, 0, -1]

    @pytest.mark.parametrize("text", [None, "", "a,label\n1,yes\n2\n",
                                      "a,label\n1,yes\n2,yes\n"])
    def test_errors_raise_on_every_call(self, tmp_path, parses, text):
        path = (tmp_path / "missing.csv" if text is None
                else _write_csv(tmp_path, text))
        for _ in range(2):
            with pytest.raises(dataset.DataError):
                dataset.load_dataset(path)
        assert len(parses) == (0 if text is None else 2)

    def test_callers_cannot_change_the_next_load(self, tmp_path, parses):
        path = _write_csv(tmp_path, "a,b,label\n1,x,yes\n2,y,no\n")
        # every parse makes a table of its own, writable throughout
        table = dataset._parse_csv(dataset._read(path), -1)
        table.values[:] = 9.0
        table.categorical[1][0] = "z"
        table.categorical[0] = ["p", "q"]
        table.labels[0] = "maybe"
        table.names[0] = "c"
        again = dataset._parse_csv(dataset._read(path), -1)
        assert len(parses) == 2
        assert again.values.tolist() == [[1.0, 0.0], [2.0, 0.0]]
        assert again.categorical == {1: ["x", "y"]}
        assert (again.names, again.labels) == (["a", "b"], ["yes", "no"])
        # every Dataset owns fresh, writable arrays
        ds = dataset.load_dataset(path)
        ds.x[:] = 0.0
        ds.y[:] = 0
        ds.train_mask[:] = ~ds.train_mask
        again = dataset.load_dataset(path)
        assert len(parses) == 3
        assert again.x.max() == 1.0
        assert again.y.tolist() == [1, 0]
        assert np.array_equal(again.train_mask, dataset.split_mask(2, 0.8, 0))


class TestLoadCache:
    TABLE = "".join(f"{i},{'xy'[i % 2]},{'yes' if i % 3 else 'no'}\n" for i in range(10))

    @pytest.fixture
    def encodes(self, monkeypatch):
        """Start from an empty cache and count the encodings."""
        calls = []
        encode = dataset.encode_categoricals

        def counted(table, y, train_mask):
            calls.append(1)
            return encode(table, y, train_mask)

        monkeypatch.setattr(dataset, "_last_load", (None, None), raising=False)
        monkeypatch.setattr(dataset, "encode_categoricals", counted)
        return calls

    @staticmethod
    def _same(a, b):
        return (np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and a.k == b.k
                and np.array_equal(a.train_mask, b.train_mask)
                and a.feature_names == b.feature_names)

    def test_one_encoding_for_many_loads(self, tmp_path, encodes):
        path = _write_csv(tmp_path, "a,b,label\n" + self.TABLE)
        first = dataset.load_dataset(path, train_fraction=0.5, seed=3)
        for _ in range(3):
            assert self._same(dataset.load_dataset(path, train_fraction=0.5, seed=3),
                              first)
        assert len(encodes) == 1

    @pytest.mark.parametrize("change", ["bytes", "label_col", "train_fraction", "seed"])
    def test_a_changed_key_encodes_again(self, tmp_path, encodes, monkeypatch, change):
        path = _write_csv(tmp_path, "a,b,label\n" + self.TABLE)
        kw = dict(label_col=-1, train_fraction=0.5, seed=0)
        before = dataset.load_dataset(path, **kw)
        assert self._same(dataset.load_dataset(path, **kw), before)
        assert len(encodes) == 1
        if change == "bytes":
            _write_csv(tmp_path, "a,b,label\n" + self.TABLE.replace("9,", "7,"))
        else:
            kw[change] = {"label_col": 1, "train_fraction": 0.6, "seed": 1}[change]
        got = dataset.load_dataset(path, **kw)
        assert len(encodes) == 2
        assert not self._same(got, before)
        # the same as a load that finds nothing kept
        monkeypatch.setattr(dataset, "_last_load", (None, None))
        assert self._same(got, dataset.load_dataset(path, **kw))


    def test_an_equal_length_edit_misses_both_caches(self, tmp_path, encodes, parses):
        # the cache keys on the table's bytes themselves: one changed byte
        # that keeps the length is a new table to parse and to encode
        text = "a,b,label\n" + self.TABLE
        path = _write_csv(tmp_path, text)
        before = dataset.load_dataset(path)
        edited = text.replace("4,x", "5,x")
        assert len(edited) == len(text) and edited != text
        path.write_text(edited, encoding="utf-8")
        after = dataset.load_dataset(path)
        assert len(encodes) == 2 and len(parses) == 2
        assert (before.x[4, 0], after.x[4, 0]) == (4 / 9, 5 / 9)


class TestEncoding:
    def test_labels_sorted_dense(self):
        y, k = dataset.encode_labels(["c", "a", "b", "a"])
        assert k == 3
        assert y.tolist() == [2, 0, 1, 0]

    def test_categorical_target_mean(self):
        table = dataset.RawTable(
            values=np.zeros((4, 1)),
            names=["cat"],
            labels=["1", "0", "1", "1"],
            categorical={0: ["u", "u", "w", "w"]},
        )
        out = dataset.encode_categoricals(
            table, dataset.encode_labels(table.labels)[0], np.ones(4, dtype=bool))
        assert np.allclose(out[:, 0], [0.5, 0.5, 1.0, 1.0])

    def test_unseen_category_falls_back_to_global_mean(self):
        table = dataset.RawTable(
            values=np.zeros((4, 1)),
            names=["cat"],
            labels=["1", "0", "1", "0"],
            categorical={0: ["u", "u", "w", "zz"]},
        )
        train_mask = np.array([True, True, True, False])
        out = dataset.encode_categoricals(
            table, dataset.encode_labels(table.labels)[0], train_mask)
        assert out[3, 0] == pytest.approx(2.0 / 3.0)  # mean label of train rows

    def test_numeric_passthrough(self):
        values = np.array([[1.5], [2.5]])
        table = dataset.RawTable(values=values, names=["n"], labels=["a", "b"],
                                 categorical={})
        out = dataset.encode_categoricals(
            table, dataset.encode_labels(table.labels)[0], np.ones(2, dtype=bool))
        assert out.tolist() == [[1.5], [2.5]]
        assert not np.shares_memory(out, values)


class TestNormalize:
    def test_range_and_extremes(self):
        values = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        x, lo, span = dataset.normalize(values)
        assert x.min() == 0.0 and x.max() == 1.0
        assert np.allclose(x[:, 0], [0.0, 0.5, 1.0])
        assert lo.tolist() == [0.0, 10.0] and span.tolist() == [10.0, 20.0]

    def test_constant_feature_maps_to_zero(self):
        x, lo, span = dataset.normalize(np.array([[7.0], [7.0]]))
        assert np.allclose(x, 0.0)
        assert lo.tolist() == [7.0] and span.tolist() == [1.0]

    def test_values_land_in_unit_interval_unclipped(self):
        # (v - lo) / span is monotone in v, so rounding cannot leave [0, 1]
        values = (np.random.default_rng(4).standard_normal((500, 3))
                  * np.array([1e-300, 1.0, 1e300]))
        x, lo, span = dataset.normalize(values)
        assert x.min(axis=0).tolist() == [0.0] * 3
        assert x.max(axis=0).tolist() == [1.0] * 3
        assert np.array_equal(lo, values.min(axis=0))
        assert np.array_equal(span, values.max(axis=0) - lo)


class TestSplit:
    def test_deterministic_and_disjoint(self):
        spec = dataset.SyntheticSpec(n=20, d_t=3, k=2, seed=5)
        s1, s2 = dataset.synthesize(spec), dataset.synthesize(spec)
        assert np.array_equal(s1.train_mask, s2.train_mask)
        assert np.array_equal(s1.train_mask, dataset.split_mask(20, 0.8, 5))
        assert not np.any(s1.train_mask & s1.test_mask)
        assert np.all(s1.train_mask | s1.test_mask)
        assert s1.train_mask.sum() == 16

    @pytest.mark.parametrize("fraction, seed", [(0.8, 0), (0.5, 3), (0.2, 7),
                                                (0.01, 1), (0.99, 2)])
    def test_masks_are_a_seeded_shuffle_prefix(self, tmp_path, fraction, seed):
        x = np.random.default_rng(0).uniform(size=(37, 2))
        path = _write_csv(tmp_path, "a,b,label\n" + "".join(
            f"{a!r},{b!r},{i % 3}\n" for i, (a, b) in enumerate(x.tolist())))
        want = np.zeros(37, dtype=bool)
        want[np.random.default_rng(seed).permutation(37)[:round(fraction * 37)]] = True
        loaded = dataset.load_dataset(path, train_fraction=fraction, seed=seed)
        assert np.array_equal(loaded.train_mask, want)
        assert np.array_equal(loaded.test_mask, ~want)
        assert np.array_equal(dataset.split_mask(37, fraction, seed), want)
        if fraction == 0.8:     # synthesize draws its 0.8 split the same way
            spec = dataset.SyntheticSpec(n=37, d_t=2, k=3, seed=seed)
            assert np.array_equal(dataset.synthesize(spec).train_mask, want)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.0, 1.5, float("nan")])
    def test_fraction_outside_0_1(self, tmp_path, fraction):
        path = _write_csv(tmp_path, "a,label\n0.1,x\n0.2,y\n0.3,x\n")
        with pytest.raises(dataset.DataError, match="train fraction"):
            dataset.load_dataset(path, train_fraction=fraction)

    def test_degenerate_fraction(self):
        # 0.8 of 2 rows rounds to 2: no test row
        with pytest.raises(dataset.DataError, match="side"):
            dataset.synthesize(dataset.SyntheticSpec(n=2, d_t=1, k=2, seed=0))
        assert dataset.synthesize(dataset.SyntheticSpec(n=3, d_t=1, k=2, seed=0)
                                  ).train_mask.sum() == 2


class TestSynthesize:
    def test_shapes_and_balance(self):
        ds = dataset.synthesize(dataset.SyntheticSpec(n=100, d_t=4, k=2, seed=3))
        assert ds.x.shape == (100, 4)
        assert np.bincount(ds.y).tolist() == [50, 50]
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert ds.train_mask.sum() == 80

    def test_deterministic(self):
        spec = dataset.SyntheticSpec(n=50, d_t=3, k=3, seed=11)
        a = dataset.synthesize(spec)
        b = dataset.synthesize(spec)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


class TestDatasetValidation:
    @pytest.mark.parametrize("x, y", [(np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3))])
    def test_rejects_mismatched_samples(self, x, y):
        with pytest.raises(dataset.DataError,
                           match="^feature matrix and labels disagree on sample count$"):
            dataset.Dataset(x=x, y=y, k=2, feature_names=["f0", "f1"])

    @pytest.mark.parametrize("n, d_t, message", [
        (1, 1, "need at least one sample per class"), (4, 0, "need at least one feature")])
    def test_synthetic_spec_bounds(self, n, d_t, message):
        with pytest.raises(dataset.DataError, match=f"^{message}$"):
            dataset.SyntheticSpec(n=n, d_t=d_t, k=2)

    @pytest.mark.parametrize("x", [[[1.5], [0.5]], [[-0.5], [0.5]], [[0.5], [np.nan]]])
    def test_rejects_out_of_range_features(self, x):
        with pytest.raises(dataset.DataError, match=r"^feature values must lie in \[0, 1\]$"):
            dataset.Dataset(x=x, y=[0, 1], k=2, feature_names=["f0"])

    @pytest.mark.parametrize("mask, got", [
        (np.array([1, 0] * 5, dtype=np.int64), "int64 of shape (10,)"),
        (np.ones(5, dtype=bool), "bool of shape (5,)"),
        (np.ones((10, 1), dtype=bool), "bool of shape (10, 1)")])
    def test_rejects_a_malformed_train_mask(self, mask, got):
        with pytest.raises(dataset.DataError, match=re.escape(
                f"train_mask must be a boolean array of shape (10,), got {got}")):
            dataset.Dataset(x=np.zeros((10, 2)), y=np.arange(10) % 2, k=2,
                            feature_names=["a", "b"], train_mask=mask)

    def test_rejects_bad_labels(self):
        with pytest.raises(dataset.DataError):
            dataset.Dataset(x=np.array([[0.5]]), y=np.array([2]), k=2,
                            feature_names=["f0"])

    def test_fields_cannot_be_reassigned(self):
        # an int64 mask assigned after construction would skip the check and
        # make every row a test row
        ds = dataset.synthesize(dataset.SyntheticSpec(n=10, d_t=2, seed=0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.train_mask = np.array([1, 0] * 5, dtype=np.int64)
        assert ds.train_mask.dtype == bool and ds.train_mask.sum() == 8

    def test_replace_checks_again(self):
        ds = dataset.synthesize(dataset.SyntheticSpec(n=10, d_t=2, seed=0))
        with pytest.raises(dataset.DataError, match=re.escape("got int64 of shape (10,)")):
            dataclasses.replace(ds, train_mask=np.array([1, 0] * 5, dtype=np.int64))
        mask = np.arange(10) < 3
        again = dataclasses.replace(ds, train_mask=mask)
        assert np.array_equal(again.train_mask, mask) and np.array_equal(again.x, ds.x)


def test_every_checked_dataclass_is_frozen():
    """A dataclass whose __post_init__ checks or coerces its fields must be
    frozen, or a later assignment skips the check."""
    unfrozen = []
    for info in pkgutil.iter_modules(vflpriv.__path__):
        module = importlib.import_module(f"vflpriv.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj)
                    and not obj.__dataclass_params__.frozen):
                unfrozen.append(f"{module.__name__}.{name}")
    assert unfrozen == []


class TestLoadPipeline:
    def test_end_to_end(self, tmp_path):
        rows = ["f1,f2,label"]
        rng = np.random.default_rng(0)
        for i in range(20):
            cat = "ab"[i % 2]
            rows.append(f"{rng.uniform():.4f},{cat},{i % 2}")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        ds = dataset.load_dataset(path, seed=1)
        assert ds.k == 2
        assert ds.x.shape == (20, 2)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert ds.train_mask.sum() == 16


# cells for the reader's differential test: plain numbers, and cells that
# the C reader must leave to the csv path (quotes, non-finite values, cells
# loadtxt rejects and float() may or may not accept)
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0.1", "1e-320", "-0", "+1.5", " 2.5", "3 ", "\t7", ".5",
                     "5.", "1E+3", "4.9e-324", "1.7976931348623157e308"]))
_ODD = st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e999", "1_000",
                        "\u0661\u0662", "", " ", "abc", "0x10", '"1.5"', '"a,b"',
                        '"x""y"', "1\x0b", "\xa01", "1\x00"])
_LABELS = st.sampled_from(["a", "b", "c", "1", "2.0", " a", "b\x0b"])
_ODD_LABELS = st.sampled_from(['"a"', '"c,d"', '"e""f"', "g\x00"])
_SPOILERS = st.sampled_from(["", " ", "\t", ",", "1", "1,2,3,4,5,6,7", "\r"])


# the ways _tables spoils a plain table
_SPOILS = ["label_col", "category", "odd", "odd_labels", "line", "eol", "lone_eol",
           "no_rows", "one_column"]


@st.composite
def _tables(draw):
    """(bytes of a CSV table, label_col): a table of plain numbers with the
    label column anywhere, spoiled in up to two of the _SPOILS ways."""
    spoils = draw(st.sets(st.sampled_from(_SPOILS), max_size=2))
    width = 1 if "one_column" in spoils else draw(st.integers(2, 5))
    label_col = draw(st.integers(-width, width - 1))
    if "label_col" in spoils:
        label_col = draw(st.sampled_from([width, -width - 1, 2 * width]))
    n = 0 if "no_rows" in spoils else draw(st.integers(1, 6))
    rows = [[f"c{j}" for j in range(width)]]
    rows += [[draw(_NUMBERS) for _ in range(width)] for _ in range(n)]
    if n and "category" in spoils:
        j = draw(st.integers(0, width - 1))
        for row in rows[1:]:
            row[j] = draw(_LABELS)
    if n and "odd" in spoils:
        rows[draw(st.integers(1, n))][draw(st.integers(0, width - 1))] = draw(_ODD)
    labels = _LABELS
    if "odd_labels" in spoils:
        rows[0][0] = '"c0"'
        labels = st.one_of(_LABELS, _ODD_LABELS)
    if -width <= label_col < width:
        for row in rows[1:]:
            row[label_col] = draw(labels)
    lines = [",".join(row) for row in rows]
    if "line" in spoils:                        # blank, whitespace-only, ragged
        lines.insert(draw(st.integers(0, len(lines))), draw(_SPOILERS))
    eols = [draw(st.sampled_from(["\n", "\r\n"]))]
    if "eol" in spoils:                         # mixed line ends, a lone CR
        eols.append(draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(line + eols[i % len(eols)] for i, line in enumerate(lines))
    if draw(st.booleans()):                     # no trailing newline
        text = text.rstrip("\r\n")
    if "lone_eol" in spoils:                    # a CR or LF anywhere
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["\r", "\n"])) + text[i:]
    return text.encode("utf-8"), label_col


def _outcome(parse, raw, label_col):
    """A table's names, labels, text cells and value bits, or the exception it raised."""
    try:
        t = parse(raw, label_col)
    except Exception as exc:
        return type(exc), str(exc)
    v = t.values
    return (t.names, t.labels, t.categorical,
            (v.dtype, v.shape, v.tobytes(), v.flags.writeable, v.flags.c_contiguous))


def _bench_shaped(n=1000, d_t=12, k=4, seed=0) -> bytes:
    """A table written as the benchmark writes its own: csv.writer's CRLF
    lines, repr of each float and string labels."""
    rng = np.random.default_rng(seed)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f"f{j}" for j in range(d_t)] + ["label"])
    for row, c in zip(rng.random((n, d_t)).tolist(), rng.integers(0, k, n).tolist()):
        writer.writerow([repr(v) for v in row] + ["class_" + "abcd"[c]])
    return out.getvalue().encode("utf-8")


class TestPlainReader:
    """_parse_csv reads plain numeric tables with numpy.loadtxt and must give
    what the csv path (_parse_rows) gives on every input."""

    @given(_tables())
    @settings(max_examples=400, deadline=None)
    @example((b"a,b,label\n1,2,x\n3,4,y\n", -1))
    @example((b"a,b,label\r\n1,2,x\r\n3,4,y", 0))
    @example((b"a,label\n1,x\n\n2,y\n", -1))
    @example((b"a,label\n1,x\n2,y\n3\n", -1))
    @example((b"a,b,label\n1,2,x\n3,4,y,5\n", -1))
    @example((b"a,label\n", -1))
    @example((b"\n\n", -1))
    @example((b"a,label\n1,x\n2\xff,y\n", -1))
    @example((b'"a",label\n1,x\n2,y\n', -1))
    @example((b'a,label\n1,"x"\n2,y\n', -1))
    @example((b"a,label\n1,x\x00\n2,y\n", -1))
    @example((b"a,label\r\n1,x\r\r\n2,y\r\n", -1))
    @example((b"c0,c\r1\r\n3,y\r\n2,y\r\n", -1))
    @example((b"c0,c1,c2\r\n5,5,x\r\n9,7,y\r\n\n6,5,x\r\n", -1))
    @example((b"a,label\n0." + b"1" * 131072 + b",x\n2,y\n", -1))
    def test_matches_the_csv_path(self, table):
        raw, label_col = table
        assert (_outcome(dataset._parse_csv, raw, label_col)
                == _outcome(dataset._parse_rows, raw, label_col))

    @pytest.mark.parametrize("raw, label_col", [
        (_bench_shaped(), -1),
        (_bench_shaped(n=20, d_t=3, k=2).replace(b"\r\n", b"\n"), -1),
        (b"label,a,b\n1,0.5,2\n0,1e-3,-4", 0),
        (b"a,label,b\n1,x,2\n3,y,4\n", -2),
        (b"a,label,b\n1,x,2\n3,y,4\n", 1),
    ], ids=["bench", "lf", "first", "middle-negative", "middle"])
    def test_plain_tables_take_the_c_reader(self, raw, label_col):
        plain = dataset._parse_plain(raw, label_col)
        assert plain is not None
        assert _outcome(lambda *a: plain, raw, label_col) == _outcome(
            dataset._parse_rows, raw, label_col)

    @pytest.mark.parametrize("raw", [
        b'a,label\n"1",x\n2,y\n', b"a,label\n1,x\r2,y\n", b"a,label\r\n1,x\n2,y\r\n",
        b"a,label\n1,x\n\n2,y\n", b"a,label\n1,x\n \n2,y\n", b"a,b,label\n1,2,x\n3,4\n",
        b"a,label\n1,x\nabc,y\n", b"a,label\n1,x\n1_000,y\n",
        "a,label\n1,x\n\u0661\u0662,y\n".encode(), b"a,label\n1,x\n,y\n",
        b"a,label\n1,x\ninf,y\n", b"a,label\n1,x\nnan,y\n", b"a,label\n",
        b"a,label\n1,x\n2,x\n", b"a,label\n1,x\n2\xff,y\n", b"label\nx\ny\n",
        b"a,label\n1,x\x00\n2,y\n", b"a,label\n0." + b"1" * 131072 + b",x\n2,y\n",
    ])
    def test_other_tables_take_the_csv_path(self, raw):
        assert dataset._parse_plain(raw, -1) is None

    @pytest.mark.parametrize("text", ["a,b,c,d,label\n1,2,3,4,x\n5,6,7,8,y\n",
                                      "a,b,c,d,label\n1,u,3,4,x\n5,v,7,8,y\n"],
                             ids=["plain", "categorical"])
    @pytest.mark.parametrize("label_col", [5, 9, -6, -11])
    def test_label_col_out_of_range_raises(self, tmp_path, text, label_col):
        path = _write_csv(tmp_path, text)
        match = f"label column {label_col} is out of range for a table of 5 columns"
        with pytest.raises(dataset.DataError, match=match):
            dataset._parse_csv(dataset._read(path), label_col)
        with pytest.raises(dataset.DataError, match=match):
            dataset._parse_rows(path.read_bytes(), label_col)

    @pytest.mark.parametrize("label_col", [4, -1, 0, -5])
    def test_label_col_in_range_reads(self, tmp_path, label_col):
        path = _write_csv(tmp_path, "a,b,c,d,e\n1,2,3,4,5\n6,7,8,9,0\n")
        table = dataset._parse_csv(dataset._read(path), label_col)
        j = label_col % 5
        assert table.labels == [str(1 + j), str((6 + j) % 10)]
        assert table.names == [n for i, n in enumerate("abcde") if i != j]
