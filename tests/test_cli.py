import csv
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from vflpriv import attacks, blackbox, cli, metrics, numerics
from vflpriv.attacks import ATTACKS, AttackError
from vflpriv.dataset import SyntheticSpec, synthesize
from vflpriv.model import TrainConfig, VflModel, VflSplit, accuracy, train
from vflpriv.system import LinearSystem, SystemError_


def _run(argv):
    return cli.main(argv)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SYNTH = ["--synth-n", "100", "--synth-dt", "4"]


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 3\nn-grid=1..4\n\n", encoding="utf-8")
        cfg = cli.read_config(path)
        assert cfg == {"seed": "3", "n_grid": "1..4"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(Exception):
            cli.read_config(path)

    def test_config_seeds_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=2\nn-grid=1..2\nseed=5\n", encoding="utf-8")
        assert _run(["blackbox", "--config", str(cfg)]) == 0
        base = capsys.readouterr().out
        assert _run(["blackbox", "--config", str(cfg), "--n-grid", "1..3"]) == 0
        overridden = capsys.readouterr().out
        assert len(base.strip().splitlines()) == 3     # header + 2 rows
        assert len(overridden.strip().splitlines()) == 4
        assert _run(["blackbox", f"--config={cfg}"]) == 0      # the one-token form
        assert capsys.readouterr().out == base

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n", encoding="utf-8")
        assert _run(["blackbox", "--config", str(cfg)]) == 2

    def test_key_of_another_subcommand_exit_2(self, tmp_path, capsys, train_calls):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=2\n", encoding="utf-8")
        assert _run(["train", "--synth-n", "100", "--config", str(cfg)]) == 2
        assert "trials" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("command", ["blackbox", "figure12"])
    @pytest.mark.parametrize("line, trials", [("", cli.DESK_TRIALS), ("trials=3\n", 3)])
    def test_trial_count_from_config(self, command, line, trials, tmp_path,
                                     monkeypatch):
        # --trials is the one spelling of the count, from a flag or a key
        calls = []
        real = cli._blackbox_trial_mse
        monkeypatch.setattr(cli, "_blackbox_trial_mse",
                            lambda *a: calls.append(1) or real(*a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}n-grid=1..1\n", encoding="utf-8")
        assert _run([command, "--config", str(cfg)]) == 0
        assert len(calls) == trials

    def test_config_defaults_end_with_the_call(self, tmp_path, monkeypatch):
        # figure1 and blackbox share the options of their parent parsers, so a
        # default set from a config file must not reach a later call, of
        # either subcommand
        seen = []
        for name in ("cmd_figure1", "cmd_blackbox"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(
                (args.command, args.seed, args.out)) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nout=o.csv\n", encoding="utf-8")
        assert _run(["figure1", "--config", str(cfg)]) == 0
        assert _run(["figure1"]) == 0
        assert _run(["blackbox"]) == 0
        assert seen == [("figure1", 5, "o.csv"), ("figure1", 0, None),
                        ("blackbox", 0, None)]

    @pytest.mark.parametrize("argv, line, named", [
        (["defend", "--d", "2", "--n", "5", *SYNTH], "scheme=bogus", "--scheme"),
        (["attack", "--d", "2", "--n", "5", "--attacks", "half,gia", *SYNTH],
         "init=bogus", "--init"),
        (["train", "--d", "2", *SYNTH], "seed=abc", "--seed"),
        (["blackbox", "--n-grid", "1..2"], "case=4", "--case"),
    ])
    def test_bad_value_exit_2_before_training(self, argv, line, named, tmp_path,
                                              capsys, train_calls):
        # argparse checks a config value's type and choices as it does a flag's
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert _run([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"argument {named}: invalid" in err and line.split("=")[1] in err
        assert not train_calls

    def test_option_value_false_is_text(self, tmp_path, monkeypatch):
        # a value is the flag's text: out=false names the file "false"
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out=false\nn-grid=1..2\ntrials=1\n", encoding="utf-8")
        assert _run(["blackbox", "--config", str(cfg)]) == 0
        assert len(_read_rows(tmp_path / "false")) == 3

    def test_flag_before_config_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=1\nn-grid=1..2\n", encoding="utf-8")
        assert _run(["blackbox", "--n-grid", "1..3", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    @pytest.mark.parametrize("command", ["blackbox", "train"])
    def test_config_key_in_config_exit_2(self, command, tmp_path, capsys, monkeypatch,
                                         train_calls):
        trials = []
        monkeypatch.setattr(cli, "_blackbox_trial_mse", lambda *a: trials.append(1))
        cfg = tmp_path / "nested.cfg"
        cfg.write_text("config=/nonexistent.cfg\n", encoding="utf-8")
        assert _run([command, "--config", str(cfg)]) == 2
        assert "config=/nonexistent.cfg" in capsys.readouterr().err
        assert not trials and not train_calls

    def test_argparse_exit_is_returned(self, capsys):
        assert _run(["defend", "--scheme", "bogus"]) == 2
        assert _run(["blackbox", "--help"]) == 0
        assert _run([]) == 2


class TestExitCodes:
    def test_missing_data_file(self):
        assert _run(["train", "--data", "/nonexistent.csv"]) == 2

    def test_key_error_is_a_bug(self, monkeypatch):
        # no user input reaches a KeyError, so one is not a config error
        def broken(args):
            raise KeyError("x")
        monkeypatch.setattr(cli, "cmd_train", broken)
        with pytest.raises(KeyError, match="'x'"):
            _run(["train", "--synth-n", "100"])

    def test_success(self, capsys):
        assert _run(["blackbox", "--case", "1", "--n-grid", "1..2",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,mse"


class TestParserKept:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Start with no parser kept and count the parsers built."""
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        return calls

    def test_many_calls_build_one_parser(self, builds, capsys):
        for case in ("1", "2", "3", "2"):
            assert _run(["blackbox", "--case", case, "--n-grid", "1..2",
                         "--trials", "1"]) == 0
        assert _run(["figure12", "--n-grid", "1..2", "--trials", "1"]) == 0
        assert _run(["blackbox", "--bogus"]) == 2
        assert len(builds) == 1

    def test_handler_replaced_after_the_first_call_runs(self, builds, monkeypatch,
                                                         capsys):
        assert _run(["attack", *SYNTH, "--d", "2", "--n", "2", "--attacks", "half"]) == 0
        assert capsys.readouterr().out.startswith("attack,d,n,mse\nhalf,2,2,")
        seen = []
        monkeypatch.setattr(cli, "cmd_attack", lambda args: seen.append(args.n) or 0)
        assert _run(["attack", *SYNTH, "--n", "3"]) == 0
        assert seen == [3] and len(builds) == 1


class TestSubcommands:
    def test_train_and_attack(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert _run(["train", "--synth-n", "200", "--synth-dt", "6",
                     "--d", "3", "--out", str(model_path)]) == 0
        assert model_path.exists()
        assert "accuracy=" in capsys.readouterr().out

        out_path = tmp_path / "attack.csv"
        assert _run(["attack", "--synth-n", "200", "--synth-dt", "6",
                     "--d", "3", "--model", str(model_path),
                     "--attacks", "half,ls", "--n", "5",
                     "--out", str(out_path)]) == 0
        rows = _read_rows(out_path)
        assert rows[0] == ["attack", "d", "n", "mse"]
        assert len(rows) == 3

    def test_window_and_lam_reach_the_model_file(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert _run(["train", "--synth-n", "200", "--synth-dt", "6",
                     "--start", "2", "--d", "3", "--lam", "0.001",
                     "--out", str(model_path)]) == 0
        loaded = VflModel.load(model_path)
        assert loaded.split.passive == (2, 3, 4) and loaded.lam == 0.001

    def test_blackbox_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            assert _run(["blackbox", "--case", "2", "--n-grid", "1..5",
                         "--trials", "3", "--seed", "42", "--out", str(p)]) == 0
        assert p1.read_text() == p2.read_text()

    @pytest.mark.parametrize("case, estimator, w, b", [
        (1, blackbox.bb_case1, 1.0, 0.0), (2, blackbox.bb_case2, 1.0, 1.0),
        (3, blackbox.bb_case3, 1.0, -2.0)])
    def test_each_case_scores_its_estimator(self, tmp_path, case, estimator, w, b):
        # the cell of n is the mean over the trials of empirical_mse of the
        # case's estimator on v = w x + b at its default (w, b), each trial
        # drawing its x from the seed's generator in turn
        out = tmp_path / "bb.csv"
        assert _run(["blackbox", "--case", str(case), "--n-grid", "3..5", "--trials", "2",
                     "--seed", "4", "--out", str(out)]) == 0
        rng, want = np.random.default_rng(4), [["n", "mse"]]
        for n in (3, 4, 5):
            vals = []
            for _ in range(2):
                x = rng.uniform(0.0, 1.0, size=n)
                vals.append(metrics.empirical_mse(x[None, :],
                                                  estimator(w * x + b).x_hat[None, :]))
            want.append([str(n), repr(float(np.mean(vals)))])
        assert _read_rows(out) == want

    @pytest.mark.parametrize("argv", [
        ["attack", *SYNTH, "--d", "2", "--attacks", "half,ls", "--n", "5"],
        ["blackbox", "--case", "2", "--n-grid", "1..3", "--trials", "2"],
        ["tradeoff", *SYNTH, "--d", "2", "--n", "5"]], ids=["attack", "blackbox", "tradeoff"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv):
        # one CSV writer, LF line ends, whether the table goes to --out or stdout
        assert _run(argv) == 0
        printed = capsys.readouterr().out
        assert _run([*argv, "--out", str(tmp_path / "o.csv")]) == 0
        assert (tmp_path / "o.csv").read_bytes() == printed.encode()

    def test_evaluate(self, tmp_path):
        out_path = tmp_path / "eval.csv"
        assert _run(["evaluate", "--synth-n", "200", "--synth-dt", "6",
                     "--d", "3", "--out", str(out_path)]) == 0
        rows = _read_rows(out_path)
        assert rows[0] == ["attack", "closed_form", "lower", "upper", "mu_lower"]
        for row in rows[1:]:
            lo, val, hi = float(row[2]), float(row[1]), float(row[3])
            assert lo - 1e-9 <= val <= hi + 1e-9

    @pytest.mark.parametrize("table", [
        # plain numbers take numpy.loadtxt's path
        "a,b,label\n0.1,0.9,x\n0.8,0.2,y\n0.3,0.7,x\n0.9,0.1,y\n0.2,0.6,x\n0.7,0.4,y\n",
        # a categorical column whose quoted cells hold a comma takes the csv module's
        'a,color,label\n0.1,"red, dark",x\n0.8,blue,y\n0.3,"red, dark",x\n0.9,blue,y\n'
        "0.2,green,x\n0.7,blue,y\n"], ids=["plain", "quoted_categorical"])
    def test_train_on_a_csv_table(self, table, tmp_path, capsys, train_calls):
        path = tmp_path / "t.csv"
        path.write_text(table, encoding="utf-8")
        assert _run(["train", "--data", str(path), "--d", "1", "--train-frac", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("accuracy=")
        assert train_calls == [VflSplit.contiguous(2, 0, 2)]

    @pytest.mark.parametrize("d", ["1", "4"])
    def test_evaluate_on_a_determined_system_writes_exact_zeros(self, d, capsys):
        # k = 5 classes give A 4 rows, so d <= 4 leaves no nullspace: every
        # MSE and bound is 0.0, not rounding noise of either sign
        assert _run(["evaluate", "--synth-n", "300", "--synth-dt", "6", "--synth-k", "5",
                     "--d", d]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["ls", *["0.0"] * 4], ["half_star", *["0.0"] * 4]]

    def test_defend_scheme3(self, tmp_path):
        out_path = tmp_path / "defend.csv"
        assert _run(["defend", "--synth-n", "200", "--synth-dt", "6",
                     "--d", "3", "--scheme", "s3", "--alpha", "0.0,0.5",
                     "--n", "5", "--out", str(out_path)]) == 0
        rows = _read_rows(out_path)
        assert len(rows) == 3
        # alpha = 0 leaves the scores untouched: zero divergence
        assert float(rows[1][3]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[2][3]) > 0.0

    def test_figure1_contains_all_attacks(self, tmp_path):
        out_path = tmp_path / "fig1.csv"
        assert _run(["figure1", "--synth-n", "150", "--synth-dt", "4",
                     "--d-grid", "1,2", "--attacks", "half,ls",
                     "--n", "5", "--out", str(out_path)]) == 0
        rows = _read_rows(out_path)
        assert rows[0] == ["d", "attack", "mse"]
        assert len(rows) == 5
        names = {r[1] for r in rows[1:]}
        assert names == {"half", "ls"}

    def test_synthetic_data_takes_train_frac(self):
        from vflpriv.dataset import SyntheticSpec, synthesize
        parse = cli.build_parser().parse_args
        half = cli._load_data(parse(["train", "--synth-n", "200",
                                     "--train-frac", "0.5"]))
        assert half.train_mask.sum() == 100 and half.test_mask.sum() == 100
        # the default fraction keeps synthesize's own 0.8 split
        default = cli._load_data(parse(["train", "--synth-n", "200"]))
        want = synthesize(SyntheticSpec(n=200, d_t=10, k=2, seed=0))
        assert np.array_equal(default.train_mask, want.train_mask)
        assert np.array_equal(default.x, want.x)

    @pytest.mark.parametrize("flags, n_pred", [([], cli.DESK_N), (["--n", "1000"], 1000)])
    def test_figure1_scores_n_predictions(self, flags, n_pred, monkeypatch):
        # the paper's 1,000 predictions are --n 1000; omitted, the desk count
        seen = []
        monkeypatch.setattr(metrics, "average_over_space",
                            lambda model, ds, d, names, n_pred, **kw:
                            seen.append(n_pred) or dict.fromkeys(names, 0.0))
        assert _run(["figure1", "--synth-n", "100", "--synth-dt", "4",
                     "--d-grid", "1", "--attacks", "half", *flags]) == 0
        assert seen == [n_pred]

    def test_tradeoff_accuracy_preserved(self, tmp_path):
        out_path = tmp_path / "tradeoff.csv"
        assert _run(["tradeoff", "--synth-n", "200", "--synth-dt", "5",
                     "--d", "2", "--n", "10", "--out", str(out_path)]) == 0
        rows = _read_rows(out_path)
        accs = {row[4] for row in rows[1:]}
        assert len(accs) == 1          # constant accuracy column
        assert "nan" not in accs


@pytest.fixture()
def train_calls(monkeypatch):
    """The split of every train call made through the CLI, one entry a call.

    No table model is kept at the start, so test order cannot matter."""
    monkeypatch.setattr(cli, "_last_model", (None, None))
    real, calls = cli.train, []
    monkeypatch.setattr(cli, "train", lambda ds, split, *a, **kw:
                        calls.append(split) or real(ds, split, *a, **kw))
    return calls


class TestBadArguments:
    @pytest.mark.parametrize("d", ["0", "12"])
    def test_window_size_out_of_range(self, d, capsys, train_calls):
        assert _run(["train", "--synth-n", "100", "--synth-dt", "10",
                     "--d", d]) == 2
        assert "--d" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("window, flag", [
        (["--d", "3", "--start", "7"], "--start 7"),
        (["--d", "3", "--start", "-5"], "--start -5"),
        (["--d", "3", "--start", "6"], "--start 6"),
        (["--d", "3", "--start", "-1"], "--start -1"),
        (["--d", "7", "--start", "0"], "--d 7"),
    ])
    @pytest.mark.parametrize("command", [["train"], ["attack", "--model", "missing.json"]],
                             ids=["train", "attack_model"])
    def test_window_outside_the_table(self, command, window, flag, capsys, train_calls):
        # start 7 and -5 are start 1 modulo 6: the same rows, had they run;
        # 6 and -1 are the first starts past either end of the 6 features
        assert _run(command + ["--synth-n", "100", "--synth-dt", "6", *window]) == 2
        err = capsys.readouterr().err
        assert flag in err and "missing.json" not in err
        assert not train_calls

    @pytest.mark.parametrize("window", [["--d", "6", "--start", "9"],
                                        ["--d", "1", "--start", "11"],
                                        ["--d", "12", "--start", "0"]])
    def test_window_inside_the_table_runs(self, window, train_calls):
        # a window may wrap past the last feature when --start names it, and
        # may hold from one to every feature
        assert _run(["train", "--synth-n", "100", "--synth-dt", "12", *window]) == 0
        assert len(train_calls) == 1

    def test_d_grid_out_of_range(self, capsys, train_calls):
        assert _run(["figure1", "--synth-n", "100", "--synth-dt", "4",
                     "--d-grid", "1,5", "--attacks", "half", "--n", "5"]) == 2
        assert "--d-grid" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("grid", ["2,x", ",2", "2,", "2,2", "1,2,1"])
    def test_bad_d_grid_before_loading(self, grid, capsys, monkeypatch, train_calls):
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda args: loads.append(1))
        assert _run(["figure1", "--synth-n", "100", "--synth-dt", "4",
                     "--d-grid", grid, "--attacks", "half", "--n", "5"]) == 2
        err = capsys.readouterr().err
        assert "--d-grid" in err and repr(grid) in err and "invalid literal" not in err
        assert not loads and not train_calls

    @pytest.mark.parametrize("argv", [
        ["attack", "--d", "2", "--attacks", "half,nope"],
        ["figure1", "--d-grid", "1,2", "--attacks", "half,nope"],
    ])
    def test_unknown_attack_before_training(self, argv, capsys, train_calls):
        assert _run(argv + ["--synth-n", "100", "--synth-dt", "4",
                            "--n", "5"]) == 2
        assert "nope" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("argv", [
        ["attack", "--d", "2", "--attacks", "half,ls,half"],
        ["figure1", "--d-grid", "1,2", "--attacks", "rg, rg"],
    ])
    def test_repeated_attack_before_training(self, argv, capsys, train_calls):
        assert _run(argv + ["--synth-n", "100", "--synth-dt", "4",
                            "--n", "5"]) == 2
        assert "repeat" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("frac", ["0", "-0.5", "1", "1.5"])
    def test_train_frac_outside_0_1_before_training(self, frac, tmp_path, capsys,
                                                     train_calls):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,label\n" + "".join(
            f"{r[0]!r},{r[1]!r},{r[2]!r},{i % 2}\n"
            for i, r in enumerate(rng.uniform(size=(200, 3)).tolist())))
        assert _run(["train", "--data", str(path), "--d", "1",
                     "--train-frac", frac]) == 2
        assert "train fraction must be in (0, 1)" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("label_col", ["5", "9", "-6", "-11"])
    @pytest.mark.parametrize("cell", ["0.5", "u"], ids=["plain", "categorical"])
    def test_label_col_out_of_range_before_training(self, label_col, cell, tmp_path,
                                                    capsys, train_calls):
        # a wrapped index would read feature column 0 as the labels
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d,label\n" + "".join(
            f"{i / 10},{cell},0.{i},{i % 3},{i % 2}\n" for i in range(10)))
        assert _run(["train", "--data", str(path), "--d", "1",
                     "--label-col", label_col]) == 2
        assert (f"label column {label_col} is out of range for a table of 5 columns"
                in capsys.readouterr().err)
        assert not train_calls

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_before_training(self, cell, tmp_path, capsys, train_calls):
        # without the check, such a cell reaches training as NaN features
        rows = [[0.1, 0.9], [0.8, 0.2], [0.3, 0.7], [0.9, 0.1], [0.2, 0.6], [0.7, 0.4]]
        cells = [[repr(v) for v in row] for row in rows]
        cells[3][1] = cell
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n" + "".join(f"{r[0]},{r[1]},{i % 2}\n"
                                                for i, r in enumerate(cells)))
        assert _run(["train", "--data", str(path), "--d", "1", "--train-frac", "0.5"]) == 2
        assert f"column 'b', row 5: '{cell}' is not finite" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("cell", ["0.5", "u"], ids=["plain", "categorical"])
    def test_cell_past_the_field_limit_before_training(self, cell, tmp_path, capsys,
                                                       train_calls):
        # a plain table with such a cell takes the csv path, as one with a
        # category does: both name the line and the limit
        rows = [f"{i / 20},{cell},{i % 2}\n" for i in range(20)]
        rows[5] = "0." + "1" * 140_000 + rows[5][rows[5].index(","):]
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n" + "".join(rows))
        assert _run(["train", "--data", str(path), "--d", "1"]) == 2
        err = capsys.readouterr().err
        assert f"line 7: field larger than field limit ({csv.field_size_limit()})" in err
        assert not train_calls

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_lam_outside_0_inf_before_training(self, lam, capsys, train_calls):
        assert _run(["train", *SYNTH, "--d", "2", f"--lam={lam}"]) == 2
        assert f"non-negative, got lam={float(lam)}" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("lam", ["0", "-0.0"])
    def test_lam_zero_trains(self, lam, train_calls):
        assert _run(["train", *SYNTH, "--d", "2", f"--lam={lam}"]) == 0
        assert len(train_calls) == 1

    @pytest.mark.parametrize("frac", ["0.001", "0.005", "0.999"])
    def test_train_frac_leaving_too_few_rows_before_training(self, frac, tmp_path,
                                                             capsys, train_calls):
        # on 200 rows: 0, 1 and 200 training rows
        rng = np.random.default_rng(4)
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n" + "".join(
            f"{r[0]!r},{r[1]!r},{i % 2}\n"
            for i, r in enumerate(rng.uniform(size=(200, 2)).tolist())))
        assert _run(["train", "--data", str(path), "--d", "1",
                     "--train-frac", frac]) == 2
        assert f"--train-frac {frac} leaves" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("frac, message", [
        ("0.005", "--train-frac 0.005 leaves 1 of 200"),
        ("0.999", "--train-frac 0.999 leaves 200 of 200")])
    def test_train_frac_leaving_too_few_synthetic_rows(self, frac, message, capsys,
                                                       train_calls):
        assert _run(["train", "--synth-n", "200", "--d", "2",
                     "--train-frac", frac]) == 2
        assert message in capsys.readouterr().err
        assert not train_calls

    def test_train_frac_on_a_tiny_synthetic_table_before_the_draw(self, capsys,
                                                                 monkeypatch, train_calls):
        # the message names the --train-frac split, not the generator's own 0.8 one
        draws = []
        monkeypatch.setattr(cli, "synthesize", lambda *a: draws.append(a))
        assert _run(["train", "--synth-n", "2", "--synth-dt", "3", "--d", "1",
                     "--train-frac", "0.5"]) == 2
        assert capsys.readouterr().err == ("config error: --train-frac 0.5 leaves 1 of 2 "
                                           "rows for training; training needs 2, testing 1\n")
        assert not draws and not train_calls

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("key, value, extra, message", [
        # the --model file is never retrained, so nothing would read --lam
        ("lam", "5", ["--model", "m.json", "--attacks", "half"],
         "--lam 5.0 does not apply: --model m.json is not retrained"),
        # only gia reads a starting point
        ("init", "random", ["--attacks", "half,rcc2"],
         "--init random does not apply: --attacks half,rcc2 has no gia")], ids=["lam", "init"])
    def test_attack_option_that_does_not_apply_before_any_load(
            self, key, value, extra, message, given, tmp_path, capsys, monkeypatch,
            train_calls):
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda args: loads.append("table"))
        monkeypatch.setattr(VflModel, "load", lambda path: loads.append("model"))
        argv = ["attack", "--synth-n", "300", "--synth-dt", "6", "--d", "3", "--n", "3",
                *extra]
        if given == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert _run(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not loads and not train_calls

    @pytest.mark.parametrize("frac", ["0", "1", "1.5"])
    def test_train_frac_on_synthetic_data(self, frac, capsys, train_calls):
        assert _run(["train", "--synth-n", "200", "--d", "2",
                     "--train-frac", frac]) == 2
        assert "train fraction must be in (0, 1)" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["attack", "--d", "2", "--attacks", "half"],
        ["defend", "--d", "2"],
        ["figure1", "--d-grid", "1,2", "--attacks", "half"],
        ["tradeoff", "--d", "2"],
    ])
    def test_n_below_1_before_loading(self, argv, n, capsys, monkeypatch,
                                      train_calls):
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda args: loads.append(1))
        assert _run(argv + ["--synth-n", "100", "--synth-dt", "4", "--n", n]) == 2
        assert f"--n must be at least 1, got {n}" in capsys.readouterr().err
        assert not loads and not train_calls

    @pytest.mark.parametrize("command", ["blackbox", "figure12"])
    @pytest.mark.parametrize("grid", ["5..1", "0..3", "1-4"])
    def test_bad_n_grid(self, command, grid, capsys):
        assert _run([command, "--n-grid", grid, "--trials", "1"]) == 2
        assert "--n-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--case", "1", "--w", "0", "--n-grid", "1..3", "--trials", "2"],
         "all observations are zero"),
        # a finite w and b whose map at x = 1 overflows
        (["--case", "2", "--w", "1e308", "--b", "1e308"], "observations must be finite"),
        (["--case", "3", "--w=-1e308", "--b=-1e308"], "observations must be finite"),
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--trials", "-1"], "--trials must be at least 1, got -1"),
        (["--case", "2", "--w", "nan"], "--w must be finite, got nan"),
        (["--case", "2", "--b", "inf"], "--b must be finite, got inf"),
        (["--case", "1", "--w=-inf"], "--w must be finite, got -inf"),
        # w = 0 maps every x to b, which no case can invert
        (["--case", "2", "--w", "0", "--b", "1"], "--w 0.0 maps every x to --b 1.0"),
        (["--case", "3", "--w", "0", "--b", "-2"], "--w 0.0 maps every x to --b -2.0"),
        (["--case", "3", "--w", "0", "--b", "0"], "--w 0.0 maps every x to --b 0.0"),
    ])
    def test_blackbox_bad_input_exit_2_before_any_trial(self, argv, message, capsys,
                                                        monkeypatch):
        trials = []
        monkeypatch.setattr(cli, "_blackbox_trial_mse", lambda *a: trials.append(1))
        assert _run(["blackbox", *argv]) == 2
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err
        assert out == "" and not trials

    def test_tradeoff_on_ten_classes_before_training(self, capsys, train_calls):
        # the fixed sweep's class_label eps 0.1 needs fewer than 10 classes
        assert _run(["tradeoff", "--synth-n", "600", "--synth-dt", "12", "--synth-k", "10",
                     "--d", "4", "--n", "5"]) == 2
        out, err = capsys.readouterr()
        assert err == ("config error: class_label eps must be in (0, 1/k) for k = 10 "
                       "classes, got 0.1\n")
        assert out == "" and not train_calls

    @pytest.mark.parametrize("command", ["train", "figure1"])
    @pytest.mark.parametrize("k", ["-1", "0", "1"])
    def test_synth_k_below_2_before_training(self, command, k, capsys, train_calls):
        assert _run([command, "--synth-n", "300", "--synth-dt", "6", "--synth-k", k]) == 2
        out, err = capsys.readouterr()
        assert err == f"config error: need at least two classes, got k={k}\n"
        assert out == "" and not train_calls


# the options that every subcommand took when they all shared one parent
FORMERLY_SHARED = ["config", "seed", "data", "label_col", "train_frac", "synth_n",
                   "synth_dt", "synth_k", "d", "start", "lam", "n", "out"]
_EVERY = {"config", "seed", "out"}
_DATA = {"data", "label_col", "train_frac", "synth_n", "synth_dt", "synth_k", "lam"}
_WINDOW = {"d", "start"}
# the options each subcommand reads, through its own code or the helpers it calls
READS = {
    "train": _EVERY | _DATA | _WINDOW,
    "attack": _EVERY | _DATA | _WINDOW | {"n", "model", "attacks", "init"},
    "blackbox": _EVERY | {"case", "n_grid", "trials", "w", "b"},
    "defend": _EVERY | _DATA | _WINDOW | {"n", "scheme", "alpha", "attack"},
    "evaluate": _EVERY | _DATA | _WINDOW,
    "figure1": _EVERY | _DATA | {"n", "d_grid", "attacks"},
    "tradeoff": _EVERY | _DATA | _WINDOW | {"n"},
}
# (flag and value, parsed value) of every option
SAMPLES = {
    "config": (["--config", "run.cfg"], "run.cfg"), "seed": (["--seed", "3"], 3),
    "out": (["--out", "o.csv"], "o.csv"), "data": (["--data", "t.csv"], "t.csv"),
    "label_col": (["--label-col", "0"], 0), "train_frac": (["--train-frac", "0.5"], 0.5),
    "synth_n": (["--synth-n", "300"], 300), "synth_dt": (["--synth-dt", "7"], 7),
    "synth_k": (["--synth-k", "3"], 3), "lam": (["--lam", "0.1"], 0.1),
    "d": (["--d", "3"], 3), "start": (["--start", "2"], 2),
    "n": (["--n", "5"], 5),
    "model": (["--model", "m.json"], "m.json"), "attacks": (["--attacks", "ls"], "ls"),
    "init": (["--init", "zeros"], "zeros"), "case": (["--case", "3"], 3),
    "n_grid": (["--n-grid", "1..5"], "1..5"), "trials": (["--trials", "4"], 4),
    "w": (["--w", "2.5"], 2.5), "b": (["--b", "-1.5"], -1.5),
    "scheme": (["--scheme", "s1"], "s1"), "alpha": (["--alpha", "0.1,1"], "0.1,1"),
    "attack": (["--attack", "ls"], "ls"), "d_grid": (["--d-grid", "1,2"], "1,2"),
}


def _options(command: str) -> set:
    """The options a subcommand takes, by the names of the values it parses."""
    return set(vars(cli.build_parser().parse_args([command]))) - {"command", "func"}


UNREAD = [(command, name) for command in READS for name in FORMERLY_SHARED
          if name not in _options(command)]


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize("command", [*READS, "figure12"])
    def test_takes_exactly_what_it_reads(self, command):
        assert _options(command) == READS[command.replace("figure12", "blackbox")]

    def test_pair_counts(self):
        assert sum(len(_options(c)) for c in READS) == 90
        assert len(UNREAD) == 14

    @pytest.mark.parametrize("command, name",
                             [(c, n) for c in READS for n in sorted(READS[c])])
    def test_every_read_option_parses(self, command, name, tmp_path, monkeypatch):
        argv, want = SAMPLES[name]
        args, remaining = cli.build_parser().parse_known_args([command, *argv])
        assert remaining == [] and getattr(args, name) == want
        if name != "config":      # the same value as a config file key
            seen = []
            monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or 0)
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{name}={argv[-1]}\n", encoding="utf-8")
            assert _run([command, "--config", str(cfg)]) == 0
            assert getattr(seen[0], name) == want

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command", [*READS, "figure12"])
    def test_out_in_a_missing_directory_before_any_work(self, command, given, tmp_path,
                                                        capsys, monkeypatch, train_calls):
        work = []
        monkeypatch.setattr(cli, "_load_data", lambda args: work.append("load"))
        monkeypatch.setattr(cli, "_blackbox_trial_mse", lambda *a: work.append("trial"))
        # a file in a missing directory, then a directory that exists
        missing = tmp_path / "missing"
        for out, named in ((missing / "f.csv", f": directory {missing} does not exist\n"),
                           (tmp_path, " is a directory\n")):
            if given == "flag":
                argv = [command, "--out", str(out)]
            else:
                cfg = tmp_path / "run.cfg"
                cfg.write_text(f"out={out}\n", encoding="utf-8")
                argv = [command, "--config", str(cfg)]
            assert _run(argv) == 2
            assert capsys.readouterr().err.startswith(f"config error: --out {out}{named}")
        assert not work and not train_calls
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command", [*READS, "figure12"])
    def test_negative_seed_before_any_work(self, command, given, tmp_path, capsys,
                                           monkeypatch, train_calls):
        work = []
        monkeypatch.setattr(cli, "_load_data", lambda args: work.append("load"))
        monkeypatch.setattr(cli, "_blackbox_trial_mse", lambda *a: work.append("trial"))
        if given == "flag":
            argv = [command, "--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=-1\n", encoding="utf-8")
            argv = [command, "--config", str(cfg)]
        assert _run(argv) == 2
        assert capsys.readouterr().err == ("config error: --seed must be a non-negative "
                                           "integer, got -1\n")
        assert not work and not train_calls

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command, name", UNREAD)
    def test_unread_option_exit_2_before_any_work(self, command, name, given, tmp_path,
                                                  capsys, monkeypatch, train_calls):
        work = []
        monkeypatch.setattr(cli, "_load_data", lambda args: work.append("load"))
        monkeypatch.setattr(cli, "_blackbox_trial_mse", lambda *a: work.append("trial"))
        if given == "flag":
            flag = "--" + name.replace("_", "-")
            argv, named = [command, flag, "1"], f"unrecognized arguments: ['{flag}'"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{name.replace('_', '-')}=1\n", encoding="utf-8")
            argv, named = [command, "--config", str(cfg)], f"config keys: [{name!r}]"
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not work and not train_calls

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("argv, key, value", [
        (["figure1", "--n", "5"], "full", None),
        (["blackbox", "--trials", "2"], "full", None),
        (["figure12"], "full", None),
        (["attack", "--start", "3", "--d", "4"], "passive_features", "0..1"),
        (["train"], "passive_features", "2..4"),
        (["train"], "lambda", "0.1"),
        (["figure1"], "lambda", "0"),
        (["attack"], "method", "ls"),
        (["defend"], "passive_features", "0..1"),
        (["evaluate"], "passive_features", "1..3"),
        (["tradeoff"], "passive_features", "0..2"),
        (["attack"], "lambda", "0.01"),
        (["defend"], "lambda", "0.1"),
        (["evaluate"], "lambda", "1"),
        (["tradeoff"], "lambda", "0.5"),
    ])
    def test_removed_spelling_exit_2_before_any_work(self, argv, key, value, given,
                                                     tmp_path, capsys, monkeypatch,
                                                     train_calls):
        # each setting has one spelling: --n 1000 and --trials 100 for the old
        # preset, --start/--d for the range, --lam and --attacks for the aliases;
        # the table holds every subcommand that once took each removed spelling
        work = []
        monkeypatch.setattr(cli, "_load_data", lambda args: work.append("load"))
        monkeypatch.setattr(cli, "_blackbox_trial_mse", lambda *a: work.append("trial"))
        flag = "--" + key.replace("_", "-")
        if given == "flag":
            argv = [*argv, flag, *([value] if value else [])]
            named = f"unrecognized arguments: ['{flag}'"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value or 'true'}\n", encoding="utf-8")
            argv, named = [*argv, "--config", str(cfg)], f"unknown config keys: [{key!r}]"
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not work and not train_calls

    def test_readme_option_table_matches_the_parser(self):
        # each row names options and the subcommands that take them: "all",
        # "all but `x`", or a list; per subcommand the rows hold its options
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| options | subcommands |\n|---|---|\n")[1].split("\n\n")[0]
        listed = {command: set() for command in READS}
        for row in table.splitlines():
            options, commands = row.strip("|").split("|")
            commands = commands.split("(")[0]
            named = set(re.findall(r"`(\w+)`", commands))
            if commands.strip().startswith("all"):
                named = set(READS) - named
            assert named and named <= set(READS), row
            for command in named:
                listed[command] |= {o[2:].replace("-", "_")
                                    for o in options.strip(" `").split()}
        assert listed == {command: _options(command) for command in READS}

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("name, data", [("label_col", None), ("synth_n", "t.csv"),
                                            ("synth_dt", "t.csv"), ("synth_k", "t.csv")])
    @pytest.mark.parametrize("command", [c for c in READS if "data" in READS[c]])
    def test_option_of_the_other_data_source_before_loading(
            self, command, name, data, given, tmp_path, capsys, monkeypatch, train_calls):
        # --label-col picks a column of a --data table and the --synth-*
        # options shape the synthetic one: an option of the source not in use
        # would be read by nothing
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **kw: loads.append(a))
        monkeypatch.setattr(cli, "synthesize", lambda *a, **kw: loads.append(a))
        key = name.replace("_", "-")
        argv = [command, *(["--data", str(tmp_path / data)] if data else [])]
        if given == "flag":
            argv += [f"--{key}", "7"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}=7\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert _run(argv) == 2
        reason = f"--data {tmp_path / data} is the table" if data else "it needs --data"
        assert capsys.readouterr().err == (f"config error: --{key} 7 does not apply: "
                                           f"{reason}\n")
        assert not loads and not train_calls


class TestSeedingRule:
    """rg's draws against numpy's generators, not through the library: the
    window at start s of --seed S draws from default_rng(S + s) in attack's
    one split and in figure1's stack of every start."""

    @staticmethod
    def _table(seed):
        # the CLI's default synthetic table: 2000 rows, 10 features, 0.8 to train
        from vflpriv.dataset import split_mask
        ds = synthesize(SyntheticSpec(n=2000, d_t=10, k=2, seed=seed))
        return ds.x[~split_mask(ds.n, 0.8, seed)]

    def test_attack(self, tmp_path):
        out = tmp_path / "attack.csv"
        assert _run(["attack", "--start", "4", "--d", "3", "--attacks", "rg", "--seed", "7",
                     "--n", "5", "--out", str(out)]) == 0
        x_pas = self._table(7)[:5, 4:7]
        want = np.mean((np.random.default_rng(7).uniform(size=(5, 3)) - x_pas) ** 2)
        [row] = _read_rows(out)[1:]
        assert row[:3] == ["rg", "3", "5"]
        assert abs(float(row[3]) - want) <= 1e-15

    def test_figure1(self, tmp_path):
        out = tmp_path / "figure1.csv"
        assert _run(["figure1", "--d-grid", "3", "--attacks", "rg", "--seed", "7",
                     "--out", str(out)]) == 0
        test = self._table(7)[:cli.DESK_N]
        want = np.mean([np.mean((np.random.default_rng(7 + s).uniform(size=(len(test), 3))
                                 - test[:, [s, (s + 1) % 10, (s + 2) % 10]]) ** 2)
                        for s in range(10)])
        [row] = _read_rows(out)[1:]
        assert row[:2] == ["3", "rg"]
        assert abs(float(row[2]) - want) <= 1e-15

    def test_listing_order_moves_no_draw(self, capsys):
        # rg and random-start gia each draw from the seed, whichever is listed first
        argv = ["attack", "--synth-n", "300", "--synth-dt", "6", "--d", "3", "--n", "5",
                "--seed", "3", "--init", "random", "--attacks"]
        rows = []
        for order in ("rg,gia", "gia,rg"):
            assert _run([*argv, order]) == 0
            rows.append(sorted(capsys.readouterr().out.splitlines()[1:]))
        assert rows[0] == rows[1] and [r[:3] for r in rows[0]] == ["gia", "rg,"]


@pytest.fixture()
def metrics_calls(monkeypatch):
    """The first argument of every build_system and run_attack call in metrics."""
    from vflpriv import metrics
    calls = {"build_system": [], "run_attack": []}
    for name, seen in calls.items():
        real = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *a, real=real, seen=seen, **kw:
                            seen.append(a[0]) or real(*a, **kw))
    return calls


def test_figure1_trains_once_and_builds_one_system_per_window(tmp_path, train_calls,
                                                              metrics_calls):
    # one train call on all 4 features for the whole grid, then the d_t = 4
    # windows of each d as one stacked system, whatever the number of
    # attacks; the second command on the same table and config reuses the
    # kept model
    for attacks in ("rg,half,ls,half_star", "half"):
        assert _run(["figure1", "--synth-n", "150", "--synth-dt", "4",
                     "--d-grid", "1,2", "--attacks", attacks,
                     "--n", "5", "--out", str(tmp_path / "fig1.csv")]) == 0
        assert train_calls == [VflSplit.contiguous(4, 0, 4)]
        assert [m.w_pas.shape[0] for m in metrics_calls["build_system"]] == [4, 4]
        metrics_calls["build_system"].clear()


def test_every_mse_cell_is_a_plain_float(tmp_path, monkeypatch):
    # the library's MSE values are numpy floats; each cell must read back
    # through float() as the same value, bit for bit
    from vflpriv import metrics
    seen = {"attack_mse_on_rows": [], "average_over_space": []}
    for name, got in seen.items():
        real = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *a, real=real, got=got, **kw:
                            got.append(real(*a, **kw)) or got[-1])
    synth = ["--synth-n", "300", "--synth-dt", "6", "--n", "5", "--attacks", ",".join(ATTACKS)]
    out = tmp_path / "out.csv"
    assert _run(["attack", *synth, "--d", "3", "--out", str(out)]) == 0
    [mse] = seen["attack_mse_on_rows"]
    cells = {row[0]: row[3] for row in _read_rows(out)[1:]}
    assert list(cells) == list(ATTACKS)
    for name, cell in cells.items():
        assert float(cell).hex() == float(mse[name][0]).hex(), (name, cell)
    assert _run(["figure1", *synth, "--d-grid", "1,3,6", "--out", str(out)]) == 0
    grid = dict(zip("136", seen["average_over_space"]))
    cells = _read_rows(out)[1:]
    assert len(cells) == 3 * len(ATTACKS)
    for d, name, cell in cells:
        assert float(cell).hex() == float(grid[d][name]).hex(), (d, name, cell)


class TestFigure1Failures:
    """A figure1 failure names the window start and the window's own rows."""

    ARGS = ["figure1", "--synth-n", "300", "--synth-dt", "6", "--d-grid", "3",
            "--n", "5", "--attacks", "half,rcc1"]

    def _fail(self, capsys):
        assert _run(self.ARGS) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver failure: ")
        return err.strip()

    def test_capped_rcc1(self, monkeypatch, capsys):
        from vflpriv import attacks
        monkeypatch.setattr(attacks, "_RCC1_MAX_ITER", 2)
        # one solve on the stack: every window's rows are named, by window
        line = self._fail(capsys)
        windows = ", ".join(rf"\[0, 1, 2, 3, 4\] of window start={s}" for s in range(6))
        assert re.fullmatch(rf"solver failure: rcc1 rows {windows} end with gaps( \S+){{30}} "
                            r"above 1e-08 in at most 2 steps", line), line

    def test_capped_rcc2_projection(self, monkeypatch, capsys):
        # one call projects all 480 rows, 60 in each of 8 windows; one row
        # each of windows 2, 3 and 6 needs more than one Newton step, a
        # one-step cap stops them, and the capped rows and residuals keep
        # their windows
        monkeypatch.setattr(numerics, "_PROJECT_MAX_ITER", 1)
        assert _run(["figure1", "--synth-n", "600", "--synth-dt", "8", "--synth-k", "4",
                     "--d-grid", "6", "--n", "60", "--attacks", "half,rcc2"]) == 3
        line = capsys.readouterr().err.strip()
        assert re.fullmatch(r"solver failure: box-affine projection hit the iteration "
                            r"cap on 3 of 480 rows; rows \[5\] of window start=2, \[5\] of "
                            r"window start=3, \[32\] of window start=6; affine( \S+){3}",
                            line), line

    def test_subnormal_score(self, monkeypatch, capsys):
        # weights 1e4 times the trained ones put some scores at 0.0 in every
        # window; the stacked build names the first of window 0
        monkeypatch.setattr(cli, "_last_model", (None, None))
        real = cli.train

        def steep(*args, **kw):
            m = real(*args, **kw)
            return VflModel(w_act=1e4 * m.w_act, w_pas=1e4 * m.w_pas, b=m.b, k=m.k,
                            split=m.split)
        monkeypatch.setattr(cli, "train", steep)
        line = self._fail(capsys)
        assert re.fullmatch(r"solver failure: row \d of window start=0 has score 0\.0, "
                            r"below the smallest normal float, so its log is not "
                            r"exact", line), line


def _table(path, seed=6, n=300, d_t=8):
    """A k=3 CSV table of n rows and d_t uniform features."""
    rng = np.random.default_rng(seed)
    path.write_text(",".join(f"f{j}" for j in range(d_t)) + ",label\n" + "".join(
        ",".join(map(repr, row)) + f",{i % 3}\n"
        for i, row in enumerate(rng.uniform(size=(n, d_t)).tolist())))
    return path


class TestOneModelPerTable:
    """Every subcommand views the one kept model of its table and config."""

    def _cmd(self, path, command, *argv):
        return [command, "--data", str(path), "--seed", "2", *argv]

    def test_subcommands_share_one_train_call(self, tmp_path, train_calls):
        path = _table(tmp_path / "t.csv")
        for argv in (["train", "--d", "3", "--start", "0"],
                     ["tradeoff", "--d", "3", "--start", "6", "--n", "5"],
                     ["figure1", "--d-grid", "2", "--attacks", "half", "--n", "5"],
                     ["evaluate", "--d", "2", "--start", "5"],
                     ["attack", "--d", "3", "--start", "1", "--attacks", "ls", "--n", "5"],
                     ["defend", "--d", "3", "--start", "4", "--n", "5"]):
            assert _run(self._cmd(path, *argv, "--out", str(tmp_path / "out"))) == 0
        assert train_calls == [VflSplit.contiguous(8, 0, 8)]

    @pytest.mark.parametrize("change", [[], ["--seed", "3"], ["--lam", "1e-3"],
                                        ["--train-frac", "0.7"]],
                             ids=["table", "seed", "lam", "train_frac"])
    def test_a_changed_input_retrains(self, change, tmp_path, train_calls):
        path = _table(tmp_path / "t.csv")
        base = self._cmd(path, "train", "--d", "3")
        assert _run(base) == 0 and _run(base) == 0
        if not change:              # one cell of the table's bytes
            lines = path.read_text().splitlines(keepends=True)
            lines[1] = "0.5" + lines[1][lines[1].index(","):]
            path.write_text("".join(lines))
        assert _run(base + change) == 0 and _run(base + change) == 0
        assert len(train_calls) == 2

    def test_a_replaced_trainer_trains_its_own(self, tmp_path, monkeypatch):
        # a counting or timing wrapper put in between two commands sees the
        # second command's training
        argv = self._cmd(_table(tmp_path / "t.csv"), "train", "--d", "3")
        assert _run(argv) == 0
        real, calls = cli.train, []
        monkeypatch.setattr(cli, "train", lambda *a: calls.append(1) or real(*a))
        assert _run(argv) == 0 and _run(argv) == 0
        assert len(calls) == 1

    def test_a_write_into_a_model_does_not_reach_the_next_command(self, tmp_path,
                                                                  monkeypatch,
                                                                  train_calls):
        path = _table(tmp_path / "t.csv")
        given, real = [], cli._model
        monkeypatch.setattr(cli, "_model", lambda args, ds: given.append(real(args, ds))
                            or given[-1])
        outs = []
        for i in range(2):
            outs.append(tmp_path / f"a{i}.csv")
            assert _run(self._cmd(path, "attack", "--d", "3", "--start", "2", "--n", "5",
                                  "--attacks", "half,ls,rcc2", "--out", str(outs[-1]))) == 0
            for arr in (given[-1].w_act, given[-1].w_pas, given[-1].b):
                arr += 1.0
        assert outs[0].read_bytes() == outs[1].read_bytes() and len(train_calls) == 1
        kept = cli._last_model[1]
        for arr in (kept.w_act, kept.w_pas, kept.b):
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    def test_saved_windows_regroup_to_one_model(self, tmp_path):
        models = []
        for start in (0, 3):
            out = tmp_path / f"w{start}.json"
            assert _run(["train", "--synth-n", "300", "--synth-dt", "6", "--d", "3",
                         "--start", str(start), "--out", str(out)]) == 0
            models.append(VflModel.load(out))
        assert [m.split.passive for m in models] == [(0, 1, 2), (3, 4, 5)]
        a, b = (m.window(VflSplit.contiguous(6, 0, 6)) for m in models)
        assert np.array_equal(a.w_pas, b.w_pas) and np.array_equal(a.b, b.b)

def test_figure1_cells_do_not_depend_on_the_grid_order(tmp_path):
    tables = {}
    for grid in ("1,3", "3,1", "3"):
        path = tmp_path / f"{grid}.csv"
        assert _run(["figure1", "--synth-n", "150", "--synth-dt", "4", "--d-grid", grid,
                     "--attacks", "rg,ls,half_star", "--n", "5", "--out", str(path)]) == 0
        tables[grid] = sorted(map(tuple, _read_rows(path)[1:]))
    assert tables["1,3"] == tables["3,1"]
    assert set(tables["3"]) < set(tables["1,3"])


def test_figure1_cell_is_the_mean_of_attack_over_the_starts(tmp_path, monkeypatch,
                                                             train_calls):
    # the stack gives every window the bits it gets alone: figure1's cell is
    # exactly the mean of attack's at the ten starts; each command trains the
    # table model anew, as a fresh process would
    table = ["--synth-n", "2000", "--synth-dt", "10", "--synth-k", "4", "--n", "20",
             "--attacks", "cls,rcc1,rcc2", "--out", str(tmp_path / "o.csv")]

    def cells(*argv):
        monkeypatch.setattr(cli, "_last_model", (None, None))
        assert _run([*argv, *table]) == 0
        return _read_rows(tmp_path / "o.csv")[1:]

    starts = [cells("attack", "--d", "4", "--start", str(s)) for s in range(10)]
    want = {name: float(np.mean([float(rows[i][3]) for rows in starts]))
            for i, name in enumerate(("cls", "rcc1", "rcc2"))}
    assert {name: float(mse) for _, name, mse in cells("figure1", "--d-grid", "4")} == want
    assert len(train_calls) == 11


class TestTableShapes:
    """Whole commands on tables whose shape takes a numeric path of its own."""

    def test_one_dimensional_nullspace(self, monkeypatch, capsys):
        # k = 6 classes give A 5 rows: at d = 6 each row's solution set is a
        # segment, through rcc1, rcc2 and cls
        systems, real = [], metrics.build_system
        monkeypatch.setattr(metrics, "build_system",
                            lambda *a, **kw: systems.append(real(*a, **kw)) or systems[-1])
        assert _run(["attack", "--synth-n", "400", "--synth-dt", "8", "--synth-k", "6",
                     "--d", "6", "--attacks", "rcc1,rcc2,cls", "--n", "20"]) == 0
        [sys_] = systems    # one stacked system of the one window
        assert sys_.nullity.tolist() == [1] and sys_.b.shape == (1, 20, 5)
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["rcc1", "rcc2", "cls"]
        assert all(0.0 <= float(r[3]) < 1.0 for r in rows)

    def test_rcc1_rows_stop_at_different_steps(self, monkeypatch):
        # 180 of these 200 rows stop at step 11 and 20 at step 12: the last
        # step runs on a shrunk working set, and each stopped row is written
        # back with the z, gap and steps of the loop that had no working set
        # (whose dual value rounds by the batch)
        real, seen = attacks._rcc1_pd_solve, []
        monkeypatch.setattr(attacks, "_rcc1_pd_solve",
                            lambda w, c: seen.append((w, c, real(w, c))) or seen[-1][2])
        assert _run(["attack", "--synth-n", "2000", "--synth-dt", "10", "--synth-k", "4",
                     "--d", "6", "--attacks", "rcc1", "--n", "200"]) == 0
        [(w, c, (z, _, gap, steps))] = seen
        assert np.unique(steps).tolist() == [11, 12]
        assert np.unique(steps, return_counts=True)[1].tolist() == [180, 20]
        want_z, _, want_gap, want_steps = oracles.rcc1_pd_solve_batch(w[0], c)
        assert np.array_equal(z, want_z) and np.array_equal(gap, want_gap)
        assert np.array_equal(steps, want_steps)

    @pytest.mark.filterwarnings("error::vflpriv.attacks.GiaConvergenceWarning")
    def test_every_gia_row_of_the_probe_converges(self, capsys):
        # every one of these 200 rows converges within gia's Newton step cap;
        # a GiaConvergenceWarning is made an error here
        assert _run(["attack", "--synth-n", "2000", "--synth-dt", "10", "--synth-k", "4",
                     "--d", "6", "--attacks", "gia", "--n", "200", "--seed", "0"]) == 0
        assert capsys.readouterr().out.startswith("attack,d,n,mse\ngia,6,200,")

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_gia_converges_at_nine_classes(self, capsys):
        # every row of this k = 9 window converges (a UserWarning is an
        # error here); on clean scores gia from the box center ends at
        # half_star wherever that lies inside the box, as it does on every
        # row here, so the two cells agree
        argv = ["attack", "--synth-n", "2000", "--synth-dt", "12", "--synth-k", "9",
                "--d", "10", "--n", "20", "--seed", "3", "--attacks"]
        cells = []
        for name in ("gia", "half_star"):
            assert _run(argv + [name]) == 0
            cells.append(capsys.readouterr().out.splitlines()[1].split(","))
        (gia, *_, mse), (star, *_, star_mse) = cells
        assert (gia, star, star_mse) == ("gia", "half_star", "0.002416709722018335")
        assert abs(float(mse) - float(star_mse)) <= 1e-9

    @pytest.mark.parametrize("argv, cells", [
        # k = 9: past 7 classes numpy's own sum over a row would go pairwise;
        # softmax sums each row's classes in order, in training and predict
        (["--synth-n", "300", "--synth-dt", "9", "--synth-k", "9", "--d-grid", "1,3"], 14),
        # k = 130: past 128 classes numpy's pairwise sum would split in two;
        # the in-order sum runs the same way over all 130
        (["--synth-n", "1400", "--synth-dt", "6", "--synth-k", "130", "--d-grid", "3",
          "--attacks", "half,ls,half_star"], 3)], ids=["k9", "k130"])
    def test_figure1_past_numpys_summation_blocks(self, argv, cells, capsys):
        assert _run(["figure1", *argv, "--n", "5"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == cells
        assert all(0.0 <= float(mse) < 1.0 for _, _, mse in rows)


class TestModelMustMatchWindow:
    @pytest.fixture()
    def model_path(self, tmp_path):
        path = tmp_path / "model.json"
        assert _run(["train", "--synth-n", "150", "--synth-dt", "10",
                     "--d", "3", "--start", "0", "--out", str(path)]) == 0
        return path

    def test_matching_window_runs(self, model_path, capsys, metrics_calls):
        assert _run(["attack", "--synth-n", "150", "--synth-dt", "10", "--d", "3",
                     "--model", str(model_path), "--attacks", "half,ls",
                     "--n", "5"]) == 0
        assert metrics_calls["run_attack"] == ["half", "ls"]

    @pytest.mark.parametrize("window, dt", [
        (["--d", "5", "--start", "2"], "10"), (["--d", "3", "--start", "2"], "10"),
        (["--d", "3", "--start", "0"], "12")])
    def test_other_window_or_width_exit_2(self, model_path, window, dt, capsys,
                                          metrics_calls):
        assert _run(["attack", "--synth-n", "150", "--synth-dt", dt, *window,
                     "--model", str(model_path), "--n", "5"]) == 2
        err = capsys.readouterr().err
        assert "[0, 1, 2] of 10" in err and f"{dt}-feature table" in err
        assert not metrics_calls["run_attack"]


    def test_bad_model_file_names_the_file_and_field(self, model_path, capsys,
                                                     metrics_calls):
        # an extra bias value once loaded and then failed inside predict
        doc = json.loads(model_path.read_text())
        doc["b"].append(0.0)
        model_path.write_text(json.dumps(doc))
        assert _run(["attack", "--synth-n", "150", "--synth-dt", "10", "--d", "3",
                     "--model", str(model_path), "--n", "5"]) == 2
        assert (f"config error: {model_path}: b holds 3 values; k=2 needs 2"
                in capsys.readouterr().err)
        assert not metrics_calls["run_attack"]


class TestDefendArguments:
    BASE = ["defend", "--synth-n", "200", "--synth-dt", "6", "--d", "3",
            "--n", "3"]

    def test_unknown_attack_before_training(self, capsys, train_calls):
        assert _run(self.BASE + ["--attack", "nosuch"]) == 2
        assert "nosuch" in capsys.readouterr().err
        assert not train_calls

    def test_one_attack_name_before_training(self, capsys, train_calls):
        assert _run(self.BASE + ["--attack", "half,cls"]) == 2
        assert capsys.readouterr().err == (
            "config error: --attack takes one name, got 'half,cls'\n")
        assert not train_calls

    def test_bad_alpha_before_training(self, capsys, train_calls):
        assert _run(self.BASE + ["--alpha", "0.5,lots"]) == 2
        assert "lots" in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("scheme, alpha", [
        ("s3", "1.5"), ("s1", "-1"), ("class_label", "0.9"), ("s1", "inf"),
        ("s2", "inf")])
    def test_scheme_range_before_training(self, scheme, alpha, capsys, train_calls):
        # synthetic data has k = 2 classes, so class_label needs eps < 1/2
        assert _run(self.BASE + ["--scheme", scheme, "--alpha", f"0.1,{alpha}"]) == 2
        assert alpha in capsys.readouterr().err
        assert not train_calls

    @pytest.mark.parametrize("alpha", ["0.1,x", ",0.1", "0.1,", "0.1,0.1", "0.1,1,0.10"])
    def test_bad_alpha_list_before_loading(self, alpha, capsys, monkeypatch, train_calls):
        # a budget that does not parse, or one that repeats (two equal rows)
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda args: loads.append(1))
        assert _run(self.BASE + ["--scheme", "s1", "--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and repr(alpha) in err and "could not convert" not in err
        assert not loads and not train_calls

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_pps1_rejects_alpha_before_loading(self, given, tmp_path, capsys, monkeypatch,
                                               train_calls):
        # pps1 has no budget: an --alpha there would be read by nothing
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda args: loads.append(1))
        argv = self.BASE + ["--scheme", "pps1"]
        if given == "flag":
            argv += ["--alpha", "0.1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("alpha=0.1\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert _run(argv) == 2
        assert "--alpha '0.1' does not apply" in capsys.readouterr().err
        assert not loads and not train_calls

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_class_label_needs_alpha_before_loading(self, given, tmp_path, capsys,
                                                    monkeypatch, train_calls):
        # class_label's range (0, 1/k) holds no one default for every k, so
        # a run without --alpha names the flag and the range
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda args: loads.append(1))
        if given == "flag":
            argv = self.BASE + ["--scheme", "class_label"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("scheme=class_label\n", encoding="utf-8")
            argv = self.BASE + ["--config", str(cfg)]
        assert _run(argv) == 2
        assert capsys.readouterr().err == (
            "config error: --scheme class_label needs --alpha: each eps in (0, 1/k) "
            "for a table of k classes\n")
        assert not loads and not train_calls

    def test_alpha_defaults_to_one_half(self, tmp_path):
        outs = [tmp_path / "default.csv", tmp_path / "half.csv"]
        assert _run(self.BASE + ["--out", str(outs[0])]) == 0
        assert _run(self.BASE + ["--alpha", "0.5", "--out", str(outs[1])]) == 0
        assert _read_rows(outs[0])[1][:2] == ["s3", "0.5"]
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("attack", ["rg", "gia"])
    def test_every_attack_name_runs(self, attack, tmp_path, train_calls):
        out_path = tmp_path / "defend.csv"
        assert _run(self.BASE + ["--attack", attack, "--scheme", "s1",
                                 "--alpha", "0.1,1", "--out", str(out_path)]) == 0
        rows = _read_rows(out_path)
        assert len(rows) == 3 and len(train_calls) == 1
        assert all(float(r[2]) >= 0.0 for r in rows[1:])


def _window_model(ds):
    """The model the CLI runs under --start 2 --d 3 --seed 5: a view of the table model."""
    return train(ds, VflSplit.contiguous(6, 0, 6), TrainConfig(seed=5)).window(
        VflSplit.contiguous(6, 2, 3))


class TestMatchesRowByRowReference:
    """The batched CLI sweeps against the one-row-at-a-time loop in oracles."""

    SYNTH = dict(n=300, d_t=6, k=3, seed=5)
    ARGS = ["--synth-n", "300", "--synth-dt", "6", "--synth-k", "3",
            "--d", "3", "--start", "2", "--n", "25", "--seed", "5"]

    @pytest.fixture(scope="class")
    def setup(self):
        ds = synthesize(SyntheticSpec(**self.SYNTH))
        return ds, _window_model(ds), np.flatnonzero(ds.test_mask)[:25]

    @staticmethod
    def _close(got: str, want: float):
        assert float(got) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_tradeoff(self, setup, tmp_path):
        ds, model, rows = setup
        out_path = tmp_path / "tradeoff.csv"
        assert _run(["tradeoff", *self.ARGS, "--out", str(out_path)]) == 0
        got = _read_rows(out_path)[1:]
        settings = [(r[0], float(r[1])) for r in got]
        assert len(settings) == 11
        want = oracles.defense_sweep_rows(model, ds, rows, settings)
        for row, (mse, kl, kept) in zip(got, want):
            self._close(row[2], kl)
            self._close(row[3], mse)
            assert row[4] == repr(accuracy(model, ds) if kept else float("nan"))

    # the iterative estimators run on every row of the stacked release; cls's
    # FISTA products go through BLAS, whose rounding may follow the row count
    @pytest.mark.parametrize("scheme, alpha, attack", [
        pytest.param("pps1", "", "ls", id="pps1-"),
        pytest.param("s1", "0.1,1.0,10.0", "ls", id="s1-0.1,1.0,10.0"),
        pytest.param("s3", "0.1,0.5,0.9", "ls", id="s3-0.1,0.5,0.9"),
        *[(scheme, alpha, attack) for attack in ("cls", "rcc2", "rcc1")
          for scheme, alpha in (("s3", "0.1,0.5,0.9"), ("class_label", "0.01,0.1"))]])
    def test_defend(self, setup, tmp_path, scheme, alpha, attack):
        ds, model, rows = setup
        out_path = tmp_path / "defend.csv"
        argv = ["defend", *self.ARGS, "--scheme", scheme, "--attack", attack,
                "--out", str(out_path)]
        assert _run(argv + (["--alpha", alpha] if alpha else [])) == 0
        got = _read_rows(out_path)[1:]
        params = [""] if scheme == "pps1" else [float(a) for a in alpha.split(",")]
        want = oracles.defense_sweep_rows(model, ds, rows,
                                          [(scheme, a) for a in params], attack)
        assert [r[1] for r in got] == [str(a) for a in params]
        for row, (mse, kl, _) in zip(got, want):
            self._close(row[2], mse)
            self._close(row[3], kl)

    @pytest.mark.filterwarnings("error::vflpriv.attacks.GiaConvergenceWarning")
    def test_defend_gia_reads_the_pps1_release(self, setup, tmp_path):
        # gia reads only the system: pps1's released weights reach it through
        # build_system alone; every row of the 25 converges, in the batch and alone
        ds, model, rows = setup
        out_path = tmp_path / "defend.csv"
        assert _run(["defend", *self.ARGS, "--scheme", "pps1", "--attack", "gia",
                     "--out", str(out_path)]) == 0
        [row] = _read_rows(out_path)[1:]
        [(mse, _, _)] = oracles.defense_sweep_rows(model, ds, rows, [("pps1", "")], "gia")
        self._close(row[2], mse)
        assert row[3] == "0.0"

    def test_defend_rg_draws_setting_by_setting(self, setup, tmp_path):
        # setting i is system i of the stack, so it draws one N x d block
        # from its own generator, default_rng(seed + i)
        ds, model, rows = setup
        out_path = tmp_path / "defend.csv"
        assert _run(["defend", *self.ARGS, "--scheme", "s3", "--alpha", "0.1,0.5,0.9",
                     "--attack", "rg", "--out", str(out_path)]) == 0
        x_pas = ds.x[np.ix_(rows, model.split.passive)]
        want = [cli.metrics.empirical_mse(
            x_pas, np.random.default_rng(5 + i).uniform(size=x_pas.shape)) for i in range(3)]
        assert [float(r[2]) for r in _read_rows(out_path)[1:]] == want
        assert len(set(want)) == 3


@pytest.fixture()
def sweep_calls(monkeypatch):
    """Calls per layer that a defense sweep reaches through the bindings of
    cli and of metrics, whose stack_mse scores the settings."""
    calls = {}
    for owner, name in ((cli, "build_system"), (cli.metrics, "build_system"),
                        (cli.metrics, "run_attack"),
                        (cli.metrics, "kl_divergence"),
                        (cli.defense, "pps2_optimal_direction"),
                        (cli.defense, "apply_scheme")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **kw: (
            calls.update({name: calls.get(name, 0) + 1}) or real(*a, **kw)))
    return calls


class TestOneReleaseBatch:
    """defend and tradeoff score every setting as a system of one batch on
    the released model's one A."""

    ARGS = TestMatchesRowByRowReference.ARGS

    @pytest.fixture(scope="class")
    def setup(self):
        ds = synthesize(SyntheticSpec(**TestMatchesRowByRowReference.SYNTH))
        return ds, _window_model(ds), np.flatnonzero(ds.test_mask)[:25]

    def test_tradeoff_calls_each_layer_once(self, tmp_path, sweep_calls):
        # the clean check and the release stack; one direction for s1 and s2
        assert _run(["tradeoff", *self.ARGS, "--out", str(tmp_path / "t.csv")]) == 0
        assert sweep_calls == {"build_system": 2, "run_attack": 1, "kl_divergence": 1,
                               "pps2_optimal_direction": 1, "apply_scheme": 11}

    def test_pps1_builds_two_systems(self, tmp_path, sweep_calls):
        assert _run(["defend", *self.ARGS, "--scheme", "pps1",
                     "--out", str(tmp_path / "d.csv")]) == 0
        assert sweep_calls == {"build_system": 2, "run_attack": 1, "kl_divergence": 1}

    @pytest.mark.parametrize("argv", [["tradeoff"],
                                      ["defend", "--scheme", "s1", "--alpha", "0.1,1,10"]],
                             ids=["tradeoff", "defend"])
    def test_settings_share_one_factored_a(self, argv, tmp_path, monkeypatch):
        # every setting releases scores of the model's one A (2 x 3 here): the
        # clean check and the sweep factor it once each, and no stack of
        # copies reaches the SVD; the third SVD is s1's direction, of A^+ J
        shapes, real = [], numerics.svd
        monkeypatch.setattr(numerics, "svd", lambda a: shapes.append(np.shape(a)) or real(a))
        assert _run([argv[0], *self.ARGS, *argv[1:], "--out", str(tmp_path / "s.csv")]) == 0
        assert shapes == [(2, 3), (3, 3), (2, 3)]

    @pytest.mark.parametrize("k", [2, 4])
    def test_each_setting_writes_its_solo_cell(self, k, tmp_path):
        # setting i of the stack gets the bits it gets alone, on 39 rows (not
        # a multiple of four)
        base = ["defend", "--synth-n", "1500", "--synth-dt", "10", "--synth-k", str(k),
                "--d", "6", "--n", "39", "--seed", "2", "--out", str(tmp_path / "d.csv")]

        def cells(*argv):
            assert _run([*base, *argv]) == 0
            return _read_rows(tmp_path / "d.csv")[1:]

        for attack in ("cls", "rcc1", "rcc2", "half_star", "gia"):
            got = cells("--scheme", "s3", "--alpha", "0.1,0.5,0.9", "--attack", attack)
            assert got == [row for a in ("0.1", "0.5", "0.9")
                           for row in cells("--scheme", "s3", "--alpha", a, "--attack", attack)]
        # pps1 releases the clean scores: its KL, from the sweep's one
        # kl_divergence call, is 0.0 bits (some of these scores are under
        # EPS_CLIP at k = 4)
        assert cells("--scheme", "pps1")[0][3] == "0.0"

    @pytest.mark.parametrize("attack", ["cls", "rcc1", "rcc2"])
    def test_each_s1_setting_writes_its_solo_cell(self, attack, tmp_path):
        # s1's settings share the one noise direction: each setting's row is,
        # string for string, the row of its one-alpha run
        base = ["defend", "--synth-n", "2000", "--synth-dt", "10", "--synth-k", "4",
                "--d", "6", "--n", "20", "--scheme", "s1", "--attack", attack,
                "--out", str(tmp_path / "d.csv")]

        def cells(alpha):
            assert _run([*base, "--alpha", alpha]) == 0
            return _read_rows(tmp_path / "d.csv")[1:]

        got = cells("0.1,1,10")
        assert len(got) == 3
        assert got == [row for a in ("0.1", "1", "10") for row in cells(a)]

    def _fail(self, capsys, *argv):
        assert _run(["defend", *self.ARGS, *argv]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver failure: ")
        return err.strip()

    def test_underflow_names_setting_and_row(self, setup, capsys):
        # alpha = 1e6 pushes some released scores below the smallest normal
        # float; the failure names the first such row of that setting
        ds, model, rows = setup
        y_act = ds.x[np.ix_(rows, model.split.active)]
        x_pas = ds.x[np.ix_(rows, model.split.passive)]
        clean = cli.build_system(model, y_act, cli.predict(model, y_act, x_pas))
        released = cli.defense.apply_scheme(
            model.logits(y_act, x_pas),
            cli.defense.pps2_optimal_direction(clean, 1e6), "s1")
        low = np.flatnonzero((released < np.finfo(float).tiny).any(axis=-1))
        line = self._fail(capsys, "--scheme", "s1", "--alpha", "0.1,1e6")
        assert f"row {low[0]} of s1 alpha=1000000.0 has score 0.0" in line
        assert "alpha=0.1" not in line

    @pytest.mark.parametrize("attack", ["rcc2", "rcc1"])
    def test_solver_failure_names_setting_and_rows(self, attack, capsys):
        # at alpha = 10 five planes miss the box: rcc2's projection caps and
        # rcc1 diverges on them; the stack holds them at flat rows 53 to 74
        line = self._fail(capsys, "--scheme", "s1", "--alpha", "0.1,1.0,10.0",
                          "--attack", attack)
        assert "rows [3, 6, 19, 23, 24] of s1 alpha=10.0" in line
        assert "alpha=0.1" not in line and "alpha=1.0" not in line
        assert "[53" not in line

    @pytest.mark.parametrize("attack", ["rcc2", "rcc1"])
    def test_rows_of_several_settings(self, attack, capsys):
        # each setting's rows are the rows that setting fails on alone
        alone = {}
        for alpha in ("10.0", "20.0"):
            line = self._fail(capsys, "--scheme", "s1", "--alpha", alpha, "--attack", attack)
            alone[alpha] = re.search(rf"(\[[\d, ]+\]) of s1 alpha={alpha}", line)[1]
        line = self._fail(capsys, "--scheme", "s1", "--alpha", "10,20", "--attack", attack)
        assert (f"rows {alone['10.0']} of s1 alpha=10.0, {alone['20.0']} of s1 alpha=20.0"
                in line)

    def test_failure_keeps_its_kind(self, setup):
        # the solver's own exception comes back, its rows in batch order: the
        # second setting's rows 3 to 24 are flat rows 28 to 49
        ds, model, rows = setup
        settings = [("s1", 0.1), ("s1", 10.0)]
        with pytest.raises(AttackError,
                           match=re.escape("rcc1 rows [3, 6, 19, 23, 24] of s1 alpha=10.0")
                           ) as err:
            cli._defense_sweep(model, ds, rows, settings, "rcc1", 0)
        assert err.value.rows.tolist() == [28, 31, 44, 48, 49]
        with pytest.raises(numerics.ConvergenceError,
                           match=re.escape("; rows [3, 6, 19, 23, 24] of s1 alpha=10.0; affine ")
                           ) as err:
            cli._defense_sweep(model, ds, rows, settings, "rcc2", 0)
        assert err.value.rows.tolist() == [28, 31, 44, 48, 49]
        with pytest.raises(SystemError_, match="^row 0 of s1 alpha=1000000.0 has score"):
            cli._defense_sweep(model, ds, rows, [("s1", 1e6)], "half_star", 0)


class TestFailureRows:
    """A failure carries its rows as data: the exception a solver raised, its
    rows in the flattened batch's order, named in its text by their setting
    once stack_mse has set its labels."""

    SETTINGS = [("s1", 0.1), ("s1", 1.0), ("s1", 10.0)]

    @pytest.fixture(scope="class")
    def setup(self):
        # defend --synth-n 2000 --synth-dt 10 --synth-k 4 --d 6 --n 100 --seed 0
        ds = synthesize(SyntheticSpec(n=2000, d_t=10, k=4, seed=0))
        model = train(ds, VflSplit.contiguous(10, 0, 10), TrainConfig(seed=0)).window(
            VflSplit.contiguous(10, 0, 6))
        return model, ds, np.flatnonzero(ds.test_mask)[:100]

    def test_capped_projection(self, setup):
        # at alpha = 10 five planes miss the box and rcc2's projection caps
        with pytest.raises(numerics.ConvergenceError) as err:
            cli._defense_sweep(*setup, self.SETTINGS, "rcc2", 0)
        exc = err.value
        assert exc.rows.tolist() == [236, 243, 257, 273, 285]
        assert exc.labels == (["s1 alpha=0.1", "s1 alpha=1.0", "s1 alpha=10.0"], 100)
        assert list(exc.residuals) == ["affine"] and exc.residuals["affine"].shape == (5,)
        assert exc.last_iterate.shape == (300, 6)
        assert str(exc) == (
            "box-affine projection hit the iteration cap on 5 of 300 rows; rows [36, 43, "
            "57, 73, 85] of s1 alpha=10.0; affine 2.131e+00 6.614e-01 4.885e+00 1.482e+00 "
            "5.586e-01")

    def test_rcc1_gaps(self, setup):
        with pytest.raises(AttackError) as err:
            cli._defense_sweep(*setup, self.SETTINGS, "rcc1", 0)
        assert err.value.rows.tolist() == [236, 243, 257, 273, 285]
        assert re.fullmatch(r"rcc1 rows \[36, 43, 57, 73, 85\] of s1 alpha=10\.0 end with "
                            r"gaps( \S+){5} above 1e-08 in at most 50 steps", str(err.value))

    def test_underflow(self, setup):
        # the second setting's row 0 is the batch's row 100
        with pytest.raises(SystemError_) as err:
            cli._defense_sweep(*setup, [("s1", 0.1), ("s1", 1e6)], "half_star", 0)
        assert err.value.rows == 100
        assert str(err.value) == ("row 0 of s1 alpha=1000000.0 has score 0.0, below the "
                                  "smallest normal float, so its log is not exact")

    def test_rows_named(self):
        exc = numerics.ConvergenceError("hit the cap on 3 of 12 rows", None,
                                        {"affine": np.array([1.0, 2.0, 3.0])},
                                        np.array([1, 5, 9]))
        exc.labels = (["a", "b", "c"], 4)
        assert str(exc) == ("hit the cap on 3 of 12 rows; rows [1] of a, [1] of b, "
                            "[1] of c; affine 1.000e+00 2.000e+00 3.000e+00")
        exc = SystemError_("{rows} has score 0.0", 6)
        assert str(exc) == "row 6 has score 0.0"
        exc.labels = (["a", "b"], 4)
        assert str(exc) == "row 2 of b has score 0.0"

    @pytest.mark.parametrize("case", ["fista", "relabelled", "rcc1", "underflow"])
    def test_survives_pickle(self, setup, monkeypatch, case):
        # so that a failure can cross a process boundary
        monkeypatch.setattr(numerics, "_FISTA_MAX_ITER", 1)
        with pytest.raises(numerics.RowsError) as err:
            if case == "fista":
                sys_ = LinearSystem(a=np.array([[1.0, 2.0, 0.5]]),
                                    b=np.array([[0.7], [4.0], [-0.4]]))
                numerics.box_least_squares(sys_, [0, 1, 2])
            elif case == "underflow":
                cli._defense_sweep(*setup, [("s1", 0.1), ("s1", 1e6)], "half_star", 0)
            else:
                cli._defense_sweep(*setup, self.SETTINGS,
                                   "cls" if case == "relabelled" else "rcc1", 0)
        exc = err.value
        assert type(exc) is {"fista": numerics.ConvergenceError,
                             "relabelled": numerics.ConvergenceError,
                             "rcc1": AttackError, "underflow": SystemError_}[case]
        assert (exc.labels is None) == (case == "fista")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert np.array_equal(back.rows, exc.rows) and back.labels == exc.labels
        if isinstance(exc, numerics.ConvergenceError):
            assert np.array_equal(back.last_iterate, exc.last_iterate)
            assert back.residuals.keys() == exc.residuals.keys()
            for name, values in exc.residuals.items():
                assert np.array_equal(back.residuals[name], values)

    @pytest.mark.parametrize("text", ["ls produced non-finite estimates",
                                      "the set {x in [0, 1]^d : A x = b'} is empty"],
                             ids=["no_rows", "braces"])
    def test_text_without_rows_comes_back_as_written(self, text):
        exc = AttackError(text)
        assert str(exc) == text
        exc.labels = (["a", "b"], 4)
        assert str(exc) == text and exc.rows is None


def test_solver_cap_prints_rows_and_residuals(tmp_path, monkeypatch, capsys):
    # a random k=4 model on features piled up near 0 and 1 sends rcc2 to
    # its Newton projection on some rows; a one-step cap then stops it there
    rng = np.random.default_rng(28)
    model = VflModel(w_act=3.0 * rng.standard_normal((4, 4)),
                     w_pas=3.0 * rng.standard_normal((4, 6)),
                     b=rng.standard_normal(4), k=4,
                     split=VflSplit.contiguous(10, 4, 6))
    model.save(tmp_path / "model.json")
    jitter = np.abs(rng.normal(0.0, 0.05, size=(200, 10)))
    x = np.where(rng.random((200, 10)) < 0.5, 1.0 - jitter, jitter)
    x[:2] = [[0.0] * 10, [1.0] * 10]        # min-max scaling keeps the values
    path = tmp_path / "bimodal.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(10)] + ["label"])
        writer.writerows([*map(repr, row), f"c{i % 4}"]
                         for i, row in enumerate(x.tolist()))
    monkeypatch.setattr(numerics, "_PROJECT_MAX_ITER", 1)
    assert _run(["attack", "--data", str(path), "--model", str(tmp_path / "model.json"),
                 "--d", "6", "--start", "4", "--attacks", "rcc2", "--n", "20"]) == 3
    line = capsys.readouterr().err.strip()
    found = re.fullmatch(r"solver failure: box-affine projection hit the "
                         r"iteration cap on (\d+) of \d+ rows; rows "
                         r"\[([\d, ]+)\] of window start=4; affine ([^;]+)", line)
    assert found, line
    capped = int(found[1])
    rows = [int(r) for r in found[2].split(",")]
    assert len(rows) == capped and all(0 <= r < 20 for r in rows)
    assert len(found[3].split()) == capped
    assert all(float(v) > 0.0 for v in found[3].split())
