"""Command-line experiment runner.

Subcommands cover model training, the score-based and black-box attacks, the
two defenses, closed-form evaluation and the three plot-ready sweeps. Each
key=value line of a config file is parsed as a flag --key=value placed before
the command line's own, so explicit flags win. Exit codes: 0 success, 2 bad
configuration or input, 3 solver failure.

A subcommand that trains views one model per table and training config,
trained on every feature in column order, per passive window
(VflModel.window). The last such model is kept, so in-process calls on one
table and config (a sweep) train it once.

main builds its parser at its first call and keeps it, so repeated
in-process calls (a sweep) parse without rebuilding it. The parser holds
each subcommand's handler by name, cmd_<name>, and main looks it up when it
runs, so a handler replaced after the parser was built still runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import blackbox, dataset, defense, metrics, numerics
from .attacks import ATTACKS
from .dataset import DataError, Dataset, SyntheticSpec, load_dataset, synthesize
from .model import (TrainConfig, TrainingError, VflModel, VflSplit, accuracy,
                    predict, softmax, train)
from .system import build_system

_CONFIG_ERRORS = (DataError, metrics.MetricsError, blackbox.BlackboxError, ValueError, OSError)
_SOLVER_ERRORS = (numerics.RowsError, TrainingError, np.linalg.LinAlgError)

DESK_N = 200
DESK_TRIALS = 20


def read_config(path) -> dict:
    """Parse a key=value file; blank lines and #-comments are skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _check_out(path) -> None:
    """--out names a file in an existing directory, checked before any work."""
    if path and Path(path).is_dir():
        raise DataError(f"--out {path} is a directory")
    if path and not Path(path).parent.is_dir():
        raise DataError(f"--out {path}: directory {Path(path).parent} does not exist")


def _check_d(d: int, d_t: int, flag: str = "--d") -> None:
    if not 1 <= d <= d_t:
        raise DataError(f"{flag} {d} is out of range: the passive window needs "
                        f"1 to {d_t} features (the table has {d_t})")


_last_model: tuple = (None, None)   # (key, VflModel) of the last table model


def _table_model(ds: Dataset, args) -> VflModel:
    """The model trained on all of ds's features in column order under --lam
    (not given: 0.0) and --seed, kept for the process.

    The key holds the trainer (so a wrapped cli.train trains its own), the
    bytes themselves of ds.x, ds.y and ds.train_mask, ds.k and the config. The
    kept arrays are read-only; callers take a VflModel.window of it, which copies."""
    global _last_model
    cfg = TrainConfig(lam=0.0 if args.lam is None else args.lam, seed=args.seed)
    key = (train, ds.x.tobytes(), ds.y.tobytes(), ds.train_mask.tobytes(), ds.k, cfg)
    last_key, model = _last_model   # one read, so a concurrent call cannot pair
    if last_key != key:             # this key with another model
        model = train(ds, VflSplit.contiguous(ds.d_t, 0, ds.d_t), cfg)
        for arr in (model.w_act, model.w_pas, model.b):
            arr.flags.writeable = False
        _last_model = key, model
    return model


def _model(args, ds: Dataset) -> VflModel:
    """The --start/--d window's view of the table model, or the --model file
    that must hold that window."""
    if not 0 <= args.start < ds.d_t:
        raise DataError(f"--start {args.start} is out of range: the table has "
                        f"features 0 to {ds.d_t - 1}")
    _check_d(args.d, ds.d_t)
    split_cfg = VflSplit.contiguous(ds.d_t, args.start, args.d)
    if not getattr(args, "model", None):
        return _table_model(ds, args).window(split_cfg)
    model = VflModel.load(args.model)
    if model.split != split_cfg:
        raise DataError(f"--model {args.model} holds passive features "
                        f"{list(model.split.passive)} of {model.split.d_t}; --start "
                        f"{args.start} --d {args.d} on this {ds.d_t}-feature table "
                        f"is {list(split_cfg.passive)} of {ds.d_t}")
    return model


def _check_n(n: int, flag: str) -> int:
    """A count (--n predictions, --trials), checked before any load, training or trial."""
    if n < 1:
        raise DataError(f"{flag} must be at least 1, got {n}")
    return n


def _attack_names(text: str) -> list[str]:
    """The comma list of --attacks, every name checked before any work."""
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in ATTACKS]
    if unknown:
        raise DataError(f"unknown attacks {unknown}; choose from {list(ATTACKS)}")
    if len(set(names)) != len(names):
        raise DataError(f"attack names repeat in {text!r}")
    return names


def _comma_list(text: str, flag: str, kind: type) -> list:
    """A flag's comma list of distinct kind values (--d-grid, --alpha),
    checked before any load."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        raise DataError(f"{flag} must be a comma list of {kind.__name__} values, "
                        f"got {text!r}") from None
    if len(set(values)) != len(values):
        raise DataError(f"values repeat in {flag} {text!r}")
    return values


def _load_data(args) -> Dataset:
    """The --data table or the synthetic one. An option of the other source
    (given, so not None) would be read by nothing: it exits 2 before any load."""
    for name in ("synth_n", "synth_dt", "synth_k") if args.data else ("label_col",):
        if (value := getattr(args, name)) is not None:
            raise DataError(f"--{name.replace('_', '-')} {value} does not apply: " + (
                f"--data {args.data} is the table" if args.data else "it needs --data"))
    if args.data:
        ds = load_dataset(args.data, train_fraction=args.train_frac, seed=args.seed,
                          label_col=-1 if args.label_col is None else args.label_col)
        mask = ds.train_mask
    else:
        given = {"n": args.synth_n, "d_t": args.synth_dt, "k": args.synth_k}
        spec = SyntheticSpec(seed=args.seed, **{f: v for f, v in given.items() if v is not None})
        mask = dataset.split_mask(spec.n, args.train_frac, args.seed)
    if not 2 <= mask.sum() < mask.size:
        raise DataError(f"--train-frac {args.train_frac} leaves {mask.sum()} of "
                        f"{mask.size} rows for training; training needs 2, testing 1")
    if not args.data:   # drawn after the check; this split replaces its own 0.8 one
        ds = dataclasses.replace(synthesize(spec), train_mask=mask)
    return ds


def _emit(rows, header, out_path):
    """Write the header and rows as CSV with LF line ends, to out_path or stdout."""
    with (open(out_path, "w", newline="", encoding="utf-8") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def cmd_train(args) -> int:
    ds = _load_data(args)
    model = _model(args, ds)
    if args.out:
        model.save(args.out)
    print(f"accuracy={accuracy(model, ds):.6f}")
    return 0


def cmd_attack(args) -> int:
    names = _attack_names(args.attacks)
    n = _check_n(args.n, "--n")
    if args.model and args.lam is not None:
        raise DataError(f"--lam {args.lam} does not apply: --model {args.model} "
                        "is not retrained")
    if args.init is not None and "gia" not in names:
        raise DataError(f"--init {args.init} does not apply: --attacks {args.attacks} "
                        "has no gia")
    ds = _load_data(args)
    model = _model(args, ds)
    rows = np.flatnonzero(ds.test_mask)[:n]
    mse = metrics.attack_mse_on_rows(model, [model.split], ds, rows, names, args.seed,
                                     init=args.init or "half")
    out = [[name, args.d, len(rows), repr(float(mse[name][0]))] for name in names]
    _emit(out, ["attack", "d", "n", "mse"], args.out)
    return 0


# --case: the estimator of its sign knowledge and the default (w, b) of v = w x + b
_BLACKBOX_CASES = {1: (blackbox.bb_case1, 1.0, 0.0), 2: (blackbox.bb_case2, 1.0, 1.0),
                   3: (blackbox.bb_case3, 1.0, -2.0)}


def _blackbox_trial_mse(estimator, n: int, rng: np.random.Generator, w: float,
                        b: float) -> float:
    x = rng.uniform(0.0, 1.0, size=n)
    est = estimator(w * x + b)
    return metrics.empirical_mse(x[None, :], est.x_hat[None, :])


def cmd_blackbox(args) -> int:
    trials = _check_n(args.trials, "--trials")
    rng = np.random.default_rng(args.seed)
    try:    # the inclusive range I..J of sample counts, 1 <= I <= J
        lo, hi = (int(s) for s in args.n_grid.split(".."))
    except ValueError:
        raise DataError(f"--n-grid must look like I..J, got {args.n_grid!r}") from None
    if not 1 <= lo <= hi:
        raise DataError(f"--n-grid must run from 1 up, got {args.n_grid!r}")
    estimator, w, b = _BLACKBOX_CASES[args.case]
    w = w if args.w is None else args.w
    b = b if args.b is None else args.b
    for flag, value in (("--w", w), ("--b", b)):
        if not np.isfinite(value):
            raise DataError(f"{flag} must be finite, got {value}")
    # the map at x = 0 and x = 1: a (w, b) that the estimator rejects fails here
    estimator([b, w + b])
    if w == 0:
        raise DataError(f"--w {w} maps every x to --b {b}: no case can invert the map")
    out = []
    for n in range(lo, hi + 1):
        vals = [_blackbox_trial_mse(estimator, n, rng, w, b) for _ in range(trials)]
        out.append([n, repr(float(np.mean(vals)))])
    _emit(out, ["n", "mse"], args.out)
    return 0


def _defense_sweep(model: VflModel, ds: Dataset, rows, settings, attack: str,
                   seed: int) -> list[tuple[float, float, bool]]:
    """(MSE, mean KL bits, label kept) of one attack per (scheme, param) setting.

    One logits call, its softmax (the clean scores) and one clean build_system
    cover the N rows, and the pps1 transform or the one s1/s2 direction comes from it.
    pps1 comes alone, releasing the clean scores on new weights; the other
    schemes' settings release scores on the model's one A. Setting i is
    system i that metrics.stack_mse scores (rg draws from default_rng(seed
    + i)). One kl_divergence call scores every setting, pps1 at exactly 0.
    A failure names its rows as rows of "pps1" or "<scheme> alpha=<param>".
    """
    pas = list(model.split.passive)
    y_act, x_pas = ds.x[np.ix_(rows, model.split.active)], ds.x[np.ix_(rows, pas)]
    c = softmax(z := model.logits(y_act, x_pas))
    clean = build_system(model, y_act, c)
    if settings[0][0] == "pps1":
        h = defense.pps1_optimal_h(clean, metrics.moments(ds, pas).k0)
        released, c_out = defense.pps1_reveal_params(model, h), c[None]
    else:
        v1, c_out = None, []
        for scheme, param in settings:
            if scheme in ("s1", "s2"):
                v1 = defense.pps2_optimal_direction(clean, param).v1 if v1 is None else v1
                param = defense.NoisePlan(float(param), v1)
            c_out.append(defense.apply_scheme(z, param, scheme))
        released, c_out = model, np.stack(c_out)        # c_out: S x N x k
    mse = metrics.stack_mse(released, y_act, c_out, x_pas, [attack],
                            [sc if sc == "pps1" else f"{sc} alpha={p}" for sc, p in settings],
                            seed, "half", "noisy")[attack]
    kl = metrics.kl_divergence(np.tile(c, (len(c_out), 1)), c_out.reshape(-1, model.k))
    # the original label must attain the maximal released score
    top = np.take_along_axis(c_out, np.argmax(c, axis=-1)[None, :, None], axis=-1)
    kept = (top == c_out.max(axis=-1, keepdims=True)).all(axis=(1, 2))
    return [(float(m), float(np.mean(k)), bool(ok))
            for m, k, ok in zip(mse, kl.reshape(len(mse), -1), kept)]


def cmd_defend(args) -> int:
    attacks = _attack_names(args.attack)
    if len(attacks) != 1:
        raise DataError(f"--attack takes one name, got {args.attack!r}")
    if args.scheme == "pps1" and args.alpha is not None:
        raise DataError(f"--alpha {args.alpha!r} does not apply: --scheme pps1 takes "
                        "no budget")
    if args.scheme == "class_label" and args.alpha is None:
        raise DataError("--scheme class_label needs --alpha: each eps in (0, 1/k) "
                        "for a table of k classes")
    alphas = [""] if args.scheme == "pps1" else _comma_list(
        "0.5" if args.alpha is None else args.alpha, "--alpha", float)
    settings = [(args.scheme, a) for a in alphas]
    n = _check_n(args.n, "--n")
    ds = _load_data(args)
    if args.scheme != "pps1":   # class_label's range depends on the class count
        for alpha in alphas:
            defense.check_scheme_param(args.scheme, alpha, ds.k)
    model = _model(args, ds)
    rows = np.flatnonzero(ds.test_mask)[:n]
    results = _defense_sweep(model, ds, rows, settings, attacks[0], args.seed)
    out = [[args.scheme, alpha, repr(mse), repr(kl)]
           for alpha, (mse, kl, _) in zip(alphas, results)]
    _emit(out, ["scheme", "alpha", "mse", "avg_kl_bits"], args.out)
    return 0


def cmd_evaluate(args) -> int:
    ds = _load_data(args)
    model = _model(args, ds)
    pas, act = list(model.split.passive), list(model.split.active)
    mom = metrics.moments(ds, pas)
    i0 = int(np.flatnonzero(ds.test_mask)[0])
    sys_ = build_system(model, ds.x[i0, act],
                        predict(model, ds.x[i0, act], ds.x[i0, pas]))
    reports = metrics.closed_form_mse(sys_, mom)
    out = [[r.attack, repr(r.closed_form), repr(r.lower), repr(r.upper),
            repr(r.mu_lower)] for r in reports.values()]
    _emit(out, ["attack", "closed_form", "lower", "upper", "mu_lower"], args.out)
    return 0


def cmd_figure1(args) -> int:
    names = _attack_names(args.attacks)
    n_pred = _check_n(args.n, "--n")
    grid = _comma_list(args.d_grid, "--d-grid", int)
    ds = _load_data(args)
    for d in grid:
        _check_d(d, ds.d_t, "--d-grid")
    model = _table_model(ds, args)
    out = []
    for d in grid:
        mse = metrics.average_over_space(model, ds, d, names, n_pred=n_pred,
                                         seed=args.seed)
        out.extend([d, name, repr(mse[name])] for name in names)
    _emit(out, ["d", "attack", "mse"], args.out)
    return 0


def cmd_tradeoff(args) -> int:
    n = _check_n(args.n, "--n")
    ds = _load_data(args)
    # class_label's eps 0.1 limits the table to 9 classes
    sweep = ([("s1", a) for a in (0.1, 1.0, 10.0)]
             + [("s2", a) for a in (0.1, 1.0, 10.0)]
             + [("s3", a) for a in (0.1, 0.5, 0.9)]
             + [("class_label", e) for e in (0.01, 0.1)])
    for scheme, param in sweep:     # before training
        defense.check_scheme_param(scheme, param, ds.k)
    model = _model(args, ds)
    base_acc = accuracy(model, ds)
    rows = np.flatnonzero(ds.test_mask)[:n]
    results = _defense_sweep(model, ds, rows, sweep, "half_star", args.seed)
    out = [[scheme, param, repr(kl), repr(mse),
            repr(base_acc if kept else float("nan"))]
           for (scheme, param), (mse, kl, kept) in zip(sweep, results)]
    _emit(out, ["scheme", "param", "avg_kl_bits", "mse_half_star", "accuracy"],
          args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new vflpriv parser: one subparser per subcommand."""
    parser = argparse.ArgumentParser(prog="vflpriv",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the options it reads, unabbreviated (figure1's
    # --d is no --d-grid), from these parents
    every, data, window, n = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    every.add_argument("--config", help="key=value config file; flags override")
    every.add_argument("--seed", type=int, default=0)
    every.add_argument("--out", help="output CSV path (default: stdout)")
    data.add_argument("--data", help="CSV path; omitted means synthetic data")
    # None: not given (-1 and SyntheticSpec's defaults apply in _load_data)
    data.add_argument("--label-col", type=int)
    data.add_argument("--train-frac", type=float, default=0.8)
    data.add_argument("--synth-n", type=int)
    data.add_argument("--synth-dt", type=int)
    data.add_argument("--synth-k", type=int)
    data.add_argument("--lam", type=float)     # None: not given, trained as 0.0
    window.add_argument("--d", type=int, default=4, help="passive feature count")
    window.add_argument("--start", type=int, default=0, help="passive window start")
    n.add_argument("--n", type=int, default=DESK_N, help="prediction count")

    def add(name, summary, *parents, aliases=()):
        p = sub.add_parser(name, help=summary, aliases=list(aliases),
                           parents=[every, *parents], allow_abbrev=False)
        p.set_defaults(func=f"cmd_{name}")
        return p

    add("train", "train the split logistic model", data, window)

    p = add("attack", "score-based reconstruction attacks", data, window, n)
    p.add_argument("--model", help="trained model JSON (skips training)")
    p.add_argument("--attacks", default="half,ls,half_star,rcc2")
    p.add_argument("--init", choices=("zeros", "half", "random"))  # None: not given, half

    p = add("blackbox", "single-feature black-box MSE vs sample count",
            aliases=["figure12"])
    p.add_argument("--case", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--n-grid", default="1..100")
    p.add_argument("--trials", type=int, default=DESK_TRIALS)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--b", type=float, default=None)

    p = add("defend", "apply one defense and measure MSE/KL", data, window, n)
    p.add_argument("--scheme", default="s3",
                   choices=("pps1", "s1", "s2", "s3", "class_label"))
    p.add_argument("--alpha", help="comma list of budgets (default 0.5 for s1, s2 and "
                   "s3; class_label needs one; none for pps1)")
    p.add_argument("--attack", default="half_star")

    add("evaluate", "closed-form MSE values and bounds", data, window)

    p = add("figure1", "MSE-vs-d sweep over attacks", data, n)
    p.add_argument("--d-grid", default="1,2,4,6")
    p.add_argument("--attacks", default="rg,zero,half,ls,clamped_ls,half_star,rcc2")

    add("tradeoff", "defense KL/MSE/accuracy sweep", data, window, n)

    return parser


def _with_config(argv: list) -> tuple[list, dict]:
    """argv with each --config line as a --key=value token before the user's own.

    A config= line is an error. Returns the new argv and the config key of
    each token.
    """
    path = None
    for token, after in zip(argv[1:], argv[2:] + [None]):   # the last one wins
        if token == "--config":
            path = after
        elif token.startswith("--config="):
            path = token.partition("=")[2]
    if path is None:
        return argv, {}
    tokens = {}
    for key, value in read_config(path).items():
        if key == "config":
            raise DataError(f"{path}: a config file cannot name another (config={value})")
        tokens[f"--{key.replace('_', '-')}={value}"] = key
    return [argv[0], *tokens, *argv[1:]], tokens


_parser = None     # built at the first main call, then kept for the process


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv, from_config = _with_config(argv)
        args, remaining = _parser.parse_known_args(argv)
        unknown = sorted({from_config[t] for t in remaining if t in from_config})
        if unknown:
            raise DataError(f"unknown config keys: {unknown}")
        if remaining:
            raise DataError(f"unrecognized arguments: {remaining}")
        _check_out(args.out)
        if args.seed < 0:
            raise DataError(f"--seed must be a non-negative integer, got {args.seed}")
        return globals()[args.func](args)
    except SystemExit as exc:   # argparse's own exit: 2 for a bad value, 0 for --help
        return exc.code
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
