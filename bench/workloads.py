"""The benchmark's workloads: fixed lists of vflpriv CLI commands.

Every pass of a run draws a fresh table from the run's seed and the pass
number (not timed), runs the program's set-up on it (timed as ``setup_s``),
then runs the workload's command list on it once. Every command writes a CSV
through ``--out`` and carries the check for that CSV and the number of
reconstructions it makes: one (prediction, estimator) pair is one row.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import datagen

# The k=4 table shape shared by `attack` and `tradeoff`.
K4_TABLE = dict(n=1000, d_t=12, k=4)
K4_D = 6


@dataclass
class Command:
    key: str                        # stable label, unique in a pass
    argv: list[str]
    rows: int                       # reconstructions made when it succeeds
    out: Path                       # the CSV it writes
    check: Callable[[], None]       # raises checks.CheckFailed


def run_cli(main, argv) -> tuple[int | None, str, str]:
    """Call vflpriv.cli.main(argv) in-process; (exit code, stdout, stderr).

    The exit code is None when the command raised instead of returning.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:        # argparse rejects bad arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:         # a raise is a failed command
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    shape: dict = {}      # table shape passed to datagen.generate
    train_frac = 0.8
    # wall seconds of one untraced pass on a shared 2-vCPU Xeon VM; it sets
    # the number of passes of a run (run.pass_count)
    PASS_SECONDS: float
    expect_nonzero: tuple[str, ...] = ()   # per-layer metrics a pass must move

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self, index: int) -> None:
        """Generate the table of pass ``index`` in a directory of its own."""
        self.dir = self.work / f"pass{index}"
        self.dir.mkdir()
        self.table = datagen.generate(self.dir / "table.csv", [self.seed, index],
                                      **self.shape)
        self.x, self.test = datagen.cli_view(self.table, self.train_frac, self.seed)

    def setup(self, main) -> None:
        """Program set-up that the pass's commands depend on."""

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def _command(self, key: str, rows: int, check, *argv) -> Command:
        out = self.dir / (key.replace(" ", "-").replace("=", "") + ".csv")
        argv = [self.name, "--data", self.table.path, "--seed", str(self.seed),
                "--train-frac", str(self.train_frac), *map(str, argv),
                "--out", str(out)]
        return Command(key=key, argv=argv, rows=rows, out=out,
                       check=lambda: check(out))


class Figure1(Workload):
    """`figure1` sweeps: each command retrains d_t x 6 window models.

    rcc2 is left out of the attack list. On this table its Dykstra projection
    hits the iteration cap on some window model for 4 (d = 4) or 5 (d = 2)
    of 16 seeds, and the failure aborts the whole command, so the workload's
    throughput would split into two values depending on the seed. The rcc2
    failures are measured by `attack`, where each rcc2 command covers one
    window.
    """

    name = "figure1"
    PASS_SECONDS = 4.3
    shape = dict(n=1000, d_t=8, k=2)
    D_GRID = (2, 4)
    N_PRED = 200
    expect_nonzero = (
        "dataset.load_dataset.calls", "model.train.calls",
        "model.loss_and_grads.calls", "model.predict.calls",
        "system.build_system.calls", "numerics.svd.calls",
        "metrics.average_over_space.s", "metrics.attack_mse_on_rows.s",
        "cli.figure1.self_s",
        *(f"attacks.{a}.rows" for a in checks.FIGURE1_ATTACKS))

    def commands(self):
        n_rows = min(self.N_PRED, self.test.size)
        return [self._command(
            f"figure1 d={d}", self.table.d_t * n_rows * len(checks.FIGURE1_ATTACKS),
            lambda out, d=d: checks.figure1(out, d, self.x, self.test, self.N_PRED),
            "--d-grid", d, "--n", self.N_PRED,
            "--attacks", ",".join(checks.FIGURE1_ATTACKS))
            for d in self.D_GRID]


class Attack(Workload):
    """`attack --model` per (window, estimator group) on pre-trained models."""

    name = "attack"
    PASS_SECONDS = 3.4
    shape = K4_TABLE
    WINDOWS = (0, 3, 6, 9)
    # (label, estimators, rows); closed forms run over every test row
    GROUPS = (("closed", ("ls", "clamped_ls", "half_star"), None),
              ("rcc2", ("rcc2",), 50),
              ("iterative", ("cls", "rcc1"), 5),
              ("gia", ("gia",), 1))
    expect_nonzero = (
        "dataset.load_dataset.calls", "model.predict.calls",
        "system.build_system.calls", "numerics.svd.calls",
        "numerics.dykstra_project.calls", "numerics.box_least_squares.calls",
        "metrics.attack_mse_on_rows.s", "attacks.gia.iterations",
        "cli.attack.self_s",
        *(f"attacks.{a}.rows" for _, g, _ in GROUPS for a in g))

    def _model(self, start: int) -> Path:
        return self.dir / f"model-w{start}.json"

    def setup(self, main):
        for start in self.WINDOWS:
            path = self._model(start)
            argv = ["train", "--data", self.table.path, "--seed", str(self.seed),
                    "--d", str(K4_D), "--start", str(start), "--out", str(path)]
            rc, out, err = run_cli(main, argv)
            if rc != 0:
                raise RuntimeError(f"set-up `{' '.join(argv)}` exited {rc}: {err}")
            checks.model(path, self.table.k, K4_D, self.table.d_t, out.strip())

    def commands(self):
        out = []
        for start in self.WINDOWS:
            model = self._model(start)
            for label, names, n in self.GROUPS:
                n = self.test.size if n is None else n
                out.append(self._command(
                    f"attack w={start} {label}", n * len(names),
                    lambda p, a=list(names), n=n, m=model: checks.attack(
                        p, a, K4_D, n, m, self.x, self.test),
                    "--d", K4_D, "--start", start, "--model", model,
                    "--attacks", ",".join(names), "--n", n))
        return out


class Tradeoff(Workload):
    """The PPS-2 noise sweep over many test rows of the k=4 table."""

    name = "tradeoff"
    PASS_SECONDS = 2.0
    shape = K4_TABLE
    train_frac = 0.2
    WINDOWS = (0, 6)
    N = 200
    expect_nonzero = (
        "dataset.load_dataset.calls", "model.train.calls",
        "model.loss_and_grads.calls", "model.predict.calls",
        "system.build_system.calls", "numerics.svd.calls",
        "defense.pps2_optimal_direction.calls", "defense.apply_scheme.calls",
        "metrics.kl_divergence.calls", "attacks.half_star.rows",
        "cli.tradeoff.self_s")

    def commands(self):
        n = min(self.N, self.test.size)
        return [self._command(
            f"tradeoff w={start}", n * len(checks.TRADEOFF_SWEEP), checks.tradeoff,
            "--d", K4_D, "--start", start, "--n", n)
            for start in self.WINDOWS]


WORKLOADS = {w.name: w for w in (Figure1, Attack, Tradeoff)}
