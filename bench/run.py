"""vflpriv benchmark: CLI sweeps driven in-process, checked, and timed.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {figure1,attack,tradeoff} --seed N \
        --seconds S --trace {0,1}

One client issues vflpriv CLI commands back to back (a closed loop) by
calling ``vflpriv.cli.main(argv)`` in this process. A pass generates a table
from ``--seed`` and the pass number, times the program's set-up on it, and
runs the workload's command list on it once. The number of passes is fixed
by ``--seconds`` and the workload's expected pass time, not by the clock, so
a seed always does the same work and fails the same commands. The
throughput is the rows of all passes over the time of all their commands:
a failed command costs time and gives no rows, and summing over the passes
spreads that cost evenly instead of letting the median fall on one side of
it. Set-up time is the median over passes. Times are in nominal seconds
(see calibrate.py): wall time scaled by a reference kernel timed around each
piece of work, so a stretch in which the shared machine runs slow does not
read as a slower program.
Every command's CSV is checked and its sha256 recorded. A command that exits
non-zero, raises, or writes a wrong table counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics. With ``--trace 1`` every pass runs its commands twice,
untraced and then traced, and the JSON holds the per-layer metrics of
``layers.py``. Lines before it start with ``#`` and carry the environment,
the output digests and the stderr of failed commands. The exit status is
non-zero, with no result line, when the package cannot be imported or the
set-up or instrumentation fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3      # passes per run, however short --seconds is

NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the cores this process may use, before numpy loads
BLAS_ENV = {v: str(NPROC) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the BLAS thread cap)

import calibrate  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def say(*parts) -> None:
    print("#", *parts, flush=True)


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def import_seconds() -> float:
    """Time to import vflpriv.cli in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import vflpriv.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes of one workload and keeps what each of them measured."""

    def __init__(self, main, workload, tracer=None):
        self.main = main
        self.workload = workload
        self.tracer = tracer
        self.clock = calibrate.NominalClock()
        self.rates: list[float] = []     # ok rows / command seconds, per pass
        self.rows = self.seconds = 0.0   # the same, summed over the passes
        self.setups: list[float] = []
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.digests: list[tuple[int, str, str]] = []
        self.plain_s = self.traced_s = 0.0
        self.layer_passes: list[dict] = []

    def run_pass(self, index: int) -> None:
        wl = self.workload
        wl.prepare(index)
        setup = self.clock.nominal_seconds(import_seconds())
        t0 = time.perf_counter()
        wl.setup(self.main)
        setup += self.clock.nominal_seconds(time.perf_counter() - t0)
        self.setups.append(setup)
        commands = wl.commands()
        rows, seconds, digests = self._run(index, commands, traced=False)
        self.rates.append(rows / seconds)
        self.rows += rows
        self.seconds += seconds
        self.digests += [(index, key, d) for key, d in digests.items()]
        if self.tracer is not None:
            mark = self.tracer.mark()
            self.tracer.install()
            try:
                _, traced_s, traced = self._run(index, commands, traced=True)
            finally:
                self.tracer.uninstall()
            self.layer_passes.append(self.tracer.pass_metrics(mark))
            self.plain_s += seconds
            self.traced_s += traced_s
            if traced != digests:
                self._wrong(index, "traced run", "outputs differ from the untraced run")
        shutil.rmtree(wl.dir)   # the digests keep what the outputs were

    def _run(self, index, commands, traced):
        rows = seconds = 0.0
        digests = {}
        for cmd in commands:
            cmd.out.unlink(missing_ok=True)
            span = self.tracer.begin_command(cmd.argv[0]) if traced else None
            t0 = time.perf_counter()
            rc, _, err = run_cli(self.main, cmd.argv)
            seconds += self.clock.nominal_seconds(time.perf_counter() - t0)
            if traced:
                self.tracer.close(span, failed=rc != 0)
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                if not traced:
                    msg = err.strip().replace("\n", " | ")
                    say(f"failed pass{index} {cmd.key} :: exit {rc}: {msg}")
                continue
            try:
                cmd.check()
            except checks.CheckFailed as exc:
                self.failed += 1
                self._wrong(index, cmd.key, str(exc))
                continue
            rows += cmd.rows
            digests[cmd.key] = hashlib.sha256(cmd.out.read_bytes()).hexdigest()
        return rows, seconds, digests

    def _wrong(self, index, key, problem):
        self.wrong.append(f"pass{index} {key}: {problem}")
        say(f"wrong output pass{index} {key} :: {problem}")


def pass_count(workload, seconds: float, traced: bool) -> int:
    """Passes that fill about ``seconds`` at the workload's expected pass time.

    The count depends on the arguments only: a pass count read off the clock
    would let a slow stretch of the machine drop a pass, and with it that
    pass's table and its failed commands.
    """
    per_pass = workload.PASS_SECONDS * (2 if traced else 1)
    return max(MIN_PASSES, round(seconds / per_pass))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vflpriv" / "cli.py").is_file():
        print(f"bench: no vflpriv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vflpriv
    import vflpriv.cli
    if Path(vflpriv.__file__).resolve().parent != SRC / "vflpriv":
        print(f"bench: imported vflpriv from {vflpriv.__file__}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    say("env", json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "vflpriv": vflpriv.__version__, "nproc": NPROC,
        "blas_threads": NPROC, "git_rev": git_rev()}))

    tracer = layers.Tracer() if args.trace else None
    runner = Runner(vflpriv.cli.main, WORKLOADS[args.workload](work, args.seed),
                    tracer)
    t0 = time.perf_counter()
    for n in range(pass_count(runner.workload, args.seconds, bool(args.trace))):
        runner.run_pass(n)
    wall = time.perf_counter() - t0

    with open(work / "digests.txt", "w", encoding="utf-8") as fh:
        for index, key, digest in runner.digests:
            fh.write(f"{digest}  pass{index} {key}\n")
    combined = hashlib.sha256("".join(
        d for _, _, d in runner.digests).encode()).hexdigest()
    attempted, failed = runner.attempted, runner.failed
    say(f"passes={len(runner.rates)} in {wall:.1f} wall s; rows_per_s by pass: "
        + " ".join(f"{r:.1f}" for r in runner.rates))
    say(f"machine speed: {runner.clock.nominal / runner.clock.wall:.3f} "
        "nominal seconds per wall second")
    say(f"sha256 of all outputs {combined} "
        f"(per output: {work / 'digests.txt'})")
    say(f"attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:.4f}")

    if args.trace:
        values = layers.combine(runner.layer_passes)
        values["trace.overhead_frac"] = runner.traced_s / runner.plain_s - 1.0
        missing = [m for m in runner.workload.expect_nonzero if not values[m]]
        if missing:
            print(f"bench: traced run saw no calls for {missing}", file=sys.stderr)
            return 1
        tracer.write(work / "spans.jsonl")
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, (unit, _) in layers.METRICS.items()}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "rows_per_s": {"value": runner.rows / runner.seconds,
                           "unit": "rows/s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "setup_s": {"value": statistics.median(runner.setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"correct": not runner.wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
