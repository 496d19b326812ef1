"""Per-layer tracing of vflpriv from outside the package.

The tracer replaces a fixed set of public functions with timing wrappers for
the length of one traced pass, then restores them. Several modules bind the
same function through ``from ... import`` (``cli`` and ``metrics`` hold their
own references to ``train``, ``predict``, ``build_system`` and
``run_attack``), so a wrapper is installed in every ``vflpriv`` namespace that
holds the original. Installation fails if a module-level table (dict, list
or tuple) holds an original, since calls through it would skip the wrapper,
and the runner fails a traced run in which a layer that the workload must
reach recorded no calls.

Each call becomes a span: name, start, end, parent span and the id of the
CLI command it ran under. Spans stay in memory, in flat arrays, until the
benchmark writes them out at exit. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import Counter
from functools import wraps

# (module, function) pairs timed in the traced run; span name "module.function"
WRAPPED = (
    ("dataset", "load_dataset"),
    ("model", "train"),
    ("model", "loss_and_grads"),
    ("model", "predict"),
    ("system", "build_system"),
    ("numerics", "svd"),
    ("numerics", "dykstra_project"),
    ("numerics", "box_least_squares"),
    ("defense", "pps2_optimal_direction"),
    ("defense", "apply_scheme"),
    ("metrics", "kl_divergence"),
    ("metrics", "average_over_space"),
    ("metrics", "attack_mse_on_rows"),
)

# estimators reached through attacks.run_attack; span name "attacks.<name>"
ATTACKS = ("rg", "zero", "half", "ls", "clamped_ls", "half_star", "rcc2",
           "cls", "rcc1", "gia")

# CLI commands the workloads run; the benchmark opens span "cli.<command>"
COMMANDS = ("figure1", "attack", "tradeoff")


def _metric_table() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better direction)."""
    t = {}

    def add(name, unit, better="lower"):
        t[name] = (unit, better)

    add("dataset.load_dataset.calls", "count")
    add("dataset.load_dataset.s", "s")
    add("model.train.calls", "count")
    add("model.train.s", "s")
    add("model.loss_and_grads.calls", "count")
    add("model.predict.calls", "count")
    add("model.predict.s", "s")
    add("system.build_system.calls", "count")
    add("system.build_system.us_per_call", "us")
    add("numerics.svd.calls", "count")
    add("numerics.svd.s", "s")
    add("numerics.dykstra_project.calls", "count")
    add("numerics.dykstra_project.s", "s")
    add("numerics.dykstra_project.failed", "count")
    add("numerics.box_least_squares.calls", "count")
    add("numerics.box_least_squares.s", "s")
    add("attacks.rcc2.dykstra_frac", "frac")
    add("attacks.gia.iterations", "count")
    for a in ATTACKS:
        add(f"attacks.{a}.rows", "count", "higher")
        add(f"attacks.{a}.ms_per_row", "ms")
        add(f"attacks.{a}.failed", "count")
        add(f"attacks.{a}.infeasible", "count")
    add("defense.pps2_optimal_direction.calls", "count")
    add("defense.pps2_optimal_direction.s", "s")
    add("defense.apply_scheme.calls", "count")
    add("defense.apply_scheme.s", "s")
    add("metrics.kl_divergence.calls", "count")
    add("metrics.kl_divergence.s", "s")
    add("metrics.average_over_space.s", "s")
    add("metrics.attack_mse_on_rows.s", "s")
    for c in COMMANDS:
        add(f"cli.{c}.self_s", "s")
    add("trace.overhead_frac", "frac")
    return t


METRICS = _metric_table()

# metrics that are counts of one pass; they repeat exactly, so they are taken
# from the first traced pass instead of a median
_COUNTS = {m for m, (unit, _) in METRICS.items() if unit == "count"}


class InstrumentationError(RuntimeError):
    """A wrapper could not be installed everywhere the package looks it up."""


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.failed = array("b")
        self._stack: list[int] = []
        self._command_id = -1
        self.diag = Counter()          # facts read from returned estimates
        self._patched: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self._command_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def begin_command(self, command: str) -> int:
        self._command_id += 1
        return self.open(f"cli.{command}")

    def _wrap(self, fn, fixed_name=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            name = fixed_name or f"attacks.{args[0] if args else kwargs['name']}"
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if fixed_name is None:
                tracer._estimate(name, result)
            return result

        return traced

    def _estimate(self, name: str, est) -> None:
        if not est.feasible:
            self.diag[f"{name}.infeasible"] += 1
        if name == "attacks.gia":
            self.diag["attacks.gia.iterations"] += int(est.diagnostics["iterations"])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap every reference to each wrapped function for its wrapper."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "vflpriv" or n.startswith("vflpriv.")}
        targets = [(f"{m}.{f}", getattr(mods[f"vflpriv.{m}"], f))
                   for m, f in WRAPPED]
        targets.append((None, mods["vflpriv.attacks"].run_attack))
        for name, original in targets:
            wrapper = self._wrap(original, name)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((vars(mod), key, original))
                        vars(mod)[key] = wrapper
        # a module-level table holding an original would bypass its wrapper
        originals = [original for _, original in targets]
        tables = [f"{n}.{k}" for n, mod in mods.items()
                  for k, v in vars(mod).items()
                  if not k.startswith("__") and isinstance(v, (dict, list, tuple))
                  and any(x is o for x in (v.values() if isinstance(v, dict) else v)
                          for o in originals)]
        if tables:
            self.uninstall()
            raise InstrumentationError(f"tables hold unwrapped functions: {tables}")

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to pass_metrics after a pass."""
        return len(self.name), Counter(self.diag)

    def pass_metrics(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics over the spans recorded after ``since``."""
        lo, diag0 = since
        hi = len(self.name)
        n_names = len(self._names)
        calls = [0] * n_names
        total = [0.0] * n_names
        own = [0.0] * n_names
        failed = [0] * n_names
        child = [0.0] * (hi - lo)
        has_dykstra = set()
        dykstra = self._name_ids.get("numerics.dykstra_project")
        for i in range(hi - 1, lo - 1, -1):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i - lo]
            failed[nid] += self.failed[i]
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur
                if nid == dykstra:
                    has_dykstra.add(p)
        diag = Counter(self.diag)
        diag.subtract(diag0)

        def get(name, table):
            nid = self._name_ids.get(name)
            return table[nid] if nid is not None else 0

        out = {m: 0.0 for m in METRICS}
        for module, fn in WRAPPED:
            base = f"{module}.{fn}"
            n = get(base, calls)
            for metric, value in ((".calls", n), (".s", get(base, total)),
                                  (".failed", get(base, failed)),
                                  (".us_per_call",
                                   get(base, total) / n * 1e6 if n else 0.0)):
                if base + metric in out:
                    out[base + metric] = value
        for a in ATTACKS:
            base = f"attacks.{a}"
            n = get(base, calls)
            out[base + ".rows"] = n
            out[base + ".ms_per_row"] = get(base, total) / n * 1e3 if n else 0.0
            out[base + ".failed"] = get(base, failed)
            out[base + ".infeasible"] = diag[base + ".infeasible"]
        rcc2 = self._name_ids.get("attacks.rcc2")
        n_rcc2 = get("attacks.rcc2", calls)
        if n_rcc2:
            on_path = sum(1 for p in has_dykstra if self.name[p] == rcc2)
            out["attacks.rcc2.dykstra_frac"] = on_path / n_rcc2
        out["attacks.gia.iterations"] = diag["attacks.gia.iterations"]
        for c in COMMANDS:
            out[f"cli.{c}.self_s"] = get(f"cli.{c}", own)
        return out

    def write(self, path) -> None:
        """One JSON header line, then one array per span; its id is its line - 2."""
        fields = ["name", "start", "end", "parent", "command", "failed"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": fields, "names": self._names}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.command, self.failed):
                fh.write(json.dumps(row) + "\n")


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, timings as medians over all of them."""
    out = {}
    for m in METRICS:
        values = [p[m] for p in passes]
        out[m] = values[0] if m in _COUNTS else statistics.median(values)
    return out
