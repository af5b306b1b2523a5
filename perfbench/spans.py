"""Timing spans around nozzleflow's layer boundaries, installed from outside.

The benchmark never edits the package: it replaces public functions and
methods with wrappers at run time, in the traced child process only.  A
span records its name, start, end and the span that was open when it began;
spans stay in memory and are written out when the pass ends.  A wrapped name
that the package no longer has is recorded as absent, and every metric that
needs it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _first_with(attr_path, args, kwargs):
    """First positional or keyword argument that has the dotted attribute."""
    for val in list(args) + list(kwargs.values()):
        obj = val
        try:
            for part in attr_path.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return obj
    return None


def _step_nodes(args, kwargs):
    n = _first_with("grid.n_nodes", args, kwargs)
    return float(n) if n is not None else 0.0


def _moment_states(args, kwargs):
    rho_f = kwargs.get("rho_f", args[2] if len(args) > 2 else None)
    return float(getattr(rho_f, "size", 0))


def _eval_nodes(args, kwargs):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    return float(getattr(x, "size", 1))


def _run_eps(args, kwargs):
    eps = kwargs.get("eps", args[1] if len(args) > 1 else None)
    if eps is None:
        cfg = args[0] if args else kwargs.get("cfg")
        eps = getattr(cfg, "eps", float("nan"))
    return float(eps)


# (span name, module, attribute path, hook).  A hook returns the work done by
# one call (nodes, states, eps); it is kept with the span and summed in a
# counter named "<span>.work".
SPANS = [
    ("cli.main", "nozzleflow.cli", "main", None),
    ("harness.sweep", "nozzleflow.harness", "sweep", None),
    ("harness.single_run", "nozzleflow.harness", "single_run", _run_eps),
    ("harness.lp_distance", "nozzleflow.harness", "lp_distance", None),
    ("harness.write_sweep_outputs", "nozzleflow.harness",
     "write_sweep_outputs", None),
    ("cli.output", "nozzleflow.harness", "write_snapshot_csv", None),
    ("cli.output", "nozzleflow.diagnostics", "DiagnosticsReport.to_csv", None),
    ("schedule.certify", "nozzleflow.schedule", "certify", None),
    ("diagnostics.weak_residual", "nozzleflow.diagnostics", "weak_residual",
     None),
    ("diagnostics.integrability", "nozzleflow.diagnostics",
     "integrability_window", None),
    ("diagnostics.sample", "nozzleflow.diagnostics", "Recorder.sample", None),
    ("diagnostics.finalize", "nozzleflow.diagnostics", "Recorder.finalize",
     None),
    ("diagnostics.energy", "nozzleflow.diagnostics", "energy_budget", None),
    ("diagnostics.llf", "nozzleflow.diagnostics", "llf_dissipation_rate", None),
    ("diagnostics.riemann", "nozzleflow.diagnostics", "riemann_monitor", None),
    ("diagnostics.vacuum", "nozzleflow.diagnostics", "vacuum_functional", None),
    ("diagnostics.quartic", "nozzleflow.entropy", "quartic_entropy", None),
    ("entropy.moments", "nozzleflow.entropy", "EntropyKernel.moments",
     _moment_states),
    ("thermo.riemann_invariants", "nozzleflow.thermo",
     "GasLaw.riemann_invariants", None),
    ("solver.prepare_initial_data", "nozzleflow.solver", "prepare_initial_data",
     None),
    ("solver.run", "nozzleflow.solver", "run", None),
    ("solver.step", "nozzleflow.solver", "step", _step_nodes),
    ("solver.explicit", "nozzleflow.solver", "hyperbolic_interface_data", None),
    ("solver.wave_speed", "nozzleflow.solver", "SolverContext.max_wave_speed",
     None),
    ("solver.context", "nozzleflow.solver", "SolverContext.__init__", None),
]

# (counter name, module, attribute path, amount per call); no span, so the
# wrapper costs a dictionary update and nothing is subtracted from a parent.
COUNTERS = [
    ("solver.tridiag.calls", "nozzleflow.solver", "solve_banded", None),
    ("geometry.profile_eval_nodes", "nozzleflow.geometry", "NozzleProfile.area",
     _eval_nodes),
    ("geometry.profile_eval_nodes", "nozzleflow.geometry",
     "NozzleProfile.d_area", _eval_nodes),
    ("geometry.profile_eval_nodes", "nozzleflow.geometry", "NozzleProfile.dlog",
     _eval_nodes),
    ("geometry.profile_eval_nodes", "nozzleflow.geometry",
     "NozzleProfile.dlog_prime", _eval_nodes),
]

# attribute path -> index of the output file's path among the call's arguments
OUTPUT_PATH_ARG = {"write_snapshot_csv": 0, "DiagnosticsReport.to_csv": 1}


class Tracer:
    """In-memory span store plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attr: dict[int, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop spans and counts recorded so far (set-up is not a pass)."""
        self.names.clear()
        self.start.clear()
        self.end.clear()
        self.parent.clear()
        self.attr.clear()
        self.counts.clear()

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def block(self, name: str):
        """Span around one of the benchmark's own phases."""
        i = self._open(name)
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self._close(i)

    def span_wrapper(self, name, fn, hook=None, output_arg=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name)
            if hook is not None:
                amount = hook(args, kwargs)
                tracer.attr[i] = amount
                tracer.counts[name + ".work"] += amount
            tracer.start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
                if output_arg is not None and len(args) > output_arg:
                    try:
                        tracer.counts["cli.output_bytes"] += os.path.getsize(
                            args[output_arg])
                    except OSError:
                        pass

        return wrapper

    def counter_wrapper(self, name, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1.0 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed name that the imported package still has."""
        for name, module, path, hook in SPANS:
            out_idx = OUTPUT_PATH_ARG.get(path)
            if not _patch(module, path,
                          lambda fn, n=name, h=hook, o=out_idx:
                          self.span_wrapper(n, fn, h, o)):
                self.absent.add(name)
        for name, module, path, amount in COUNTERS:
            if not _patch(module, path,
                          lambda fn, n=name, a=amount:
                          self.counter_wrapper(n, fn, a)):
                self.absent.add(name)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.start[i], self.end[i],
                                     self.parent[i]]) + "\n")


def _patch(module_name: str, path: str, make_wrapper) -> bool:
    """Replace a function or method everywhere the package binds it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    parts = path.split(".")
    if len(parts) == 1:
        orig = getattr(module, parts[0], None)
        if orig is None:
            return False
        wrapped = make_wrapper(orig)
        # names imported with ``from .x import y`` are separate bindings
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nozzleflow"
                                   or mod_name.startswith("nozzleflow.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
        return True
    cls = getattr(module, parts[0], None)
    if not isinstance(cls, type):
        return False
    attr = parts[1]
    patched = False
    todo = [cls]
    while todo:
        klass = todo.pop()
        todo.extend(klass.__subclasses__())
        raw = klass.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(klass, attr, type(raw)(make_wrapper(raw.__func__)))
        elif callable(raw):
            setattr(klass, attr, make_wrapper(raw))
        else:
            continue
        patched = True
    return patched


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

# metric -> (unit, names it needs); a metric is absent when one is absent
LAYER_METRICS = {
    "solver.step.calls": ("count", ["solver.step"]),
    "solver.step.s": ("s", ["solver.step"]),
    "solver.step.us_per_call": ("us", ["solver.step"]),
    "solver.step.ns_per_node": ("ns", ["solver.step"]),
    "solver.explicit.calls": ("count", ["solver.explicit", "solver.step"]),
    "solver.explicit.s": ("s", ["solver.explicit", "solver.step"]),
    "solver.implicit.s": ("s", ["solver.step", "solver.explicit",
                                "solver.wave_speed"]),
    "solver.tridiag.calls": ("count", ["solver.tridiag.calls"]),
    "solver.wave_speed.calls": ("count", ["solver.wave_speed"]),
    "solver.wave_speed.s": ("s", ["solver.wave_speed"]),
    "solver.context_builds": ("count", ["solver.context"]),
    "solver.grid_node_steps": ("count", ["solver.step"]),
    "diagnostics.sample.calls": ("count", ["diagnostics.sample"]),
    "diagnostics.sample.self_s": ("s", ["diagnostics.sample"]),
    "diagnostics.energy.s": ("s", ["diagnostics.energy"]),
    "diagnostics.llf.s": ("s", ["diagnostics.llf"]),
    "diagnostics.riemann.s": ("s", ["diagnostics.riemann"]),
    "diagnostics.vacuum.s": ("s", ["diagnostics.vacuum"]),
    "diagnostics.quartic.s": ("s", ["diagnostics.quartic"]),
    "diagnostics.weak_residual.s": ("s", ["diagnostics.weak_residual"]),
    "diagnostics.integrability.s": ("s", ["diagnostics.integrability"]),
    "entropy.moments.calls": ("count", ["entropy.moments"]),
    "entropy.moments.s": ("s", ["entropy.moments"]),
    "entropy.moments.states": ("count", ["entropy.moments"]),
    "entropy.moments.ns_per_state": ("ns", ["entropy.moments"]),
    "thermo.riemann_invariants.s": ("s", ["thermo.riemann_invariants"]),
    "geometry.profile_eval_nodes": ("count", ["geometry.profile_eval_nodes"]),
    "schedule.certify.s": ("s", ["schedule.certify"]),
    "harness.single_run.s": ("s", ["harness.single_run"]),
    "harness.single_run.finest_s": ("s", ["harness.single_run"]),
    "harness.sweep_post_s": ("s", ["harness.sweep", "harness.single_run"]),
    "harness.lp_distance.s": ("s", ["harness.lp_distance"]),
    "cli.output_s": ("s", ["cli.output"]),
    "cli.output_bytes": ("B", ["cli.output"]),
    "trace.uncovered_s": ("s", []),
    "trace.coverage": ("1", []),
}


def _durations(tracer: Tracer) -> tuple[list, list]:
    """Per span: its duration and the summed duration of its children."""
    n = len(tracer.names)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += dur[i]
    return dur, child


def self_time_table(tracer: Tracer) -> dict:
    """Calls, total time and self time per span name."""
    dur, child = _durations(tracer)
    table: dict[str, dict] = {}
    for i, name in enumerate(tracer.names):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - child[i]
    return table


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one pass; absent metrics map to None."""
    n = len(tracer.names)
    dur, _ = _durations(tracer)
    table = self_time_table(tracer)

    def stat(name, key):
        return table.get(name, {}).get(key, 0)

    def parent_name(i):
        p = tracer.parent[i]
        return tracer.names[p] if p >= 0 else None

    explicit = [i for i in range(n) if tracer.names[i] == "solver.explicit"
                and parent_name(i) == "solver.step"]
    runs = [i for i in range(n) if tracer.names[i] == "harness.single_run"]
    finest = min(runs, key=lambda i: tracer.attr.get(i, float("inf")),
                 default=None)
    sweep_post = sum(dur[i] - sum(dur[j] for j in runs if tracer.parent[j] == i)
                     for i in range(n) if tracer.names[i] == "harness.sweep")
    roots = sum(dur[i] for i in range(n) if tracer.parent[i] < 0)
    c = tracer.counts
    steps, step_s = stat("solver.step", "calls"), stat("solver.step", "total_s")
    nodes = c["solver.step.work"]
    states = c["entropy.moments.work"]
    values = {
        "solver.step.calls": steps,
        "solver.step.s": step_s,
        "solver.step.us_per_call": 1e6 * step_s / steps if steps else 0.0,
        "solver.step.ns_per_node": 1e9 * step_s / nodes if nodes else 0.0,
        "solver.explicit.calls": len(explicit),
        "solver.explicit.s": sum(dur[i] for i in explicit),
        "solver.implicit.s": stat("solver.step", "self_s"),
        "solver.tridiag.calls": c["solver.tridiag.calls"],
        "solver.wave_speed.calls": stat("solver.wave_speed", "calls"),
        "solver.wave_speed.s": stat("solver.wave_speed", "total_s"),
        "solver.context_builds": stat("solver.context", "calls"),
        "solver.grid_node_steps": nodes,
        "diagnostics.sample.calls": stat("diagnostics.sample", "calls"),
        "diagnostics.sample.self_s": stat("diagnostics.sample", "self_s"),
        "entropy.moments.calls": stat("entropy.moments", "calls"),
        "entropy.moments.s": stat("entropy.moments", "total_s"),
        "entropy.moments.states": states,
        "entropy.moments.ns_per_state":
            1e9 * stat("entropy.moments", "total_s") / states if states else 0.0,
        "geometry.profile_eval_nodes": c["geometry.profile_eval_nodes"],
        "harness.single_run.s": stat("harness.single_run", "total_s"),
        "harness.single_run.finest_s": dur[finest] if finest is not None else 0.0,
        "harness.sweep_post_s": sweep_post,
        "cli.output_s": stat("cli.output", "total_s"),
        "cli.output_bytes": c["cli.output_bytes"],
        "trace.uncovered_s": wall_s - roots,
        "trace.coverage": roots / wall_s if wall_s > 0 else 0.0,
    }
    # the remaining "<span>.s" metrics are the span's total duration
    for metric in LAYER_METRICS:
        if metric not in values and metric.endswith(".s"):
            values[metric] = stat(metric[:-2], "total_s")
    out = {}
    for metric, (_, needs) in LAYER_METRICS.items():
        missing = any(name in tracer.absent for name in needs)
        out[metric] = None if missing else float(values[metric])
    return out
