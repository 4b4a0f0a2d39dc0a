"""Per-layer tracing of loopmem from outside the package.

The tracer replaces each traced function at every name a loopmem module
binds it to (``simulate_storage`` is bound in ``loopmem.engine``,
``loopmem.scenario`` and ``loopmem.counting``, and calls go through the
caller's binding), plus a few methods on their classes.  Each call becomes a
span: name, parent span, start, end, kept in flat arrays in memory and
written out once at the end.  A span's self time is its duration minus the
durations of its direct children.

It refuses to run when a traced name is missing, or when a caller listed
below no longer binds it, so that a rename cannot make a layer read as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, defining module, attribute path, modules that must bind it)
SPANS = (
    ("scenario.resolve", "loopmem.scenario", "resolve", ("loopmem.scenario",)),
    ("scenario.run", "loopmem.scenario", "run", ("loopmem.scenario",)),
    ("scenario.emit", "loopmem.scenario", "_Emitter.csv", ()),
    ("scenario.emit", "loopmem.scenario", "_Emitter.json", ()),
    ("engine.simulate_storage", "loopmem.engine", "simulate_storage",
     ("loopmem.scenario", "loopmem.counting")),
    ("polarization.density_matrix", "loopmem.polarization", "DensityMatrix.__post_init__", ()),
    ("polarization.fidelity", "loopmem.polarization", "fidelity",
     ("loopmem.scenario", "loopmem.tomography")),
    ("counting.run_scan", "loopmem.counting", "run_scan", ("loopmem.scenario",)),
    ("tomography.reconstruct_with_uncertainty", "loopmem.tomography",
     "reconstruct_with_uncertainty", ("loopmem.scenario",)),
    ("tomography.monte_carlo_uncertainty", "loopmem.tomography", "monte_carlo_uncertainty",
     ("loopmem.tomography",)),
    ("tomography.mle_reconstruct", "loopmem.tomography", "mle_reconstruct",
     ("loopmem.scenario", "loopmem.tomography")),
    ("tomography.minimize", "loopmem.tomography", "minimize", ("loopmem.tomography",)),
    ("fitting.fit_malus", "loopmem.fitting", "fit_malus", ("loopmem.scenario",)),
    ("fitting.fit_decay", "loopmem.fitting", "fit_decay", ("loopmem.scenario",)),
    ("fitting.project_budget", "loopmem.fitting", "project_budget", ("loopmem.scenario",)),
)
# Called once per switch passage, so only counted: a span each would cost
# more than the call.
COUNTERS = (
    ("components.pockels_level", "loopmem.components", "pockels_level", ("loopmem.engine",)),
)

MODULES = ("scenario", "engine", "polarization", "counting", "tomography", "fitting")
SIM_N_PROBES = (1, 8, 64)

# The package namespace re-exports everything and the CLI is not on the
# in-process path; neither is a caller whose bindings need wrapping.
_SKIP_MODULES = {"loopmem", "loopmem.cli"}


class TracerError(RuntimeError):
    """A traced name is missing or no longer bound where the tracer expects it."""


def _lookup(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        if not hasattr(obj, part):
            raise TracerError(f"{module}.{path} is missing; update bench/tracer.py")
        owner, obj = obj, getattr(obj, part)
    return owner, path.rsplit(".", 1)[-1], obj


def _bindings(original) -> dict[str, list[str]]:
    """Every (module, attribute) in loopmem that holds `original`."""
    found = defaultdict(list)
    for name, mod in list(sys.modules.items()):
        if name.startswith("loopmem.") and name not in _SKIP_MODULES:
            for attr, value in vars(mod).items():
                if value is original:
                    found[name].append(attr)
    return found


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _arguments(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Installs span and counter wrappers; turns the spans into layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sim_calls: list[tuple[int, int, object, object, int]] = []
        self.pass_index = 0
        self.mle_inputs: list[tuple[np.ndarray, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        try:
            for name, module, path, callers in SPANS:
                self._install(name, module, path, callers, self._span)
            for name, module, path, callers in COUNTERS:
                self._install(name, module, path, callers, self._counter)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()

    def _install(self, name, module, path, callers, make):
        owner, attr, original = _lookup(module, path)
        if "." in path:  # a method: wrap it on its class
            self._replace(owner, attr, make(name, original))
            return
        bound = _bindings(original)
        for caller in callers:
            if caller not in bound:
                raise TracerError(f"{caller} no longer binds {path}; update bench/tracer.py")
        wrapper = make(name, original)
        for mod_name, attrs in bound.items():
            for a in attrs:
                self._replace(sys.modules[mod_name], a, wrapper)

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(fn, idx, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Hooks run after the span closed; they only store references, so that
    # little of their time lands in the parent's self time.

    def _after_engine_simulate_storage(self, fn, idx, args, kwargs, outcome):
        self.counts["engine.exits"] += len(outcome.exits)
        a = _arguments(fn, args, kwargs)
        self.sim_calls.append((self.pass_index, idx, a["cfg"], a["input_state"], int(a["n"])))

    def _after_counting_run_scan(self, fn, idx, args, kwargs, ds):
        self.counts["counting.records"] += len(ds.records)

    def _after_scenario_emit(self, fn, idx, args, kwargs, path):
        self.counts["scenario.emit.bytes"] += Path(path).stat().st_size

    def _after_tomography_mle_reconstruct(self, fn, idx, args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        self.mle_inputs.append((np.array(a["counts"], dtype=float), a["mset"]))

    def _after_tomography_minimize(self, fn, idx, args, kwargs, res):
        self.counts["tomography.minimize.nit"] += res.nit

    def _after_tomography_monte_carlo_uncertainty(self, fn, idx, args, kwargs, result):
        self.counts["tomography.mc_draws"] += _arguments(fn, args, kwargs)["n_samples"]
        self.counts["tomography.mc_failed"] += result[2]

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(span name ids, durations, self times) of every span recorded."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, dur, dur - child

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, counts and times per pass, as {name: (value, unit)}."""
        from loopmem.tomography import MeasurementSet, linear_inversion
        from loopmem.errors import NoSignalError

        names, dur, self_s = self.self_times()
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        own = np.bincount(names, weights=self_s, minlength=n_names)
        incl = np.bincount(names, weights=dur, minlength=n_names)
        by = defaultdict(lambda: [0, 0.0, 0.0])  # span name -> calls, self, inclusive
        for i, name in enumerate(self.names):
            entry = by[name]
            entry[0] += int(calls[i])
            entry[1] += float(own[i])
            entry[2] += float(incl[i])

        roots = float(dur[np.frombuffer(self.parent, dtype=np.int32) < 0].sum())
        out: dict[str, tuple[float, str]] = {}

        def per_pass(key, value, unit):
            out[key] = (value / passes, unit)

        for span in ("scenario.resolve", "scenario.run", "scenario.emit", "engine.simulate_storage",
                     "polarization.density_matrix", "polarization.fidelity", "counting.run_scan",
                     "tomography.mle_reconstruct", "tomography.minimize", "fitting.fit_malus",
                     "fitting.fit_decay", "fitting.project_budget"):
            n_calls, own_s, _ = by[span]
            per_pass(f"{span}.calls", n_calls, "count/pass")
            per_pass(f"{span}.self_s", own_s, "s/pass")
        mle_calls, _, mle_incl = by["tomography.mle_reconstruct"]
        out["tomography.mle_reconstruct.s_per_call"] = (mle_incl / mle_calls if mle_calls else 0.0, "s")

        for key in ("scenario.emit.bytes", "engine.exits", "components.pockels_level.calls",
                    "counting.records", "tomography.minimize.nit", "tomography.mc_draws",
                    "tomography.mc_failed"):
            per_pass(key, self.counts[key], "B/pass" if key.endswith("bytes") else "count/pass")

        # passes repeat their inputs, so distinct inputs are counted per pass
        distinct = {(p, cfg, state, n) for p, _, cfg, state, n in self.sim_calls}
        out["engine.simulate_storage.unique_share"] = (
            len(distinct) / len(self.sim_calls) if self.sim_calls else 0.0, "ratio")
        for n_probe in SIM_N_PROBES:
            times = [dur[idx] for _, idx, _, _, n in self.sim_calls if n == n_probe]
            out[f"engine.simulate_storage.n{n_probe}.s_per_call"] = (
                float(np.median(times)) if times else 0.0, "s")

        interior = 0
        for counts, mset in self.mle_inputs:
            try:
                rho, _ = linear_inversion(counts, mset or MeasurementSet())
            except NoSignalError:
                continue
            interior += bool(np.linalg.eigvalsh(rho).min() >= 0.0)
        out["tomography.interior_share"] = (
            interior / len(self.mle_inputs) if self.mle_inputs else 0.0, "ratio")

        module_self = defaultdict(float)
        for span, (_, own_s, _) in by.items():
            module_self[span.split(".", 1)[0]] += own_s
        for module in MODULES:
            out[f"{module}.self_share"] = (module_self[module] / roots if roots else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span (name, parent index, start, end) to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))
