"""Scenario files, named presets, and the experiment pipelines behind the CLI.

A scenario is a JSON object; `resolve` validates it into a frozen Scenario
and reports violations with the dotted path of the offending field.
A scenario may start from a named preset and override individual fields.

Every table written by `run` carries the scenario content hash and the seed,
and CSV output is byte-identical across re-runs; wall-clock timestamps only
appear in JSON metadata.  JSON summaries are one line with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .components import (
    CIRCULATOR_ARM, COUPLER, FIBER_SEGMENT, FPC, POCKELS_CELL, RETROREFLECTOR,
    VALID_KINDS, ComponentSpec,
)
from .counting import DecayScan, MalusScan, TomographyScan, record_seeds, run_scans, write_table
from .counting import run_scan  # noqa: F401  bench/tracer.py requires this binding
from .engine import (ExitEvent, MemoryConfig, TransmissionParams, derive_transmission_params,
                     efficiency, simulate_sweep)
from .engine import simulate_storage  # noqa: F401  bench/tracer.py requires this binding
from .errors import NoSignalError, SchemaError
from .fitting import ATTENUATION_DB_PER_KM, fit_decay, fit_malus, project_budget, route_inventory
from .polarization import _NORM_TOL, _PSD_TOL, A, D, H, L, PureState, R, V, design_row, make_pure
from .polarization import fidelity  # noqa: F401  bench/tracer.py requires this binding
from .tomography import (MeasurementSet, counts_from_dataset, exact_mle_fidelities,
                         reconstruct_with_uncertainty)
from .tomography import mle_reconstruct  # noqa: F401  bench/tracer.py requires this binding

STATE_NAMES = {"H": H, "V": V, "D": D, "A": A, "R": R, "L": L}

_SOURCE_KEYS = {"pair_rate", "detection_eff", "acquisition_s"}
# error knob -> (zone, component kind, field): a lumped-params device gets the
# knob on that zone's component; an inventory sets the field on its own part
_KNOBS = {
    "pc_rotation_error": ("switch_zone", POCKELS_CELL, "rotation_error"),
    "fpc_rotation_error": ("delay_zone", FPC, "rotation_error"),
    "delay_static_phase": ("delay_zone", FIBER_SEGMENT, "static_phase"),
    "circulator_arm_phase": ("circulator_zone", CIRCULATOR_ARM, "static_phase"),
}
_MEMORY_KEYS = {
    "delta_tau", "pass_through_time", "pc_rise_time", "herald_latency",
    "delay_line_compensation", "coincidence_window", "x_dl_enabled",
    "params", "inventory", "wavelength_nm", *_KNOBS,
}
_TOP_KEYS = {
    "preset", "label", "seed", "n_values", "input_states", "malus_points",
    "malus_angles_deg", "malus_cycles", "tomo_cycles", "mc_samples",
    "source", "memory",
}
_COMPONENT_KEYS = {"kind", "transmission", "rotation_error", "static_phase",
                   "length_m", "atten_db_per_km"}

PRESETS: dict[str, dict] = {
    # short storage line: measured per-segment transmissions, 36.5 ns cycle
    "paper-short": {
        "label": "paper-short",
        "memory": {
            "delta_tau": 36.5,
            "params": {"g13": 0.541, "g12": 0.419, "g22": 0.50, "g23": 0.662},
        },
    },
    # long storage line: same device with the 0.526 us delay spool
    "paper-long": {
        "label": "paper-long",
        "memory": {
            "delta_tau": 526.0,
            "params": {"g13": 0.541, "g12": 0.398, "g22": 0.44, "g23": 0.662},
        },
    },
    # upgraded-component inventory: free-space couplers, low-loss switch,
    # spliced fiber joints, short storage span at 780 nm
    "paper-improved": {
        "label": "paper-improved",
        "memory": {
            "delta_tau": 36.5,
            "wavelength_nm": 780.0,
            "inventory": [
                {"kind": COUPLER, "transmission": 0.96},
                {"kind": COUPLER, "transmission": 0.96},
                {"kind": COUPLER, "transmission": 0.96},
                {"kind": CIRCULATOR_ARM, "transmission": 0.98},
                {"kind": POCKELS_CELL, "transmission": 0.99},
                {"kind": FIBER_SEGMENT, "length_m": 0.5},
                {"kind": RETROREFLECTOR, "transmission": 0.98},
                {"kind": FPC},
            ],
        },
    },
}


@dataclass(frozen=True)
class Scenario:
    label: str
    config: MemoryConfig
    input_states: tuple[tuple[str, PureState], ...]
    n_values: tuple[int, ...]
    malus_angles: tuple[float, ...]
    malus_cycles: int
    tomo_cycles: int
    pair_rate: float
    detection_eff: float
    acquisition_s: float
    seed: int
    mc_samples: int
    wavelength_nm: float | None
    digest: str  # SHA-256 of the canonical JSON of the merged definition without its seed

    def content_hash(self) -> str:
        """Hash of the resolved definition, seed excluded."""
        return self.digest


def _fail(msg: str, path: str):
    raise SchemaError(msg, field=path)


def _check_keys(d: dict, allowed: set, path: str):
    if not isinstance(d, dict):
        _fail("expected an object", path)
    for key in d:
        if key not in allowed:
            _fail(f"unknown key {key!r}", f"{path}.{key}" if path else key)


_MISSING = object()  # marks a required field that is absent
_MAX_MEAN_COUNTS = 1e18  # numpy's Poisson sampler takes means up to about 9.2e18
# What one valid scenario may cost, at the paper's scale: a few tens of cycles
# and 10**4 Monte Carlo draws.  At 10**5 passages every preset has decayed to 0.
_MAX_CYCLES = 10 ** 5
_MAX_N_VALUES = 10 ** 3
_MAX_MC_SAMPLES = 10 ** 6
_MAX_MALUS_POINTS = 10 ** 4
_MAX_FIG4_FRINGE = 10 ** 5  # n_values entries x analyzer angles in one fig4 run
_MAX_INPUT_STATES = 6  # the paper's six cardinal states


def _number(v, path: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A JSON number, not a bool, finite as a float and inside [lo, hi]."""
    if v is _MISSING:
        _fail("missing required field", path)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail("expected a number", path)
    x = float(v) if abs(v) <= sys.float_info.max else math.inf  # float(10**400) raises
    if not math.isfinite(x):
        _fail("expected a finite number", path)
    if not lo <= x <= hi:
        _fail(f"expected a number in [{lo:g}, {hi:g}]", path)
    return x


def _string(v, path: str) -> str:
    """A JSON string."""
    if v is _MISSING:
        _fail("missing required field", path)
    if not isinstance(v, str):
        _fail("expected a string", path)
    return v


def _integer(v, path: str, *, hi: float, lo: int = 0) -> int:
    """A JSON integer, not a bool, inside [lo, hi]."""
    if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
        _fail(f"expected an integer in [{lo}, {hi}]", path)
    return v


def _component(d: dict, path: str) -> ComponentSpec:
    _check_keys(d, _COMPONENT_KEYS, path)
    if not isinstance(d.get("kind"), str) or d["kind"] not in VALID_KINDS:
        _fail(f"expected a component kind, one of {sorted(VALID_KINDS)}", f"{path}.kind")
    t = d.get("transmission", 1.0)
    t = t if isinstance(t, list) else [t, t]
    if len(t) != 2:
        _fail("expected a number or a list of two numbers", f"{path}.transmission")
    return ComponentSpec(
        d["kind"], tuple(_number(x, f"{path}.transmission") for x in t),
        **{key: _number(d.get(key, 0.0), f"{path}.{key}")
           for key in ("rotation_error", "static_phase", "length_m", "atten_db_per_km")})


def _parse_state(entry, path: str) -> tuple[str, PureState]:
    if isinstance(entry, str):
        if entry not in STATE_NAMES:
            _fail(f"unknown state name {entry!r}; known: {sorted(STATE_NAMES)}", path)
        return entry, STATE_NAMES[entry]
    if not isinstance(entry, dict):
        _fail("expected a state name or object", path)
    _check_keys(entry, {"label", "alpha", "beta"}, path)
    label = _string(entry.get("label", _MISSING), f"{path}.label")
    amplitudes = []
    for key in ("alpha", "beta"):
        pair = entry.get(key)
        if not isinstance(pair, list) or len(pair) != 2:
            _fail("expected [re, im]", f"{path}.{key}")
        amplitudes.append(complex(*(_number(x, f"{path}.{key}") for x in pair)))
    return label, make_pure(*amplitudes)


def _build_config(mem: dict) -> tuple[MemoryConfig, float | None]:
    _check_keys(mem, _MEMORY_KEYS, "memory")
    if "params" in mem and "inventory" in mem:
        _fail("params and inventory are mutually exclusive", "memory")
    delta_tau = _number(mem.get("delta_tau", _MISSING), "memory.delta_tau")

    timing = {key: _number(mem[key], f"memory.{key}") for key in (
        "pass_through_time", "pc_rise_time", "herald_latency", "delay_line_compensation",
        "coincidence_window") if key in mem}
    if "x_dl_enabled" in mem:
        if not isinstance(mem["x_dl_enabled"], bool):
            _fail("expected a boolean", "memory.x_dl_enabled")
        timing["x_dl_enabled"] = mem["x_dl_enabled"]

    if "inventory" in mem:
        if not isinstance(mem["inventory"], list) or not mem["inventory"]:
            _fail("expected a non-empty list", "memory.inventory")
        for knob in _KNOBS:
            if knob in mem:
                _fail("set rotation_error/static_phase on the inventory "
                      "component instead", f"memory.{knob}")
        parts = [_component(c, f"memory.inventory[{i}]")
                 for i, c in enumerate(mem["inventory"])]
        cfg = replace(route_inventory(parts, delta_tau), **timing)
    else:
        if "params" in mem:
            p = mem["params"]
            _check_keys(p, {"g13", "g12", "g22", "g23"}, "memory.params")
            params = TransmissionParams(*(_number(p.get(g, _MISSING), f"memory.params.{g}")
                                          for g in ("g13", "g12", "g22", "g23")))
            cfg = MemoryConfig.from_params(params, delta_tau=delta_tau, **timing)
        else:
            cfg = MemoryConfig(delta_tau=delta_tau, **timing)
        for knob, (zone, kind, attr) in _KNOBS.items():
            if knob in mem:
                v = _number(mem[knob], f"memory.{knob}")
                parts = tuple(replace(c, **{attr: v}) if c.kind == kind else c
                              for c in getattr(cfg, zone))
                cfg = replace(cfg, **{zone: parts})

    if mem.get("wavelength_nm") is None:
        return cfg, None
    wavelength = _number(mem["wavelength_nm"], "memory.wavelength_nm")
    if wavelength not in ATTENUATION_DB_PER_KM:
        _fail(f"no attenuation default at {wavelength} nm; "
              f"known: {sorted(ATTENUATION_DB_PER_KM)}", "memory.wavelength_nm")
    return cfg, wavelength


def _build(raw: dict, digest: str) -> Scenario:
    _check_keys(raw, _TOP_KEYS, "")
    if "memory" not in raw:
        _fail("missing required field", "memory")
    cfg, wavelength = _build_config(raw["memory"])

    label = _string(raw.get("label", "scenario"), "label")
    seed = _integer(raw.get("seed", 0), "seed", hi=math.inf)

    n_values = raw.get("n_values", list(range(1, 9)))
    if not isinstance(n_values, list) or not 1 <= len(n_values) <= _MAX_N_VALUES:
        _fail(f"expected a list of 1 to {_MAX_N_VALUES} integers >= 0", "n_values")
    n_values = tuple(_integer(n, f"n_values[{i}]", hi=_MAX_CYCLES)
                     for i, n in enumerate(n_values))

    states = raw.get("input_states", ["H", "D", "R"])
    if not isinstance(states, list) or not 1 <= len(states) <= _MAX_INPUT_STATES:
        _fail(f"expected a list of 1 to {_MAX_INPUT_STATES} states", "input_states")
    input_states = tuple(_parse_state(s, f"input_states[{i}]")
                         for i, s in enumerate(states))
    names = [name for name, _ in input_states]
    for i, name in enumerate(names):
        if name in names[:i]:  # every pipeline keys its results by state label
            path = f"input_states[{i}]"
            _fail(f"repeated state label {name!r}",
                  path if isinstance(states[i], str) else f"{path}.label")

    if "malus_angles_deg" in raw:
        if "malus_points" in raw:
            _fail("malus_points and malus_angles_deg are mutually exclusive", "malus_points")
        degs = raw["malus_angles_deg"]
        if not isinstance(degs, list) or len(degs) > _MAX_MALUS_POINTS:
            _fail(f"expected a list of at most {_MAX_MALUS_POINTS} angles", "malus_angles_deg")
        angles = tuple(math.radians(_number(a, f"malus_angles_deg[{i}]"))
                       for i, a in enumerate(degs))
        if len(set(angles)) < 5 or max(angles) - min(angles) < math.pi - 1e-9:
            _fail("expected at least 5 distinct angles spanning 180 degrees", "malus_angles_deg")
    else:
        points = _integer(raw.get("malus_points", 13), "malus_points", lo=5,
                          hi=_MAX_MALUS_POINTS)
        angles = tuple(np.linspace(0.0, math.pi, points))

    malus_cycles = _integer(raw.get("malus_cycles", 1), "malus_cycles", hi=_MAX_CYCLES)
    tomo_cycles = _integer(raw.get("tomo_cycles", 1), "tomo_cycles", hi=_MAX_CYCLES)
    mc_samples = _integer(raw.get("mc_samples", 10000), "mc_samples", lo=2,
                          hi=_MAX_MC_SAMPLES)

    source = raw.get("source", {})
    _check_keys(source, _SOURCE_KEYS, "source")
    pair_rate = _number(source.get("pair_rate", 2000.0), "source.pair_rate", lo=0.0)
    detection_eff = _number(source.get("detection_eff", 1.0), "source.detection_eff",
                            lo=0.0, hi=1.0)
    acquisition_s = _number(source.get("acquisition_s", 60.0), "source.acquisition_s", lo=0.0)
    if pair_rate * acquisition_s > _MAX_MEAN_COUNTS:
        _fail(f"pair_rate x acquisition_s exceeds {_MAX_MEAN_COUNTS:g} pairs",
              "source.pair_rate")

    return Scenario(label, cfg, input_states, n_values, angles,
                    malus_cycles, tomo_cycles, pair_rate, detection_eff,
                    acquisition_s, seed, mc_samples, wavelength, digest)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if key == "preset":
            continue
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


# canonical seedless JSON text -> (its Scenario, the text parsed); filled by successful builds
_BUILT: dict[str, tuple[Scenario, dict]] = {}
_BUILT_MAX = 64


def resolve(raw: dict) -> Scenario:
    """Expand a preset reference, merge overrides, and validate.

    Each distinct scenario without its seed is built once per process; a
    repeat with any seed reuses that build.
    """
    if not isinstance(raw, dict):
        raise SchemaError("scenario must be a JSON object", field="")
    if "preset" in raw:
        name = raw["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            _fail(f"unknown preset {name!r}; known: {sorted(PRESETS)}", "preset")
        raw = _deep_merge(PRESETS[name], raw)
    blob = {k: v for k, v in raw.items() if k != "seed"}
    try:
        text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError, RecursionError):
        _build(raw, "")  # validation names the field that JSON cannot hold, if it reads it
        raise
    hit = _BUILT.get(text)
    if hit is not None and hit[1] == blob:  # a tuple or a non-string key dumps as its JSON twin
        return replace(hit[0], seed=_integer(raw.get("seed", 0), "seed", hi=math.inf))
    sc = _build(raw, hashlib.sha256(text.encode()).hexdigest())
    if len(_BUILT) >= _BUILT_MAX:  # a full cache starts over
        _BUILT.clear()
    _BUILT[text] = sc, json.loads(text)
    return sc


def preset_scenario(name: str) -> Scenario:
    return resolve({"preset": name})


def read_scenario(path: str | os.PathLike) -> dict:
    """The JSON object of a scenario file, unresolved."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}", field="(file)") from exc
        except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
            raise SchemaError(f"unreadable JSON: {exc}", field="(file)") from exc
    if not isinstance(raw, dict):
        _fail("scenario must be a JSON object", "(file)")
    return raw


# ---------------------------------------------------------------------------
# pipelines

class _Emitter:
    """Deterministic file writer; stamps hash+seed, isolates timestamps."""

    def __init__(self, scenario: Scenario, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        content_hash = scenario.content_hash()
        self.stamp = f"scenario={content_hash} seed={scenario.seed}"
        self.metadata = {"scenario_hash": content_hash, "seed": scenario.seed,
                         "label": scenario.label}
        os.makedirs(out_dir, exist_ok=True)

    def _emit(self, name: str, write) -> str:
        """Fill `<name>.tmp` with `write(fh)`, then rename it; a failed write leaves no `.tmp`."""
        path = os.path.join(self.out_dir, name)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                write(fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # absent once renamed, or if it could not be opened
                os.remove(tmp)
        self.written.append(path)
        return path

    def csv(self, name: str, columns: tuple[str, ...], rows) -> str:
        return self._emit(name, lambda fh: write_table(fh, self.stamp, columns, rows))

    def json(self, name: str, payload: dict) -> str:
        obj = {"metadata": dict(self.metadata,
                                generated_at=datetime.now(timezone.utc).isoformat())}
        obj.update(payload)
        text = json.dumps(obj, sort_keys=True) + "\n"  # one line: the C encoder
        return self._emit(name, lambda fh: fh.write(text))


def _fit_payload(fit) -> dict:
    return {"visibility": fit.visibility, "sigma_visibility": fit.sigma_visibility,
            "theta0_rad": fit.theta0, "amplitude": fit.amplitude, "clamped": fit.clamped}


_FRINGE_STATES = (("H", H), ("D", D))


def _datasets(sc: Scenario, jobs) -> list:
    """Simulate and sample (state, plan, seed) jobs in one batch with the scenario source."""
    return run_scans(sc.config, jobs, pair_rate=sc.pair_rate,
                     detection_eff=sc.detection_eff, acquisition_s=sc.acquisition_s)


def _count_rows(label: str, ds) -> list[tuple]:
    """(label, setting, counts, acquisition_s, seed) rows; projectors by name."""
    settings = ds.setting_labels if ds.kind == "tomography" else ds.setting_values
    return [(label, setting, k, ds.acquisition_s, sub)
            for setting, k, sub in zip(settings, ds.record_counts, ds.sub_seeds)]


def _malus_jobs(sc: Scenario, states, n_cycles: int, seeds: Iterator[int]) -> list[tuple]:
    """One analyzer scan job per state, each with the next sub-seed."""
    plan = MalusScan(sc.malus_angles, n_cycles)
    return [(state, plan, next(seeds)) for _, state in states]


def _malus_fits(states, datasets) -> tuple[list[tuple], dict]:
    """Fringe fits of all states in one stack: (count rows, fit payload per label)."""
    fits = fit_malus(datasets[0].values(), [ds.counts() for ds in datasets])
    rows = [row for (label, _), ds in zip(states, datasets) for row in _count_rows(label, ds)]
    return rows, {label: _fit_payload(fit) for (label, _), fit in zip(states, fits)}


def _tomography_jobs(sc: Scenario, states, seeds: Iterator[int]) -> tuple[list, list[int]]:
    """Projector scan jobs at tomo_cycles; each scan's Monte Carlo seed follows its own."""
    jobs, mc_seeds = [], []
    for _, state in states:
        jobs.append((state, TomographyScan(sc.tomo_cycles), next(seeds)))
        mc_seeds.append(next(seeds))
    return jobs, mc_seeds


_RECORD_KEYS = ("fidelity", "flux", "converged", "mc_mean", "mc_std", "n_samples", "n_failed")


def _reconstructions(sc: Scenario, states, datasets, mc_seeds) -> tuple[list[tuple], dict]:
    """MLE with Monte Carlo error bars per projector scan: (count rows, record per label).

    A record holds `_RECORD_KEYS` and `rho`, the matrix as row-major (re, im) pairs.
    """
    mset = MeasurementSet()
    rows: list[tuple] = []
    records = {}
    for (label, state), ds, mc_seed in zip(states, datasets, mc_seeds):
        res = reconstruct_with_uncertainty(counts_from_dataset(ds, mset), mset, state,
                                           n_samples=sc.mc_samples, seed=mc_seed)
        rows += _count_rows(label, ds)
        records[label] = {key: getattr(res, key) for key in _RECORD_KEYS}
        records[label]["rho"] = [x for z in res.rho.matrix.ravel().tolist()
                                 for x in (z.real, z.imag)]
    return rows, records


def run(scenario: Scenario, subcommand: str, out_dir: str,
        figure: str | None = None) -> tuple[dict, list[str]]:
    """Execute one pipeline; returns (summary, written file paths)."""
    if subcommand not in PIPELINES:
        raise SchemaError(f"unknown subcommand {subcommand!r}", field="subcommand")
    handler = PIPELINES[subcommand][1]
    if subcommand == "reproduce":
        if figure not in FIGURES:
            raise SchemaError(f"unknown figure {figure!r}; known: {sorted(FIGURES)}",
                              field="reproduce")
        handler = FIGURES[figure]
    emitter = _Emitter(scenario, out_dir)
    return handler(scenario, emitter), emitter.written


def _exit_fidelity(ev: ExitEvent, row: tuple[float, ...]) -> float | None:
    """Conditional fidelity of an exit to the input state whose design_row is `row`.

    The counting._rates kernel on the exit's (HH, VV, Re HV, Im HV), divided
    by its weight HH + VV; None where fidelity(ev.state, ...) raises: weight
    below the conditioning floor, or trace above 1 beyond tolerance.
    """
    hh, hv, vv = ev.rho
    w = hh + vv
    if not _NORM_TOL <= w <= 1.0 + _PSD_TOL:
        return None
    q = row[0] * hh + row[1] * vv
    q += row[2] * hv.real
    q += row[3] * hv.imag
    return q / w


def _run_simulate(sc: Scenario, emitter: _Emitter) -> dict:
    summary: dict = {}
    n_values = tuple(dict.fromkeys(sc.n_values))  # outcomes are deterministic: each N once

    def rows():  # streamed one sweep at a time; its N share the prefix's ExitEvent objects
        for label, state in sc.input_states:
            row = design_row(state)
            for n, out in zip(n_values, simulate_sweep(sc.config, state, n_values)):
                f_retrieved = _exit_fidelity(out.retrieved, row)
                yield label, n, "retrieved", out.retrieved.time, out.retrieved.weight, f_retrieved
                for ev in out.exits:
                    yield label, n, "exit", ev.time, ev.weight, _exit_fidelity(ev, row)
                for t, w in out.ejections:
                    yield label, n, "ejected", t, w, None
                if out.tail is not None:
                    yield (label, n, "tail-exit", out.tail.time, out.tail.weight,
                           _exit_fidelity(out.tail, row))
                    if out.tail_ejected > 0:
                        yield label, n, "tail-ejected", out.tail.time, out.tail_ejected, None
                yield label, n, "absorbed", None, out.absorbed, None
                summary[f"{label}/N={n}"] = {
                    "retrieved_weight": out.retrieved.weight,
                    "fidelity": f_retrieved,
                    "weight_balance": out.balance,
                }

    emitter.csv("simulate_events.csv",
                ("input_state", "n_cycles", "event", "time_ns", "weight", "fidelity"),
                rows())
    emitter.json("simulate.json", {"outcomes": summary})
    return {"outcomes": len(summary)}


def _run_decay(sc: Scenario, emitter: _Emitter) -> dict:
    n_values = tuple(n for n in sc.n_values if n >= 1)
    if len(n_values) < 3:
        raise SchemaError("decay needs at least 3 values of n >= 1", field="n_values")
    scan = DecayScan(n_values)
    seeds = record_seeds(sc.seed, len(sc.input_states))
    datasets = _datasets(sc, [(state, scan, seed)
                              for (_, state), seed in zip(sc.input_states, seeds)])
    rows = [row for (label, _), ds in zip(sc.input_states, datasets)
            for row in _count_rows(label, ds)]
    fits = {label: asdict(fit) for (label, _), fit in
            zip(sc.input_states, fit_decay(n_values, [ds.counts() for ds in datasets]))}
    emitter.csv("decay_counts.csv",
                ("input_state", "n_cycles", "counts", "acquisition_s", "seed"), rows)

    params = derive_transmission_params(sc.config)
    eta = {str(n): efficiency(params, n) for n in range(0, max(n_values) + 1)}
    emitter.json("decay.json", {"fits": fits, "eta_closed_form": eta})
    return {"fits": fits}


def _run_malus(sc: Scenario, emitter: _Emitter) -> dict:
    seeds = iter(record_seeds(sc.seed, len(sc.input_states)))
    jobs = _malus_jobs(sc, sc.input_states, sc.malus_cycles, seeds)
    rows, fits = _malus_fits(sc.input_states, _datasets(sc, jobs))
    emitter.csv("malus_counts.csv",
                ("input_state", "angle_rad", "counts", "acquisition_s", "seed"), rows)
    emitter.json("malus.json", {"fits": fits, "n_cycles": sc.malus_cycles})
    return {"fits": fits}


def _run_tomo(sc: Scenario, emitter: _Emitter) -> dict:
    seeds = iter(record_seeds(sc.seed, 2 * len(sc.input_states)))  # scan and Monte Carlo
    jobs, mc_seeds = _tomography_jobs(sc, sc.input_states, seeds)
    rows, recon = _reconstructions(sc, sc.input_states, _datasets(sc, jobs), mc_seeds)
    emitter.csv("tomo_counts.csv",
                ("input_state", "setting", "counts", "acquisition_s", "seed"), rows)
    emitter.json("tomo.json", {"reconstructions": recon, "n_cycles": sc.tomo_cycles})
    return {"reconstructions": {k: v["fidelity"] for k, v in recon.items()}}


def _run_budget(sc: Scenario, emitter: _Emitter) -> dict:
    n_max = max(max(sc.n_values), 8)
    report = project_budget(sc.config, wavelength_nm=sc.wavelength_nm, n_max=n_max)
    emitter.csv("budget_eta.csv", ("n_cycles", "eta"), enumerate(report.eta_table))
    payload = asdict(replace(report, eta_table=()))  # the table is the CSV
    del payload["eta_table"]
    emitter.json("budget.json", payload)
    return payload


def _run_fig2c(sc: Scenario, emitter: _Emitter) -> dict:
    """Efficiency-vs-cycles bundle: closed-form table plus a sampled decay fit."""
    label, state = sc.input_states[0]
    n_values = tuple(range(1, 9))
    params = derive_transmission_params(sc.config)
    [seed] = record_seeds(sc.seed, 1)
    [ds] = _datasets(sc, [(state, DecayScan(n_values), seed)])
    fit = fit_decay(ds.values(), ds.counts())
    scale = sc.pair_rate * sc.detection_eff * sc.acquisition_s
    rows = [(n, efficiency(params, n), efficiency(params, n) * scale, k)
            for n, k in zip(n_values, ds.record_counts)]
    emitter.csv("fig2c.csv", ("n_cycles", "eta", "counts_mean", "counts_sampled"), rows)
    payload = {
        "input_state": label,
        "gamma_fit": fit.gamma_per_cycle, "gamma_sigma": fit.sigma_gamma,
        "prefactor": fit.prefactor,
        "eta_pass_through": efficiency(params, 0),
        "params": asdict(params),
    }
    emitter.json("fig2c.json", payload)
    return payload


def _run_fig3(sc: Scenario, emitter: _Emitter) -> dict:
    """Fringe + tomography bundle at one cycle count."""
    seeds = iter(record_seeds(sc.seed, len(_FRINGE_STATES) + 2))  # fringes, R and its errors
    jobs = _malus_jobs(sc, _FRINGE_STATES, sc.malus_cycles, seeds)
    tomo_states = (("R", R),)
    tomo_jobs, mc_seeds = _tomography_jobs(sc, tomo_states, seeds)
    *datasets, tomo_ds = _datasets(sc, jobs + tomo_jobs)
    mrows, fits = _malus_fits(_FRINGE_STATES, datasets)
    emitter.csv("fig3_malus.csv",
                ("input_state", "angle_rad", "counts", "acquisition_s", "seed"), mrows)
    rows, recon = _reconstructions(sc, tomo_states, [tomo_ds], mc_seeds)
    emitter.csv("fig3_tomo.csv", ("setting", "counts", "acquisition_s", "seed"),
                [row[1:] for row in rows])
    payload = {
        "visibility_h": fits["H"], "visibility_d": fits["D"], "tomo_r": recon["R"],
        "n_cycles": {"malus": sc.malus_cycles, "tomo": sc.tomo_cycles},
    }
    emitter.json("fig3.json", payload)
    return payload


# one fig4.json per_n entry, in fig4.csv's column order after n and the storage time
_FIG4_COLUMNS = ("visibility_h", "sigma_vh", "visibility_d", "sigma_vd",
                 "fidelity_h", "fidelity_d", "fidelity_r")


def _run_fig4(sc: Scenario, emitter: _Emitter) -> dict:
    """Output-quality-vs-storage-time bundle: visibilities and fidelities per n.

    Each distinct n, in first-seen order, draws its fringe scans, then its
    H, D and R tomography scans, from the next sub-seeds; every scan is
    simulated and sampled in one batch, and every fringe is fitted in one
    stack.  The fidelities are exact maximum-likelihood point estimates,
    solved for every n and state in one `exact_mle_fidelities` batch after
    the scans; a tomography without a solution raises `NoSignalError`.  The
    Monte Carlo error bars are left to the dedicated tomo pipeline to keep
    this sweep fast.
    """
    if len(sc.n_values) * len(sc.malus_angles) > _MAX_FIG4_FRINGE:
        _fail(f"fig4 takes at most {_MAX_FIG4_FRINGE} fringe settings, not "
              f"{len(sc.n_values)} cycle counts x {len(sc.malus_angles)} angles", "n_values")
    n_values = tuple(dict.fromkeys(sc.n_values))
    mset = MeasurementSet()
    states = (("H", H), ("D", D), ("R", R))
    per_n = len(_FRINGE_STATES) + len(states)
    seeds = iter(record_seeds(sc.seed, per_n * len(n_values)))
    jobs = []
    for n in n_values:
        jobs += _malus_jobs(sc, _FRINGE_STATES, n, seeds)
        jobs += [(state, TomographyScan(n), next(seeds)) for _, state in states]
    datasets = _datasets(sc, jobs)
    by_n = [datasets[i:i + per_n] for i in range(0, len(datasets), per_n)]
    fringes = [ds for scans in by_n for ds in scans[:len(_FRINGE_STATES)]]
    fits = fit_malus(fringes[0].values(), [ds.counts() for ds in fringes])
    counts = [counts_from_dataset(ds, mset)
              for scans in by_n for ds in scans[len(_FRINGE_STATES):]]
    fids, failed = exact_mle_fidelities(counts, mset, [s for _, s in states] * len(n_values))
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise NoSignalError(f"fig4 tomography of {states[i % 3][0]} at "
                            f"N={n_values[i // 3]} has no maximum-likelihood estimate")
    per_n = {str(n): dict(zip(_FIG4_COLUMNS, (h.visibility, h.sigma_visibility,
                                              d.visibility, d.sigma_visibility, *fid)))
             for n, h, d, fid in zip(n_values, fits[0::2], fits[1::2],
                                     fids.reshape(-1, 3).tolist())}
    emitter.csv("fig4.csv", ("n_cycles", "storage_time_ns", *_FIG4_COLUMNS),
                [(n, n * sc.config.delta_tau, *(entry[c] for c in _FIG4_COLUMNS))
                 for n, entry in zip(n_values, per_n.values())])
    emitter.json("fig4.json", {"per_n": per_n})
    return {"per_n": per_n}


# subcommand -> (help line, handler); reproduce runs the FIGURES entry it names
PIPELINES = {
    "simulate": ("storage event tables for each input state and cycle count", _run_simulate),
    "decay": ("cycle-count scan, per-cycle survival fit, closed-form table", _run_decay),
    "malus": ("analyzer fringe scan and visibility fit per input state", _run_malus),
    "tomo": ("projective counts, state reconstruction, Monte Carlo errors", _run_tomo),
    "budget": ("loss budget: per-cycle efficiency, lifetime, eta table", _run_budget),
    "reproduce": ("bundled pipelines emitting plot-ready tables", None),
}
FIGURES = {"fig2c": _run_fig2c, "fig3": _run_fig3, "fig4": _run_fig4}
