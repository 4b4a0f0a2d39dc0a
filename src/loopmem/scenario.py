"""Scenario files, named presets, and the experiment pipelines behind the CLI.

A scenario is a JSON object; `load_scenario` validates it into a frozen
Scenario and reports violations with the dotted path of the offending field.
A scenario may start from a named preset and override individual fields.

Every table written by `run` carries the scenario content hash and the seed,
and CSV output is byte-identical across re-runs; wall-clock timestamps only
appear in JSON metadata.
"""

from __future__ import annotations

import hashlib
import itertools
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
from .counting import DecayScan, MalusScan, TomographyScan, format_table, record_seed, run_scans
from .counting import run_scan  # noqa: F401  bench/tracer.py requires this binding
from .engine import (MemoryConfig, TransmissionParams, derive_transmission_params,
                     efficiency, simulate_storage)
from .errors import InvalidStateError, NoSignalError, SchemaError
from .fitting import ATTENUATION_DB_PER_KM, fit_decay, fit_malus, project_budget, route_inventory
from .polarization import A, D, H, L, PureState, R, V, fidelity, make_pure
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
    raw: dict

    def content_hash(self) -> str:
        """Hash of the resolved definition, seed excluded."""
        blob = {k: v for k, v in self.raw.items() if k != "seed"}
        text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _fail(msg: str, path: str):
    raise SchemaError(msg, field=path)


def _check_keys(d: dict, allowed: set, path: str):
    if not isinstance(d, dict):
        _fail("expected an object", path)
    for key in d:
        if key not in allowed:
            _fail(f"unknown key {key!r}", f"{path}.{key}" if path else key)


_MISSING = object()  # marks a required field that is absent
_COUNT_CAP = 2 ** 53  # the largest integer a float time or an array size holds exactly
_MAX_MEAN_COUNTS = 1e18  # numpy's Poisson sampler takes means up to about 9.2e18


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


def _integer(v, path: str, lo: int = 0, hi: float = _COUNT_CAP) -> int:
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


def _build(raw: dict) -> Scenario:
    _check_keys(raw, _TOP_KEYS, "")
    if "memory" not in raw:
        _fail("missing required field", "memory")
    cfg, wavelength = _build_config(raw["memory"])

    label = _string(raw.get("label", "scenario"), "label")
    seed = _integer(raw.get("seed", 0), "seed", hi=math.inf)

    n_values = raw.get("n_values", list(range(1, 9)))
    if not isinstance(n_values, list) or not n_values:
        _fail("expected a non-empty list of integers >= 0", "n_values")
    n_values = tuple(_integer(n, f"n_values[{i}]") for i, n in enumerate(n_values))

    states = raw.get("input_states", ["H", "D", "R"])
    if not isinstance(states, list) or not states:
        _fail("expected a non-empty list", "input_states")
    input_states = tuple(_parse_state(s, f"input_states[{i}]")
                         for i, s in enumerate(states))

    if "malus_angles_deg" in raw:
        degs = raw["malus_angles_deg"]
        if not isinstance(degs, list):
            _fail("expected a list of angles", "malus_angles_deg")
        angles = tuple(math.radians(_number(a, f"malus_angles_deg[{i}]"))
                       for i, a in enumerate(degs))
        if len(set(angles)) < 5 or max(angles) - min(angles) < math.pi - 1e-9:
            _fail("expected at least 5 distinct angles spanning 180 degrees", "malus_angles_deg")
    else:
        points = _integer(raw.get("malus_points", 13), "malus_points", lo=5)
        angles = tuple(np.linspace(0.0, math.pi, points))

    malus_cycles = _integer(raw.get("malus_cycles", 1), "malus_cycles")
    tomo_cycles = _integer(raw.get("tomo_cycles", 1), "tomo_cycles")
    mc_samples = _integer(raw.get("mc_samples", 10000), "mc_samples", lo=2)

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
                    acquisition_s, seed, mc_samples, wavelength, raw)


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


def resolve(raw: dict) -> Scenario:
    """Expand a preset reference, merge overrides, and validate."""
    if not isinstance(raw, dict):
        raise SchemaError("scenario must be a JSON object", field="")
    if "preset" in raw:
        name = raw["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            _fail(f"unknown preset {name!r}; known: {sorted(PRESETS)}", "preset")
        raw = _deep_merge(PRESETS[name], raw)
    return _build(raw)


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


def load_scenario(path: str | os.PathLike) -> Scenario:
    return resolve(read_scenario(path))


# ---------------------------------------------------------------------------
# pipelines

class _Emitter:
    """Deterministic file writer; stamps hash+seed, isolates timestamps."""

    def __init__(self, scenario: Scenario, out_dir: str):
        self.scenario = scenario
        self.out_dir = out_dir
        self.written: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def _emit(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
        self.written.append(path)
        return path

    def csv(self, name: str, columns: tuple[str, ...], rows) -> str:
        comment = f"scenario={self.scenario.content_hash()} seed={self.scenario.seed}"
        return self._emit(name, format_table(comment, columns, rows))

    def json(self, name: str, payload: dict) -> str:
        obj = {
            "metadata": {
                "scenario_hash": self.scenario.content_hash(),
                "seed": self.scenario.seed,
                "label": self.scenario.label,
                "generated_at": datetime.now(timezone.utc).isoformat(),
            },
        }
        obj.update(payload)
        return self._emit(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _rho_flat(rho: np.ndarray) -> list[float]:
    out: list[float] = []
    for i in range(2):
        for j in range(2):
            out.extend([float(rho[i, j].real), float(rho[i, j].imag)])
    return out


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
    by_name = ds.kind == "tomography"
    return [(label, r.setting_label if by_name else r.setting_value,
             r.counts, r.acquisition_s, r.seed) for r in ds.records]


def _malus_jobs(sc: Scenario, states, n_cycles: int, seeds: Iterator[int]) -> list[tuple]:
    """One analyzer scan job per state, each with the next sub-seed."""
    plan = MalusScan(sc.malus_angles, n_cycles)
    return [(state, plan, next(seeds)) for _, state in states]


def _malus_fits(states, datasets) -> tuple[list[tuple], dict]:
    """Fringe fit per state: (count rows, fit payload per label)."""
    rows: list[tuple] = []
    fits = {}
    for (label, _), ds in zip(states, datasets):
        rows += _count_rows(label, ds)
        fits[label] = _fit_payload(fit_malus(ds.values(), ds.counts()))
    return rows, fits


def _tomography_jobs(sc: Scenario, states, seeds: Iterator[int]) -> tuple[list, list[int]]:
    """Projector scan jobs at tomo_cycles; each scan's Monte Carlo seed follows its own."""
    jobs, mc_seeds = [], []
    for _, state in states:
        jobs.append((state, TomographyScan(sc.tomo_cycles), next(seeds)))
        mc_seeds.append(next(seeds))
    return jobs, mc_seeds


def _tomography(sc: Scenario, label: str, state: PureState, ds, mc_seed: int):
    """MLE with Monte Carlo error bars for one projector scan."""
    mset = MeasurementSet()
    res = reconstruct_with_uncertainty(counts_from_dataset(ds, mset), mset, state,
                                       n_samples=sc.mc_samples, seed=mc_seed)
    return _count_rows(label, ds), res


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
    seeds = (record_seed(scenario.seed, i) for i in itertools.count())
    return handler(scenario, emitter, seeds), emitter.written


def _exit_fidelity(rho, target: PureState) -> float | None:
    """Conditional fidelity of an exit; None when it is too light to condition on."""
    try:
        return fidelity(rho, target)
    except InvalidStateError:
        return None


def _run_simulate(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    rows = []
    summary: dict = {}
    for label, state in sc.input_states:
        for n in sc.n_values:
            out = simulate_storage(sc.config, state, n)
            f_retrieved = _exit_fidelity(out.retrieved.state, state)
            rows.append((label, n, "retrieved", out.retrieved.time,
                         out.retrieved.weight, f_retrieved))
            for ev in out.exits:
                f = f_retrieved if ev is out.retrieved else _exit_fidelity(ev.state, state)
                rows.append((label, n, "exit", ev.time, ev.weight, f))
            for t, w in out.ejections:
                rows.append((label, n, "ejected", t, w, None))
            if out.tail is not None:
                rows.append((label, n, "tail-exit", out.tail.time, out.tail.weight,
                             _exit_fidelity(out.tail.state, state)))
                if out.tail_ejected > 0:
                    rows.append((label, n, "tail-ejected", out.tail.time, out.tail_ejected, None))
            rows.append((label, n, "absorbed", None, out.absorbed, None))
            summary[f"{label}/N={n}"] = {
                "retrieved_weight": out.retrieved.weight,
                "fidelity": f_retrieved,
                "weight_balance": out.weight_balance(),
            }
    emitter.csv("simulate_events.csv",
                ("input_state", "n_cycles", "event", "time_ns", "weight", "fidelity"),
                rows)
    emitter.json("simulate.json", {"outcomes": summary})
    return {"outcomes": len(summary)}


def _run_decay(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    n_values = tuple(n for n in sc.n_values if n >= 1)
    if len(n_values) < 3:
        raise SchemaError("decay needs at least 3 values of n >= 1", field="n_values")
    scan = DecayScan(n_values)
    rows: list[tuple] = []
    fits = {}
    datasets = _datasets(sc, [(state, scan, next(seeds)) for _, state in sc.input_states])
    for (label, _), ds in zip(sc.input_states, datasets):
        rows += _count_rows(label, ds)
        fits[label] = asdict(fit_decay(ds.values(), ds.counts()))
    emitter.csv("decay_counts.csv",
                ("input_state", "n_cycles", "counts", "acquisition_s", "seed"), rows)

    params = derive_transmission_params(sc.config)
    eta = {str(n): efficiency(params, n) for n in range(0, max(n_values) + 1)}
    emitter.json("decay.json", {"fits": fits, "eta_closed_form": eta})
    return {"fits": fits}


def _run_malus(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    jobs = _malus_jobs(sc, sc.input_states, sc.malus_cycles, seeds)
    rows, fits = _malus_fits(sc.input_states, _datasets(sc, jobs))
    emitter.csv("malus_counts.csv",
                ("input_state", "angle_rad", "counts", "acquisition_s", "seed"), rows)
    emitter.json("malus.json", {"fits": fits, "n_cycles": sc.malus_cycles})
    return {"fits": fits}


def _run_tomo(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    rows: list[tuple] = []
    recon = {}
    jobs, mc_seeds = _tomography_jobs(sc, sc.input_states, seeds)
    for (label, state), ds, mc_seed in zip(sc.input_states, _datasets(sc, jobs), mc_seeds):
        counts, res = _tomography(sc, label, state, ds, mc_seed)
        rows += counts
        recon[label] = {
            "rho": _rho_flat(res.rho.matrix), "fidelity": res.fidelity,
            "flux": res.flux, "converged": res.converged,
            "mc_mean": res.mc_mean, "mc_std": res.mc_std,
            "n_samples": res.n_samples, "n_failed": res.n_failed,
        }
    emitter.csv("tomo_counts.csv",
                ("input_state", "setting", "counts", "acquisition_s", "seed"), rows)
    emitter.json("tomo.json", {"reconstructions": recon, "n_cycles": sc.tomo_cycles})
    return {"reconstructions": {k: v["fidelity"] for k, v in recon.items()}}


def _run_budget(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    n_max = max(max(sc.n_values), 8)
    report = project_budget(sc.config, wavelength_nm=sc.wavelength_nm, n_max=n_max)
    payload = {
        "params": asdict(report.params),
        "per_cycle": report.per_cycle,
        "lifetime_cycles_1e": report.lifetime_cycles_1e,
        "lifetime_time_1e_ns": report.lifetime_time_1e_ns,
        "fiber_factor": report.fiber_factor,
        "wavelength_nm": report.wavelength_nm,
        "delta_tau": report.delta_tau,
    }
    emitter.csv("budget_eta.csv", ("n_cycles", "eta"),
                [(n, e) for n, e in enumerate(report.eta_table)])
    emitter.json("budget.json", payload)
    return payload


def _run_fig2c(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    """Efficiency-vs-cycles bundle: closed-form table plus a sampled decay fit."""
    label, state = sc.input_states[0]
    n_values = tuple(range(1, 9))
    params = derive_transmission_params(sc.config)
    [ds] = _datasets(sc, [(state, DecayScan(n_values), next(seeds))])
    fit = fit_decay(ds.values(), ds.counts())
    scale = sc.pair_rate * sc.detection_eff * sc.acquisition_s
    rows = [(n, efficiency(params, n), efficiency(params, n) * scale, r.counts)
            for n, r in zip(n_values, ds.records)]
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


def _run_fig3(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    """Fringe + tomography bundle at one cycle count."""
    jobs = _malus_jobs(sc, _FRINGE_STATES, sc.malus_cycles, seeds)
    tomo_jobs, [mc_seed] = _tomography_jobs(sc, (("R", R),), seeds)
    *datasets, tomo_ds = _datasets(sc, jobs + tomo_jobs)
    mrows, fits = _malus_fits(_FRINGE_STATES, datasets)
    emitter.csv("fig3_malus.csv",
                ("input_state", "angle_rad", "counts", "acquisition_s", "seed"), mrows)
    rows, res = _tomography(sc, "R", R, tomo_ds, mc_seed)
    emitter.csv("fig3_tomo.csv", ("setting", "counts", "acquisition_s", "seed"),
                [row[1:] for row in rows])
    payload = {
        "visibility_h": fits["H"], "visibility_d": fits["D"],
        "tomo_r": {"fidelity": res.fidelity, "mc_mean": res.mc_mean,
                   "mc_std": res.mc_std, "n_samples": res.n_samples,
                   "n_failed": res.n_failed, "rho": _rho_flat(res.rho.matrix)},
        "n_cycles": {"malus": sc.malus_cycles, "tomo": sc.tomo_cycles},
    }
    emitter.json("fig3.json", payload)
    return payload


def _run_fig4(sc: Scenario, emitter: _Emitter, seeds: Iterator[int]) -> dict:
    """Output-quality-vs-storage-time bundle: visibilities and fidelities per n.

    Each n draws its fringe scans, then its H, D and R tomography scans, from
    the next sub-seeds; every scan is simulated and sampled in one batch.  The
    fidelities are exact maximum-likelihood point estimates, solved for every
    n and state in one `exact_mle_fidelities` batch after the scans; a
    tomography without a solution raises `NoSignalError`.  The Monte Carlo
    error bars are left to the dedicated tomo pipeline to keep this sweep fast.
    """
    mset = MeasurementSet()
    states = (("H", H), ("D", D), ("R", R))
    jobs = []
    for n in sc.n_values:
        jobs += _malus_jobs(sc, _FRINGE_STATES, n, seeds)
        jobs += [(state, TomographyScan(n), next(seeds)) for _, state in states]
    datasets = iter(_datasets(sc, jobs))
    entries, counts = [], []
    for _ in sc.n_values:
        _, fits = _malus_fits(_FRINGE_STATES, itertools.islice(datasets, len(_FRINGE_STATES)))
        entry = {}
        for label in ("H", "D"):
            entry[f"visibility_{label.lower()}"] = fits[label]["visibility"]
            entry[f"sigma_v{label.lower()}"] = fits[label]["sigma_visibility"]
        entries.append(entry)
        counts += [counts_from_dataset(next(datasets), mset) for _ in states]
    fids, failed = exact_mle_fidelities(counts, mset, [s for _, s in states] * len(entries))
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise NoSignalError(f"fig4 tomography of {states[i % 3][0]} at "
                            f"N={sc.n_values[i // 3]} has no maximum-likelihood estimate")
    rows = []
    for n, entry, fid in zip(sc.n_values, entries, fids.reshape(-1, 3)):
        for (label, _), f in zip(states, fid):
            entry[f"fidelity_{label.lower()}"] = float(f)
        rows.append((n, n * sc.config.delta_tau,
                     entry["visibility_h"], entry["sigma_vh"],
                     entry["visibility_d"], entry["sigma_vd"],
                     entry["fidelity_h"], entry["fidelity_d"], entry["fidelity_r"]))
    per_n = {str(n): entry for n, entry in zip(sc.n_values, entries)}
    emitter.csv("fig4.csv",
                ("n_cycles", "storage_time_ns", "visibility_h", "sigma_vh",
                 "visibility_d", "sigma_vd", "fidelity_h", "fidelity_d", "fidelity_r"),
                rows)
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
