"""Output checks for one op: physics invariants plus recorded reference values.

`extract` reads an op's output files and returns the values worth pinning,
keyed by name, together with any broken invariant.  `compare` holds those
values against the reference recorded for the same op and scenario seed.

Tolerances: values from closed-form or linear least-squares arithmetic must
match to 1e-9 relative.  Values that come out of the likelihood fit (keys
starting with ``mle:``) must match to 1e-4, relative above 1, so that a
different solver reaching the same optimum passes: on 540 Poisson draws
L-BFGS agreed to 1e-15 with the exact answer on interior draws and to 1e-6
with a refined rank-1 optimum on boundary ones.  Both are far inside the
Monte Carlo spread of the fidelity, about 1e-2.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from loopmem.engine import TransmissionParams, derive_transmission_params, efficiency

REL_TOL = 1e-9
MLE_TOL = 1e-4
BALANCE_TOL = 1e-9


def _json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _csv_rows(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name)) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# scenario="):
        raise ValueError(f"{name}: missing scenario header line")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def _params(d: dict) -> TransmissionParams:
    return TransmissionParams(d["g13"], d["g12"], d["g22"], d["g23"])


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * abs(b) + 1e-15


def _rho_problems(where: str, flat: list[float]) -> list[str]:
    m = np.array([[flat[0] + 1j * flat[1], flat[2] + 1j * flat[3]],
                  [flat[4] + 1j * flat[5], flat[6] + 1j * flat[7]]])
    out = []
    if not np.allclose(m, m.conj().T, atol=1e-9):
        out.append(f"{where}: rho not Hermitian")
    if abs(m.trace().real - 1.0) > 1e-9:
        out.append(f"{where}: rho trace {m.trace().real!r} != 1")
    if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -1e-9:
        out.append(f"{where}: rho not PSD")
    return out


def _unit_interval(where: str, v: float) -> list[str]:
    return [] if -1e-9 <= v <= 1.0 + 1e-9 else [f"{where} = {v!r} outside [0, 1]"]


def _fit_values(prefix: str, fit: dict, vals: dict) -> list[str]:
    for key in ("visibility", "sigma_visibility", "theta0_rad", "amplitude", "clamped"):
        vals[f"{prefix}.{key}"] = fit[key]
    return _unit_interval(f"{prefix}.visibility", fit["visibility"])


def _recon_values(prefix: str, rec: dict, sc, vals: dict) -> list[str]:
    for i, x in enumerate(rec["rho"]):
        vals[f"mle:{prefix}.rho{i}"] = x
    for key in ("fidelity", "mc_mean", "mc_std"):
        vals[f"mle:{prefix}.{key}"] = rec[key]
    vals[f"{prefix}.n_failed"] = rec["n_failed"]
    problems = _rho_problems(prefix, rec["rho"]) + _unit_interval(f"{prefix}.fidelity", rec["fidelity"])
    if rec["n_samples"] != sc.mc_samples:
        problems.append(f"{prefix}: n_samples {rec['n_samples']} != {sc.mc_samples}")
    if not 0 <= rec["n_failed"] < rec["n_samples"]:
        problems.append(f"{prefix}: n_failed {rec['n_failed']} out of range")
    if not rec["mc_std"] >= 0.0:
        problems.append(f"{prefix}: mc_std {rec['mc_std']!r} negative")
    return problems


def _simulate(sc, out_dir, vals):
    problems = []
    for key, o in _json(out_dir, "simulate.json")["outcomes"].items():
        if abs(o["weight_balance"] - 1.0) > BALANCE_TOL:
            problems.append(f"{key}: weight_balance {o['weight_balance']!r}")
        problems += _unit_interval(f"{key}.fidelity", o["fidelity"])
        vals[f"{key}.retrieved_weight"] = o["retrieved_weight"]
        vals[f"{key}.fidelity"] = o["fidelity"]
    if len(_csv_rows(out_dir, "simulate_events.csv")) < len(vals) // 2:
        problems.append("simulate_events.csv has fewer event rows than outcomes")
    return problems


def _decay(sc, out_dir, vals):
    doc = _json(out_dir, "decay.json")
    params = derive_transmission_params(sc.config)
    problems = [f"eta_closed_form[{n}] = {eta!r} != {efficiency(params, int(n))!r}"
                for n, eta in doc["eta_closed_form"].items()
                if not _close(eta, efficiency(params, int(n)))]
    for label, fit in doc["fits"].items():
        for key in ("gamma_per_cycle", "sigma_gamma", "prefactor", "n_excluded", "clamped"):
            vals[f"{label}.{key}"] = fit[key]
        problems += _unit_interval(f"{label}.gamma_per_cycle", fit["gamma_per_cycle"])
    return problems


def _malus(sc, out_dir, vals):
    problems = []
    for label, fit in _json(out_dir, "malus.json")["fits"].items():
        problems += _fit_values(label, fit, vals)
    return problems


def _budget(sc, out_dir, vals):
    doc = _json(out_dir, "budget.json")
    params = _params(doc["params"])
    problems = [f"budget_eta.csv n={r['n_cycles']}: {r['eta']} != closed form"
                for r in _csv_rows(out_dir, "budget_eta.csv")
                if not _close(float(r["eta"]), efficiency(params, int(r["n_cycles"])))]
    if not _close(doc["per_cycle"], params.g22):
        problems.append("per_cycle != g22")
    if not _close(doc["lifetime_cycles_1e"], -1.0 / math.log(params.g22)):
        problems.append("lifetime_cycles_1e != -1/ln(g22)")
    for key in ("g13", "g12", "g22", "g23"):
        vals[f"params.{key}"] = doc["params"][key]
    for key in ("lifetime_time_1e_ns", "fiber_factor"):
        vals[key] = doc[key]
    return problems


def _fig2c(sc, out_dir, vals):
    doc = _json(out_dir, "fig2c.json")
    params = _params(doc["params"])
    problems = [f"fig2c.csv n={r['n_cycles']}: eta {r['eta']} != closed form"
                for r in _csv_rows(out_dir, "fig2c.csv")
                if not _close(float(r["eta"]), efficiency(params, int(r["n_cycles"])))]
    if not _close(doc["eta_pass_through"], efficiency(params, 0)):
        problems.append("eta_pass_through != g13")
    for key in ("gamma_fit", "gamma_sigma", "prefactor"):
        vals[key] = doc[key]
    for key in ("g13", "g12", "g22", "g23"):
        vals[f"params.{key}"] = doc["params"][key]
    return problems


def _fig3(sc, out_dir, vals):
    doc = _json(out_dir, "fig3.json")
    problems = _fit_values("H", doc["visibility_h"], vals) + _fit_values("D", doc["visibility_d"], vals)
    return problems + _recon_values("R", doc["tomo_r"], sc, vals)


def _fig4(sc, out_dir, vals):
    problems = []
    for n, entry in _json(out_dir, "fig4.json")["per_n"].items():
        for key, v in entry.items():
            if key.startswith("fidelity"):
                vals[f"mle:N={n}.{key}"] = v
                problems += _unit_interval(f"N={n}.{key}", v)
            else:
                vals[f"N={n}.{key}"] = v
    return problems


def _tomo(sc, out_dir, vals):
    problems = []
    for label, rec in _json(out_dir, "tomo.json")["reconstructions"].items():
        problems += _recon_values(label, rec, sc, vals)
        vals[f"mle:{label}.flux"] = rec["flux"]
        vals[f"{label}.converged"] = rec["converged"]
    return problems


_EXTRACTORS = {"simulate": _simulate, "decay": _decay, "malus": _malus, "budget": _budget,
               "fig2c": _fig2c, "fig3": _fig3, "fig4": _fig4, "tomo": _tomo}


def extract(pipeline: str, sc, out_dir: str) -> tuple[dict, list[str]]:
    """Pinned values and broken invariants of one finished pipeline run."""
    vals: dict = {}
    problems = _EXTRACTORS[pipeline](sc, out_dir, vals)
    return vals, problems


def _matches(key: str, got, want) -> bool:
    if isinstance(want, int) or want is None:  # counts and flags, bool included
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if math.isnan(want):
        return math.isnan(got)
    if key.startswith("mle:"):
        return abs(got - want) <= MLE_TOL * max(1.0, abs(want))
    return abs(got - want) <= REL_TOL * abs(want) + 1e-12


def compare(values: dict, reference: dict | None) -> list[str]:
    """Mismatches between extracted values and the recorded reference."""
    if reference is None:
        return ["no reference recorded for this op and scenario seed"]
    problems = [f"{k}: missing from output" for k in reference if k not in values]
    problems += [f"{k}: not in reference" for k in values if k not in reference]
    problems += [f"{k}: {values[k]!r} != reference {reference[k]!r}"
                 for k in reference if k in values and not _matches(k, values[k], reference[k])]
    return problems
