import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopmem.scenario
from loopmem.cli import main
from loopmem.components import POCKELS_CELL
from loopmem.engine import derive_transmission_params, simulate_storage, simulate_sweep
from loopmem.errors import InvalidStateError, SchemaError
from loopmem.polarization import D, H, R, fidelity
from loopmem.scenario import (
    PRESETS, preset_scenario, read_scenario, resolve, run,
)
from loopmem.tomography import MeasurementSet, mle_reconstruct


def write_scenario(tmp_path, payload, name="scan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- presets ---

def test_short_preset_parameters():
    sc = preset_scenario("paper-short")
    assert sc.config.delta_tau == 36.5
    p = derive_transmission_params(sc.config)
    assert (p.g13, p.g12, p.g22, p.g23) == (0.541, 0.419, 0.50, 0.662)


def test_long_preset_parameters():
    sc = preset_scenario("paper-long")
    assert sc.config.delta_tau == 526.0
    p = derive_transmission_params(sc.config)
    assert (p.g12, p.g22) == (0.398, 0.44)


def test_improved_preset_uses_inventory():
    sc = preset_scenario("paper-improved")
    assert sc.config.zone_params is None
    assert sc.wavelength_nm == 780.0
    assert 0.88 <= derive_transmission_params(sc.config).g22 <= 0.92


def test_unknown_preset():
    with pytest.raises(SchemaError):
        preset_scenario("paper-shrot")
    with pytest.raises(SchemaError):
        resolve({"preset": 12})


# --- scenario files ---

def test_load_merges_preset_with_overrides(tmp_path):
    path = write_scenario(tmp_path, {
        "preset": "paper-short", "seed": 7, "n_values": [1, 2, 3],
        "memory": {"delta_tau": 40.0}})
    sc = resolve(read_scenario(path))
    assert sc.seed == 7
    assert sc.n_values == (1, 2, 3)
    assert sc.config.delta_tau == 40.0  # override wins
    assert derive_transmission_params(sc.config).g22 == 0.50  # preset survives


def test_missing_delta_tau_field_path():
    with pytest.raises(SchemaError) as err:
        resolve({"memory": {"params": {"g13": 0.5, "g12": 0.4,
                                       "g22": 0.5, "g23": 0.6}}})
    assert err.value.field == "memory.delta_tau"
    for bad in ("abc", [1], True):
        with pytest.raises(SchemaError) as err:
            resolve({"preset": "paper-improved", "memory": {"wavelength_nm": bad}})
        assert err.value.field == "memory.wavelength_nm"


def test_unknown_keys_rejected():
    with pytest.raises(SchemaError) as err:
        resolve({"preset": "paper-short", "colour": 3})
    assert "colour" in str(err.value)
    with pytest.raises(SchemaError) as err:
        resolve({"preset": "paper-short", "memory": {"delay_loss": 1}})
    assert err.value.field.startswith("memory")


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"preset": "paper-short",\n  "seed": }\n')
    with pytest.raises(SchemaError) as err:
        read_scenario(path)
    assert "line 2" in str(err.value)
    assert err.value.field == "(file)"


def test_params_and_inventory_exclusive():
    with pytest.raises(SchemaError):
        resolve({"memory": {
            "delta_tau": 36.5,
            "params": {"g13": 0.5, "g12": 0.4, "g22": 0.5, "g23": 0.6},
            "inventory": [{"kind": "COUPLER", "transmission": 0.9}]}})


def test_error_knobs_need_lumped_params():
    with pytest.raises(SchemaError):
        resolve({"preset": "paper-improved",
                 "memory": {"pc_rotation_error": 0.1}})
    sc = resolve({"preset": "paper-short", "memory": {"pc_rotation_error": 0.1}})
    cell, = (c for c in sc.config.switch_zone if c.kind == POCKELS_CELL)
    assert cell.rotation_error == 0.1


def test_input_state_forms():
    sc = resolve({"preset": "paper-short", "input_states": ["H", "D"]})
    assert [name for name, _ in sc.input_states] == ["H", "D"]
    assert sc.input_states[0][1].overlap(H) > 1 - 1e-12
    assert sc.input_states[1][1].overlap(D) > 1 - 1e-12
    custom = resolve({"preset": "paper-short", "input_states": [
        {"label": "elliptic", "alpha": [0.8, 0.0], "beta": [0.0, 0.6]}]})
    name, state = custom.input_states[0]
    assert name == "elliptic"
    assert state.overlap(H) == pytest.approx(0.64)
    with pytest.raises(SchemaError):
        resolve({"preset": "paper-short", "input_states": ["Q"]})


def test_malus_angles_in_degrees():
    sc = resolve({"preset": "paper-short",
                  "malus_angles_deg": [0, 45, 90, 135, 180]})
    assert sc.malus_angles == pytest.approx(
        tuple(math.radians(d) for d in (0, 45, 90, 135, 180)))


def test_content_hash_ignores_seed():
    a = resolve({"preset": "paper-short", "seed": 1})
    b = resolve({"preset": "paper-short", "seed": 99})
    c = resolve({"preset": "paper-short", "seed": 1, "n_values": [1, 2, 3]})
    assert a.digest == b.digest
    assert a.digest != c.digest


# the digest of each preset, recorded when every run dumped and hashed its scenario
PRESET_HASHES = {
    "paper-short": "0cf65bfeb4d27e99c9926220df1f822d20b4d3b7f0b46d6d3125ff344a6f9245",
    "paper-long": "2667e09365373a5a71754ee893d45d6addf5b0e744a461cc22c70883635ffe51",
    "paper-improved": "0984ca3691c80a5d64553b4b58a1f9104ef2ea730038669169373c9ba00ad0e5",
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_repeated_scenario_reuses_a_build_equal_to_an_uncached_one(monkeypatch, preset):
    resolve({"preset": preset, "seed": 99})
    cached = [resolve({"preset": preset, "seed": seed}) for seed in range(8)]
    assert all(sc.config is cached[0].config for sc in cached)  # one build, reused
    monkeypatch.setattr(loopmem.scenario, "_BUILT", {})
    for seed, sc in enumerate(cached):
        loopmem.scenario._BUILT.clear()
        fresh = resolve({"preset": preset, "seed": seed})
        assert fresh.config is not sc.config
        for f in dataclasses.fields(sc):
            assert getattr(sc, f.name) == getattr(fresh, f.name), f.name
        assert sc.digest == PRESET_HASHES[preset]


def test_the_build_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(loopmem.scenario, "_BUILT", {})
    for i in range(2 * loopmem.scenario._BUILT_MAX):
        assert resolve({"preset": "paper-short", "label": f"scan {i}"}).label == f"scan {i}"
        assert 0 < len(loopmem.scenario._BUILT) <= loopmem.scenario._BUILT_MAX


def test_a_value_json_cannot_hold_is_named_by_validation():
    with pytest.raises(SchemaError) as err:
        resolve({"preset": "paper-short", "n_values": {1, 2, 3}})
    assert err.value.field == "n_values"


def test_a_bad_scenario_raises_on_every_call():
    raw = {"preset": "paper-short", "source": {"pair_rate": -1.0}}
    for _ in range(2):
        with pytest.raises(SchemaError) as err:
            resolve(raw)
        assert err.value.field == "source.pair_rate"


@pytest.mark.parametrize("twin, field", [
    ({"n_values": (1, 2, 3), "seed": 4}, "n_values"),  # dumps as the list
    ({"n_values": [1, 2, 3], "seed": True}, "seed"),
    ({"n_values": [1, 2, 3], "seed": -1, "label": 5}, "label"),  # label is checked first
])
def test_a_resolved_twin_does_not_admit_a_bad_scenario(twin, field):
    resolve({"preset": "paper-long", "n_values": [1, 2, 3], "seed": 4})
    with pytest.raises(SchemaError) as err:
        resolve({"preset": "paper-long", **twin})
    assert err.value.field == field


# --- pipeline runs ---

def test_decay_pipeline_outputs(tmp_path):
    sc = preset_scenario("paper-short")
    summary, written = run(sc, "decay", str(tmp_path))
    names = {os.path.basename(p) for p in written}
    assert names == {"decay_counts.csv", "decay.json"}
    first = open(tmp_path / "decay_counts.csv").readline()
    assert first.startswith(f"# scenario={sc.digest} seed={sc.seed}")
    payload = json.loads((tmp_path / "decay.json").read_text())
    fit_h = payload["fits"]["H"]
    assert abs(fit_h["gamma_per_cycle"] - 0.50) <= 4.0 * fit_h["sigma_gamma"]
    assert payload["eta_closed_form"]["0"] == 0.541
    assert payload["metadata"]["scenario_hash"] == sc.digest


def test_decay_needs_three_cycle_values(tmp_path):
    sc = resolve({"preset": "paper-short", "n_values": [0, 1, 2]})
    with pytest.raises(SchemaError) as err:
        run(sc, "decay", str(tmp_path))
    assert err.value.field == "n_values"


PIPELINES = [("simulate", None), ("decay", None), ("malus", None), ("tomo", None),
             ("budget", None), ("reproduce", "fig2c"), ("reproduce", "fig3"),
             ("reproduce", "fig4")]


def _rerun_content(path):
    """CSV bytes, or the JSON object without its wall-clock timestamp."""
    if path.endswith(".json"):
        obj = json.loads(Path(path).read_text())
        obj["metadata"].pop("generated_at")
        return obj
    return Path(path).read_bytes()


def test_reruns_are_bit_identical(tmp_path):
    sc = resolve({"preset": "paper-short", "seed": 5, "mc_samples": 20,
                  "n_values": [1, 2, 3]})
    for subcommand, figure in PIPELINES:
        outputs = []
        for rerun in ("a", "b"):
            out_dir = str(tmp_path / rerun / f"{subcommand}{figure or ''}")
            _, written = run(sc, subcommand, out_dir, figure=figure)
            outputs.append({os.path.basename(p): _rerun_content(p) for p in written})
        assert outputs[0] == outputs[1], (subcommand, figure)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("subcommand,figure", PIPELINES)
def test_every_pipeline_runs_on_every_preset(tmp_path, capsys, preset, subcommand, figure):
    path = write_scenario(tmp_path, {"preset": preset, "mc_samples": 20,
                                     "n_values": [1, 2, 3]})
    argv = [subcommand] + ([figure] if figure else [])
    rc = main(argv + ["--scenario", path, "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    assert any(name.endswith(".csv") for name in os.listdir(tmp_path / "out"))


def test_csv_quotes_labels_with_commas(tmp_path):
    sc = resolve({"preset": "paper-short", "n_values": [1, 2, 3], "input_states": [
        {"label": "ell,ip", "alpha": [0.8, 0], "beta": [0, 0.6]}]})
    run(sc, "decay", str(tmp_path))
    with open(tmp_path / "decay_counts.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["input_state", "n_cycles", "counts", "acquisition_s", "seed"]
    assert len(rows) == 4
    assert all(len(row) == 5 and row[0] == "ell,ip" for row in rows[1:])


def test_simulate_and_budget_pipelines(tmp_path):
    sc = preset_scenario("paper-improved")
    _, written = run(sc, "budget", str(tmp_path))
    assert {os.path.basename(p) for p in written} == {"budget_eta.csv", "budget.json"}
    payload = json.loads((tmp_path / "budget.json").read_text())
    assert 0.88 <= payload["per_cycle"] <= 0.92

    sc2 = preset_scenario("paper-short")
    _, written = run(sc2, "simulate", str(tmp_path))
    assert "simulate_events.csv" in {os.path.basename(p) for p in written}


def test_unknown_subcommand_and_figure(tmp_path):
    sc = preset_scenario("paper-short")
    with pytest.raises(SchemaError):
        run(sc, "resample", str(tmp_path))
    with pytest.raises(SchemaError):
        run(sc, "reproduce", str(tmp_path), figure="fig9")


def test_light_figure_pipelines(tmp_path):
    raw = {"preset": "paper-short", "seed": 2, "mc_samples": 50,
           "malus_angles_deg": [0, 30, 60, 90, 120, 150, 180],
           "n_values": [1, 2, 3], "tomo_cycles": 1}
    sc = resolve(raw)
    summary, written = run(sc, "reproduce", str(tmp_path / "f3"), figure="fig3")
    assert any(p.endswith("fig3.json") for p in written)
    payload = json.loads((tmp_path / "f3" / "fig3.json").read_text())
    for key in ("visibility_h", "visibility_d"):
        assert 0.0 <= payload[key]["visibility"] <= 1.0
    assert payload["tomo_r"]["fidelity"] > 0.99
    assert payload["tomo_r"]["n_samples"] == 50

    _, written = run(sc, "reproduce", str(tmp_path / "f4"), figure="fig4")
    assert any(p.endswith("fig4.csv") for p in written)

    _, written = run(sc, "reproduce", str(tmp_path / "f2c"), figure="fig2c")
    assert any(p.endswith("fig2c.json") for p in written)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_tomo_and_fig3_write_one_reconstruction_record(preset, tmp_path):
    sc = resolve({"preset": preset, "mc_samples": 50})
    run(sc, "tomo", str(tmp_path / "tomo"))
    run(sc, "reproduce", str(tmp_path / "fig3"), figure="fig3")
    records = json.loads((tmp_path / "tomo" / "tomo.json").read_text())["reconstructions"]
    tomo_r = json.loads((tmp_path / "fig3" / "fig3.json").read_text())["tomo_r"]
    assert {frozenset(rec) for rec in records.values()} == {frozenset(tomo_r)}

    with open(tmp_path / "fig3" / "fig3_tomo.csv", newline="") as fh:
        by_label = {row["setting"]: float(row["counts"])
                    for row in csv.DictReader(line for line in fh if not line.startswith("#"))}
    mset = MeasurementSet()
    want = mle_reconstruct([by_label[name] for name in mset.labels()], mset, R)
    assert (tomo_r["flux"], tomo_r["converged"]) == (want.flux, want.converged)
    assert tomo_r["fidelity"] == want.fidelity


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_budget_json_keeps_its_seven_keys(preset, tmp_path):
    run(preset_scenario(preset), "budget", str(tmp_path))
    payload = json.loads((tmp_path / "budget.json").read_text())
    assert set(payload) == {"metadata", "params", "per_cycle", "lifetime_cycles_1e",
                            "lifetime_time_1e_ns", "fiber_factor", "wavelength_nm",
                            "delta_tau"}
    assert set(payload["params"]) == {"g13", "g12", "g22", "g23"}


def test_malus_points_and_malus_angles_deg_are_mutually_exclusive():
    # test_cli_bad_scenario_file has the JSON cases; a set is no JSON value
    raw = {"preset": "paper-short", "malus_angles_deg": [0, 45, 90, 135, 180]}
    assert len(resolve(raw).malus_angles) == 5
    for points in (13, {1, 2}):
        with pytest.raises(SchemaError) as err:
            resolve(dict(raw, malus_points=points))
        assert err.value.field == "malus_points"


# --- command line ---

def test_cli_decay_roundtrip(tmp_path, capsys):
    rc = main(["decay", "--preset", "paper-short", "--seed", "9",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "decay_counts.csv").exists()
    assert "wrote " in out
    tail = json.loads(out.strip().splitlines()[-1])
    assert tail["seed"] == 9
    assert tail["scenario"] == "paper-short"


def test_cli_requires_scenario_or_preset(capsys):
    rc = main(["malus"])
    err = capsys.readouterr().err
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "SchemaError"


def test_cli_rejects_negative_seed(capsys):
    rc = main(["decay", "--preset", "paper-short", "--seed", "-3"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_cli_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{", encoding="utf-8")
    rc = main(["tomo", "--scenario", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    payload = json.loads(err)
    assert payload["field"] == "(file)"

    for raw, field in (
            ({"preset": "paper-improved", "memory": {"wavelength_nm": "abc"}},
             "memory.wavelength_nm"),
            ({"preset": "paper-improved", "memory": {"wavelength_nm": 1310}},
             "memory.wavelength_nm"),
            ({"preset": "paper-improved", "memory": {"inventory": [{"kind": "LENS"}]}},
             "memory.inventory[0].kind"),
            ({"preset": "paper-improved",
              "memory": {"inventory": [{"kind": "COUPLER", "transmission": "abc"}]}},
             "memory.inventory[0].transmission"),
            ({"preset": "paper-improved",
              "memory": {"inventory": [{"kind": "COUPLER", "transmission": ["a", 1]}]}},
             "memory.inventory[0].transmission"),
            ({"preset": "paper-short", "malus_angles_deg": [0, "x", 90, 120, 180]},
             "malus_angles_deg[1]"),
            ({"preset": "paper-short", "malus_angles_deg": [0, 45, math.nan, 120, 180]},
             "malus_angles_deg[2]"),
            ({"preset": "paper-short", "source": {"pair_rate": math.inf}}, "source.pair_rate"),
            ({"preset": "paper-short", "source": {"pair_rate": math.nan}}, "source.pair_rate"),
            ({"preset": "paper-short", "source": {"detection_eff": 1.5}},
             "source.detection_eff"),
            ({"preset": "paper-short", "source": {"acquisition_s": -1}}, "source.acquisition_s"),
            ({"preset": "paper-short", "memory": {"delta_tau": math.nan}}, "memory.delta_tau"),
            ({"preset": "paper-short", "memory": {"delta_tau": math.inf}}, "memory.delta_tau"),
            ({"preset": "paper-short", "memory": {"pc_rise_time": math.nan}},
             "memory.pc_rise_time"),
            ({"preset": "paper-short", "memory": {"pc_rotation_error": math.nan}},
             "memory.pc_rotation_error"),
            ({"preset": "paper-short", "memory": {"delay_static_phase": math.inf}},
             "memory.delay_static_phase"),
            ({"preset": "paper-short", "memory": {"delta_tau": 10**400}}, "memory.delta_tau"),
            ({"preset": "paper-improved", "memory": {"inventory": [
                dict(c, length_m=math.nan) if c["kind"] == "FIBER_SEGMENT" else c
                for c in PRESETS["paper-improved"]["memory"]["inventory"]]}},
             "memory.inventory[5].length_m"),
            ({"preset": "paper-short", "input_states": [
                {"label": "x", "alpha": [1, 0], "beta": [math.nan, 0]}]}, "input_states[0].beta"),
            ({"preset": "paper-short", "input_states": ["H", "D", "H"]}, "input_states[2]"),
            ({"preset": "paper-short", "input_states": [
                "H", {"label": "H", "alpha": [0, 0], "beta": [1, 0]}]}, "input_states[1].label"),
            ({"preset": "paper-short", "malus_angles_deg": [0, 10, 20, 30, 40]},
             "malus_angles_deg"),
            ({"preset": "paper-short", "malus_angles_deg": [0, 45, 90, 135, 180],
              "malus_points": 3}, "malus_points"),
            ({"preset": "paper-short", "malus_angles_deg": [0, 45, 90, 135, 180],
              "malus_points": 10**9}, "malus_points"),
            ({"preset": "paper-short", "malus_angles_deg": [0, 45, 90, 135, 180],
              "malus_points": "abc"}, "malus_points"),
            ({"preset": "paper-short", "source": {"pair_rate": 1e300}}, "source.pair_rate"),
            ({"preset": "paper-short", "mc_samples": 2**53 + 1}, "mc_samples"),
            ({"preset": "paper-short", "n_values": [1, -2, 3]}, "n_values[1]"),
            ({"preset": "paper-short", "seed": 1.5}, "seed"),
            ({"preset": ["paper-short"]}, "preset"),
            ([1, 2], "(file)")):
        path = write_scenario(tmp_path, raw)
        rc = main(["budget", "--scenario", path, "--out", str(tmp_path)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["field"] == field
    path = write_scenario(tmp_path, {"preset": "paper-improved",
                                     "memory": {"wavelength_nm": 1310}})
    main(["budget", "--scenario", path, "--out", str(tmp_path)])
    assert "[780.0, 1550.0]" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("memory,n_values", [({}, [40]), ({"pc_rotation_error": 0.05}, [0])])
def test_cli_simulate_leaves_fidelity_blank_for_weightless_exits(tmp_path, capsys,
                                                                 memory, n_values):
    path = write_scenario(tmp_path, {"preset": "paper-short", "input_states": ["D"],
                                     "n_values": n_values, "memory": memory})
    rc = main(["simulate", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    with open(tmp_path / "simulate_events.csv", newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[2:] if row[2] in ("retrieved", "exit")]
    assert any(row[5] == "" for row in rows)
    for row in rows:
        assert (row[5] == "") == (float(row[4]) < 1e-12)
    outcome = json.loads((tmp_path / "simulate.json").read_text())["outcomes"][f"D/N={n_values[0]}"]
    assert (outcome["fidelity"] is None) == (outcome["retrieved_weight"] < 1e-12)


def test_cli_simulate_reports_tail_only_when_weight_outlasts_listing(tmp_path, capsys):
    # lossless, cell on at N = 0: after the 65 listed passages sin^2(eps)
    # cos^128(eps) still circulates, and all of it leaks out in the tail
    eps = 0.01
    path = write_scenario(tmp_path, {"label": "lossless", "input_states": ["D"], "n_values": [0, 1],
                                     "memory": {"delta_tau": 36.5, "pc_rotation_error": eps,
                                                "params": {"g13": 1, "g12": 1, "g22": 1, "g23": 1}}})
    rc = main(["simulate", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    with open(tmp_path / "simulate_events.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    events = {row[2] for row in rows}
    assert "truncated" not in events and "tail-ejected" not in events  # nothing is ejected
    tail = [row for row in rows if row[2] == "tail-exit"]
    assert [row[1] for row in tail] == ["0"]
    expected = math.sin(eps) ** 2 * math.cos(eps) ** 128
    assert abs(float(tail[0][4]) - expected) < 1e-12
    exit_times = [float(row[3]) for row in rows if row[1] == "0" and row[2] == "exit"]
    assert len(exit_times) == 65 and float(tail[0][3]) == exit_times[-1] + 36.5
    assert abs(float(tail[0][5]) - 1.0) < 1e-9  # the leak keeps D
    absorbed = {row[1]: float(row[4]) for row in rows if row[2] == "absorbed"}
    assert absorbed["0"] < 1e-12
    outcomes = json.loads((tmp_path / "simulate.json").read_text())["outcomes"]
    assert all("truncated" not in o for o in outcomes.values())
    assert abs(outcomes["D/N=0"]["weight_balance"] - 1.0) < 1e-13


def test_cli_simulate_sums_light_and_late_ejections(tmp_path, capsys):
    # the inventory device with a rotated cell ejects at every passage at N = 0
    inventory = [dict(c) for c in PRESETS["paper-improved"]["memory"]["inventory"]]
    for c in inventory:
        if c["kind"] == POCKELS_CELL:
            c["rotation_error"] = 0.05
    path = write_scenario(tmp_path, {"preset": "paper-improved", "input_states": ["D"],
                                     "n_values": [0], "memory": {"inventory": inventory}})
    rc = main(["simulate", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    with open(tmp_path / "simulate_events.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    ejected = [float(row[4]) for row in rows if row[2] == "ejected"]
    assert ejected and min(ejected) > 1e-16
    (tail,) = [row for row in rows if row[2] == "tail-ejected"]
    assert float(tail[4]) > 0
    assert tail[3] == next(row[3] for row in rows if row[2] == "tail-exit")
    outcome = json.loads((tmp_path / "simulate.json").read_text())["outcomes"]["D/N=0"]
    assert abs(outcome["weight_balance"] - 1.0) < 1e-13


def test_cli_simulate_runs_the_checked_in_low_loss_scenario(tmp_path, capsys):
    path = Path(__file__).parent.parent / "demos" / "low_loss_tail.json"
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    with open(tmp_path / "simulate_events.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    assert {(row[0], row[1]) for row in rows if row[2] == "tail-exit"} == {
        ("H", "0"), ("D", "0"), ("R", "0")}


def test_simulate_sweeps_each_input_state_once(monkeypatch, tmp_path):
    sweeps = []

    def sweep(cfg, state, n_values):
        sweeps.append((state, n_values))
        return simulate_sweep(cfg, state, n_values)

    def per_n(*args):
        raise AssertionError("simulate propagated one cycle count alone")

    simulate_sweep = loopmem.scenario.simulate_sweep
    monkeypatch.setattr(loopmem.scenario, "simulate_sweep", sweep)
    monkeypatch.setattr(loopmem.scenario, "simulate_storage", per_n)
    sc = preset_scenario("paper-short")
    run(sc, "simulate", str(tmp_path))  # streams one state's sweep at a time
    assert sweeps == [(state, sc.n_values) for _, state in sc.input_states]

    calls = []

    def batch(cfg, states, n_values):
        calls.append((states, n_values))
        return retrieved_exits(cfg, states, n_values)

    retrieved_exits = loopmem.counting.retrieved_exits
    monkeypatch.setattr(loopmem.counting, "retrieved_exits", batch)
    run(sc, "decay", str(tmp_path))
    assert calls == [(tuple(state for _, state in sc.input_states), sc.n_values)]  # one call


def test_simulate_reports_the_balance_the_engine_checked(monkeypatch, tmp_path):
    def resum(outcome):
        raise AssertionError("simulate summed an outcome's weights again")

    sc = resolve({"preset": "paper-improved", "n_values": [0, 1, 5]})
    expected = {f"{label}/N={out.n_cycles}": out.balance for label, state in sc.input_states
                for out in simulate_sweep(sc.config, state, sc.n_values)}
    monkeypatch.setattr(loopmem.engine.StorageOutcome, "weight_balance", resum)
    run(sc, "simulate", str(tmp_path))
    outcomes = json.loads((tmp_path / "simulate.json").read_text())["outcomes"]
    assert {key: o["weight_balance"] for key, o in outcomes.items()} == expected
    assert all(abs(b - 1.0) < 1e-12 for b in expected.values())


def test_simulate_rows_equal_per_n_storage_rows(monkeypatch, tmp_path):
    sc = resolve({"preset": "paper-short", "n_values": [0, 5, 3, 3, 12, 1, 64, 0, 2],
                  "memory": {"pc_rotation_error": 0.05}})
    run(sc, "simulate", str(tmp_path / "sweep"))
    monkeypatch.setattr(loopmem.scenario, "simulate_sweep", lambda cfg, state, n_values: tuple(
        simulate_storage(cfg, state, n) for n in n_values))
    run(sc, "simulate", str(tmp_path / "per-n"))
    table = "simulate_events.csv"
    assert (tmp_path / "sweep" / table).read_bytes() == (tmp_path / "per-n" / table).read_bytes()
    outcomes = [json.loads((tmp_path / d / "simulate.json").read_text())["outcomes"]
                for d in ("sweep", "per-n")]
    assert outcomes[0] == outcomes[1]


def test_simulate_reports_a_repeated_cycle_count_once(tmp_path, capsys):
    path = write_scenario(tmp_path, {"preset": "paper-short",
                                     "n_values": [0, 5, 3, 3, 12, 1, 64, 0, 2]})
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    with open(tmp_path / "simulate_events.csv", newline="") as fh:
        absorbed = [(row[0], row[1]) for row in list(csv.reader(fh))[2:] if row[2] == "absorbed"]
    outcomes = json.loads((tmp_path / "simulate.json").read_text())["outcomes"]
    assert len(set(absorbed)) == len(absorbed) == len(outcomes) == summary["outcomes"] == 21
    assert [n for label, n in absorbed if label == "H"] == ["0", "5", "3", "12", "1", "64", "2"]


@pytest.mark.parametrize("overrides", [
    # the low-loss device repeats each exit of the shared passages for every larger N
    dict(read_scenario(Path(__file__).parent.parent / "demos" / "low_loss_tail.json"),
         input_states=["D"], n_values=list(range(1, 201))),
    # at N = 40 the exits weigh nothing, so their fidelity cells stay blank
    {"preset": "paper-short", "input_states": ["D"], "n_values": [40]},
])
def test_simulate_builds_no_exit_density_matrix(monkeypatch, tmp_path, overrides):
    def refuse(self):
        raise AssertionError("simulate built an exit DensityMatrix")

    sc = resolve(overrides)
    with monkeypatch.context() as patched:
        patched.setattr(loopmem.engine.ExitEvent, "state", property(refuse))
        run(sc, "simulate", str(tmp_path))
    with open(tmp_path / "simulate_events.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    ((_, state),) = sc.input_states

    def cell(ev):  # the fidelity cell through the DensityMatrix path
        try:
            return fidelity(ev.state, state)
        except InvalidStateError:
            return None

    expected = []  # per row, in the table's order
    for out in simulate_sweep(sc.config, state, sc.n_values):
        expected += [cell(out.retrieved)] + [cell(ev) for ev in out.exits]
        expected += [None] * len(out.ejections)
        if out.tail is not None:
            expected += [cell(out.tail)] + [None] * (out.tail_ejected > 0)
        expected.append(None)  # absorbed
    assert len(rows) == len(expected)
    blank = [f is None for row, f in zip(rows, expected) if row[2] in ("retrieved", "exit")]
    assert any(blank) == (sc.n_values == (40,))
    for row, f in zip(rows, expected):
        assert (row[5] == "") == (f is None)
        if f is not None:
            assert abs(float(row[5]) - f) <= 1e-15


def test_simulate_failing_mid_table_leaves_no_file(tmp_path, capsys):
    # the drive cannot ramp in time for N = 2, so the sweep raises after the
    # table's header is written
    path = write_scenario(tmp_path, {"preset": "paper-short", "n_values": [1, 2],
                                     "memory": {"pc_rise_time": 40.0}})
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", path, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UnschedulableError"
    assert not (out / "simulate_events.csv").exists() and not list(out.glob("*.tmp"))


def test_cli_fig4_survives_negative_round_off_in_projections(tmp_path, capsys):
    # without the delay-line flip, D returns orthogonal to the 135 degree
    # analyzer at even cycle counts; at N = 8 that projection rounds to -7.7e-20
    path = write_scenario(tmp_path, {"preset": "paper-short", "memory": {
        "x_dl_enabled": False, "delay_static_phase": 0.3}})
    rc = main(["reproduce", "fig4", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err


def test_fig4_matches_the_recorded_lbfgs_run(tmp_path):
    # fig4_regression.json holds fig4 at seed 0: its fidelities as written when
    # each was a separate L-BFGS fit (the exact batch draws the same counts),
    # its visibilities and sigmas as the stacked SVD fit writes them
    recorded = json.loads((Path(__file__).parent / "fig4_regression.json").read_text())
    for preset, want in recorded["presets"].items():
        sc = resolve({"preset": preset, "seed": recorded["seed"]})
        run(sc, "reproduce", str(tmp_path / preset), figure="fig4")
        per_n = json.loads((tmp_path / preset / "fig4.json").read_text())["per_n"]
        assert per_n.keys() == want["per_n"].keys()
        for n, entry in want["per_n"].items():
            assert per_n[n].keys() == entry.keys()
            for key, value in entry.items():
                if key.startswith("fidelity"):
                    assert abs(per_n[n][key] - value) <= 1e-5, (preset, n, key)
                else:
                    assert per_n[n][key] == value, (preset, n, key)
        with open(tmp_path / preset / "fig4.csv", newline="") as fh:
            rows = list(csv.DictReader(fh.readlines()[1:]))
        assert {r["n_cycles"]: float(r["storage_time_ns"]) for r in rows} == want["storage_time_ns"]
        for r in rows:
            for key in ("visibility_h", "sigma_vh", "visibility_d", "sigma_vd",
                        "fidelity_h", "fidelity_d", "fidelity_r"):
                assert float(r[key]) == per_n[r["n_cycles"]][key]


def test_fig4_scans_a_repeated_n_once(tmp_path):
    outputs = {}
    for n_values in ([1, 2, 1], [1, 2]):
        where = tmp_path / str(len(n_values))
        run(resolve({"preset": "paper-short", "n_values": n_values}), "reproduce", str(where),
            figure="fig4")
        with open(where / "fig4.csv", newline="") as fh:
            rows = list(csv.DictReader(fh.readlines()[1:]))
        per_n = json.loads((where / "fig4.json").read_text())["per_n"]
        assert [r["n_cycles"] for r in rows] == list(per_n) == ["1", "2"]
        for r in rows:  # the table and the JSON hold the same runs
            assert {key: float(r[key]) for key in per_n[r["n_cycles"]]} == per_n[r["n_cycles"]]
        outputs[len(n_values)] = rows, per_n
    assert outputs[3] == outputs[2]


def test_cli_fig4_tomography_without_counts_exits_1(tmp_path, capsys, monkeypatch):
    original = loopmem.scenario.counts_from_dataset
    calls = []

    def counts(ds, mset):  # the fifth tomography, D at the second n, records nothing
        calls.append(ds)
        k = original(ds, mset)
        return 0.0 * k if len(calls) == 5 else k

    monkeypatch.setattr(loopmem.scenario, "counts_from_dataset", counts)
    rc = main(["reproduce", "fig4", "--preset", "paper-short", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoSignalError"
    assert "D at N=2" in err["message"]
    assert not (tmp_path / "fig4.json").exists()


def test_cli_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "envout"
    monkeypatch.setenv("LOOPMEM_OUT", str(target))
    rc = main(["budget", "--preset", "paper-improved"])
    capsys.readouterr()
    assert rc == 0
    assert (target / "budget.json").exists()


def test_cli_scenario_file_with_flags(tmp_path, capsys):
    path = write_scenario(tmp_path, {"preset": "paper-long", "seed": 4,
                                     "n_values": [1, 2, 3, 4]})
    rc = main(["decay", "--scenario", path, "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "decay.json").read_text())
    assert payload["metadata"]["seed"] == 4
    rows = [ln for ln in (tmp_path / "o" / "decay_counts.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 4 * 3  # header + 4 n-values x 3 states


def test_cli_flags_override_the_file_preset_and_seed(tmp_path, capsys):
    path = write_scenario(tmp_path, {"preset": "paper-long", "seed": 4, "n_values": [1, 2, 3]})
    for flags, preset, seed in (([], "paper-long", 4), (["--seed", "9"], "paper-long", 9),
                                (["--preset", "paper-short"], "paper-short", 4)):
        rc = main(["budget", "--scenario", path, "--out", str(tmp_path)] + flags)
        tail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # the file's other fields still override the preset the flag names
        want = resolve({"preset": preset, "n_values": [1, 2, 3]})
        assert rc == 0 and (tail["hash"], tail["seed"]) == (want.digest[:16], seed)
        payload = json.loads((tmp_path / "budget.json").read_text())
        assert payload["delta_tau"] == want.config.delta_tau


def test_cli_normalizes_huge_explicit_amplitudes(tmp_path, capsys):
    path = write_scenario(tmp_path, {"preset": "paper-short", "n_values": [1], "input_states": [
        {"label": "big", "alpha": [1e308, 1e308], "beta": [0, 0]}]})
    rc = main(["simulate", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err


def test_cli_reports_memory_exhaustion(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.91 TiB")

    monkeypatch.setattr(loopmem.scenario, "reconstruct_with_uncertainty", exhausted)
    rc = main(["tomo", "--preset", "paper-short", "--out", str(tmp_path)])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1 and err == {"error": "MemoryError", "message": "Unable to allocate 2.91 TiB"}


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 5000 + b"]" * 5000],
                         ids=["not-utf8", "nested-too-deep"])
def test_cli_unreadable_scenario_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["budget", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["field"] == "(file)"


def test_cli_fringe_fit_at_the_largest_accepted_flux(tmp_path, capsys):
    # 1e18 pairs: the weights 1/k of the bright angles vanish next to the
    # zero-count angle's, and the normal matrix of the fringe fit is singular
    path = write_scenario(tmp_path, {"preset": "paper-short", "input_states": ["D"],
                                     "source": {"pair_rate": 1e18 / 60}})
    rc = main(["malus", "--scenario", path, "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    fit = json.loads((tmp_path / "malus.json").read_text())["fits"]["D"]
    assert fit["visibility"] > 0.999


_LAZY_SCIPY = """
import sys
import loopmem, loopmem.cli
from loopmem.cli import main

assert "scipy" not in sys.modules, "importing loopmem imported scipy"
out, tomo_scenario = sys.argv[1], sys.argv[2]
for argv in (["simulate"], ["decay"], ["malus"], ["budget"],
             ["reproduce", "fig2c"], ["reproduce", "fig4"]):
    assert main(argv + ["--preset", "paper-short", "--out", out]) == 0, argv
    assert "scipy" not in sys.modules, f"{argv} imported scipy"
assert main(["tomo", "--scenario", tomo_scenario, "--out", out]) == 0
import scipy.optimize
assert loopmem.tomography.minimize is scipy.optimize.minimize
try:
    loopmem.tomography.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("loopmem.tomography.no_such_name resolved")
"""


def test_only_a_likelihood_fit_imports_scipy(tmp_path):
    # scipy's L-BFGS is bound on the first mle_reconstruct call; a fresh
    # process shows which pipelines load it
    tomo = write_scenario(tmp_path, {"preset": "paper-short", "mc_samples": 100})
    src = str(Path(loopmem.scenario.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY, str(tmp_path / "out"), tomo],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
