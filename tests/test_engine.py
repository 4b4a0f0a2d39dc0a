import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from loopmem import engine
from loopmem.cli import main
from loopmem.components import (
    CIRCULATOR_ARM, COUPLER, FIBER_SEGMENT, FPC, MIRROR, OFF, ON, POCKELS_CELL,
    RETROREFLECTOR, ComponentSpec,
)
from loopmem.engine import (
    MemoryConfig, TransmissionParams, derive_transmission_params, efficiency,
    f8_path_trace, simulate_storage, simulate_sweep, switch_schedule,
)
from loopmem.errors import GainError, InvalidStateError, UnschedulableError
from loopmem.polarization import D, H, R, V, DensityMatrix, fidelity, make_pure
from loopmem.scenario import resolve

SHORT = TransmissionParams(0.541, 0.419, 0.50, 0.662)
LONG = TransmissionParams(0.541, 0.398, 0.44, 0.662)


def short_config(**kwargs):
    return MemoryConfig.from_params(SHORT, delta_tau=36.5, **kwargs)


# --- closed form ---

def test_efficiency_closed_form():
    assert efficiency(SHORT, 0) == 0.541
    assert abs(efficiency(SHORT, 1) - 0.419 * 0.662) < 1e-15
    assert abs(efficiency(SHORT, 4) - 0.419 * 0.5**3 * 0.662) < 1e-15


def test_efficiency_argument_validation():
    with pytest.raises(ValueError):
        efficiency(SHORT, 1.5)
    with pytest.raises(ValueError):
        efficiency(SHORT, -1)


@pytest.mark.parametrize("n", [1.5, -1, -0.0])
def test_efficiency_and_simulate_storage_refuse_a_cycle_count_alike(n):
    with pytest.raises(ValueError) as closed_form:
        efficiency(SHORT, n)
    with pytest.raises(ValueError) as simulated:
        simulate_storage(short_config(), H, n)
    assert str(closed_form.value) == str(simulated.value)


def test_transmission_params_range():
    with pytest.raises(GainError):
        TransmissionParams(1.2, 0.4, 0.5, 0.6)
    with pytest.raises(GainError):
        TransmissionParams(0.5, -0.1, 0.5, 0.6)


def test_config_rejects_inconsistent_params():
    with pytest.raises(GainError):
        # entry segment would amplify: g12 > g22
        MemoryConfig.from_params(TransmissionParams(0.5, 0.6, 0.5, 0.66), delta_tau=36.5)
    with pytest.raises(GainError):
        # pass-through correction would amplify: g13*g22 > g12*g23
        MemoryConfig.from_params(TransmissionParams(0.9, 0.419, 0.5, 0.662), delta_tau=36.5)


def test_config_timing_validation():
    with pytest.raises(InvalidStateError):
        MemoryConfig(delta_tau=0.0)
    with pytest.raises(InvalidStateError):
        MemoryConfig(delta_tau=36.5, coincidence_window=40.0)


# --- ideal memory ---

def test_ideal_memory_is_identity():
    cfg = MemoryConfig(delta_tau=36.5)
    for n in range(0, 6):
        for state in (H, D, R):
            out = simulate_storage(cfg, state, n)
            assert abs(out.retrieved_weight - 1.0) < 1e-12
            assert fidelity(out.retrieved.state, state) > 1 - 1e-12


def test_retrieval_time_and_gate():
    cfg = short_config()
    for n in (0, 1, 3):
        out = simulate_storage(cfg, H, n)
        expected = (cfg.delay_line_compensation + cfg.pass_through_time
                    + n * cfg.delta_tau)
        assert abs(out.retrieved.time - expected) < 1e-9


def test_retrieval_is_the_release_passage_at_any_valid_window():
    # a 1e-13 ns window is narrower than the rounding of the passage times
    wide, narrow = short_config(), short_config(coincidence_window=1e-13)
    for n in range(65):
        out, ref = simulate_storage(narrow, D, n), simulate_storage(wide, D, n)
        assert any(e is out.retrieved for e in out.exits)
        assert (out.retrieved.time, out.retrieved.rho) == (ref.retrieved.time, ref.retrieved.rho)


def test_weight_balance_closes():
    cfg = short_config()
    for n in (0, 1, 2, 5):
        out = simulate_storage(cfg, D, n)
        assert abs(out.weight_balance() - 1.0) < 1e-9


# --- lumped-parameter mode ---

def test_params_mode_matches_closed_form():
    cfg = short_config()
    for n in range(0, 9):
        out = simulate_storage(cfg, H, n)
        assert abs(out.retrieved_weight - efficiency(SHORT, n)) < 1e-12
    # N=3 spelled out
    assert abs(simulate_storage(cfg, H, 3).retrieved_weight
               - 0.419 * 0.25 * 0.662) < 1e-12


def test_params_mode_polarization_independent():
    cfg = MemoryConfig.from_params(LONG, delta_tau=526.0)
    for n in (0, 2, 4):
        w = {s.alpha: simulate_storage(cfg, s, n).retrieved_weight for s in (H, D, R)}
        vals = list(w.values())
        assert max(vals) - min(vals) < 1e-12


def test_derive_round_trips_params():
    cfg = short_config()
    assert derive_transmission_params(cfg) == SHORT


# --- inventory mode ---

def measured_inventory(length_m=0.5):
    # transmissions follow the measured per-segment loss budget of the
    # device this models: 13% per coupler, 15% circulator ejection, 7%
    # PBS/mirror absorption, 10% switch pass, 19% retroreflector, 15%
    # connectors, fiber attenuation by length
    return MemoryConfig(
        delta_tau=36.5,
        input_coupler=ComponentSpec(COUPLER, 0.87),
        output_coupler=ComponentSpec(COUPLER, 0.87),
        loop_coupler=ComponentSpec(COUPLER, 0.87),
        circulator_zone=(ComponentSpec(CIRCULATOR_ARM, 0.85), ComponentSpec(MIRROR, 0.93)),
        switch_zone=(ComponentSpec(POCKELS_CELL, 0.90),),
        delay_zone=(ComponentSpec(FIBER_SEGMENT, length_m=length_m, atten_db_per_km=4.0),
                    ComponentSpec(RETROREFLECTOR, 0.81),
                    ComponentSpec(COUPLER, 0.85),
                    ComponentSpec(FPC)),
    )


def test_inventory_per_cycle_in_measured_band():
    p = derive_transmission_params(measured_inventory())
    assert 0.46 <= p.g22 <= 0.53


def test_inventory_mode_matches_closed_form():
    cfg = measured_inventory()
    p = derive_transmission_params(cfg)
    for n in range(0, 9):
        out = simulate_storage(cfg, D, n)
        assert abs(out.retrieved_weight - efficiency(p, n)) < 1e-9


def test_longer_fiber_lowers_per_cycle():
    p_short = derive_transmission_params(measured_inventory(0.5))
    p_long = derive_transmission_params(measured_inventory(50.0))
    assert p_long.g22 < p_short.g22
    assert p_long.g13 == p_short.g13  # pass-through never samples the fiber


# --- polarization errors ---

def test_switch_rotation_error_is_pure_loss():
    # each ON passage leaks sin^2(eps) out early; what survives is unrotated
    for eps in (0.02, 0.1):
        cfg = short_config(switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=eps),))
        out = simulate_storage(cfg, D, 3)
        expected = efficiency(SHORT, 3) * math.cos(eps) ** 4
        assert abs(out.retrieved_weight - expected) < 1e-12
        assert fidelity(out.retrieved.state, D) > 1 - 1e-9
        leaks = [ev for ev in out.exits if ev is not out.retrieved]
        assert len(leaks) == 2  # one per driven passage
        assert all(ev.time < out.retrieved.time for ev in leaks)


def test_delay_rotation_error_is_pure_rotation():
    eps = math.acos(math.sqrt(0.90))
    cfg = short_config(delay_zone=(
        ComponentSpec(FIBER_SEGMENT, length_m=7.3),
        ComponentSpec(RETROREFLECTOR),
        ComponentSpec(FPC, rotation_error=eps)))
    out = simulate_storage(cfg, R, 1)
    assert abs(out.retrieved_weight - efficiency(SHORT, 1)) < 1e-12
    assert abs(fidelity(out.retrieved.state, R) - 0.90) < 1e-9


def test_delay_phase_cancels_with_compensator():
    for phi in (0.9, 4.1):
        cfg = MemoryConfig(delta_tau=36.5, delay_zone=(
            ComponentSpec(FIBER_SEGMENT, static_phase=phi),
            ComponentSpec(RETROREFLECTOR), ComponentSpec(FPC)))
        out = simulate_storage(cfg, R, 2)
        assert fidelity(out.retrieved.state, R) > 1 - 1e-9


def test_delay_phase_corrupts_without_compensator():
    cfg = MemoryConfig(delta_tau=36.5, x_dl_enabled=False, delay_zone=(
        ComponentSpec(FIBER_SEGMENT, static_phase=1.0),
        ComponentSpec(RETROREFLECTOR), ComponentSpec(FPC)))
    out = simulate_storage(cfg, R, 1)
    assert fidelity(out.retrieved.state, R) < 0.95


def test_circulator_arm_phase_drops_out():
    for phi in (0.7, 2.9):
        cfg = MemoryConfig(delta_tau=36.5,
                           circulator_zone=(ComponentSpec(CIRCULATOR_ARM, static_phase=phi),))
        for n in (0, 2):
            out = simulate_storage(cfg, R, n)
            assert fidelity(out.retrieved.state, R) > 1 - 1e-9


def regression_configs():
    """The lossy, phased devices whose outcomes engine_regression.json records."""
    inventory = MemoryConfig(
        delta_tau=36.5,
        input_coupler=ComponentSpec(COUPLER, 0.96), loop_coupler=ComponentSpec(COUPLER, 0.96),
        output_coupler=ComponentSpec(COUPLER, 0.96),
        circulator_zone=(ComponentSpec(CIRCULATOR_ARM, 0.98),),
        switch_zone=(ComponentSpec(POCKELS_CELL, (0.9, 0.8), rotation_error=0.05, static_phase=0.4),
                     ComponentSpec(COUPLER, (0.97, 0.95))),
        delay_zone=(ComponentSpec(FIBER_SEGMENT, length_m=0.5, atten_db_per_km=4.0),
                    ComponentSpec(RETROREFLECTOR, 0.98), ComponentSpec(FPC)))
    lumped = short_config(
        circulator_zone=(ComponentSpec(CIRCULATOR_ARM, static_phase=0.2),),
        switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),),
        delay_zone=(ComponentSpec(FIBER_SEGMENT, length_m=0.5, static_phase=0.3),
                    ComponentSpec(RETROREFLECTOR), ComponentSpec(FPC, rotation_error=0.03)))
    # N = 0 keeps the cell on, so this device leaks for thousands of passages
    low_loss = MemoryConfig.from_params(
        TransmissionParams(0.98, 0.98, 0.99, 0.99), delta_tau=36.5,
        switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.01),))
    short_pc = short_config(switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))
    return {"inventory": inventory, "lumped": lumped, "low-loss": low_loss,
            "paper-short+pc0.05": short_pc}


def test_lossy_phased_switch_matches_recorded_outcomes():
    # engine_regression.json holds outcomes for D recorded before the switch
    # and zone operators were composed from the components/polarization primitives;
    # the low-loss and paper-short+pc0.05 cases were recorded before the passage
    # loop moved from numpy vectors to complex scalars.  The recording listed
    # every passage up to 512 past release and every ejection; the engine now
    # lists 64 passages past release, and ejections above 1e-16, and sums the rest
    recorded = json.loads((Path(__file__).parent / "engine_regression.json").read_text())
    configs = regression_configs()
    cases = [(f"{name}/N={n}", configs[name], n) for name in ("inventory", "lumped") for n in (0, 1, 3)]
    cases += [("low-loss/N=0", configs["low-loss"], 0),
              ("paper-short+pc0.05/N=64", configs["paper-short+pc0.05"], 64)]
    tails = set()
    for key, cfg, n in cases:
        want = recorded[key]
        out = simulate_storage(cfg, D, n)
        assert abs(out.retrieved_weight - want["retrieved_weight"]) < 1e-12
        if want["fidelity"] is None:  # retrieved weight too small to condition on
            assert out.retrieved_weight < 1e-12
        else:
            assert abs(fidelity(out.retrieved.state, D) - want["fidelity"]) < 1e-12
        last_listed = out.retrieved.time + 64 * cfg.delta_tau + 1e-6
        want_exits = [e for e in want["exits"] if e[0] < last_listed]
        want_ej = [e for e in want["ejections"] if e[0] < last_listed and e[1] > 1e-16]
        exits = [(ev.time, ev.weight) for ev in out.exits]
        np.testing.assert_allclose(np.reshape(exits, (-1, 2)), np.reshape(want_exits, (-1, 2)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.reshape(out.ejections, (-1, 2)),
                                   np.reshape(want_ej, (-1, 2)), rtol=0, atol=1e-12)
        # what the recording listed beyond that, plus its absorbed weight, is
        # now the tail plus absorbed
        remainder = sum(w for _, w in want["exits"] + want["ejections"])
        remainder -= sum(w for _, w in want_exits + want_ej)
        tail = out.tail_ejected + (0.0 if out.tail is None else out.tail.weight)
        assert abs(out.absorbed + tail - (want["absorbed"] + remainder)) < 1e-12
        if out.tail is not None:
            tails.add(key)
            assert out.tail.time > out.exits[-1].time
    assert tails == {"inventory/N=0", "low-loss/N=0"}


def assert_same_outcome(out, ref):
    """Equal to the last bit: every event, weight and state entry."""
    assert (out.n_cycles, out.input_state) == (ref.n_cycles, ref.input_state)
    assert [(ev.time, ev.weight) for ev in out.exits] == [(ev.time, ev.weight) for ev in ref.exits]
    for ev, ev_ref in zip(out.exits, ref.exits):
        assert np.array_equal(ev.state.matrix, ev_ref.state.matrix)
    assert out.ejections == ref.ejections
    assert out.absorbed == ref.absorbed and out.tail_ejected == ref.tail_ejected
    assert out.balance == ref.balance
    assert (out.tail is None) == (ref.tail is None)
    if out.tail is not None:
        assert (out.tail.time, out.tail.weight) == (ref.tail.time, ref.tail.weight)
        assert np.array_equal(out.tail.state.matrix, ref.tail.state.matrix)
    assert (out.retrieved.time, out.retrieved.rho) == (ref.retrieved.time, ref.retrieved.rho)
    assert not any(isinstance(v, list) for v in vars(out).values())


def test_sweep_matches_one_propagation_per_n():
    configs = regression_configs()
    for preset in ("paper-short", "paper-long"):
        configs[preset] = resolve({"preset": preset, "memory": {"pc_rotation_error": 0.05}}).config
    n_values = (5, 0, 3, 3, 64, 1)
    elliptic = make_pure(0.8, 0.36 - 0.48j)
    for cfg in configs.values():
        # each branch comes out as it does alone
        for state in (H, D, R, elliptic):
            sweep = simulate_sweep(cfg, state, n_values)
            assert [out.n_cycles for out in sweep] == list(n_values)
            for n, out in zip(n_values, sweep):
                (alone,) = simulate_sweep(cfg, state, (n,))
                assert_same_outcome(out, alone)
                assert abs(out.balance - out.weight_balance()) < 1e-13
    assert simulate_sweep(short_config(), D, ()) == ()
    with pytest.raises(ValueError):
        simulate_sweep(short_config(), D, (3, -1))
    with pytest.raises(UnschedulableError):
        simulate_sweep(short_config(pc_rise_time=40.0), D, (1, 2))


def test_retrieved_exits_are_the_booked_retrieved_entries():
    # count synthesis propagates only the amplitude that meets each release
    # passage, and books nothing; its entries are the booked ones to the bit
    configs = regression_configs()  # the low-loss lumped device among them
    for preset in ("paper-short", "paper-long", "paper-improved"):
        configs[preset] = resolve({"preset": preset}).config
    elliptic = make_pure(0.8, 0.36 - 0.48j)
    state_sets = ((H, D, R, elliptic), (elliptic, R), (D,), ())
    n_sets = ((5, 0, 3, 3, 64, 1), (12, 2, 2, 0), tuple(range(1, 65)), (1,), (0,), ())
    for cfg in configs.values():
        for states in state_sets:
            for n_values in n_sets:
                got = engine.retrieved_exits(cfg, states, n_values)
                assert got.shape == (4, len(states), len(n_values))
                for s, state in enumerate(states):
                    for i, out in enumerate(simulate_sweep(cfg, state, n_values)):
                        hh, hv, vv = out.retrieved.rho
                        want = np.array([hh, vv, hv.real, hv.imag])
                        assert got[:, s, i].tobytes() == want.tobytes()


def test_a_sweep_builds_one_schedule_per_class(monkeypatch):
    # N = 0 arms the cell early, N = 1 never drives it, and every N >= 2 differs
    # only in its last ramp, which the largest N's schedule places
    built = []

    def schedule(n, cfg):
        built.append(n)
        return switch_schedule(n, cfg)

    monkeypatch.setattr(engine, "switch_schedule", schedule)
    cfg = short_config(switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))
    sweep = simulate_sweep(cfg, D, (5, 0, 3, 3, 64, 1, 2))
    assert sorted(built) == [0, 1, 64]
    assert not hasattr(sweep[0], "schedule")
    built.clear()
    sweep = simulate_sweep(cfg, D, (7, 2))
    assert built == [7]
    assert_same_outcome(sweep[1], simulate_storage(cfg, D, 2))


def test_the_conservation_check_fires():
    # switch passages with 0.1 % amplitude gain book more weight than came in
    # (the lumped device's cell is lossless, so no loss can hide the gain)
    cfg = short_config(switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))
    plumb = cfg._plumbing  # this config's own, which no other test reads
    for passages in (plumb.first_passage, plumb.later_passage):
        for level, ops in passages.items():
            passages[level] = tuple(tuple(1.001 * entry for entry in op) for op in ops)
    for state in (H, D):
        with pytest.raises(InvalidStateError, match="probability not conserved"):
            simulate_sweep(cfg, state, tuple(range(1, 65)))
    with pytest.raises(InvalidStateError, match="probability not conserved"):
        simulate_sweep(cfg, D, (3,))


def lossless_config(eps):
    return MemoryConfig.from_params(
        TransmissionParams(1.0, 1.0, 1.0, 1.0), delta_tau=36.5,
        switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=eps),))


def test_leakage_tail_matches_closed_form():
    # lossless device, cell left on: passage 1 keeps sin^2(eps) circulating and
    # every later passage keeps cos^2(eps) of it, so after the 65 listed
    # passages sin^2(eps) cos^(2*64)(eps) circulates, and all of it exits.  At
    # eps = 1e-4 each later exit weighs sin^4(eps) < 1e-16, below the listing
    # cutoff, so the tail also carries the 64 unlisted ones: sin^2(eps) in all.
    # There the per-passage decay 1 - cos^2(eps) = 1e-8 is known from the
    # operator entries only to about 1e-8 relative, so the sum is exact to
    # about 1e-16 absolute
    for eps in (0.01, 0.2, 1e-4):
        cfg = lossless_config(eps)
        for state in (H, D, R):
            out = simulate_storage(cfg, state, 0)
            if eps > 1e-3:
                assert len(out.exits) == 65  # every passage leaks an exit
                expected = math.sin(eps) ** 2 * math.cos(eps) ** (2 * 64)
            else:
                assert out.exits == (out.retrieved,)
                expected = math.sin(eps) ** 2
            assert abs(out.tail.weight - expected) < max(1e-12 * expected, 1e-15)
            assert out.tail.weight == out.tail.state.weight
            assert out.tail.time == out.retrieved.time + 65 * cfg.delta_tau
            assert out.tail_ejected == 0.0 and out.ejections == ()
            assert out.absorbed < 1e-12
            assert abs(out.weight_balance() - 1.0) < 1e-13
            m = out.tail.state.matrix
            assert np.array_equal(m, m.conj().T) and np.linalg.eigvalsh(m).min() >= -1e-15
        out = simulate_storage(cfg, D, 1)
        assert out.tail is None and out.tail_ejected == 0.0


def test_leakage_tail_matches_long_propagation(monkeypatch):
    # reference: list every event, however light, for 5000 passages past
    # release, and sum what lies past the 65 passages the engine lists.  The
    # weight left after those is below 1e-25, and summed exactly too
    configs = regression_configs()
    # birefringence in the delay line makes the round trip a complex map
    configs["low-loss+phase"] = replace(configs["low-loss"], delay_zone=(
        ComponentSpec(FIBER_SEGMENT, length_m=0.5, static_phase=0.3),
        ComponentSpec(RETROREFLECTOR), ComponentSpec(FPC, rotation_error=0.03)))
    short = {}
    for name in ("low-loss", "low-loss+phase", "inventory"):
        for state in (H, D, R):
            short[name, state] = simulate_storage(configs[name], state, 0)
    monkeypatch.setattr(engine, "_LISTED_PASSES", 5000)
    monkeypatch.setattr(engine, "_RESIDUAL_CUTOFF", 0.0)
    for (name, state), out in short.items():
        full = simulate_storage(configs[name], state, 0)
        listed = {ev.time: ev.weight for ev in full.exits}
        assert all(listed[ev.time] == ev.weight for ev in out.exits)
        late = sum(ev.state.matrix for ev in full.exits if ev.time >= out.tail.time)
        late_ej = sum(w for t, w in full.ejections if t >= out.tail.time)
        if full.tail is not None:
            late = late + full.tail.state.matrix
            late_ej += full.tail_ejected
        np.testing.assert_allclose(out.tail.state.matrix, late, rtol=0,
                                   atol=1e-11 * out.tail.weight)
        assert abs(out.tail_ejected - late_ej) <= 1e-11 * late_ej
        assert abs(out.absorbed - full.absorbed) < 1e-14
        assert abs(out.weight_balance() - 1.0) < 1e-13
    assert short["inventory", D].tail_ejected > 1e-14


def test_light_ejections_are_summed_not_listed():
    # with its lossy, rotated cell the inventory device at N = 0 ejects at every
    # passage; 129 ejections, 80 of them below 1e-12, were once listed one by one
    out = simulate_storage(regression_configs()["inventory"], D, 0)
    assert all(w > 1e-16 for _, w in out.ejections)
    assert all(t < out.tail.time for t, _ in out.ejections)
    assert len(out.ejections) <= 66  # the entry ejection and one per listed passage
    # the inventory preset's storage passages eject rounding residue (about
    # 5e-35 each, from cos(pi/2) in the driven cell); only entry and release count
    out = simulate_storage(resolve({"preset": "paper-improved"}).config, D, 8)
    assert [t for t, _ in out.ejections] == [495.0, out.retrieved.time]
    assert out.tail is None and abs(out.weight_balance() - 1.0) < 1e-13


def test_undecaying_tail_is_an_error():
    # a perfect cell left on stores everything at every later passage
    cfg = lossless_config(0.0)
    plumb = cfg._plumbing
    assert plumb.stein(ON) is None
    assert plumb.stein(OFF) is not None
    with pytest.raises(InvalidStateError, match="never decays"):
        engine._close(plumb, ON, 2870.0, engine._Account(0.6 + 0j, 0.8j, 1.0))
    # the passage-1 release leaves only rounding residue, so the call itself succeeds
    assert simulate_storage(cfg, D, 0).tail is None


def test_a_tail_kept_only_by_round_off_is_absorbed(tmp_path):
    # at eps = 1.04e-8 cos(eps) rounds to 1, so the cell left on keeps the
    # sin^2(eps) = 1.08e-16 it let in at passage 1, just above the 1e-16 cut
    eps = 1.04e-8
    cfg = lossless_config(eps)
    assert cfg._plumbing.stein(ON) is None
    for state in (H, D, R):
        out = simulate_storage(cfg, state, 0)
        assert out.tail is None and out.absorbed < 1e-15
        assert abs(out.weight_balance() - 1.0) < 1e-12
    scenario = tmp_path / "lossless.json"
    scenario.write_text(json.dumps({
        "preset": "paper-short", "n_values": [0, 1, 2],
        "memory": {"params": {"g13": 1.0, "g12": 1.0, "g22": 1.0, "g23": 1.0},
                   "pc_rotation_error": eps}}))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0


def test_exit_states_are_trusted_rank_one_states():
    inventory = MemoryConfig(
        delta_tau=36.5,
        circulator_zone=(ComponentSpec(CIRCULATOR_ARM, 0.98, static_phase=0.3),),
        switch_zone=(ComponentSpec(POCKELS_CELL, (0.9, 0.8), rotation_error=0.05, static_phase=0.4),),
        delay_zone=(ComponentSpec(FIBER_SEGMENT, length_m=0.5, atten_db_per_km=4.0, static_phase=0.2),
                    ComponentSpec(RETROREFLECTOR, 0.98), ComponentSpec(FPC, rotation_error=0.03)))
    lumped = short_config(switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))
    for cfg in (inventory, lumped):
        for state in (H, D, R):
            for n in (0, 2, 9):
                for ev in simulate_storage(cfg, state, n).exits:
                    m = ev.state.matrix
                    assert not m.flags.writeable
                    assert np.array_equal(m, m.conj().T)
                    assert np.linalg.eigvalsh(m).min() >= -1e-15
                    assert float(m.trace().real) == ev.weight
                    DensityMatrix(m)  # passes the public constructor's checks


# --- schedule ---

def test_schedule_n0_arms_early():
    cfg = short_config()
    s = switch_schedule(0, cfg)
    assert s.transitions == ((cfg.herald_latency, ON),)


def test_schedule_n1_never_fires():
    s = switch_schedule(1, short_config())
    assert s.transitions == ()


def test_schedule_n3_ramp_placement():
    cfg = short_config()
    s = switch_schedule(3, cfg)
    (t_on, lv_on), (t_off, lv_off) = s.transitions
    assert (lv_on, lv_off) == (ON, OFF)
    t1 = cfg.delay_line_compensation + cfg.pass_through_time / 2.0
    # each ramp centered in its inter-passage window
    assert abs((t_on + cfg.pc_rise_time / 2.0) - (t1 + cfg.delta_tau / 2.0)) < 1e-9
    assert abs((t_off + cfg.pc_rise_time / 2.0) - (t1 + 2.5 * cfg.delta_tau)) < 1e-9


def test_schedule_rejects_slow_rise():
    with pytest.raises(UnschedulableError):
        switch_schedule(2, short_config(pc_rise_time=40.0))
    # boundary: equal to delta_tau is also impossible
    with pytest.raises(UnschedulableError):
        switch_schedule(2, short_config(pc_rise_time=36.5))
    # the hardware's actual figures fit
    assert len(switch_schedule(2, short_config(pc_rise_time=10.0)).transitions) == 2


def test_schedule_rejects_late_herald_for_passthrough():
    with pytest.raises(UnschedulableError):
        switch_schedule(0, short_config(herald_latency=499.0))


def test_schedule_argument_validation():
    with pytest.raises(ValueError):
        switch_schedule(-1, short_config())
    with pytest.raises(ValueError):
        switch_schedule(1.5, short_config())


# --- path bookkeeping ---

def test_f8_paths_n1():
    tr = f8_path_trace(1)
    assert tr.h_path == ("M4", "M2", "M3", "storage", "M2", "M3", "M1")
    assert tr.v_path == ("M1", "M3", "M2", "storage", "M3", "M2", "M4")


def test_f8_paths_are_mirror_swapped_reversals():
    swap = {"M1": "M4", "M4": "M1", "M2": "M3", "M3": "M2", "storage": "storage"}
    for n in range(0, 5):
        tr = f8_path_trace(n)
        assert tr.v_path == tuple(swap[m] for m in tr.h_path)
        assert tr.v_path == tuple(reversed(tr.h_path))
        assert tr.h_path.count("storage") == n
