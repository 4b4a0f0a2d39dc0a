"""End-to-end acceptance checks.

Each test is one numbered criterion; the pytest -v line is the pass/fail
verdict and the printed values are the measured quantities behind it.
"""
import json
import math
import time

import numpy as np
import pytest

from loopmem.components import (
    CIRCULATOR_ARM, COUPLER, FIBER_SEGMENT, FPC, POCKELS_CELL, RETROREFLECTOR,
    ComponentSpec,
)
from loopmem.counting import DecayScan, TomographyScan, run_scan, synth_malus_dataset
from loopmem.engine import (
    MemoryConfig, TransmissionParams, derive_transmission_params, efficiency,
    simulate_storage, switch_schedule,
)
from loopmem.errors import UnschedulableError
from loopmem.fitting import fit_decay, fit_malus, lifetime_1e, project_budget
from loopmem.polarization import D, H, R, fidelity
from loopmem.scenario import preset_scenario, resolve, run
from loopmem.tomography import (
    MeasurementSet, counts_from_dataset, mle_reconstruct,
    reconstruct_with_uncertainty,
)

SHORT = TransmissionParams(0.541, 0.419, 0.50, 0.662)
LONG = TransmissionParams(0.541, 0.398, 0.44, 0.662)
MSET = MeasurementSet()


def random_param_config(rng) -> MemoryConfig:
    # sampled so both no-gain constraints hold by construction
    g22 = rng.uniform(0.3, 0.95)
    g12 = g22 * rng.uniform(0.5, 1.0)
    g23 = rng.uniform(0.3, 0.95)
    g13 = (g12 * g23 / g22) * rng.uniform(0.5, 1.0)
    params = TransmissionParams(g13, g12, g22, g23)
    return MemoryConfig.from_params(params, delta_tau=rng.uniform(20.0, 600.0))


def random_inventory_config(rng) -> MemoryConfig:
    def t():
        return rng.uniform(0.7, 1.0)
    delay = [ComponentSpec(FIBER_SEGMENT, length_m=rng.uniform(0.1, 20.0),
                           atten_db_per_km=rng.uniform(0.0, 5.0)),
             ComponentSpec(RETROREFLECTOR, t()), ComponentSpec(FPC)]
    if rng.random() < 0.5:
        delay.append(ComponentSpec(COUPLER, rng.uniform(0.8, 1.0)))
    return MemoryConfig(
        delta_tau=rng.uniform(20.0, 600.0),
        input_coupler=ComponentSpec(COUPLER, t()),
        loop_coupler=ComponentSpec(COUPLER, t()),
        output_coupler=ComponentSpec(COUPLER, t()),
        circulator_zone=(ComponentSpec(CIRCULATOR_ARM, t()),),
        switch_zone=(ComponentSpec(POCKELS_CELL, rng.uniform(0.8, 1.0)),),
        delay_zone=tuple(delay))


def test_criterion_01_closed_form_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        cfg = random_param_config(rng) if i < 25 else random_inventory_config(rng)
        params = derive_transmission_params(cfg)
        for n in range(0, 9):
            got = simulate_storage(cfg, H, n).retrieved_weight
            worst = max(worst, abs(got - efficiency(params, n)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst |simulated - closed form| = {worst:.3e}, "
          f"runtime {elapsed:.2f} s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_efficiency_scaling_recovery():
    # noiseless table must be exact
    cfg_s = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    ds = run_scan(cfg_s, H, DecayScan(), pair_rate=2000.0, acquisition_s=60.0,
                  seed=None)
    for counts, n in zip(ds.record_counts, range(1, 9)):
        want = 2000.0 * 60.0 * 0.419 * 0.50 ** (n - 1) * 0.662
        assert abs(counts - want) <= 1e-12 * want

    # sampled pipelines must bracket the per-cycle value within 3 sigma
    for label, params, dt, gamma in (("paper-short", SHORT, 36.5, 0.50),
                                     ("paper-long", LONG, 526.0, 0.44)):
        cfg = MemoryConfig.from_params(params, delta_tau=dt)
        rate = 1e4 / (efficiency(params, 1) * 60.0)  # peak mean 1e4 counts
        hits = 0
        pulls = []
        for seed in range(20):
            ds = run_scan(cfg, H, DecayScan(), pair_rate=rate,
                          acquisition_s=60.0, seed=3000 + seed)
            fit = fit_decay(list(ds.n_cycles), ds.counts())
            pulls.append((fit.gamma_per_cycle - gamma) / fit.sigma_gamma)
            if abs(fit.gamma_per_cycle - gamma) <= 3.0 * fit.sigma_gamma:
                hits += 1
        print(f"criterion 2 [{label}]: {hits}/20 seeds within 3 sigma of "
              f"{gamma}, max |pull| = {max(abs(p) for p in pulls):.2f}")
        assert hits == 20


def test_criterion_03_pass_through_efficiency():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    eta0 = simulate_storage(cfg, H, 0).retrieved_weight
    print(f"criterion 3: eta_0 = {eta0:.15f}")
    assert abs(eta0 - 0.541) <= 1e-12


def test_criterion_04_phase_cancellation():
    worst = 1.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        cfg = MemoryConfig.from_params(
            SHORT, delta_tau=36.5,
            delay_zone=(ComponentSpec(FIBER_SEGMENT, static_phase=float(phi)),
                        ComponentSpec(RETROREFLECTOR), ComponentSpec(FPC)))
        assert cfg.x_dl_enabled
        for n in range(1, 5):
            for state in (H, D, R):
                out = simulate_storage(cfg, state, n)
                worst = min(worst, fidelity(out.retrieved.state, state))
    print(f"criterion 4: minimum fidelity over 8 phases x N in [1,4] "
          f"x 3 states = {worst:.12f}")
    assert worst >= 1.0 - 1e-9


def test_criterion_05_rotation_error_manifests_as_loss():
    weights = []
    for eps in (0.02, 0.05, 0.1):
        cfg = MemoryConfig.from_params(
            SHORT, delta_tau=36.5,
            switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=eps),))
        out = simulate_storage(cfg, D, 3)
        fid = fidelity(out.retrieved.state, D)
        weights.append(out.retrieved_weight)
        print(f"criterion 5: eps={eps}: conditional fidelity {fid:.12f}, "
              f"retrieved weight {out.retrieved_weight:.6f}")
        assert fid >= 1.0 - 1e-9
    assert weights[0] > weights[1] > weights[2]


def test_criterion_06_tomography_recovery():
    # noiseless reconstructions
    cfg = MemoryConfig(delta_tau=36.5)
    for state in (H, D, R):
        ds = run_scan(cfg, state, TomographyScan(), pair_rate=2000.0, seed=None)
        res = mle_reconstruct(counts_from_dataset(ds, MSET), MSET, target=state)
        assert res.fidelity >= 0.9999

    # physicality on arbitrary data
    rng = np.random.default_rng(77)
    for _ in range(1000):
        res = mle_reconstruct(rng.uniform(1.0, 2000.0, size=4), MSET)
        eig = np.linalg.eigvalsh(res.rho.matrix)
        assert eig.min() >= -1e-10
        assert abs(np.trace(res.rho.matrix).real - 1.0) < 1e-9

    # closed loop at the papers' scale: inject a delay-line rotation tuned
    # to fidelity 0.90 for |R>, sample, reconstruct with the MC envelope
    eps = math.acos(math.sqrt(0.90))
    cfg_err = MemoryConfig.from_params(
        SHORT, delta_tau=36.5,
        delay_zone=(ComponentSpec(FIBER_SEGMENT),
                    ComponentSpec(RETROREFLECTOR),
                    ComponentSpec(FPC, rotation_error=eps)))
    rate = 1e4 / (efficiency(SHORT, 1) * 60.0)
    ds = run_scan(cfg_err, R, TomographyScan(), pair_rate=rate,
                  acquisition_s=60.0, seed=42)
    res = reconstruct_with_uncertainty(counts_from_dataset(ds, MSET), MSET, R,
                                       n_samples=10000, seed=0)
    print(f"criterion 6: reconstructed F = {res.fidelity:.4f}, "
          f"mc_std = {res.mc_std:.4f}, target 0.90, "
          f"pull = {(res.fidelity - 0.90) / res.mc_std:+.2f} sigma")
    assert abs(res.fidelity - 0.90) <= 3.0 * res.mc_std
    assert res.n_samples == 10000


def test_criterion_07_visibility_calibration():
    angles = tuple(np.linspace(0.0, math.pi, 13))
    for vis in (0.7646, 0.8609, 1.0):
        hits = 0
        for seed in range(50):
            ds = synth_malus_dataset(angles, 2e4 / (1.0 + vis), vis, 0.3,
                                     acquisition_s=1.0, seed=6000 + seed)
            fit = fit_malus(ds.values(), ds.counts())
            if abs(fit.visibility - vis) <= 3.0 * fit.sigma_visibility:
                hits += 1
        print(f"criterion 7: V={vis}: {hits}/50 seeds within 3 sigma")
        assert hits == 50


def test_criterion_08_budget_projections():
    improved = [
        ComponentSpec(COUPLER, 0.96), ComponentSpec(COUPLER, 0.96),
        ComponentSpec(COUPLER, 0.96), ComponentSpec(CIRCULATOR_ARM, 0.98),
        ComponentSpec(POCKELS_CELL, 0.99),
        ComponentSpec(FIBER_SEGMENT, length_m=0.5, atten_db_per_km=4.0),
        ComponentSpec(RETROREFLECTOR, 0.98), ComponentSpec(FPC),
    ]
    short = project_budget(improved, delta_tau=36.5)
    print(f"criterion 8: improved per-cycle = {short.per_cycle:.6f}")
    assert 0.88 <= short.per_cycle <= 0.92

    # 5 km plug-and-play delay keeps one 15% mating-sleeve connection
    km5 = [p for p in improved if p.kind != FIBER_SEGMENT]
    km5 += [ComponentSpec(FIBER_SEGMENT, length_m=5000.0, atten_db_per_km=4.0),
            ComponentSpec(COUPLER, 0.85)]
    nir = project_budget(km5, delta_tau=25000.0, wavelength_nm=780.0)
    telecom = project_budget(km5, delta_tau=25000.0, wavelength_nm=1550.0)
    print(f"criterion 8: 5 km fiber factor {nir.fiber_factor:.3e} at 780 nm, "
          f"per-cycle {telecom.per_cycle:.4f} at 1550 nm")
    assert abs(nir.fiber_factor - 1e-4) <= 0.01 * 1e-4
    assert 0.45 <= telecom.per_cycle <= 0.55

    cycles = lifetime_1e(0.99)
    print(f"criterion 8: 1/e lifetime at 0.99 per cycle = {cycles:.2f} cycles")
    assert 95.0 <= cycles <= 105.0


def test_criterion_09_schedulability_guard():
    for rise in (36.5, 40.0, 500.0):
        cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5, pc_rise_time=rise)
        with pytest.raises(UnschedulableError):
            switch_schedule(2, cfg)
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5, pc_rise_time=10.0)
    for n in range(0, 9):
        schedule = switch_schedule(n, cfg)
        assert schedule is not None
    print("criterion 9: rise >= delta_tau rejected, 10 ns on 36.5 ns accepted "
          "for N in [0,8]")


def test_criterion_10_reproduce_determinism(tmp_path):
    jobs = [
        ("fig2c", resolve({"preset": "paper-short", "seed": 8})),
        ("fig3", resolve({"preset": "paper-short", "seed": 8, "mc_samples": 60,
                          "malus_angles_deg": [0, 30, 60, 90, 120, 150, 180],
                          "n_values": [1, 2, 3]})),
        ("fig4", resolve({"preset": "paper-short", "seed": 8,
                          "n_values": [1, 2, 3]})),
    ]
    for figure, sc in jobs:
        dirs = (tmp_path / f"{figure}_a", tmp_path / f"{figure}_b")
        outputs = []
        for d in dirs:
            _, written = run(sc, "reproduce", str(d), figure=figure)
            outputs.append(sorted(written))
        assert outputs[0] and len(outputs[0]) == len(outputs[1])
        for pa, pb in zip(*outputs):
            ba, bb = open(pa, "rb").read(), open(pb, "rb").read()
            if pa.endswith(".csv"):
                assert ba == bb, f"{figure}: {pa} differs between reruns"
                continue
            docs = [json.loads(b) for b in (ba, bb)]
            for b, doc in zip((ba, bb), docs):  # one line, sorted keys
                assert b.decode() == json.dumps(doc, sort_keys=True) + "\n"
                del doc["metadata"]["generated_at"]
            assert docs[0] == docs[1], f"{figure}: {pa} values differ between reruns"
    print("criterion 10: fig2c/fig3/fig4 rerun CSVs are byte-identical, "
          "JSON values identical but for generated_at")
