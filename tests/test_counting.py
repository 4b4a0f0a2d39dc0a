import math

import numpy as np
import pytest

import loopmem.counting
from loopmem import scenario
from loopmem.components import POCKELS_CELL, ComponentSpec
from loopmem.counting import (
    CountRecord, DecayScan, MalusScan, TomographyScan, _pcg64_states, draw_counts,
    expected_rate, malus_mean, read_csv, record_seed, run_scan, run_scans, sample_counts,
    synth_malus_dataset, write_csv,
)
from loopmem.engine import MemoryConfig, TransmissionParams, efficiency, simulate_storage
from loopmem.errors import SchemaError
from loopmem.polarization import D, H, R, V, make_pure

SHORT = TransmissionParams(0.541, 0.419, 0.50, 0.662)
IDEAL = MemoryConfig(delta_tau=36.5)


def test_expected_rate_projection():
    out = simulate_storage(IDEAL, H, 1)
    assert abs(expected_rate(out, H, 2000.0, 1.0) - 2000.0) < 1e-9
    assert expected_rate(out, V, 2000.0, 1.0) < 1e-12
    assert abs(expected_rate(out, D, 2000.0, 0.5) - 500.0) < 1e-9


def test_expected_rate_scales_with_efficiency():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    out = simulate_storage(cfg, H, 3)
    want = 2000.0 * efficiency(SHORT, 3)
    assert abs(expected_rate(out, H, 2000.0, 1.0) - want) < 1e-9


def test_expected_rate_validation():
    out = simulate_storage(IDEAL, H, 0)
    with pytest.raises(ValueError):
        expected_rate(out, H, -1.0, 1.0)
    with pytest.raises(ValueError):
        expected_rate(out, H, 2000.0, 1.5)


def test_sample_counts_noiseless_is_exact_mean():
    assert sample_counts(2.5, 2.0, None) == 5.0
    assert sample_counts(0.0, 60.0, None) == 0.0


def test_sample_counts_seeded_reproducible():
    a = sample_counts(100.0, 60.0, 7)
    b = sample_counts(100.0, 60.0, 7)
    assert a == b
    assert a == float(int(a))  # integer-valued draw
    draws = {sample_counts(100.0, 60.0, s) for s in range(20)}
    assert len(draws) > 1


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts(-1.0, 60.0, None)
    with pytest.raises(ValueError):
        sample_counts(math.inf, 60.0, None)


def test_record_seed_is_stable_and_independent():
    assert record_seed(None, 3) is None
    assert record_seed(5, 0) == record_seed(5, 0)
    assert record_seed(5, 0) != record_seed(5, 1)
    assert record_seed(5, 2) != record_seed(6, 2)


def test_decay_scan_noiseless_matches_closed_form():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    ds = run_scan(cfg, H, DecayScan(), pair_rate=2000.0, acquisition_s=60.0, seed=None)
    assert ds.kind == "decay"
    assert [r.setting_label for r in ds.records] == ["n_cycles"] * 8
    for rec, n in zip(ds.records, range(1, 9)):
        want = 2000.0 * 60.0 * efficiency(SHORT, n)
        assert abs(rec.counts - want) < 1e-9 * want
        assert rec.setting_value == float(n)


@pytest.mark.parametrize("seed", [None, 7])
def test_decay_scan_matches_per_n_storage_loop(seed):
    # the scan propagates the sweep once; each record must be what a separate
    # simulate_storage call per N gives
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5,
                                   switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))
    ds = run_scan(cfg, D, DecayScan(tuple(range(1, 65))), pair_rate=2000.0,
                  acquisition_s=60.0, seed=seed)
    want = []
    for i, n in enumerate(range(1, 65)):
        rate = expected_rate(simulate_storage(cfg, D, n), D, 2000.0, 1.0)
        sub = record_seed(seed, i)
        want.append(CountRecord("n_cycles", float(n), sample_counts(rate, 60.0, sub), 60.0, n, sub))
    assert ds.records == tuple(want)


def test_malus_scan_noiseless_traces_fringe():
    angles = np.linspace(0.0, math.pi, 13)
    ds = run_scan(IDEAL, D, MalusScan(tuple(angles)), pair_rate=2000.0,
                  acquisition_s=10.0, seed=None)
    assert ds.kind == "malus"
    for rec in ds.records:
        want = malus_mean(rec.setting_value, 2000.0, 1.0, math.pi / 4.0) * 10.0
        assert abs(rec.counts - want) < 1e-9


def test_tomography_scan_labels_and_counts():
    ds = run_scan(IDEAL, R, TomographyScan(), pair_rate=2000.0,
                  acquisition_s=60.0, seed=None)
    assert ds.kind == "tomography"
    assert [r.setting_label for r in ds.records] == ["H", "V", "D", "R"]
    counts = ds.counts()
    assert np.allclose(counts, [60000.0, 60000.0, 60000.0, 120000.0])


def test_run_scan_seeded_deterministic():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    a = run_scan(cfg, H, DecayScan((1, 2, 3)), seed=11)
    b = run_scan(cfg, H, DecayScan((1, 2, 3)), seed=11)
    assert a == b
    assert [r.seed for r in a.records] == [record_seed(11, i) for i in range(3)]
    c = run_scan(cfg, H, DecayScan((1, 2, 3)), seed=12)
    assert a.counts().tolist() != c.counts().tolist()


def test_dataset_accessors():
    ds = run_scan(IDEAL, D, MalusScan((0.0, 0.5, 1.0, 1.5, 3.2)), seed=None)
    assert ds.values().tolist() == [0.0, 0.5, 1.0, 1.5, 3.2]
    assert ds.counts().shape == (5,)


def test_synth_malus_noiseless_equals_model():
    angles = np.linspace(0.0, math.pi, 9)
    ds = synth_malus_dataset(tuple(angles), 5000.0, 0.8, 0.3,
                             acquisition_s=2.0, seed=None)
    for rec in ds.records:
        assert rec.counts == malus_mean(rec.setting_value, 5000.0, 0.8, 0.3) * 2.0


def test_csv_round_trip(tmp_path):
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    ds = run_scan(cfg, H, DecayScan(), seed=42)
    path = tmp_path / "decay.csv"
    write_csv(ds, path)
    assert b"\r" not in path.read_bytes()
    assert read_csv(path) == ds


def test_csv_rejects_missing_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("setting_label,setting_value,counts,acquisition_s,n_cycles,seed\n")
    with pytest.raises(SchemaError) as err:
        read_csv(path)
    assert err.value.field == "header"


def test_csv_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kind=malus pair_rate=1.0 detection_eff=1.0 acquisition_s=1.0 seed=None\n"
                    "angle,counts\n0.0,5\n")
    with pytest.raises(SchemaError):
        read_csv(path)


# master seeds of one to ten uint32 words, on both sides of each word boundary
MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**299 + 12345)


def test_batched_sub_seeds_equal_record_seed():
    drawn = draw_counts([(m, [0.0] * 301) for m in MASTERS])
    for master, (counts, subs) in zip(MASTERS, drawn):
        assert subs == [record_seed(master, i) for i in range(301)]
        assert counts == [0.0] * 301


def test_batched_generator_state_equals_default_rng():
    subs = draw_counts([(m, [0.0] * 40) for m in MASTERS])
    subs = [sub for _, seeds in subs for sub in seeds] + [0, 1, 2**32 - 1]
    for sub, (state, inc) in zip(subs, _pcg64_states(subs)):
        want = np.random.default_rng(sub).bit_generator.state
        assert {"state": state, "inc": inc} == want["state"]
        assert want["has_uint32"] == 0 and want["uinteger"] == 0


@pytest.mark.parametrize("jobs", [
    # few records, seeded one by one, and enough for the vectorized hash
    [(5, [0.0, 0.7, 3.0]), (None, [2.5, 0.0]), (2**40, [7.0])],
    [(5, [0.0, 0.7, 3.0, 9.99, 10.0, 2.5e4, 1e12]), (None, [2.5, 0.0]), (2**40, [7.0])],
])
def test_draw_counts_match_one_seed_draws(jobs):
    drawn = draw_counts(jobs)
    assert drawn[1] == ([2.5, 0.0], [None, None])
    for (master, means), (counts, subs) in zip(jobs, drawn):
        if master is not None:
            assert counts == [sample_counts(mu, 1.0, record_seed(master, i))
                              for i, mu in enumerate(means)]


def _mixed_jobs(seeds):
    angles = tuple(np.linspace(0.0, math.pi, 7))
    plans = (DecayScan((1, 2, 3, 5)), MalusScan(angles, 2), TomographyScan(3),
             TomographyScan(0), MalusScan(angles, 1), DecayScan((4, 2)))
    states = (H, D, R, D, make_pure(0.8, 0.6j), R)
    return [(state, plan, seed) for state, plan, seed in zip(states, plans, seeds)]


PC = MemoryConfig.from_params(SHORT, delta_tau=36.5,
                              switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))


def _record_mean(state, plan, i, rec, pair_rate, detection_eff, acquisition_s):
    """Poisson mean of record i of a scan, from its own simulate_storage call."""
    if isinstance(plan, DecayScan):
        projector = state
    elif isinstance(plan, MalusScan):
        projector = make_pure(math.cos(rec.setting_value), math.sin(rec.setting_value))
    else:
        projector = plan.projectors[i][1]
    outcome = simulate_storage(PC, state, rec.n_cycles)
    return expected_rate(outcome, projector, pair_rate, detection_eff) * acquisition_s


def test_every_batched_record_is_its_own_seeded_draw():
    jobs = _mixed_jobs((3, 2**33, 0, 17, 2**70, 11))
    datasets = run_scans(PC, jobs, pair_rate=1500.0, detection_eff=0.7, acquisition_s=30.0)
    assert [ds.kind for ds in datasets] == [
        "decay", "malus", "tomography", "tomography", "malus", "decay"]
    for (state, plan, seed), ds in zip(jobs, datasets):
        assert ds.seed == seed
        for i, rec in enumerate(ds.records):
            mean = _record_mean(state, plan, i, rec, 1500.0, 0.7, 30.0)
            assert rec.seed == record_seed(seed, i)
            assert rec.counts == float(np.random.default_rng(rec.seed).poisson(mean))


def test_noiseless_batch_stores_exact_means():
    jobs = _mixed_jobs((None,) * 6)
    for (state, plan, _), ds in zip(jobs, run_scans(PC, jobs, acquisition_s=30.0)):
        assert ds.seed is None
        for i, rec in enumerate(ds.records):
            assert rec.seed is None
            assert rec.counts == _record_mean(state, plan, i, rec, 2000.0, 1.0, 30.0)


@pytest.mark.parametrize("seeds", [(3, 2**33, 0, 17, 2**70, 11), (None,) * 6,
                                   (None, 4, None, 2**40, 9, None)])
def test_a_batched_scan_equals_the_scan_alone(seeds):
    jobs = _mixed_jobs(seeds)
    batched = run_scans(PC, jobs, pair_rate=1500.0, acquisition_s=30.0)
    alone = [run_scan(PC, state, plan, pair_rate=1500.0, acquisition_s=30.0, seed=seed)
             for state, plan, seed in jobs]
    assert batched == alone
    assert run_scans(PC, jobs[::-1], pair_rate=1500.0, acquisition_s=30.0) == alone[::-1]


def test_run_scans_rejects_bad_plans_and_rates():
    with pytest.raises(TypeError):
        run_scans(IDEAL, [(H, DecayScan(), 1), (H, "tomography", 2)])
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), 1)], pair_rate=-1.0)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), None)], acquisition_s=-1.0)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), -1)])


def test_synth_malus_dataset_draws_each_record_from_its_seed():
    angles = tuple(np.linspace(0.0, math.pi, 9))
    ds = synth_malus_dataset(angles, 5000.0, 0.8, 0.3, acquisition_s=2.0, seed=21)
    for i, rec in enumerate(ds.records):
        mean = malus_mean(rec.setting_value, 5000.0, 0.8, 0.3) * 2.0
        assert rec.seed == record_seed(21, i)
        assert rec.counts == sample_counts(mean, 1.0, rec.seed)


def test_fig4_sweeps_each_state_once_and_draws_in_one_batch(monkeypatch, tmp_path):
    sweeps, batches = [], []

    def sweep(cfg, state, n_values):
        sweeps.append((state, n_values))
        return simulate_sweep(cfg, state, n_values)

    def draw(jobs):
        batches.append([len(means) for _, means in jobs])
        return draw_counts(jobs)

    simulate_sweep = loopmem.counting.simulate_sweep
    monkeypatch.setattr(loopmem.counting, "simulate_sweep", sweep)
    monkeypatch.setattr(loopmem.counting, "draw_counts", draw)
    sc = scenario.preset_scenario("paper-short")
    scenario.run(sc, "reproduce", str(tmp_path), "fig4")
    assert sweeps == [(H, sc.n_values), (D, sc.n_values), (R, sc.n_values)]
    n_angles = len(sc.malus_angles)
    assert batches == [[n_angles, n_angles, 4, 4, 4] * len(sc.n_values)]
