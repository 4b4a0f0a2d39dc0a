import math

import numpy as np
import pytest

import loopmem.counting
from loopmem import engine, scenario
from loopmem.components import POCKELS_CELL, ComponentSpec
from loopmem.counting import (
    DEFAULT_PROJECTORS, DecayScan, MalusScan, ScanDataset, TomographyScan, _pcg64_starts,
    _poisson_means, _rates, draw_counts, malus_mean, read_csv, record_seed, record_seeds,
    run_scan, run_scans, synth_malus_dataset, write_csv,
)
from loopmem.engine import (
    ExitEvent, MemoryConfig, StorageOutcome, TransmissionParams, efficiency, simulate_storage,
    simulate_sweep,
)
from loopmem.errors import InvalidStateError, SchemaError, UnschedulableError
from loopmem.polarization import D, DensityMatrix, H, R, design_row, make_pure

SHORT = TransmissionParams(0.541, 0.419, 0.50, 0.662)
IDEAL = MemoryConfig(delta_tau=36.5)


def _numpy_draw(mean: float, sub: int) -> float:
    """The count numpy draws for one record: default_rng(sub).poisson(mean)."""
    return float(np.random.default_rng(sub).poisson(mean))


def _storage_mean(cfg, state, n, projector, pair_rate, detection_eff, acquisition_s):
    """Poisson mean behind `projector` of a separate simulate_storage call's retrieved exit."""
    hh, hv, vv = simulate_storage(cfg, state, n).retrieved.rho
    rho = np.array([[hh.real], [vv.real], [hv.real], [hv.imag]])
    rate = _rates(rho, np.array([design_row(projector)]).T, pair_rate, detection_eff)
    return float(rate[0]) * acquisition_s


def test_record_seed_is_stable_and_independent():
    assert record_seed(None, 3) is None
    assert record_seed(5, 0) == record_seed(5, 0)
    assert record_seed(5, 0) != record_seed(5, 1)
    assert record_seed(5, 2) != record_seed(6, 2)


def test_decay_scan_noiseless_matches_closed_form():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    ds = run_scan(cfg, H, DecayScan(), pair_rate=2000.0, acquisition_s=60.0, seed=None)
    assert ds.kind == "decay"
    assert ds.setting_labels == ("n_cycles",) * 8
    for counts, value, n in zip(ds.record_counts, ds.setting_values, range(1, 9), strict=True):
        want = 2000.0 * 60.0 * efficiency(SHORT, n)
        assert abs(counts - want) < 1e-9 * want
        assert value == float(n)


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
        mean = _storage_mean(cfg, D, n, D, 2000.0, 1.0, 60.0)
        sub = record_seed(seed, i)
        counts = mean if sub is None else _numpy_draw(mean, sub)
        want.append(("n_cycles", float(n), counts, 60.0, n, sub))
    # all six fields of each record, as write_csv writes them
    assert list(zip(ds.setting_labels, ds.setting_values, ds.record_counts,
                    [ds.acquisition_s] * len(ds.n_cycles), ds.n_cycles, ds.sub_seeds,
                    strict=True)) == want


def test_malus_scan_noiseless_traces_fringe():
    angles = np.linspace(0.0, math.pi, 13)
    ds = run_scan(IDEAL, D, MalusScan(tuple(angles)), pair_rate=2000.0,
                  acquisition_s=10.0, seed=None)
    assert ds.kind == "malus"
    for theta, counts in zip(ds.setting_values, ds.record_counts, strict=True):
        want = malus_mean(theta, 2000.0, 1.0, math.pi / 4.0) * 10.0
        assert abs(counts - want) < 1e-9


def test_tomography_scan_labels_and_counts():
    ds = run_scan(IDEAL, R, TomographyScan(), pair_rate=2000.0,
                  acquisition_s=60.0, seed=None)
    assert ds.kind == "tomography"
    assert ds.setting_labels == ("H", "V", "D", "R")
    counts = ds.counts()
    assert np.allclose(counts, [60000.0, 60000.0, 60000.0, 120000.0])


def test_run_scan_seeded_deterministic():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    a = run_scan(cfg, H, DecayScan((1, 2, 3)), seed=11)
    b = run_scan(cfg, H, DecayScan((1, 2, 3)), seed=11)
    assert a == b
    assert a.sub_seeds == tuple(record_seed(11, i) for i in range(3))
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
    for theta, counts in zip(ds.setting_values, ds.record_counts, strict=True):
        assert counts == malus_mean(theta, 5000.0, 0.8, 0.3) * 2.0


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


def test_csv_rejects_a_record_acquisition_time_off_the_metadata(tmp_path):
    path = tmp_path / "decay.csv"
    write_csv(run_scan(IDEAL, H, DecayScan((1, 2, 3)), seed=4), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace(",60.0,", ",30.0,")
    path.write_text("".join(lines))
    with pytest.raises(SchemaError) as err:
        read_csv(path)
    assert err.value.field == "acquisition_s"


@pytest.mark.parametrize("edit, field", [
    (lambda lines: lines[:1], "header"),  # the metadata line alone
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 2)[0] + "\n"], "n_cycles"),  # a short row
    (lambda lines: lines[:3] + [lines[3].replace(",60.0,", ",sixty,")], "acquisition_s"),
    (lambda lines: lines[:3] + [lines[3].rstrip("\n") + ",9\n"], "(record)"),  # a seventh cell
], ids=["metadata-only", "short-row", "non-numeric", "long-row"])
def test_csv_rejects_a_malformed_body(tmp_path, edit, field):
    path = tmp_path / "decay.csv"
    write_csv(run_scan(IDEAL, H, DecayScan((1, 2, 3)), seed=4), path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    with pytest.raises(SchemaError) as err:
        read_csv(path)
    assert err.value.field == field


def test_csv_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "decay.csv"
    write_csv(run_scan(IDEAL, H, DecayScan((1, 2, 3)), seed=4), path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())  # a UTF-16 byte-order mark
    with pytest.raises(SchemaError) as err:
        read_csv(path)
    assert err.value.field == "(file)"


def test_dataset_columns_must_have_equal_length():
    ds = run_scan(IDEAL, H, DecayScan((1, 2, 3)), seed=4)
    with pytest.raises(ValueError):
        ScanDataset(ds.setting_labels, ds.setting_values, ds.record_counts[:2], ds.n_cycles,
                    ds.sub_seeds, ds.pair_rate, ds.detection_eff, ds.acquisition_s, ds.seed,
                    ds.kind)


# master seeds of one to ten uint32 words, on both sides of each word boundary
MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**299 + 12345)
ONE_WORD = (0, 1, 7, 2**32 - 1)  # the masters that are hashed in arrays


@pytest.mark.parametrize("masters", [ONE_WORD, MASTERS], ids=["hashed", "numpy"])
def test_batched_sub_seeds_equal_record_seed(masters, monkeypatch):
    calls = []

    def counted(master, index):
        calls.append(master)
        return record_seed(master, index)

    monkeypatch.setattr(loopmem.counting, "record_seed", counted)
    drawn = draw_counts([(m, [0.0] * 301) for m in masters])
    for master, (counts, subs) in zip(masters, drawn):
        assert subs == [record_seed(master, i) for i in range(301)]
        assert counts == [0.0] * 301
    # one master of more than one word sends the whole batch to numpy
    assert len(calls) == (0 if masters == ONE_WORD else 301 * len(masters))


@pytest.mark.parametrize("master", [2.5, -1])
@pytest.mark.parametrize("size", [2, 8])
def test_a_bad_master_raises_numpys_error_at_any_batch_size(master, size):
    with pytest.raises((TypeError, ValueError)) as want:
        np.random.SeedSequence([master, 0])
    with pytest.raises(want.type) as got:
        draw_counts([(master, [1.0] * size)])
    assert str(got.value) == str(want.value)
    assert str(want.value) == ("seed must be integer" if master == 2.5
                               else "expected non-negative integer")


def test_fig4_sub_seeds_are_all_hashed_in_arrays(monkeypatch, tmp_path):
    def refuse(master, index):
        raise AssertionError(f"record_seed({master}, {index}) called")

    monkeypatch.setattr(loopmem.counting, "record_seed", refuse)
    sc = scenario.resolve({"preset": "paper-short", "seed": 1})
    scenario.run(sc, "reproduce", str(tmp_path), "fig4")
    assert (tmp_path / "fig4.csv").is_file()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 40])
def test_a_run_of_sub_seeds_equals_record_seed(n):
    for master in MASTERS:
        assert record_seeds(master, n) == [record_seed(master, i) for i in range(n)]


def _start_states(subs):
    """(state, inc) of each sub-seed's start state, as _pcg64_starts yields them."""
    return [(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
            for starts in _pcg64_starts(subs) for s_hi, s_lo, i_hi, i_lo in starts.T.tolist()]


def test_batched_generator_state_equals_default_rng():
    subs = draw_counts([(m, [0.0] * 40) for m in MASTERS])
    subs = [sub for _, seeds in subs for sub in seeds] + [0, 1, 2**32 - 1]
    for sub, (state, inc) in zip(subs, _start_states(subs), strict=True):
        want = np.random.default_rng(sub).bit_generator.state
        assert {"state": state, "inc": inc} == want["state"]
        assert want["has_uint32"] == 0 and want["uinteger"] == 0


def test_generator_states_are_yielded_a_chunk_at_a_time(monkeypatch):
    subs = [record_seed(9, i) for i in range(30)]
    want = _start_states(subs)
    monkeypatch.setattr(loopmem.counting, "_STATE_CHUNK", 7)
    states = _pcg64_starts(subs)
    assert not isinstance(states, (list, tuple))  # no per-record list is held
    assert [len(starts.T) for starts in _pcg64_starts(subs)] == [7, 7, 7, 7, 2]
    assert _start_states(subs) == want and len(want) == 30
    assert draw_counts([(9, [5.0] * 30)]) == [
        ([_numpy_draw(5.0, sub) for sub in subs], subs)]
    monkeypatch.setattr(loopmem.counting, "_TRIAL_MIN", 8)  # the array first trial, chunked
    means = [0.0, 5.0, 12.0, 3e4] * 10
    subs = [record_seed(9, i) for i in range(40)]
    assert draw_counts([(9, means)]) == [
        ([_numpy_draw(mu, sub) for mu, sub in zip(means, subs)], subs)]


def _reference_means():
    """Poisson means over every branch of numpy's draw and both sides of each boundary."""
    rng = np.random.default_rng(2024)
    log_uniform = lambda lo, hi, n: np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return np.concatenate([
        [0.0, 1e-300, 10.0, np.nextafter(10.0, 0.0), np.nextafter(1e12, 0.0), 1e12],
        rng.uniform(0.0, 1e-3, 5_000),
        rng.uniform(0.0, 10.0, 20_000),
        rng.uniform(9.5, 11.0, 20_000),
        log_uniform(10.0, 1e5, 40_000),
        log_uniform(1e5, 1e12, 15_000),
        log_uniform(1e12, 1e18, 200),
    ]).tolist()


def test_batched_draws_equal_numpy_draws_record_by_record():
    means = _reference_means()
    assert len(means) >= 10**5
    [(counts, subs)] = draw_counts([(31, means)])
    assert subs == record_seeds(31, len(means))
    mismatched = [(mu, sub) for mu, sub, k in zip(means, subs, counts)
                  if k != _numpy_draw(mu, sub)]
    assert mismatched == []


@pytest.mark.parametrize("bad", [float("nan"), -1.0, -1e-300, 1e19, float("inf")])
@pytest.mark.parametrize("size", [8, 200])
def test_batched_draws_raise_numpy_errors(bad, size):
    means = [12.0] * size
    means[size // 2] = bad
    with pytest.raises(ValueError) as want:
        np.random.default_rng(0).poisson(bad)
    with pytest.raises(ValueError) as got:
        draw_counts([(3, means)])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("offset", [-1, 0])
def test_batches_on_both_sides_of_the_trial_threshold_match_record_draws(offset):
    n = loopmem.counting._TRIAL_MIN + offset
    means = [(0.0, 0.3, 4.0, 9.9, 10.0, 55.0, 2e3, 7e6)[i % 8] for i in range(n)]
    assert draw_counts([(17, means)]) == [
        ([_numpy_draw(mu, record_seed(17, i)) for i, mu in enumerate(means)],
         [record_seed(17, i) for i in range(n)])]


def test_a_first_uniform_equal_to_exp_minus_mean_is_settled_in_arrays(monkeypatch):
    # numpy's draw below 10 returns 0 when the first uniform is at most exp(-mean)
    n = loopmem.counting._TRIAL_MIN
    subs = record_seeds(8, n)
    i, u = next((i, u) for i, sub in enumerate(subs)
                if (u := np.random.default_rng(sub).random()) > 0.99)
    mean = -math.log(u)
    for _ in range(10_000):
        if math.exp(-mean) == u:
            break
        mean = math.nextafter(mean, math.inf if math.exp(-mean) > u else 0.0)
    assert math.exp(-mean) == u
    calls = []

    def one_by_one(rng, start, mu):
        calls.append(mu)
        return poisson_from(rng, start, mu)

    poisson_from = loopmem.counting._poisson_from
    monkeypatch.setattr(loopmem.counting, "_poisson_from", one_by_one)
    means = [3.0] * n
    means[i] = mean
    [(counts, _)] = draw_counts([(8, means)])
    assert counts[i] == 0.0 == _numpy_draw(mean, subs[i])
    assert mean not in calls


def test_most_large_means_are_settled_in_arrays(monkeypatch):
    calls = []

    def one_by_one(rng, start, mean):
        calls.append(mean)
        return poisson_from(rng, start, mean)

    poisson_from = loopmem.counting._poisson_from
    monkeypatch.setattr(loopmem.counting, "_poisson_from", one_by_one)
    # means of 1e3 counts and up, as most of fig4's are; numpy settles about 78 % of
    # them on the first trial, and 63 % of those just above 10 need a later one
    means = np.exp(np.random.default_rng(6).uniform(math.log(1e3), math.log(1e6), 20_000)).tolist()
    drawn = draw_counts([(5, means)])
    assert len(calls) <= 0.3 * len(means)
    calls.clear()
    monkeypatch.setattr(loopmem.counting, "_TRIAL_MIN", 10**9)  # every record one by one
    assert draw_counts([(5, means)]) == drawn and len(calls) == len(means)


@pytest.mark.parametrize("jobs", [
    # few records, seeded one by one; enough for the vectorized hash, from
    # one-word masters; and as many from a master that numpy seeds
    [(5, [0.0, 0.7, 3.0]), (None, [2.5, 0.0]), (2**40, [7.0])],
    [(5, [0.0, 0.7, 3.0, 9.99, 10.0, 2.5e4, 1e12]), (None, [2.5, 0.0]), (2**32 - 1, [7.0])],
    [(5, [0.0, 0.7, 3.0, 9.99, 10.0, 2.5e4, 1e12]), (None, [2.5, 0.0]), (2**40, [7.0])],
])
def test_draw_counts_match_one_seed_draws(jobs):
    drawn = draw_counts(jobs)
    assert drawn[1] == ([2.5, 0.0], [None, None])
    for (master, means), (counts, subs) in zip(jobs, drawn):
        if master is not None:
            assert counts == [_numpy_draw(mu, record_seed(master, i))
                              for i, mu in enumerate(means)]


def _mixed_jobs(seeds):
    angles = tuple(np.linspace(0.0, math.pi, 7))
    plans = (DecayScan((1, 2, 3, 5)), MalusScan(angles, 2), TomographyScan(3),
             TomographyScan(0), MalusScan(angles, 1), DecayScan((4, 2)))
    states = (H, D, R, D, make_pure(0.8, 0.6j), R)
    return [(state, plan, seed) for state, plan, seed in zip(states, plans, seeds)]


PC = MemoryConfig.from_params(SHORT, delta_tau=36.5,
                              switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.05),))


def _projectors(state, plan) -> list:
    """The projector of each record of a scan plan, in record order."""
    if isinstance(plan, DecayScan):
        return [state] * len(plan.n_values)
    if isinstance(plan, MalusScan):
        return [make_pure(math.cos(a), math.sin(a)) for a in plan.angles]
    return [p for _, p in DEFAULT_PROJECTORS]


def _record_mean(state, plan, i, n, pair_rate, detection_eff, acquisition_s):
    """Poisson mean of record i, at n cycles, of a scan, from its own simulate_storage call."""
    return _storage_mean(PC, state, n, _projectors(state, plan)[i], pair_rate,
                         detection_eff, acquisition_s)


def test_every_batched_record_is_its_own_seeded_draw():
    # each mean is the one the same jobs store with seed None
    jobs = _mixed_jobs((3, 2**33, 0, 17, 2**70, 11))
    source = dict(pair_rate=1500.0, detection_eff=0.7, acquisition_s=30.0)
    datasets = run_scans(PC, jobs, **source)
    noiseless = run_scans(PC, [(state, plan, None) for state, plan, _ in jobs], **source)
    assert [ds.kind for ds in datasets] == [
        "decay", "malus", "tomography", "tomography", "malus", "decay"]
    for (_, _, seed), ds, means in zip(jobs, datasets, noiseless):
        assert ds.seed == seed
        assert ds.sub_seeds == tuple(record_seed(seed, i) for i in range(len(means.sub_seeds)))
        assert ds.record_counts == tuple(map(_numpy_draw, means.record_counts, ds.sub_seeds))


def test_noiseless_batch_stores_exact_means():
    jobs = _mixed_jobs((None,) * 6)
    for (state, plan, _), ds in zip(jobs, run_scans(PC, jobs, acquisition_s=30.0)):
        assert ds.seed is None
        assert ds.sub_seeds == (None,) * len(ds.n_cycles)
        for i, (counts, n) in enumerate(zip(ds.record_counts, ds.n_cycles, strict=True)):
            assert counts == _record_mean(state, plan, i, n, 2000.0, 1.0, 30.0)


@pytest.mark.parametrize("seeds", [(3, 2**33, 0, 17, 2**70, 11), (None,) * 6,
                                   (None, 4, None, 2**40, 9, None)])
def test_a_batched_scan_equals_the_scan_alone(seeds):
    jobs = _mixed_jobs(seeds)
    batched = run_scans(PC, jobs, pair_rate=1500.0, acquisition_s=30.0)
    alone = [run_scan(PC, state, plan, pair_rate=1500.0, acquisition_s=30.0, seed=seed)
             for state, plan, seed in jobs]
    assert batched == alone
    assert run_scans(PC, jobs[::-1], pair_rate=1500.0, acquisition_s=30.0) == alone[::-1]


def _random_exit(rng) -> ExitEvent:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    rho *= rng.uniform(1e-3, 1.0) / rho.trace().real
    return ExitEvent(0.0, float(rho.trace().real), (rho[0, 0], rho[0, 1], rho[1, 1]))


def _exit_matrix(exit_: ExitEvent) -> DensityMatrix:
    """An exit's (HH, HV, VV) entries as a DensityMatrix, through its public checks."""
    hh, hv, vv = exit_.rho
    return DensityMatrix(np.array([[hh, hv], [hv.conjugate(), vv]]))


def test_rates_equal_the_density_matrix_projection():
    rng = np.random.default_rng(8)
    exits = [_random_exit(rng) for _ in range(500)]
    projectors = [make_pure(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
                  for _ in exits]
    rho = np.array([(hh.real, vv.real, hv.real, hv.imag) for hh, hv, vv in (e.rho for e in exits)])
    got = _rates(rho.T, np.array([design_row(p) for p in projectors]).T, 1500.0, 0.7)
    for exit_, projector, rate in zip(exits, projectors, got):
        want = max(1500.0 * 0.7 * _exit_matrix(exit_).project(projector), 0.0)
        assert rate == pytest.approx(want, rel=1e-15, abs=1e-15 * 1500.0 * 0.7 * exit_.weight)


@pytest.mark.parametrize("preset", sorted(scenario.PRESETS))
def test_noiseless_means_equal_the_projection_of_the_retrieved_exit(preset):
    # each mean is pair_rate * detection_eff * acquisition_s * <psi|rho|psi>, with rho the
    # retrieved exit of a separate simulate_storage call and psi the record's projector
    sc = scenario.preset_scenario(preset)
    source = dict(pair_rate=sc.pair_rate, detection_eff=sc.detection_eff,
                  acquisition_s=sc.acquisition_s)
    jobs = [job for _, state in sc.input_states for job in (
        (state, MalusScan(sc.malus_angles, sc.malus_cycles), None),
        (state, TomographyScan(sc.tomo_cycles), None),
        (state, DecayScan(sc.n_values), None))]
    scale = sc.pair_rate * sc.detection_eff * sc.acquisition_s
    for (state, plan, _), ds in zip(jobs, run_scans(sc.config, jobs, **source), strict=True):
        for mean, n, projector in zip(ds.record_counts, ds.n_cycles, _projectors(state, plan),
                                      strict=True):
            retrieved = simulate_storage(sc.config, state, n).retrieved
            want = scale * _exit_matrix(retrieved).project(projector)
            assert mean == pytest.approx(max(want, 0.0), rel=1e-12,
                                         abs=1e-12 * scale * retrieved.weight)


def test_a_record_mean_is_the_same_alone_and_in_a_mixed_batch():
    angles = tuple(np.linspace(0.0, math.pi, 490))
    plans = ((make_pure(0.8, 0.6j), MalusScan(angles, 2)), (D, MalusScan(angles, 1)),
             (R, TomographyScan(3)), (make_pure(0.6, 0.8), TomographyScan(0)),
             (D, TomographyScan(2)), (H, DecayScan((1, 2, 3, 5, 8, 13, 21, 34))))
    jobs = [(state, plan, None) for state, plan in plans]
    datasets = run_scans(PC, jobs, pair_rate=1500.0, detection_eff=0.7, acquisition_s=30.0)
    assert sum(len(ds.record_counts) for ds in datasets) == 1000
    for (state, plan, _), ds in zip(jobs, datasets):
        for i, (counts, n) in enumerate(zip(ds.record_counts, ds.n_cycles, strict=True)):
            assert counts == _record_mean(state, plan, i, n, 1500.0, 0.7, 30.0)


def test_run_scans_never_builds_an_exit_density_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("count synthesis built an exit DensityMatrix")

    monkeypatch.setattr(ExitEvent, "state", property(refuse))
    jobs = _mixed_jobs((3, None, 0, 17, None, 11))
    datasets = run_scans(PC, jobs, pair_rate=1500.0, acquisition_s=30.0)
    assert {ds.kind for ds in datasets} == {"decay", "malus", "tomography"}


def test_run_scans_builds_no_outcome_or_exit_event(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("count synthesis built an engine object")

    jobs = _mixed_jobs((3, None, 0, 17, None, 11))
    with monkeypatch.context() as patched:
        for built in (StorageOutcome, ExitEvent, engine._Account):  # nothing is booked
            patched.setattr(built, "__init__", refuse)
        datasets = run_scans(PC, jobs, pair_rate=1500.0, acquisition_s=30.0)
    assert datasets == run_scans(PC, jobs, pair_rate=1500.0, acquisition_s=30.0)
    # each outcome of a sweep is what simulate_storage gives at that N
    n_values = (0, 7, 3, 12, 1, 3, 64)
    for state in (H, D, R):
        sweep = simulate_sweep(PC, state, n_values)
        for n, out in zip(n_values, sweep):
            ref = simulate_storage(PC, state, n)
            for name in ("n_cycles", "input_state", "ejections", "absorbed", "balance",
                         "tail_ejected"):
                assert getattr(out, name) == getattr(ref, name)
            for ev, ev_ref in zip((*out.exits, out.retrieved), (*ref.exits, ref.retrieved)):
                assert (ev.time, ev.weight, ev.rho) == (ev_ref.time, ev_ref.weight, ev_ref.rho)
            assert len(out.exits) == len(ref.exits) and out.tail is ref.tail is None
        # the exits of the passages the N share are built once
        shared = {}
        for out in sweep:
            before = out.exits[:next(i for i, ev in enumerate(out.exits) if ev is out.retrieved)]
            for ev in before:
                assert shared.setdefault(ev.time, ev) is ev
        assert len(shared) > 1 and sweep[-1].exits[0] is sweep[3].exits[0]


def test_run_scans_raises_what_the_sweep_raises(monkeypatch):
    # count synthesis skips the booking, but not its schedule and tail checks
    unschedulable = MemoryConfig.from_params(SHORT, delta_tau=36.5, pc_rise_time=40.0)
    low_loss = MemoryConfig.from_params(  # with the cell left on, it leaks for thousands of passages
        TransmissionParams(0.98, 0.98, 0.99, 0.99), delta_tau=36.5,
        switch_zone=(ComponentSpec(POCKELS_CELL, rotation_error=0.01),))
    # as if the round trip at every level kept its weight forever
    monkeypatch.setattr(engine._Plumbing, "stein", lambda self, level: None)
    for cfg, n_values, error in ((unschedulable, (1, 2), UnschedulableError),
                                 (low_loss, (0, 3), InvalidStateError)):
        with pytest.raises(error) as swept:
            simulate_sweep(cfg, H, n_values)
        with pytest.raises(error) as scanned:
            run_scans(cfg, [(H, DecayScan(n_values), 1), (D, TomographyScan(n_values[0]), 2)])
        assert str(scanned.value) == str(swept.value)
    assert "never decays" in str(scanned.value)


def test_run_scans_rejects_bad_plans_and_rates():
    with pytest.raises(TypeError):
        run_scans(IDEAL, [(H, DecayScan(), 1), (H, "tomography", 2)])
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), 1)], pair_rate=-1.0)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), None)], detection_eff=1.5)
    with pytest.raises(ValueError):  # a noiseless mean must be finite too
        run_scans(IDEAL, [(H, TomographyScan(), None)], pair_rate=math.inf)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), None)], acquisition_s=-1.0)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, TomographyScan(), -1)])


def test_expected_rate_validation():
    # the rate kernel that expected_rate wrapped rejects what expected_rate rejected
    rho, rows = np.array([[1.0], [0.0], [0.0], [0.0]]), np.array([design_row(H)]).T
    with pytest.raises(ValueError):
        _rates(rho, rows, -1.0, 1.0)
    with pytest.raises(ValueError):
        _rates(rho, rows, 2000.0, 1.5)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, DecayScan((0,)), None)], detection_eff=1.5)


def test_sample_counts_validation():
    # the mean check that sample_counts ran rejects a negative or infinite rate
    with pytest.raises(ValueError):
        _poisson_means([-1.0], 60.0)
    with pytest.raises(ValueError):
        _poisson_means([math.inf], 60.0)
    with pytest.raises(ValueError):
        run_scans(IDEAL, [(H, DecayScan((0,)), None)], pair_rate=math.inf)


def test_synth_malus_dataset_draws_each_record_from_its_seed():
    angles = tuple(np.linspace(0.0, math.pi, 9))
    ds = synth_malus_dataset(angles, 5000.0, 0.8, 0.3, acquisition_s=2.0, seed=21)
    for i, (theta, counts, sub) in enumerate(zip(ds.setting_values, ds.record_counts,
                                                 ds.sub_seeds, strict=True)):
        mean = malus_mean(theta, 5000.0, 0.8, 0.3) * 2.0
        assert sub == record_seed(21, i)
        assert counts == _numpy_draw(mean, sub)


def test_fig4_sweeps_each_state_once_and_draws_in_one_batch(monkeypatch, tmp_path):
    sweeps, batches = [], []

    def sweep(cfg, states, n_values):
        sweeps.append((states, n_values))
        return retrieved_exits(cfg, states, n_values)

    def draw(jobs):
        batches.append([len(means) for _, means in jobs])
        return draw_counts(jobs)

    retrieved_exits = loopmem.counting.retrieved_exits
    monkeypatch.setattr(loopmem.counting, "retrieved_exits", sweep)
    monkeypatch.setattr(loopmem.counting, "draw_counts", draw)
    sc = scenario.preset_scenario("paper-short")
    scenario.run(sc, "reproduce", str(tmp_path), "fig4")
    assert sweeps == [((H, D, R), tuple(dict.fromkeys(sc.n_values)))]  # one engine call
    n_angles = len(sc.malus_angles)
    assert batches == [[n_angles, n_angles, 4, 4, 4] * len(sc.n_values)]
