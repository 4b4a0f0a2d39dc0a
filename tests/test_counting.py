import math

import numpy as np
import pytest

from loopmem.components import POCKELS_CELL, ComponentSpec
from loopmem.counting import (
    CountRecord, DecayScan, MalusScan, TomographyScan, expected_rate, malus_mean,
    read_csv, record_seed, run_scan, sample_counts, synth_malus_dataset, write_csv,
)
from loopmem.engine import MemoryConfig, TransmissionParams, efficiency, simulate_storage
from loopmem.errors import SchemaError
from loopmem.polarization import D, H, R, V

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
