import numpy as np
import pytest

from loopmem.counting import ScanDataset, TomographyScan, run_scan
from loopmem.engine import MemoryConfig
from loopmem.errors import IncompleteSetError, NoSignalError
from loopmem.polarization import A, D, H, L, R, V
from loopmem.tomography import (
    MeasurementSet, counts_from_dataset, exact_mle_bloch, linear_inversion,
    mle_reconstruct, monte_carlo_uncertainty, reconstruct_with_uncertainty,
)

MSET = MeasurementSet()


def exact_counts(rho: np.ndarray, flux: float, mset: MeasurementSet = MSET) -> np.ndarray:
    x = np.array([rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag])
    return flux * (mset.design_matrix() @ x)


def pure_rho(state) -> np.ndarray:
    v = state.vector()
    return np.outer(v, v.conj())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def rho_from_bloch(r: np.ndarray) -> np.ndarray:
    return 0.5 * np.array([[1.0 + r[0], r[1] + 1j * r[2]],
                           [r[1] - 1j * r[2], 1.0 - r[0]]])


def profile_log_likelihood(k: np.ndarray, rho: np.ndarray) -> float:
    """sum k log q - K log sum q, with 0 log 0 = 0."""
    q = MSET.design_matrix() @ np.array(
        [rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag])
    return float((k * np.log(np.where(k > 0, q, 1.0))).sum() - k.sum() * np.log(q.sum()))


def per_draw_mc(draws, mset, target) -> tuple[float, float, int]:
    """The per-draw reference: one `mle_reconstruct` fit per row of counts."""
    fids, n_failed = [], 0
    for row in draws:
        try:
            res = mle_reconstruct(row.astype(float), mset, target)
        except NoSignalError:
            n_failed += 1
            continue
        if not res.converged:
            n_failed += 1
            continue
        fids.append(res.fidelity)
    return float(np.mean(fids)), float(np.std(fids, ddof=1)), n_failed


def random_rho(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


# --- measurement set ---

def test_default_set_is_informationally_complete():
    assert MSET.labels() == ("H", "V", "D", "R")
    assert np.linalg.matrix_rank(MSET.design_matrix()) == 4


def test_degenerate_set_rejected():
    with pytest.raises(IncompleteSetError):
        MeasurementSet((("H", H), ("V", V), ("D", D), ("A", A)))
    with pytest.raises(IncompleteSetError):
        MeasurementSet((("H", H), ("V", V), ("D", D)))


def test_overcomplete_set_accepted():
    ms = MeasurementSet((("H", H), ("V", V), ("D", D), ("A", A), ("R", R), ("L", L)))
    assert ms.design_matrix().shape == (6, 4)


# --- linear inversion ---

def test_linear_inversion_circular_state():
    rho, flux = linear_inversion([500.0, 500.0, 500.0, 1000.0], MSET)
    assert flux == pytest.approx(1000.0)
    assert np.allclose(rho, pure_rho(R), atol=1e-12)


def test_linear_inversion_recovers_random_states():
    rng = np.random.default_rng(4)
    for _ in range(25):
        rho = random_rho(rng)
        k = exact_counts(rho, 5e4)
        est, flux = linear_inversion(k, MSET)
        assert flux == pytest.approx(5e4, rel=1e-12)
        assert np.allclose(est, rho, atol=1e-10)


def test_linear_inversion_validation():
    with pytest.raises(NoSignalError):
        linear_inversion([0.0, 0.0, 0.0, 0.0], MSET)
    with pytest.raises(ValueError):
        linear_inversion([1.0, 2.0, 3.0], MSET)


# --- maximum likelihood ---

def test_mle_noiseless_pure_states():
    for state in (H, D, R):
        k = exact_counts(pure_rho(state), 1e5)
        res = mle_reconstruct(k, MSET, target=state)
        assert res.converged
        assert res.fidelity >= 0.9999
        assert abs(np.trace(res.rho.matrix).real - 1.0) < 1e-9


def test_mle_noiseless_maximally_mixed():
    res = mle_reconstruct([500.0, 500.0, 500.0, 500.0], MSET)
    purity = float(np.trace(res.rho.matrix @ res.rho.matrix).real)
    assert abs(purity - 0.5) < 1e-4


def test_mle_always_physical():
    rng = np.random.default_rng(9)
    for _ in range(200):
        k = rng.uniform(1.0, 1000.0, size=4)
        res = mle_reconstruct(k, MSET)
        eig = np.linalg.eigvalsh(res.rho.matrix)
        assert eig.min() >= -1e-10
        assert abs(np.trace(res.rho.matrix).real - 1.0) < 1e-9
        assert np.allclose(res.rho.matrix, res.rho.matrix.conj().T)


def test_mle_agrees_with_linear_inversion_when_interior():
    # true state well inside the Bloch ball: estimators must coincide
    rho = 0.9 * pure_rho(D) + 0.1 * np.eye(2) / 2.0
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(20):
        k = rng.poisson(exact_counts(rho, 1e5)).astype(float)
        li, _ = linear_inversion(k, MSET)
        if np.linalg.eigvalsh(li).min() <= 1e-3:
            continue
        res = mle_reconstruct(k, MSET)
        assert trace_distance(res.rho.matrix, li) < 1e-3
        checked += 1
    assert checked >= 15


def test_mle_consistency_at_high_flux():
    rng = np.random.default_rng(33)
    for state in (H, D, R):
        k0 = exact_counts(pure_rho(state), 1e6)
        fids = []
        for _ in range(100):
            k = rng.poisson(k0).astype(float)
            res = mle_reconstruct(k, MSET, target=state)
            fids.append(res.fidelity)
        assert abs(float(np.mean(fids)) - 1.0) < 0.005


def test_mle_validation():
    with pytest.raises(NoSignalError):
        mle_reconstruct([0.0, 0.0, 0.0, 0.0], MSET)
    with pytest.raises(ValueError):
        mle_reconstruct([10.0, -1.0, 5.0, 5.0], MSET)
    with pytest.raises(ValueError):
        mle_reconstruct([10.0, 5.0], MSET)


# --- Monte Carlo uncertainty ---

def test_mc_deterministic_for_fixed_seed():
    k = exact_counts(pure_rho(R), 1e4)
    a = monte_carlo_uncertainty(k, MSET, R, n_samples=50, seed=5)
    b = monte_carlo_uncertainty(k, MSET, R, n_samples=50, seed=5)
    assert a == b


def test_mc_std_shrinks_with_counts():
    k = exact_counts(pure_rho(R), 1e4)
    _, std_lo, _ = monte_carlo_uncertainty(k, MSET, R, n_samples=400, seed=2)
    _, std_hi, _ = monte_carlo_uncertainty(100.0 * k, MSET, R, n_samples=400, seed=2)
    ratio = std_lo / std_hi
    assert 8.0 < ratio < 12.0  # Poisson scaling: x100 counts -> /10 spread


def test_mc_std_negligible_at_extreme_flux():
    k = exact_counts(pure_rho(D), 4e8)
    assert k.min() >= 1e8
    _, std, _ = monte_carlo_uncertainty(k, MSET, D, n_samples=200, seed=1)
    assert std < 1e-3


def test_reconstruct_with_uncertainty_fields():
    k = exact_counts(pure_rho(H), 1e4)
    res = reconstruct_with_uncertainty(k, MSET, H, n_samples=60, seed=7)
    assert res.n_samples == 60
    assert res.mc_std is not None and res.mc_std > 0
    assert abs(res.mc_mean - res.fidelity) < 5.0 * res.mc_std + 0.01
    bare = reconstruct_with_uncertainty(k, MSET)
    assert bare.mc_mean is None and bare.n_samples == 0


# --- exact four-projector solver against per-draw L-BFGS ---

@pytest.mark.parametrize("state", [H, D, R], ids=["H", "D", "R"])
@pytest.mark.parametrize("flux", [6.0, 2000.0, 2e5])
def test_exact_mle_matches_per_draw_fits(state, flux):
    draws = np.random.default_rng(int(flux) + 17).poisson(
        exact_counts(pure_rho(state), flux), size=(40, 4)).astype(float)
    if state is H:
        assert (draws[:, 1] == 0).all()
    r, failed = exact_mle_bloch(draws, MSET)
    v = state.vector()
    checked = {"interior": 0, "boundary": 0}
    for k, ri, fail in zip(draws, r, failed):
        if fail:
            assert np.isnan(ri).all()
            with pytest.raises(NoSignalError):
                mle_reconstruct(k, MSET, state)
            continue
        res = mle_reconstruct(k, MSET, state)
        rho = rho_from_bloch(ri)
        li, _ = linear_inversion(k, MSET)
        if np.linalg.eigvalsh(li).min() >= 0.0:
            assert np.abs(rho - res.rho.matrix).max() <= 1e-12
            checked["interior"] += 1
        else:
            assert abs(np.linalg.norm(ri) - 1.0) <= 1e-12
            assert (profile_log_likelihood(k, rho)
                    >= profile_log_likelihood(k, res.rho.matrix) - 1e-9)
            assert abs(float(np.real(v.conj() @ rho @ v)) - res.fidelity) <= 1e-5
            checked["boundary"] += 1
    assert checked["boundary"] > 0
    if state is not H:  # H's V count is always 0, so it never lands inside
        assert checked["interior"] > 0


def test_exact_mle_validation():
    six = MeasurementSet((("H", H), ("V", V), ("D", D), ("A", A), ("R", R), ("L", L)))
    with pytest.raises(ValueError):
        exact_mle_bloch(np.ones((3, 6)), six)
    with pytest.raises(ValueError):
        exact_mle_bloch(np.ones(4), MSET)
    with pytest.raises(ValueError):
        exact_mle_bloch([[10.0, -1.0, 5.0, 5.0]], MSET)


def test_mc_counts_draws_without_signal_as_failed():
    # on H/V/D/R the linear-inversion flux is kH + kV
    rows = np.array([[0, 0, 0, 0], [0, 0, 2, 7], [2, 0, 3, 2]], dtype=float)
    r, failed = exact_mle_bloch(rows, MSET)
    assert failed.tolist() == [True, True, False]
    assert np.isnan(r[:2]).all() and np.isfinite(r[2]).all()
    with pytest.raises(NoSignalError):
        mle_reconstruct(rows[0], MSET)

    counts = np.array([0.5, 0.5, 1.5, 1.5])
    draws = np.random.default_rng(3).poisson(lam=counts, size=(500, 4))
    no_flux = draws[:, 0] + draws[:, 1] == 0
    assert (draws.sum(axis=1) == 0).any() and (no_flux & (draws[:, 2] > 0)).any()
    mean, std, n_failed = monte_carlo_uncertainty(counts, MSET, D, n_samples=500, seed=3)
    ref_mean, ref_std, ref_failed = per_draw_mc(draws[~no_flux], MSET, D)
    assert ref_failed == 0
    assert n_failed == int(no_flux.sum())
    assert mean == pytest.approx(ref_mean, abs=1e-6)
    assert std == pytest.approx(ref_std, abs=1e-6)


def test_mc_fits_overcomplete_sets_draw_by_draw():
    six = MeasurementSet((("H", H), ("V", V), ("D", D), ("A", A), ("R", R), ("L", L)))
    k = 1e3 * np.array([0.5, 0.5, 0.9, 0.1, 0.5, 0.5])
    draws = np.random.default_rng(4).poisson(lam=k, size=(30, 6))
    assert monte_carlo_uncertainty(k, six, D, n_samples=30, seed=4) == per_draw_mc(draws, six, D)


# --- dataset glue ---

def test_counts_from_dataset_orders_by_label():
    ds = run_scan(MemoryConfig(delta_tau=36.5), R, TomographyScan(), seed=None)
    k = counts_from_dataset(ds, MSET)
    assert k.tolist() == [r.counts for r in ds.records]


def test_counts_from_dataset_missing_label():
    ds = run_scan(MemoryConfig(delta_tau=36.5), R, TomographyScan(), seed=None)
    clipped = ScanDataset(ds.records[:3], ds.pair_rate, ds.detection_eff,
                          ds.acquisition_s, ds.seed, ds.kind)
    with pytest.raises(IncompleteSetError):
        counts_from_dataset(clipped, MSET)
