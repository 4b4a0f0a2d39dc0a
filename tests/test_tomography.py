import numpy as np
import pytest

import loopmem.tomography

from loopmem.counting import ScanDataset, TomographyScan, run_scan
from loopmem.engine import MemoryConfig
from loopmem.errors import IncompleteSetError, NoSignalError
from loopmem.polarization import A, D, H, L, R, V, DensityMatrix, make_pure
from loopmem.tomography import (
    _LL_SLACK, _NEWTON_GTOL, _NEWTON_MAXITER, MeasurementSet, _bloch, _sphere_ascent,
    counts_from_dataset, default_set, exact_mle_bloch, exact_mle_fidelities, linear_inversion,
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


def pure_state_grid_max():
    """A function giving the largest profile log-likelihood of counts on the
    pure states of a 721 x 1441 (theta, phi) grid."""
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 721), np.linspace(0.0, 2.0 * np.pi, 1441),
                             indexing="ij")
    r = np.stack((np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)),
                 axis=-1).reshape(-1, 3)
    q = 0.5 * np.column_stack((1.0 + r[:, 0], 1.0 - r[:, 0], r[:, 1], r[:, 2])) @ MSET.design_matrix().T
    # q = 0 only where the state is orthogonal to a projector; log 1e-300 keeps 0 * log q = 0
    log_q, log_sum = np.log(np.maximum(q, 1e-300)), np.log(q.sum(axis=1))
    return lambda k: float(np.max(log_q @ k - k.sum() * log_sum))


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
    six = (("H", H), ("V", V), ("D", D), ("A", A), ("R", R), ("L", L))
    for n in (3, 5, 6):
        with pytest.raises(IncompleteSetError, match=f"got {n}"):
            MeasurementSet(six[:n])
    # a repeated label spans the state space, but counts_from_dataset would
    # give both projectors the first one's count
    with pytest.raises(IncompleteSetError, match="'H' is repeated"):
        MeasurementSet((("H", H), ("H", V), ("D", D), ("R", R)))


@pytest.mark.parametrize("projectors", [MSET.projectors, (("A", A), ("L", L), ("H", H), ("D", D))],
                         ids=["HVDR", "ALHD"])
def test_set_tables_are_read_only_and_match_the_design(projectors):
    mset = MeasurementSet(projectors)
    a = mset.design_matrix()
    c, b = ascent_terms(mset)
    assert mset.labels() == tuple(name for name, _ in projectors)
    assert np.array_equal(mset._inverse, np.linalg.inv(a))
    assert np.array_equal(mset._b, b)
    b5, c5 = mset._terms
    assert np.array_equal(b5[:, :, 0, 0], np.vstack((b, b.sum(axis=0))).T)
    assert np.array_equal(c5.ravel(), np.append(c, c.sum()))
    # q = c + b r are the projector probabilities of the state r
    r = np.random.default_rng(2).normal(size=3)
    assert np.allclose(c + b @ r, a @ [(1.0 + r[0]) / 2, (1.0 - r[0]) / 2, r[1] / 2, r[2] / 2])
    for table in (a, mset._inverse, mset._b, b5, c5):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert default_set() is default_set() and default_set() == MeasurementSet()


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


# counts every solver rejects: a short row, a negative count, a NaN and an inf
BAD_COUNTS = [[1.0, 2.0, 3.0], [10.0, -1.0, 5.0, 5.0], [np.nan, 1.0, 1.0, 1.0],
              [1.0, 1.0, np.inf, 1.0]]
OVERFLOW_ROW = [1e308, 1e308, 1.0, 1.0]  # finite, but its linear inversion overflows


def test_linear_inversion_validation():
    with pytest.raises(NoSignalError):
        linear_inversion([0.0, 0.0, 0.0, 0.0], MSET)
    for k in BAD_COUNTS + [OVERFLOW_ROW]:
        with pytest.raises(ValueError):
            linear_inversion(k, MSET)


def test_linear_inversion_is_the_exact_mle_bit_for_bit_inside_the_ball():
    rng = np.random.default_rng(12)
    for mset in (MSET, MeasurementSet((("A", A), ("L", L), ("H", H), ("D", D)))):
        rows = np.array([rng.poisson(exact_counts(random_rho(rng), 10.0 ** rng.uniform(2.0, 5.0),
                                                  mset)) for _ in range(500)], dtype=float)
        r, failed = exact_mle_bloch(rows, mset)
        inside = np.linalg.norm(r, axis=1) < 1.0 - 1e-9
        assert not failed.any() and inside.sum() >= 400
        for k, ri in zip(rows[inside], r[inside]):
            assert np.array_equal(linear_inversion(k, mset)[0], rho_from_bloch(ri))


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
    for k in BAD_COUNTS + [[10.0, 5.0], OVERFLOW_ROW]:
        with pytest.raises(ValueError):
            mle_reconstruct(k, MSET)


def test_mle_state_passes_the_full_density_matrix_check():
    # interior, H-like (V count 0, so the fit ends on the boundary), rows with
    # other zero counts, and rows above 1e150, which are fitted rescaled
    rng = np.random.default_rng(14)
    mixed = 0.8 * pure_rho(D) + 0.1 * np.eye(2)
    rows = [rng.poisson(exact_counts(mixed, 10.0 ** rng.uniform(2.0, 5.0))) for _ in range(8)]
    rows += [rng.poisson(exact_counts(pure_rho(H), 10.0 ** rng.uniform(1.0, 5.0)))
             for _ in range(8)]
    rows += [[5.0, 0.0, 0.0, 2.0], [0.0, 3.0, 1.0, 0.0], [7.0, 2.0, 0.0, 9.0]]
    rows += [np.array([1.0, rng.uniform(0.0, 1e-3), 0.5, rng.uniform(0.3, 0.7)])
             * 10.0 ** rng.uniform(151.0, 300.0) for _ in range(4)]
    assert sum(row[1] == 0 for row in rows) >= 9
    for k in rows:
        rho = mle_reconstruct(np.asarray(k, dtype=float), MSET).rho
        assert type(rho) is DensityMatrix and not rho.matrix.flags.writeable
        assert np.array_equal(DensityMatrix(rho.matrix).matrix, rho.matrix)


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


# counts where L-BFGS stops 0.014-0.017 nats short of the optimum and still
# reports convergence (tomo of H on paper-improved at seeds 1 and 3)
LBFGS_SHORT_ROWS = [[94268.0, 0.0, 47005.0, 47112.0], [93892.0, 0.0, 47080.0, 46929.0]]


def test_exact_fidelities_match_per_row_fits():
    rng = np.random.default_rng(8)
    elliptical = make_pure(0.8, 0.6j)
    mixed = 0.9 * pure_rho(D) + 0.05 * np.eye(2)
    rows, targets = [], []
    for rho, target in ((mixed, D), (mixed, elliptical), (pure_rho(H), H), (pure_rho(R), R),
                        (pure_rho(elliptical), elliptical), (pure_rho(D), R)):
        for flux in (50.0, 5e3, 2e5):
            rows.append(rng.poisson(exact_counts(rho, flux)).astype(float))
            targets.append(target)
    rows += [np.array(k) for k in LBFGS_SHORT_ROWS]
    targets += [H, H]
    fid, failed = exact_mle_fidelities(rows, MSET, targets)
    r, _ = exact_mle_bloch(rows, MSET)
    assert not failed.any()
    kinds = set()
    for i, (k, target) in enumerate(zip(rows, targets)):
        res = mle_reconstruct(k, MSET, target)
        rho = rho_from_bloch(r[i])
        v = target.vector()
        assert abs(fid[i] - float(np.real(v.conj() @ rho @ v))) <= 1e-12
        gain = profile_log_likelihood(k, rho) - profile_log_likelihood(k, res.rho.matrix)
        assert gain >= -1e-9
        if i >= len(rows) - 2:
            assert gain > 0.01
        else:
            assert abs(fid[i] - res.fidelity) <= 1e-5
        kinds.add("boundary" if abs(np.linalg.norm(r[i]) - 1.0) <= 1e-12 else "interior")
    assert kinds == {"interior", "boundary"}


def test_exact_fidelities_take_one_target_for_every_row():
    rows = np.vstack((LBFGS_SHORT_ROWS, [[0.0, 0.0, 0.0, 0.0], [300.0, 200.0, 260.0, 310.0]]))
    fid, failed = exact_mle_fidelities(rows, MSET, (D,))
    assert failed.tolist() == [False, False, True, False]
    assert np.isnan(fid[2]) and np.isfinite(fid[[0, 1, 3]]).all()
    per_row, _ = exact_mle_fidelities(rows, MSET, [D] * 4)
    assert np.array_equal(fid, per_row, equal_nan=True)
    with pytest.raises(ValueError, match="need one target, or one per row of 4, got 2"):
        exact_mle_fidelities(rows, MSET, (D, H))
    with pytest.raises(ValueError, match="need one target, or one per row of 1, got 0"):
        exact_mle_fidelities(rows[:1], MSET, ())


def test_exact_fidelities_solve_a_row_alone_as_in_a_batch():
    # an elliptical target weighs every Bloch component; H, D and R pick one
    target = make_pure(0.8, 0.36 + 0.48j)
    rows = np.random.default_rng(3).poisson([500, 480, 900, 520], size=(40, 4))
    fid, _ = exact_mle_fidelities(rows, MSET, (target,))
    for row, f in zip(rows, fid):
        alone, _ = exact_mle_fidelities(row[None], MSET, (target,))
        assert alone[0] == f


def test_linear_inversion_of_a_row_does_not_depend_on_its_batch():
    # solved with np.linalg.solve for 1 and for 40 right-hand sides, this
    # row's linear inversion, the start of its ascent, came back 1 ulp apart
    # alone and in a batch
    row = np.array([2345.0, 981.0, 2429.0, 127.0])
    rng = np.random.default_rng(5)
    rows = rng.poisson(rng.uniform(0.0, 3000.0, (40, 4))).astype(float)
    rows[7] = row
    r, failed = exact_mle_bloch(rows, MSET)
    assert not failed.any()
    for i in range(len(rows)):
        alone, _ = exact_mle_bloch(rows[i:i + 1], MSET)
        assert np.array_equal(alone[0], r[i])


def test_exact_mle_validation():
    with pytest.raises(ValueError):
        exact_mle_bloch(np.ones(4), MSET)
    for k in BAD_COUNTS:
        with pytest.raises(ValueError):
            exact_mle_bloch([k], MSET)
    # the inversion of this row overflows, to r = (0, NaN, NaN); the row beside it is solved
    r, failed = exact_mle_bloch([OVERFLOW_ROW, [300.0, 200.0, 260.0, 310.0]], MSET)
    assert failed.tolist() == [True, False]
    assert np.isnan(r[0]).all() and np.isfinite(r[1]).all()


def test_mc_counts_draws_without_signal_as_failed():
    # on H/V/D/R the linear-inversion flux is kH + kV; without it the
    # likelihood still peaks on a pure state, which only all-zero rows lack
    no_flux = np.array([[0, 0, 3, 1], [0, 0, 2, 7], [0, 0, 1, 0], [0, 0, 0, 5],
                        [0, 0, 40, 3], [0, 0, 5, 5]], dtype=float)
    rows = np.vstack(([0, 0, 0, 0], no_flux, [2, 0, 3, 2]))
    r, failed = exact_mle_bloch(rows, MSET)
    assert failed.tolist() == [True] + [False] * 7
    assert np.isnan(r[0]).all() and np.isfinite(r[1:]).all()
    with pytest.raises(NoSignalError):
        mle_reconstruct(rows[0], MSET)
    assert (exact_mle_bloch(rows[-1:], MSET)[0] == r[-1]).all()

    grid_max = pure_state_grid_max()

    def check_no_flux_row(k, ri):
        assert abs(np.linalg.norm(ri) - 1.0) <= 1e-12
        ll = profile_log_likelihood(k, rho_from_bloch(ri))
        assert ll >= grid_max(k) - 1e-12
        try:
            res = mle_reconstruct(k, MSET)
        except NoSignalError:  # the inversion rounds this row's flux to <= 0
            return
        assert ll >= profile_log_likelihood(k, res.rho.matrix) - 1e-9

    for k, ri in zip(no_flux, r[1:-1]):
        check_no_flux_row(k, ri)

    counts = np.array([0.5, 0.5, 1.5, 1.5])
    draws = np.random.default_rng(3).poisson(lam=counts, size=(500, 4)).astype(float)
    empty = draws.sum(axis=1) == 0
    zero_flux = (draws[:, 0] + draws[:, 1] == 0) & ~empty
    assert empty.any() and zero_flux.any()
    mean, std, n_failed = monte_carlo_uncertainty(counts, MSET, D, n_samples=500, seed=3)
    assert n_failed == int(empty.sum())
    # reference: L-BFGS where there is flux, the grid-checked exact optimum where there is none
    fits = [mle_reconstruct(k, MSET, D) for k in draws[~empty & ~zero_flux]]
    assert all(res.converged for res in fits)
    fids = np.array([res.fidelity for res in fits])
    lost, which = np.unique(draws[zero_flux], axis=0, return_inverse=True)
    r_lost, failed_lost = exact_mle_bloch(lost, MSET)
    assert not failed_lost.any()
    for k, ri in zip(lost, r_lost):
        check_no_flux_row(k, ri)
    fids = np.concatenate((fids, 0.5 * (1.0 + r_lost[which.ravel()] @ [0.0, 1.0, 0.0])))
    assert mean == pytest.approx(fids.mean(), abs=1e-6)
    assert std == pytest.approx(fids.std(ddof=1), abs=1e-6)


@pytest.mark.parametrize("projectors,counts,n_samples", [
    (MSET.projectors, [0.5, 0.5, 1.5, 1.5], 500),
    ((("A", A), ("L", L), ("H", H), ("D", D)), [0.5, 0.5, 0.3, 1.0], 30),
])
def test_mc_in_chunks_equals_one_chunk(monkeypatch, projectors, counts, n_samples):
    mset = MeasurementSet(projectors)
    whole = monte_carlo_uncertainty(counts, mset, D, n_samples=n_samples, seed=3)
    monkeypatch.setattr(loopmem.tomography, "_MC_CHUNK", 7)
    mean, std, n_failed = monte_carlo_uncertainty(counts, mset, D, n_samples=n_samples, seed=3)
    assert mean == pytest.approx(whole[0], rel=1e-12)
    assert std == pytest.approx(whole[1], rel=1e-12)
    assert n_failed == whole[2]
    assert n_failed > 0  # draws without signal fail


# --- the sphere ascent ---

def ascent_terms(mset: MeasurementSet = MSET) -> tuple[np.ndarray, np.ndarray]:
    """(c, b) with q = c + b r the projector probabilities of the state with Bloch vector r."""
    a = mset.design_matrix()
    return 0.5 * (a[:, 0] + a[:, 1]), 0.5 * np.column_stack((a[:, 0] - a[:, 1], a[:, 2], a[:, 3]))


def ascent_batch() -> tuple[np.ndarray, np.ndarray]:
    """40 rows of counts on pure states at flux 10 to 1e5, whose linear inversion
    lies outside the Bloch ball: 20 start from it, as in `exact_mle_bloch`,
    and 20 from a random unit vector."""
    rng = np.random.default_rng(21)
    rows = []
    while len(rows) < 20:
        state = make_pure(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        k = rng.poisson(exact_counts(pure_rho(state), 10.0 ** rng.uniform(1.0, 5.0))).astype(float)
        if k[0] + k[1] > 0 and np.linalg.norm(_bloch(linear_inversion(k, MSET)[0])) > 1.0:
            rows.append(k)
    k = np.array(rows + rows)
    r = np.array([_bloch(linear_inversion(row, MSET)[0]) for row in rows])
    random = rng.normal(size=(20, 3))
    starts = np.vstack((r, random))
    return k, starts / np.linalg.norm(starts, axis=1)[:, None]


def test_ascent_ends_on_unit_stationary_points_no_worse_than_their_starts():
    k, starts = ascent_batch()
    c, b = ascent_terms()
    n, stuck = _sphere_ascent(k, starts, MSET)
    assert stuck.size == 0
    assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() <= 1e-15
    for ki, ni, start in zip(k, n, starts):
        q = c + b @ ni
        grad = (b.T @ np.divide(ki, q, out=np.zeros(4), where=ki > 0)
                - ki.sum() * b.sum(axis=0) / q.sum())
        assert np.linalg.norm(grad - (grad @ ni) * ni) <= _NEWTON_GTOL * ki.sum()
        # every accepted step loses at most the round-off slack
        assert (profile_log_likelihood(ki, rho_from_bloch(ni))
                >= profile_log_likelihood(ki, rho_from_bloch(start))
                - _NEWTON_MAXITER * _LL_SLACK * ki.sum())


def test_ascent_solves_a_row_alone_as_in_a_batch():
    k, starts = ascent_batch()
    n, _ = _sphere_ascent(k, starts, MSET)
    for i in range(len(k)):
        alone, stuck = _sphere_ascent(k[i:i + 1], starts[i:i + 1], MSET)
        assert np.array_equal(alone[0], n[i]) and stuck.size == 0


def test_ascent_converges_from_the_six_poles():
    # linear inversion gives r = (0, 0, 1.08); at four of the poles a projector
    # with counts has q = 0, so the start has no likelihood and no gradient
    k = np.tile([250.0, 250.0, 250.0, 520.0], (6, 1))
    n, stuck = _sphere_ascent(k, np.vstack((np.eye(3), -np.eye(3))), MSET)
    assert stuck.size == 0
    r, failed = exact_mle_bloch(k[:1], MSET)
    assert not failed.any() and np.abs(n - r).max() <= 1e-9
    assert profile_log_likelihood(k[0], rho_from_bloch(r[0])) >= pure_state_grid_max()(k[0])


def test_ascent_rows_short_of_the_tolerance_fail(monkeypatch):
    monkeypatch.setattr(loopmem.tomography, "_NEWTON_MAXITER", 1)
    rows = np.array(LBFGS_SHORT_ROWS + [[300.0, 200.0, 260.0, 310.0]])
    r, failed = exact_mle_bloch(rows, MSET)
    assert failed.tolist() == [True, True, False]
    assert np.isnan(r[:2]).all() and np.isfinite(r[2]).all()
    # about half of these draws land outside the ball, and none converges in one step
    counts = exact_counts(pure_rho(D), 200.0)
    draws = np.random.default_rng(4).poisson(lam=counts, size=(300, 4)).astype(float)
    outside = np.array([np.linalg.norm(_bloch(linear_inversion(row, MSET)[0])) > 1.0
                        for row in draws])
    assert 0 < outside.sum() < len(draws)
    _, failed = exact_mle_bloch(draws, MSET)
    assert (failed == outside).all()
    mean, _, n_failed = monte_carlo_uncertainty(counts, MSET, D, n_samples=300, seed=4)
    assert n_failed == outside.sum()
    fid = exact_mle_fidelities(draws[~outside], MSET, (D,))[0]
    assert mean == pytest.approx(fid.mean(), rel=1e-12)


# --- dataset glue ---

def test_counts_from_dataset_orders_by_label():
    ds = run_scan(MemoryConfig(delta_tau=36.5), R, TomographyScan(), seed=None)
    k = counts_from_dataset(ds, MSET)
    assert k.tolist() == list(ds.record_counts)


def test_counts_from_dataset_missing_label():
    ds = run_scan(MemoryConfig(delta_tau=36.5), R, TomographyScan(), seed=None)
    clipped = ScanDataset(ds.setting_labels[:3], ds.setting_values[:3], ds.record_counts[:3],
                          ds.n_cycles[:3], ds.sub_seeds[:3], ds.pair_rate, ds.detection_eff,
                          ds.acquisition_s, ds.seed, ds.kind)
    with pytest.raises(IncompleteSetError):
        counts_from_dataset(clipped, MSET)


def test_counts_from_dataset_rejects_a_repeated_label():
    # a dict by label would keep the extra H record's count and drop the scan's
    ds = run_scan(MemoryConfig(delta_tau=36.5), R, TomographyScan(), seed=None)
    extra = ScanDataset(ds.setting_labels + ("H",), ds.setting_values + (0.0,),
                        ds.record_counts + (1.0,), ds.n_cycles + (1,), ds.sub_seeds + (None,),
                        ds.pair_rate, ds.detection_eff, ds.acquisition_s, ds.seed, ds.kind)
    with pytest.raises(IncompleteSetError, match="'H' is repeated"):
        counts_from_dataset(extra, MSET)
