import math

import numpy as np
import pytest

from loopmem.components import (
    CIRCULATOR_ARM, COUPLER, FIBER_SEGMENT, FPC, POCKELS_CELL, RETROREFLECTOR,
    ComponentSpec, fiber_transmission,
)
from loopmem.counting import DecayScan, malus_mean, run_scan, synth_malus_dataset
from loopmem.engine import MemoryConfig, TransmissionParams, efficiency
from loopmem.errors import IncompleteSetError, NoSignalError, SchemaError
from loopmem.fitting import (
    _wls, default_attenuation_db_per_km, fit_decay, fit_malus, lifetime_1e,
    project_budget, route_inventory,
)
from loopmem.polarization import H

SHORT = TransmissionParams(0.541, 0.419, 0.50, 0.662)
ANGLES = tuple(np.linspace(0.0, math.pi, 13))


def fringe_counts(amplitude, visibility, theta0, angles=ANGLES):
    return [malus_mean(t, amplitude, visibility, theta0) for t in angles]


# --- fringe fit ---

def test_malus_exact_full_visibility():
    fit = fit_malus(ANGLES, fringe_counts(4000.0, 1.0, math.pi / 8))
    assert fit.visibility == pytest.approx(1.0, abs=1e-12)
    assert fit.amplitude == pytest.approx(4000.0, rel=1e-12)
    assert fit.theta0 == pytest.approx(math.pi / 8, abs=1e-12)
    assert fit.sigma_visibility < 1e-6  # exact data: scaled covariance vanishes
    assert not fit.clamped


def test_malus_partial_visibility():
    fit = fit_malus(ANGLES, fringe_counts(2000.0, 0.8609, 0.3))
    assert fit.visibility == pytest.approx(0.8609, abs=1e-12)
    assert fit.theta0 == pytest.approx(0.3, abs=1e-12)


def test_malus_flat_fringe():
    fit = fit_malus(ANGLES, [750.0] * len(ANGLES))
    assert fit.visibility < 1e-12
    assert fit.amplitude == pytest.approx(1500.0, rel=1e-9)
    assert not fit.clamped


def test_malus_clamps_overunity():
    # grid avoids the trough so all model counts stay positive
    fit = fit_malus(ANGLES, fringe_counts(3000.0, 1.02, math.pi / 8))
    assert fit.clamped
    assert fit.visibility == 1.0


def test_malus_scale_invariance():
    base = fringe_counts(1000.0, 0.7646, 1.1)
    a = fit_malus(ANGLES, base)
    b = fit_malus(ANGLES, [39.0 * c for c in base])
    assert b.visibility == pytest.approx(a.visibility, abs=1e-9)
    assert b.theta0 == pytest.approx(a.theta0, abs=1e-9)
    assert b.amplitude == pytest.approx(39.0 * a.amplitude, rel=1e-9)


def test_malus_validation():
    with pytest.raises(ValueError):
        fit_malus(ANGLES, [1.0] * 5)
    with pytest.raises(ValueError):
        fit_malus((0.0, 0.1, 0.2, 0.1, 0.0), [1.0] * 5)  # 3 distinct angles
    with pytest.raises(ValueError):
        fit_malus(tuple(np.linspace(0, 1.0, 7)), [1.0] * 7)  # span < pi
    with pytest.raises(NoSignalError):
        fit_malus(ANGLES, [0.0] * len(ANGLES))
    with pytest.raises(ValueError):
        fit_malus(ANGLES, [-1.0] + [1.0] * (len(ANGLES) - 1))
    degenerate = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)
    with pytest.raises(IncompleteSetError):
        fit_malus(degenerate, [1.0, 2.0, 1.0, 2.0, 1.0])


# --- decay fit ---

def test_decay_exact_recovery():
    n = list(range(1, 9))
    counts = [1e5 * 0.49 ** m for m in n]
    fit = fit_decay(n, counts)
    assert fit.gamma_per_cycle == pytest.approx(0.49, abs=1e-12)
    assert fit.prefactor == pytest.approx(1e5 * 0.49, rel=1e-9)
    assert fit.sigma_gamma < 1e-6
    assert fit.n_excluded == 0 and not fit.clamped


def test_decay_matches_simulator_closed_form():
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    ds = run_scan(cfg, H, DecayScan(), pair_rate=2000.0, acquisition_s=60.0, seed=None)
    fit = fit_decay(list(ds.n_cycles), ds.counts())
    assert fit.gamma_per_cycle == pytest.approx(0.50, abs=1e-12)
    assert fit.prefactor == pytest.approx(2000.0 * 60.0 * 0.419 * 0.662, rel=1e-9)


def test_decay_excludes_zero_counts():
    fit = fit_decay([1, 2, 3, 4, 5], [800.0, 400.0, 0.0, 100.0, 50.0])
    assert fit.n_excluded == 1
    assert fit.gamma_per_cycle == pytest.approx(0.5, abs=1e-12)


def test_decay_clamps_growth():
    fit = fit_decay([1, 2, 3, 4], [100.0, 200.0, 400.0, 800.0])
    assert fit.clamped
    assert fit.gamma_per_cycle == 1.0


def test_decay_constant_counts():
    # boundary case: rounding can land either side of 1, clamp keeps it legal
    fit = fit_decay([1, 2, 3, 4], [512.0] * 4)
    assert fit.gamma_per_cycle == pytest.approx(1.0, abs=1e-12)
    assert fit.gamma_per_cycle <= 1.0


def test_decay_validation():
    with pytest.raises(ValueError):
        fit_decay([1, 2], [10.0, 5.0])
    with pytest.raises(ValueError):
        fit_decay([0, 1, 2], [10.0, 5.0, 2.0])
    with pytest.raises(ValueError):
        fit_decay([1.5, 2, 3], [10.0, 5.0, 2.0])
    with pytest.raises(ValueError):
        fit_decay([1, 2, 3], [10.0, 5.0])
    with pytest.raises(NoSignalError):
        fit_decay([1, 2, 3], [0.0, 0.0, 0.0])
    with pytest.raises(NoSignalError):
        fit_decay([1, 2, 3], [10.0, 0.0, 0.0])


def test_decay_closed_loop_with_sampling():
    # sampled scans must bracket the true value within the fitted error bar
    cfg = MemoryConfig.from_params(SHORT, delta_tau=36.5)
    rate = 1e4 / (efficiency(SHORT, 1) * 60.0)
    hits = 0
    for seed in range(100):
        ds = run_scan(cfg, H, DecayScan(), pair_rate=rate, acquisition_s=60.0,
                      seed=3000 + seed)
        fit = fit_decay(list(ds.n_cycles), ds.counts())
        if abs(fit.gamma_per_cycle - 0.50) <= 3.0 * fit.sigma_gamma:
            hits += 1
    assert hits >= 97


# --- stacked fits: one row per scan on a shared grid ---

def _fringe_stack(seed, rows=17):
    rng = np.random.default_rng(seed)
    amplitude = rng.uniform(10.0, 1e6, (rows, 1))
    visibility = rng.uniform(0.0, 1.0, (rows, 1))
    theta0 = rng.uniform(0.0, math.pi, (rows, 1))
    return rng.poisson(amplitude / 2 * (1 + visibility * np.cos(2 * (np.array(ANGLES) - theta0))))


def _decay_stack(seed, n, rows=17):
    rng = np.random.default_rng(seed)
    level = rng.uniform(3.0, 1e6, (rows, 1))
    gamma = rng.uniform(0.2, 1.0, (rows, 1))
    counts = rng.poisson(level * gamma ** (np.array(n) - 1.0))
    counts[:, :2] = np.maximum(counts[:, :2], 1)  # every row keeps two distinct points
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_each_stacked_fringe_fit_is_its_fit_alone(seed):
    counts = _fringe_stack(seed)
    fits = fit_malus(ANGLES, counts)
    assert isinstance(fits, tuple) and len(fits) == len(counts)
    for i, row in enumerate(counts):
        assert fits[i] == fit_malus(ANGLES, row)
        assert fit_malus(ANGLES, counts[i:i + 1]) == (fits[i],)
        assert fit_malus(ANGLES, list(row)) == fits[i]


@pytest.mark.parametrize("seed", range(4))
def test_each_stacked_decay_fit_is_its_fit_alone(seed):
    n = list(range(1, 25))
    counts = _decay_stack(seed, n)
    assert (counts == 0).any(axis=1).sum() >= 3  # rows with excluded points
    fits = fit_decay(n, counts)
    assert len(fits) == len(counts)
    for row, fit in zip(counts, fits):
        assert fit == fit_decay(n, row)
        assert fit.n_excluded == int((row == 0).sum())


def test_a_decay_row_with_zero_counts_keeps_its_single_fit():
    n = [1, 2, 3, 4, 5]
    counts = [[800.0, 400.0, 0.0, 100.0, 50.0], [900.0, 430.0, 210.0, 0.0, 0.0]]
    fits = fit_decay(n, counts)
    assert fits == (fit_decay(n, counts[0]), fit_decay(n, counts[1]))
    assert [f.n_excluded for f in fits] == [1, 2]
    assert fits[0].gamma_per_cycle == pytest.approx(0.5, abs=1e-12)


_FRINGE_ROWS = {
    "good": fringe_counts(2000.0, 0.8, 0.3),
    "zero": [0.0] * len(ANGLES),
    "negative": [-1.0] + [1.0] * (len(ANGLES) - 1),
    "nan": [1.0] * (len(ANGLES) - 1) + [math.nan],
}
# sin 2theta vanishes on every angle: the design has rank 2 whatever the counts
DEGENERATE = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)
_DEGENERATE_ROWS = {
    "good": [1.0, 2.0, 1.0, 2.0, 1.0],
    "zero": [0.0] * 5,
    "negative": [-1.0] + [1.0] * 4,
    "nan": [1.0] * 4 + [math.nan],
}


def _first_error(fit, grid, rows):
    """The error a stack raises: a row with an invalid count before any row's fit error."""
    invalid = [row for row in rows if not (np.isfinite(row) & (np.asarray(row) >= 0)).all()]
    for row in invalid + rows:
        try:
            fit(grid, row)
        except Exception as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("grid, table, kinds", [
    (ANGLES, _FRINGE_ROWS, ("good", "zero")),
    (DEGENERATE, _DEGENERATE_ROWS, ("good", "zero")),
    (DEGENERATE, _DEGENERATE_ROWS, ("good", "zero", "nan")),
    (DEGENERATE, _DEGENERATE_ROWS, ("zero", "good")),
    (DEGENERATE, _DEGENERATE_ROWS, ("zero", "good", "negative")),
    (ANGLES, _FRINGE_ROWS, ("zero", "negative")),
    (ANGLES, _FRINGE_ROWS, ("good", "negative", "zero")),
    (ANGLES, _FRINGE_ROWS, ("negative", "zero")),
    (DEGENERATE, _DEGENERATE_ROWS, ("good", "zero", "negative")),
])
def test_a_fringe_stack_raises_the_first_failing_rows_error(grid, table, kinds):
    rows = [table[kind] for kind in kinds]
    want = _first_error(fit_malus, grid, rows)
    with pytest.raises(want[0]) as err:
        fit_malus(grid, rows)
    assert str(err.value) == want[1]


@pytest.mark.parametrize("level", [1e3, 1e19, 1e20, 1e100])
def test_the_degenerate_grid_verdict_ignores_the_count_level(level):
    # the weighted design's singular values scale as 1/sqrt(level); the verdict must not
    fit = fit_malus(ANGLES, [[c * level / 2000.0 for c in fringe_counts(2000.0, 0.8, 0.3)]])[0]
    assert fit.visibility == pytest.approx(0.8, rel=1e-9)
    assert fit.theta0 == pytest.approx(0.3, rel=1e-9)
    with pytest.raises(IncompleteSetError, match="degenerate"):
        fit_malus(DEGENERATE, [level, 2 * level, level, 2 * level, level])


@pytest.mark.parametrize("rows", [
    [[10.0, 5.0, 2.0], [0.0, 0.0, 0.0]],
    [[10.0, 5.0, 2.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[10.0, 5.0, 2.0], [0.0, 0.0, 0.0], [-1.0, 5.0, 2.0]],
    [[10.0, 5.0, 2.0], [-1.0, 5.0, 2.0], [0.0, 0.0, 0.0]],
    [[10.0, 5.0, 2.0], [0.0, 0.0, 0.0], [10.0, math.inf, 2.0]],
])
def test_a_decay_stack_raises_the_first_failing_rows_error(rows):
    want = _first_error(fit_decay, [1, 2, 3], rows)
    with pytest.raises(want[0]) as err:
        fit_decay([1, 2, 3], rows)
    assert str(err.value) == want[1]


def test_stacked_grid_checks_match_the_single_scan():
    with pytest.raises(ValueError, match="equal length"):
        fit_malus(ANGLES, [[1.0] * 5, [1.0] * 5])
    with pytest.raises(ValueError, match="5 distinct"):
        fit_malus((0.0, 0.1, 0.2, 0.1, 0.0), [[1.0] * 5, [1.0] * 5])
    # every count of a stack is checked before the grid, as a single scan's are
    for rows in ([[1.0] * 5, [-1.0] * 5], [[-1.0] * 5, [1.0] * 5], [[1.0] * 5, [math.nan] * 5]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_malus((0.0, 0.1, 0.2, 0.1, 0.0), rows)
    with pytest.raises(ValueError, match="integers"):
        fit_decay([0, 1, 2], [[10.0, 5.0, 2.0]] * 2)
    assert fit_malus(ANGLES, np.zeros((0, len(ANGLES)))) == ()


def test_a_singular_normal_matrix_falls_back_alone():
    # at 1e18 counts the weights 1/k vanish next to the zero count's 1, and
    # the normal matrix x^T W x of that row is singular to working precision
    singular = np.full(len(ANGLES), 1e18)
    singular[1] = 0.0
    th = np.array(ANGLES)
    x = np.column_stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(x.T @ (x / np.maximum(singular, 1.0)[:, None]))
    good = _fringe_stack(9, rows=2)
    fits = fit_malus(ANGLES, [good[0], singular, good[1]])
    assert fits == (fit_malus(ANGLES, good[0]), fit_malus(ANGLES, singular),
                    fit_malus(ANGLES, good[1]))
    assert fits[1].visibility == 1.0 and math.isfinite(fits[1].sigma_visibility)


def _malus_design(th):
    return np.column_stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)])


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _check_wls(x, y, w, rtol_beta, rtol_cov):
    # references: each row by lstsq, and (x^T W x)^-1 as R^-1 R^-T from the
    # QR factors of the weighted design, which never forms x^T W x either
    beta, inv, chi2 = _wls(x, y, w)
    for i, (yi, wi) in enumerate(zip(y, w)):
        xw = x * np.sqrt(wi)[:, None]
        want = np.linalg.lstsq(xw, yi * np.sqrt(wi), rcond=None)[0]
        r_inv = np.linalg.inv(np.linalg.qr(xw, mode="r"))
        assert _relative(beta[i], want) <= rtol_beta
        assert _relative(inv[i], r_inv @ r_inv.T) <= rtol_cov
        assert chi2[i] == pytest.approx(wi @ (yi - x @ beta[i]) ** 2, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", range(4))
def test_wls_matches_lstsq_and_a_qr_inverse(seed):
    rng = np.random.default_rng(seed)
    for x in (_malus_design(np.array(ANGLES)), np.column_stack([np.ones(24), np.arange(24.0)])):
        y = rng.uniform(0.0, 1e6, (9, len(x)))
        w = 1.0 / np.maximum(y, 1.0) * (rng.uniform(size=y.shape) > 0.2)  # zero-weight points
        _check_wls(x, y, w, 1e-12, 1e-10)


def test_wls_inverts_a_singular_normal_matrix_from_the_design():
    # the row of test_a_singular_normal_matrix_falls_back_alone: its x^T W x
    # is singular to working precision, its weighted design is not
    singular = np.full((1, len(ANGLES)), 1e18)
    singular[0, 1] = 0.0
    _check_wls(_malus_design(np.array(ANGLES)), singular, 1.0 / np.maximum(singular, 1.0),
               1e-8, 1e-8)


# --- loss budget ---

def improved_parts(length_m=0.5):
    return [
        ComponentSpec(COUPLER, 0.96), ComponentSpec(COUPLER, 0.96),
        ComponentSpec(COUPLER, 0.96),
        ComponentSpec(CIRCULATOR_ARM, 0.98),
        ComponentSpec(POCKELS_CELL, 0.99),
        ComponentSpec(FIBER_SEGMENT, length_m=length_m, atten_db_per_km=4.0),
        ComponentSpec(RETROREFLECTOR, 0.98),
        ComponentSpec(FPC),
    ]


def test_budget_improved_inventory():
    report = project_budget(improved_parts(), delta_tau=36.5)
    assert 0.88 <= report.per_cycle <= 0.92
    assert report.per_cycle == pytest.approx(0.8933131691485515, rel=1e-12)
    assert report.eta_table[0] == pytest.approx(report.params.g13, rel=1e-12)


def test_budget_eta_table_consistency():
    report = project_budget(improved_parts(), delta_tau=36.5, n_max=6)
    assert len(report.eta_table) == 7
    for n, eta in enumerate(report.eta_table):
        assert eta == pytest.approx(efficiency(report.params, n), rel=1e-12)


def test_budget_wavelength_replaces_attenuation():
    report = project_budget(improved_parts(5000.0), delta_tau=25000.0,
                            wavelength_nm=780.0)
    assert report.fiber_factor == pytest.approx(1e-4, rel=1e-12)
    swapped = project_budget(improved_parts(5000.0), delta_tau=25000.0,
                             wavelength_nm=1550.0)
    assert swapped.fiber_factor == pytest.approx(10 ** -0.2, rel=1e-12)
    assert swapped.per_cycle > report.per_cycle


def test_budget_accepts_config_and_lifetime_fields():
    cfg = route_inventory(improved_parts(), 36.5)
    report = project_budget(cfg)
    assert report.delta_tau == 36.5
    assert report.lifetime_time_1e_ns == pytest.approx(
        report.lifetime_cycles_1e * 36.5, rel=1e-12)
    assert report.lifetime_cycles_1e == pytest.approx(
        -1.0 / math.log(report.per_cycle), rel=1e-12)


def test_budget_validation():
    with pytest.raises(ValueError):
        project_budget(improved_parts())  # flat list needs delta_tau
    with pytest.raises(ValueError):
        project_budget(improved_parts(), delta_tau=36.5, n_max=-1)
    with pytest.raises(ValueError):
        project_budget(improved_parts(), delta_tau=36.5, wavelength_nm=1310.0)


def test_route_inventory_extra_coupler_is_connector():
    parts = improved_parts() + [ComponentSpec(COUPLER, 0.85)]
    cfg = route_inventory(parts, 36.5)
    assert sum(1 for c in cfg.delay_zone if c.kind == COUPLER) == 1
    worse = project_budget(cfg)
    base = project_budget(route_inventory(improved_parts(), 36.5))
    assert worse.per_cycle == pytest.approx(base.per_cycle * 0.85, rel=1e-12)


def test_route_inventory_validation():
    with pytest.raises(TypeError):
        ComponentSpec("BEAM_BLOCK", 0.5)  # unplaceable kinds never construct
    with pytest.raises(SchemaError) as err:
        route_inventory(improved_parts()[1:], 36.5)  # only two couplers
    assert err.value.field == "inventory"
    no_delay = [p for p in improved_parts() if p.kind not in
                (FIBER_SEGMENT, RETROREFLECTOR, FPC)]
    with pytest.raises(SchemaError):
        route_inventory(no_delay, 36.5)


# --- scalar helpers ---

def test_attenuation_defaults():
    assert default_attenuation_db_per_km(780) == 4.0
    assert default_attenuation_db_per_km(1550) == 0.2
    with pytest.raises(ValueError):
        default_attenuation_db_per_km(633)


def test_lifetime_values():
    assert lifetime_1e(0.99) == pytest.approx(99.49916247342207, rel=1e-12)
    assert lifetime_1e(1.0) == math.inf
    assert lifetime_1e(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        lifetime_1e(0.0)
    with pytest.raises(ValueError):
        lifetime_1e(1.2)


def test_fiber_transmission_reference_points():
    assert fiber_transmission(50.0, 4.0) == pytest.approx(
        0.9120108393559098, rel=1e-12)
    assert fiber_transmission(5000.0, 0.2) == pytest.approx(
        0.6309573444801932, rel=1e-12)


def test_visibility_matches_synth_datasets():
    for vis in (0.7646, 0.8609, 1.0):
        ds = synth_malus_dataset(ANGLES, 2e4 / (1 + vis), vis, 0.3, seed=None)
        fit = fit_malus(ds.values(), ds.counts())
        assert fit.visibility == pytest.approx(vis, abs=1e-9)
