"""Library entry points refuse a NaN, infinite or negative number, or solve it finitely.

The CLI never passes such numbers (the scenario schema rejects them), so
these cases reach the library only from a direct call.  Each case is a
callable of a scratch directory and the error it must raise, or None for a
call that must return finite values; the test configuration turns any
RuntimeWarning into an error.  A count refused raises the one count check's
ValueError (numpy's LinAlgError is a ValueError too, so the message is
checked), or from `read_csv` a SchemaError on the field `counts`.  A fit
whose result passes the float range raises a ValueError saying so.  An
error given as a pair (error, pattern) must also match the pattern, which
names what was refused.
"""

import math

import numpy as np
import pytest

from loopmem.components import (FIBER_SEGMENT, POCKELS_CELL, ComponentSpec, DriveSchedule,
                                fiber_transmission, pockels_level)
from loopmem.counting import malus_mean, read_csv
from loopmem.engine import MemoryConfig, simulate_storage
from loopmem.errors import GainError, InvalidStateError, SchemaError, UnschedulableError
from loopmem.fitting import MalusFit, fit_decay, fit_malus, project_budget
from loopmem.polarization import H, PureState, make_pure
from loopmem.tomography import (MeasurementSet, _bloch, exact_mle_bloch, exact_mle_fidelities,
                                mle_reconstruct, monte_carlo_uncertainty,
                                reconstruct_with_uncertainty)

NAN, INF = math.nan, math.inf
ANGLES = tuple(np.linspace(0.0, math.pi, 9))
FRINGE = [1000.0 + 500.0 * math.cos(2.0 * t) for t in ANGLES]
MSET = MeasurementSet()
BIG, SAFE = [[1e200, 1.0, 1e200, 1e200]], [[1e150, 1.0, 1e150, 1e150]]
OVERFLOW = (ValueError, "counts overflow the float range")
MALUS_ANGLES = np.linspace(0.0, math.pi, 13)
MC_COUNTS = [300.0, 200.0, 260.0, 310.0]


def _fringe(amplitude):
    return [malus_mean(t, amplitude, 0.8, 0.3) for t in MALUS_ANGLES]


def _csv_with_count(tmp_path, cell):
    path = tmp_path / "scan.csv"
    path.write_text("# kind=decay pair_rate=1.0 detection_eff=1.0 acquisition_s=1.0 seed=none\n"
                    "setting_label,setting_value,counts,acquisition_s,n_cycles,seed\n"
                    f"n_cycles,1.0,{cell},1.0,1,\n")
    return read_csv(path)


def _unchecked_state(alpha, beta):
    """A PureState that skipped its own checks, as an object built by hand could."""
    state = object.__new__(PureState)
    object.__setattr__(state, "alpha", alpha)
    object.__setattr__(state, "beta", beta)
    return state


def _solves_as_the_unscaled_row(tmp_path):
    r, failed = exact_mle_bloch(BIG, MSET)
    assert not failed.any()
    np.testing.assert_allclose(r, exact_mle_bloch(SAFE, MSET)[0], rtol=1e-9)


def _fidelity_is_finite(tmp_path):
    fid, failed = exact_mle_fidelities(BIG, MSET, (H,))
    assert not failed.any() and np.isfinite(fid).all()


def _fits_as_the_exact_solution(count):
    def check(tmp_path):
        row = [count, 1.0, count, count]
        res = mle_reconstruct(row, MSET, H)
        assert res.converged
        assert all(map(math.isfinite, (res.flux, res.log_likelihood, res.fidelity)))
        r, failed = exact_mle_bloch([row], MSET)
        assert not failed.any()
        np.testing.assert_allclose(_bloch(res.rho.matrix), r[0], rtol=0, atol=1e-6)
    return check


def _fringe_fit_at_2e150(tmp_path):
    fit = fit_malus(MALUS_ANGLES, _fringe(2e150))
    assert fit == MalusFit(1.9999999999999996e+150, 0.8, 0.29999999999999993,
                           fit.sigma_visibility, False)
    assert 0.0 < fit.sigma_visibility < 1e-15


def _decay_fit_at_1e300(tmp_path):
    n = np.arange(1, 9)
    fit = fit_decay(n, 1e300 * 0.5**n)
    assert fit.gamma_per_cycle == pytest.approx(0.5, rel=1e-12)
    assert fit.prefactor == pytest.approx(5e299, rel=1e-12)
    assert 0.0 <= fit.sigma_gamma < 1e-12


CASES = [
    # counts: both fits, single scans and stacks, and read_csv
    pytest.param(lambda _: fit_malus(ANGLES, [NAN] + FRINGE[1:]), ValueError, id="fit_malus-nan"),
    pytest.param(lambda _: fit_malus(ANGLES, [INF] + FRINGE[1:]), ValueError, id="fit_malus-inf"),
    pytest.param(lambda _: fit_decay([1, 2, 3], [10.0, NAN, 2.0]), ValueError, id="fit_decay-nan"),
    pytest.param(lambda _: fit_decay([1, 2, 3], [10.0, INF, 2.0]), ValueError, id="fit_decay-inf"),
    pytest.param(lambda _: fit_malus(ANGLES, [[0.0] * 9, FRINGE[:8] + [NAN]]), ValueError,
                 id="fit_malus-stack-checked-before-a-row-without-signal"),
    pytest.param(lambda _: fit_decay([1, 2, 3], [[0.0] * 3, [-1.0, 5.0, 2.0]]), ValueError,
                 id="fit_decay-stack-checked-before-a-row-without-signal"),
    pytest.param(lambda tmp: _csv_with_count(tmp, "nan"), SchemaError, id="read_csv-nan"),
    pytest.param(lambda tmp: _csv_with_count(tmp, "-3"), SchemaError, id="read_csv-negative"),
    pytest.param(lambda tmp: _csv_with_count(tmp, "inf"), SchemaError, id="read_csv-inf"),
    # counts whose likelihood ascent would overflow
    pytest.param(_solves_as_the_unscaled_row, None, id="exact_mle_bloch-1e200"),
    pytest.param(_fidelity_is_finite, None, id="exact_mle_fidelities-1e200"),
    pytest.param(_fits_as_the_exact_solution(1e200), None, id="mle_reconstruct-1e200"),
    pytest.param(_fits_as_the_exact_solution(1e300), None, id="mle_reconstruct-1e300"),
    # counts whose fit passes the float range, and rows below it that fit as before
    pytest.param(lambda _: fit_malus(MALUS_ANGLES, _fringe(2e200)), OVERFLOW,
                 id="fit_malus-2e200"),
    pytest.param(lambda _: fit_malus(MALUS_ANGLES, _fringe(2e300)), OVERFLOW,
                 id="fit_malus-2e300"),
    pytest.param(lambda _: fit_malus(MALUS_ANGLES, _fringe(3e307)), OVERFLOW,
                 id="fit_malus-3e307-whose-sum-overflows"),
    pytest.param(lambda _: fit_decay(range(1, 9), [1.7e308, 5e307] * 4), OVERFLOW,
                 id="fit_decay-chi-square-past-the-float-range"),
    pytest.param(lambda _: fit_decay([2, 3, 4], [1.7e308, 0.85e308, 0.425e308]), OVERFLOW,
                 id="fit_decay-prefactor-past-the-float-range"),
    pytest.param(_fringe_fit_at_2e150, None, id="fit_malus-2e150"),
    pytest.param(_decay_fit_at_1e300, None, id="fit_decay-1e300"),
    # fit grids, refused before any trigonometry or log-domain design
    pytest.param(lambda _: fit_malus(ANGLES[:8] + (INF,), FRINGE), (ValueError, "angles"),
                 id="fit_malus-angle-inf"),
    pytest.param(lambda _: fit_malus((NAN,) + ANGLES[1:], FRINGE), (ValueError, "angles"),
                 id="fit_malus-angle-nan"),
    pytest.param(lambda _: fit_decay([1, 2, INF], [10.0, 5.0, 2.0]), (ValueError, "n_values"),
                 id="fit_decay-n-inf"),
    # Monte Carlo draw counts and seeds, refused before any draw
    *(pytest.param(lambda _, f=f, arg=arg, v=v: f(MC_COUNTS, MSET, H, **{arg: v}),
                   (ValueError, arg), id=f"{f.__name__}-{arg}-{v}")
      for f in (monte_carlo_uncertainty, reconstruct_with_uncertainty)
      for arg, values in (("n_samples", (NAN, INF, 2.5, 1e300)), ("seed", (NAN, 2.5, 1e300)))
      for v in values),
    # device numbers
    pytest.param(lambda _: MemoryConfig(delta_tau=NAN), InvalidStateError, id="delta_tau-nan"),
    pytest.param(lambda _: MemoryConfig(delta_tau=INF), InvalidStateError, id="delta_tau-inf"),
    pytest.param(lambda _: project_budget(MemoryConfig(100.0), NAN), InvalidStateError,
                 id="project_budget-delta_tau-nan"),
    pytest.param(lambda _: project_budget(MemoryConfig(100.0), INF), InvalidStateError,
                 id="project_budget-delta_tau-inf"),
    pytest.param(lambda _: project_budget(MemoryConfig(100.0), -5.0), InvalidStateError,
                 id="project_budget-delta_tau-negative"),
    pytest.param(lambda _: ComponentSpec(POCKELS_CELL, rotation_error=NAN),
                 (InvalidStateError, "rotation_error"), id="rotation_error-nan"),
    pytest.param(lambda _: ComponentSpec(POCKELS_CELL, static_phase=INF),
                 (InvalidStateError, "static_phase"), id="static_phase-inf"),
    pytest.param(lambda _: MemoryConfig(100.0, pass_through_time=NAN), InvalidStateError,
                 id="pass_through_time-nan"),
    pytest.param(lambda _: MemoryConfig(100.0, coincidence_window=NAN), InvalidStateError,
                 id="coincidence_window-nan"),
    pytest.param(lambda _: MemoryConfig(100.0, pc_rise_time=NAN), InvalidStateError,
                 id="pc_rise_time-nan"),
    pytest.param(lambda _: MemoryConfig(100.0, herald_latency=NAN), InvalidStateError,
                 id="herald_latency-nan"),
    pytest.param(lambda _: MemoryConfig(100.0, delay_line_compensation=NAN), InvalidStateError,
                 id="delay_line_compensation-nan"),
    *(pytest.param(lambda _, name=name: MemoryConfig(100.0, **{name: INF}),
                   (InvalidStateError, name), id=f"{name}-inf")
      for name in ("pass_through_time", "delay_line_compensation", "pc_rise_time",
                   "herald_latency")),
    pytest.param(lambda _: ComponentSpec(FIBER_SEGMENT, length_m=NAN), InvalidStateError,
                 id="length_m-nan"),
    pytest.param(lambda _: ComponentSpec(FIBER_SEGMENT, atten_db_per_km=NAN), GainError,
                 id="atten_db_per_km-nan"),
    pytest.param(lambda _: ComponentSpec(FIBER_SEGMENT, length_m=INF), InvalidStateError,
                 id="length_m-inf"),
    pytest.param(lambda _: ComponentSpec(FIBER_SEGMENT, atten_db_per_km=INF), GainError,
                 id="atten_db_per_km-inf"),
    pytest.param(lambda _: simulate_storage(
        MemoryConfig(100.0, delay_zone=(ComponentSpec(FIBER_SEGMENT, atten_db_per_km=INF),)),
        H, 2), GainError, id="simulate_storage-zero-length-fiber-inf-attenuation"),
    pytest.param(lambda _: DriveSchedule(rise_time=NAN), UnschedulableError, id="rise_time-nan"),
    pytest.param(lambda _: pockels_level(DriveSchedule(transitions=((NAN, 1),)), 5.0),
                 UnschedulableError, id="transition-time-nan"),
    pytest.param(lambda _: DriveSchedule(transitions=((INF, 1),)), UnschedulableError,
                 id="transition-time-inf"),
    pytest.param(lambda _: fiber_transmission(NAN, 4.0), InvalidStateError,
                 id="fiber_transmission-length-nan"),
    pytest.param(lambda _: fiber_transmission(INF, 4.0), InvalidStateError,
                 id="fiber_transmission-length-inf"),
    pytest.param(lambda _: fiber_transmission(50.0, NAN), GainError,
                 id="fiber_transmission-attenuation-nan"),
    pytest.param(lambda _: fiber_transmission(0.0, INF), GainError,
                 id="fiber_transmission-attenuation-inf"),
    pytest.param(lambda _: make_pure(NAN, 1), InvalidStateError, id="make_pure-nan-alpha"),
    pytest.param(lambda _: make_pure(1, NAN), InvalidStateError, id="make_pure-nan-beta"),
    pytest.param(lambda _: make_pure(INF, 1), InvalidStateError, id="make_pure-inf"),
    pytest.param(lambda _: make_pure(complex(1.0, NAN), 0), InvalidStateError,
                 id="make_pure-nan-imaginary"),
    pytest.param(lambda _: PureState(NAN, 0.0), InvalidStateError, id="PureState-nan"),
    pytest.param(lambda _: simulate_storage(MemoryConfig(100.0), _unchecked_state(NAN, 0.0), 2),
                 InvalidStateError, id="conservation-check-nan"),
]


@pytest.mark.parametrize("call, error", CASES)
def test_a_non_finite_or_negative_number_is_refused_or_solved_finitely(call, error, tmp_path):
    if error is None:
        call(tmp_path)
        return
    error, match = error if isinstance(error, tuple) else (
        error, "finite and nonnegative" if error is ValueError else None)
    with pytest.raises(error, match=match) as err:
        call(tmp_path)
    if error is SchemaError:
        assert err.value.field == "counts"
