"""Fringe and decay fits for count data, plus loss-budget projection.

Both fits are weighted least squares with Poisson weights.  The reported
covariance is scaled by the reduced chi-square, so exact model data yields
zero uncertainty while sampled data keeps the usual 1/sqrt(counts) scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .components import (
    CIRCULATOR_ARM, COUPLER, FIBER_SEGMENT, FPC, MIRROR, PBS, POCKELS_CELL,
    RETROREFLECTOR, ComponentSpec, fiber_transmission,
)
from .counting import checked_counts
from .engine import MemoryConfig, TransmissionParams, derive_transmission_params, efficiency
from .errors import IncompleteSetError, NoSignalError, SchemaError

# Typical single-mode fiber attenuation by operating wavelength.
ATTENUATION_DB_PER_KM = {780.0: 4.0, 1550.0: 0.2}

_CIRC_KINDS = {CIRCULATOR_ARM, MIRROR, PBS}
_DELAY_KINDS = {FIBER_SEGMENT, RETROREFLECTOR, FPC}


@dataclass(frozen=True)
class MalusFit:
    """Analyzer-fringe fit C(theta) = A/2 * (1 + V cos 2(theta - theta0))."""

    amplitude: float
    visibility: float
    theta0: float
    sigma_visibility: float
    clamped: bool = False


@dataclass(frozen=True)
class DecayFit:
    """Cycle-decay fit C(N) = C1 * gamma^(N-1)."""

    prefactor: float
    gamma_per_cycle: float
    sigma_gamma: float
    n_excluded: int = 0
    clamped: bool = False


@dataclass(frozen=True)
class BudgetReport:
    params: TransmissionParams
    eta_table: tuple[float, ...]
    per_cycle: float
    lifetime_cycles_1e: float
    lifetime_time_1e_ns: float
    wavelength_nm: float | None
    fiber_factor: float
    delta_tau: float


def _stack_counts(counts, grid: np.ndarray, name: str) -> tuple[np.ndarray, bool]:
    """(counts as one row per scan, whether counts was one scan); every count checked first."""
    single = np.ndim(counts) == 1
    k = checked_counts(counts, 1 if single else 2)
    if grid.shape != k.shape[-1:]:
        raise ValueError(f"{name} and counts must have equal length")
    return np.atleast_2d(k), single


@np.errstate(over="ignore", invalid="ignore")  # the fits refuse a row that is not finite
def _wls(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weighted least squares of each row of y, weights w, on the shared design x.

    Returns, one row each: beta, the inverse normal matrix (x^T W x)^-1
    and the weighted residual sum of squares.  One stacked SVD of the
    designs sqrt(w) x gives all of them without forming x^T W x, whose
    condition number is the square of the design's.  Singular values at or
    below eps * max(m, n) times a row's largest count as zero, numpy's
    default least-squares cutoff.  A row's results are bitwise those of the
    row alone; a row whose squared residuals pass the float range gets a
    non-finite chi-square.
    """
    sw = np.sqrt(w)
    u, sv, vt = np.linalg.svd(x * sw[:, :, None], full_matrices=False)
    kept = sv > np.finfo(float).eps * max(x.shape) * sv[:, :1]
    vs = vt.transpose(0, 2, 1) * np.divide(1.0, sv, out=np.zeros_like(sv), where=kept)[:, None, :]
    beta = (vs @ (u.transpose(0, 2, 1) @ (y * sw)[:, :, None]))[:, :, 0]
    resid = y - (x @ beta[:, :, None])[:, :, 0]
    chi2 = (w[:, None, :] @ (resid**2)[:, :, None])[:, 0, 0]
    return beta, vs @ vs.transpose(0, 2, 1), chi2


def fit_malus(angles, counts) -> MalusFit | tuple[MalusFit, ...]:
    """Visibility fit to an analyzer rotation scan.

    The model is linear in (a, b, c) with C = a + b cos 2theta + c sin 2theta,
    so the weighted optimum is found exactly; A = 2a, V = sqrt(b^2+c^2)/a,
    theta0 = atan2(c, b)/2.  Rescaling all counts by a common factor leaves
    V and theta0 unchanged.  Angles whose design has rank below 3 (its
    smallest singular value at most 1e-9 of its largest) are a degenerate
    grid at any count level.

    A 2-D `counts` holds one scan per row on the shared angles and returns
    one fit per row, each the fit of that row alone.  A NaN, infinite or
    negative count anywhere in a stack raises a ValueError before any row is
    fitted; otherwise the stack raises the error of its first failing row.
    A row whose covariance passes the float range (counts of about 1e170
    and up) raises a ValueError.
    """
    th = np.asarray(angles, dtype=float)
    k, single = _stack_counts(counts, th, "angles")
    if len(np.unique(th)) < 5:
        raise ValueError("need at least 5 distinct analyzer angles")
    if th.max() - th.min() < math.pi - 1e-9:
        raise ValueError("analyzer angles must span at least half a turn")

    x = np.column_stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)])
    sv = np.linalg.svd(x, compute_uv=False)
    degenerate = sv[-1] <= 1e-9 * sv[0]  # the angles alone decide, not the count level
    beta, inv, chi2 = _wls(x, k, 1.0 / np.maximum(k, 1.0))
    fits = []
    for peak, (a, b, c), inv_normal, rss in zip(
            k.max(axis=1).tolist(), beta.tolist(), inv, chi2.tolist()):
        if peak <= 0:  # the max, as a sum can overflow
            raise NoSignalError("fringe scan carries no counts")
        if degenerate:
            raise IncompleteSetError("degenerate analyzer angle grid")
        if a <= 0:
            raise NoSignalError("fitted fringe level is not positive")
        with np.errstate(over="ignore", invalid="ignore"):
            cov = inv_normal * (rss / (len(th) - 3))  # scaled by the reduced chi-square
        if not np.isfinite(cov).all():
            raise ValueError("fringe fit covariance is not finite: counts overflow the float range")
        r = math.hypot(b, c)
        vis = r / a
        if r > 0:
            grad = np.array([-vis / a, b / (a * r), c / (a * r)])
            sigma_v = math.sqrt(max(grad @ cov @ grad, 0.0))
        else:
            # flat fringe: direction of the (b, c) perturbation is undefined
            sigma_v = math.sqrt(max(cov[1, 1], cov[2, 2])) / a
        fits.append(MalusFit(2.0 * a, min(vis, 1.0), 0.5 * math.atan2(c, b), sigma_v, vis > 1.0))
    return fits[0] if single else tuple(fits)


def fit_decay(n_values, counts) -> DecayFit | tuple[DecayFit, ...]:
    """Per-cycle survival fit, linear in the log domain.

    Zero-count points carry no log-domain information and are excluded,
    tracked in n_excluded.  gamma estimates above 1 are clamped with a flag.
    A 2-D `counts` fits each row on the shared n_values, and checks every
    count before any row is fitted, as `fit_malus` does; a row whose
    uncertainty passes the float range raises a ValueError, as there.
    """
    n = np.asarray(n_values, dtype=float)
    k, single = _stack_counts(counts, n, "n_values")
    if len(n) < 3:
        raise ValueError("need at least 3 scan points")
    if np.any(n < 1) or np.any(n != np.round(n)):
        raise ValueError("cycle counts must be integers >= 1")

    keep = k > 0
    kept = keep.sum(axis=1)
    spread = np.where(keep, n, -np.inf).max(axis=1) > np.where(keep, n, np.inf).min(axis=1)
    # an excluded point has weight 0 and log-count 0
    x = np.column_stack([np.ones_like(n), n - 1.0])
    beta, inv, chi2 = _wls(x, np.log(k, out=np.zeros_like(k), where=keep), k * keep)
    fits = []
    for n_kept, spread_, (b0, b1), inv11, rss in zip(
            kept.tolist(), spread.tolist(), beta.tolist(), inv[:, 1, 1].tolist(), chi2.tolist()):
        if n_kept == 0:
            raise NoSignalError("decay scan carries no counts")
        if n_kept < 2 or not spread_:
            raise NoSignalError("too few nonzero points to fit a decay")
        gamma = math.exp(b1)
        chi2_red = rss / (n_kept - 2) if n_kept > 2 else 0.0
        sigma = gamma * math.sqrt(max(inv11 * chi2_red, 0.0))
        if not math.isfinite(sigma):
            raise ValueError("decay fit uncertainty is not finite: counts overflow the float range")
        fits.append(DecayFit(math.exp(b0), min(gamma, 1.0), sigma, len(n) - n_kept, gamma > 1.0))
    return fits[0] if single else tuple(fits)


def default_attenuation_db_per_km(wavelength_nm: float) -> float:
    try:
        return ATTENUATION_DB_PER_KM[float(wavelength_nm)]
    except KeyError:
        known = sorted(ATTENUATION_DB_PER_KM)
        raise ValueError(f"no attenuation default at {wavelength_nm} nm; known: {known}") from None


def lifetime_1e(per_cycle: float) -> float:
    """Cycles until the survival drops to 1/e; inf for a lossless cycle."""
    if not 0.0 < per_cycle <= 1.0:
        raise ValueError("per-cycle efficiency must lie in (0, 1]")
    if per_cycle == 1.0:
        return math.inf
    return -1.0 / math.log(per_cycle)


def route_inventory(parts, delta_tau: float) -> MemoryConfig:
    """Build a config from a flat part list.

    Couplers are taken in order as input, loop, output; any further coupler
    entries model mating-sleeve connectors and join the delay line.
    """
    couplers: list[ComponentSpec] = []
    circ: list[ComponentSpec] = []
    switch: list[ComponentSpec] = []
    delay: list[ComponentSpec] = []
    for part in parts:
        if part.kind == COUPLER:
            (couplers if len(couplers) < 3 else delay).append(part)
        elif part.kind == POCKELS_CELL:
            switch.append(part)
        elif part.kind in _CIRC_KINDS:
            circ.append(part)
        elif part.kind in _DELAY_KINDS:
            delay.append(part)
        else:
            raise SchemaError(f"cannot place component kind {part.kind!r}", field="inventory")
    if len(couplers) < 3:
        raise SchemaError("inventory needs three couplers", field="inventory")
    if not circ or not switch or not delay:
        raise SchemaError("inventory must cover all three zones", field="inventory")
    return MemoryConfig(
        delta_tau=delta_tau,
        input_coupler=couplers[0], loop_coupler=couplers[1], output_coupler=couplers[2],
        circulator_zone=tuple(circ), switch_zone=tuple(switch), delay_zone=tuple(delay))


def project_budget(inventory, delta_tau: float | None = None,
                   wavelength_nm: float | None = None, n_max: int = 8) -> BudgetReport:
    """Efficiency projection for a component inventory.

    `inventory` is either a MemoryConfig or a flat ComponentSpec list routed
    to zones by kind.  When wavelength_nm is given, every fiber segment's
    attenuation is replaced by the tabulated value for that wavelength.
    """
    if isinstance(inventory, MemoryConfig):
        cfg = inventory
        if delta_tau is None:
            delta_tau = cfg.delta_tau
    else:
        if delta_tau is None:
            raise ValueError("delta_tau is required with a flat inventory list")
        cfg = route_inventory(inventory, delta_tau)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    if wavelength_nm is not None:
        atten = default_attenuation_db_per_km(wavelength_nm)
        cfg = replace(cfg, delta_tau=delta_tau, delay_zone=tuple(
            replace(c, atten_db_per_km=atten) if c.kind == FIBER_SEGMENT else c
            for c in cfg.delay_zone))

    params = derive_transmission_params(cfg)
    eta = tuple(efficiency(params, n) for n in range(n_max + 1))
    per_cycle = params.g22
    life = lifetime_1e(per_cycle) if per_cycle > 0 else 0.0
    fiber_factor = 1.0
    for c in cfg.delay_zone:
        if c.kind == FIBER_SEGMENT:
            fiber_factor *= fiber_transmission(c.length_m, c.atten_db_per_km)
    return BudgetReport(params, eta, per_cycle, life, life * delta_tau,
                        wavelength_nm, fiber_factor, delta_tau)
