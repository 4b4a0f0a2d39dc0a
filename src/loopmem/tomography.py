"""Single-qubit state reconstruction from projective count data.

Counts behind projector |psi_i> are modeled as Poisson with mean s * q_i
where q_i = <psi_i| rho_t |psi_i>, rho_t is an unnormalized density matrix
and s an overall flux scale.  The flux is profiled out analytically, so the
optimizer only sees the four real parameters of the triangular factor

    T = [[t1, 0], [t3 + i t4, t2]],    rho_t = T^dagger T,

which keeps every iterate positive semidefinite by construction.

A set of exactly four projectors is a saturated model (James et al.,
"Measurement of qubits", PRA 64, 052312 (2001)): linear inversion reproduces
the counts exactly, so it is the maximum-likelihood estimate whenever it is
positive semidefinite, and otherwise the optimum is a pure state.
`exact_mle_bloch` solves that case for many count vectors at once, and
`exact_mle_fidelities` turns its solutions into fidelities with target
states: `monte_carlo_uncertainty` uses it for every four-projector error bar.

scipy's L-BFGS is imported on the first `mle_reconstruct` call: the call
goes through the module attribute `minimize`, which the module `__getattr__`
binds on first access, so runs without a likelihood fit never load scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .counting import DEFAULT_PROJECTORS, ScanDataset
from .errors import IncompleteSetError, NoSignalError
from .polarization import DensityMatrix, PureState, fidelity

_Q_FLOOR = 1e-12
_EV_CLIP = 1e-6
_NEWTON_MAXITER = 100
_NEWTON_GTOL = 1e-10  # tangent gradient per total count
_MAX_STEP = 0.5  # radians on the unit sphere
_LL_SLACK = 1e-12  # log-likelihood per total count
_MC_CHUNK = 65536  # Monte Carlo draws resampled and solved at once


def __getattr__(name: str):
    """Bind scipy's `minimize` on first access (PEP 562); no other lazy names."""
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize
    globals()["minimize"] = minimize
    return minimize


@dataclass(frozen=True)
class MeasurementSet:
    """Labeled projector collection; must fix all four Stokes components."""

    projectors: tuple[tuple[str, PureState], ...] = DEFAULT_PROJECTORS

    def __post_init__(self):
        if len(self.projectors) < 4:
            raise IncompleteSetError(
                f"need at least 4 projectors, got {len(self.projectors)}")
        if np.linalg.matrix_rank(self.design_matrix(), tol=1e-9) < 4:
            raise IncompleteSetError("projector set does not span the state space")

    def design_matrix(self) -> np.ndarray:
        """Rows map x = (rho00, rho11, Re rho01, Im rho01) to <psi|rho|psi>."""
        rows = []
        for _, p in self.projectors:
            u, w = p.alpha, p.beta
            uw = np.conj(u) * w
            rows.append([abs(u) ** 2, abs(w) ** 2, 2.0 * uw.real, -2.0 * uw.imag])
        return np.array(rows, dtype=float)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.projectors)


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    flux: float
    fidelity: float | None
    converged: bool
    log_likelihood: float
    mc_mean: float | None = None
    mc_std: float | None = None
    n_samples: int = 0
    n_failed: int = 0


def counts_from_dataset(ds: ScanDataset, mset: MeasurementSet) -> np.ndarray:
    """Extract counts aligned with the measurement set, matching by label."""
    by_label = {r.setting_label: r.counts for r in ds.records}
    missing = [name for name in mset.labels() if name not in by_label]
    if missing:
        raise IncompleteSetError(f"dataset lacks settings {missing}")
    return np.array([by_label[name] for name in mset.labels()], dtype=float)


def linear_inversion(counts, mset: MeasurementSet) -> tuple[np.ndarray, float]:
    """Least-squares pre-estimate: (unit-trace Hermitian matrix, flux).

    The matrix is not guaranteed positive semidefinite; it seeds the
    likelihood fit and is exact on noiseless data.
    """
    k = np.asarray(counts, dtype=float)
    a = mset.design_matrix()
    if k.shape != (a.shape[0],):
        raise ValueError(f"expected {a.shape[0]} counts, got {k.shape}")
    x, *_ = np.linalg.lstsq(a, k, rcond=None)
    flux = x[0] + x[1]
    if flux <= 0:
        raise NoSignalError("tomography counts carry no signal")
    rho = np.array([[x[0], x[2] + 1j * x[3]],
                    [x[2] - 1j * x[3], x[1]]], dtype=complex)
    return rho / flux, float(flux)


def _t_from_rho(rho: np.ndarray) -> np.ndarray:
    """Triangular parameters reproducing a PSD matrix, with floor guards."""
    r11 = max(rho[1, 1].real, 1e-9)
    t2 = math.sqrt(r11)
    z = rho[1, 0] / t2
    t1 = math.sqrt(max(rho[0, 0].real - abs(z) ** 2, 1e-12))
    return np.array([t1, t2, z.real, z.imag])


def _initial_t(counts, mset: MeasurementSet) -> np.ndarray:
    rho, _ = linear_inversion(counts, mset)
    ev, vec = np.linalg.eigh(rho)
    ev = np.clip(ev, _EV_CLIP, None)
    rho_psd = (vec * ev) @ vec.conj().T
    rho_psd /= np.trace(rho_psd).real
    return _t_from_rho(rho_psd)


def _profile_objective(k: np.ndarray, u: np.ndarray, w: np.ndarray):
    """Negative profile log-likelihood and gradient in (t1, t2, t3, t4)."""
    total = float(k.sum())
    uu = (u.conj() * u).real

    def fun(x):
        t1, t2, t3, t4 = x
        z = (t3 + 1j * t4) * u + t2 * w
        q = t1 * t1 * uu + (z.conj() * z).real
        q = np.maximum(q, _Q_FLOOR)
        big_q = q.sum()
        f = -(k * np.log(q)).sum() + total * math.log(big_q)
        # dq/dx rows: t1, t2, t3, t4
        dq = np.empty((4, len(q)))
        dq[0] = 2.0 * t1 * uu
        dq[1] = 2.0 * (z.conj() * w).real
        dq[2] = 2.0 * (z.conj() * u).real
        dq[3] = 2.0 * (z.conj() * 1j * u).real
        coeff = total / big_q - k / q
        return f, dq @ coeff

    return fun


def mle_reconstruct(counts, mset: MeasurementSet | None = None,
                    target: PureState | None = None) -> ReconstructionResult:
    """Maximum-likelihood state estimate from one set of projective counts.

    `converged` reports that the optimizer met its tolerances or that the
    scaled gradient norm (per total count) ended below 1e-8.
    """
    mset = mset or MeasurementSet()
    k = np.asarray(counts, dtype=float)
    if k.shape != (len(mset.projectors),):
        raise ValueError(f"expected {len(mset.projectors)} counts, got {k.shape}")
    if np.any(k < 0):
        raise ValueError("counts must be nonnegative")
    if k.sum() <= 0:
        raise NoSignalError("tomography counts carry no signal")

    u = np.array([p.alpha for _, p in mset.projectors])
    w = np.array([p.beta for _, p in mset.projectors])
    fun = _profile_objective(k, u, w)
    res = sys.modules[__name__].minimize(
        fun, _initial_t(k, mset), jac=True, method="L-BFGS-B",
        options={"ftol": 1e-13, "gtol": 1e-10, "maxiter": 500})

    t1, t2, t3, t4 = res.x
    t = np.array([[t1, 0.0], [t3 + 1j * t4, t2]], dtype=complex)
    raw = t.conj().T @ t
    raw = 0.5 * (raw + raw.conj().T)
    tr = np.trace(raw).real
    rho = DensityMatrix(raw / tr)

    q_over_tr = np.array([rho.project(p) for _, p in mset.projectors])
    flux = float(k.sum() / max(q_over_tr.sum(), _Q_FLOOR))
    gnorm = float(np.linalg.norm(res.jac)) / max(float(k.sum()), 1.0)
    converged = bool(res.success or gnorm < 1e-8)
    fid = fidelity(rho, target) if target is not None else None
    return ReconstructionResult(rho, flux, fid, converged, -float(res.fun))


def _bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (rho00 - rho11, 2 Re rho01, 2 Im rho01) of a unit-trace matrix.

    rho is a state iff |r| <= 1, and <t|rho|t> = (1 + r . r_t) / 2 for a pure
    |t> with Bloch vector r_t.
    """
    return np.array([(rho[0, 0] - rho[1, 1]).real, 2.0 * rho[0, 1].real, 2.0 * rho[0, 1].imag])


def _sphere_ascent(k: np.ndarray, n: np.ndarray, c: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sum k log q - K log sum q, q = c + b n, over unit vectors n.

    Rows of `k` (counts) and `n` (start points) are independent problems.
    Each iteration takes a Newton step in the tangent plane, or a gradient
    step where the projected Hessian is not negative definite, no longer
    than a per-row radius, and retracts it onto the sphere along the great
    circle.  A step that lowers the likelihood by more than round-off is
    refused and the radius shrinks.  Returns (n, stuck), stuck marking rows
    still short of the tolerance after `_NEWTON_MAXITER` iterations.
    """
    n = n.copy()
    total = k.sum(axis=1)
    c_sum, b_sum = c.sum(), b.sum(axis=0)
    radius = np.full(len(n), _MAX_STEP)
    active = np.arange(len(n))

    def loglik(kk, tot, nn):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(kk > 0, c + nn @ b.T, 1.0)
            return (kk * np.log(q)).sum(axis=1) - tot * np.log(c_sum + nn @ b_sum)

    for _ in range(_NEWTON_MAXITER):
        ka, na, tot = k[active], n[active], total[active]
        q = c + na @ b.T
        w = np.divide(ka, q, out=np.zeros_like(q), where=ka > 0)  # k/q, 0 where k = 0
        s = c_sum + na @ b_sum
        g = w @ b - np.outer(tot / s, b_sum)
        k_q2 = w * w / np.where(ka > 0, ka, 1.0)  # k/q^2, 0 where k = 0 (q may be 0 there)
        hess = (np.einsum("mi,ia,ib->mab", -k_q2, b, b)
                + (tot / s ** 2)[:, None, None] * np.outer(b_sum, b_sum))
        # orthonormal tangent basis e (m, 2, 3); n is a unit vector
        axis = np.eye(3)[np.argmin(np.abs(na), axis=1)]
        e1 = np.cross(na, axis)
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e = np.stack((e1, np.cross(na, e1)), axis=1)
        gt = np.einsum("mja,ma->mj", e, g)
        done = np.linalg.norm(gt, axis=1) <= _NEWTON_GTOL * tot
        active, e, gt, hess, g, na, ka, tot = (
            v[~done] for v in (active, e, gt, hess, g, na, ka, tot))
        if not active.size:
            break
        # Riemannian Hessian on the sphere: projected Hessian minus (g . n) I
        h = np.einsum("mja,mab,mkb->mjk", e, hess, e)
        h -= (g * na).sum(axis=1)[:, None, None] * np.eye(2)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        concave = (h[:, 0, 0] < 0) & (det > 0)
        step = gt.copy()
        hc, gc, dc = h[concave], gt[concave], det[concave]
        step[concave] = -np.stack((hc[:, 1, 1] * gc[:, 0] - hc[:, 0, 1] * gc[:, 1],
                                   hc[:, 0, 0] * gc[:, 1] - hc[:, 1, 0] * gc[:, 0]),
                                  axis=1) / dc[:, None]
        length = np.linalg.norm(step, axis=1)
        step *= (np.minimum(length, radius[active]) / length)[:, None]
        v = np.einsum("mj,mja->ma", step, e)
        theta = np.linalg.norm(v, axis=1)[:, None]
        trial = np.cos(theta) * na + np.sin(theta) * v / theta
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        # the slack lets steps whose gain is below round-off through
        better = loglik(ka, tot, trial) >= loglik(ka, tot, na) - _LL_SLACK * tot
        n[active[better]] = trial[better]
        radius[active] = np.where(better, np.minimum(2.0 * radius[active], _MAX_STEP),
                                  0.25 * radius[active])
    stuck = np.zeros(len(n), dtype=bool)
    stuck[active] = True
    return n, stuck


def exact_mle_bloch(draws, mset: MeasurementSet) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood Bloch vectors for many count vectors on four projectors.

    Each row of `draws` holds the counts of one measurement of the four
    projectors of `mset`.  Linear inversion of a saturated model is the MLE
    wherever its Bloch vector r has |r| <= 1.  Elsewhere the likelihood,
    concave in (flux, flux * r), peaks on the pure states, which
    `_sphere_ascent` searches with the flux profiled out: from r / |r|, or,
    where the linear-inversion flux is not positive and r is undefined, from
    b^T k / |b^T k|, with q = c + b r the projector probabilities of a state
    (the unconstrained optimum is outside the states there too, so the peak
    is again pure).

    Returns (r, failed): r has shape (n, 3) in the coordinates of `_bloch`,
    and failed marks rows without a start (no positive flux and b^T k = 0,
    as for all-zero counts) or whose ascent did not converge; their r is NaN.
    """
    a = mset.design_matrix()
    k = np.asarray(draws, dtype=float)
    if a.shape[0] != 4 or k.ndim != 2 or k.shape[1] != 4:
        raise ValueError(f"need rows of 4 counts on 4 projectors, got {k.shape} "
                         f"on {a.shape[0]}")
    if np.any(k < 0):
        raise ValueError("counts must be nonnegative")
    x = np.linalg.solve(a, k.T).T
    flux = x[:, 0] + x[:, 1]
    ok = flux > 0
    r = np.full((len(k), 3), np.nan)
    r[ok] = np.column_stack((x[ok, 0] - x[ok, 1], 2.0 * x[ok, 2], 2.0 * x[ok, 3])) / flux[ok, None]
    norm = np.linalg.norm(r, axis=1)
    out = np.flatnonzero(ok & (norm > 1.0))
    # q = a @ (rho00, rho11, Re rho01, Im rho01) = c + b @ r on unit-trace states
    c = 0.5 * (a[:, 0] + a[:, 1])
    b = 0.5 * np.column_stack((a[:, 0] - a[:, 1], a[:, 2], a[:, 3]))
    no_flux = np.flatnonzero(~ok)
    g = k[no_flux] @ b
    g_norm = np.linalg.norm(g, axis=1)
    lost = no_flux[g_norm > 0]
    failed = ~ok
    failed[lost] = False
    # a batch of its own for each start: numpy's rounding can depend on the
    # batch, and a row with positive flux must not change with the rows
    # beside it; an empty batch is skipped, as it costs a fifth of a millisecond
    for rows, start in ((out, r[out] / norm[out, None]),
                        (lost, g[g_norm > 0] / g_norm[g_norm > 0, None])):
        if rows.size:
            r[rows], stuck = _sphere_ascent(k[rows], start, c, b)
            failed[rows[stuck]] = True
    r[failed] = np.nan
    return r, failed


def exact_mle_fidelities(draws, mset: MeasurementSet,
                         targets) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood fidelities with pure targets for rows of four-projector counts.

    `targets` holds one PureState per row of `draws`, or a single one for
    every row.  Each row's `exact_mle_bloch` solution r has fidelity
    <t|rho|t> = (1 + r . r_t) / 2 with its target t.  Returns (fidelity,
    failed), failed as in `exact_mle_bloch`, whose rows get NaN.
    """
    r, failed = exact_mle_bloch(draws, mset)
    distinct: dict = {}
    which = np.array([distinct.setdefault(t, len(distinct)) for t in targets])
    if len(which) not in (1, len(r)):
        raise ValueError(f"need 1 or {len(r)} targets, got {len(which)}")
    # one matrix-vector product over all rows per distinct target, so a
    # single target gets the same arithmetic however many rows share it
    fid = np.empty(len(r))
    for j, t in enumerate(distinct):
        v = t.vector()
        np.copyto(fid, 0.5 * (1.0 + r @ _bloch(np.outer(v, v.conj()))), where=which == j)
    return fid, failed


def monte_carlo_uncertainty(counts, mset: MeasurementSet, target: PureState, *,
                            n_samples: int = 10000, seed: int = 0) -> tuple[float, float, int]:
    """Fidelity mean and spread under Poisson resampling of the observed counts.

    All draws come from one generator seeded up front, so the result does not
    depend on evaluation order; they are drawn and solved `_MC_CHUNK` rows at
    a time, which bounds the memory.  Returns (mean, sample std, n_failed) where
    failed samples (no signal or non-converged fit) are excluded from the
    statistics but counted.  Four projectors are solved exactly for a whole
    chunk at once by `exact_mle_fidelities`; larger sets fit each draw with
    `mle_reconstruct`.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    k = np.asarray(counts, dtype=float)
    rng = np.random.default_rng(seed)
    fids = []
    n_failed = 0
    for start in range(0, n_samples, _MC_CHUNK):
        draws = rng.poisson(lam=k, size=(min(_MC_CHUNK, n_samples - start), len(k)))
        if len(mset.projectors) == 4:
            f, failed = exact_mle_fidelities(draws, mset, (target,))
        else:  # one likelihood fit per draw, NaN where there is none
            f = np.full(len(draws), np.nan)
            for i, row in enumerate(draws):
                try:
                    r = mle_reconstruct(row.astype(float), mset, target)
                except NoSignalError:
                    continue
                if r.converged:
                    f[i] = r.fidelity
            failed = np.isnan(f)
        fids.append(f[~failed])
        n_failed += int(failed.sum())
    arr = np.concatenate(fids)
    if len(arr) < 2:
        raise NoSignalError("Monte Carlo resampling produced no usable fits")
    return float(arr.mean()), float(arr.std(ddof=1)), n_failed


def reconstruct_with_uncertainty(counts, mset: MeasurementSet | None = None,
                                 target: PureState | None = None, *,
                                 n_samples: int = 10000,
                                 seed: int = 0) -> ReconstructionResult:
    """MLE point estimate plus Monte Carlo error bar in one call."""
    mset = mset or MeasurementSet()
    result = mle_reconstruct(counts, mset, target)
    if target is None:
        return result
    mean, std, failed = monte_carlo_uncertainty(
        counts, mset, target, n_samples=n_samples, seed=seed)
    return replace(result, mc_mean=mean, mc_std=std,
                   n_samples=n_samples, n_failed=failed)
