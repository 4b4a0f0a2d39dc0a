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
from dataclasses import dataclass, field, replace

import numpy as np

from .counting import DEFAULT_PROJECTORS, ScanDataset
from .errors import IncompleteSetError, NoSignalError
from .polarization import DensityMatrix, PureState, design_row, fidelity

_Q_FLOOR = 1e-12
_EV_CLIP = 1e-6
_NEWTON_MAXITER = 100
_NEWTON_GTOL = 1e-10  # tangent gradient per total count
_MAX_STEP = 0.5  # radians on the unit sphere
_LL_SLACK = 1e-12  # log-likelihood per total count
_MC_CHUNK = 65536  # Monte Carlo draws resampled and solved at once
_ASCENT_ROWS = 8192  # rows per `_sphere_ascent` call, which bounds its memory


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
    _design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.projectors) < 4:
            raise IncompleteSetError(f"need at least 4 projectors, got {len(self.projectors)}")
        a = np.array([design_row(p) for _, p in self.projectors])
        a.flags.writeable = False
        object.__setattr__(self, "_design", a)
        if np.linalg.matrix_rank(a, tol=1e-9) < 4:
            raise IncompleteSetError("projector set does not span the state space")

    def design_matrix(self) -> np.ndarray:
        """Rows map x = (rho00, rho11, Re rho01, Im rho01) to <psi|rho|psi>; read-only."""
        return self._design

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
    by_label = dict(zip(ds.setting_labels, ds.record_counts))
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


@np.errstate(divide="ignore", invalid="ignore")  # where q = 0 and k > 0; see below
def _sphere_ascent(k: np.ndarray, n: np.ndarray, c: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sum k log q - K log sum q, q = c + b n, over unit vectors n.

    Rows of `k` (counts) and `n` (starts) are independent problems; every
    operation is elementwise or a sum in a fixed order, so a row's result does
    not depend on the rows beside it.  Each iteration takes a Newton step in
    the tangent plane, or a gradient step where the projected Hessian is not
    negative definite, no longer than a per-row radius, and retracts it along
    the great circle; a step that lowers the likelihood by more than round-off
    is refused and the radius shrinks.  The tangent basis of n = (x, y, z) has
    no branches (Duff et al., "Building an orthonormal basis, revisited", JCGT
    6(1), 2017): s = copysign(1, z), a = -1 / (s + z), e1 = (1 + s x^2 a,
    s x y a, -s x), e2 = (x y a, s + y^2 a, -y).  Returns (n, stuck), stuck
    indexing the rows short of the tolerance after `_NEWTON_MAXITER` iterations.
    """
    out = n.copy()
    # -K log sum q is a fifth term, with count -K, offset sum c and vector sum b
    b0, b1, b2 = np.vstack((b, b.sum(axis=0))).T[:, :, None, None].copy()  # (5, 1, 1) each
    k5 = np.vstack((k.T, -k.sum(axis=1)))[:, None]
    ck = np.append(c, c.sum())[:, None, None] + (k5 == 0)  # + 1 keeps q > 0 where k = 0
    tol, slack = -_NEWTON_GTOL * k5[4, 0], -_LL_SLACK * k5[4, 0]

    def dots(v):  # v . b_i for the five terms, along axis 0
        return v[0] * b0 + v[1] * b1 + v[2] * b2

    def total(t):  # the sum over the five terms
        return t[0] + t[1] + t[2] + t[3] + t[4]

    def probe(v):  # q, with round-off below 0 clipped, and the log-likelihood
        q = np.maximum(dots(v) + ck, 0.0)
        return q, total(k5 * np.log(q))[0]

    x = n.T.copy()
    q, ll = probe(x)
    radius, rows = np.full(len(n), _MAX_STEP), np.arange(len(n))
    for _ in range(_NEWTON_MAXITER):
        w = k5 / q
        s = np.copysign(1.0, x[2])
        u = x * (-1.0 / (s + x[2]))
        u[2] = -1.0
        e = u[:, None] * x[:2]  # e1 - (1, 0, 0) and e2 - (0, s, 0)
        e[:, 0] *= s
        e[0, 0] += 1.0
        e[1, 1] += s
        p = dots(e)  # e_j . b_i
        g = total(w * p)  # tangent gradient
        done = np.hypot(g[0], g[1]) <= tol
        if done.any():
            out[rows[done]] = x[:, done].T
            x, q, ll, k5, ck, tol, slack, radius, rows, w, e, p, g = (
                v[..., ~done] for v in (x, q, ll, k5, ck, tol, slack, radius, rows, w, e, p, g))
            if not rows.size:
                break
        # M = -(Riemannian Hessian) = sum_i (k/q^2)_i (e_j . b_i)(e_l . b_i) + (g . n) I with
        # g . n = -sum_i (k/q)_i c_i; the step is M^-1 g where M is positive definite, else g
        m = total(((w / q) * p)[:, :, None] * p[:, None])
        diag = m.reshape(4, -1)[::3]  # (m00, m11); [::-1] turns it into (m11, m00)
        diag -= total(w * ck)  # ck is c where w = k/q is not 0
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[0, 1]
        step = np.divide(diag[::-1] * g - m[0, 1] * g[::-1], det, out=g.copy(),
                         where=(m[0, 0] > 0) & (det > 0))
        # a start with q = 0 where k > 0 has no gradient, and any step gains
        np.copyto(step, 1.0, where=ll == -np.inf)
        length = np.hypot(step[0], step[1])
        theta = np.minimum(length, radius)
        trial = np.cos(theta) * x + np.sin(theta) / length * (step[0] * e[:, 0]
                                                              + step[1] * e[:, 1])
        sq = trial * trial
        trial /= np.sqrt(sq[0] + sq[1] + sq[2])
        q_trial, ll_trial = probe(trial)
        # the slack lets steps whose gain is below round-off through
        better = ll_trial >= ll - slack
        x, q, ll = (np.where(better, a, z) for a, z in ((trial, x), (q_trial, q), (ll_trial, ll)))
        radius = np.minimum(radius * np.where(better, 2.0, 0.25), _MAX_STEP)
    out[rows] = x.T
    return out, rows


def exact_mle_bloch(draws, mset: MeasurementSet) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood Bloch vectors for many count vectors on four projectors.

    Each row of `draws` holds the counts of one measurement of the four
    projectors of `mset`.  Linear inversion of a saturated model is the MLE
    wherever its Bloch vector r has |r| <= 1.  Elsewhere the likelihood,
    concave in (flux, flux * r), peaks on the pure states, which
    `_sphere_ascent` searches with the flux profiled out from r / |r|, where r
    is b^T k if the linear-inversion flux is not positive, with q = c + b r the
    projector probabilities of a state (the unconstrained optimum is outside
    the states there too, so the peak is again pure).

    Returns (r, failed): r has shape (n, 3) in the coordinates of `_bloch`,
    and failed marks rows without a start (no positive flux and b^T k = 0,
    as for all-zero counts) or whose ascent did not converge; their r is NaN.
    """
    a = mset.design_matrix()
    k = np.asarray(draws, dtype=float)
    if a.shape[0] != 4 or k.ndim != 2 or k.shape[1] != 4:
        raise ValueError(f"need rows of 4 counts on 4 projectors, got {k.shape} "
                         f"on {a.shape[0]}")
    if (k < 0).any():
        raise ValueError("counts must be nonnegative")
    # linear inversion x = a^-1 k, summed elementwise in a fixed order so that
    # a row's solution does not depend on the rows beside it
    inv = np.linalg.inv(a)
    x = ((k[:, :1] * inv[:, 0] + k[:, 1:2] * inv[:, 1])
         + k[:, 2:3] * inv[:, 2]) + k[:, 3:] * inv[:, 3]
    flux = x[:, 0] + x[:, 1]
    ok = flux > 0
    r = np.divide(np.column_stack((x[:, 0] - x[:, 1], 2.0 * x[:, 2], 2.0 * x[:, 3])),
                  flux[:, None], out=np.empty((len(k), 3)), where=ok[:, None])
    # q = a @ (rho00, rho11, Re rho01, Im rho01) = c + b @ r on unit-trace states
    c = 0.5 * (a[:, 0] + a[:, 1])
    b = 0.5 * np.column_stack((a[:, 0] - a[:, 1], a[:, 2], a[:, 3]))
    r[~ok] = k[~ok] @ b
    norm = np.linalg.norm(r, axis=1)
    failed = ~ok & (norm == 0)
    rows = np.flatnonzero((norm > 1.0) | ~ok & ~failed)
    for i in range(0, rows.size, _ASCENT_ROWS):
        part = rows[i:i + _ASCENT_ROWS]
        r[part], stuck = _sphere_ascent(k[part], r[part] / norm[part, None], c, b)
        failed[part[stuck]] = True
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
    # r . r_t summed elementwise in a fixed order, so a row's fidelity does
    # not depend on the rows beside it
    fid = np.empty(len(r))
    for j, t in enumerate(distinct):
        v = t.vector()
        rt = _bloch(np.outer(v, v.conj()))
        dot = (r[:, 0] * rt[0] + r[:, 1] * rt[1]) + r[:, 2] * rt[2]
        np.copyto(fid, 0.5 * (1.0 + dot), where=which == j)
    return fid, failed


def monte_carlo_uncertainty(counts, mset: MeasurementSet, target: PureState, *,
                            n_samples: int = 10000, seed: int = 0) -> tuple[float, float, int]:
    """Fidelity mean and spread under Poisson resampling of the observed counts.

    All draws come from one generator seeded up front and are drawn and solved
    `_MC_CHUNK` rows at a time, which bounds the memory.  Returns (mean, sample
    std, n_failed); failed samples (no signal or non-converged fit) are counted
    but left out of the statistics.  Four projectors are solved exactly a
    chunk at a time by `exact_mle_fidelities`; larger sets fit each draw with
    `mle_reconstruct`.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    k = np.asarray(counts, dtype=float)
    rng = np.random.default_rng(seed)
    fids, n_failed = [], 0
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


def reconstruct_with_uncertainty(counts, mset: MeasurementSet, target: PureState, *,
                                 n_samples: int = 10000, seed: int = 0) -> ReconstructionResult:
    """MLE point estimate plus Monte Carlo error bar in one call."""
    result = mle_reconstruct(counts, mset, target)
    mean, std, failed = monte_carlo_uncertainty(
        counts, mset, target, n_samples=n_samples, seed=seed)
    return replace(result, mc_mean=mean, mc_std=std,
                   n_samples=n_samples, n_failed=failed)
