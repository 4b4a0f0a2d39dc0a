"""Two-dimensional Jones calculus with loss carried in the density-matrix trace.

Conventions used throughout the package:

* Jones vectors are column vectors (alpha, beta) in the linear H/V basis.
* A density matrix's trace is the survival probability of the photon, so
  passive loss (including diattenuation) needs no extra bookkeeping channel.
  ``conditional()`` renormalizes to the usual unit-trace state.
* ``rotator(theta)`` is the polarization-exchange rotation
  ``exp(-i*theta*X) = cos(theta)*I - i*sin(theta)*X``, i.e. a retarder with
  axes at +-45 degrees and retardance ``2*theta``.  At ``theta = pi/2`` it is
  a bit flip up to global phase, which is the convention the switching
  elements in this package rely on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GainError, InvalidStateError

_NORM_TOL = 1e-12
_PSD_TOL = 1e-10
_GAIN_TOL = 1e-9


def _canonical_phase(alpha: complex, beta: complex) -> tuple[complex, complex]:
    # rotate global phase so the first amplitude above threshold is real >= 0
    ref = alpha if abs(alpha) > _NORM_TOL else beta
    ph = cmath.exp(-1j * cmath.phase(ref)) if abs(ref) > 0 else 1.0
    return alpha * ph, beta * ph


@dataclass(frozen=True)
class PureState:
    """Normalized Jones vector stored with a canonical global phase.

    The first nonzero amplitude is rotated to be real and nonnegative, so
    the stored numbers identify the physical state rather than a phase
    convention.  Canonicalization rounds like any float arithmetic; compare
    states by :meth:`overlap`, not ``==``.  Construction rejects
    non-normalized input; use :func:`make_pure` to normalize arbitrary
    amplitudes.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= 1e-9:  # NaN fails too
            raise InvalidStateError(f"pure state norm^2 = {n!r}, expected 1")
        a, b = _canonical_phase(complex(self.alpha), complex(self.beta))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def overlap(self, other: "PureState") -> float:
        """|<self|other>|^2."""
        return abs(np.vdot(self.vector(), other.vector())) ** 2


def make_pure(alpha: complex, beta: complex) -> PureState:
    """Normalize (alpha, beta) and return the canonical pure state.

    Any finite nonzero pair normalizes: amplitudes whose squared norm leaves
    the float range are first divided by their largest real or imaginary part.
    A non-finite amplitude raises InvalidStateError.
    """
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise InvalidStateError(f"amplitudes ({alpha}, {beta}) are not finite")
    try:
        n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    except OverflowError:
        n = math.inf
    if not _NORM_TOL <= n < math.inf:
        scale = max(abs(complex(alpha).real), abs(complex(alpha).imag),
                    abs(complex(beta).real), abs(complex(beta).imag))
        if 0.0 < scale < math.inf:
            return make_pure(alpha / scale, beta / scale)
    if n < _NORM_TOL:
        raise InvalidStateError("cannot normalize the zero vector")
    return PureState(alpha / n, beta / n)


def design_row(psi: PureState) -> tuple[float, float, float, float]:
    """The row d of psi with d . (rho00, rho11, Re rho01, Im rho01) = <psi|rho|psi>."""
    a, b = psi.alpha, psi.beta
    z = a.conjugate() * b
    return abs(a) ** 2, abs(b) ** 2, 2.0 * z.real, -2.0 * z.imag


H = make_pure(1, 0)
V = make_pure(0, 1)
D = make_pure(1, 1)
A = make_pure(1, -1)
R = make_pure(1, -1j)
L = make_pure(1, 1j)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian PSD matrix with trace in [0, 1] (trace = survival weight)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidStateError(f"density matrix shape {m.shape}, expected (2, 2)")
        if not np.allclose(m, m.conj().T, atol=_PSD_TOL):
            raise InvalidStateError("density matrix not Hermitian")
        ev = np.linalg.eigvalsh(m)
        if ev.min() < -_PSD_TOL:
            raise InvalidStateError(f"density matrix not PSD (min eigenvalue {ev.min()})")
        tr = float(m.trace().real)
        if tr > 1.0 + _PSD_TOL or tr < -_NORM_TOL:
            raise InvalidStateError(f"density matrix trace {tr} outside [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix that is Hermitian and PSD by construction, unchecked.

        For matrices the package built itself, such as |v><v|, T^dagger T or
        a valid state times a positive number.  Only the trace is checked,
        which is where a gain upstream would show.  ``m`` is frozen in place.
        """
        tr = m[0, 0].real + m[1, 1].real
        if not tr <= 1.0 + _PSD_TOL:
            raise InvalidStateError(f"density matrix trace {tr} above 1")
        m.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        return rho

    @classmethod
    def from_pure(cls, state: PureState, weight: float = 1.0) -> "DensityMatrix":
        if not 0.0 <= weight <= 1.0 + _NORM_TOL:
            raise InvalidStateError(f"weight {weight} outside [0, 1]")
        v = state.vector()
        return cls(weight * np.outer(v, v.conj()))

    @property
    def weight(self) -> float:
        """Survival probability carried by this state."""
        return float(self.matrix.trace().real)

    def conditional(self) -> "DensityMatrix":
        """Unit-trace state conditioned on survival."""
        w = self.weight
        if w < _NORM_TOL:
            raise InvalidStateError("conditional state undefined at zero weight")
        return DensityMatrix._trusted(self.matrix / w)

    def project(self, state: PureState) -> float:
        """Unconditional projection probability <s|rho|s> (includes weight)."""
        v = state.vector()
        return float(np.real(v.conj() @ self.matrix @ v))


@dataclass(frozen=True, eq=False)
class JonesOperator:
    """2x2 complex operator restricted to passive elements (singular values <= 1)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidStateError(f"operator shape {m.shape}, expected (2, 2)")
        smax = np.linalg.svd(m, compute_uv=False).max()
        if smax > 1.0 + _GAIN_TOL:
            raise GainError(f"operator has gain (max singular value {smax})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "JonesOperator") -> "JonesOperator":
        return JonesOperator(self.matrix @ other.matrix)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Conditional fidelity <t|rho_c|t> with rho_c = rho / tr(rho)."""
    return rho.conditional().project(target)


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def rotator(theta: float) -> JonesOperator:
    """Exchange rotation exp(-i*theta*X); theta = pi/2 flips H/V up to phase."""
    m = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * _PAULI_X
    return JonesOperator(m)


def birefringent_phase(phi: float) -> JonesOperator:
    """Static birefringence diag(1, e^{i phi}) in the H/V basis."""
    return JonesOperator(np.diag([1.0, cmath.exp(1j * phi)]))


def attenuator(t_h: float, t_v: float) -> JonesOperator:
    """Passive (possibly polarization-dependent) amplitude loss.

    Arguments are the intensity transmissions of H and V.
    """
    for t in (t_h, t_v):
        if not 0.0 <= t <= 1.0 + _GAIN_TOL:
            raise GainError(f"transmission {t} outside [0, 1]")
    return JonesOperator(np.diag([math.sqrt(t_h), math.sqrt(t_v)]).astype(complex))
