import math

import numpy as np
import pytest

from loopmem.errors import GainError, InvalidStateError
from loopmem.polarization import (
    A, D, DensityMatrix, H, JonesOperator, L, PureState, R, V, attenuator,
    birefringent_phase, fidelity, make_pure, rotator,
)


def test_named_states_normalized():
    for s in (H, V, D, A, R, L):
        assert abs(abs(s.alpha) ** 2 + abs(s.beta) ** 2 - 1) < 1e-12


def test_overlaps():
    assert H.overlap(V) < 1e-12
    assert abs(H.overlap(D) - 0.5) < 1e-12
    assert abs(H.overlap(R) - 0.5) < 1e-12
    assert D.overlap(A) < 1e-12
    assert R.overlap(L) < 1e-12
    assert abs(R.overlap(R) - 1.0) < 1e-12


def test_global_phase_canonicalized():
    s1 = make_pure(1.0, 1.0)
    s2 = make_pure(-1.0, -1.0)
    assert abs(s1.overlap(s2) - 1.0) < 1e-12
    assert abs(s2.alpha.imag) < 1e-15 and s2.alpha.real > 0
    s3 = make_pure(1j * 0.6, 1j * 0.8)
    assert abs(s3.alpha - 0.6) < 1e-12 and abs(s3.beta - 0.8) < 1e-12


def test_make_pure_normalizes_and_rejects_zero():
    s = make_pure(3.0, 4.0)
    assert abs(abs(s.alpha) - 0.6) < 1e-12
    with pytest.raises(InvalidStateError):
        make_pure(0.0, 0.0)


@pytest.mark.parametrize("alpha, beta, want", [
    (complex(1e308, 1e308), 0j, H),
    (1.7e308, complex(0.0, -1.7e308), R),
    (1e-200, 1e-200, D),
])
def test_make_pure_normalizes_any_finite_amplitudes(alpha, beta, want):
    assert abs(make_pure(alpha, beta).overlap(want) - 1.0) < 1e-12


def test_purestate_rejects_unnormalized():
    with pytest.raises(InvalidStateError):
        PureState(1.0, 1.0)


def test_density_matrix_validation():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[1.0, 0.5], [0.1, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, 0.0]]))  # trace > 1
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[0.2, 0.5], [0.5, 0.2]]))  # negative eigenvalue


def test_trusted_density_matrix_guards_only_the_trace():
    v = np.array([1.0, 0.1j])  # norm^2 1.01
    with pytest.raises(InvalidStateError):
        DensityMatrix._trusted(np.outer(v, v.conj()))
    with pytest.raises(InvalidStateError):
        DensityMatrix._trusted(np.full((2, 2), np.nan, dtype=complex))
    v = v / np.linalg.norm(v)
    rho = DensityMatrix._trusted(np.outer(v, v.conj()))
    assert abs(rho.weight - 1.0) < 1e-15
    assert not rho.matrix.flags.writeable


def test_conditional_of_mixed_state_is_read_only_unit_trace():
    rho = DensityMatrix(np.array([[0.2, 0.05 + 0.1j], [0.05 - 0.1j, 0.3]]))
    cond = rho.conditional()
    assert abs(cond.weight - 1.0) < 1e-15
    assert not cond.matrix.flags.writeable
    np.testing.assert_allclose(cond.matrix, rho.matrix / 0.5, rtol=0, atol=1e-15)
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.zeros((2, 2))).conditional()


def test_density_matrix_basic_ops():
    rho = DensityMatrix.from_pure(D, weight=0.25)
    assert abs(rho.weight - 0.25) < 1e-12
    cond = rho.conditional()
    assert abs(cond.weight - 1.0) < 1e-12
    assert abs(np.trace(cond.matrix @ cond.matrix).real - 1.0) < 1e-12
    assert abs(rho.project(D) - 0.25) < 1e-12
    assert abs(rho.project(A)) < 1e-12
    # unconditional projection keeps the loss in the number
    assert abs(rho.project(H) - 0.125) < 1e-12


def test_gain_rejected():
    with pytest.raises(GainError):
        JonesOperator(np.array([[1.2, 0.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(GainError):
        attenuator(1.4, 1.0)
    with pytest.raises(GainError):
        attenuator(1.0, -0.1)


def test_rotator_pi_half_is_bit_flip_up_to_phase():
    m = rotator(math.pi / 2).matrix
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    # proportional with a unimodular factor
    ratio = m[0, 1] / x[0, 1]
    assert abs(abs(ratio) - 1.0) < 1e-12
    assert np.allclose(m, ratio * x, atol=1e-12)


def test_rotator_composes_additively():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-math.pi, math.pi, size=2)
        lhs = (rotator(a) @ rotator(b)).matrix
        assert np.allclose(lhs, rotator(a + b).matrix, atol=1e-12)


def test_unitaries_preserve_weight():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = make_pure(a[0], a[1])
        rho = DensityMatrix.from_pure(s)
        op = rotator(rng.uniform(0, 2 * math.pi)) @ birefringent_phase(rng.uniform(0, 2 * math.pi))
        assert np.allclose(op.matrix.conj().T @ op.matrix, np.eye(2), atol=1e-12)
        out = DensityMatrix(op.matrix @ rho.matrix @ op.matrix.conj().T)
        assert abs(out.weight - 1.0) < 1e-12
        f = fidelity(out, s)
        assert -1e-12 <= f <= 1 + 1e-12


def test_fidelity_is_conditional():
    rho = DensityMatrix.from_pure(R, weight=0.1)
    assert abs(fidelity(rho, R) - 1.0) < 1e-12
