import math

import numpy as np
import pytest

from loopmem.components import (
    CIRCULATOR_ARM, FORWARD, OFF, ON, POCKELS_CELL, REVERSE, ComponentSpec,
    DriveSchedule, circulator_operator, fiber_transmission, pockels_level,
    pockels_operator,
)
from loopmem.errors import GainError, InvalidStateError, UnschedulableError
from loopmem.polarization import D, DensityMatrix, H, V


def _kraus(rho, op):
    """The state K rho K^dagger after one passive element K."""
    return DensityMatrix(op.matrix @ rho.matrix @ op.matrix.conj().T)


def test_component_spec_transmission_forms():
    c = ComponentSpec(POCKELS_CELL, 0.9)
    assert c.transmission == (0.9, 0.9)
    c2 = ComponentSpec(POCKELS_CELL, (0.8, 0.6))
    assert c2.transmission == (0.8, 0.6)
    assert abs(c2.mean_transmission - 0.7) < 1e-12


def test_component_spec_validation():
    with pytest.raises(GainError):
        ComponentSpec(POCKELS_CELL, 1.2)
    with pytest.raises(GainError):
        ComponentSpec(POCKELS_CELL, (-0.1, 0.5))
    with pytest.raises(InvalidStateError):
        ComponentSpec(POCKELS_CELL, 1.0, length_m=-2.0)
    with pytest.raises(GainError):
        ComponentSpec(POCKELS_CELL, 1.0, atten_db_per_km=-4.0)


def test_pockels_level_ramp():
    sched = DriveSchedule(transitions=((100.0, ON),), rise_time=10.0)
    assert pockels_level(sched, 50.0) == 0.0
    assert abs(pockels_level(sched, 105.0) - 0.5) < 1e-12
    assert pockels_level(sched, 200.0) == 1.0
    # exact endpoints
    assert pockels_level(sched, 100.0) == 0.0
    assert pockels_level(sched, 110.0) == 1.0


def test_pockels_level_two_ramps():
    sched = DriveSchedule(transitions=((100.0, ON), (300.0, OFF)), rise_time=10.0)
    assert pockels_level(sched, 200.0) == 1.0
    assert abs(pockels_level(sched, 305.0) - 0.5) < 1e-12
    assert pockels_level(sched, 400.0) == 0.0


def test_drive_schedule_rejects_overlapping_ramps():
    with pytest.raises(UnschedulableError):
        DriveSchedule(transitions=((100.0, ON), (105.0, OFF)), rise_time=10.0)
    with pytest.raises(UnschedulableError):
        DriveSchedule(transitions=((100.0, ON),), rise_time=-1.0)


def test_pockels_operator_levels():
    spec = ComponentSpec(POCKELS_CELL, 1.0)
    rho = DensityMatrix.from_pure(H)
    assert abs(_kraus(rho, pockels_operator(OFF, spec)).project(H) - 1.0) < 1e-12
    assert abs(_kraus(rho, pockels_operator(ON, spec)).project(V) - 1.0) < 1e-12


def test_fiber_transmission_values():
    assert abs(fiber_transmission(50.0, 4.0) - 0.9120108393559098) < 1e-15
    assert abs(fiber_transmission(5000.0, 4.0) - 1e-4) < 1e-19
    assert abs(fiber_transmission(5000.0, 0.2) - 0.6309573444801932) < 1e-15


def test_circulator_forward_swaps_ports():
    spec = ComponentSpec(CIRCULATOR_ARM, 1.0)
    fwd = circulator_operator(FORWARD, spec)
    rho = _kraus(DensityMatrix.from_pure(H), fwd)
    assert abs(rho.project(V) - 1.0) < 1e-12
    rev = circulator_operator(REVERSE, spec)
    rho2 = _kraus(DensityMatrix.from_pure(V), rev)
    assert abs(rho2.project(V) - 1.0) < 1e-12


def test_circulator_loss_in_trace():
    spec = ComponentSpec(CIRCULATOR_ARM, 0.85)
    out = _kraus(DensityMatrix.from_pure(D), circulator_operator(FORWARD, spec))
    assert abs(out.weight - 0.85) < 1e-12


def test_circulator_arm_phase_applies_once():
    spec = ComponentSpec(CIRCULATOR_ARM, 1.0, static_phase=0.7)
    fwd = circulator_operator(FORWARD, spec).matrix
    rev = circulator_operator(REVERSE, spec).matrix
    assert abs(fwd[0, 1] - np.exp(1j * 0.7)) < 1e-12
    assert abs(fwd[1, 0] - 1.0) < 1e-12
    assert abs(rev[0, 0] - np.exp(1j * 0.7)) < 1e-12
    assert abs(rev[1, 1] - 1.0) < 1e-12


def test_circulator_bad_direction():
    with pytest.raises(TypeError):
        circulator_operator("SIDEWAYS", ComponentSpec(CIRCULATOR_ARM, 1.0))


def test_pockels_rotation_error_tilts_flip():
    spec = ComponentSpec(POCKELS_CELL, 1.0, rotation_error=0.1)
    out = _kraus(DensityMatrix.from_pure(H), pockels_operator(ON, spec))
    assert abs(out.project(V) - math.cos(0.1) ** 2) < 1e-12
