"""Hardware element descriptions and their Jones-level behavior.

A :class:`ComponentSpec` is a passive description (what the element is and how
lossy/misaligned it is); the functions below turn specs into operators or
scalar transmissions.  A :class:`DriveSchedule` sets the Pockels cell's drive
level over time (:func:`pockels_level`); the cell's rotation angle is
proportional to that level, ``level * (pi/2 + rotation_error)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GainError, InvalidStateError, UnschedulableError
from .polarization import JonesOperator, attenuator, birefringent_phase, rotator

PBS = "PBS"
POCKELS_CELL = "POCKELS_CELL"
CIRCULATOR_ARM = "CIRCULATOR_ARM"
FIBER_SEGMENT = "FIBER_SEGMENT"
RETROREFLECTOR = "RETROREFLECTOR"
COUPLER = "COUPLER"
MIRROR = "MIRROR"
FPC = "FPC"

VALID_KINDS = frozenset(
    {PBS, POCKELS_CELL, CIRCULATOR_ARM, FIBER_SEGMENT, RETROREFLECTOR, COUPLER, MIRROR, FPC}
)

FORWARD = "FORWARD"
REVERSE = "REVERSE"

ON = 1
OFF = 0


def _check_fiber(length_m: float, atten_db_per_km: float) -> None:
    """A fiber span needs a finite, nonnegative length and attenuation; NaN fails too."""
    if not 0 <= length_m < math.inf:
        raise InvalidStateError(f"fiber length {length_m} m is not finite and nonnegative")
    if not 0 <= atten_db_per_km < math.inf:  # a negative one would be gain
        raise GainError(f"attenuation {atten_db_per_km} dB/km is not finite and nonnegative")


@dataclass(frozen=True)
class ComponentSpec:
    """Static description of one optical element.

    transmission is intensity transmission, scalar or (t_H, t_V) for
    diattenuating elements.  static_phase is a birefringent phase in radians
    (for a CIRCULATOR_ARM it is the phase of the reflected-input arm).
    length_m and atten_db_per_km only apply to FIBER_SEGMENT.
    """

    kind: str
    transmission: tuple[float, float] = (1.0, 1.0)
    rotation_error: float = 0.0
    static_phase: float = 0.0
    length_m: float = 0.0
    atten_db_per_km: float = 0.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise TypeError(f"unknown component kind {self.kind!r}")
        t = self.transmission
        if np.isscalar(t):
            t = (float(t), float(t))
        else:
            t = (float(t[0]), float(t[1]))
        for ti in t:
            if not 0.0 <= ti <= 1.0:
                raise GainError(f"transmission {ti} outside [0, 1]")
        object.__setattr__(self, "transmission", t)
        _check_fiber(self.length_m, self.atten_db_per_km)

    @property
    def mean_transmission(self) -> float:
        return 0.5 * (self.transmission[0] + self.transmission[1])


@dataclass(frozen=True)
class DriveSchedule:
    """Piecewise-linear Pockels drive: level ramps over rise_time at each transition.

    transitions is an ordered tuple of (time_ns, target_level) with targets in
    {0, 1}; the level before the first transition is OFF.  Ramps may not
    overlap.
    """

    transitions: tuple[tuple[float, int], ...] = ()
    rise_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple((float(t), int(v)) for t, v in self.transitions))
        if not self.rise_time >= 0:  # NaN fails too
            raise UnschedulableError(f"negative rise_time {self.rise_time}")
        prev_t = None
        for t, v in self.transitions:
            if not math.isfinite(t):  # NaN compares false with every time: it fires at once
                raise UnschedulableError(f"transition time {t} ns is not finite")
            if v not in (ON, OFF):
                raise InvalidStateError(f"target level {v} not in {{0, 1}}")
            if prev_t is not None and t < prev_t + self.rise_time:
                raise UnschedulableError(
                    f"transition at {t} ns overlaps the ramp starting at {prev_t} ns"
                )
            prev_t = t


def pockels_level(schedule: DriveSchedule, t: float) -> float:
    """Drive level at time t: exactly 0 or 1 outside ramps, linear inside."""
    level = float(OFF)
    for t_k, target in schedule.transitions:
        if t < t_k:
            break
        if schedule.rise_time > 0 and t < t_k + schedule.rise_time:
            frac = (t - t_k) / schedule.rise_time
            return level + (float(target) - level) * frac
        level = float(target)
    return level


def pockels_operator(level: float, spec: ComponentSpec) -> JonesOperator:
    """Cell operator at drive level: exchange rotation by level*(pi/2 + rotation_error).

    Static birefringence and the per-pass transmission are composed after the
    drive-dependent rotation.
    """
    theta = level * (math.pi / 2 + spec.rotation_error)
    op = rotator(theta)
    if spec.transmission != (1.0, 1.0):
        op = attenuator(*spec.transmission) @ op
    if spec.static_phase != 0.0:
        op = birefringent_phase(spec.static_phase) @ op
    return op


def fiber_transmission(length_m: float, atten_db_per_km: float) -> float:
    """Intensity transmission of a fiber span passed there and back, over 2 * length_m."""
    _check_fiber(length_m, atten_db_per_km)
    km = length_m / 1000.0 * 2.0
    return 10.0 ** (-atten_db_per_km * km / 10.0)


def circulator_operator(direction: str, spec: ComponentSpec) -> JonesOperator:
    """Non-reciprocal routing zone: bit flip forward, identity in reverse.

    The deficit 1 - transmission is light ejected out the wrong port.  The
    static_phase rides on the arm that reflects the forward input, so it
    appears on the flipped H output forward and on the H component in reverse.
    """
    if direction not in (FORWARD, REVERSE):
        raise TypeError(f"direction must be FORWARD or REVERSE, got {direction!r}")
    ph = np.exp(1j * spec.static_phase)
    if direction == FORWARD:
        core = np.array([[0, ph], [1, 0]], dtype=complex)
    else:
        core = np.diag([ph, 1.0]).astype(complex)
    amp = np.diag([math.sqrt(spec.transmission[0]), math.sqrt(spec.transmission[1])])
    return JonesOperator(amp @ core)
