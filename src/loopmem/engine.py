"""Deterministic amplitude bookkeeping for the loop-and-switch memory.

The device stores a polarization qubit by circulating it through an
out-and-back fiber delay line behind a Pockels-cell switch placed in a
polarizing Sagnac loop, fronted by a non-reciprocal circulator zone.  One
storage cycle takes ``delta_tau``.  Three deliberate bit flips act on the
photon: the circulator flips on the way in (forward only), the switch flips
whenever its cell is driven, and the delay line flips once per round trip
when ``x_dl_enabled``.

The simulation is exact amplitude propagation, not sampling.  The wavepacket
is treated as point-like, so the drive level is evaluated at each passage
instant and distinct passages never interfere.  Per switch passage the Sagnac
splits the state into a crossing branch (diagonal part of the intra-loop
operator) and a returning branch (a pure bit flip scaled by the off-diagonal
element; counter-propagation makes any reciprocal intra-loop optics act as an
exact flip on this branch).  Light returning to the circulator side is routed
to the output port, so switching errors surface as early or late exit events
rather than polarization errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .components import (
    CIRCULATOR_ARM,
    COUPLER,
    FIBER_SEGMENT,
    FORWARD,
    FPC,
    OFF,
    ON,
    POCKELS_CELL,
    RETROREFLECTOR,
    REVERSE,
    ComponentSpec,
    DriveSchedule,
    circulator_operator,
    fiber_transmission,
    pockels_level,
    pockels_operator,
)
from .errors import GainError, InvalidStateError, UnschedulableError
from .polarization import (_PAULI_X, DensityMatrix, PureState, attenuator, birefringent_phase,
                           rotator)

_RESIDUAL_CUTOFF = 1e-16
# A residual this light does not change the unit input weight in float.  A map
# that leaks less than this per passage rounds to one that keeps everything
# (a cell rotation error below 1.05e-8 rad rounds cos to 1 yet lets sin^2 ~
# 1.1e-16 into the loop), so such a residual is absorbed, not a "never decays".
_UNIT_ROUNDOFF = 2.0 ** -53
_LISTED_PASSES = 64  # passages past the release passage whose events are listed one by one


@dataclass(frozen=True)
class TransmissionParams:
    """End-to-end intensity transmissions of the measured path segments.

    g13: input to output with the storage line never entered (pass-through).
    g12: input through the first full delay round trip.
    g22: one additional storage cycle (switch passage + round trip).
    g23: final switch passage and release to the output.
    """

    g13: float
    g12: float
    g22: float
    g23: float

    def __post_init__(self):
        for name in ("g13", "g12", "g22", "g23"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise GainError(f"{name} = {v} outside [0, 1]")


def _cycle_count(n) -> int:
    if type(n) is int and n >= 0:
        return n
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"cycle count must be a non-negative integer, got {n!r}")
    return int(n)


def efficiency(params: TransmissionParams, n: int) -> float:
    """Closed-form retrieval efficiency after n storage cycles.

    n = 0 is the pass-through value g13; for n >= 1 the efficiency is
    g12 * g22**(n-1) * g23.
    """
    n = _cycle_count(n)
    return params.g13 if n == 0 else params.g12 * params.g22 ** (n - 1) * params.g23


@dataclass(frozen=True)
class PathTrace:
    """Mirror-level traversal lists for the two polarization components."""

    h_path: tuple[str, ...]
    v_path: tuple[str, ...]


_M_SWAP = {"M1": "M4", "M4": "M1", "M2": "M3", "M3": "M2", "storage": "storage"}


def f8_path_trace(n: int) -> PathTrace:
    """Common-path figure-eight traversal for n storage cycles.

    The H component enters via mirror M4 and leaves via M1; the V component
    takes the same elements in reverse order with M1/M4 and M2/M3 exchanged.
    """
    n = _cycle_count(n)
    h = ("M4",) + ("M2", "M3", "storage") * n + ("M2", "M3", "M1")
    v = tuple(_M_SWAP[lbl] for lbl in h)
    return PathTrace(h_path=h, v_path=v)


@dataclass(frozen=True)
class MemoryConfig:
    """Full device description: timing, drive hardware, and optics per zone.

    Times are in nanoseconds.  The herald fires at t = 0; the photon reaches
    the input port at ``delay_line_compensation`` and the switch half a
    pass-through later.  ``zone_params`` (when set) replaces every component
    transmission with lumped per-segment scalars that reproduce the given
    measured transmissions exactly; polarization behavior (rotation errors,
    static phases, the delay-line flip) still follows the component specs.
    """

    delta_tau: float
    pass_through_time: float = 10.7
    pc_rise_time: float = 10.0
    herald_latency: float = 240.0
    delay_line_compensation: float = 495.0
    coincidence_window: float = 4.0
    x_dl_enabled: bool = True
    input_coupler: ComponentSpec = ComponentSpec(COUPLER)
    output_coupler: ComponentSpec = ComponentSpec(COUPLER)
    loop_coupler: ComponentSpec = ComponentSpec(COUPLER)
    circulator_zone: tuple[ComponentSpec, ...] = (ComponentSpec(CIRCULATOR_ARM),)
    switch_zone: tuple[ComponentSpec, ...] = (ComponentSpec(POCKELS_CELL),)
    delay_zone: tuple[ComponentSpec, ...] = (ComponentSpec(FIBER_SEGMENT, length_m=0.5),
                                             ComponentSpec(RETROREFLECTOR), ComponentSpec(FPC))
    zone_params: TransmissionParams | None = None

    def __post_init__(self):
        for name in ("circulator_zone", "switch_zone", "delay_zone"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, least in (("delta_tau", "positive"), ("pass_through_time", "positive"),
                            ("pc_rise_time", "non-negative"), ("herald_latency", "non-negative"),
                            ("delay_line_compensation", "non-negative")):
            v = getattr(self, name)  # each range is written so that NaN fails it
            if not (0 < v < math.inf if least == "positive" else 0 <= v < math.inf):
                raise InvalidStateError(f"{name} must be {least} and finite, got {v}")
        if not 0 < self.coincidence_window < self.delta_tau:
            raise InvalidStateError(
                "coincidence_window must lie in (0, delta_tau) so exits are separable"
            )
        for zone, kind, want in (
            (self.circulator_zone, CIRCULATOR_ARM, 1),
            (self.switch_zone, POCKELS_CELL, 1),
        ):
            have = sum(1 for c in zone if c.kind == kind)
            if have != want:
                raise InvalidStateError(f"expected exactly {want} {kind} in zone, found {have}")
        if sum(1 for c in self.delay_zone if c.kind == FPC) > 1:
            raise InvalidStateError("at most one FPC in the delay zone")
        if self.zone_params is not None:
            p = self.zone_params
            if p.g22 <= 0 or p.g23 <= 0 or p.g12 <= 0:
                raise InvalidStateError("zone_params transmissions must be positive")
            if p.g12 > p.g22 + 1e-12:
                raise GainError("g12 > g22 implies an amplifying entry segment")
            if p.g13 * p.g22 > p.g12 * p.g23 + 1e-12:
                raise GainError("g13*g22 > g12*g23 implies an amplifying pass-through")

    @classmethod
    def from_params(cls, params: TransmissionParams, delta_tau: float, **kwargs) -> "MemoryConfig":
        """Configuration whose simulated efficiencies equal the given params exactly."""
        return cls(delta_tau=delta_tau, zone_params=params, **kwargs)

    @cached_property
    def _plumbing(self) -> _Plumbing:  # built on first use, once per config object
        return _Plumbing(self)


def switch_schedule(n: int, cfg: MemoryConfig) -> DriveSchedule:
    """Drive timing for n storage cycles.

    n = 0 arms the cell before the photon arrives and leaves it on; n = 1
    never drives it; n >= 2 ramps on between the first and second passages
    and off between the last reflection and the release passage, each ramp
    centered in its inter-passage window.
    """
    n = _cycle_count(n)
    rise = cfg.pc_rise_time
    dt = cfg.delta_tau
    t1 = cfg.delay_line_compensation + cfg.pass_through_time / 2.0
    margin = cfg.coincidence_window / 2.0
    if n == 0:
        t_on = cfg.herald_latency
        if t_on + rise > t1 - margin:
            raise UnschedulableError(
                f"cell cannot be armed by the passage at {t1} ns "
                f"(latency {cfg.herald_latency} + rise {rise})"
            )
        return DriveSchedule(transitions=((t_on, ON),), rise_time=rise)
    if n == 1:
        return DriveSchedule(transitions=(), rise_time=rise)
    if rise >= dt - cfg.coincidence_window:
        raise UnschedulableError(
            f"rise_time {rise} ns does not fit between passages {dt} ns apart "
            f"with a {cfg.coincidence_window} ns gate"
        )
    on_start = t1 + dt / 2.0 - rise / 2.0
    off_start = t1 + (n - 1) * dt + dt / 2.0 - rise / 2.0
    if on_start < cfg.herald_latency:
        raise UnschedulableError(
            f"first ramp at {on_start} ns precedes the drive latency {cfg.herald_latency} ns"
        )
    return DriveSchedule(transitions=((on_start, ON), (off_start, OFF)), rise_time=rise)


@dataclass(frozen=True, eq=False)
class ExitEvent:
    """Photon leaving at the output port: arrival time, weight and (lossy) state.

    rho holds the entries (HH, HV, VV) of the unnormalized density matrix and
    weight its trace; the state is built on first read, since most readers
    need only rho.
    """

    time: float
    weight: float
    rho: tuple[float, complex, float]

    @cached_property
    def state(self) -> DensityMatrix:
        # Hermitian by construction (VH is the conjugate of HV); only the trace is checked
        hh, hv, vv = self.rho
        return DensityMatrix._trusted(np.array(((hh, hv), (hv.conjugate(), vv))))


@dataclass(frozen=True)
class StorageOutcome:
    """Complete account of one storage attempt.

    exits are output-port events and ejections (time, weight) pairs lost at
    non-output ports, both in time order and listed passage by passage up to
    64 passages past the release passage n + 1.  Events of weight at most
    1e-16 are not listed, except the exit of the release passage, which is
    retrieved.  tail is the exact sum of every exit after the listed
    passages (its time is the first passage it covers) plus the unlisted light
    exits, and tail_ejected the same sum for ejections.  When nothing above
    1e-16 circulates after the listing, tail is None and the unlisted light
    events stay out of the account.  absorbed collects absorptive loss.  Exit
    weights, tail, ejections, tail_ejected and absorbed sum to 1: balance is
    that sum as the engine checked it, and weight_balance() sums it anew.
    Outcomes of one sweep hold the same ExitEvent for each exit of the
    passages their cycle counts share.
    """

    n_cycles: int
    input_state: PureState
    exits: tuple[ExitEvent, ...]
    ejections: tuple[tuple[float, float], ...]
    absorbed: float
    retrieved: ExitEvent
    balance: float
    tail: ExitEvent | None = None
    tail_ejected: float = 0.0

    @property
    def retrieved_weight(self) -> float:
        return self.retrieved.weight

    def weight_balance(self) -> float:
        """Total accounted probability; 1 up to float rounding."""
        tot = sum(e.weight for e in self.exits) + self.absorbed + self.tail_ejected
        tot += sum(w for _, w in self.ejections)
        if self.tail is not None:
            tot += self.tail.weight
        return tot


_Op2 = tuple[complex, complex, complex, complex]


def _entries(m: np.ndarray) -> _Op2:
    """Row-major entries (a, b, c, d) of a 2x2 operator as Python complex."""
    (a, b), (c, d) = m.tolist()
    return complex(a), complex(b), complex(c), complex(d)


class _Plumbing:
    """Operators and loss attribution precomputed from a MemoryConfig.

    Every operator is stored as its row-major entries (a, b, c, d) in plain
    Python complex, so the passage loop runs without numpy calls.
    first_passage and later_passage map a drive level (OFF or ON) to the
    (release, store) operator pair of a switch passage from the circulator
    side (the first) or from the delay side (every later one).
    """

    def __init__(self, cfg: MemoryConfig):
        circ = next(c for c in cfg.circulator_zone if c.kind == CIRCULATOR_ARM)
        pc = next(c for c in cfg.switch_zone if c.kind == POCKELS_CELL)
        flip = np.eye(2, dtype=complex)
        if cfg.x_dl_enabled:
            eps_f = next((c.rotation_error for c in cfg.delay_zone if c.kind == FPC), 0.0)
            flip = rotator(math.pi / 2.0 + eps_f).matrix
        fiber_phase = sum(c.static_phase for c in cfg.delay_zone if c.kind == FIBER_SEGMENT)
        one_way = birefringent_phase(fiber_phase).matrix
        switch_amp = np.eye(2, dtype=complex)

        if cfg.zone_params is not None:
            # zone_params carry all loss; unit-transmission circulator and cell keep their phases
            p = cfg.zone_params
            circ = replace(circ, transmission=(1.0, 1.0))
            pc = replace(pc, transmission=(1.0, 1.0))
            passthrough_amp = math.sqrt(p.g13 * p.g22 / (p.g12 * p.g23))
            self.entry_ej_share = 0.0
            self.exit_ej_share = 0.0
            entry_op = math.sqrt(p.g12 / p.g22) * circulator_operator(FORWARD, circ).matrix
            exit_op = math.sqrt(p.g23) * circulator_operator(REVERSE, circ).matrix
            delay_op = math.sqrt(p.g22) * (one_way @ flip @ one_way)
        else:
            passthrough_amp = 1.0
            c1 = attenuator(*cfg.input_coupler.transmission).matrix
            c3 = attenuator(*cfg.output_coupler.transmission).matrix
            c2 = attenuator(*cfg.loop_coupler.transmission).matrix
            circ_static = np.eye(2, dtype=complex)
            for c in cfg.circulator_zone:
                if c.kind != CIRCULATOR_ARM:
                    circ_static = attenuator(*c.transmission).matrix @ circ_static
            entry_op = circulator_operator(FORWARD, circ).matrix @ circ_static @ c1
            exit_op = c3 @ circ_static @ circulator_operator(REVERSE, circ).matrix

            # fraction of each end-zone loss ejected at the circulator (vs absorbed)
            def ej_share(pre_w, arm_w):
                lost = 1.0 - pre_w * arm_w
                return (pre_w * (1.0 - arm_w)) / lost if lost > 1e-15 else 0.0

            w_static = float(np.prod([c.mean_transmission for c in cfg.circulator_zone]))
            w_arm = circ.mean_transmission
            w_static = w_static / w_arm if w_arm > 0 else w_static
            self.entry_ej_share = ej_share(cfg.input_coupler.mean_transmission * w_static, w_arm)
            self.exit_ej_share = ej_share(w_static * cfg.output_coupler.mean_transmission, w_arm)

            for c in cfg.switch_zone:
                if c.kind != POCKELS_CELL:
                    switch_amp = attenuator(*c.transmission).matrix @ switch_amp

            d = np.eye(2, dtype=complex)
            for c in cfg.delay_zone:
                if c.kind == FIBER_SEGMENT:
                    d = math.sqrt(fiber_transmission(c.length_m, c.atten_db_per_km)) * d
                elif c.kind == FPC:
                    d = math.sqrt(c.mean_transmission) * d
                else:
                    d = attenuator(*c.transmission).matrix @ d
            delay_op = c2 @ one_way @ (d @ flip) @ one_way @ c2

        self.entry_op = _entries(entry_op)
        self.exit_op = _entries(exit_op)
        self.delay_op = _entries(delay_op)
        self.first_passage = {}
        self.later_passage = {}
        for level in (OFF, ON):
            j = switch_amp @ pockels_operator(level, pc).matrix
            cross = _entries(np.diag(np.diag(j)))
            self.first_passage[level] = (_entries(passthrough_amp * (j[1, 0] * _PAULI_X)), cross)
            self.later_passage[level] = (cross, _entries(j[0, 1] * _PAULI_X))
        self._stein = {}

    def stein(self, level: float) -> tuple[tuple[complex, ...], ...] | None:
        """Linear maps that sum every later passage at one fixed drive level.

        Passages from the delay side at this level send the circulating
        amplitude x through M = delay.store and out through E = exit.release,
        so from x on they leave S = sum_j M^j x x^+ M^+j, the solution of the
        Stein equation S = x x^+ + M S M^+.  The four rows returned map the
        row-major entries of x x^+ to the entries HH, HV and VV of the summed
        exit state E S E^+ and to the summed released weight
        tr(release S release^+).  None when M does not decay (spectral
        radius >= 1).  Built once per level, with one 4x4 solve.
        """
        if level not in self._stein:
            release, store = (np.reshape(op, (2, 2)) for op in self.later_passage[level])
            m = np.reshape(self.delay_op, (2, 2)) @ store
            e = np.reshape(self.exit_op, (2, 2)) @ release
            rows = None
            if np.abs(np.linalg.eigvals(m)).max() < 1.0:
                # row-major vec(A S A^+) = kron(A, conj A) vec(S)
                ee, rr = np.kron(e, e.conj()), np.kron(release, release.conj())
                lhs = np.stack((ee[0], ee[1], ee[3], rr[0] + rr[3]))
                sol = np.linalg.solve((np.eye(4) - np.kron(m, m.conj())).T, lhs.T).T
                rows = tuple(map(tuple, sol.tolist()))
            self._stein[level] = rows
        return self._stein[level]


def _apply(op: _Op2, x: complex, y: complex) -> tuple[complex, complex]:
    a, b, c, d = op
    return a * x + b * y, c * x + d * y


def _norm2(x: complex, y: complex) -> float:
    return (x * x.conjugate() + y * y.conjugate()).real


def _release(plumb: _Plumbing, release: _Op2, x: complex, y: complex) -> tuple:
    """The release step of a passage that the amplitude (x, y) meets.

    Returns the amplitude that leaves for the exit port, then the entries
    HH, HV and VV of the exit state |v><v|, v = exit.release (x, y), whose
    trace HH + VV is the exit weight.
    """
    (ra, rb, rc, rd), (ea, eb, ec, ed) = release, plumb.exit_op
    out_x, out_y = ra * x + rb * y, rc * x + rd * y
    vx, vy = ea * out_x + eb * out_y, ec * out_x + ed * out_y
    vyc = vy.conjugate()
    return out_x, out_y, (vx * vx.conjugate()).real, vx * vyc, (vy * vyc).real


class _Account:
    """A propagation booked passage by passage.

    x, y is the amplitude that meets the next passage and w its weight.  The
    running sums are absorbed, listed (the weight of the listed exits and
    ejections), quiet (HH, HV and VV summed over the exits too light to list)
    and quiet_ejected (the ejections too light to list).
    """

    __slots__ = ("x", "y", "w", "absorbed", "listed", "quiet", "quiet_ejected", "exits",
                 "ejections")

    def __init__(self, x: complex, y: complex, w: float, absorbed=0.0, listed=0.0,
                 quiet=(0.0, 0j, 0.0), quiet_ejected=0.0):
        self.x, self.y, self.w = x, y, w
        self.absorbed, self.listed, self.quiet, self.quiet_ejected = (
            absorbed, listed, quiet, quiet_ejected)
        self.exits, self.ejections = [], []

    def branch(self) -> "_Account":
        """An account that goes on from here with no events of its own yet."""
        return _Account(self.x, self.y, self.w, self.absorbed, self.listed, self.quiet,
                        self.quiet_ejected)

    def eject(self, t: float, lost: float, share: float):
        if (ej := lost * share) > _RESIDUAL_CUTOFF:
            self.ejections.append((t, ej))
            self.listed += ej
        else:
            self.quiet_ejected += ej
        self.absorbed += lost - ej

    def passage(self, plumb: _Plumbing, ops: tuple[_Op2, _Op2], t: float, retrieved=False):
        """Book the passage whose exit leaves at t, through the (release, store) pair ops.

        Its exit is listed when it weighs more than the cutoff or is retrieved.
        """
        release, (sa, sb, sc, sd) = ops
        (da, db, dc, dd), x, y = plumb.delay_op, self.x, self.y
        out_x, out_y, hh, hv, vv = _release(plumb, release, x, y)
        stay_x, stay_y = sa * x + sb * y, sc * x + sd * y
        self.x, self.y = x, y = da * stay_x + db * stay_y, dc * stay_x + dd * stay_y
        # _norm2 of what leaves, stays and meets the next passage, inlined
        w_out = (out_x * out_x.conjugate() + out_y * out_y.conjugate()).real
        w_stay = (stay_x * stay_x.conjugate() + stay_y * stay_y.conjugate()).real
        w_in, self.w = self.w, (x * x.conjugate() + y * y.conjugate()).real
        self.absorbed += max(w_in - w_out - w_stay, 0.0)
        if (lost := w_out - (w := hh + vv)) > 0:
            self.eject(t, lost, plumb.exit_ej_share)
        if w > _RESIDUAL_CUTOFF or retrieved:
            self.exits.append(ExitEvent(t, w, (hh, hv, vv)))
            self.listed += w
        else:
            q_hh, q_hv, q_vv = self.quiet
            self.quiet = (q_hh + hh, q_hv + hv, q_vv + vv)
        self.absorbed += max(w_stay - self.w, 0.0)


def _close(plumb: _Plumbing, level: float, t: float,
           acc: _Account) -> tuple[ExitEvent | None, float]:
    """Settle what circulates past the listing, from the exit at t on: (tail exit, ejection).

    At most the cutoff, or unit round-off that the map at `level` keeps in
    float, is absorbed.  Otherwise plumb.stein sums every later passage
    exactly, into a tail that also carries the account's unlisted events.
    """
    x, y, w = acc.x, acc.y, acc.w
    sums = None if w <= _RESIDUAL_CUTOFF else plumb.stein(level)
    if sums is None and w <= _UNIT_ROUNDOFF:
        acc.absorbed += w
        return None, 0.0
    if sums is None:
        raise InvalidStateError(
            f"weight {w} still circulates at {t} ns and never decays: "
            "at the final drive level the round trip keeps it all (spectral radius >= 1)")
    xc, yc = x.conjugate(), y.conjugate()
    a, b, c, d = x * xc, x * yc, y * xc, y * yc  # row-major entries of x x^+
    hh, hv, vv, released = [r0 * a + r1 * b + r2 * c + r3 * d for r0, r1, r2, r3 in sums]
    hh, vv, released = max(hh.real, 0.0), max(vv.real, 0.0), released.real
    lost = max(released - hh - vv, 0.0)
    ej = lost * plumb.exit_ej_share
    acc.absorbed += lost - ej + max(w - released, 0.0)
    hh, hv, vv = (entry + quiet for entry, quiet in zip((hh, hv, vv), acc.quiet))
    return ExitEvent(t, hh + vv, (hh, hv, vv)), acc.quiet_ejected + ej


def _sweep_plan(cfg: MemoryConfig, n_values) -> tuple:
    """The setup of a sweep: n_values checked, marks (the distinct n, sorted), the
    plumbing, shared (the (release, store) pair of shared passage 1, then the one of
    every later shared passage up to max(n), so passage k takes shared[k > 1]), and
    per mark the drive level its branch stays at with the pair of its release passage."""
    n_values = tuple(map(_cycle_count, n_values))
    marks = sorted(set(n_values))
    n_max, t1 = max(marks, default=0), cfg.delay_line_compensation + cfg.pass_through_time / 2.0
    # n >= 2 ramps the cell on between passages 1 and 2 and off between n and n + 1,
    # n = 1 never drives it and n = 0 keeps it on: so the largest n's levels at
    # passages 1 and 2 are all shared levels, and a branch stays at its release level
    schedules = {n: switch_schedule(n, cfg) for n in {0, 1, n_max} & set(marks)}
    level = {n: pockels_level(s, t1 + n * cfg.delta_tau) for n, s in schedules.items()}
    plumb = cfg._plumbing
    maps = (plumb.first_passage, plumb.later_passage)
    shared = [maps[k][pockels_level(schedules[n_max], t1 + k * cfg.delta_tau)]
              for k in range(min(n_max, 2))]
    release = {n: (lvl, maps[n > 0][lvl]) for n, lvl in level.items()}
    releases = [release[n if n < 2 else n_max] for n in marks]
    return n_values, marks, plumb, shared, releases


def simulate_sweep(cfg: MemoryConfig, input_state: PureState,
                   n_values: tuple[int, ...]) -> tuple[StorageOutcome, ...]:
    """The outcome simulate_storage gives for each n in n_values, in order.

    Every n >= 1 drives the cell OFF at passage 1 and ON through passage n,
    so the state propagates passages 1..n once for every n, as two complex
    scalars.  Each n then branches off at its release passage n + 1 (n = 0:
    passage 1) and books its listed passages and its tail on its own.
    Outcomes hold the same ExitEvent for each exit of the shared passages.
    """
    n_values, marks, plumb, shared, releases = _sweep_plan(cfg, n_values)
    t_half, dt = cfg.pass_through_time / 2.0, cfg.delta_tau
    t1 = cfg.delay_line_compensation + t_half
    x, y = _apply(plumb.entry_op, input_state.alpha, input_state.beta)  # in the H/V basis
    prefix = _Account(x, y, _norm2(x, y))
    if (lost := 1.0 - prefix.w) > 0:
        prefix.eject(cfg.delay_line_compensation, lost, plumb.entry_ej_share)
    outcomes, booked = {}, 0  # booked: the shared passages the prefix has booked
    for n, (level, ops) in zip(marks, releases):
        for k in range(booked + 1, n + 1):
            prefix.passage(plumb, shared[k > 1], t1 + (k - 1) * dt + t_half)
        booked = n
        acc, k_next = prefix.branch(), n + 2
        acc.passage(plumb, ops, t1 + n * dt + t_half, retrieved=True)
        while k_next <= n + 1 + _LISTED_PASSES and acc.w > _RESIDUAL_CUTOFF:
            acc.passage(plumb, plumb.later_passage[level], t1 + (k_next - 1) * dt + t_half)
            k_next += 1
        tail, tail_ejected = _close(plumb, level, t1 + (k_next - 1) * dt + t_half, acc)
        balance = acc.listed + acc.absorbed
        if tail is not None:
            balance = balance + tail_ejected + tail.weight
        if not abs(balance - 1.0) <= 1e-9:  # NaN fails too
            raise InvalidStateError(f"probability not conserved: accounted {balance}")
        outcomes[n] = StorageOutcome(
            n, input_state, tuple(prefix.exits + acc.exits), tuple(prefix.ejections + acc.ejections),
            acc.absorbed, acc.exits[0], balance, tail, tail_ejected)
    return tuple(outcomes[n] for n in n_values)


def retrieved_exits(cfg: MemoryConfig, input_states: tuple[PureState, ...],
                    n_values: tuple[int, ...]) -> np.ndarray:
    """(HH, VV, Re HV, Im HV) of each state's retrieved exit at each n, as (4, states, n) floats.

    Only the amplitude that meets each release passage is propagated, with
    simulate_sweep's arithmetic and release step, so the entries are its
    retrieved.rho to the bit.  It raises what simulate_sweep raises: the
    schedule errors, and where a release level's round trip does not decay,
    the sweeps are booked in full to find weight that circulates forever.
    """
    n_values, marks, plumb, shared, releases = _sweep_plan(cfg, n_values)
    if None in map(plumb.stein, {level for level, _ in releases}):
        for state in input_states:
            simulate_sweep(cfg, state, marks)
    (da, db, dc, dd), entries = plumb.delay_op, []
    for state in input_states:
        x, y = _apply(plumb.entry_op, state.alpha, state.beta)
        k = 0
        for n, (_, (release, _)) in zip(marks, releases):
            for j in range(k, n):  # passage j + 1, with the arithmetic of _Account.passage
                _, (sa, sb, sc, sd) = shared[j > 0]
                stay_x, stay_y = sa * x + sb * y, sc * x + sd * y
                x, y = da * stay_x + db * stay_y, dc * stay_x + dd * stay_y
            k = n
            _, _, hh, hv, vv = _release(plumb, release, x, y)
            entries += (hh, vv, hv.real, hv.imag)
    column = {n: i for i, n in enumerate(marks)}
    rho = np.reshape(entries, (len(input_states), len(marks), 4)).transpose(2, 0, 1)
    return rho[:, :, [column[n] for n in n_values]]


def simulate_storage(cfg: MemoryConfig, input_state: PureState, n: int) -> StorageOutcome:
    """Propagate one heralded photon through n storage cycles.

    Returns every output-port exit (the scheduled retrieval plus any early or
    late leakage), ejections and absorption, with total weight 1.  Events are
    listed one by one up to 64 passages past the release passage n + 1; what
    leaks after that is summed exactly into one tail exit and one tail
    ejection.  Raises UnschedulableError when the drive cannot realize the
    requested n, and InvalidStateError when weight would circulate forever.
    """
    return simulate_sweep(cfg, input_state, (n,))[0]


def derive_transmission_params(cfg: MemoryConfig) -> TransmissionParams:
    """Segment transmissions implied by the configuration.

    With lumped zone_params these are returned as stored.  Otherwise they are
    products of component mean transmissions: the entry segment covers the
    input coupler, circulator, one switch passage and one full round trip; the
    per-cycle segment covers one switch passage and one round trip; the
    release segment one switch passage, the reverse circulator and the output
    coupler.  Polarization-dependent losses enter through their H/V mean.
    """
    if cfg.zone_params is not None:
        return cfg.zone_params
    t_circ = float(np.prod([c.mean_transmission for c in cfg.circulator_zone]))
    t_switch = float(np.prod([c.mean_transmission for c in cfg.switch_zone]))
    t_loop = cfg.loop_coupler.mean_transmission ** 2
    for c in cfg.delay_zone:
        if c.kind == FIBER_SEGMENT:
            t_loop *= fiber_transmission(c.length_m, c.atten_db_per_km)
        else:
            t_loop *= c.mean_transmission
    c1 = cfg.input_coupler.mean_transmission
    c3 = cfg.output_coupler.mean_transmission
    f = c1 * t_circ
    r = t_circ * c3
    return TransmissionParams(
        g13=f * t_switch * r,
        g12=f * t_switch * t_loop,
        g22=t_switch * t_loop,
        g23=t_switch * r,
    )
