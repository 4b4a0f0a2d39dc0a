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

import bisect
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

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
from .polarization import DensityMatrix, PureState, attenuator, birefringent_phase, rotator

_X = np.array([[0, 1], [1, 0]], dtype=complex)
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


def efficiency(params: TransmissionParams, n: int) -> float:
    """Closed-form retrieval efficiency after n storage cycles.

    n = 0 is the pass-through value g13; for n >= 1 the efficiency is
    g12 * g22**(n-1) * g23.
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"cycle count must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"cycle count must be >= 0, got {n}")
    if n == 0:
        return params.g13
    return params.g12 * params.g22 ** (n - 1) * params.g23


@dataclass(frozen=True)
class PathTrace:
    """Mirror-level traversal lists for the two polarization components."""

    h_path: tuple[str, ...]
    v_path: tuple[str, ...]


_M_SWAP = {"M1": "M4", "M4": "M1", "M2": "M3", "M3": "M2", "storage": "storage"}


def _cycle_count(n) -> int:
    if type(n) is int and n >= 0:
        return n
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"cycle count must be a non-negative integer, got {n!r}")
    return int(n)


def f8_path_trace(n: int) -> PathTrace:
    """Common-path figure-eight traversal for n storage cycles.

    The H component enters via mirror M4 and leaves via M1; the V component
    takes the same elements in reverse order with M1/M4 and M2/M3 exchanged.
    """
    n = _cycle_count(n)
    h = ("M4",) + ("M2", "M3", "storage") * n + ("M2", "M3", "M1")
    v = tuple(_M_SWAP[lbl] for lbl in h)
    return PathTrace(h_path=h, v_path=v)


def _default_circulator() -> tuple[ComponentSpec, ...]:
    return (ComponentSpec(CIRCULATOR_ARM),)

def _default_switch() -> tuple[ComponentSpec, ...]:
    return (ComponentSpec(POCKELS_CELL),)

def _default_delay() -> tuple[ComponentSpec, ...]:
    return (
        ComponentSpec(FIBER_SEGMENT, length_m=0.5, atten_db_per_km=0.0),
        ComponentSpec(RETROREFLECTOR),
        ComponentSpec(FPC),
    )


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
    circulator_zone: tuple[ComponentSpec, ...] = field(default_factory=_default_circulator)
    switch_zone: tuple[ComponentSpec, ...] = field(default_factory=_default_switch)
    delay_zone: tuple[ComponentSpec, ...] = field(default_factory=_default_delay)
    zone_params: TransmissionParams | None = None

    def __post_init__(self):
        for name in ("circulator_zone", "switch_zone", "delay_zone"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.delta_tau <= 0:
            raise InvalidStateError(f"delta_tau must be positive, got {self.delta_tau}")
        if self.pass_through_time <= 0:
            raise InvalidStateError("pass_through_time must be positive")
        if self.coincidence_window <= 0 or self.coincidence_window >= self.delta_tau:
            raise InvalidStateError(
                "coincidence_window must lie in (0, delta_tau) so exits are separable"
            )
        if self.pc_rise_time < 0 or self.herald_latency < 0 or self.delay_line_compensation < 0:
            raise InvalidStateError("timing fields must be non-negative")
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

    def pockels_spec(self) -> ComponentSpec:
        return next(c for c in self.switch_zone if c.kind == POCKELS_CELL)

    def circulator_spec(self) -> ComponentSpec:
        return next(c for c in self.circulator_zone if c.kind == CIRCULATOR_ARM)

    def fpc_spec(self) -> ComponentSpec | None:
        return next((c for c in self.delay_zone if c.kind == FPC), None)


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
        return DriveSchedule(transitions=((t_on, ON),), rise_time=rise, initial_level=OFF)
    if n == 1:
        return DriveSchedule(transitions=(), rise_time=rise, initial_level=OFF)
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
    return DriveSchedule(
        transitions=((on_start, ON), (off_start, OFF)), rise_time=rise, initial_level=OFF
    )


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
    The engine books outcomes as arrays; one is built only when a Sweep is
    indexed, and outcomes of one sweep hold the same ExitEvent for each exit
    of the passages their cycle counts share.
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
        circ = cfg.circulator_spec()
        pc = cfg.pockels_spec()
        fpc = cfg.fpc_spec()
        eps_f = fpc.rotation_error if fpc is not None else 0.0
        flip = np.eye(2, dtype=complex)
        if cfg.x_dl_enabled:
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
                    d = math.sqrt(fiber_transmission(c.length_m, c.atten_db_per_km, round_trip=True)) * d
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
            self.first_passage[level] = (_entries(passthrough_amp * (j[1, 0] * _X)), cross)
            self.later_passage[level] = (cross, _entries(j[0, 1] * _X))
        self._stein, self._stacks = {}, {}

    def stein(self, level: float) -> np.ndarray | None:
        """Linear maps that sum every later passage at one fixed drive level.

        Passages from the delay side at this level send the circulating
        amplitude x through M = delay.store and out through E = exit.release,
        so from x on they leave S = sum_j M^j x x^+ M^+j, the solution of the
        Stein equation S = x x^+ + M S M^+.  Four rows map the row-major
        entries of x x^+ to the entries HH, HV and VV of the summed exit state
        E S E^+ and to the summed released weight tr(release S release^+);
        they are returned as _coefficients.  None when M does not decay
        (spectral radius >= 1).  Built once per level, with one 4x4 solve.
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
                rows = _coefficients(sol.tolist())
            self._stein[level] = rows
        return self._stein[level]

    def stack(self, first: bool, level: float) -> tuple[np.ndarray, np.ndarray]:
        """A branch's listed passages at one drive level, as maps of its start c.

        A branch meets its release passage (passage 1 when `first`) with the
        amplitude c, then _LISTED_PASSES more.  Row j maps the real parts of c
        to those of passage j's exit amplitude and of what meets it, leaves,
        stays and meets the next one: a (4, 20, 1, rows) array, one (20, 1,
        rows) map per part of c, returned with the map to what meets the
        passage after the rows (as _coefficients).  The rows end early once
        that map is exactly zero, since every branch stops there.
        """
        key = (first, level, _LISTED_PASSES)
        if key not in self._stacks:
            delay, exit_op = np.reshape(self.delay_op, (2, 2)), np.reshape(self.exit_op, (2, 2))
            c, rows = np.eye(2, dtype=complex), []
            for j in range(_LISTED_PASSES + 1):
                passages = self.first_passage if first and j == 0 else self.later_passage
                release, store = (np.reshape(op, (2, 2)) @ c for op in passages[level])
                maps = (exit_op @ release, c, release, store, c := delay @ store)
                # (Re x, Im x, Re y, Im y) -> Re and Im of each entry of m (x, y)
                rows.append([part for m in maps for a, b in m for part in (
                    (a.real, -a.imag, b.real, -b.imag), (a.imag, a.real, b.imag, b.real))])
                if not c.any():
                    break
            self._stacks[key] = (np.array(rows).transpose(2, 1, 0)[:, :, None].copy(),
                                 _coefficients(c.tolist()))
        return self._stacks[key]


_plumbing = lru_cache(maxsize=16)(_Plumbing)  # one per config; workloads reuse a handful


def _apply(op: _Op2, x: complex, y: complex) -> tuple[complex, complex]:
    a, b, c, d = op
    return a * x + b * y, c * x + d * y


def _norm2(x: complex, y: complex) -> float:
    return (x * x.conjugate() + y * y.conjugate()).real


def _coefficients(rows) -> np.ndarray:
    """Rows of complex coefficients c_k, laid out for _cdot."""
    return np.array([[[part for c in row for part in (c.real, -c.imag)],
                      [part for c in row for part in (c.real, c.imag)]] for row in rows])[..., None]


def _exit_entries(amp: np.ndarray) -> np.ndarray:
    """Entries (HH, VV, Re HV, Im HV) of the exit state from its amplitude's (Re x, Im x, Re y, Im y)."""
    sq, re, im = amp * amp, amp[:2] * amp[2], amp[:2] * amp[3]
    hh, vv = sq[0::2] + sq[1::2]
    return np.array((hh, vv, re[0] + im[1], re[1] - im[0]))


def _cdot(coefs: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Per row of coefs, the real and imaginary parts of sum_k c_k z_k (one column per z).

    z_k = re[k] + i im[k].  The products and sums are those of Python's
    complex arithmetic, in its order, on real arrays: numpy's complex
    multiply may fuse with FMA in its vector loop and not in its remainder,
    so a branch would depend on its batch.
    """
    terms = np.empty((2, 2 * len(re), re.shape[1]))
    terms[0, 0::2], terms[0, 1::2], terms[1, 0::2], terms[1, 1::2] = re, im, im, re
    prod = coefs * terms
    pairs = prod[..., 0::2, :] + prod[..., 1::2, :]  # c_k z_k, real part then imaginary
    out = pairs[..., 0, :]
    for k in range(1, len(re)):
        out = out + pairs[..., k, :]
    return out


# The running sums of a booking: absorbed weight, listed weight, then the quiet
# sums: the entries (HH, VV, Re HV, Im HV) of unlisted exits and the weight of
# unlisted ejections.
_ABSORBED, _LISTED, _QUIET, _SUMS = 0, 1, slice(2, 7), 7
_CHUNK = 4096  # shared passages booked at once, which bounds a long sweep's memory


class _Book:
    """Passage rows booked as arrays, in the order a passage-by-passage loop books them.

    rows (8, R) holds per passage the weights that meet it, leave it for the
    exit port, stay in the loop and meet the next passage, then the real and
    imaginary parts of its exit amplitude (H, then V).  share is the ejected
    fraction of each row's loss, and the rows in forced (slices) list their
    exit whatever its weight (a branch's release).  Per row the book keeps
    the exit's entries rho = (HH, VV, Re HV, Im HV) and weight, the ejected
    weight, whether each is listed (above _RESIDUAL_CUTOFF; unlisted ones add
    to the quiet sums), and steps: the three additions the passage makes, in
    order, to each running sum.
    """

    def __init__(self, rows: np.ndarray, share, forced=()):
        w_in, w_out, w_stay, w_next = rows[:4]
        self.rho = rho = _exit_entries(rows[4:])
        self.weight = w = rho[0] + rho[1]
        lost = np.maximum(w_out - w, 0.0)  # left for the exit port, not through it
        self.ejected = ej = lost * share
        self.listed = listed = w > _RESIDUAL_CUTOFF
        for at in forced:
            listed[at] = True
        self.ejection_listed = ej_listed = ej > _RESIDUAL_CUTOFF
        self.steps = steps = np.zeros((len(w), 3, _SUMS))
        steps[:, :, _ABSORBED] = np.maximum(
            (w_in - w_out - w_stay, lost - ej, w_stay - w_next), 0.0).T
        steps[:, 0, _LISTED], steps[:, 0, 6] = ej * ej_listed, ej * ~ej_listed
        steps[:, 1, _LISTED] = w * listed
        steps[:, 1, 2:6] = (self.rho * ~listed).T

    def sums(self, lo: int, b: int, p: int, start: np.ndarray) -> np.ndarray:
        """Running sums over rows lo.. as b sequences of p rows, from start (b, _SUMS).

        np.cumsum adds in order, as the loop would; the result
        (b, p + 1, _SUMS) holds the sums before the first row and after each.
        """
        steps = self.steps[lo:lo + b * p].reshape(b, 3 * p, _SUMS)
        return np.cumsum(np.concatenate((start[:, None], steps), axis=1), axis=1)[:, ::3]


class _Prefix:
    """The passages the branches of a sweep share, for every input state.

    Each state's amplitude is propagated as two complex scalars.  Its rows
    are the entry (row 0, whose loss is ejected at the entry share) and
    passage k (row k, through the operators passages[k - 1]); they are
    booked a chunk at a time.  Per n in marks (sorted), amps keeps the
    amplitude that meets passage n + 1 as (Re x, Im x, Re y, Im y) and
    mark_sums the running sums there; exits and ejections keep each chunk's
    listed events: its first row and rows per state, then the events' rows
    in the chunk and values.
    """

    def __init__(self, plumb: _Plumbing, states, passages: list, marks: list[int]):
        self.plumb, self.passages, self.marks, self.mark_set = plumb, passages, marks, set(marks)
        self.mark_rows = np.array(marks, dtype=int)
        self.now = []  # per state: the amplitude and weight meeting the next passage
        for state in states:
            x, y = _apply(plumb.entry_op, state.alpha, state.beta)
            self.now.append((x, y, _norm2(x, y)))
        self.amps = [array("d") for _ in states]
        self.carry = np.zeros((len(states), _SUMS))
        self.mark_sums = np.zeros((len(states), len(marks), _SUMS))
        self.exits, self.ejections = [], []

    def propagate(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi - 1 of every state, state by state, as an (8, rows) block."""
        passages, marks = self.passages, self.mark_set
        (ea, eb, ec, ed), (da, db, dc, dd) = self.plumb.exit_op, self.plumb.delay_op
        rows = array("d")
        for s, (x, y, w) in enumerate(self.now):
            amps = self.amps[s]
            if lo == 0:
                rows.extend((lost := 1.0 - w, lost, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                if 0 in marks:
                    amps.extend((x.real, x.imag, y.real, y.imag))
            for k in range(max(lo, 1), hi):
                (ra, rb, rc, rd), (sa, sb, sc, sd) = passages[k - 1]
                out_x, out_y = ra * x + rb * y, rc * x + rd * y
                stay_x, stay_y = sa * x + sb * y, sc * x + sd * y
                rel_x, rel_y = ea * out_x + eb * out_y, ec * out_x + ed * out_y
                x, y = da * stay_x + db * stay_y, dc * stay_x + dd * stay_y
                w_in, w = w, (x * x.conjugate() + y * y.conjugate()).real  # _norm2, inlined
                rows.extend((w_in, (out_x * out_x.conjugate() + out_y * out_y.conjugate()).real,
                             (stay_x * stay_x.conjugate() + stay_y * stay_y.conjugate()).real, w,
                             rel_x.real, rel_x.imag, rel_y.real, rel_y.imag))
                if k in marks:
                    amps.extend((x.real, x.imag, y.real, y.imag))
            self.now[s] = x, y, w
        return np.frombuffer(rows).reshape(-1, 8).T

    def shares(self, lo: int, hi: int, size: int) -> np.ndarray:
        """The ejected share of each of size rows whose first are rows lo..hi - 1."""
        share = np.full(size, self.plumb.exit_ej_share)
        if lo == 0:
            share[:len(self.now) * hi:hi] = self.plumb.entry_ej_share
        return share

    def settle(self, book: _Book, lo: int, hi: int):
        """Take the running sums and listed events of rows lo..hi - 1, booked first in book."""
        p, size = hi - lo, len(self.now) * (hi - lo)
        sums = book.sums(0, len(self.now), p, self.carry)
        self.carry = sums[:, -1]
        i, j = bisect.bisect_left(self.marks, lo), bisect.bisect_left(self.marks, hi)
        self.mark_sums[:, i:j] = sums[:, self.mark_rows[i:j] - (lo - 1)]
        at = book.listed[:size].nonzero()[0]
        self.exits.append((lo, p, at, book.weight[at], book.rho[:, at]))
        at = book.ejection_listed[:size].nonzero()[0]
        self.ejections.append((lo, p, at, book.ejected[at]))


def _close(plumb: _Plumbing, level: float, t: np.ndarray, re: np.ndarray, im: np.ndarray,
           quiet: np.ndarray):
    """Settle what still circulates past the listed passages of a set of branches.

    re and im hold the parts of the amplitude (x, y) that meets the passage
    at t, and quiet a branch's quiet sums, one column per branch.  At most
    the cutoff, or unit round-off that the map at `level` keeps in float, is
    absorbed.  Otherwise plumb.stein sums every later passage exactly, into
    a tail that also carries the quiet events.  Returns per branch the
    weight absorbed, whether it has a tail, the tail's (HH, VV, Re HV,
    Im HV, weight) and the tail's ejected weight (zeros without a tail).
    """
    # x x*, x y*, y x* and y y*, the row-major entries of x x^+, as Python's complex product
    left_re, left_im = re[[0, 0, 1, 1]], im[[0, 0, 1, 1]]
    right_re, right_im = re[[0, 1, 0, 1]], -im[[0, 1, 0, 1]]
    outer_re = left_re * right_re - left_im * right_im
    outer_im = left_re * right_im + left_im * right_re
    w = outer_re[0] + outer_re[3]
    sums = plumb.stein(level)
    tailed = (w > _RESIDUAL_CUTOFF) & (sums is not None)
    if (stuck := ~tailed & (w > _UNIT_ROUNDOFF)).any():
        k = stuck.argmax()
        raise InvalidStateError(
            f"weight {w[k]} still circulates at {t[k]} ns and never decays: "
            "at the final drive level the round trip keeps it all (spectral radius >= 1)")
    tail, tail_ejected = np.zeros((5, len(w))), np.zeros(len(w))
    if not tailed.any():
        return w, tailed, tail, tail_ejected
    (hh, _), (hvr, hvi), (vv, _), (released, _) = _cdot(sums, outer_re, outer_im)
    hh, vv = np.maximum(hh, 0.0), np.maximum(vv, 0.0)
    lost = np.maximum(released - hh - vv, 0.0)
    ej = lost * plumb.exit_ej_share
    absorbed = np.where(tailed, lost - ej + np.maximum(w - released, 0.0), w)
    tail[:4] = np.where(tailed, (hh + quiet[0], vv + quiet[1], hvr + quiet[2], hvi + quiet[3]), 0.0)
    tail[4] = tail[0] + tail[1]
    tail_ejected[:] = np.where(tailed, quiet[4] + ej, 0.0)
    return absorbed, tailed, tail, tail_ejected


class Sweep(Sequence):
    """One input state's outcomes at each n of a simulate_sweeps call, booked as arrays.

    Indexing builds the StorageOutcome of that n.  The exits and ejections
    of the passages the branches share are built once, on the first index,
    and every outcome that lists one holds the same object.
    """

    def __init__(self, cfg: MemoryConfig, booked: tuple, s: int, state: PureState,
                 n_values: tuple[int, ...], marks: list[int]):
        self.input_state, self.n_values = state, n_values
        self._cfg, self._booked, self._s, self._marks, self._read = cfg, booked, s, marks, None

    def __len__(self) -> int:
        return len(self.n_values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = self.n_values[i]
        time, exit_at, exits, ejection_at, ejections, rows, branches = self._read or self._events()
        first, count, p, absorbed, balance, tail, tail_ejected = branches[self._marks[i]]
        exits = exits[:bisect.bisect_right(exit_at, n)]
        ejections = ejections[:bisect.bisect_right(ejection_at, n)]
        retrieved = len(exits)
        for k, (w, hh, vv, hvr, hvi, ej, listed, ej_listed) in enumerate(
                rows[first:first + count], n + 1):
            if ej_listed:
                ejections.append((time(k), ej))
            if listed:
                exits.append(ExitEvent(time(k), w, (hh, complex(hvr, hvi), vv)))
        if tail is not None:
            hh, vv, hvr, hvi, w = tail
            tail = ExitEvent(time(n + 1 + p), w, (hh, complex(hvr, hvi), vv))
        return StorageOutcome(n, self.input_state, tuple(exits), tuple(ejections), absorbed,
                              exits[retrieved], balance, tail, tail_ejected)

    def _events(self):
        """Turn the booked arrays into Python values once: the time of each passage, the
        listed exits and ejections of the shared passages with their passages, per row of
        the book weight, rho, ejected weight and whether the exit and ejection are listed,
        and per mark this state's branch: first row, rows booked, rows in its group,
        absorbed weight, balance, tail entries (None without a tail) and tail ejected."""
        (prefix, book, groups), s, cfg = self._booked, self._s, self._cfg
        t_half = cfg.pass_through_time / 2.0
        t1, dt = cfg.delay_line_compensation + t_half, cfg.delta_tau

        def time(k: int) -> float:  # passage k lets light out; 0 is the entry
            return t1 + (k - 1) * dt + t_half if k else cfg.delay_line_compensation

        exit_at, exits, ejection_at, ejections = [], [], [], []
        for lo, p, at, weight, rho in prefix.exits:
            mine = at // p == s
            for k, w, (hh, vv, hvr, hvi) in zip((lo + at[mine] % p).tolist(), weight[mine].tolist(),
                                                rho[:, mine].T.tolist()):
                exit_at.append(k)
                exits.append(ExitEvent(time(k), w, (hh, complex(hvr, hvi), vv)))
        for lo, p, at, ejected in prefix.ejections:
            mine = at // p == s
            for k, ej in zip((lo + at[mine] % p).tolist(), ejected[mine].tolist()):
                ejection_at.append(k)
                ejections.append((time(k), ej))
        rows = np.vstack((book.weight, book.rho, book.ejected, book.listed,
                          book.ejection_listed)).T.tolist()
        branches = {}
        for i, o, p, count, absorbed, balance, tail in groups:
            n = len(count) // len(prefix.now)
            mine = slice(s * n, (s + 1) * n)
            tails = (zip(tail[0][mine].tolist(), tail[1][:, mine].T.tolist(), tail[2][mine].tolist())
                     if tail is not None else [(False, None, 0.0)] * n)
            for b, (booked_rows, a, bal, (tailed, entries, tail_ej)) in enumerate(zip(
                    count[mine].tolist(), absorbed[mine].tolist(), balance[mine].tolist(), tails),
                    s * n):
                branches[i + b % n] = (o + b * p, booked_rows, p, a, bal,
                                       entries if tailed else None, tail_ej)
        self._read = time, exit_at, exits, ejection_at, ejections, rows, branches
        return self._read


def _sweep_plan(cfg: MemoryConfig, n_values) -> tuple:
    """The setup of a sweep: n_values checked, the index of each in marks (the distinct n,
    sorted), marks, the plumbing, the (release, store) operator pair of each shared passage
    1..max(n), the branch groups (first, level, i, j, *_Plumbing.stack(first, level)): the n
    in marks[i:j] release at one level, from passage 1 when first; and when passage 1 is."""
    n_values = tuple(map(_cycle_count, n_values))
    marks = sorted(set(n_values))
    n_max, t1 = max(marks, default=0), cfg.delay_line_compensation + cfg.pass_through_time / 2.0
    # n >= 2 ramps the cell on between passages 1 and 2 and off between n and n + 1,
    # n = 1 never drives it and n = 0 keeps it on: so the largest n's levels at
    # passages 1 and 2 are all shared levels, and a branch stays at its release level
    schedules = {n: switch_schedule(n, cfg) for n in {0, 1, n_max} & set(marks)}
    level = {n: pockels_level(s, t1 + n * cfg.delta_tau) for n, s in schedules.items()}
    shared = [pockels_level(schedules[n_max], t1 + k * cfg.delta_tau) for k in range(min(n_max, 2))]
    shared += shared[-1:] * (n_max - 2)
    plumb = _plumbing(cfg)
    passages = [(plumb.later_passage if k else plumb.first_passage)[lvl] for k, lvl in enumerate(shared)]
    # the marks of each class (n = 0, n = 1, n >= 2), a class sharing the group of
    # the one before when it releases at the same level
    cuts = (0, bisect.bisect_left(marks, 1), bisect.bisect_left(marks, 2), len(marks))
    groups = []
    for first, n, i, j in zip((True, False, False), (0, 1, n_max), cuts, cuts[1:]):
        if i < j and groups and groups[-1][:2] == [first, level[n]]:
            groups[-1][3] = j
        elif i < j:
            groups.append([first, level[n], i, j])
    groups = [(*group, *plumb.stack(*group[:2])) for group in groups]
    return n_values, [bisect.bisect_left(marks, n) for n in n_values], marks, plumb, passages, groups, t1


def simulate_sweeps(cfg: MemoryConfig, input_states: tuple[PureState, ...],
                    n_values: tuple[int, ...]) -> tuple[Sweep, ...]:
    """Per input state, a Sweep of the outcomes simulate_storage gives for each n in n_values.

    Each state propagates the passages every n shares once, as two complex
    scalars (_Prefix).  From its release passage n + 1 on (n = 0: passage 1)
    each n is a branch, and one numpy pass over _Plumbing.stack gives every
    branch of every state its passage rows.  One _Book books them all as a
    passage-by-passage loop would: the 1e-16 listing cut, the stop once
    nothing above it circulates, the ejected/absorbed split, the exact tail
    of a branch still circulating (_close) and the balance check.  A Sweep
    builds each outcome only when it is indexed.
    """
    n_values, mark_at, marks, plumb, passages, groups, t1 = _sweep_plan(cfg, n_values)
    prefix, n_states = _Prefix(plumb, input_states, passages, marks), len(input_states)
    n_max = len(passages)  # max(marks), or 0
    lo, hi = 0, min(_CHUNK, n_max + 1)
    while hi <= n_max:  # every chunk of shared rows but the last is booked on its own
        block = prefix.propagate(lo, hi)
        prefix.settle(_Book(block, prefix.shares(lo, hi, block.shape[1])), lo, hi)
        lo, hi = hi, min(hi + _CHUNK, n_max + 1)
    parts = [prefix.propagate(lo, hi)]
    amps = np.reshape([np.frombuffer(a) for a in prefix.amps], (n_states, len(marks), 4))
    spans, at = [], parts[0].shape[1]  # per group: its first row, branches and rows each
    for first, lvl, i, j, maps, _ in groups:
        amp = amps[:, i:j].reshape(-1, 4).T  # (Re x, Im x, Re y, Im y) of each branch
        # real products and sums only: numpy's complex multiply may fuse with FMA in
        # its vector loop and not in its remainder, so a branch would depend on its batch
        terms = amp[:, None, :, None] * maps
        v = ((terms[0] + terms[1]) + terms[2]) + terms[3]
        sq = v[4:] ** 2
        w = ((sq[0::4] + sq[1::4]) + sq[2::4]) + sq[3::4]
        b, p = v.shape[1:]
        parts.append(np.concatenate((w, v[:4])).reshape(8, b * p))
        spans.append((at, b, p, amp))
        at += b * p
    rows = np.concatenate(parts, axis=1)
    book = _Book(rows, prefix.shares(lo, hi, at), [slice(o, o + b * p, p) for o, b, p, *_ in spans])
    prefix.settle(book, lo, hi)
    booked = []
    for (first, lvl, i, j, _, residual), (o, b, p, amp) in zip(groups, spans):
        sums = book.sums(o, b, p, prefix.mark_sums[:, i:j].reshape(b, _SUMS))
        w_next = rows[3, o:o + b * p].reshape(b, p)
        quiet = w_next <= _RESIDUAL_CUTOFF  # nothing above the cut circulates on
        stop, each = quiet.argmax(axis=1), np.arange(b)
        count = stop + 1
        closes = (~quiet.any(axis=1)).nonzero()[0]  # still circulating after the rows
        count[closes] = p
        end = sums[each, count]
        absorbed = end[:, _ABSORBED] + w_next[each, stop]
        balance, tail = end[:, _LISTED] + absorbed, None
        if len(closes):
            t = t1 + (np.tile(marks[i:j], n_states)[closes] + p) * cfg.delta_tau
            settled = _close(plumb, lvl, t + cfg.pass_through_time / 2.0,
                             *_cdot(residual, amp[0::2, closes], amp[1::2, closes]).transpose(1, 0, 2),
                             end[closes, _QUIET].T)
            absorbed[closes] = end[closes, _ABSORBED] + settled[0]
            tail = np.zeros(b, dtype=bool), np.zeros((5, b)), np.zeros(b)
            tail[0][closes], tail[1][:, closes], tail[2][closes] = settled[1:]
            balance = ((end[:, _LISTED] + absorbed) + tail[2]) + tail[1][4]
        if balance.max(initial=1.0) - 1.0 > 1e-9 or 1.0 - balance.min(initial=1.0) > 1e-9:
            bad = balance[np.abs(balance - 1.0) > 1e-9][0]
            raise InvalidStateError(f"probability not conserved: accounted {bad}")
        booked.append((i, o, p, count, absorbed, balance, tail))
    return tuple(Sweep(cfg, (prefix, book, booked), s, state, n_values, mark_at)
                 for s, state in enumerate(input_states))


def retrieved_exits(cfg: MemoryConfig, input_states: tuple[PureState, ...],
                    n_values: tuple[int, ...]) -> np.ndarray:
    """(HH, VV, Re HV, Im HV) of each state's retrieved exit at each n, as (4, states, n) floats:
    bitwise simulate_sweeps' retrieved.rho, with its errors, but only the amplitude meeting each
    release passage is propagated (_Prefix's arithmetic), then the stack's release row."""
    n_values, mark_at, marks, plumb, passages, groups, t1 = _sweep_plan(cfg, n_values)
    n_states, (da, db, dc, dd), amps = len(input_states), plumb.delay_op, array("d")
    for state in input_states:
        x, y = _apply(plumb.entry_op, state.alpha, state.beta)
        for k, n in zip([0] + marks, marks):
            for _, (sa, sb, sc, sd) in passages[k:n]:
                stay_x, stay_y = sa * x + sb * y, sc * x + sd * y
                x, y = da * stay_x + db * stay_y, dc * stay_x + dd * stay_y
            amps.extend((x.real, x.imag, y.real, y.imag))
    amps, rho = np.reshape(amps, (n_states, len(marks), 4)), np.empty((4, n_states, len(marks)))
    for first, lvl, i, j, maps, residual in groups:
        amp = amps[:, i:j].reshape(-1, 4).T
        v = amp[:, None, :] * maps[:, :4, :, 0]  # simulate_sweeps' sums, release row only
        rho[:, :, i:j] = _exit_entries(((v[0] + v[1]) + v[2]) + v[3]).reshape(4, n_states, j - i)
        if plumb.stein(lvl) is None:  # only then can _close find weight that never decays
            t = t1 + (np.tile(marks[i:j], n_states) + maps.shape[-1]) * cfg.delta_tau
            _close(plumb, lvl, t + cfg.pass_through_time / 2.0,
                   *_cdot(residual, amp[0::2], amp[1::2]).transpose(1, 0, 2), np.zeros((5, len(t))))
    return rho[:, :, mark_at]


def simulate_sweep(cfg: MemoryConfig, input_state: PureState,
                   n_values: tuple[int, ...]) -> Sweep:
    """Outcomes of one input state at each cycle count in n_values (see simulate_sweeps)."""
    return simulate_sweeps(cfg, (input_state,), n_values)[0]


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
            t_loop *= fiber_transmission(c.length_m, c.atten_db_per_km, round_trip=True)
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
