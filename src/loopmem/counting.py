"""Coincidence-count synthesis for simulated storage runs.

Detection model: a heralded source emits pairs at `pair_rate` per second.
The retrieved photon, in the exit state rho = (HH, HV, VV) whose trace
carries the storage loss, passes a projector psi with `design_row` d and is
detected with efficiency `detection_eff`, at the mean coincidence rate
max(pair_rate * detection_eff * q, 0), q = ((d0 HH + d1 VV) + d2 Re HV) +
d3 Im HV = <psi|rho|psi>; counts are Poisson around rate * acquisition_s.
`run_scans` makes one engine call per config, for all its input states,
which returns only the retrieved exits' entries (`retrieved_exits`: the
release step `simulate_sweep` books, with no leakage booked and no outcome
or exit object built), and computes all its means in one elementwise pass
(`_rates`), so a record's mean is the same float alone or in any batch.

Seeding: record i of a scan with master seed s has the sub-seed
record_seed(s, i) = SeedSequence([s, i]).generate_state(1)[0] and the count
default_rng(sub).poisson(mean), so individual records are reproducible
without replaying the whole scan.  A pipeline run draws all its records in
one batch (`run_scans`, `draw_counts`).  SeedSequence's hash is fixed uint32
arithmetic, so when every master is a one-word int (below 2**32, as the
sub-seeds `record_seeds` returns are), the sub-seeds of a batch are computed
in one vectorized pass; numpy's SeedSequence seeds any other master record
by record.  The PCG64 start states, as uint64 halves, follow in vectorized
passes of 4096 records, each chunk used as soon as it is made.  From
`_TRIAL_MIN` records on, each chunk's generators are stepped twice in arrays
too, and every draw that numpy's Poisson sampler settles on its first trial
(a mean of 0, a mean below 10 whose first uniform is at most exp(-mean), or
a first PTRS candidate accepted at once) is settled there with numpy's own
arithmetic (`_first_trial`).  numpy draws every other record itself
(`_poisson_from`): one generator set to the record's start state in turn.
Below `_BATCH_MIN` records numpy seeds and draws each record.  Either way
each count is exactly default_rng(sub).poisson(mean), and an invalid mean
raises numpy's error.  seed=None disables sampling entirely and stores the
exact Poisson means as floats (noiseless mode, used for calibration against
closed-form efficiencies).

A `ScanDataset` is its columns, one tuple each of setting labels, setting
values, counts, cycle counts and sub-seeds, which `run_scans`,
`synth_malus_dataset` and `read_csv` fill and the pipelines, `counts()`,
`values()`, `write_csv`, the fits and the tomography read.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .engine import MemoryConfig, retrieved_exits
from .engine import simulate_storage  # noqa: F401  bench/tracer.py requires this binding
from .errors import SchemaError
from .polarization import D, H, PureState, R, V, design_row, make_pure

DEFAULT_PROJECTORS: tuple[tuple[str, PureState], ...] = (
    ("H", H),
    ("V", V),
    ("D", D),
    ("R", R),
)

_CSV_COLUMNS = ("setting_label", "setting_value", "counts", "acquisition_s", "n_cycles", "seed")
_CSV_CELLS = (str, float, lambda cell: float(checked_counts(float(cell), 0)), float, int,
              lambda cell: None if cell == "" else int(cell))


@dataclass(frozen=True)
class ScanDataset:
    """One scan's detector readings, held as columns of equal length.

    Record i is one reading at one analyzer setting: (setting_labels[i],
    setting_values[i], record_counts[i], acquisition_s, n_cycles[i],
    sub_seeds[i]), the row `write_csv` writes; every record shares the
    dataset's acquisition time.  Datasets compare equal when their columns
    and metadata do.
    """

    setting_labels: tuple[str, ...]
    setting_values: tuple[float, ...]
    record_counts: tuple[float, ...]  # integer-valued when sampled; exact means in noiseless mode
    n_cycles: tuple[int, ...]
    sub_seeds: tuple[int | None, ...]
    pair_rate: float
    detection_eff: float
    acquisition_s: float
    seed: int | None
    kind: str

    def __post_init__(self):
        if not (len(self.setting_labels) == len(self.setting_values) == len(self.record_counts)
                == len(self.n_cycles) == len(self.sub_seeds)):
            raise ValueError("a dataset's columns must have equal length")

    def counts(self) -> np.ndarray:
        return np.array(self.record_counts, dtype=float)

    def values(self) -> np.ndarray:
        return np.array(self.setting_values, dtype=float)


@dataclass(frozen=True)
class MalusScan:
    """Rotate a linear analyzer through `angles` (radians) at fixed cycle count."""

    angles: tuple[float, ...]
    n_cycles: int = 1


@dataclass(frozen=True)
class TomographyScan:
    """Measure DEFAULT_PROJECTORS, the set MeasurementSet() reads, at one cycle count."""

    n_cycles: int = 1


@dataclass(frozen=True)
class DecayScan:
    """Sweep the cycle count, analyzing along the input state itself."""

    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN fail later, as a float's would
def _rates(rho: np.ndarray, rows: np.ndarray, pair_rate: float, detection_eff: float):
    """Clipped mean rate (1/s) of each column: an exit's (HH, VV, Re HV, Im HV) and a design row."""
    if pair_rate < 0:
        raise ValueError("pair_rate must be nonnegative")
    if not 0.0 <= detection_eff <= 1.0:
        raise ValueError("detection_eff must lie in [0, 1]")
    q = rows[0] * rho[0] + rows[1] * rho[1]
    q += rows[2] * rho[2]
    q += rows[3] * rho[3]
    # a projection orthogonal to the state can round to a tiny negative number
    return np.maximum(pair_rate * detection_eff * q, 0.0)


def checked_counts(counts, ndim: int, width: int | None = None) -> np.ndarray:
    """The one count check: floats of `ndim` axes (rows of `width`), each finite and >= 0."""
    k = np.asarray(counts, dtype=float)
    if k.ndim != ndim or width is not None and k.shape[-1] != width:
        raise ValueError(f"need {ndim}-D counts in rows of {width or 'any length'}, got {k.shape}")
    if not (np.isfinite(k) & (k >= 0)).all():
        raise ValueError("counts must be finite and nonnegative")
    return k


@np.errstate(over="ignore")  # an overflow fails the finiteness check
def _poisson_means(rates, acquisition_s: float) -> np.ndarray:
    """rates * acquisition_s, checked to be valid Poisson means."""
    if not acquisition_s >= 0:
        raise ValueError("acquisition_s must be nonnegative")
    return checked_counts(checked_counts(rates, 1) * acquisition_s, 1)


def record_seed(master: int | None, index: int) -> int | None:
    """Per-record sub-seed; independent of how many records precede it."""
    if master is None:
        return None
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


# SeedSequence's hash (O'Neill's seed_seq, as numpy.random adopted it in
# NEP 19) on uint32 columns, one column per record.  The constants it applies
# do not depend on the data, so each step is one numpy op over a whole batch.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of n successive hash steps, as (n, 1) uint32 columns."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


# the entropy mix of at most _POOL words (4 steps to fill the pool, 12 to cross
# it) and the output steps of at most 8 words
_MIXING_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_OUTPUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)

# row s is mixed into every other row with steps 4 + 3s, 4 + 3s + 1, ...; its
# pass updates the whole pool, with a placeholder step at row s, which is then
# restored
_CROSS = [tuple(steps[[4 + 3 * s + d - (d > s) if d != s else 4 for d in range(_POOL)]]
                for steps in _MIXING_STEPS)
          for s in range(_POOL)]


def _mix_into(pool: np.ndarray, value: np.ndarray, xors: np.ndarray,
              mults: np.ndarray) -> None:
    """pool[d] = mix(pool[d], hashmix(value)) for every row d, in place."""
    h = value ^ xors
    h *= mults
    h ^= h >> _SHIFT
    h *= _MIX_R
    pool *= _MIX_L
    pool -= h
    pool ^= pool >> _SHIFT


def _seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(words).generate_state(n_words), n_words <= 8, for each column of `entropy`.

    `entropy` is a (words, m) uint32 array of at most _POOL one-word ints per
    column: (master, i) for a record's sub-seed, or a sub-seed alone for its
    generator.  Returns an (n_words, m) uint32 array.
    """
    xors, mults = _MIXING_STEPS
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[:entropy.shape[0]] = entropy
    pool ^= xors[:_POOL]
    pool *= mults[:_POOL]
    pool ^= pool >> _SHIFT
    for s, (x, m) in enumerate(_CROSS):
        keep = pool[s].copy()
        _mix_into(pool, keep, x, m)
        pool[s] = keep
    out = pool[np.arange(n_words) % _POOL]
    out ^= _OUTPUT_STEPS[0][:n_words]
    out *= _OUTPUT_STEPS[1][:n_words]
    out ^= out >> _SHIFT
    return out


def _record_seeds(masters: Sequence[int], sizes: Sequence[int]) -> np.ndarray:
    """record_seed(master, i) for i < size, per (master, size), concatenated, as uint32.

    From _BATCH_MIN records in all, when every master is a one-word int
    (0 <= master <= 2**32 - 1), one hash pass over the (master, i) pairs;
    otherwise numpy's SeedSequence per record, which also raises numpy's
    errors for a master it refuses.
    """
    if sum(sizes) < _BATCH_MIN or not all(
            isinstance(master, int) and 0 <= master <= _MASK32 for master in masters):
        return np.array([record_seed(master, i) for master, size in zip(masters, sizes)
                         for i in range(size)], np.uint32)
    sizes = np.array(sizes, np.int64)
    entropy = np.empty((2, int(sizes.sum())), np.uint32)
    entropy[0] = np.array(masters, np.uint32).repeat(sizes)
    entropy[1] = np.arange(entropy.shape[1]) - (sizes.cumsum() - sizes).repeat(sizes)
    return _seed_sequence_state(entropy, 1)[0]


# PCG64 (O'Neill, HMC-CS-2014-0905; numpy's default bit generator) on uint64
# columns: a 128-bit state is two uint64 rows, high half first.  Array
# arithmetic wraps modulo 2**64, and np.uint64 constants keep every operand
# uint64 under the promotion rules of numpy 1 and of NEP 50 alike.
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LOW32, _MULT_LO >> _U32


def _pcg64_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """state * _PCG64_MULT + inc mod 2**128 on (hi, lo) rows; the low product's carry in 32-bit limbs."""
    hi, lo = state
    x0, x1 = lo & _LOW32, lo >> _U32
    mid = x1 * _MULT_LO0 + (x0 * _MULT_LO0 >> _U32)
    carry = x0 * _MULT_LO1 + (mid & _LOW32)
    out = state * _MULT_LO
    out[0] += x1 * _MULT_LO1 + (mid >> _U32) + (carry >> _U32) + lo * _MULT_HI
    out += inc
    out[0] += out[1] < inc[1]
    return out


def _pcg64_double(state: np.ndarray) -> np.ndarray:
    """The double numpy draws from a PCG64 state just stepped: XSL-RR output >> 11, times 2**-53."""
    hi, lo = state
    x, r = hi ^ lo, hi >> _U58
    x = x >> r | x << ((_U64 - r) & _U63)
    return (x >> _U11).astype(np.float64) * 2.0**-53


# sub-seeds hashed per pass in _pcg64_starts: bounds the arrays held at once
_STATE_CHUNK = 4096


def _pcg64_starts(subs: Sequence[int] | np.ndarray) -> Iterator[np.ndarray]:
    """default_rng(sub)'s PCG64 start state for each uint32 sub-seed, one chunk at a time.

    Each chunk is a (4, m) uint64 array of rows state_hi, state_lo, inc_hi and
    inc_lo for _STATE_CHUNK sub-seeds, the last chunk for the rest.
    """
    subs = np.asarray(subs, np.uint32)
    for at in range(0, len(subs), _STATE_CHUNK):
        w = _seed_sequence_state(subs[None, at:at + _STATE_CHUNK], 8).astype(np.uint64)
        # PCG64 seeds from four uint64 words (low uint32 first), the state and
        # then the stream, which it shifts into an odd increment; its two seeding
        # steps from state 0 leave (state + inc) * _PCG64_MULT + inc
        seed = w[0::2] | w[1::2] << _U32
        inc = seed[2:] << _U1
        inc[0] |= seed[3] >> _U63
        inc[1] |= _U1
        state = seed[:2] + inc
        state[0] += state[1] < inc[1]
        yield np.concatenate([_pcg64_step(state, inc), inc])


def _poisson_from(rng: np.random.Generator, start: Sequence[int], mean: float) -> float:
    """rng.poisson(mean) as a float, with rng set to the PCG64 start state (s_hi, s_lo, i_hi, i_lo)."""
    s_hi, s_lo, i_hi, i_lo = start
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
    return float(rng.poisson(mean))


@np.errstate(divide="ignore", invalid="ignore")  # for the means and uniforms never settled
def _first_trial(starts: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The counts that numpy's Poisson draw settles on its first trial; NaN for the rest.

    numpy's random_poisson returns 0 for a mean of 0.  For a mean below 10 it
    multiplies uniforms until their product falls to exp(-mean), so the count
    is 0 when the first uniform is at most exp(-mean), as it always is for 0.
    From 10 on it runs Hoermann's PTRS (Insurance Math. Econ. 12, 39 (1993)),
    whose first trial takes two uniforms and accepts k at once when
    us >= 0.07 and V <= vr.  That arithmetic is repeated here in the same
    order, with +, -, *, /, sqrt and floor, which IEEE 754 rounds exactly,
    and with libm's exp through math.exp, as numpy calls it.  Means of 1e12
    and up, and invalid ones, are left to numpy.
    """
    inc = starts[2:]
    state = _pcg64_step(starts[:2], inc)
    u = _pcg64_double(state)
    v = _pcg64_double(_pcg64_step(state, inc))
    b = 0.931 + 2.53 * np.sqrt(means)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2)
    centred = u - 0.5
    us = 0.5 - np.abs(centred)
    k = np.floor((2 * a / us + b) * centred + means + 0.43)
    counts = np.where((us >= 0.07) & (v <= vr) & (means >= 10) & (means < 1e12), k, np.nan)
    small = ((means >= 0) & (means < 10)).nonzero()[0]
    exp_neg = np.array([math.exp(-mu) for mu in means[small].tolist()])
    counts[small[u[small] <= exp_neg]] = 0.0
    return counts


# Below this many seeded records numpy's own per-record seeding is cheaper than
# the fixed cost of the two hash passes (about 8 records when measured between
# pipeline runs, as the benchmark's ops call it; about 5 in a tight loop).
_BATCH_MIN = 8
# From this many seeded records on, the first trial of every draw is taken in
# arrays (_first_trial) before numpy draws the rest one by one.  On the
# pipelines' own batches the two break even at about 40 records: the array
# pass costs 55-65 us more for 8 records and saves about 50 us for 64.
_TRIAL_MIN = 64


def record_seeds(master: int, n: int) -> list[int]:
    """record_seed(master, i) for i < n; one hash pass from _BATCH_MIN seeds on."""
    return _record_seeds([master], [n]).tolist()


def draw_counts(jobs: Sequence[tuple[int | None, Sequence[float]]]
                ) -> list[tuple[list[float], list[int | None]]]:
    """(counts, sub-seeds) for each (master seed, Poisson means) job, drawn in one batch.

    Record i of a job with master seed s gets the sub-seed record_seed(s, i)
    and the count default_rng(sub).poisson(mean); a job with seed None keeps
    its exact means.
    """
    out: list[tuple[list[float], list[int | None]]] = [
        (list(means), [None] * len(means)) for _, means in jobs]
    seeded = [j for j, (seed, _) in enumerate(jobs) if seed is not None]
    subs = _record_seeds([jobs[j][0] for j in seeded], [len(jobs[j][1]) for j in seeded])
    means = [mu for j in seeded for mu in out[j][0]]
    total, drawn = len(means), []
    if total < _BATCH_MIN:  # below the size _record_seeds hashes from, numpy seeds too
        drawn = [float(np.random.default_rng(s).poisson(mu)) for s, mu in zip(subs.tolist(), means)]
    else:
        rng = np.random.default_rng(0)  # set to each record's start state in turn
        for at, starts in zip(range(0, total, _STATE_CHUNK), _pcg64_starts(subs)):
            chunk = means[at:at + _STATE_CHUNK]
            counts = (_first_trial(starts, np.array(chunk, dtype=float)) if total >= _TRIAL_MIN
                      else np.full(len(chunk), np.nan))
            rest = np.isnan(counts).nonzero()[0]
            for i, start in zip(rest.tolist(), starts[:, rest].T.tolist()):
                counts[i] = _poisson_from(rng, start, chunk[i])
            drawn += counts.tolist()
    subs = subs.tolist()
    at = 0
    for j in seeded:
        end = at + len(out[j][0])
        out[j] = (drawn[at:end], subs[at:end])
        at = end
    return out


ScanJob = tuple[PureState, MalusScan | TomographyScan | DecayScan, int | None]


def run_scans(cfg: MemoryConfig, jobs: Sequence[ScanJob], *, pair_rate: float = 2000.0,
              detection_eff: float = 1.0, acquisition_s: float = 60.0) -> list[ScanDataset]:
    """Simulate and sample each (input_state, plan, seed) job; one dataset per job.

    One engine call (`retrieved_exits`) propagates every input state once
    through every cycle count the jobs need and returns only the retrieved
    exits' entries, the floats of simulate_sweep's retrieved.rho; every
    count is drawn in one batch (`draw_counts`).  A job's dataset is the one
    it gives alone.
    """
    inputs: dict[PureState, int] = {}  # input state -> its number
    exits: list[tuple[int, int]] = []  # per record: (input number, n) of its exit
    projectors: dict[PureState | float, int] = {}  # projector or analyzer angle -> column
    layouts = []  # per job: (kind, labels, setting values, cycle counts), a column each
    at_row = []  # per record: the column of its projector
    for state, plan, _ in jobs:
        if isinstance(plan, MalusScan):
            at_row += [projectors.setdefault(theta, len(projectors)) for theta in plan.angles]
            size = len(plan.angles)
            layout = ("malus", ("analyzer_angle_rad",) * size, tuple(map(float, plan.angles)),
                      (plan.n_cycles,) * size)
        elif isinstance(plan, TomographyScan):
            at_row += [projectors.setdefault(p, len(projectors)) for _, p in DEFAULT_PROJECTORS]
            size = len(DEFAULT_PROJECTORS)
            layout = ("tomography", tuple(name for name, _ in DEFAULT_PROJECTORS),
                      tuple(map(float, range(size))), (plan.n_cycles,) * size)
        elif isinstance(plan, DecayScan):
            at_row += [projectors.setdefault(state, len(projectors))] * len(plan.n_values)
            layout = ("decay", ("n_cycles",) * len(plan.n_values),
                      tuple(map(float, plan.n_values)), tuple(plan.n_values))
        else:
            raise TypeError(f"unknown scan plan {type(plan).__name__}")
        layouts.append(layout)
        s = inputs.setdefault(state, len(inputs))
        exits += [(s, n) for n in layout[3]]

    column = {n: i for i, n in enumerate(dict.fromkeys(n for _, n in exits))}
    rho = retrieved_exits(cfg, tuple(inputs), tuple(column)).reshape(4, -1)
    at_exit = [s * len(column) + column[n] for s, n in exits]
    rows = np.array([design_row(p) if isinstance(p, PureState)
                     else design_row(make_pure(math.cos(p), math.sin(p)))
                     for p in projectors]).reshape(-1, 4).T
    means = _poisson_means(_rates(rho[:, at_exit], rows[:, at_row], pair_rate, detection_eff),
                           acquisition_s)
    del exits, at_exit, at_row  # before the counts are drawn, where memory peaks
    ends = np.cumsum([len(ns) for *_, ns in layouts]).tolist()
    drawn = draw_counts([(seed, means[end - len(ns):end].tolist())
                         for (_, _, seed), (*_, ns), end in zip(jobs, layouts, ends)])
    return [ScanDataset(labels, values, tuple(counts), ns, tuple(subs), pair_rate, detection_eff,
                        acquisition_s, seed, kind)
            for (_, _, seed), (kind, labels, values, ns), (counts, subs)
            in zip(jobs, layouts, drawn)]


def run_scan(cfg: MemoryConfig, input_state: PureState,
             scan: MalusScan | TomographyScan | DecayScan, *,
             seed: int | None = None, **source) -> ScanDataset:
    """Simulate storage and synthesize one dataset for the given scan plan.

    The source keywords (pair_rate, detection_eff, acquisition_s) and their
    defaults are run_scans'.
    """
    return run_scans(cfg, [(input_state, scan, seed)], **source)[0]


def malus_mean(theta: float, amplitude: float, visibility: float = 1.0,
               theta0: float = 0.0) -> float:
    """Analyzer-rotation fringe model: A/2 * (1 + V cos 2(theta - theta0))."""
    return 0.5 * amplitude * (1.0 + visibility * math.cos(2.0 * (theta - theta0)))


def synth_malus_dataset(angles: tuple[float, ...] | list[float], amplitude: float,
                        visibility: float, theta0: float = 0.0, *,
                        acquisition_s: float = 1.0, seed: int | None = None) -> ScanDataset:
    """Sample counts straight from the fringe model, bypassing the simulator.

    Used to exercise the fit on fringes of prescribed visibility.  `amplitude`
    is the peak-to-trough sum in counts per second.
    """
    means = _poisson_means([malus_mean(theta, amplitude, visibility, theta0) for theta in angles],
                           acquisition_s)
    [(counts, subs)] = draw_counts([(seed, means.tolist())])
    return ScanDataset(("analyzer_angle_rad",) * len(angles), tuple(map(float, angles)),
                       tuple(counts), (1,) * len(angles), tuple(subs), amplitude, 1.0,
                       acquisition_s, seed, "malus")


def write_table(fh, comment: str, columns, rows) -> None:
    """Write CSV into an open text file: a '# ' comment line, a header, then rows.

    The csv module writes floats with repr, so they read back exactly, and None
    as an empty cell; cells holding commas or quotes are quoted.  `rows` may be
    any iterable, and is written as it is consumed.
    """
    fh.write(f"# {comment}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _meta_line(ds: ScanDataset) -> str:
    seed = "none" if ds.seed is None else str(ds.seed)
    return (f"kind={ds.kind} pair_rate={ds.pair_rate!r} detection_eff={ds.detection_eff!r}"
            f" acquisition_s={ds.acquisition_s!r} seed={seed}")


def write_csv(ds: ScanDataset, path: str | os.PathLike) -> None:
    """Flat record table with a single leading metadata comment line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, _meta_line(ds), _CSV_COLUMNS,
                    zip(ds.setting_labels, ds.setting_values, ds.record_counts,
                        itertools.repeat(ds.acquisition_s), ds.n_cycles, ds.sub_seeds))


def read_csv(path: str | os.PathLike) -> ScanDataset:
    """The dataset `write_csv` wrote; a SchemaError for a file not in its format."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return _read_dataset(fh)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc}", field="(file)") from exc


def _read_dataset(fh) -> ScanDataset:
    first = fh.readline()
    if not first.startswith("# "):
        raise SchemaError("missing metadata comment line", field="header")
    meta: dict[str, str] = {}
    for tok in first[2:].split():
        key, _, val = tok.partition("=")
        meta[key] = val
    try:
        kind = meta["kind"]
        pair_rate = float(meta["pair_rate"])
        detection_eff = float(meta["detection_eff"])
        acquisition_s = float(meta["acquisition_s"])
        seed = None if meta["seed"] == "none" else int(meta["seed"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad metadata line: {exc}", field="header") from exc
    reader = csv.reader(fh)
    header = next(reader, [])
    if tuple(header) != _CSV_COLUMNS:
        raise SchemaError(f"unexpected columns {header}", field="header")
    columns = [], [], [], [], [], []
    for row in reader:
        if len(row) > len(_CSV_COLUMNS):
            raise SchemaError(f"record {row} has cells past the seed column", field="(record)")
        for i, (name, parse, column) in enumerate(zip(_CSV_COLUMNS, _CSV_CELLS, columns)):
            try:
                column.append(parse(row[i]))
            except (IndexError, ValueError):
                raise SchemaError(f"bad {name} cell in record {row}", field=name) from None
        if columns[3][-1] != acquisition_s:
            raise SchemaError(f"record acquisition_s {row[3]} differs from the metadata's",
                              field="acquisition_s")
    labels, values, counts, _, n_cycles, subs = map(tuple, columns)
    return ScanDataset(labels, values, counts, n_cycles, subs,
                       pair_rate, detection_eff, acquisition_s, seed, kind)
