"""Coincidence-count synthesis for simulated storage runs.

Detection model: a heralded source emits pairs at `pair_rate` per second.
The retrieved signal photon is analyzed by a projector and detected with
efficiency `detection_eff`, so the mean coincidence rate behind a projector
P is  pair_rate * detection_eff * tr(rho_retrieved P)  where rho_retrieved
carries the storage loss in its trace.  Counts over an acquisition window
are Poisson distributed around rate * acquisition_s.

Seeding: record i of a scan with master seed s has the sub-seed
record_seed(s, i) = SeedSequence([s, i]).generate_state(1)[0] and the count
default_rng(sub).poisson(mean), so individual records are reproducible
without replaying the whole scan.  A pipeline run draws all its records in
one batch (`run_scans`, `draw_counts`): SeedSequence's hash is fixed uint32
arithmetic, so the sub-seeds and the PCG64 start states of every record are
computed in one vectorized pass, and one generator set to each record's
state in turn draws exactly those counts.  seed=None disables sampling
entirely and stores the exact Poisson means as floats (noiseless mode, used
for calibration against closed-form efficiencies).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field

import numpy as np

from .engine import MemoryConfig, StorageOutcome, simulate_sweep
from .engine import simulate_storage  # noqa: F401  bench/tracer.py requires this binding
from .errors import SchemaError
from .polarization import D, H, PureState, R, V, make_pure

DEFAULT_PROJECTORS: tuple[tuple[str, PureState], ...] = (
    ("H", H),
    ("V", V),
    ("D", D),
    ("R", R),
)

_CSV_COLUMNS = ("setting_label", "setting_value", "counts", "acquisition_s", "n_cycles", "seed")


@dataclass(frozen=True)
class CountRecord:
    """One detector reading at one analyzer setting."""

    setting_label: str
    setting_value: float
    counts: float  # integer-valued when sampled; exact mean in noiseless mode
    acquisition_s: float
    n_cycles: int
    seed: int | None


@dataclass(frozen=True)
class ScanDataset:
    records: tuple[CountRecord, ...]
    pair_rate: float
    detection_eff: float
    acquisition_s: float
    seed: int | None
    kind: str

    def counts(self) -> np.ndarray:
        return np.array([r.counts for r in self.records], dtype=float)

    def values(self) -> np.ndarray:
        return np.array([r.setting_value for r in self.records], dtype=float)


@dataclass(frozen=True)
class MalusScan:
    """Rotate a linear analyzer through `angles` (radians) at fixed cycle count."""

    angles: tuple[float, ...]
    n_cycles: int = 1


@dataclass(frozen=True)
class TomographyScan:
    """Measure a fixed projector set at one cycle count."""

    n_cycles: int = 1
    projectors: tuple[tuple[str, PureState], ...] = DEFAULT_PROJECTORS


@dataclass(frozen=True)
class DecayScan:
    """Sweep the cycle count, analyzing along the input state itself."""

    n_values: tuple[int, ...] = field(default=(1, 2, 3, 4, 5, 6, 7, 8))


def expected_rate(outcome: StorageOutcome, projector: PureState,
                  pair_rate: float, detection_eff: float) -> float:
    """Mean coincidence rate (1/s) behind `projector` for one storage outcome."""
    if pair_rate < 0:
        raise ValueError("pair_rate must be nonnegative")
    if not 0.0 <= detection_eff <= 1.0:
        raise ValueError("detection_eff must lie in [0, 1]")
    # a projection orthogonal to the state can round to a tiny negative number
    return max(pair_rate * detection_eff * outcome.retrieved.state.project(projector), 0.0)


def _poisson_mean(rate: float, acquisition_s: float) -> float:
    """rate * acquisition_s, checked to be a valid Poisson mean."""
    if rate < 0 or acquisition_s < 0:
        raise ValueError("rate and acquisition_s must be nonnegative")
    mu = rate * acquisition_s
    if not math.isfinite(mu):
        raise ValueError("count mean is not finite")
    return mu


def sample_counts(rate: float, acquisition_s: float, seed: int | None) -> float:
    """Poisson draw around rate * acquisition_s; the exact mean when seed is None."""
    mu = _poisson_mean(rate, acquisition_s)
    if seed is None:
        return mu
    return float(np.random.default_rng(seed).poisson(mu))


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
_MASK128 = (1 << 128) - 1


@functools.lru_cache(maxsize=None)
def _hash_steps(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of n successive hash steps, as (n, 1) uint32 columns."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _mixing_steps(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Steps of the entropy mix: 4 to fill the pool, 12 to cross it, 4 per extra word."""
    return _hash_steps(0x43B0D7E5, 0x931E8875, _POOL * max(n_words, _POOL))


# row s is mixed into every other row with steps 4 + 3s, 4 + 3s + 1, ...; its
# pass updates the whole pool, with a placeholder step at row s, which is then
# restored
_CROSS = [tuple(steps[[4 + 3 * s + d - (d > s) if d != s else 4 for d in range(_POOL)]]
                for steps in _mixing_steps(1))
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
    """SeedSequence(words).generate_state(n_words) for each column of `entropy`.

    `entropy` is a (words, m) uint32 array: column j holds the words that
    SeedSequence assembles from seed j.  Returns an (n_words, m) uint32 array.
    """
    n_in = entropy.shape[0]
    xors, mults = _mixing_steps(n_in)
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[:n_in] = entropy[:_POOL]
    pool ^= xors[:_POOL]
    pool *= mults[:_POOL]
    pool ^= pool >> _SHIFT
    for s, (x, m) in enumerate(_CROSS):
        keep = pool[s].copy()
        _mix_into(pool, keep, x, m)
        pool[s] = keep
    for i in range(_POOL, n_in):
        _mix_into(pool, entropy[i], xors[_POOL * i:_POOL * (i + 1)],
                  mults[_POOL * i:_POOL * (i + 1)])
    out = pool[np.arange(n_words) % _POOL]
    xors, mults = _hash_steps(0x8B51F9DD, 0x58F38DED, n_words)
    out ^= xors
    out *= mults
    out ^= out >> _SHIFT
    return out


def _seed_words(seed: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads an integer seed as."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _record_seeds(masters: Sequence[int], sizes: Sequence[int]) -> list[int]:
    """record_seed(master, i) for i < size, per (master, size), concatenated.

    One hash pass per word count of the master seeds.
    """
    groups: dict[int, tuple[list[list[int]], list[int]]] = {}  # words -> (entropy, positions)
    at = 0
    for master, n in zip(masters, sizes):
        words = _seed_words(master)
        entropy, positions = groups.setdefault(len(words), ([[] for _ in words] + [[]], []))
        for row, w in zip(entropy, words):
            row += [w] * n
        entropy[-1] += range(n)
        positions += range(at, at + n)
        at += n
    subs = [0] * at
    for entropy, positions in groups.values():
        hashed = _seed_sequence_state(np.array(entropy, np.uint32), 1)[0]
        for i, sub in zip(positions, hashed.tolist()):
            subs[i] = sub
    return subs


def _pcg64_states(subs: Sequence[int]) -> list[tuple[int, int]]:
    """(state, inc) of default_rng(sub).bit_generator for each uint32 sub-seed."""
    w = _seed_sequence_state(np.array([subs], np.uint32), 8).astype(np.uint64)
    states = []
    # PCG64 seeds from four uint64 words (low uint32 first), then takes two steps
    for s_hi, s_lo, i_hi, i_lo in (w[0::2] | w[1::2] << np.uint64(32)).T.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


# Below this many seeded records numpy's own per-record seeding is cheaper than
# the fixed cost of the two hash passes (about 8 records when measured between
# pipeline runs, as the benchmark's ops call it; about 5 in a tight loop).
_BATCH_MIN = 8


def draw_counts(jobs: Sequence[tuple[int | None, Sequence[float]]]
                ) -> list[tuple[list[float], list[int | None]]]:
    """(counts, sub-seeds) for each (master seed, Poisson means) job, drawn in one batch.

    Record i of a job with master seed s gets the sub-seed record_seed(s, i)
    and the count default_rng(sub).poisson(mean), as sample_counts draws it;
    a job with seed None keeps its exact means.
    """
    out: list[tuple[list[float], list[int | None]]] = [
        (list(means), [None] * len(means)) for _, means in jobs]
    seeded = [j for j, (seed, _) in enumerate(jobs) if seed is not None]
    if sum(len(jobs[j][1]) for j in seeded) < _BATCH_MIN:
        for j in seeded:
            counts, seeds = out[j]
            for i, mu in enumerate(counts):
                seeds[i] = record_seed(jobs[j][0], i)
                counts[i] = float(np.random.default_rng(seeds[i]).poisson(mu))
        return out
    subs = _record_seeds([jobs[j][0] for j in seeded], [len(jobs[j][1]) for j in seeded])
    records = zip(subs, _pcg64_states(subs))
    rng = np.random.default_rng(0)  # set to each record's state in turn
    bit_generator = rng.bit_generator
    setting = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for j in seeded:
        counts, seeds = out[j]
        for i, mu in enumerate(counts):
            seeds[i], (state, inc) = next(records)
            setting["state"] = {"state": state, "inc": inc}
            bit_generator.state = setting
            counts[i] = float(rng.poisson(mu))
    return out


ScanJob = tuple[PureState, MalusScan | TomographyScan | DecayScan, int | None]


def run_scans(cfg: MemoryConfig, jobs: Sequence[ScanJob], *, pair_rate: float = 2000.0,
              detection_eff: float = 1.0, acquisition_s: float = 60.0) -> list[ScanDataset]:
    """Simulate and sample each (input_state, plan, seed) job; one dataset per job.

    Each input state is propagated once, by one simulate_sweep over every
    cycle count its jobs need, and every count is drawn in one batch
    (`draw_counts`).  A job's dataset is the one it gives alone.
    """
    analyzers: dict[float, PureState] = {}
    plans = []  # per job: (kind, [(label, value, n, projector)])
    needed: dict[PureState, dict[int, None]] = {}  # input state -> its cycle counts
    for state, plan, _ in jobs:
        if isinstance(plan, MalusScan):
            settings = []
            for theta in plan.angles:
                if theta not in analyzers:
                    analyzers[theta] = make_pure(math.cos(theta), math.sin(theta))
                settings.append(("analyzer_angle_rad", float(theta), plan.n_cycles,
                                 analyzers[theta]))
            kind, n_values = "malus", (plan.n_cycles,)
        elif isinstance(plan, TomographyScan):
            settings = [(name, float(i), plan.n_cycles, projector)
                        for i, (name, projector) in enumerate(plan.projectors)]
            kind, n_values = "tomography", (plan.n_cycles,)
        elif isinstance(plan, DecayScan):
            settings = [("n_cycles", float(n), n, state) for n in plan.n_values]
            kind, n_values = "decay", plan.n_values
        else:
            raise TypeError(f"unknown scan plan {type(plan).__name__}")
        plans.append((kind, settings))
        needed.setdefault(state, {}).update(dict.fromkeys(n_values))

    outcomes = {state: dict(zip(n_values, simulate_sweep(cfg, state, tuple(n_values))))
                for state, n_values in needed.items()}
    means = []
    for (state, _, _), (_, settings) in zip(jobs, plans):
        by_n = outcomes[state]
        means.append([_poisson_mean(expected_rate(by_n[n], projector, pair_rate, detection_eff),
                                    acquisition_s) for _, _, n, projector in settings])
    datasets = []
    drawn = draw_counts([(seed, m) for (_, _, seed), m in zip(jobs, means)])
    for (_, _, seed), (kind, settings), (counts, subs) in zip(jobs, plans, drawn):
        records = [CountRecord(label, value, k, acquisition_s, n, sub)
                   for (label, value, n, _), k, sub in zip(settings, counts, subs)]
        datasets.append(ScanDataset(tuple(records), pair_rate, detection_eff, acquisition_s,
                                    seed, kind))
    return datasets


def run_scan(cfg: MemoryConfig, input_state: PureState,
             scan: MalusScan | TomographyScan | DecayScan, *,
             pair_rate: float = 2000.0, detection_eff: float = 1.0,
             acquisition_s: float = 60.0, seed: int | None = None) -> ScanDataset:
    """Simulate storage and synthesize one dataset for the given scan plan."""
    return run_scans(cfg, [(input_state, scan, seed)], pair_rate=pair_rate,
                     detection_eff=detection_eff, acquisition_s=acquisition_s)[0]


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
    means = [_poisson_mean(malus_mean(theta, amplitude, visibility, theta0), acquisition_s)
             for theta in angles]
    [(counts, subs)] = draw_counts([(seed, means)])
    records = tuple(CountRecord("analyzer_angle_rad", float(theta), k, acquisition_s, 1, sub)
                    for theta, k, sub in zip(angles, counts, subs))
    return ScanDataset(records, amplitude, 1.0, acquisition_s, seed, "malus")


def format_table(comment: str, columns, rows) -> str:
    """CSV text: a '# ' comment line, a header, then rows.

    Floats are written with repr so they read back exactly, None as an empty
    cell; cells holding commas or quotes are quoted.
    """
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else "" if v is None else v
                         for v in row])
    return buf.getvalue()


def _meta_line(ds: ScanDataset) -> str:
    seed = "none" if ds.seed is None else str(ds.seed)
    return (f"kind={ds.kind} pair_rate={ds.pair_rate!r} detection_eff={ds.detection_eff!r}"
            f" acquisition_s={ds.acquisition_s!r} seed={seed}")


def write_csv(ds: ScanDataset, path: str | os.PathLike) -> None:
    """Flat record table with a single leading metadata comment line."""
    with open(path, "w", newline="") as fh:
        fh.write(format_table(_meta_line(ds), _CSV_COLUMNS, map(astuple, ds.records)))


def read_csv(path: str | os.PathLike) -> ScanDataset:
    with open(path, newline="") as fh:
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
        header = next(reader)
        if tuple(header) != _CSV_COLUMNS:
            raise SchemaError(f"unexpected columns {header}", field="header")
        records = []
        for row in reader:
            records.append(CountRecord(
                row[0], float(row[1]), float(row[2]), float(row[3]), int(row[4]),
                None if row[5] == "" else int(row[5])))
    return ScanDataset(tuple(records), pair_rate, detection_eff, acquisition_s, seed, kind)
