"""Coincidence-count synthesis for simulated storage runs.

Detection model: a heralded source emits pairs at `pair_rate` per second.
The retrieved signal photon is analyzed by a projector and detected with
efficiency `detection_eff`, so the mean coincidence rate behind a projector
P is  pair_rate * detection_eff * tr(rho_retrieved P)  where rho_retrieved
carries the storage loss in its trace.  Counts over an acquisition window
are Poisson distributed around rate * acquisition_s.

Seeding: a scan with master seed s draws record i from the generator seeded
with SeedSequence([s, i]), so individual records are reproducible without
replaying the whole scan.  seed=None disables sampling entirely and stores
the exact Poisson means as floats (noiseless mode, used for calibration
against closed-form efficiencies).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import astuple, dataclass, field

import numpy as np

from .engine import MemoryConfig, StorageOutcome, simulate_storage, simulate_sweep
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


def sample_counts(rate: float, acquisition_s: float, seed: int | None) -> float:
    """Poisson draw around rate * acquisition_s; the exact mean when seed is None."""
    if rate < 0 or acquisition_s < 0:
        raise ValueError("rate and acquisition_s must be nonnegative")
    mu = rate * acquisition_s
    if not math.isfinite(mu):
        raise ValueError("count mean is not finite")
    if seed is None:
        return mu
    return float(np.random.default_rng(seed).poisson(mu))


def record_seed(master: int | None, index: int) -> int | None:
    """Per-record sub-seed; independent of how many records precede it."""
    if master is None:
        return None
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def run_scan(cfg: MemoryConfig, input_state: PureState,
             scan: MalusScan | TomographyScan | DecayScan, *,
             pair_rate: float = 2000.0, detection_eff: float = 1.0,
             acquisition_s: float = 60.0, seed: int | None = None) -> ScanDataset:
    """Simulate storage and synthesize one dataset for the given scan plan."""
    records: list[CountRecord] = []

    def _emit(label: str, value: float, outcome: StorageOutcome,
              projector: PureState, n: int) -> None:
        idx = len(records)
        sub = record_seed(seed, idx)
        rate = expected_rate(outcome, projector, pair_rate, detection_eff)
        k = sample_counts(rate, acquisition_s, sub)
        records.append(CountRecord(label, value, k, acquisition_s, n, sub))

    if isinstance(scan, MalusScan):
        outcome = simulate_storage(cfg, input_state, scan.n_cycles)
        for theta in scan.angles:
            projector = make_pure(math.cos(theta), math.sin(theta))
            _emit("analyzer_angle_rad", float(theta), outcome, projector, scan.n_cycles)
        kind = "malus"
    elif isinstance(scan, TomographyScan):
        outcome = simulate_storage(cfg, input_state, scan.n_cycles)
        for i, (name, projector) in enumerate(scan.projectors):
            _emit(name, float(i), outcome, projector, scan.n_cycles)
        kind = "tomography"
    elif isinstance(scan, DecayScan):
        outcomes = simulate_sweep(cfg, input_state, scan.n_values)
        for n, outcome in zip(scan.n_values, outcomes):
            _emit("n_cycles", float(n), outcome, input_state, n)
        kind = "decay"
    else:
        raise TypeError(f"unknown scan plan {type(scan).__name__}")

    return ScanDataset(tuple(records), pair_rate, detection_eff, acquisition_s, seed, kind)


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
    records = []
    for i, theta in enumerate(angles):
        sub = record_seed(seed, i)
        mu = malus_mean(theta, amplitude, visibility, theta0)
        k = sample_counts(mu, acquisition_s, sub)
        records.append(CountRecord("analyzer_angle_rad", float(theta), k, acquisition_s, 1, sub))
    return ScanDataset(tuple(records), amplitude, 1.0, acquisition_s, seed, "malus")


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
