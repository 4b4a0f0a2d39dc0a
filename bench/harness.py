"""Closed-loop measurement: one client runs ops back to back and checks each.

Every op is timed from ``scenario.resolve`` to the return of
``scenario.run``.  Its output checks run after the clock stops; an op that
raises or fails a check is a failed op.  Failed ops are left out of
``ops_per_s`` and count as missing any limit (an infinite time) in the
percentiles.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import minimize

import checks
import program
from loopmem import scenario
from workloads import KNOWN_CRASHES, Op, Workload

# Tail percentiles tried from the top; the first with at least TAIL_BEYOND
# ops above it is reported.  The ladder stops at 90 so that a faster program,
# which fits more ops into a run, is still measured at the same percentile.
TAIL_LADDER = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SETUP_STARTS = 5
SETUP_TIMEOUT_S = 60


@dataclass(frozen=True)
class OpResult:
    """One op: raw wall seconds, and the perf_counter time it started."""

    op_id: str
    seconds: float
    ok: bool
    error: str | None
    start: float


_KERNEL_M = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
_KERNEL_COUNTS = np.array([30.0, 10.0, 22.0, 17.0])


@dataclass(frozen=True)
class _KernelState:
    weight: float
    amplitude: complex


def _kernel_objective(x: np.ndarray) -> tuple[float, np.ndarray]:
    q = x * x + 0.1
    k = _KERNEL_COUNTS
    return (float(-(k * np.log(q)).sum() + k.sum() * math.log(q.sum())),
            (k.sum() / q.sum() - k / q) * 2.0 * x)


def _kernel() -> float:
    """The kind of work loopmem does: frozen dataclasses, 2x2 complex numpy
    arrays, Python arithmetic and a small L-BFGS fit."""
    acc = 0.0
    for i in range(40):
        s = _KernelState(float(i), complex(i, 1))
        v = np.array([s.weight, s.amplitude])
        acc += float(np.linalg.eigvalsh(np.outer(v, v.conj()) + _KERNEL_M).min()) + abs(s.amplitude) ** 2
    fit = minimize(_kernel_objective, np.array([0.5, 0.4, 0.3, 0.2]), jac=True, method="L-BFGS-B")
    return acc + float(fit.fun)


class Calibrator:
    """Tracks the machine's speed between ops and scales op times to a reference speed.

    The machine the benchmark was defined on (2 vCPUs sharing a host) changes
    speed by up to 1.5x, for a fraction of a second to a minute at a time, so
    raw op times spread by 10-40 % between runs.  A fixed kernel is timed
    before every op; each op time t becomes t * REFERENCE_S / k, with k the
    median kernel time sampled within WINDOW_S of the op, or of the three
    samples nearest to it.  That brought the spread between runs to 2-8 %.
    Raw times stay in the detail line.
    """

    REFERENCE_S = 1.5e-3  # about the kernel's time on that machine
    WINDOW_S = 0.1
    MIN_SAMPLES = 3

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        best = math.inf
        for _ in range(3):  # the fastest of three ignores a one-off interruption
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(t)
        self.kernel_s.append(best)

    def scale(self, start: float, seconds: float) -> float:
        """REFERENCE_S over the median kernel time around [start, start + seconds]."""
        mid = start + seconds / 2.0
        reach = self.WINDOW_S + seconds / 2.0
        lo = bisect.bisect_left(self.times, mid - reach)
        hi = bisect.bisect_right(self.times, mid + reach)
        while hi - lo < min(self.MIN_SAMPLES, len(self.times)):  # widen to the nearest samples
            if lo > 0 and (hi == len(self.times) or mid - self.times[lo - 1] < self.times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return self.REFERENCE_S / statistics.median(self.kernel_s[lo:hi])


def pipeline(op: Op) -> str:
    return op.figure or op.subcommand


class Runner:
    """Runs a workload's passes into fresh directories under `work_dir`."""

    def __init__(self, workload: Workload, reference: dict, work_dir: Path):
        self.workload = workload
        self.reference = reference
        self.work_dir = work_dir
        self.calibrator = Calibrator()

    def run_op(self, op: Op, seed: int, check: bool = True) -> OpResult:
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        self.calibrator.sample()
        try:
            t0 = time.perf_counter()
            try:
                sc = scenario.resolve(op.scenario(seed))
                scenario.run(sc, op.subcommand, out_dir, figure=op.figure)
            except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
                return OpResult(op.op_id, time.perf_counter() - t0, False,
                                f"{type(exc).__name__}: {exc}", t0)
            seconds = time.perf_counter() - t0
            if not check:
                return OpResult(op.op_id, seconds, True, None, t0)
            try:
                values, problems = checks.extract(pipeline(op), sc, out_dir)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                return OpResult(op.op_id, seconds, False, f"unreadable output: {exc!r}", t0)
            problems += checks.compare(values, self.reference.get(op.op_id, {}).get(str(seed)))
            return OpResult(op.op_id, seconds, not problems, "; ".join(problems[:3]) or None, t0)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def run_pass(self, seed: int) -> list[OpResult]:
        return [self.run_op(op, seed) for op in self.workload.ops]

    def run_for(self, seconds: float, seeds) -> tuple[list[OpResult], list[int]]:
        """Whole passes until `seconds` have gone by; at least one pass.

        Whole passes keep the op mix of every run identical.
        """
        results: list[OpResult] = []
        used: list[int] = []
        t0 = time.perf_counter()
        while not used or time.perf_counter() - t0 < seconds:
            used.append(next(seeds))
            results += self.run_pass(used[-1])
        self.calibrator.sample()  # the last op needs samples on both sides too
        return results, used


def percentile(sorted_times: list[float], q: float) -> float:
    """Linear-interpolated percentile; infinite once it reaches a failed op."""
    pos = q / 100.0 * (len(sorted_times) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return sorted_times[lo]
    a, b = sorted_times[lo], sorted_times[lo + 1]
    return math.inf if math.isinf(b) else a + (b - a) * frac


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n ops above it."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= 100.0 * TAIL_BEYOND:
            return q
    return TAIL_LADDER[-1]


def summarize(results: list[OpResult], calibrator: Calibrator) -> tuple[dict, dict]:
    """End-to-end op metrics {name: (value, unit)} and the details behind them.

    Times are scaled to reference speed; the raw figures are in the details.
    """
    scaled = [r.seconds * calibrator.scale(r.start, r.seconds) for r in results]
    times = sorted(s if r.ok else math.inf for s, r in zip(scaled, results))
    raw = sorted(r.seconds if r.ok else math.inf for r in results)
    passed = sum(r.ok for r in results)
    busy = sum(scaled)
    q = tail_percentile(len(times))
    metrics = {
        "ops_per_s": (passed / busy if busy > 0 else 0.0, "1/s"),
        "op_s_p50": (percentile(times, 50.0), "s"),
        "op_s_tail": (percentile(times, q), "s"),
        "ops_ok_share": (passed / len(results), "ratio"),
    }
    by_op: dict[str, list[float]] = {}
    for s, r in zip(scaled, results):
        by_op.setdefault(r.op_id, []).append(s)
    details = {
        "ops": len(results),
        "ops_failed": len(results) - passed,
        "ops_failed_share": (len(results) - passed) / len(results),
        "op_s_tail_percentile": q,
        "op_s_tail_ops_beyond": sum(t > metrics["op_s_tail"][0] for t in times),
        "busy_s": busy,
        "raw": {"ops_per_s": passed / sum(r.seconds for r in results),
                "op_s_p50": percentile(raw, 50.0), "op_s_tail": percentile(raw, q)},
        "kernel_s": {"median": statistics.median(calibrator.kernel_s),
                     "min": min(calibrator.kernel_s), "max": max(calibrator.kernel_s),
                     "reference": calibrator.REFERENCE_S},
        "op_s_median_by_op": {k: statistics.median(v) for k, v in by_op.items()},
        "first_failures": [f"{r.op_id}: {r.error}" for r in results if not r.ok][:5],
    }
    return metrics, details


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str) -> tuple[float, list[float]]:
    """Median set-up time of fresh processes that import loopmem and resolve
    every scenario of the workload, and every time; one untimed start warms
    the file cache.

    Set-up is not scaled by the Calibrator: importing is file reading and
    unmarshalling, and its speed did not follow the kernel's.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload]
    times = []
    for _ in range(SETUP_STARTS + 1):
        out = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times[1:]), times[1:]


def probe_known_crashes(work_dir: Path) -> dict[str, str]:
    """Run each known-crashing op once, untimed; report what it does now."""
    runner = Runner(Workload("known-crashes", KNOWN_CRASHES), {}, work_dir)
    out = {}
    for op in KNOWN_CRASHES:
        r = runner.run_op(op, 0, check=False)
        out[op.op_id] = "completes" if r.ok else r.error
    return out


def _line_counts() -> dict[str, int]:
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((program.SRC / "loopmem").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def environment(workload_seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in program.THREAD_VARS},
        "workload_seed": workload_seed,
        "src_loopmem_lines": _line_counts(),
    }
