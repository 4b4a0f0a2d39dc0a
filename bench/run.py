"""loopmem benchmark: closed-loop pipeline runs, end to end or traced per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in bench/workloads.py.  One client in one process runs
whole passes of ops back to back for --seconds, checking every op's output.

--trace 0 prints the end-to-end metrics: throughput, median and tail op
time, the share of ops that passed, peak RSS, and set-up time, which is the
median over fresh processes that import loopmem and resolve the workload.

--trace 1 runs half of --seconds untraced, then the same passes again with
the tracer installed, and prints the per-layer metrics, plus the tracing
overhead as traced minus untraced time.  Spans go to
.bench_work/trace-<workload>.npz.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it holds the run's details: environment, tail percentile
and sample count, per-op medians, and the state of known crashes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import program

REFERENCE = Path(__file__).with_name("reference.json")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    program.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=program.WORK))
    try:
        return measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                       json.loads(REFERENCE.read_text()), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: int, reference: dict, work: Path,
            out=sys.stdout) -> int:
    """Run one benchmark run and print its result; returns the exit code."""
    # these import loopmem, which program.load() has to find first
    import harness
    from tracer import Tracer, TracerError
    from workloads import pass_seeds

    if trace:
        try:  # refuse before measuring anything
            with Tracer():
                pass
        except TracerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 3

    runner = harness.Runner(workload, reference, work)
    seeds = pass_seeds(seed)
    detail = {"workload": workload.name, "trace": trace,
              "environment": harness.environment(seed),
              "known_crashes": harness.probe_known_crashes(work)}
    warm = runner.run_pass(next(seeds))

    if not trace:
        setup_s, setup_runs = harness.measure_setup(workload.name)
        results, used = runner.run_for(seconds, seeds)
        metrics, details = harness.summarize(results, runner.calibrator)
        metrics["peak_rss_mb"] = (harness.peak_rss_mb(), "MB")
        metrics["setup_s"] = (setup_s, "s")
        detail.update(details, setup_runs_s=setup_runs)
    else:
        untraced, used = runner.run_for(seconds / 2.0, seeds)
        traced = []
        with Tracer() as tracer:
            for i, s in enumerate(used):
                tracer.pass_index = i
                traced += runner.run_pass(s)
        tracer.write(program.WORK / f"trace-{workload.name}.npz")
        metrics = tracer.metrics(passes=len(used))
        runner.calibrator.sample()
        untraced_s = harness.summarize(untraced, runner.calibrator)[1]["busy_s"]
        detail.update(harness.summarize(traced, runner.calibrator)[1], untraced_busy_s=untraced_s)
        metrics["trace.overhead_share"] = (detail["busy_s"] / untraced_s - 1.0, "ratio")
        results = untraced + traced
    detail["pass_seeds"] = used

    failed = sum(not r.ok for r in results)
    correct = failed == 0 and all(r.ok for r in warm)
    if not all(r.ok for r in warm):
        detail["warm_up_failures"] = [f"{r.op_id}: {r.error}" for r in warm if not r.ok]
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:48s} {value:14.6g} {unit}", file=out)
    print(json.dumps({"detail": detail}, default=str), file=out)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}),
          file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
