"""Benchmark two source trees in alternating runs of one workload.

    python tools/ab_bench.py PARENT_ROOT CHANGE_ROOT WORKLOAD [--pairs N] [--seconds S]

Each root is a checkout of this repository.  Each pair runs
`bench/run.py --workload WORKLOAD --seed 1 --seconds S --trace 0` in the
parent tree, then in the change tree, each in a fresh process with the tree
as its working directory, so that machine noise falls on both sides alike.
The report lists, per end-to-end metric, each tree's median, the distance
between the quartiles of the parent's runs, the change relative to the
parent's median and how many pairs the change won; a metric's better
direction comes from the change tree's BENCHMARK.json.  Runs that were not
`correct` are listed after it.

Exit status: 0 when every run was correct, 1 otherwise, and 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(returncode: int, stdout: str, stderr: str) -> dict:
    """A run's result, the last line of its output, or a failed result holding the error."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        return {"correct": False, "metrics": {},
                "error": f"exit {returncode}: {stderr.strip()[-300:]}"}
    return result


def run_once(root: Path, workload: str, seconds: float) -> dict:
    """One benchmark run with `root` as the working directory."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout, proc.stderr)


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> tuple[str, bool]:
    """Report text for (parent, change) result pairs, and whether every run was correct.

    `better` maps a metric name to "higher" or "lower".  A pair counts as won
    where the change's value is strictly better than the parent's in it.
    """
    names = [name for name in better if all(name in side["metrics"]
                                            for pair in pairs for side in pair)]
    lines = [f"{len(pairs)} pairs, parent first in each",
             f"{'metric':16s} {'unit':6s} {'parent':>12s} {'parent IQR':>11s} {'change':>12s} "
             f"{'change %':>9s}  won"]
    for name in names:
        values = [[side["metrics"][name]["value"] for side in pair] for pair in pairs]
        parents = [p for p, _ in values]
        parent, change = statistics.median(parents), statistics.median(c for _, c in values)
        q1, _, q3 = (statistics.quantiles(parents, n=4, method="inclusive")
                     if len(parents) > 1 else (parent,) * 3)
        sign = 1.0 if better[name] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in values)
        rel = f"{100.0 * (change - parent) / parent:+8.1f}%" if parent else f"{'-':>9s}"
        unit = pairs[0][0]["metrics"][name]["unit"]
        lines.append(f"{name:16s} {unit:6s} {parent:12.6g} {q3 - q1:11.3g} {change:12.6g} {rel}  "
                     f"{won}/{len(pairs)}")
    bad = [f"  pair {i + 1} {side}: " + (result.get("error") or f"{result.get('failed')} of "
                                         f"{result.get('attempted')} ops failed")
           for i, pair in enumerate(pairs) for side, result in zip(SIDES, pair)
           if not result.get("correct")]
    lines.append(f"runs not correct: {len(bad)}")
    return "\n".join(lines + bad), not bad


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_root", type=Path)
    p.add_argument("change_root", type=Path)
    p.add_argument("workload")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    spec = json.loads((args.change_root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        pair = tuple(run_once(root, args.workload, args.seconds)
                     for root in (args.parent_root, args.change_root))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        pairs.append(pair)
    text, ok = summarize(pairs, better)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
