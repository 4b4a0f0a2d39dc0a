"""Compare every pipeline's output files between two source trees.

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Every pipeline of a tree (each
figure of `reproduce` counts as one) runs on each of its presets at seeds
0-7, at pipeline defaults.  The presets keep no light past the release
passage, so the fixed set `LEAKING_RUNS` adds devices that leak (early exits,
the listing past release and `tail-exit` rows) at the same seeds.  Every
pipeline that draws counts (`COUNT_RUNS`) also runs on paper-short at
`WIDE_SEED`, a seed above 2**32, whose sub-seeds numpy's SeedSequence computes
record by record rather than the array hash.  Each tree runs in its own
subprocess, which imports `loopmem` only from `<root>/src`.
The report lists:

- CSV files whose bytes differ, or that only one tree wrote;
- JSON values that differ, ignoring `metadata.generated_at`, with the
  largest relative change per key over all runs;
- JSON keys that only one tree wrote;
- each tree's total line count of `src/loopmem/*.py`, as `wc -l` counts it.

Exit status: 0 when no CSV and no JSON value differs, 1 otherwise, and 2
when a tree fails to run.  Keys present on only one side are reported but
do not fail the comparison.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

USAGE = "usage: python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT"

# (name, scenario, pipelines) of each leaking device; a string scenario is a
# JSON file under the tree's root.
LEAKING_RUNS = (
    ("paper-short+pc0.05", {"preset": "paper-short", "memory": {"pc_rotation_error": 0.05}},
     ("simulate", "decay")),
    ("paper-long+pc0.05", {"preset": "paper-long", "memory": {"pc_rotation_error": 0.05}},
     ("simulate", "decay")),
    ("low-loss-tail", "demos/low_loss_tail.json", ("simulate",)),
)

# (pipeline, figure) of every run that draws counts, and the seed above 2**32
# they also run at on paper-short
COUNT_RUNS = (("decay", None), ("malus", None), ("tomo", None),
              ("reproduce", "fig2c"), ("reproduce", "fig3"), ("reproduce", "fig4"))
WIDE_SEED = 2**40 + 3

# Runs in a fresh interpreter: argv is (root, out_dir, LEAKING_RUNS, COUNT_RUNS
# and WIDE_SEED as JSON).  Writes one directory per preset or leaking device,
# seed and pipeline.
_CHILD = """
import json, os, sys
root, out = sys.argv[1], sys.argv[2]
leaking, count_runs, wide_seed = json.loads(sys.argv[3])
src = os.path.join(root, "src")
sys.path.insert(0, src)
from loopmem import scenario
if not os.path.realpath(scenario.__file__).startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"loopmem imported from {scenario.__file__}, not from {src}")
runs = [(sub, None) for sub in scenario.PIPELINES if sub != "reproduce"]
runs += [("reproduce", fig) for fig in scenario.FIGURES]
cases = [(preset, {"preset": preset}, runs, range(8)) for preset in sorted(scenario.PRESETS)]
for name, raw, subs in leaking:
    if isinstance(raw, str):
        with open(os.path.join(root, raw), encoding="utf-8") as fh:
            raw = json.load(fh)
    cases.append((name, raw, [(sub, None) for sub in subs], range(8)))
cases.append(("paper-short", {"preset": "paper-short"}, count_runs, [wide_seed]))
for name, raw, subs, seeds in cases:
    for seed in seeds:
        sc = scenario.resolve(dict(raw, seed=seed))
        for sub, fig in subs:
            scenario.run(sc, sub, os.path.join(out, name, f"seed{seed}", fig or sub), figure=fig)
"""

_IGNORED = {"metadata.generated_at"}


def run_tree(root: str, out_dir: str) -> subprocess.Popen:
    """Start one tree's runs; -I keeps PYTHONPATH and user site-packages out."""
    return subprocess.Popen([sys.executable, "-I", "-B", "-c", _CHILD, root, out_dir,
                             json.dumps([LEAKING_RUNS, COUNT_RUNS, WIDE_SEED])],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _files(out_dir: Path) -> dict[str, Path]:
    return {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}


def _flatten(obj, prefix: str = "") -> dict[str, object]:
    """Dotted key path -> leaf value; a list entry's path ends in [i]."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out: dict[str, object] = {}
    for path, v in items:
        out.update(_flatten(v, path))
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(a, b) -> bool:
    if _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _relative(a, b) -> float:
    """|a - b| / max(|a|, |b|) for two numbers, inf for any other pair of values."""
    if not (_is_number(a) and _is_number(b)) or math.isnan(a) or math.isnan(b):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def compare(parent_out: Path, change_out: Path) -> dict:
    """The differences between two output trees, laid out as <device>/<seed>/<pipeline>/<file>.

    A key is the file name and the dotted path inside it, so a key groups
    the same field over every preset, seed and pipeline run.
    """
    parent, change = _files(parent_out), _files(change_out)
    report = {"csv_compared": 0, "csv_differ": [], "json_compared": 0,
              "values_compared": 0, "value_diffs": defaultdict(list),
              "only_parent": defaultdict(int), "only_change": defaultdict(int)}
    for rel in sorted(parent.keys() | change.keys()):
        name = rel.rsplit("/", 1)[-1]
        if name.endswith(".json"):
            a, b = ({} if rel not in side else _flatten(json.loads(side[rel].read_text("utf-8")))
                    for side in (parent, change))
            report["json_compared"] += 1
            for key in sorted(a.keys() | b.keys()):
                if key in _IGNORED:
                    continue
                tag = f"{name} {key}"
                if key not in b:
                    report["only_parent"][tag] += 1
                elif key not in a:
                    report["only_change"][tag] += 1
                else:
                    report["values_compared"] += 1
                    if not _same(a[key], b[key]):
                        report["value_diffs"][tag].append((_relative(a[key], b[key]), rel))
        else:
            report["csv_compared"] += 1
            if rel not in parent or rel not in change or (
                    parent[rel].read_bytes() != change[rel].read_bytes()):
                report["csv_differ"].append(rel)
    return report


def format_report(report: dict, parent_root: str, change_root: str) -> str:
    lines = [f"CSV files: {report['csv_compared']} compared, {len(report['csv_differ'])} differ"]
    lines += [f"  {rel}" for rel in report["csv_differ"]]
    n_diff = sum(len(v) for v in report["value_diffs"].values())
    lines.append(f"JSON values: {report['values_compared']} compared in "
                 f"{report['json_compared']} files, {n_diff} differ")
    for tag, diffs in sorted(report["value_diffs"].items()):
        rel, where = max(diffs)
        lines.append(f"  {tag}: {len(diffs)} runs, largest relative change {rel:.3g} ({where})")
    for side, root in (("only_parent", parent_root), ("only_change", change_root)):
        keys = report[side]
        lines.append(f"JSON keys only in {root}: {len(keys)}")
        lines += [f"  {tag}: {count} runs" for tag, count in sorted(keys.items())]
    return "\n".join(lines)


def package_lines(root: str) -> int:
    """The newlines in <root>/src/loopmem/*.py, the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in Path(root, "src", "loopmem").glob("*.py"))


def format_line_counts(parent_root: str, change_root: str) -> str:
    parent, change = package_lines(parent_root), package_lines(change_root)
    return (f"Lines of src/loopmem/*.py: {parent} in {parent_root}, {change} in {change_root}"
            f" ({change - parent:+d})")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or any(arg.startswith("-") for arg in argv):
        print(USAGE, file=sys.stderr)
        return 2
    roots = [os.path.abspath(root) for root in argv]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        outs = [Path(tmp, side) for side in ("parent", "change")]
        procs = [run_tree(root, str(out)) for root, out in zip(roots, outs)]
        failed = False
        for root, proc in zip(roots, procs):
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"{root}: the runs failed\n{err}", file=sys.stderr)
                failed = True
        if failed:
            return 2
        report = compare(*outs)
    print(format_report(report, *roots))
    print(format_line_counts(*roots))
    return 1 if report["csv_differ"] or report["value_diffs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
