"""Record the reference outputs that bench/checks.py compares every op against.

    python3 bench/record_reference.py

Runs every op of every workload once per scenario seed in
workloads.SCENARIO_SEEDS and writes the pinned values to
bench/reference.json.  Run it only on a commit whose outputs are trusted;
the file in the repository was recorded on the commit that added the
benchmark.  Ops that break an invariant abort the recording.
"""

import json
import shutil
import sys
import tempfile

import program


def main() -> int:
    program.load()
    import checks
    from harness import pipeline
    from loopmem import scenario
    from workloads import SCENARIO_SEEDS, WORKLOADS

    ops = {}
    for workload in WORKLOADS.values():
        for op in workload.ops:
            if ops.setdefault(op.op_id, op) != op:
                raise SystemExit(f"op id {op.op_id} names two different ops")
    reference: dict = {}
    program.WORK.mkdir(exist_ok=True)
    for op_id, op in sorted(ops.items()):
        for seed in SCENARIO_SEEDS:
            out_dir = tempfile.mkdtemp(dir=program.WORK)
            try:
                sc = scenario.resolve(op.scenario(seed))
                scenario.run(sc, op.subcommand, out_dir, figure=op.figure)
                values, problems = checks.extract(pipeline(op), sc, out_dir)
            finally:
                shutil.rmtree(out_dir)
            if problems:
                raise SystemExit(f"{op_id} seed {seed}: {problems}")
            reference.setdefault(op_id, {})[str(seed)] = values
        print(f"recorded {op_id}", file=sys.stderr)
    with open(program.ROOT / "bench" / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
