"""Command-line front end.

    loopmem <simulate|decay|malus|tomo|budget|reproduce> \
        [--scenario path] [--preset name] [--seed n] [--out dir]

Either --scenario or --preset must identify the configuration; a scenario
file may itself extend a preset, and --preset and --seed override the file's
preset and seed.  The output directory defaults to $LOOPMEM_OUT, then
./loopmem-out.  Module errors, unreadable files and exhausted memory are
emitted as a JSON object on stderr with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import LoopMemError, SchemaError
from .scenario import FIGURES, PIPELINES, PRESETS, read_scenario, resolve, run

OUT_ENV = "LOOPMEM_OUT"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopmem",
        description="Polarization loop-memory simulation and analysis pipelines.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (description, _) in PIPELINES.items():
        p = sub.add_parser(name, help=description)
        if name == "reproduce":
            p.add_argument("figure", choices=FIGURES,
                           help="which bundled pipeline to run")
        p.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./loopmem-out)")
    return parser


def _resolve_scenario(args):
    if not (args.scenario or args.preset):
        raise SchemaError("provide --scenario and/or --preset", field="(args)")
    raw = read_scenario(args.scenario) if args.scenario else {}
    flags = {"preset": args.preset, "seed": args.seed}
    return resolve(dict(raw, **{k: v for k, v in flags.items() if v is not None}))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_ENV) or "./loopmem-out"
    try:
        scenario = _resolve_scenario(args)
        summary, written = run(scenario, args.subcommand, out_dir,
                               figure=getattr(args, "figure", None))
    except (LoopMemError, OSError, MemoryError) as exc:
        error = type(exc).__name__ if isinstance(exc, LoopMemError) else (
            "OSError" if isinstance(exc, OSError) else "MemoryError")
        payload = {"error": error, "message": str(exc)}
        if getattr(exc, "field", ""):
            payload["field"] = exc.field
        print(json.dumps(payload), file=sys.stderr)
        return 1

    for path in written:
        print(f"wrote {path}")
    print(json.dumps({"scenario": scenario.label,
                      "hash": scenario.digest[:16],
                      "seed": scenario.seed,
                      "summary": summary}, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
