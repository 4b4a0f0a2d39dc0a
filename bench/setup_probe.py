"""Set-up as a user pays it: a fresh process imports loopmem and its CLI
and resolves every scenario of one workload.

    python3 bench/setup_probe.py <workload>

Prints the set-up time in seconds, measured inside the process.
"""

import sys
import time

import program


def main(workload: str) -> None:
    t0 = time.perf_counter()
    program.load()
    import loopmem.cli  # noqa: F401  a command-line run imports the CLI too
    from loopmem import scenario
    from workloads import WORKLOADS

    for op in WORKLOADS[workload].ops:
        scenario.resolve(op.scenario(0))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
