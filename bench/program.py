"""Locate and import the loopmem sources of the checkout this benchmark sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every matrix in loopmem is 2x2 or 4x4, so BLAS and OpenMP threads add only
# scheduling noise; one thread stays within any machine's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"


class ProgramMissing(RuntimeError):
    """The checkout holds no loopmem sources to benchmark."""


def load():
    """Pin BLAS threads, then import loopmem from ROOT/src and nowhere else.

    Must run before numpy is first imported, because BLAS reads the thread
    variables once, at load.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    package = SRC / "loopmem"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no loopmem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import loopmem
    if Path(loopmem.__file__).resolve().parent != package:
        raise ProgramMissing(f"loopmem was imported from {loopmem.__file__}, not {package}")
    return loopmem
