"""Shared start-up for the benchmark scripts: environment pinning and
loading qdepth from the checkout's own ``src`` tree.

Import this module before numpy. It pins the BLAS thread pools to one
thread so that runs on a shared machine are steady, and clears the qdepth
environment settings so that every run uses the library defaults.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
for _var in ("QDEPTH_SIM_CAP", "QDEPTH_TOL"):
    os.environ.pop(_var, None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2


class ProgramMissing(RuntimeError):
    """The checkout holds no qdepth sources to benchmark."""


def load_qdepth():
    """Import qdepth from ``<root>/src`` and nowhere else.

    An installed copy elsewhere on the path must not stand in for the
    sources under test, so the import is rejected unless it resolves into
    this checkout.
    """
    init = SRC / "qdepth" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no qdepth sources at {init}")
    sys.path.insert(0, str(SRC))
    import qdepth
    if Path(qdepth.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"qdepth imported from {qdepth.__file__}, not {init}")
    return qdepth
