"""Process set-up shared by the benchmark and its set-up probe.

Must run before numpy is imported: it pins the BLAS/OpenMP thread count
(which numpy reads once, at import) and puts the checkout's own ``src`` on
the import path, so the benchmark always measures the library it ships with
and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread per process: simulate-d64 moves by several percent between
# one and two OpenBLAS threads, and the process pool of a traced sweep already
# puts one worker on every core.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingLibrary(RuntimeError):
    """The checkout has no ``src/entrate`` package to benchmark."""


def bootstrap() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "entrate" / "__init__.py").is_file():
        raise MissingLibrary(f"no entrate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entrate

    if Path(entrate.__file__).resolve().parent != SRC / "entrate":
        raise MissingLibrary(f"imported entrate from {entrate.__file__}, not from {SRC}")
