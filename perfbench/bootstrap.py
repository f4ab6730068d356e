"""Process set-up shared by the benchmark's entry points.

Pins the BLAS thread count before numpy is imported and puts the
checkout's own `src/` first on the import path, so the benchmark always
measures the program built from the tree it sits in, never an installed
copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The benchmark cannot make its inputs; the run prints no result."""


def prepare():
    """Pin BLAS threads and import mrfdet from this checkout's src/."""
    if "numpy" not in sys.modules:
        for var in _THREAD_VARS:
            os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "mrfdet" / "__init__.py").is_file():
        raise SetupError(f"no mrfdet package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mrfdet
    if Path(mrfdet.__file__).resolve().parent != SRC / "mrfdet":
        raise SetupError(f"imported mrfdet from {mrfdet.__file__}, not from {SRC}")
    return mrfdet
