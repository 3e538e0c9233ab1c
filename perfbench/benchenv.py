"""Process set-up shared by every benchmark entry point.

Call ``prepare()`` before anything imports NumPy: BLAS and OpenMP read
their thread counts when they load.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# one caller, one thread: BLAS, OpenMP and the library's own pool pinned to 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DUALCURVE_THREADS": "1",
}


def prepare():
    """Pin threads and put the checkout's ``src`` first on the import path.

    Exits with code 2 when the checkout holds no library to benchmark.
    """
    if not os.path.isfile(os.path.join(SRC, "dualcurve", "__init__.py")):
        sys.stderr.write(f"error: no dualcurve package under {SRC}\n")
        sys.exit(2)
    os.environ.update(PINNED_ENV)
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + os.pathsep + rest if rest else SRC
    sys.path.insert(0, SRC)
