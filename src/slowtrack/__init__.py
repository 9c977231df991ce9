"""Hierarchical slow-feature learning and particle-filter tracking.

Filters are pre-trained on multi-sequence patch data under a temporal
slowness objective, stacked into a two-layer encoder with PCA whitening
in between, adapted online to a specific target, and consumed by a
particle-filter tracker. Synthetic sequences with exact ground truth
make the whole pipeline verifiable at desk scale.

BLAS runs on one thread, whatever the environment says: OpenBLAS splits
a product's inner dimension between threads, so the thread count changes
the last digits of models and tracks, and on the many small products of
adaptation and tracking a second thread costs more than it saves.
"""

import os
import sys

from ._version import __version__  # noqa: F401

# binds when numpy is imported after slowtrack, as by the CLI
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _blas_thread_setter():
    """The thread-count setter of numpy's bundled OpenBLAS, or None if it exports none."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        setter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    return None


# numpy imported first has read the environment already: set its OpenBLAS directly
if "numpy" in sys.modules and (_setter := _blas_thread_setter()) is not None:
    _setter(1)
