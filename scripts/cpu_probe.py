#!/usr/bin/env python3
"""How many CPUs two threads get here: the two-thread ÷ one-thread BLAS probe.

    python3 scripts/cpu_probe.py [--size N] [--products P] [--runs K]

Each of two loops multiplies two N x N matrices P times, with BLAS held
to one thread (importing slowtrack sets that). A run times the two loops
one after the other, then the same two loops on two threads at once;
numpy releases the GIL inside a product, so the threads overlap as far
as the machine lets them. The runs alternate K times, and one JSON line
is printed:

    {"ratio": 0.97, "ratios": [...], "size": 600, "products": 20, "runs": 6,
     "openblas_core": "SkylakeX"}

`ratio` is the median of the per-run ratios (two threads' wall time over
one after the other's): about 0.5 means two CPUs, about 1.0 means one.
`openblas_core` is the kernel numpy's OpenBLAS chose at load, or null
when the library does not say.
"""

import argparse
import ctypes
import json
import statistics
import threading
import time
from pathlib import Path

import slowtrack  # noqa: F401  (holds BLAS to one thread; before numpy)
import numpy as np


def openblas_core() -> str | None:
    """The core name of numpy's bundled OpenBLAS, or None if it exports none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return None


def probe(size: int, products: int, runs: int) -> list[float]:
    """Per run, the wall time of the two loops on two threads over one after the other."""
    a, b = np.random.default_rng(0).standard_normal((2, size, size))

    def loop():
        for _ in range(products):
            a @ b

    ratios = []
    for _ in range(runs):
        t0 = time.perf_counter()
        loop()
        loop()
        serial = time.perf_counter() - t0
        threads = [threading.Thread(target=loop) for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ratios.append((time.perf_counter() - t0) / serial)
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=600)
    parser.add_argument("--products", type=int, default=20)
    parser.add_argument("--runs", type=int, default=6)
    args = parser.parse_args(argv)
    if min(args.size, args.products, args.runs) < 1:
        parser.error("--size, --products and --runs must be at least 1")
    ratios = probe(args.size, args.products, args.runs)
    print(json.dumps({
        "ratio": round(statistics.median(ratios), 4),
        "ratios": [round(r, 4) for r in ratios],
        "size": args.size,
        "products": args.products,
        "runs": args.runs,
        "openblas_core": openblas_core(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
