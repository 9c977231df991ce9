#!/usr/bin/env python3
"""How many CPUs two threads get here: the two-thread ÷ one-thread BLAS probe.

    python3 scripts/cpu_probe.py [--size N] [--products P] [--runs K]

Each of two loops multiplies two N x N matrices P times, with BLAS held
to one thread (importing slowtrack sets that). A run times the two loops
one after the other, then the same two loops on two threads at once;
numpy releases the GIL inside a product, so the threads overlap as far
as the machine lets them. Warm-up runs come first, then K timed runs,
and one JSON line is printed:

    {"ratio": 0.97, "ratios": [...], "warmup": [1.02, ...], "size": 600,
     "products": 20, "runs": 6, "openblas_core": "SkylakeX"}

`ratio` is the median of the timed runs' ratios (two threads' wall time
over one after the other's): about 0.5 means two CPUs, about 1.0 means
one. `warmup` holds the warm-up runs' ratios, kept out of the median.
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


# Warm-up lasts this long, in whole runs, and at most WARMUP_RUNS runs. On a
# shared 2-CPU x86-64 machine the runs of a process started after a few idle
# seconds read about 1.0 for their first 2-2.5 s (four or five 600 x 600
# runs) and about 0.5 after.
WARMUP_S = 3.0
WARMUP_RUNS = 10


def probe(size: int, products: int, runs: int) -> tuple[list[float], list[float]]:
    """The warm-up runs' ratios, then `runs` timed ones.

    A run's ratio is the wall time of the two loops on two threads over
    one after the other.
    """
    a, b = np.random.default_rng(0).standard_normal((2, size, size))

    def loop():
        for _ in range(products):
            a @ b

    def ratio():
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
        return (time.perf_counter() - t0) / serial

    start, warmup = time.perf_counter(), [ratio()]
    while time.perf_counter() - start < WARMUP_S and len(warmup) < WARMUP_RUNS:
        warmup.append(ratio())
    return warmup, [ratio() for _ in range(runs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=600)
    parser.add_argument("--products", type=int, default=20)
    parser.add_argument("--runs", type=int, default=6)
    args = parser.parse_args(argv)
    if min(args.size, args.products, args.runs) < 1:
        parser.error("--size, --products and --runs must be at least 1")
    warmup, ratios = probe(args.size, args.products, args.runs)
    print(json.dumps({
        "ratio": round(statistics.median(ratios), 4),
        "ratios": [round(r, 4) for r in ratios],
        "warmup": [round(r, 4) for r in warmup],
        "size": args.size,
        "products": args.products,
        "runs": args.runs,
        "openblas_core": openblas_core(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
