"""Shared fixtures: the benchmark's modules on sys.path, small workload runs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402


@pytest.fixture(scope="session")
def small_run():
    """run.main at the small size, once per (workload, trace); parsed result."""
    cache = {}

    def get(workload: str, trace: int = 0) -> dict:
        key = (workload, trace)
        if key not in cache:
            argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--size", "small"]
            assert run.main(argv) == 0
            path = run.RESULTS / f"{workload}-seed1-trace{trace}.json"
            cache[key] = json.loads(path.read_text())
        return cache[key]

    return get
