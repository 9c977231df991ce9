"""The outside-in tracer: self time, worker threads, bindings, absences."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracer


def test_nested_spans_give_self_time():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.03)
        inner()
        inner()

    tr.span("outer", body)()
    m = tr.metrics()
    assert m["inner_calls"] == 2 and m["outer_calls"] == 1
    assert m["outer_s"] == pytest.approx(0.13, abs=0.04)
    assert m["outer_self_s"] == pytest.approx(m["outer_s"] - m["inner_s"], abs=1e-6)
    assert m["outer_self_s"] == pytest.approx(0.03, abs=0.02)
    assert m["inner_self_s"] == m["inner_s"]


def test_worker_thread_spans_are_attributed_and_not_subtracted():
    tr = tracer.Tracer()
    work = tr.span("work", lambda: time.sleep(0.04))

    def body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(work) for _ in range(4)]:
                future.result()

    tr.span("step", body)()
    m = tr.metrics()
    assert m["work_calls"] == 4
    assert m["work_s"] == pytest.approx(0.16, abs=0.06)  # summed over threads
    # the spans ran on other threads, so the step's wait stays in its self time
    assert m["step_self_s"] == m["step_s"]
    assert m["step_s"] < m["work_s"]


def test_exceptions_are_counted_and_reraised():
    tr = tracer.Tracer()

    def observe(counters, result, exc):
        counters["errors"] = counters.get("errors", 0) + (exc is not None)

    def fails():
        raise KeyError("x")

    wrapped = tr.span("f", fails, observe)
    with pytest.raises(KeyError):
        wrapped()
    assert tr.metrics()["f_errors"] == 1 and tr.metrics()["f_calls"] == 1


def test_concurrent_updates_are_not_lost():
    tr = tracer.Tracer()
    f = tr.span("f", lambda: None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [f() for _ in range(2000)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tr.metrics()["f_calls"] == 16000


def test_install_wraps_every_binding_and_uninstall_restores():
    import slowtrack.hierarchy
    import slowtrack.tracker

    import slowtrack.optimizer

    original = slowtrack.hierarchy.encode_hier
    tr = tracer.Tracer()
    tr.install(tracer.SLOWTRACK_PROBES)
    try:
        assert slowtrack.tracker.encode_hier is slowtrack.hierarchy.encode_hier
        assert slowtrack.tracker.encode_hier.__wrapped__ is original
        assert slowtrack.tracker.adapt is slowtrack.hierarchy.adapt
        assert slowtrack.hierarchy.minimize is slowtrack.optimizer.minimize
        assert hasattr(slowtrack.hierarchy.minimize, "__wrapped__")
        assert tr.absent == []
    finally:
        tr.uninstall()
    assert slowtrack.tracker.encode_hier is original is slowtrack.hierarchy.encode_hier


def test_removed_function_is_reported_absent():
    tr = tracer.Tracer()
    tr.install([tracer.Probe("gone.fn", ("slowtrack.tracker:no_such_function", "no_such_module:f"))])
    tr.uninstall()
    assert tr.absent == ["gone.fn"]
    metrics = tracer.layer_metrics(tr.metrics())
    assert metrics["tracker.step_s"] == 0.0


def test_valid_ratio_counts_rejected_candidates():
    raw = {"tracker.candidate_patch_calls": 10, "tracker.candidate_patch_rejected": 3}
    assert tracer.layer_metrics(raw)["tracker.candidates_valid_ratio"] == pytest.approx(0.7)
