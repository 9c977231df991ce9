"""Outside-in tracer: spans and counters around slowtrack's public functions.

The tracer lives outside the program. `install` replaces each probed
function with a timing wrapper at every name through which callers look
it up (a function imported with ``from .hierarchy import adapt`` is a
separate binding in the importing module, so the home module alone is not
enough). Nothing in the program changes, and `uninstall` puts the
originals back.

Each probe accumulates, over all threads:

- ``<name>_s``: busy time, the sum of span durations over every thread;
- ``<name>_self_s``: busy time minus the time of traced spans nested
  inside it on the same thread. Work a span hands to pool threads is not
  subtracted, so a span that waits for workers keeps the wait in its
  self time;
- ``<name>_calls`` and any counters its ``observe`` hook adds from the
  returned value or the raised exception.

Totals stay in memory until `metrics` is read at the end of a run. A
probe whose function no longer exists is listed in `absent` and reads 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One traced function and every binding through which it is called.

    `targets` are ``"module:attr"`` or ``"module:Class.attr"`` strings; the
    first one that exists names the original function. `observe` is
    called as ``observe(counters, result, exc)`` after every call, with
    `counters` the probe's own dict of extra counts.
    """

    name: str
    targets: tuple[str, ...]
    observe: Callable | None = None


def _resolve(target: str):
    """(owner object, attribute name) for a target, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


@dataclass
class _Totals:
    busy: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals: dict[str, _Totals] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, busy: float, self_time: float, observe, result, exc):
        with self._lock:
            tot = self._totals.setdefault(name, _Totals())
            tot.busy += busy
            tot.self_time += self_time
            tot.calls += 1
            if observe is not None:
                observe(tot.counters, result, exc)

    def span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Wrap `fn` so each call is one span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time of traced children on this thread
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                busy = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += busy
                self._record(name, busy, busy - children, observe, result, exc)

        return wrapper

    # -- install -------------------------------------------------------

    def install(self, probes) -> None:
        for probe in probes:
            found = [r for r in map(_resolve, probe.targets) if r is not None]
            if not found:
                self.absent.append(probe.name)
                continue
            owner, attr = found[0]
            original = vars(owner)[attr]
            wrapper = self.span(probe.name, original, probe.observe)
            for owner, attr in found:
                # a binding that now holds something else is not this probe's
                if vars(owner)[attr] is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat ``{name_s, name_self_s, name_calls, name_<counter>}`` map."""
        out = {}
        with self._lock:
            for name, tot in self._totals.items():
                out[f"{name}_s"] = tot.busy
                out[f"{name}_self_s"] = tot.self_time
                out[f"{name}_calls"] = tot.calls
                for key, value in tot.counters.items():
                    out[f"{name}_{key}"] = value
        return out


# ---------------------------------------------------------------------------
# the probes for slowtrack; each lists every binding its callers use


def _count(key: str, value, counters) -> None:
    counters[key] = counters.get(key, 0) + value


def _observe_candidate(counters, result, exc):
    _count("rejected", int(type(exc).__name__ == "CandidateRejectedError"), counters)


def _observe_minimize(counters, result, exc):
    if result is not None:
        _count("iterations", int(getattr(result, "iterations", 0)), counters)
        _count("max_iters_stops", int(getattr(result, "status", "") == "max_iters"), counters)


def _observe_line_search(counters, result, exc):
    if result is not None:
        _count("evals", int(getattr(result, "evals", 0)), counters)


SLOWTRACK_PROBES = (
    Probe("cli.main", ("slowtrack.cli:main",)),
    Probe("synth.generate_sequence", ("slowtrack.synth:generate_sequence", "slowtrack.cli:generate_sequence")),
    Probe("patches.load_frame", ("slowtrack.patches:load_frame",)),
    Probe("patches.sample_training_set", ("slowtrack.patches:sample_training_set", "slowtrack.cli:sample_training_set")),
    Probe("tracker.step", ("slowtrack.tracker:step",)),
    Probe("tracker.candidate_patch", ("slowtrack.tracker:candidate_patch",), _observe_candidate),
    Probe("tracker.encode_hier", ("slowtrack.hierarchy:encode_hier", "slowtrack.tracker:encode_hier")),
    Probe("tracker.min_distance", ("slowtrack.tracker:ExemplarLibrary.min_distance",)),
    Probe("hierarchy.adapt", ("slowtrack.hierarchy:adapt", "slowtrack.tracker:adapt")),
    Probe("hierarchy.pretrain", ("slowtrack.hierarchy:pretrain", "slowtrack.cli:pretrain")),
    Probe("hierarchy.save_model", ("slowtrack.hierarchy:save_model", "slowtrack.cli:save_model")),
    Probe("hierarchy.load_model", ("slowtrack.hierarchy:load_model", "slowtrack.cli:load_model")),
    Probe("optimizer.minimize", ("slowtrack.optimizer:minimize", "slowtrack.hierarchy:minimize"), _observe_minimize),
    Probe("optimizer.line_search", ("slowtrack.optimizer:wolfe_line_search",), _observe_line_search),
    Probe("optimizer.two_loop", ("slowtrack.optimizer:two_loop_direction",)),
    Probe("objectives.slowness", ("slowtrack.objectives:SlownessObjective.evaluate",)),
    Probe("objectives.adaptation", ("slowtrack.objectives:AdaptationObjective.evaluate",)),
    Probe("encoder.encode", ("slowtrack.encoder:encode", "slowtrack.hierarchy:encode")),
    Probe("whitening.fit", ("slowtrack.whitening:fit_whitening", "slowtrack.hierarchy:fit_whitening")),
    Probe("whitening.apply", ("slowtrack.whitening:apply_whitening", "slowtrack.hierarchy:apply_whitening")),
)

# per-layer metric -> (probe metric key it reads, unit, better)
LAYER_METRICS = {
    "tracker.step_s": ("tracker.step_s", "s", "lower"),
    "tracker.step_self_s": ("tracker.step_self_s", "s", "lower"),
    "tracker.candidate_patch_s": ("tracker.candidate_patch_s", "s", "lower"),
    "tracker.candidate_patch_calls": ("tracker.candidate_patch_calls", "count", "lower"),
    "tracker.encode_hier_s": ("tracker.encode_hier_s", "s", "lower"),
    "tracker.encode_hier_calls": ("tracker.encode_hier_calls", "count", "lower"),
    "tracker.min_distance_s": ("tracker.min_distance_s", "s", "lower"),
    "tracker.min_distance_calls": ("tracker.min_distance_calls", "count", "lower"),
    "hierarchy.adapt_s": ("hierarchy.adapt_s", "s", "lower"),
    "hierarchy.adapt_calls": ("hierarchy.adapt_calls", "count", "lower"),
    "hierarchy.pretrain_s": ("hierarchy.pretrain_s", "s", "lower"),
    "hierarchy.save_model_s": ("hierarchy.save_model_s", "s", "lower"),
    "hierarchy.load_model_s": ("hierarchy.load_model_s", "s", "lower"),
    "optimizer.minimize_calls": ("optimizer.minimize_calls", "count", "lower"),
    "optimizer.iterations": ("optimizer.minimize_iterations", "count", "lower"),
    "optimizer.max_iters_stops": ("optimizer.minimize_max_iters_stops", "count", "lower"),
    "optimizer.line_search_s": ("optimizer.line_search_s", "s", "lower"),
    "optimizer.line_search_calls": ("optimizer.line_search_calls", "count", "lower"),
    "optimizer.evals": ("optimizer.line_search_evals", "count", "lower"),
    "optimizer.two_loop_s": ("optimizer.two_loop_s", "s", "lower"),
    "objectives.slowness_s": ("objectives.slowness_s", "s", "lower"),
    "objectives.slowness_evals": ("objectives.slowness_calls", "count", "lower"),
    "objectives.adaptation_s": ("objectives.adaptation_s", "s", "lower"),
    "objectives.adaptation_evals": ("objectives.adaptation_calls", "count", "lower"),
    "encoder.encode_s": ("encoder.encode_s", "s", "lower"),
    "encoder.encode_calls": ("encoder.encode_calls", "count", "lower"),
    "whitening.fit_s": ("whitening.fit_s", "s", "lower"),
    "whitening.apply_s": ("whitening.apply_s", "s", "lower"),
    "patches.sample_training_set_s": ("patches.sample_training_set_s", "s", "lower"),
    "patches.load_frame_s": ("patches.load_frame_s", "s", "lower"),
    "patches.load_frame_calls": ("patches.load_frame_calls", "count", "lower"),
    "synth.generate_sequence_s": ("synth.generate_sequence_s", "s", "lower"),
    "cli.main_s": ("cli.main_s", "s", "lower"),
}

# layer metrics whose work happens in set-up on some workload; run.py adds
# the set-up trace to the command trace for these, and only these
SETUP_LAYER_METRICS = (
    "synth.generate_sequence_s",
    "hierarchy.pretrain_s",
    "hierarchy.save_model_s",
)


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Map a tracer's flat totals onto the benchmark's per-layer names."""
    out = {name: float(raw.get(key, 0)) for name, (key, _, _) in LAYER_METRICS.items()}
    calls = raw.get("tracker.candidate_patch_calls", 0)
    rejected = raw.get("tracker.candidate_patch_rejected", 0)
    out["tracker.candidates_valid_ratio"] = (calls - rejected) / calls if calls else 0.0
    return out
