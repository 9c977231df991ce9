"""slowtrack benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload track-learned --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Set-up writes the workload's inputs under ``benchmark/work/``:
once untimed, which creates the files, then before each round and after
the last, rewriting the same files, at least five times and for at least
three seconds in all (``setup_s`` is the median CPU time of the
rewrites). Each round
then runs the workload's ``slowtrack`` command in its own process, as a
user would, and checks its outputs; rounds repeat until ``--seconds`` of
command time have passed and at least two rounds have run. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds. With ``--trace 1`` the command runs once untraced and once under
the outside-in tracer (``traced_cli.py``), and the metrics are the
per-layer totals of the traced run plus ``trace.overhead_s``. Every run
also writes its details (each operation, each set-up time, the tracer's
raw totals) to ``benchmark/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

# Set-up is timed in bursts of SETUP_BURST_S before each round and once
# more after the last, until it has run SETUP_REPEATS times and for
# SETUP_MIN_S in all. Spread over the run, set-up samples the same
# stretch of the shared machine as the commands do. setup_s is the median
# CPU time of a set-up. Only set-ups that rewrite the files of an earlier
# set-up count: creating new files on ext4 grew twice as slow over 100
# create-and-delete cycles of the inputs, so the first set-up of a run
# measures how many runs came before it. CPU time, not wall time: each
# rewritten file waits for the disk to take its previous version (one
# voluntary context switch per file), which spread the wall time of the
# same set-up from 0.28 to 0.44 s across runs.
SETUP_REPEATS = 5
SETUP_BURST_S = 1.0
SETUP_MIN_S = 3.0
# A 60-frame track takes 25-36 s, longer than a whole run; one command per
# run let a single slow stretch of the shared machine set the run's value.
MIN_ROUNDS = 2
RUN_DEADLINE_S = 170.0  # every child is killed by then; the run must end in 180 s
PRETRAIN_F1, PRETRAIN_F2, PRETRAIN_STRIDE = 64, 128, 16  # slowtrack pretrain defaults

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Bench:
    def __init__(self, workload: str, seed: int, size, deadline: float):
        import slowtrack.synth  # noqa: F401  (imported before set-up is timed)

        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = deadline
        self.work = WORK / workload
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    # -- processes -----------------------------------------------------

    def run_child(self, argv: list[str], name: str) -> Child:
        """Run one child to its end; wall, CPU and peak RSS are its own."""
        out, err = self.work / f"{name}.stdout", self.work / f"{name}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Child(
            code,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # KiB on Linux
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
        )

    def slowtrack(self, args: list[str], name: str, trace_file: Path | None = None) -> Child:
        if trace_file is None:
            argv = [sys.executable, "-m", "slowtrack", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *args]
        return self.run_child(argv, name)

    # -- set-up --------------------------------------------------------

    def setup(self, trace_file: Path | None = None, fresh: bool = True) -> tuple[dict, float, float]:
        """Write the inputs into the work directory; (inputs, CPU s, wall s).

        The CPU time is this process's user + system time during set-up
        plus that of set-up's own slowtrack commands. `fresh` empties the
        directory first; otherwise set-up rewrites the files of the
        previous set-up, which have the same names and sizes.
        """

        child_cpu = []

        def run_cli(args, name):
            child = self.slowtrack(args, name, trace_file)
            child_cpu.append(child.cpu_s)
            if child.code != 0:
                raise RuntimeError(f"set-up command {name} exited {child.code}: {child.stderr[-500:]}")

        if fresh:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
        t0, c0 = time.perf_counter(), time.process_time()
        inputs = workloads.setup(self.workload, self.seed, self.work, self.size, run_cli)
        return inputs, time.process_time() - c0 + sum(child_cpu), time.perf_counter() - t0

    # -- one operation -------------------------------------------------

    def operation(self, inputs: dict, tag: str, trace_file: Path | None = None) -> dict:
        """Run the timed command once and check everything it wrote."""
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        child = self.slowtrack(workloads.command(self.workload, inputs, out), tag, trace_file)
        op = {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb,
              "out": out, "accuracy": None}
        if child.code != 0:
            op["problems"] = [f"exit code {child.code}: {child.stderr[-500:]}"]
            return op
        try:
            op["problems"] = self.verify(inputs, out, child, op)
        except Exception as err:  # an unreadable output fails this operation only
            op["problems"] = [f"checks raised {type(err).__name__}: {err}"]
        return op

    def verify(self, inputs: dict, out: Path, child: Child, op: dict) -> list[str]:
        from slowtrack.hierarchy import load_model

        if self.workload == "pretrain":
            model_path = out / "model.hftm"
            load_model(model_path)  # the model must load; a failure fails the operation
            return checks.check_pretrain(
                child.stdout, checks.read_model(model_path),
                inputs["aux"], inputs["heldout"], PRETRAIN_F1, PRETRAIN_F2, PRETRAIN_STRIDE,
            )
        gt = inputs["seq"] / "gt.csv"
        ev = self.slowtrack(["eval", "--pred", str(out / "boxes.csv"), "--gt", str(gt)], "eval")
        problems, op["accuracy"] = checks.check_track(
            out / "boxes.csv", gt, ev.stdout, inputs["n_frames"]
        )
        problems += checks.check_learned_log(out / "boxes.csv.log", inputs["n_frames"])
        frame0 = checks.read_pgm(inputs["seq"] / "000000.pgm")
        x, y, w, h = checks.read_boxes(gt)[0]
        cx, cy = int(x + w / 2), int(y + h / 2)
        patches = [
            checks.normalize(frame0[cy + dy - 16 : cy + dy + 16, cx + dx - 16 : cx + dx + 16])
            for dx, dy in ((0, 0), (5, -3), (-7, 4))
        ]
        return problems + checks.check_encoder(
            load_model(inputs["model"]), checks.read_model(inputs["model"]), patches
        )

    # -- the two kinds of run ------------------------------------------

    def timed(self, seconds: float) -> tuple[list[dict], dict, dict]:
        inputs = self.setup()[0]  # creates the files; not timed
        setup_cpu, setup_wall = [], []

        def set_up(until_s: float, at_least: int = 1) -> None:
            spent = 0.0
            while spent < until_s or at_least > 0:
                _, cpu_s, wall_s = self.setup(fresh=False)
                setup_cpu.append(cpu_s)
                setup_wall.append(wall_s)
                spent += wall_s
                at_least -= 1

        ops = []
        while len(ops) < MIN_ROUNDS or sum(op["wall_s"] for op in ops) < seconds:
            set_up(SETUP_BURST_S)
            ops.append(self.operation(inputs, "out"))
        set_up(SETUP_MIN_S - sum(setup_wall), SETUP_REPEATS - len(setup_wall))
        metrics = {"setup_s": statistics.median(setup_cpu)}
        for key in ("wall_s", "peak_rss_mb"):
            metrics[key] = statistics.median(op[key] for op in ops)
        return ops, metrics, {"setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall}

    def traced(self) -> tuple[list[dict], dict, dict]:
        setup_trace = self.work / "setup-trace.json"
        in_process = tracer.Tracer()
        in_process.install(tracer.SLOWTRACK_PROBES)
        try:
            inputs = self.setup(trace_file=setup_trace)[0]
        finally:
            in_process.uninstall()
        plain = self.operation(inputs, "out")
        command_trace = self.work / "command-trace.json"
        traced = self.operation(inputs, "traced", trace_file=command_trace)
        ops = [plain, traced]
        name = "model.hftm" if self.workload == "pretrain" else "boxes.csv"
        if not plain["problems"] and not traced["problems"]:
            if (plain["out"] / name).read_bytes() != (traced["out"] / name).read_bytes():
                traced["problems"].append(f"traced run wrote a different {name}")

        command = json.loads(command_trace.read_text()) if command_trace.exists() else {}
        setup = json.loads(setup_trace.read_text()) if setup_trace.exists() else {}
        setup_totals = dict(in_process.metrics())
        for key, value in setup.get("totals", {}).items():
            setup_totals[key] = setup_totals.get(key, 0) + value
        layers = tracer.layer_metrics(command.get("totals", {}))
        from_setup = tracer.layer_metrics(setup_totals)
        for key in tracer.SETUP_LAYER_METRICS:
            layers[key] += from_setup[key]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        ace, aor = plain["accuracy"] or (0.0, 0.0)
        layers["accuracy.ace_px"], layers["accuracy.aor"] = ace, aor
        absent = sorted(set(command.get("absent", [])) | set(in_process.absent) | set(setup.get("absent", [])))
        detail = {"absent": absent, "command_totals": command.get("totals", {}),
                  "setup_totals": setup_totals}
        return ops, layers, detail


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (_, unit, _) in tracer.LAYER_METRICS.items()}
    units.update({
        "tracker.candidates_valid_ratio": "ratio",
        "trace.overhead_s": "s",
        "accuracy.ace_px": "px",
        "accuracy.aor": "ratio",
    })
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input size; 'small' runs the same code path for tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "slowtrack" / "cli.py").is_file():
        print(f"error: no slowtrack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, workloads.SIZES[args.size], started + RUN_DEADLINE_S)
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        ops, values, detail = bench.traced()
        units = per_layer_units()
        if detail["absent"]:
            print(f"traced functions absent from the program: {detail['absent']}", file=sys.stderr)
    else:
        ops, values, detail = bench.timed(args.seconds)
        units = END_TO_END_UNITS
    for k, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"operation {k} failed: {problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "operations": ops, **detail}, indent=1, default=str)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
