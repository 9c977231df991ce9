#!/usr/bin/env python3
"""The README's CLI round trip, run in process, one output file per command.

    python3 scripts/round_trip.py OUT [--frames N] [--aux-frames N]

With OUT as the working directory, runs through `slowtrack.cli.main` the
README's `synth`, `pretrain`, `synth`, `track` and `eval` commands, then
`track --raw-only`, an `eval` of the raw boxes and `adapt`, which reads
its inputs from OUT/adapt.cfg, a config file the script writes first.
Each command's line, exit code, stdout and stderr go to
OUT/NN-<command>.txt, next to the sequences, models, box CSVs and logs
the commands write, so `diff -r` of the OUT directories of two checkouts
lists exactly the outputs a change moved. `--frames` sets the tracked
sequence's length (100, as in the README) and `--aux-frames` each
pre-training sequence's (40). Exits 1 if any command exits non-zero.
"""

import argparse
import contextlib
import io
import os
from pathlib import Path

from slowtrack.cli import main as slowtrack_main

INIT_BOX = "144,104,32,32"  # the first gt.csv row of the tracked sequence

# `adapt`'s inputs, given by --config so the round trip covers config files
ADAPT_CONFIG = (
    "# adapt the model to the tracked sequence\n"
    f"model=model.hftm\nframes=seq\ninit-box={INIT_BOX}\n"
)


def commands(frames: int, aux_frames: int) -> list[list[str]]:
    aux = ["--size", "140x120", "--target-side", "48"]
    seq = ["--frames", "seq", "--init-box", INIT_BOX]
    return [
        ["synth", "--pattern", "translation", "--frames", str(aux_frames), "--out", "data/t",
         "--seed", "11", *aux, "--velocity", "1,0"],
        ["synth", "--pattern", "rotation", "--frames", str(aux_frames), "--out", "data/r",
         "--seed", "12", *aux],
        ["pretrain", "--data", "data/t", "data/r", "--out", "model.hftm",
         "--lambda", "5", "--f1", "32", "--f2", "64", "--seed", "0"],
        ["synth", "--pattern", "rotation", "--frames", str(frames), "--out", "seq", "--seed", "22"],
        ["track", "--model", "model.hftm", *seq, "--out", "boxes.csv"],
        ["eval", "--pred", "boxes.csv", "--gt", "seq/gt.csv"],
        ["track", "--raw-only", *seq, "--out", "raw.csv"],
        ["eval", "--pred", "raw.csv", "--gt", "seq/gt.csv"],
        ["adapt", "--config", "adapt.cfg", "--out", "adapted.hftm"],
    ]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process `slowtrack` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = slowtrack_main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--frames", type=int, default=100)
    parser.add_argument("--aux-frames", type=int, default=40)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)
    Path("adapt.cfg").write_text(ADAPT_CONFIG, encoding="utf-8")
    failed = False
    for i, argv in enumerate(commands(args.frames, args.aux_frames), start=1):
        code, stdout, stderr = run(argv)
        name = f"{i:02d}-{argv[0]}.txt"
        Path(name).write_text(
            f"$ slowtrack {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{stdout}--- stderr\n{stderr}",
            encoding="utf-8",
        )
        print(f"{name}: exit {code}")
        failed |= code != 0
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
