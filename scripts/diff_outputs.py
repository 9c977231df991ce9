#!/usr/bin/env python3
"""The round trip's outputs at a git revision's `src/` against the working tree's.

    python3 scripts/diff_outputs.py OUT [--ref REF] [--frames N] [--aux-frames N]

Extracts the `src/` of REF (default HEAD) with `git archive` into OUT/ref,
then runs this working tree's `scripts/round_trip.py` twice, with that
`src/` into OUT/ref-out and with the working tree's `src/` into
OUT/tree-out; `--frames` and `--aux-frames` are passed through. Lists
each path whose bytes differ, or that only one run wrote, and exits 0
when the outputs are identical and 1 when they are not or a round trip
failed. OUT must not exist yet.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def round_trip(src: Path, out: Path, extra: list[str]) -> int:
    """Exit code of the working tree's round trip with `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    script = ROOT / "scripts" / "round_trip.py"
    return subprocess.run([sys.executable, str(script), str(out), *extra], env=env).returncode


def contents(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--ref", default="HEAD")
    parser.add_argument("--frames", default="100")
    parser.add_argument("--aux-frames", default="40")
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} exists")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", args.ref, "src"], cwd=ROOT, capture_output=True
    )
    if archive.returncode:
        parser.error(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(args.out / "ref", filter="data")
    extra = ["--frames", args.frames, "--aux-frames", args.aux_frames]
    for src, out in ((args.out / "ref" / "src", "ref-out"), (ROOT / "src", "tree-out")):
        if round_trip(src, args.out / out, extra):
            print(f"the round trip with {src} failed; see {args.out / out}")
            return 1
    ref, tree = contents(args.out / "ref-out"), contents(args.out / "tree-out")
    differ = sorted(name for name in ref.keys() | tree.keys() if ref.get(name) != tree.get(name))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(ref.keys() | tree.keys())} outputs differ from {args.ref}")
    return int(bool(differ))


if __name__ == "__main__":
    raise SystemExit(main())
