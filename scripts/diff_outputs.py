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


def run_script(name: str, src: Path, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """The working tree's scripts/`name` run with `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env, **kwargs)


def extract_src(parser: argparse.ArgumentParser, ref: str, dest: Path) -> Path:
    """REF's `src/`, extracted with `git archive` under `dest`; a failure is a usage error."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src"], cwd=ROOT, capture_output=True
    )
    if archive.returncode:
        parser.error(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


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
    ref_src = extract_src(parser, args.ref, args.out / "ref")
    extra = ["--frames", args.frames, "--aux-frames", args.aux_frames]
    for src, out in ((ref_src, "ref-out"), (ROOT / "src", "tree-out")):
        if run_script("round_trip.py", src, [str(args.out / out), *extra]).returncode:
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
