#!/usr/bin/env python3
"""The accuracy gate: the seed grid at a git revision's `src/` against the working tree's.

    python3 scripts/grid_gate.py OUT [--ref REF]

Extracts the `src/` of REF (default HEAD) with `git archive` into OUT/ref,
then runs this working tree's `scripts/run_synthetic_benchmark.py --grid`
twice, with that `src/` into OUT/ref-grid.txt and with the working tree's
`src/` into OUT/tree-grid.txt, both at that script's default grid. From
the replicate table each run prints, it pairs every case's learned ACE
under every replicate, d = tree - ref, and applies ROADMAP
item 9's rule: the upper end of the 95% percentile bootstrap interval of
mean(d), drawn by resampling the cases with their replicates kept together,
must lie below REF's median per-case learned replicate spread. It prints
the pairs, the exact two-sided sign test, each replicate's learned-beats-raw
count on both sides, how many raw and no-adaptation pairs are not 0 (all of
them are 0 when a change leaves those tracks alone), the same mean, sign
test and interval for the no-adaptation pairs, and item 2's older rule.

Raw-pixel tracks use no model, so they have no replicate spread. The gate
also runs each side's raw tracks of the grid's four cases at tracker seeds
RAW_SEEDS (`run_synthetic_benchmark.py --raw-gate`, into
OUT/ref-raw.txt and OUT/tree-raw.txt), which the grid does not use, and
pairs their ACEs, d = tree - ref, one pair per track. The raw rule is the
same interval over those pairs, resampled one track at a time, against a
margin of one tenth of REF's mean raw ACE over them. Each pattern's mean
raw change and mean AOR are printed, and do not gate.

Last it prints `pass` or `fail`: the gate passes when the learned pairs'
and the raw pairs' bounds both hold. Exits 0 on pass and 1 on fail or
when a run fails. OUT must not exist yet.
"""

import argparse
import math
import re
import statistics
from pathlib import Path

import numpy as np

from diff_outputs import ROOT, extract_src, run_script

BOOTSTRAP_DRAWS = 10_000
RAW_SEEDS = range(40, 80)  # the raw pairs' tracker seeds, fixed before any judging

# a case row of the first table (learned, raw, no-adapt: ACE and AOR each)
# and of the replicate table (learned ACEs and spread, no-adapt ACEs and spread)
_ROW = re.compile(r"^([a-z]+) +(\d+)((?: +\d+\.\d+)+)$", re.MULTILINE)
_COUNT = re.compile(r"^replicate (.+?): learned beats raw: (\d+)/\d+;", re.MULTILINE)
_RAW = re.compile(r"^raw ([a-z]+) (\d+) (\d+\.\d+) (\d+\.\d+)$", re.MULTILINE)


def paired_statistics(d, margin: float) -> dict:
    """Item 9's statistics of the paired differences `d` (cases x replicates).

    The sign test is exact and two-sided over the nonzero pairs. The
    interval is the 2.5 and 97.5 percentiles of mean(d) over
    BOOTSTRAP_DRAWS resamples of the cases, each drawn with its replicates,
    from `default_rng(0)`. The gate passes when its upper end lies below
    `margin`.
    """
    d = np.asarray(d, dtype=np.float64)
    rises, falls = int((d > 0).sum()), int((d < 0).sum())
    n = rises + falls
    tail = sum(math.comb(n, k) for k in range(min(rises, falls) + 1))
    draws = np.random.default_rng(0).integers(0, len(d), size=(BOOTSTRAP_DRAWS, len(d)))
    low, high = np.percentile(d.mean(axis=1)[draws].mean(axis=1), [2.5, 97.5])
    return {
        "mean": float(d.mean()),
        "rises": rises,
        "falls": falls,
        "ties": d.size - n,
        "sign_p": min(1.0, 2 * tail / 2**n),
        "low": float(low),
        "high": float(high),
        "margin": margin,
        "pass": bool(high < margin),
    }


def parse_grid(text: str) -> dict:
    """The cases, ACEs and counts that `run_synthetic_benchmark.py --grid` printed.

    `learned` and `no-adapt` are (cases, replicates) arrays from the
    replicate table, `spread` and `no-adapt spread` their spread columns,
    `raw` the raw ACE of the first table, and `beats_raw` each replicate's
    learned-beats-raw count by label.
    """
    tables = {6: {}, 8: {}}
    for name, seed, numbers in _ROW.findall(text):
        values = [float(v) for v in numbers.split()]
        if len(values) in tables:
            tables[len(values)][name, int(seed)] = values
    first, replicates = tables[6], tables[8]
    if not replicates or list(first) != list(replicates):
        raise ValueError("no grid tables, or the two tables list different cases")
    rows = np.array(list(replicates.values()))
    return {
        "cases": list(replicates),
        "learned": rows[:, 0:3],
        "spread": rows[:, 3],
        "no-adapt": rows[:, 4:7],
        "no-adapt spread": rows[:, 7],
        "raw": np.array([values[2] for values in first.values()]),
        "beats_raw": {label: int(n) for label, n in _COUNT.findall(text)},
    }


def parse_raw(text: str) -> dict:
    """The (case, seed) pairs, ACEs and AORs that `run_synthetic_benchmark.py --raw-gate` printed."""
    rows = _RAW.findall(text)
    if not rows:
        raise ValueError("no raw tracks")
    return {
        "cases": [(name, int(seed)) for name, seed, _, _ in rows],
        "ace": np.array([float(ace) for _, _, ace, _ in rows]),
        "aor": np.array([float(aor) for _, _, _, aor in rows]),
    }


def raw_rule(ref_ace, tree_ace) -> dict:
    """`paired_statistics` of the raw pairs, one track each, against a tenth of REF's mean ACE."""
    ref_ace = np.asarray(ref_ace, dtype=np.float64)
    d = np.asarray(tree_ace, dtype=np.float64) - ref_ace
    return paired_statistics(d[:, None], float(ref_ace.mean()) / 10)


def summary(stats: dict, pairs: int) -> tuple[str, str]:
    """The mean, sign-test and interval lines of `paired_statistics` output."""
    return (
        f"mean change {stats['mean']:+.3f} px over {pairs} pairs: {stats['rises']} rose, "
        f"{stats['falls']} fell, {stats['ties']} tied; sign test p = {stats['sign_p']:.3f}",
        f"95% bootstrap interval of the mean change: [{stats['low']:+.3f}, {stats['high']:+.3f}] px "
        f"({BOOTSTRAP_DRAWS} case resamples)",
    )


def item2_flags(ref: dict, tree: dict) -> list[str]:
    """Item 2's rule on the first replicate: a lost learned-beats-raw case, or a rise above 0.25 px."""
    first = next(iter(ref["beats_raw"]))
    lost = ref["beats_raw"][first] - tree["beats_raw"][first]
    flags = [f"learned beats raw lost {lost} cases"] if lost > 1 else []
    rises = tree["learned"][:, 0] - ref["learned"][:, 0]
    flags += [f"{name} seed {seed} {rise:+.2f} px"
              for (name, seed), rise in zip(tree["cases"], rises) if rise > 0.25]
    return flags


def report(ref: dict, tree: dict, ref_raw: dict, tree_raw: dict) -> bool:
    """Print the pairs and the statistics; True when the gate passes."""
    if ref["cases"] != tree["cases"] or list(ref["beats_raw"]) != list(tree["beats_raw"]):
        raise ValueError("the two grids list different cases or replicates")
    if ref_raw["cases"] != tree_raw["cases"]:
        raise ValueError("the two raw runs list different tracks")
    d = tree["learned"] - ref["learned"]
    print(f"{'case':<12} {'seed':>4}  learned ACE change per replicate (tree - ref, px)")
    for (name, seed), row in zip(tree["cases"], d):
        print(f"{name:<12} {seed:>4}  " + " ".join(f"{v:+6.2f}" for v in row))
    for kind in ("raw", "no-adapt"):
        moved = tree[kind] != ref[kind]
        print(f"{kind} pairs not 0: {int(moved.sum())} of {moved.size}")
    labels = ", ".join(ref["beats_raw"])
    for side, grid in (("ref", ref), ("tree", tree)):
        counts = ", ".join(str(n) for n in grid["beats_raw"].values())
        print(f"learned beats raw ({labels}): {side} {counts}")
    stats = paired_statistics(d, statistics.median(ref["spread"]))
    print("\n".join(summary(stats, d.size)))
    print(f"margin: the ref's median per-case learned replicate spread, {stats['margin']:.3f} px")
    # no-adaptation tracks rank with a library too, so a change to ranking moves them
    na = paired_statistics(
        tree["no-adapt"] - ref["no-adapt"], statistics.median(ref["no-adapt spread"])
    )
    for line in summary(na, d.size):
        print(f"no-adapt (not gating): {line}")
    print(f"no-adapt (not gating): the ref's median per-case no-adapt replicate spread, "
          f"{na['margin']:.3f} px")
    flags = item2_flags(ref, tree)
    print("item 2's rule (first replicate, not gating): "
          + (f"flags {'; '.join(flags)}" if flags else "holds"))

    raw = raw_rule(ref_raw["ace"], tree_raw["ace"])
    d = tree_raw["ace"] - ref_raw["ace"]
    names = [name for name, _ in ref_raw["cases"]]
    for name in dict.fromkeys(names):
        at = np.array(names) == name
        print(f"raw {name} (not gating): mean change {d[at].mean():+.3f} px; "
              f"AOR {ref_raw['aor'][at].mean():.3f} -> {tree_raw['aor'][at].mean():.3f}")
    for line in summary(raw, d.size):
        print(f"raw: {line}")
    print(f"raw margin: a tenth of the ref's mean raw ACE, {raw['margin']:.3f} px")
    passed = stats["pass"] and raw["pass"]
    print("pass" if passed else "fail")
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--ref", default="HEAD")
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} exists")
    ref_src = extract_src(parser, args.ref, args.out / "ref")
    parsed = {}
    for src, side in ((ref_src, "ref"), (ROOT / "src", "tree")):
        for kind, flags, parse in (("grid", ["--grid"], parse_grid),
                                   ("raw", ["--raw-gate"], parse_raw)):
            run = run_script("run_synthetic_benchmark.py", src, flags,
                             capture_output=True, text=True)
            (args.out / f"{side}-{kind}.txt").write_text(run.stdout + run.stderr)
            if run.returncode:
                print(f"the {kind} run with {src} failed; see {args.out / f'{side}-{kind}.txt'}")
                return 1
            parsed[side, kind] = parse(run.stdout)
    passed = report(parsed["ref", "grid"], parsed["tree", "grid"],
                    parsed["ref", "raw"], parsed["tree", "raw"])
    return int(not passed)


if __name__ == "__main__":
    raise SystemExit(main())
