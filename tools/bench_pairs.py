#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree in alternating pairs.

usage: python tools/bench_pairs.py PARENT_REV --workload W --pairs N --seconds S [--seed K]

Run it from anywhere inside the repository.  It checks PARENT_REV out in a
temporary ``git worktree`` outside the repository (under ``$TMPDIR``) and
removes it afterwards.  Pair i runs ``perfbench/run.py --workload W --seed K+i
--seconds S --trace 0`` once in the parent checkout and once in the working
tree, each in a fresh process with its own ``perfbench/``; the parent runs first
in even pairs and the change in odd ones.  For every end-to-end metric of
``BENCHMARK.json`` it prints each pair, each side's median and quartiles, and
the pairs the change won, lost and tied.  A metric is marked as a gain when the
change wins at least nine tenths of the pairs, ties counting for neither side,
and its median beats the parent's by more than the parent's interquartile range.
The script writes nothing under ``perfbench/`` or to ``BENCHMARK.json``; the
runs themselves write their results to ``perfbench/_out/``, which git ignores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better: str) -> dict:
    """Quartiles of each side, the change's wins, losses and ties over the pairs
    (parent[i], change[i]), and whether they make a gain."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: the change won
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p, "change": c, "wins": wins, "losses": losses,
        "ties": len(gains) - wins - losses,
        "gain": wins >= 0.9 * len(gains) and sign * (p[1] - c[1]) > p[2] - p[0],
    }


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in the checkout ``root``, each
    metric reduced to its value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark run in {root} exited {proc.returncode}")
    doc = json.loads(lines[-1])
    doc["metrics"] = {name: m["value"] for name, m in doc["metrics"].items()}
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    here = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], stdout=subprocess.PIPE,
                               text=True, check=True).stdout.strip())
    metrics = json.loads((here / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(here), "worktree", "add", "--detach", str(parent),
                        args.parent_rev], check=True, stdout=subprocess.DEVNULL)
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("parent", parent), ("change", here)]
                for side, root in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_side(root, args.workload, seed, args.seconds))
                first = order[i % 2][0]
                shown = " ".join(
                    f"{m['name']}={runs['parent'][-1]['metrics'][m['name']]:.6g}"
                    f"->{runs['change'][-1]['metrics'][m['name']]:.6g}" for m in metrics)
                status = " ".join(f"{side}: correct={r[-1]['correct']} failed={r[-1]['failed']}"
                                  for side, r in runs.items())
                print(f"pair {i + 1} seed {seed} ({first} first): {shown}  [{status}]",
                      flush=True)
        finally:
            subprocess.run(["git", "-C", str(here), "worktree", "remove", "--force",
                            str(parent)], check=False)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, parent "
          f"{args.parent_rev} vs working tree (median [quartiles])")
    for m in metrics:
        name = m["name"]
        s = summarize([r["metrics"][name] for r in runs["parent"]],
                      [r["metrics"][name] for r in runs["change"]], m["better"])
        p, c = s["parent"], s["change"]
        print(f"  {name:<16} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  change {c[1]:.6g} "
              f"[{c[0]:.6g}, {c[2]:.6g}] {m['unit']}  change won {s['wins']}, lost "
              f"{s['losses']}, tied {s['ties']}{'  GAIN' if s['gain'] else ''}")
    bad = [f"{side} pair {i + 1}" for side, r in runs.items() for i, doc in enumerate(r)
           if not doc["correct"] or doc["failed"]]
    print("  every run correct with 0 failed" if not bad else "  NOT CORRECT: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
