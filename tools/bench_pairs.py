"""Run the repository benchmark on two checkouts in alternating pairs and
summarise each end-to-end metric.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --first-seed S

Pair i (from 0) runs `python3 bench/run.py --workload W --seed S+i
--seconds T --trace 0` in each checkout, from its root, with T the
`run_seconds` of the change's BENCHMARK.json; the parent goes first in
even pairs and the change in odd ones. A line per run gives its seed,
`correct`, failed / attempted jobs and the end-to-end metrics.

Then, for each end-to-end metric of the change's BENCHMARK.json: the
median of each side, the parent's Q1-Q3, the pairs in which the change
reads better and worse (ties count for neither), how much worse the
change's median is than the parent's against the metric's bound (both
relative to the parent's median), and whether a gain may be claimed: the
change reads better in at least nine tenths of the pairs, and its median
is better than the parent's by more than the parent's Q3 - Q1. A move
within the bound reads `unresolved` in place of `within` when the
parent's Q3 - Q1 is wider than the bound times its median, unless every
run of the change reads better than every run of the parent. A run that
exits non-zero or prints no result counts as failed, with no metrics.

Edits no file: each bench run removes its own scratch directory.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def bench(checkout, workload, seed, seconds):
    """The result object of one untraced bench run, or None when the run
    exits non-zero or its last line is not one."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(metric, parent, change):
    """One line for metric ({"name", "unit", "better", "bound"}) from the
    paired values of the two sides, None where a run gave none."""
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    if len(pairs) < 2:
        return f"{metric['name']}: fewer than 2 complete pairs"
    sign = 1.0 if metric["better"] == "lower" else -1.0  # +: change worse
    olds, news = zip(*pairs)
    old, new = statistics.median(olds), statistics.median(news)
    q1, q3 = quartiles(olds)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    worse = sign * (new - old) / abs(old) if old and new != old else 0.0
    gain = wins >= 0.9 * len(pairs) and sign * (old - new) > q3 - q1
    if worse > metric["bound"]:
        verdict = "beyond"
    elif (q3 - q1 > metric["bound"] * abs(old)
          and max(sign * c for c in news) >= min(sign * p for p in olds)):
        verdict = "unresolved"  # the parent's spread hides the bound
    else:
        verdict = "within"
    return (f"{metric['name']} [{metric['unit']}]: parent {old:.6g} "
            f"(Q1-Q3 {q1:.6g}-{q3:.6g}) -> change {new:.6g}; change better "
            f"in {wins}, worse in {losses} of {len(pairs)} pairs; worse by "
            f"{100 * worse:+.2f}% "
            f"({verdict} bound {100 * metric['bound']:.0f}%); "
            f"gain claimable: {'yes' if gain else 'no'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    checkouts = dict(zip(SIDES, (args.parent_dir, args.change_dir)))
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    totals = {side: [0, 0, 0] for side in SIDES}  # runs ok, failed, attempted
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in SIDES[::-1] if pair % 2 else SIDES:
            result = bench(checkouts[side], args.workload, seed,
                           spec["run_seconds"])
            got = (result or {}).get("metrics", {})
            for m in metrics:
                entry = got.get(m["name"])
                values[side][m["name"]].append(entry and entry["value"])
            if result is None:
                print(f"pair {pair} {side} seed {seed}: run failed",
                      flush=True)
                continue
            totals[side][0] += bool(result["correct"])
            totals[side][1] += result["failed"]
            totals[side][2] += result["attempted"]
            shown = " ".join(f"{m['name']}={got[m['name']]['value']:.6g}"
                             for m in metrics if m["name"] in got)
            print(f"pair {pair} {side} seed {seed}: correct "
                  f"{str(result['correct']).lower()} failed "
                  f"{result['failed']}/{result['attempted']} {shown}",
                  flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}")
    for side in SIDES:
        correct, failed, attempted = totals[side]
        print(f"{side}: {correct} of {args.pairs} runs correct, "
              f"{failed} of {attempted} jobs failed")
    for m in metrics:
        print(summarise(m, values["parent"][m["name"]],
                        values["change"][m["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
