"""Paired comparison of two commits on the benchmark.

Collect alternating pairs from two checkouts (the parent and the
change), pair *k* on seed *k* (from 1), with the side that runs first
alternating from pair to pair::

    python3 perfbench/compare.py pairs --parent ../parent --change . \
        --workload stream --workload wire-thread --pairs 10 \
        --seconds 14 --out-parent parent.jsonl --out-change change.jsonl

Then report, per workload and end-to-end metric, each side's median
and quartiles, the change's win fraction over the pairs, and a
verdict::

    python3 perfbench/compare.py report parent.jsonl change.jsonl

Verdicts follow the rule the benchmark is held to: ``gain`` when the
change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the parent's own quartile spread;
``worse`` when the change's median is worse than the parent's by more
than the metric's bound from ``BENCHMARK.json``; ``unresolved`` when
the parent's run-to-run spread exceeds that bound (unless every change
run beats every parent run); ``no worse`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, quartiles  # noqa: E402

#: Fraction of pairs the change must win to claim a gain.
WIN_FRACTION = 0.9


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in *checkout*; its final JSON line, tagged."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}
    }
    digest = next(
        (line.split()[-1] for line in lines if line.startswith("corpus sha256")),
        None,
    )
    result.update(workload=workload, seed=seed, digest=digest)
    return result


def collect_pairs(args) -> int:
    with open(args.out_parent, "a", encoding="utf-8") as parent_out, open(
        args.out_change, "a", encoding="utf-8"
    ) as change_out:
        for pair in range(args.pairs):
            seed = pair + 1
            for workload in args.workload:
                sides = [("parent", args.parent, parent_out),
                         ("change", args.change, change_out)]
                if pair % 2:
                    sides.reverse()
                for side, checkout, out in sides:
                    result = run_once(checkout, workload, seed, args.seconds)
                    result.update(pair=pair, side=side)
                    out.write(json.dumps(result) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: "
                          f"correct={result['correct']}", flush=True)
    return 0


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verdict(parent: list[float], change: list[float], pairs, better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, win fraction)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pairs and win_frac >= WIN_FRACTION and abs(cm - pm) > (p3 - p1):
        return "gain", win_frac
    beats_all = bool(parent and change) and (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if pm and (p3 - p1) / abs(pm) > bound and not beats_all:
        return "unresolved", win_frac
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "worse", win_frac
    return "no worse", win_frac


def report(args) -> int:
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load(args.parent), load(args.change)
    status = 0
    for label, runs in (("parent", parent), ("change", change)):
        bad = [r for r in runs if not r.get("correct")]
        if bad:
            print(f"{label}: {len(bad)} run(s) failed their correctness check")
            status = 1
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    header = (f"{'workload':<13} {'metric':<13} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>6}  verdict")
    print(header)
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name = entry["name"]

            def values(runs):
                return {
                    (r.get("pair"), r["seed"]): r["metrics"][name]["value"]
                    for r in runs
                    if r["workload"] == workload and name in r.get("metrics", {})
                }

            p_vals, c_vals = values(parent), values(change)
            if not p_vals or not c_vals:
                continue
            pairs = [(p_vals[key], c_vals[key]) for key in p_vals if key in c_vals]
            outcome, win_frac = verdict(
                list(p_vals.values()), list(c_vals.values()), pairs,
                entry["better"], entry["bound"],
            )
            if outcome == "worse":
                status = 1
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<13} {name:<13} "
                  f"{fmt.format(*quartiles(p_vals.values())):>30} "
                  f"{fmt.format(*quartiles(c_vals.values())):>30} "
                  f"{win_frac:>6.2f}  {outcome} (n={len(pairs)} pairs)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    commands = parser.add_subparsers(dest="command", required=True)
    pairs = commands.add_parser("pairs", help="collect alternating pairs")
    pairs.add_argument("--parent", required=True, help="parent checkout root")
    pairs.add_argument("--change", required=True, help="change checkout root")
    pairs.add_argument("--workload", action="append", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--seconds", type=float, required=True)
    pairs.add_argument("--out-parent", required=True)
    pairs.add_argument("--out-change", required=True)
    rep = commands.add_parser("report", help="compare two result sets")
    rep.add_argument("parent")
    rep.add_argument("change")
    rep.add_argument(
        "--benchmark", default=os.path.join(ROOT, "BENCHMARK.json")
    )
    args = parser.parse_args()
    return collect_pairs(args) if args.command == "pairs" else report(args)


if __name__ == "__main__":
    sys.exit(main())
