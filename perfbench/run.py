"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload study|stream|wire-thread|wire-process \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It prints every metric by name
with its unit and sample count, a correctness verdict, the seed and
the corpus digest, and as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run is made twice, untraced and then traced, and the
metrics are the per-layer ones, ``trace.overhead_frac`` included.
``README.md`` beside this file says what each workload and metric is
for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT,
    SETUP_PROBES,
    WORK_ROOT,
    median,
    metric,
    program_present,
    read_json,
    use_source_tree,
)

WORKLOADS = ("study", "stream", "wire-thread", "wire-process")
#: End-to-end metrics, in report order, with their units.
END_TO_END = (
    ("lines_per_s", "lines/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("drain_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed, but left out of the JSON result and of ``BENCHMARK.json``:
#: on the wire workloads its run-to-run spread is wider than any bound
#: the benchmark may set (see README.md).
UNBOUNDED = {"ack_p99_ms"}
#: Side runs of a traced wire-thread run: the per-layer metrics (by
#: name prefix) that each one supplies.
SIDE_RUNS = {
    "study": ("parsers.SLCT.", "parsers.LogSig.", "parsers.IPLoM.",
              "parsers.Drain.parse_s", "mining.", "evaluation."),
    "stream": ("cache.", "parsers.Drain.flush_us_per_line"),
}
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT = 150.0


def _spawn_inproc(workload: str, args, work: str, trace: bool, out: str | None):
    """Start the in-process child; returns it and its set-up time."""
    command = [
        sys.executable, os.path.join(HERE, "inproc.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--work", work,
    ]
    command += ["--out", out] if out else ["--setup-only"]
    started = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    first = child.stdout.readline()
    ready = time.perf_counter() - started
    if first.strip() != "ready":
        child.kill()
        child.wait()
        raise RuntimeError(f"{workload} child did not start: {first!r}")
    return child, ready


def _finish(child) -> None:
    try:
        child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError("in-process child overran its deadline")
    if child.returncode != 0:
        raise RuntimeError(f"in-process child exited {child.returncode}")


def run_inproc(workload: str, args, work: str, trace: bool, probes: int) -> dict:
    setups = []
    for _ in range(probes):
        child, ready = _spawn_inproc(workload, args, work, trace, None)
        _finish(child)
        setups.append(ready)
    out_path = os.path.join(work, f"{workload}-{int(trace)}.json")
    child, ready = _spawn_inproc(workload, args, work, trace, out_path)
    _finish(child)
    setups.append(ready)
    out = read_json(out_path)
    out["setup_s"] = median(setups)
    out["setup_samples"] = len(setups)
    return out


def measure(args, work: str) -> dict:
    """Run the workload; a dict of figures plus the bookkeeping."""
    trace = bool(args.trace)
    if args.workload in ("study", "stream"):
        return run_inproc(
            args.workload, args, work, trace, 0 if trace else SETUP_PROBES
        )
    import wire

    isolation = args.workload.split("-", 1)[1]
    out = wire.run(isolation, args.seed, args.seconds, trace, work)
    if trace and isolation == "thread":
        # Layer side runs: the batch parsers, mining and evaluation run
        # only in ``study``, the per-dataset caches only in ``stream``.
        # Neither is a listed workload (see README.md), so the traced
        # wire-thread run times those layers, each for half the time.
        side = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
        out["side_runs"] = {
            name: run_inproc(name, side, work, True, 0)
            for name in SIDE_RUNS
        }
    return out


def layer_metrics(workload: str, out: dict) -> dict:
    from layers import as_metrics, layer_values, merge

    if workload in ("study", "stream"):
        return as_metrics(out["layers"])
    totals, samples = merge(
        out.get("server_ledger") or {}, out.get("client_ledger") or {}
    )
    values = layer_values(
        totals, samples, lines=out["attempted"],
        client_lines=out.get("bulk_lines", 0),
    )
    values["loadgen.late_p99_ms"] = out.get("late_p99_ms", 0.0)
    for name, run in out.get("side_runs", {}).items():
        values.update(
            (metric_name, value)
            for metric_name, value in run["layers"].items()
            if metric_name.startswith(SIDE_RUNS[name])
        )
    plain = out["untraced"]
    if plain.get("lines_per_s") and out.get("lines_per_s"):
        values["trace.overhead_frac"] = (
            plain["lines_per_s"] / out["lines_per_s"] - 1.0
        )
    return as_metrics(values)


def report(args, out: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    runs = [out] + ([out["untraced"]] if out.get("untraced") else [])
    runs += list(out.get("side_runs", {}).values())
    attempted = sum(int(run.get("attempted", 0)) for run in runs) or 1
    failed = sum(int(run.get("failed", 0)) for run in runs)
    problems = [problem for run in runs for problem in run.get("problems", ())]
    correct = failed == 0 and not problems
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"corpus sha256 {out.get('digest', '?')}")
    samples = out.get("samples", {})
    counts = {
        "lines_per_s": samples.get("lines_per_s", out.get("bulk_lines", 0)),
        "ack_p50_ms": samples.get("ack", out.get("ack_samples", 0)),
        "ack_p99_ms": samples.get("ack", out.get("ack_samples", 0)),
        "drain_s": samples.get("drain_s", out.get("rounds", 1)),
        "setup_s": out.get("setup_samples", 1),
        "peak_rss_mb": out.get("rounds", 1),
    }
    if args.trace:
        try:
            metrics = layer_metrics(args.workload, out)
        except KeyError:  # a failed run has no layer figures
            metrics = {}
    else:
        metrics = {
            name: metric(out[name], unit)
            for name, unit in END_TO_END
            if name in out and name not in UNBOUNDED
        }
    for name, unit in END_TO_END:
        if name in out:
            listed = out.get("samples_s", {}).get(name)
            each = ": " + " ".join(f"{x:.4g}" for x in listed) if listed else ""
            print(f"  {name:<14} {out[name]:>14.6g} {unit:<8} "
                  f"(n={counts[name]}{each})")
    print(f"  {'failed_frac':<14} {failed / attempted:>14.6g} fraction "
          f"(n={attempted})")
    if "late_p99_ms" in out:
        print(f"  paced generator late p99 {out['late_p99_ms']:.4g} ms "
              f"(must stay below ack_p50_ms)")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for line in out.get("serve_summary", ()):
        print(f"  serve: {line}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'} "
          f"({failed} of {attempted} line(s) failed)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not program_present():
        print(
            f"error: no program under test (expected {ROOT}/src/repro); "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    use_source_tree()
    # On SIGTERM, unwind through the ``finally`` blocks that stop serve.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        try:
            out = measure(args, work)
        except Exception as error:  # noqa: BLE001 - report it as a failed run
            out = {
                "attempted": 1,
                "failed": 1,
                "problems": [f"{type(error).__name__}: {error}"],
            }
        result = report(args, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
