"""Child process for the in-process workloads, ``study`` and ``stream``.

Started by ``run.py``::

    python3 perfbench/inproc.py WORKLOAD --seed N --seconds S \
        --trace 0|1 --work DIR [--out RESULT.json | --setup-only]

It imports the program, builds the parsers or engines and prints
``ready``; the parent times set-up from spawn to that line, which is
what a user pays before the first line can be accepted.  It then
generates its corpus from the seed (benchmark work, not timed), runs
the workload in cycles until *S* seconds have passed, checks the
outputs and writes its figures to RESULT.json.

The first cycle warms up and is checked but not timed.  With
``--trace 1`` the per-layer timers are installed on every other timed
cycle only.  The untraced cycles give the end-to-end figures, the
traced ones the per-layer figures, and interleaving them keeps slow
drift of the host out of the tracing overhead.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    DRAIN_PARAMS,
    STREAM_DATASETS,
    STUDY_PARSERS,
    dataset_contents,
    digest_lines,
    median,
    peak_rss_mb,
    percentile,
    session_sets,
    use_source_tree,
    weighted_percentile,
    write_json,
)

#: ``study``: session sets per run and HDFS blocks per set (~1.1k lines).
#: Many small sets average out how long LogSig takes to converge on
#: any one of them.
STUDY_SETS = 8
STUDY_BLOCKS = 75
#: ``stream``: generated lines per dataset, one engine per dataset.
STREAM_LINES = 10_000

perf_counter = time.perf_counter


class Cycles:
    """Cycle 0 warms up (checked, not timed); with tracing on, the timed
    cycles then alternate untraced and traced."""

    def __init__(self, trace: bool, install) -> None:
        self.ledger = None
        self._install = install
        if trace:
            from layers import Ledger

            self.ledger = Ledger()

    def traced(self, cycle: int) -> bool:
        """Set up cycle *cycle*; True when its calls are being timed."""
        if self.ledger is None:
            return False
        on = cycle > 0 and cycle % 2 == 0
        if on:
            self._install(self.ledger)
        else:
            self.ledger.uninstall()
        return on

    def done(self, cycle: int, deadline: float) -> bool:
        """Every timed mode has run twice and the time is up."""
        needed = 5 if self.ledger is not None else 3
        return cycle >= needed and perf_counter() >= deadline

    def close(self) -> None:
        if self.ledger is not None:
            self.ledger.uninstall()


def _overhead(plain: float, traced: float) -> float:
    """Traced wall time per line over untraced, minus one."""
    return plain / traced - 1.0 if plain and traced else 0.0


# ----------------------------------------------------------------------
# study: Table III, four batch parsers + PCA mining per session set
# ----------------------------------------------------------------------


def study(args) -> dict:
    from layers import install_study
    from repro.evaluation.mining_impact import (
        impact_from_parse,
        table3_parser_factory,
    )

    for name in STUDY_PARSERS:
        table3_parser_factory(name, seed=args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return {}

    sets = session_sets(args.seed, STUDY_SETS, STUDY_BLOCKS)
    digest = digest_lines(
        f"{record.session_id}\t{record.content}"
        for dataset in sets
        for record in dataset.records
    )
    set_lines = [len(dataset.records) for dataset in sets]
    cycles = Cycles(args.trace, install_study)
    # Pass times per set, untraced [0] and traced [1].
    times = [[[] for _ in sets], [[] for _ in sets]]
    scoring: list[float] = []
    expected: dict[tuple[int, str], tuple] = {}
    attempted = failed = traced_lines = 0
    deadline = perf_counter() + args.seconds
    cycle = 0
    while not cycles.done(cycle, deadline):
        traced = cycles.traced(cycle)
        for which, dataset in enumerate(sets):
            set_seed = args.seed * 1000 + which
            score_s = 0.0
            rows = []
            started = perf_counter()
            for name in STUDY_PARSERS:
                parsed = table3_parser_factory(name, seed=set_seed).parse(
                    dataset.records
                )
                scored_at = perf_counter()
                rows.append(impact_from_parse(name, parsed, dataset))
                score_s += perf_counter() - scored_at
            if cycle:
                times[traced][which].append(perf_counter() - started)
                if not traced:
                    scoring.append(score_s)
            for row in rows:
                verdict = (
                    row.parsing_accuracy,
                    row.reported,
                    row.detected,
                    row.false_alarms,
                )
                first = expected.setdefault((which, row.parser), verdict)
                if verdict != first or not 0.0 <= row.parsing_accuracy <= 1.0:
                    failed += set_lines[which]
            attempted += set_lines[which] * len(STUDY_PARSERS)
            traced_lines += set_lines[which] * len(STUDY_PARSERS) * traced
        cycle += 1
    cycles.close()

    def lines_per_s(per_set) -> float:
        total = sum(median(values) for values in per_set)
        return sum(set_lines) * len(STUDY_PARSERS) / total if total else 0.0

    # Every line of a set is answered when its pass has scored all four
    # parsers, so each pass stands for its set's lines.
    latencies = [
        (elapsed * 1e3, set_lines[which])
        for which, values in enumerate(times[0])
        for elapsed in values
    ]
    out = {
        "lines_per_s": lines_per_s(times[0]),
        "ack_p50_ms": weighted_percentile(latencies, 50),
        "ack_p99_ms": weighted_percentile(latencies, 99),
        "drain_s": median(scoring),
        "samples": {
            "lines_per_s": sum(len(values) for values in times[0]),
            "ack": sum(weight for _, weight in latencies),
            "drain_s": len(scoring),
        },
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
    }
    if cycles.ledger is not None:
        from layers import layer_values

        values = layer_values(
            cycles.ledger.totals(), cycles.ledger.samples(), lines=traced_lines
        )
        values["trace.overhead_frac"] = _overhead(
            out["lines_per_s"], lines_per_s(times[1])
        )
        out["layers"] = values
    return out


# ----------------------------------------------------------------------
# stream: a bare StreamingParser per dataset, Drain flush, delta policy
# ----------------------------------------------------------------------


def stream(args) -> dict:
    from functools import partial

    from layers import install_engine
    from repro.common.types import LogRecord
    from repro.datasets.loader import write_parse_result
    from repro.parsers import make_parser
    from repro.streaming.engine import StreamingParser

    factory = partial(make_parser, "Drain", **DRAIN_PARAMS)

    def build() -> StreamingParser:
        return StreamingParser(factory, flush_policy="delta")

    engines = [build() for _ in STREAM_DATASETS]
    print("ready", flush=True)
    if args.setup_only:
        return {}

    corpora = {
        name: dataset_contents(name, STREAM_LINES, args.seed * 1000 + index)
        for index, name in enumerate(STREAM_DATASETS)
    }
    digest = digest_lines(
        f"{name}\t{line}" for name in STREAM_DATASETS for line in corpora[name]
    )
    records = {
        name: [LogRecord(content=line) for line in lines]
        for name, lines in corpora.items()
    }
    lines = sum(len(batch) for batch in records.values())
    out_dir = os.path.join(args.work, "stream")
    os.makedirs(out_dir, exist_ok=True)
    cycles = Cycles(args.trace, install_engine)
    # Feed-through-finalize times per dataset, untraced [0] and traced [1].
    times = [{name: [] for name in STREAM_DATASETS} for _ in range(2)]
    drains: list[float] = []
    # Feed latencies of one cycle (reused, so the benchmark's own memory
    # stays flat); each untraced cycle contributes its p50 and p99.
    latencies = array("d", bytes(8 * lines))
    p50s: list[float] = []
    p99s: list[float] = []
    # Per dataset: exact hits, template hits, misses, match calls, match s.
    cache = {name: [0, 0, 0, 0, 0.0] for name in STREAM_DATASETS}
    attempted = failed = traced_lines = 0
    deadline = perf_counter() + args.seconds
    cycle = 0
    while not cycles.done(cycle, deadline):
        traced = cycles.traced(cycle)
        drain_s = 0.0
        slot = 0
        for index, name in enumerate(STREAM_DATASETS):
            engine = engines[index] if cycle == 0 else build()
            matched_before = _match_totals(cycles.ledger)
            batch = records[name]
            feed = engine.feed
            started = perf_counter()
            for record in batch:
                fed_at = perf_counter()
                feed(record)
                latencies[slot] = perf_counter() - fed_at
                slot += 1
            finalize_at = perf_counter()
            engine.finalize()
            finalized = perf_counter()
            write_parse_result(engine.result(), os.path.join(out_dir, name))
            drain_s += perf_counter() - finalize_at
            if cycle:
                times[traced][name].append(finalized - started)
            attempted += len(batch)
            if not _stream_ok(engine, len(batch)):
                failed += len(batch)
            if traced:
                traced_lines += len(batch)
                matched = _match_totals(cycles.ledger)
                for column, value in enumerate((
                    engine.cache.exact_hits,
                    engine.cache.template_hits,
                    engine.cache.misses,
                    matched[0] - matched_before[0],
                    matched[1] - matched_before[1],
                )):
                    cache[name][column] += value
        if cycle and not traced:
            drains.append(drain_s)
            ordered = sorted(latencies)
            p50s.append(percentile(ordered, 50))
            p99s.append(percentile(ordered, 99))
        cycle += 1
    cycles.close()

    def lines_per_s(per_dataset) -> float:
        total = sum(median(values) for values in per_dataset.values())
        return lines / total if total else 0.0

    out = {
        "lines_per_s": lines_per_s(times[0]),
        "ack_p50_ms": median(p50s) * 1e3,
        "ack_p99_ms": median(p99s) * 1e3,
        "drain_s": median(drains),
        "samples": {
            "lines_per_s": sum(len(values) for values in times[0].values()),
            "ack": len(p50s) * lines,
            "drain_s": len(drains),
        },
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
    }
    if cycles.ledger is not None:
        from layers import layer_values

        values = layer_values(
            cycles.ledger.totals(), cycles.ledger.samples(), lines=traced_lines
        )
        for name, (exact, template, misses, calls, match_s) in cache.items():
            lookups = exact + template + misses
            if lookups:
                values[f"cache.exact_hit_frac.{name}"] = exact / lookups
                values[f"cache.template_hit_frac.{name}"] = template / lookups
                values[f"cache.miss_frac.{name}"] = misses / lookups
            if calls:
                values[f"cache.match_us.{name}"] = match_s / calls * 1e6
        values["trace.overhead_frac"] = _overhead(
            out["lines_per_s"], lines_per_s(times[1])
        )
        out["layers"] = values
    return out


def _match_totals(ledger) -> tuple[int, float]:
    """(calls, seconds) in ``TemplateCache.match`` so far; zeros untraced."""
    if ledger is None:
        return 0, 0.0
    calls, seconds, _ = ledger.totals().get("cache.match", (0, 0.0, 0.0))
    return calls, seconds


def _stream_ok(engine, fed: int) -> bool:
    """No line left pending, and the per-event counts cover every line."""
    if engine.pending_count:
        return False
    counts = engine.event_counts()
    return sum(counts.values()) == fed == engine.counters.lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=["study", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    args.trace = bool(args.trace)
    use_source_tree()
    out = (study if args.workload == "study" else stream)(args)
    if args.setup_only:
        return 0
    out["peak_rss_mb"] = peak_rss_mb()
    write_json(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
