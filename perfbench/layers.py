"""Per-layer timers for the traced benchmark run.

The traced run wraps calls into each layer's public functions from the
benchmark's own files; nothing inside ``src/`` changes.  A wrapper
records, per name, the call count, the inclusive time and the *self*
time: inclusive time minus the time of the timed calls nested inside
it on the same thread.  Tables are per thread, so no lock is taken on
the hot path (and a forked worker never inherits a held lock).
"""

from __future__ import annotations

import os
import threading
import time

from common import STREAM_DATASETS, STUDY_PARSERS, median, metric

perf_counter = time.perf_counter


class Ledger:
    """Call counts and times, keyed by layer name, for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._samples: dict[str, list[float]] = {}
        self._undo: list[tuple] = []

    def _state(self):
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = {}
            local.stack = []
            self._tables.append(table)
        return table, local.stack

    def add(self, name: str, value: float) -> None:
        """Accumulate a value (a byte count, say) under *name*."""
        table, _ = self._state()
        entry = table.get(name)
        if entry is None:
            entry = table[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += value
        entry[2] += value

    def timed(self, name: str, fn, *, keep: bool = False, after=None):
        """*fn* wrapped to record under *name*; *after(args)* runs last."""
        ledger = self
        samples = self._samples.setdefault(name, []) if keep else None

        def wrapper(*args, **kwargs):
            table, stack = ledger._state()
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if samples is not None:
                    samples.append(elapsed)
                if after is not None:
                    after(args)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module) with a timed one."""
        own = vars(owner).get(attr)
        setattr(owner, attr, self.timed(name, getattr(owner, attr), **options))
        self._undo.append((owner, attr, own))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def totals(self) -> dict[str, list]:
        """``name -> [calls, inclusive_s, self_s]`` over every thread."""
        merged: dict[str, list] = {}
        for table in list(self._tables):
            for name, (calls, incl, self_s) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
        return merged

    def samples(self) -> dict[str, list[float]]:
        return {name: list(values) for name, values in self._samples.items()}

    def reset(self) -> None:
        for table in list(self._tables):
            table.clear()
        for values in self._samples.values():
            values.clear()

    def dump(self) -> dict:
        return {"totals": self.totals(), "samples": self.samples()}


# ----------------------------------------------------------------------
# Installers: one per layer group, named after the program's modules
# ----------------------------------------------------------------------


def install_engine(ledger: Ledger) -> None:
    """streaming.engine, streaming.cache, common.tokenize,
    resilience.quarantine (the screen) and the Drain flush parser."""
    import repro.streaming.engine as engine_module
    from repro.parsers.drain import DrainParser
    from repro.streaming.cache import TemplateCache
    from repro.streaming.engine import StreamingParser

    ledger.patch(StreamingParser, "feed", "engine.feed")
    ledger.patch(StreamingParser, "flush", "engine.flush", keep=True)
    ledger.patch(StreamingParser, "finalize", "engine.finalize")
    ledger.patch(engine_module, "tokenize", "tokenize")
    ledger.patch(engine_module, "is_clean_content", "screen")
    ledger.patch(TemplateCache, "match", "cache.match")
    ledger.patch(DrainParser, "parse", "parsers.Drain.parse", keep=True)


def install_study(ledger: Ledger) -> None:
    """parsers.* (batch parse), mining.* and evaluation.*."""
    import repro.evaluation.mining_impact as impact_module
    import repro.mining.anomaly as anomaly_module
    from repro.evaluation.mining_impact import table3_parser_factory

    for name in STUDY_PARSERS:
        parser_class = type(table3_parser_factory(name, seed=0))
        ledger.patch(parser_class, "parse", f"parsers.{name}.parse", keep=True)
    ledger.patch(impact_module, "f_measure", "evaluation.f_measure")
    ledger.patch(impact_module, "detect_anomalies", "mining.detect")
    ledger.patch(anomaly_module, "build_event_matrix", "mining.event_matrix")


def install_server(ledger: Ledger) -> None:
    """service.server, service.protocol, service.shard, service.workers
    and resilience.durability, plus every engine layer (thread mode
    runs the engines in the server process)."""
    import repro.service.server as server_module
    from repro.resilience.durability import AtomicWriter, RealIO
    from repro.service.protocol import BatchJournal
    from repro.service.server import IngestionService, LineServer
    from repro.service.shard import TenantShard
    from repro.service.workers import ShardSupervisor

    def reset_bytes(args) -> None:
        journal = args[0]
        try:
            ledger.add("journal.reset_bytes", os.path.getsize(journal.path))
        except OSError:
            pass

    ledger.patch(IngestionService, "submit_line_v2", "server.submit")
    ledger.patch(IngestionService, "drain", "server.drain")
    ledger.patch(LineServer, "stop", "server.stop")
    ledger.patch(server_module, "ack_line", "protocol.ack")
    ledger.patch(TenantShard, "submit_seq", "shard.submit")
    ledger.patch(ShardSupervisor, "submit_seq", "supervisor.submit")
    ledger.patch(ShardSupervisor, "drain", "supervisor.drain")
    ledger.patch(BatchJournal, "append", "journal.append")
    ledger.patch(
        BatchJournal, "reset", "journal.reset", keep=True, after=reset_bytes
    )
    ledger.patch(AtomicWriter, "__exit__", "durability.atomic_write")
    ledger.patch(RealIO, "fsync", "durability.fsync")
    ledger.patch(RealIO, "fsync_dir", "durability.fsync")
    install_engine(ledger)


def install_client(ledger: Ledger) -> None:
    """service.client: the sender's public calls and its transmissions."""
    import repro.service.client as client_module
    from repro.service.client import DurableSender

    ledger.patch(DurableSender, "send", "client.send")
    ledger.patch(DurableSender, "poll", "client.poll")
    ledger.patch(DurableSender, "flush", "client.flush")
    ledger.patch(client_module, "data_line", "client.transmit")


def timed_io(ledger: Ledger):
    """A durability IO seam whose every call is timed as spool I/O."""
    from repro.resilience.durability import RealIO

    io = RealIO()
    for attr in ("open", "write", "flush", "fsync", "replace", "fsync_dir",
                 "truncate"):
        if hasattr(io, attr):
            setattr(io, attr, ledger.timed("client.spool_io", getattr(io, attr)))
    return io


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: ``(name, unit)`` of every per-layer metric, in report order.  A layer
#: that a workload does not pass through reports 0.
LAYER_METRICS: list[tuple[str, str]] = [
    ("client.send_us", "us"),
    ("client.poll_wait_us", "us"),
    ("client.spool_io_us", "us"),
    ("client.flush_s", "s"),
    ("client.transmits_per_line", "tx/line"),
    ("protocol.ack_writes_per_line", "acks/line"),
    ("journal.append_us", "us"),
    ("journal.reset_count", "1/kline"),
    ("journal.reset_ms_p50", "ms"),
    ("journal.reset_bytes", "bytes"),
    ("server.submit_us", "us"),
    ("server.router_self_us", "us"),
    ("server.stop_s", "s"),
    ("server.drain_s", "s"),
    ("shard.submit_self_us", "us"),
    ("supervisor.submit_us", "us"),
    ("supervisor.drain_s", "s"),
    ("engine.feed_self_us", "us"),
    ("engine.flush_count", "1/kline"),
    ("engine.flush_ms_p50", "ms"),
    ("engine.flush_ms_max", "ms"),
    ("engine.finalize_s", "s"),
    ("tokenize.us", "us"),
    ("screen.us", "us"),
]
for _dataset in STREAM_DATASETS:
    LAYER_METRICS += [
        (f"cache.match_us.{_dataset}", "us"),
        (f"cache.exact_hit_frac.{_dataset}", "fraction"),
        (f"cache.template_hit_frac.{_dataset}", "fraction"),
        (f"cache.miss_frac.{_dataset}", "fraction"),
    ]
LAYER_METRICS += [(f"parsers.{name}.parse_s", "s") for name in STUDY_PARSERS]
LAYER_METRICS += [
    ("parsers.Drain.flush_us_per_line", "us"),
    ("mining.event_matrix_s", "s"),
    ("mining.detect_s", "s"),
    ("evaluation.f_measure_s", "s"),
    ("durability.atomic_writes", "1/kline"),
    ("durability.atomic_write_ms", "ms"),
    ("durability.fsyncs", "1/kline"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
]
LAYER_UNITS = dict(LAYER_METRICS)


def _mean(totals: dict, name: str, field: int = 1, scale: float = 1.0) -> float:
    entry = totals.get(name)
    if not entry or not entry[0]:
        return 0.0
    return entry[field] / entry[0] * scale


def _calls(totals: dict, name: str) -> int:
    entry = totals.get(name)
    return entry[0] if entry else 0


def _median_ms(samples: dict, name: str) -> float:
    return median(samples.get(name, ())) * 1e3


def layer_values(
    totals: dict,
    samples: dict,
    *,
    lines: int,
    client_lines: int = 0,
) -> dict[str, float]:
    """Per-layer figures from merged ledger totals and kept samples.

    *lines* is the number of lines the program carried (the base of
    every per-1000-line count); *client_lines* the lines the traced
    sender sent.
    """
    per_kline = 1000.0 / lines if lines else 0.0
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    if client_lines:
        values["client.send_us"] = _mean(totals, "client.send", 1, 1e6)
        for name, key in (
            ("client.poll_wait_us", "client.poll"),
            ("client.spool_io_us", "client.spool_io"),
        ):
            entry = totals.get(key)
            values[name] = entry[1] / client_lines * 1e6 if entry else 0.0
        values["client.flush_s"] = _mean(totals, "client.flush")
        values["client.transmits_per_line"] = (
            _calls(totals, "client.transmit") / client_lines
        )
    submits = _calls(totals, "server.submit")
    if submits:
        values["protocol.ack_writes_per_line"] = (
            _calls(totals, "protocol.ack") / submits
        )
    values["journal.append_us"] = _mean(totals, "journal.append", 1, 1e6)
    values["journal.reset_count"] = _calls(totals, "journal.reset") * per_kline
    values["journal.reset_ms_p50"] = _median_ms(samples, "journal.reset")
    values["journal.reset_bytes"] = _mean(totals, "journal.reset_bytes")
    values["server.submit_us"] = _mean(totals, "server.submit", 1, 1e6)
    values["server.router_self_us"] = _mean(totals, "server.submit", 2, 1e6)
    values["server.stop_s"] = _mean(totals, "server.stop")
    values["server.drain_s"] = _mean(totals, "server.drain")
    values["shard.submit_self_us"] = _mean(totals, "shard.submit", 2, 1e6)
    values["supervisor.submit_us"] = _mean(totals, "supervisor.submit", 1, 1e6)
    values["supervisor.drain_s"] = _mean(totals, "supervisor.drain")
    values["engine.feed_self_us"] = _mean(totals, "engine.feed", 2, 1e6)
    values["engine.flush_count"] = _calls(totals, "engine.flush") * per_kline
    values["engine.flush_ms_p50"] = _median_ms(samples, "engine.flush")
    flushes = samples.get("engine.flush", ())
    values["engine.flush_ms_max"] = max(flushes) * 1e3 if flushes else 0.0
    values["engine.finalize_s"] = _mean(totals, "engine.finalize")
    values["tokenize.us"] = _mean(totals, "tokenize", 1, 1e6)
    values["screen.us"] = _mean(totals, "screen", 1, 1e6)
    for name in STUDY_PARSERS:
        values[f"parsers.{name}.parse_s"] = _mean(totals, f"parsers.{name}.parse")
    fed = _calls(totals, "engine.feed")
    if fed:
        entry = totals.get("parsers.Drain.parse")
        values["parsers.Drain.flush_us_per_line"] = (
            entry[1] / fed * 1e6 if entry else 0.0
        )
    values["mining.event_matrix_s"] = _mean(totals, "mining.event_matrix")
    values["mining.detect_s"] = _mean(totals, "mining.detect")
    values["evaluation.f_measure_s"] = _mean(totals, "evaluation.f_measure")
    values["durability.atomic_writes"] = (
        _calls(totals, "durability.atomic_write") * per_kline
    )
    values["durability.atomic_write_ms"] = _mean(
        totals, "durability.atomic_write", 1, 1e3
    )
    values["durability.fsyncs"] = _calls(totals, "durability.fsync") * per_kline
    return values


def as_metrics(values: dict[str, float]) -> dict:
    """Every per-layer metric, in report order, with its unit."""
    return {
        name: metric(values.get(name, 0.0), unit) for name, unit in LAYER_METRICS
    }


def merge(*dumps: dict) -> tuple[dict, dict]:
    """Merge ledger dumps (several processes) into totals and samples."""
    totals: dict[str, list] = {}
    samples: dict[str, list] = {}
    for dump in dumps:
        for name, (calls, incl, self_s) in dump.get("totals", {}).items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for name, values in dump.get("samples", {}).items():
            samples.setdefault(name, []).extend(values)
    return totals, samples
