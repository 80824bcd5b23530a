"""The wire workloads: ``DurableSender`` → ``repro serve --protocol v2``.

All load comes from this process over one sender connection; ``serve``
runs in a child process started through ``serve_entry.py``.  A run is
``ROUNDS`` rounds, one after another, each with a ``serve`` of its own:

1. set-up: spawn ``serve``, read ``serving on HOST:PORT``, deliver one
   line per tenant (which completes the HELLO/OK handshake and
   materializes every tenant);
2. paced phase: an open loop at a fixed ``PACED_RATE`` lines/s,
   alternating tenants, on the set-up's connection.  It opens with
   ``WARMUP_LINES`` untimed lines, during which ``serve`` is stopped
   for ``STALL_S`` (see ``STALL_S``).  Each timed line's ack latency
   runs from when it was *due* to when the client parses the
   cumulative ack covering it;
3. bulk phase: a closed loop of ``send`` calls ending in ``flush()``;
4. SIGTERM once the spool is clear, then wait for ``serve`` to exit
   with its manifests written.

Each round's artifacts are then checked: each tenant's ``.structured``
file must equal a batch Drain parse of exactly the lines sent to it,
in sequence order, every manifest must verify, and ``serve`` must exit
0.  Drain times are the median over the rounds, set-up times the
median over the rounds and ``SETUP_PROBES`` probes made before them,
ack latencies are pooled, and throughput is the rounds' bulk lines over
their bulk time.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from collections import deque

from common import (
    DRAIN_PARAMS,
    ROOT,
    SETUP_PROBES,
    WIRE_TENANTS,
    dataset_contents,
    digest_lines,
    median,
    percentile,
    read_json,
)

#: Rounds per untraced run, each with its own ``serve``: drain times
#: are the median of this many loaded stops.  A process-mode stop
#: sometimes waits out a 7 s worker join (8 of 100 stops, up to two in
#: one run); two such stops do not decide a run's ``drain_s``.
ROUNDS = 5
#: Open-loop rate of the paced phase, below today's capacity so the
#: generator keeps its schedule.
PACED_RATE = 250.0
#: Untimed paced lines that open the paced phase.
WARMUP_LINES = 60
#: How long ``serve`` is stopped (SIGSTOP, then SIGCONT) during the
#: warm-up.  Neither end sets TCP_NODELAY, so a paced connection runs
#: in one of two ack regimes: fast (an ack about 0.5 ms after the line
#: was due) until the first server stall of some milliseconds, then,
#: for the rest of the connection's life, Nagle / delayed-ACK bound
#: (each ack waits for the next line, about one send period).  Left
#: alone, that first stall comes at a random point, hundreds to
#: thousands of lines in, and the median lands in either regime from
#: run to run.  Stopping ``serve`` once, before timing starts, puts
#: every run in the regime a long-lived connection settles into.
STALL_S = 0.03
#: Warm-up line at which the stall starts.
STALL_AT = 10
#: Share of a round's seconds spent in the paced phase; the bulk phase
#: gets the rest.
PACED_SHARE = 0.5
#: Generated lines per tenant; the bulk phase stops early if it runs out.
POOL_LINES = 30_000
#: Deadlines that turn a stuck run into counted failures, not a hang.
START_TIMEOUT = 60.0
FLUSH_TIMEOUT = 60.0
EXIT_TIMEOUT = 60.0

#: A shard summary line of ``serve`` reporting worker restarts.
RESTARTED = re.compile(r"\b[1-9]\d* restart\(s\)")

perf_counter = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))


class AckClock:
    """Time when the client parses each cumulative ack.

    Wraps the client module's ``parse_ack``, which the sender calls for
    every ack line it reads, and matches acks against the lines still
    awaiting one.
    """

    def __init__(self) -> None:
        import repro.service.client as client_module

        self._module = client_module
        self._original = client_module.parse_ack
        self.waiting: dict[str, deque] = {}
        self.latencies: list[float] = []
        self.last_ack = 0.0

        def parse_ack(text):
            parsed = self._original(text)
            if parsed is not None:
                now = perf_counter()
                self.last_ack = now
                queue = self.waiting.get(parsed[0])
                while queue and queue[0][0] <= parsed[1]:
                    self.latencies.append(now - queue.popleft()[1])
            return parsed

        client_module.parse_ack = parse_ack

    def expect(self, tenant: str, seq: int, due: float) -> None:
        self.waiting.setdefault(tenant, deque()).append((seq, due))

    def outstanding(self) -> int:
        return sum(len(queue) for queue in self.waiting.values())

    def close(self) -> None:
        self._module.parse_ack = self._original


class TreeMemory:
    """Peak RSS of a process's descendants, sampled from ``/proc``.

    ``VmHWM`` is each process's own high-water mark, so sampling only
    has to find every descendant before it exits.
    """

    #: Seconds between samples.
    INTERVAL = 0.25

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peaks: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _children(self, pid: int) -> list[int]:
        found = []
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
        return found

    def _sample(self) -> None:
        stack = self._children(self.pid)
        while stack:
            pid = stack.pop()
            stack.extend(self._children(pid))
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = int(line.split()[1]) / 1024.0
                            self.peaks[pid] = max(self.peaks.get(pid, 0.0), peak)
                            break
            except OSError:
                pass

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._sample()

    def stop(self) -> float:
        """Stop sampling; the summed peaks of every descendant seen."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        return sum(self.peaks.values())


class Serve:
    """One ``repro serve`` child in its own process group."""

    def __init__(self, work: str, name: str, isolation: str, trace: bool) -> None:
        self.data_dir = os.path.join(work, f"{name}-data")
        self.report = os.path.join(work, f"{name}-report.json")
        self.lines: list[str] = []
        self._ready = threading.Event()
        self.address: tuple[str, int] | None = None
        command = [
            sys.executable, os.path.join(HERE, "serve_entry.py"),
            "--report", self.report, "--trace", str(int(trace)), "--",
            "serve", "Drain", self.data_dir,
            "--protocol", "v2", "--isolation", isolation,
            "--sim-threshold", str(DRAIN_PARAMS["sim_threshold"]),
            "--depth", str(DRAIN_PARAMS["depth"]),
        ]
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.memory = TreeMemory(self.proc.pid)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith("serving on ") and self.address is None:
                host, _, port = line.split()[-1].rpartition(":")
                self.address = (host, int(port))
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> tuple[str, int]:
        if not self._ready.wait(START_TIMEOUT) or self.address is None:
            raise RuntimeError(
                "serve did not report its port:\n" + "\n".join(self.lines[-20:])
            )
        return self.address

    def terminate(self) -> float:
        """SIGTERM; returns (and keeps) the time it was sent."""
        self.terminated = perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        return self.terminated

    def wait(self) -> int:
        code = self.proc.wait(timeout=EXIT_TIMEOUT)
        self._reader.join(timeout=5.0)
        return code

    def kill(self) -> None:
        """Kill the whole group, so no serve or worker survives."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        self.memory.stop()


def _connect(serve: Serve, work: str, name: str, firsts, io=None):
    """Set-up: a sender that has delivered one line per tenant.

    That completes the HELLO/OK handshake and materializes every
    tenant's shard (and, in process mode, its worker).
    """
    from repro.observability.telemetry import Telemetry
    from repro.service.client import DurableSender

    host, port = serve.wait_ready()
    sender = DurableSender(
        host,
        port,
        "bench",
        os.path.join(work, f"{name}-spool.jsonl"),
        telemetry=Telemetry.create(trace_id="send"),
        io=io,
    )
    for tenant, line in firsts:
        sender.send(tenant, line)
    sender.flush(timeout=FLUSH_TIMEOUT)
    return sender


def probe_setup(work: str, name: str, isolation: str, firsts) -> dict:
    """One more set-up sample: start ``serve``, connect, then kill it.

    A probe is killed as soon as it is set up, and waited for, so the
    next start-up also runs on an idle host.
    """
    out: dict = {"problems": [], "failed": 0, "attempted": len(firsts)}
    serve = None
    try:
        serve = Serve(work, name, isolation, trace=False)
        sender = _connect(serve, work, name, firsts)
        out["setup_s"] = perf_counter() - serve.started
        sender.close()
    except Exception as error:  # noqa: BLE001 - any failure fails the probe
        out["failed"] = len(firsts)
        out["problems"].append(f"{name}: {type(error).__name__}: {error}")
        if serve is not None:
            out["problems"].extend(serve.lines[-10:])
    finally:
        if serve is not None:
            serve.kill()
    return out


def settle(clock: AckClock, sender) -> int:
    """Wait for every paced line's ack; returns how many never came."""
    deadline = perf_counter() + FLUSH_TIMEOUT
    while clock.outstanding() and perf_counter() < deadline:
        sender.poll(0.005)
    missing = clock.outstanding()
    clock.waiting.clear()
    return missing


def _reference(lines: list[str]) -> list[str]:
    """The ``.structured`` lines a batch Drain parse of *lines* gives."""
    from repro.common.types import LogRecord
    from repro.parsers import make_parser

    parsed = make_parser("Drain", **DRAIN_PARAMS).parse(
        [LogRecord(content=line) for line in lines]
    )
    return parsed.structured_file_lines()


def _verify(data_dir: str, sent: dict[str, list[str]]) -> tuple[int, list[str]]:
    """Lines missing, duplicated or misplaced in the artifacts."""
    from repro.resilience.durability import verify_manifest

    failed = 0
    problems = []
    for tenant, lines in sent.items():
        tenant_dir = os.path.join(data_dir, tenant)
        manifest = os.path.join(tenant_dir, "out.manifest.json")
        if not os.path.exists(manifest) or not verify_manifest(manifest).ok:
            failed += len(lines)
            problems.append(f"{tenant}: manifest missing or not verified")
            continue
        with open(os.path.join(tenant_dir, "out.structured"), encoding="utf-8") as handle:
            got = handle.read().splitlines()
        want = _reference(lines)
        wrong = sum(1 for a, b in zip(got, want) if a != b)
        wrong += abs(len(got) - len(want))
        if wrong:
            problems.append(
                f"{tenant}: {wrong} structured line(s) differ from the "
                f"batch reference ({len(got)} written, {len(want)} sent)"
            )
        failed += min(wrong, len(lines))
    return failed, problems


def run_serve(
    work: str,
    name: str,
    isolation: str,
    pools: dict[str, list[str]],
    seconds: float,
    trace: bool,
) -> dict:
    """One round: set-up, paced phase, bulk phase, drain, checks."""
    ledger = None
    io = None
    if trace:
        from layers import Ledger, timed_io

        ledger = Ledger()
        io = timed_io(ledger)
    clock = AckClock()
    sent = {tenant: [] for tenant in WIRE_TENANTS}
    cursor = {tenant: 0 for tenant in WIRE_TENANTS}
    out: dict = {"problems": []}

    def next_line(turn: int) -> tuple[str, str] | None:
        tenant = WIRE_TENANTS[turn % len(WIRE_TENANTS)]
        index = cursor[tenant]
        if index >= len(pools[tenant]):
            return None
        cursor[tenant] = index + 1
        line = pools[tenant][index]
        sent[tenant].append(line)
        return tenant, line

    serve = None
    sender = None
    stopped = None
    try:
        serve = Serve(work, name, isolation, trace)
        firsts = [next_line(turn) for turn in range(len(WIRE_TENANTS))]
        sender = _connect(serve, work, name, firsts, io=io)
        out["setup_s"] = perf_counter() - serve.started

        # Paced open loop on the set-up's connection.  Each timed line
        # is timed from when it was due; the generator waits for that
        # moment in ``select`` on the sender's socket, handing any ack
        # that arrives meanwhile to ``poll``.  Its own lateness is
        # measured from the later of the due time and the return of
        # the sender call that was running then.
        timed = int(PACED_RATE * seconds * PACED_SHARE)
        late = []
        turn = len(WIRE_TENANTS)
        start = perf_counter() + 0.005
        free = perf_counter()
        for index in range(WARMUP_LINES + timed):
            due = start + index / PACED_RATE
            now = perf_counter()
            while now < due:
                # The sender's one connection; it has no public accessor.
                sock = sender._sock
                readable, _, _ = select.select(
                    [sock] if sock is not None else [], [], [], due - now
                )
                if readable:
                    sender.poll(0.0)
                    free = perf_counter()
                now = perf_counter()
            if index >= WARMUP_LINES:
                late.append(now - max(due, free))
            elif index == STALL_AT:
                os.kill(serve.proc.pid, signal.SIGSTOP)
                stopped = now
            if stopped is not None and now - stopped >= STALL_S:
                os.kill(serve.proc.pid, signal.SIGCONT)
                stopped = None
            tenant, line = next_line(turn)
            turn += 1
            seq = len(sent[tenant])
            if index >= WARMUP_LINES:
                # Expect the ack before sending: ``send`` itself may
                # read it.  A fresh spool numbers a tenant's lines from 1.
                clock.expect(tenant, seq, due)
            if sender.send(tenant, line) != seq:
                raise RuntimeError(f"{tenant}: sender did not assign seq {seq}")
            free = perf_counter()
        out["unacked"] = settle(clock, sender)
        out["ack_latencies"] = clock.latencies
        out["late"] = late

        # Bulk closed loop ending in flush().
        if ledger is not None:
            from layers import install_client

            ledger.reset()
            install_client(ledger)
        bulk = 0
        started = perf_counter()
        stop_at = started + seconds * (1.0 - PACED_SHARE)
        while perf_counter() < stop_at:
            item = next_line(turn)
            if item is None:
                break
            sender.send(*item)
            turn += 1
            bulk += 1
        sender.flush(timeout=FLUSH_TIMEOUT)
        out["bulk_lines"] = bulk
        out["bulk_s"] = clock.last_ack - started
        if ledger is not None:
            ledger.uninstall()
        sender.close()

        terminated = serve.terminate()
        code = serve.wait()
        out["drain_s"] = perf_counter() - terminated
        workers_mb = serve.memory.stop()
        report = read_json(serve.report)
        out["peak_rss_mb"] = report["rss_mb"] + workers_mb
        out["server_ledger"] = report.get("ledger")
        out["client_ledger"] = ledger.dump() if ledger is not None else None
        # Worker restarts on a calm run explain an outlier without
        # failing it: delivery stays exactly-once across them.
        out["serve_summary"] = [
            line.strip() for line in serve.lines if RESTARTED.search(line)
        ]
        failed = out["unacked"]
        if code != 0:
            failed = sum(len(lines) for lines in sent.values())
            out["problems"].append(f"serve exited {code}")
        else:
            wrong, problems = _verify(serve.data_dir, sent)
            failed += wrong
            out["problems"].extend(problems)
        out["failed"] = min(failed, sum(len(lines) for lines in sent.values()))
    except Exception as error:  # noqa: BLE001 - any failure fails the run's lines
        out["failed"] = sum(len(lines) for lines in sent.values()) or 1
        out["problems"].append(f"{name}: {type(error).__name__}: {error}")
        if serve is not None:
            serve.kill()
            out["problems"].extend(serve.lines[-10:])
    finally:
        if stopped is not None:
            os.kill(serve.proc.pid, signal.SIGCONT)
        clock.close()
        if ledger is not None:
            ledger.uninstall()
        if sender is not None:
            sender.close()
        if serve is not None and serve.proc.poll() is None:
            serve.kill()
    out["attempted"] = sum(len(lines) for lines in sent.values()) or 1
    return out


def pools_for(seed: int) -> tuple[dict[str, list[str]], str]:
    pools = {
        tenant: dataset_contents(tenant, POOL_LINES, seed * 1000 + index)
        for index, tenant in enumerate(WIRE_TENANTS)
    }
    digest = digest_lines(
        f"{tenant}\t{line}" for tenant in WIRE_TENANTS for line in pools[tenant]
    )
    return pools, digest


def combine(rounds: list[dict], probes: list[dict] = ()) -> dict:
    """One run's figures from its rounds and set-up probes."""
    both = rounds + list(probes)
    out: dict = {
        "rounds": len(rounds),
        "setup_samples": len(both),
        "problems": [p for r in both for p in r["problems"]],
        "serve_summary": [s for r in rounds for s in r.get("serve_summary", ())],
        "failed": sum(r["failed"] for r in both),
        "attempted": sum(r["attempted"] for r in both),
    }
    if out["failed"]:
        return out  # something failed: no figures, only the failures
    latencies = sorted(x for r in rounds for x in r["ack_latencies"])
    late = sorted(x for r in rounds for x in r["late"])
    bulk = sum(r["bulk_lines"] for r in rounds)
    out.update(
        lines_per_s=bulk / sum(r["bulk_s"] for r in rounds),
        bulk_lines=bulk,
        ack_p50_ms=percentile(latencies, 50) * 1e3,
        ack_p99_ms=percentile(latencies, 99) * 1e3,
        ack_samples=len(latencies),
        late_p99_ms=percentile(late, 99) * 1e3,
        drain_s=median(r["drain_s"] for r in rounds),
        setup_s=median(r["setup_s"] for r in both),
        samples_s={
            "drain_s": [r["drain_s"] for r in rounds],
            "setup_s": [r["setup_s"] for r in both],
        },
        peak_rss_mb=max(r["peak_rss_mb"] for r in rounds),
        server_ledger=rounds[0]["server_ledger"],
        client_ledger=rounds[0]["client_ledger"],
    )
    if out["late_p99_ms"] >= out["ack_p50_ms"]:
        out["problems"].append(
            f"invalid: the paced generator ran late (p99 "
            f"{out['late_p99_ms']:.3g} ms, not below ack p50 "
            f"{out['ack_p50_ms']:.3g} ms)"
        )
    return out


def run(isolation: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """One untraced run, or (``trace``) an untraced and a traced round.

    An untraced run makes ``SETUP_PROBES`` probes, then splits *seconds*
    over ``ROUNDS`` rounds; each round of a traced run gets all of them.
    """
    pools, digest = pools_for(seed)
    if trace:
        plain = combine([run_serve(work, "plain", isolation, pools, seconds, False)])
        out = combine([run_serve(work, "traced", isolation, pools, seconds, True)])
        out["untraced"] = plain
    else:
        # Stop at the first failure: the run is lost anyway, and a
        # ``serve`` that hangs should cost one deadline, not seven.
        firsts = [(tenant, pools[tenant][0]) for tenant in WIRE_TENANTS]
        probes, rounds = [], []
        for index in range(SETUP_PROBES):
            probes.append(probe_setup(work, f"probe{index}", isolation, firsts))
            if probes[-1]["failed"]:
                break
        for index in range(ROUNDS if not probes[-1]["failed"] else 0):
            rounds.append(run_serve(
                work, f"round{index}", isolation, pools, seconds / ROUNDS, False
            ))
            if rounds[-1]["failed"]:
                break
        out = combine(rounds, probes)
    out["digest"] = digest
    return out
