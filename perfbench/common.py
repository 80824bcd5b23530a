"""Shared pieces of the benchmark: paths, statistics, corpora, results.

Everything here is benchmark-side: the program under test only ever
receives the lines and records these functions generate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys

#: Root of the checkout the benchmark runs from (parent of this folder).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for one benchmark invocation (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: The five datasets of the paper's Table I, all run by ``stream``.
STREAM_DATASETS = ("HDFS", "Proxifier", "Zookeeper", "BGL", "HPC")
#: Table III parsers, in the order each ``study`` pass runs them.
STUDY_PARSERS = ("SLCT", "LogSig", "IPLoM", "Drain")
#: Wire tenants: HDFS defeats the exact-signature memo, BGL uses it.
WIRE_TENANTS = ("HDFS", "BGL")

#: Extra start-ups per untraced run, each stopped once it is set up:
#: ``setup_s`` is the median of these and the run's own start-ups.
SETUP_PROBES = 2

#: Drain settings shared by every workload, passed explicitly so the
#: correctness reference never depends on a CLI default.
DRAIN_PARAMS = {"sim_threshold": 0.4, "depth": 4}


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def use_source_tree() -> None:
    """Import the program from the checkout's ``src`` (no install step)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of already sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def weighted_percentile(pairs, q: float) -> float:
    """Percentile of values each standing for *weight* samples."""
    pairs = sorted(pairs)
    total = sum(weight for _, weight in pairs)
    if not total:
        return 0.0
    target = q / 100.0 * total
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= target:
            return value
    return pairs[-1][0]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Corpora
# ----------------------------------------------------------------------


def digest_lines(lines) -> str:
    """sha256 over the lines, newline-terminated, as sent or parsed."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def dataset_contents(name: str, size: int, seed: int) -> list[str]:
    """*size* generated message contents of one Table I dataset."""
    use_source_tree()
    from repro.datasets.generator import iter_dataset
    from repro.datasets.registry import get_dataset_spec

    spec = get_dataset_spec(name)
    return [record.content for record in iter_dataset(spec, size, seed=seed)]


def session_sets(seed: int, count: int, blocks: int):
    """*count* seeded HDFS session sets of *blocks* blocks each."""
    use_source_tree()
    from repro.datasets.hdfs import generate_hdfs_sessions

    return [
        generate_hdfs_sessions(blocks, seed=seed * 1000 + index)
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
