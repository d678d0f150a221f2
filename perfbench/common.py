"""Shared plumbing: the tail rule, the run outcome, metrics, environment."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: The checkout the benchmark runs in: ``perfbench/`` sits at its root.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (temp caches, ledgers, daemon logs, traces)
#: lives under here; the directory is git-ignored.
SCRATCH = ROOT / ".perfbench"

#: High-resolution in-process timer for latencies.
clock = time.perf_counter
#: System-wide monotonic clock (CLOCK_MONOTONIC on Linux): stamps taken
#: in the daemon and in the load generator are comparable.
shared_clock = time.monotonic

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  Counts and times are per request
#: (per estimate on ``rare-estimate``); ``*_frac`` are shares.
PER_LAYER = {
    "cuts.find_ms": "ms",
    "cuts.verify_ms": "ms",
    "assignments.ms": "ms",
    "assignments.count": "count",
    "arrays.build_ms": "ms",
    "arrays.entries": "count",
    "arrays.flow_calls": "count",
    "arrays.solves_per_entry": "ratio",
    "flow.augmenting_paths": "count",
    "flow.solves": "count",
    "accumulate.ms": "ms",
    "accumulate.classes": "count",
    "sweep.columns_ms": "ms",
    "sweep.grid_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_frac": "fraction",
    "cache.bytes_read": "bytes",
    "cache.stores": "count",
    "cache.evictions": "count",
    "serve.decode_ms": "ms",
    "serve.answer_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.coalesced_frac": "fraction",
    "serve.warm_frac": "fraction",
    "loadgen.late_ms": "ms",
    "rare.samples": "count",
    "rare.spectrum_solves": "count",
    "rare.solves_per_sample": "ratio",
    "rare.spectrum_ms": "ms",
    "rare.ci_miss_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}

#: The tail rule's percentile ladder in basis points (1/100 of a percent):
#: every whole percentile from 50 to 99, then 99.5, 99.9, 99.95, 99.99.
TAIL_LADDER_BP = tuple(range(5000, 10000, 100)) + (9950, 9990, 9995, 9999)
#: The tail is the highest ladder percentile with at least this many
#: samples ranked beyond it.
MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run (missing program, daemon that never starts)."""


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    beyond: int
    samples: int


def nearest_rank_index(n: int, bp: int) -> int:
    """0-based nearest-rank index of percentile ``bp / 100`` among ``n``."""
    return max(0, -(-bp * n // 10000) - 1)


def tail(values: Sequence[float]) -> Tail:
    """The highest ladder percentile that still has >= 10 samples beyond it.

    With fewer than 20 samples no ladder percentile qualifies (even the
    median has fewer than 10 above it); the tail is then the maximum,
    recorded as percentile 100 with 0 samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    best = None
    for bp in TAIL_LADDER_BP:
        index = nearest_rank_index(n, bp)
        if n - 1 - index >= MIN_BEYOND:
            best = (bp, index)
    if best is None:
        return Tail(ordered[-1], 100.0, 0, n)
    bp, index = best
    return Tail(ordered[index], bp / 100.0, n - 1 - index, n)


def harrell_davis_median(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median of ``values``.

    A weighted mean of all order statistics, weighted by the Beta((n+1)/2,
    (n+1)/2) density over their ranks.  Request times bunch into bands
    (network shapes, sample batches of the rare-event estimator), and the
    sample median jumps across the gap between two bands when their
    shares shift by one request; this estimate moves smoothly.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    if n == 1:
        return float(ordered[0])
    steps = 64  # integration points per rank
    a = (n + 1) / 2.0
    inner = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_density = (a - 1) * (np.log(inner) + np.log1p(-inner))
    density = np.concatenate(([0.0], np.exp(log_density - log_density.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ ordered)


def same_float(a: float, b: float) -> bool:
    """Bit-for-bit equality of two floats (``-0.0 != 0.0``, NaN == NaN)."""
    return float(a).hex() == float(b).hex()


@dataclass(frozen=True)
class Context:
    """One run's settings, from the command line."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    run_dir: Path  # private temp directory, removed when the run ends
    cpus: int = 1  # CPUs the run was given (nproc), before it pinned itself to one

    @property
    def setup_reps(self) -> int:
        """Set-up repetitions; ``setup_s`` is their median."""
        return 1 if self.smoke or self.trace else 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    latencies: list[float] = field(default_factory=list)  # seconds per request
    points: int = 0
    phase_seconds: float = 0.0
    setup_seconds: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)
    tracer: Any = None  # the traced run's spans, written out at the end
    results: dict[str, Any] = field(default_factory=dict)  # workload data for its checks

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed or wrong requests, keeping the first reasons."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def end_to_end(self) -> dict[str, dict[str, Any]]:
        latencies_ms = [s * 1e3 for s in self.latencies] or [0.0]
        the_tail = tail(latencies_ms)
        self.report["latency_sample_median_ms"] = statistics.median(latencies_ms)
        self.report["latency_tail"] = {
            "percentile": the_tail.percentile,
            "samples_beyond": the_tail.beyond,
            "samples": the_tail.samples,
        }
        values = {
            "setup_s": statistics.median(self.setup_seconds or [0.0]),
            "latency_p50_ms": harrell_davis_median(latencies_ms),
            "latency_tail_ms": the_tail.value,
            "points_per_s": self.points / self.phase_seconds if self.phase_seconds else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}

    def per_layer(self) -> dict[str, dict[str, Any]]:
        return {
            name: {"value": float(self.layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def pid_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of another live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # utime and stime are fields 14 and 15 of stat(5); 12 and 13 after the name.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def program_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_import(modules: Sequence[str]) -> None:
    """Start a fresh interpreter that imports ``modules`` and exits.

    The set-up of every workload repeats this (inside its timed span),
    because the benchmark's own process pays its imports only once.
    """
    code = "import " + ", ".join(modules)
    subprocess.run(
        [sys.executable, "-c", code],
        env=program_env(),
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_to_one_cpu() -> int | None:
    """Keep this process, and every process it starts, on one CPU.

    The speed reference (``perfbench.speed``) then runs on the CPU the
    measured work runs on, however differently the host loads its CPUs;
    the daemon of ``serve-mixed`` and its load generator share it.
    Returns the CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def bottlenecked(
    rng, *, source_links: int, sink_links: int, k: int, d: int, probabilities=None
):
    """A seeded ``bottlenecked_network`` whose designed cut is admissible.

    The generator occasionally wires a side so that its designed k-link
    cut does not split the network into exactly two components; such a
    draw has no bottleneck and is replaced by the next one from ``rng``.
    With a ``probabilities`` generator, every link's failure probability
    is redrawn from it, uniform on the generator's default (0.05, 0.3):
    the structure — and so the work a query costs — comes from ``rng``,
    the probabilities from the other stream.
    """
    from repro.exceptions import DecompositionError
    from repro.graph.cuts import verify_bottleneck
    from repro.graph.generators import bottlenecked_network

    for _ in range(100):
        net = bottlenecked_network(
            source_side_links=source_links,
            sink_side_links=sink_links,
            num_bottlenecks=k,
            demand=d,
            seed=rng,
        )
        try:
            verify_bottleneck(net, "s", "t", list(range(k)))
        except DecompositionError:
            continue
        if probabilities is None:
            return net
        return net.with_failure_probabilities(
            probabilities.uniform(0.05, 0.3, size=net.num_links).tolist()
        )
    raise BenchError("no admissible bottlenecked network in 100 draws")

