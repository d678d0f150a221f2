"""Process-parallel naive enumeration.

The naive algorithm is embarrassingly parallel: the ``2^|E|``
configuration space partitions into contiguous index ranges, each
worker builds its own :class:`~repro.core.feasibility.FeasibilityOracle`
(the residual template is cheap) and sums the probability of the
feasible configurations in its range, and the partial sums add up.

The split is by the **high bits** of the configuration mask, so every
worker handles one subtree of the configuration lattice; monotone
pruning works within a worker's own high-bit pattern (the low-bit
lattice is complete inside each chunk).

This is the classic HPC decomposition (owner-computes over a static
block partition — the multiprocessing analogue of the mpi4py pattern
in the domain guides); speedup is near-linear once per-configuration
work dominates the fork overhead, which the X2 benchmark measures.
"""

from __future__ import annotations

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.engine import default_workers, partition_lattice, run_chunked, run_counted
from repro.core.feasibility import FeasibilityOracle
from repro.core.naive import MAX_NAIVE_BITS
from repro.core.result import ReliabilityResult
from repro.core.summation import KahanSum, prob_fsum
from repro.exceptions import EstimationError
from repro.graph.io import from_dict, to_dict
from repro.graph.network import FlowNetwork
from repro.obs.recorder import count, current_recorder, span, wallclock
from repro.obs.telemetry import current_spool_dir, spool_chunk_events
from repro.probability.bitset import popcount_array
from repro.probability.enumeration import check_enumerable, configuration_probabilities

__all__ = ["parallel_naive_reliability", "default_workers"]


def _worker_sum(
    net_data: dict,
    source,
    sink,
    rate: int,
    low_bits: int,
    high_pattern: int,
    prune: bool,
    spool_dir: str | None = None,
    capture: bool = False,
) -> tuple[float, int, dict[str, int | float]]:
    """Sum feasible-configuration probability over one high-bit chunk.

    Runs in a separate process; receives the network as a plain dict
    (cheap, avoids pickling library objects across versions).  Returns
    the chunk's sum, its solve count and, with ``capture``, the counters
    it recorded (oracle solves, the solver's own counters) for the
    parent to replay.  When a telemetry session is open, the same
    counters are spooled as a ``parallel.chunk`` worker stream.
    """
    start = wallclock()
    net = from_dict(net_data)
    (value, calls), counters = run_counted(
        capture, lambda: _chunk_sum(net, source, sink, rate, low_bits, high_pattern, prune)
    )
    if spool_dir:
        spool_chunk_events(
            spool_dir,
            "parallel.chunk",
            attrs={"chunk": high_pattern},
            seconds=wallclock() - start,
            counters=counters,
        )
    return value, calls, counters


def _chunk_sum(
    net: FlowNetwork,
    source,
    sink,
    rate: int,
    low_bits: int,
    high_pattern: int,
    prune: bool,
) -> tuple[float, int]:
    oracle = FeasibilityOracle(net, source, sink, rate)
    probabilities = configuration_probabilities(net)
    check_enumerable(low_bits, limit=MAX_NAIVE_BITS)
    size = 1 << low_bits
    base = high_pattern << low_bits
    total = KahanSum()
    if not prune:
        for low in range(size):  # repro: noqa[RR109] cold ablation path of the chunk worker, kept byte-identical
            if oracle.feasible(base | low):
                total.add(float(probabilities[base | low]))
        return total.value, oracle.calls

    counts = popcount_array(low_bits)
    order = np.argsort(-counts.astype(np.int16), kind="stable")
    feasible = np.zeros(size, dtype=bool)
    for low_np in order:
        low = int(low_np)
        doomed = False
        bits = ~low & (size - 1)
        while bits:
            lowest = bits & -bits
            if not feasible[low | lowest]:
                doomed = True
                break
            bits ^= lowest
        if doomed:
            continue
        if oracle.feasible(base | low):
            feasible[low] = True
            total.add(float(probabilities[base | low]))
    return total.value, oracle.calls


def parallel_naive_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    workers: int | None = None,
    prune: bool = True,
) -> ReliabilityResult:
    """Exact naive reliability computed across a process pool.

    Identical value to :func:`repro.core.naive.naive_reliability`
    (a test pins it).  The chunk count is the smallest power of two
    >= ``workers``; each chunk fixes that many high bits of the
    configuration mask.

    Note: within-chunk pruning sees only same-chunk supersets, so the
    total max-flow call count is somewhat higher than the serial
    pruned scan — the price of independence between workers.
    """
    demand.validate_against(net)
    m = net.num_links
    check_enumerable(m, limit=MAX_NAIVE_BITS)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise EstimationError("workers must be >= 1")

    plan = partition_lattice(m, workers)
    net_data = to_dict(net)
    spool = current_spool_dir()
    capture = current_recorder() is not None
    args = [
        (
            net_data,
            demand.source,
            demand.sink,
            demand.rate,
            plan.low_bits,
            pattern,
            prune,
            str(spool) if spool is not None else None,
            capture,
        )
        for pattern in range(plan.chunks)
    ]
    results = run_chunked(_worker_sum, args, workers=workers)
    # Every chunk's counters were captured (a pooled chunk's recorder is
    # invisible here; in-process the capture keeps them from counting
    # twice), so replay them, one span per chunk, as the
    # realization-array engine does.
    for pattern, (_, _, counters) in enumerate(results):
        with span("parallel.chunk", chunk=pattern):
            for name, amount in counters.items():
                count(name, amount)
    value = prob_fsum(r[0] for r in results)
    calls = int(sum(r[1] for r in results))
    return ReliabilityResult(
        value=value,
        method="naive-parallel",
        flow_calls=calls,
        configurations=1 << m,
        details={"workers": workers, "chunks": plan.chunks, "pruned": bool(prune)},
    )
