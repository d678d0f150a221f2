"""Closed-loop drivers shared by the in-process workloads.

One caller sends the next request only after the previous one returns.
Untraced runs time each request in thread CPU time, with reference
timings (``perfbench.speed``) before every request, and report the times
scaled to the reference speed; traced runs alternate an untraced and a
traced execution of the same request (the order flips every request),
so the tracing overhead is measured on identical inputs in one run.

An in-process workload module provides ``setup(ctx, rep)``, returning
its state and the set-up's seconds, ``timed(ctx, state, outcome)``,
``traced(ctx, state, outcome)`` and ``finish(ctx, state, outcome)`` for
the checks that run after the timed phase.
"""

from __future__ import annotations

import statistics
import traceback
from typing import Any, Callable

from perfbench.common import Context, Outcome, clock, self_peak_rss_mb
from perfbench.speed import SpeedProbe, cpu_clock


def scaled_setup(outcome: Outcome, setup: Callable[[], tuple[Any, float]]) -> Any:
    """Run one set-up, recording its seconds scaled to the reference speed.

    ``setup()`` returns its state and the seconds that count; reference
    timings (wall clock, like the set-up) are taken just before and after.
    """
    probe = SpeedProbe(clock, reps=3)
    probe.mark()
    state, seconds = setup()
    probe.mark()
    outcome.setup_seconds.append(seconds * probe.scale())
    outcome.report.setdefault("setup_raw_s", []).append(seconds)
    return state


def run_workload(ctx: Context, module: Any) -> Outcome:
    outcome = Outcome()
    state = None
    for rep in range(ctx.setup_reps):
        state = scaled_setup(outcome, lambda: module.setup(ctx, rep))
    if ctx.trace:
        module.traced(ctx, state, outcome)
    else:
        module.timed(ctx, state, outcome)
    # Read before the checks, whose reference computations are not the
    # benchmarked work.
    outcome.peak_rss_mb = self_peak_rss_mb()
    module.finish(ctx, state, outcome)
    return outcome


def closed_loop(
    seconds: float,
    outcome: Outcome,
    call: Callable[[int], Any],
    check: Callable[[int, Any], int],
    reps: int = 3,
    around: int = 4,
) -> None:
    """Run ``call(i)`` back to back for ``seconds``, ``i = 0, 1, ...``.

    ``check`` runs outside the timed request, returns the points the
    request delivered and reports wrong values through ``outcome.fail``.
    Before every request (and after the last) the reference is timed
    ``reps`` times; each request's CPU time is scaled by the timings taken
    within ``around`` requests of it (``SpeedProbe.scale``).
    ``phase_seconds`` becomes the requests' total scaled time, so
    ``points_per_s`` is points per second of request time at the
    reference speed.
    """
    probe = SpeedProbe(cpu_clock, reps)
    raw: list[tuple[int, float]] = []
    start = clock()
    i = 0
    while True:
        outcome.attempted += 1
        probe.mark()
        t0 = cpu_clock()
        try:
            result = call(i)
        except Exception:  # a failing request is counted, the run goes on
            outcome.fail(f"request {i} raised: {traceback.format_exc(limit=3)}")
        else:
            raw.append((i, cpu_clock() - t0))
            outcome.points += check(i, result)
        i += 1
        if clock() - start >= seconds:
            break
    probe.mark()
    outcome.latencies = [t * probe.scale(j, around) for j, t in raw]
    outcome.phase_seconds = sum(outcome.latencies)
    outcome.report["raw"] = {
        "wall_phase_s": clock() - start,
        "cpu_latency_p50_ms": statistics.median(t for _, t in raw) * 1e3 if raw else 0.0,
        **probe.summary(),
    }


def traced_pairs(
    seconds: float,
    outcome: Outcome,
    untraced: Callable[[int], Any],
    traced: Callable[[int], Any],
    compare: Callable[[int, Any, Any], None],
) -> None:
    """Alternate untraced and traced runs of request ``i`` for ``seconds``.

    Sets ``trace.overhead_frac`` from the two latency medians; ``compare``
    checks that both executions agree.
    """
    plain: list[float] = []
    with_trace: list[float] = []
    start = clock()
    i = 0
    while True:
        outcome.attempted += 1
        results: dict[str, Any] = {}
        order = (("plain", untraced, plain), ("traced", traced, with_trace))
        if i % 2:
            order = order[::-1]
        try:
            for label, call, sink in order:
                t0 = clock()
                results[label] = call(i)
                sink.append(clock() - t0)
        except Exception:  # a failing request is counted, the run goes on
            outcome.fail(f"request {i} raised: {traceback.format_exc(limit=3)}")
        else:
            compare(i, results["plain"], results["traced"])
        i += 1
        if clock() - start >= seconds:
            break
    outcome.phase_seconds = clock() - start
    outcome.latencies = with_trace
    if plain and with_trace:
        outcome.layers["trace.overhead_frac"] = (
            statistics.median(with_trace) / statistics.median(plain) - 1.0
        )
