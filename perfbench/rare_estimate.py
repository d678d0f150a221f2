"""``rare-estimate``: permutation Monte-Carlo to a stated accuracy.

Each request is one ``compute_reliability(method="rare")`` estimate, run
until its confidence interval's relative error on the unreliability is
at most 10 %, on the 30-link chained network of ``bench_rare.py`` at
link failure probability 1e-5 (unreliability about 1e-9, 2^30 states).
The estimator seed differs per request and comes from the workload
seed.  Latency is the time to that stated accuracy.  Only this workload
exercises ``core.rare`` and its incremental kill sequences.

Checks: every estimate must reach the target accuracy, and the exact
``method="chain"`` value is compared with every reported interval.
Interval misses are counted and reported.  A 95 % interval misses about
one estimate in twenty by design, so a miss fails the run only when it
is far out of line: the estimate is more than ``WRONG_SIGMAS`` standard
errors from the exact value, or the run's miss count is too high for a
95 % interval (binomial tail probability below ``COVERAGE_ALPHA``).
"""

from __future__ import annotations

import math

import numpy as np

from perfbench.common import Context, Outcome, clock, fresh_import, same_float
from perfbench.loops import closed_loop, traced_pairs
from perfbench.tracing import Tracer

WHY = (
    "five-nines estimation beyond exact reach: the only workload on core.rare and "
    "its incremental kill sequences; latency is time to 10% relative error"
)

TARGET_RELATIVE_ERROR = 0.10
#: Permutation budget cap; the target is reached long before it.
BUDGET = 1_000_000
CONFIDENCE = 0.95
WRONG_SIGMAS = 5.3
COVERAGE_ALPHA = 1e-6
#: Reference timings before each estimate: one takes over a second, so ten
#: (~40 ms) cost little.  Each estimate is scaled by the timings of the
#: marks from one estimate before it to one after it: about 40, over ~5 s.
REFERENCE_REPS = 10
REFERENCE_AROUND = 1

IMPORTS = ("repro.core.api", "repro.graph.generators", "repro.graph.io")


def make_network(smoke: bool) -> dict:
    """The chained network as a graph.io dict, with its chain cuts."""
    from repro.graph.generators import chained_network
    from repro.graph.io import to_dict

    if smoke:
        net = chained_network([2, 4, 2], cut_sizes=2, demand=2, seed=5, p_range=(1e-3, 1e-3))
    else:
        net = chained_network(
            [2, 4, 4, 4, 4, 2], cut_sizes=2, demand=2, seed=5, p_range=(1e-5, 1e-5)
        )
    return {"network": to_dict(net), "cuts": net._chain_cut_indices, "rate": 2}


def estimator_seeds(seed: int, count: int) -> list[int]:
    return np.random.default_rng([seed, 7]).integers(0, 2**63, size=count).tolist()


def estimate(inp: dict, seed: int):
    from repro.core.api import compute_reliability
    from repro.core.demand import FlowDemand
    from repro.graph.io import from_dict

    return compute_reliability(
        from_dict(inp["network"]),
        demand=FlowDemand("s", "t", inp["rate"]),
        method="rare",
        num_samples=BUDGET,
        target_relative_error=TARGET_RELATIVE_ERROR,
        confidence=CONFIDENCE,
        seed=seed,
    )


def exact_unreliability(inp: dict) -> float:
    from repro.core.api import compute_reliability
    from repro.core.demand import FlowDemand
    from repro.graph.io import from_dict

    exact = compute_reliability(
        from_dict(inp["network"]),
        demand=FlowDemand("s", "t", inp["rate"]),
        method="chain",
        cuts=inp["cuts"],
    )
    return 1.0 - exact.value


def setup(ctx: Context, rep: int) -> tuple[dict, float]:
    start = clock()
    fresh_import(IMPORTS)
    inp = make_network(ctx.smoke)
    seconds = clock() - start
    # The exact reference is the checker's work, not the program's set-up:
    # computed outside the timed set-up, once, for the state that is used.
    exact = exact_unreliability(inp) if rep == ctx.setup_reps - 1 else None
    return {"input": inp, "exact": exact}, seconds


def binomial_tail(misses: int, trials: int, p: float) -> float:
    """P(X >= misses) for X ~ Binomial(trials, p)."""
    return sum(
        math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(misses, trials + 1)
    )


def _request(ctx: Context, state: dict, outcome: Outcome):
    """The request and its check, shared by the untraced and traced loops."""
    inp, exact = state["input"], state["exact"]
    seeds = estimator_seeds(ctx.seed, 10_000)
    misses = outcome.results.setdefault("misses", [])
    checked = outcome.results.setdefault("checked", [])

    def call(i: int):
        return estimate(inp, seeds[i])

    def check(i: int, result) -> int:
        details = result.details
        checked.append(i)
        if details["relative_error"] > TARGET_RELATIVE_ERROR:
            outcome.fail(f"estimate {i}: relative error {details['relative_error']:.3f} over target")
        if not details["unreliability_low"] <= exact <= details["unreliability_high"]:
            misses.append(i)
        sigmas = abs(details["unreliability"] - exact) / details["std_error"]
        if sigmas > WRONG_SIGMAS:
            outcome.fail(f"estimate {i}: {sigmas:.1f} standard errors from the exact value")
        return 1

    return call, check


def timed(ctx: Context, state: dict, outcome: Outcome) -> None:
    call, check = _request(ctx, state, outcome)
    closed_loop(ctx.seconds, outcome, call, check, reps=REFERENCE_REPS, around=REFERENCE_AROUND)


def finish(ctx: Context, state: dict, outcome: Outcome) -> None:
    """Report interval misses; fail when coverage is implausibly low."""
    misses = outcome.results.get("misses", [])
    checked = len(outcome.results.get("checked", []))
    tail_p = binomial_tail(len(misses), checked, 1.0 - CONFIDENCE) if misses else 1.0
    if tail_p < COVERAGE_ALPHA:
        outcome.fail(
            f"{len(misses)} of {checked} intervals miss the exact value "
            f"(p = {tail_p:.2e} under {CONFIDENCE:.0%} coverage)",
            count=len(misses),
        )
    outcome.report.update(
        exact_unreliability=state["exact"],
        ci_misses=misses,
        estimates_checked=checked,
        coverage_tail_probability=tail_p,
    )
    outcome.layers["rare.ci_miss_frac"] = len(misses) / max(checked, 1)


def traced(ctx: Context, state: dict, outcome: Outcome) -> None:
    from repro.obs import record

    call, check = _request(ctx, state, outcome)
    tracer = Tracer()
    totals = {"samples": 0.0, "spectrum_solves": 0.0, "spectrum_seconds": 0.0}
    requests = 0

    def traced_call(i: int):
        nonlocal requests
        with tracer.span("request", rid=i), record() as rec:
            with tracer.span("rare"):
                result = call(i)
        counters = rec.counter_totals()
        totals["samples"] += counters.get("samples_vectorized", 0)
        totals["spectrum_solves"] += counters.get("spectrum_solves", 0)
        totals["spectrum_seconds"] += sum(
            s.seconds for s in rec.root.iter_spans() if s.name == "rare.spectrum"
        )
        requests += 1
        return result

    def compare(i: int, plain, result) -> None:
        outcome.points += check(i, result)
        if not same_float(plain.value, result.value):
            outcome.fail(f"estimate {i}: traced estimate differs from the untraced one")

    traced_pairs(ctx.seconds, outcome, call, traced_call, compare)
    n = max(requests, 1)
    uncovered, total = tracer.unattributed("request")
    outcome.layers.update(
        {
            "rare.samples": totals["samples"] / n,
            "rare.spectrum_solves": totals["spectrum_solves"] / n,
            "rare.solves_per_sample": totals["spectrum_solves"] / max(totals["samples"], 1),
            "rare.spectrum_ms": totals["spectrum_seconds"] * 1e3 / n,
            "trace.unattributed_frac": uncovered / total if total else 0.0,
        }
    )
    outcome.tracer = tracer
