"""``sweep-warm``: large availability sweeps from a disk-warm ``ArrayCache``.

Set-up builds the cache's disk tier with one cold sweep per topology.
Every request then opens a fresh ``ArrayCache(dir)`` — the "second
process starts warm" path — and sweeps a 512-point availability grid
with zero max-flow solves, so the time goes to cut search, disk-tier
column reads and the grid Eq. 2/3.  The array builders do no work: this
is the no-change control for kernel work.  Every value must be bit
identical to the cold sweep from set-up.
"""

from __future__ import annotations

import numpy as np

from perfbench.common import Context, Outcome, bottlenecked, clock, fresh_import, same_float
from perfbench.loops import closed_loop, traced_pairs
from perfbench.tracing import Tracer, array_work, count_result

WHY = (
    "disk-warm sweeps with zero solves: stresses cut search, disk-tier column "
    "reads and grid Eq. 2/3; the no-change control for array-kernel work"
)

#: (side links, demand d) per topology; k = 2 bottleneck links, balanced.
TOPOLOGIES = ((26, 2), (26, 3), (24, 2))
POINTS = 512
SMOKE_TOPOLOGIES = ((10, 2),)
SMOKE_POINTS = 16

IMPORTS = ("repro.core.sweep", "repro.graph.generators", "repro.graph.io")


def make_inputs(seed: int, smoke: bool) -> list[dict]:
    """Topologies (graph.io dicts) with their demand and availability grid."""
    from repro.graph.io import to_dict

    points = SMOKE_POINTS if smoke else POINTS
    inputs = []
    for t, (side, d) in enumerate(SMOKE_TOPOLOGIES if smoke else TOPOLOGIES):
        rng = np.random.default_rng([seed, t])
        net = bottlenecked(rng, source_links=side // 2, sink_links=side - side // 2, k=2, d=d)
        low, high = rng.uniform(0.80, 0.85), rng.uniform(0.990, 0.999)
        grid = np.linspace(low, high, points).tolist()
        inputs.append({"network": to_dict(net), "rate": d, "availability": grid})
    return inputs


def sweep(inp: dict, directory):
    """One request: open the disk tier fresh and sweep the whole grid."""
    from repro.core.demand import FlowDemand
    from repro.core.sweep import ArrayCache, SweepSpec, compute_reliability_sweep
    from repro.graph.io import from_dict

    net = from_dict(inp["network"])
    cache = ArrayCache(directory)
    return compute_reliability_sweep(
        net,
        FlowDemand("s", "t", inp["rate"]),
        sweep=SweepSpec.availability(inp["availability"]),
        cache=cache,
    )


def setup(ctx: Context, rep: int) -> tuple[dict, float]:
    start = clock()
    fresh_import(IMPORTS)
    inputs = make_inputs(ctx.seed, ctx.smoke)
    directory = str(ctx.run_dir / f"cache-{rep}")
    references = [sweep(inp, directory).values for inp in inputs]
    state = {"inputs": inputs, "directory": directory, "references": references}
    return state, clock() - start


def _request(state: dict, outcome: Outcome):
    """The request and its check, shared by the untraced and traced loops."""
    inputs, references = state["inputs"], state["references"]
    solves = outcome.results.setdefault("solves", {"flow_calls": 0, "requests": 0})

    def call(i: int):
        return sweep(inputs[i % len(inputs)], state["directory"])

    def check(i: int, result) -> int:
        solves["flow_calls"] += result.flow_calls
        solves["requests"] += 1
        expected = references[i % len(inputs)]
        wrong = sum(
            1 for got, want in zip(result.values, expected) if not same_float(got, want)
        )
        wrong += abs(len(result.values) - len(expected))
        if wrong:
            outcome.fail(f"request {i}: {wrong} points differ from the cold sweep")
        return len(result.values)

    return call, check


def timed(ctx: Context, state: dict, outcome: Outcome) -> None:
    closed_loop(ctx.seconds, outcome, *_request(state, outcome))


def finish(ctx: Context, state: dict, outcome: Outcome) -> None:
    solves = outcome.results.get("solves", {"flow_calls": 0, "requests": 0})
    outcome.report["max_flow_solves"] = solves["flow_calls"]
    # The solve count of record is the SweepResult's (0 when warm).
    outcome.layers["arrays.flow_calls"] = solves["flow_calls"] / max(solves["requests"], 1)


def traced(ctx: Context, state: dict, outcome: Outcome) -> None:
    import repro.core.sweep as sweep_module

    call, check = _request(state, outcome)
    tracer = Tracer()
    cache_totals: dict[str, int] = {}
    requests = 0

    def traced_call(i: int):
        nonlocal requests
        targets = [
            (sweep_module, "find_bottleneck", "cuts.find"),
            (sweep_module, "verify_bottleneck", "cuts.verify"),
            (sweep_module, "enumerate_assignments", "assignments", count_result),
            (sweep_module, "cached_side_array", "sweep.columns"),
            (sweep_module, "build_side_array", "arrays.build", array_work),
            (sweep_module, "ArrayCache", "sweep.columns"),
            # What remains of the sweep's own time is the grid Eq. 2/3.
            (sweep_module, "compute_reliability_sweep", "sweep.grid"),
        ]
        with tracer.span("request", rid=i), tracer.patched(targets):
            result = call(i)
        for key, value in result.cache_stats.items():
            cache_totals[key] = cache_totals.get(key, 0) + value
        requests += 1
        return result

    def compare(i: int, plain, result) -> None:
        outcome.points += check(i, result)
        if plain.values != result.values:
            outcome.fail(f"request {i}: traced sweep differs from the untraced one")

    traced_pairs(ctx.seconds, outcome, call, traced_call, compare)
    n = max(requests, 1)
    own = tracer.self_seconds()
    uncovered, total = tracer.unattributed("request")
    hits, misses = cache_totals.get("hits", 0), cache_totals.get("misses", 0)
    outcome.layers.update(
        {
            "cuts.find_ms": own.get("cuts.find", 0.0) * 1e3 / n,
            "cuts.verify_ms": own.get("cuts.verify", 0.0) * 1e3 / n,
            "assignments.ms": own.get("assignments", 0.0) * 1e3 / n,
            "assignments.count": tracer.attr_total("assignments", "count") / n,
            "arrays.build_ms": own.get("arrays.build", 0.0) * 1e3 / n,
            "arrays.entries": tracer.attr_total("arrays.build", "entries") / n,
            "sweep.columns_ms": own.get("sweep.columns", 0.0) * 1e3 / n,
            "sweep.grid_ms": own.get("sweep.grid", 0.0) * 1e3 / n,
            "cache.hits": hits / n,
            "cache.misses": misses / n,
            "cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "cache.bytes_read": cache_totals.get("bytes_read", 0) / n,
            "cache.stores": cache_totals.get("stores", 0) / n,
            "cache.evictions": cache_totals.get("evictions", 0) / n,
            "trace.unattributed_frac": uncovered / total if total else 0.0,
        }
    )
    outcome.tracer = tracer
