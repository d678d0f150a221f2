"""``cold-query``: one closed-loop caller, cold ``method="auto"`` queries.

Every request is a freshly generated bottlenecked network (graph.io
dict) answered by ``compute_reliability`` with no cache — the paper's
headline use.  Network structure comes from a fixed family seed, so all
runs share one cost mix; the workload seed draws the failure
probabilities, which the values (not the work) depend on.  Cut search and the §III-C array builders do nearly all
the work; ``ArrayCache`` and the grid Eq. 2/3 are bypassed.

The traced run re-executes each request as the pipeline's public
layers called one by one — cut search, verification, §III-B
assignments, both §III-C side arrays, Eq. 2/3 accumulation — and
requires the value to match the untraced ``compute_reliability`` value
bit for bit.
"""

from __future__ import annotations

import numpy as np

from perfbench.common import Context, Outcome, bottlenecked, clock, fresh_import, same_float
from perfbench.loops import closed_loop, traced_pairs
from perfbench.tracing import Tracer, solver_counter_sum

WHY = (
    "the paper's headline use: cold exact queries where cut search and the "
    "array builders do nearly all the work; cache and grid Eq. 2/3 bypassed"
)

#: (side links, share of them on the source side, demand d, bottleneck
#: links k), cycled request by request: 26 to 29 links, alpha and d varied.
#: An odd number of shapes: each shape's queries form one band of the
#: latency distribution, and with an even number the median falls in the
#: gap between the two middle bands, where it jumps by tens of ms when
#: the bands move by a few percent.  With five it falls inside the middle
#: band (the 26-link balanced shape).
SHAPES = (
    (26, 0.50, 2, 2),
    (24, 0.50, 3, 2),
    (24, 0.58, 2, 2),
    (26, 0.54, 2, 2),
    (26, 0.50, 2, 3),
)
SMOKE_SHAPES = ((10, 0.5, 2, 2), (10, 0.6, 3, 2))
#: Distinct networks generated per run; requests cycle through them.
#: Their structure comes from FAMILY_SEED, so every run has the same cost
#: mix; the workload seed draws every link's failure probability.
POOL = 100
FAMILY_SEED = 20170
SMOKE_POOL = 4
#: Requests re-checked against the non-incremental pipeline after the run.
CHECKED = 3

IMPORTS = ("repro.core.api", "repro.graph.generators", "repro.graph.io")


def make_inputs(seed: int, smoke: bool) -> list[dict]:
    """The request stream: graph.io network dicts with their demand."""
    from repro.graph.io import to_dict

    shapes = SMOKE_SHAPES if smoke else SHAPES
    inputs = []
    for i in range(SMOKE_POOL if smoke else POOL):
        side, share, d, k = shapes[i % len(shapes)]
        big = round(side * share)
        net = bottlenecked(
            np.random.default_rng([FAMILY_SEED, i]),
            source_links=big,
            sink_links=side - big,
            k=k,
            d=d,
            probabilities=np.random.default_rng([seed, i]),
        )
        inputs.append({"network": to_dict(net), "source": "s", "sink": "t", "rate": d})
    return inputs


def _load(inp: dict):
    from repro.core.demand import FlowDemand
    from repro.graph.io import from_dict

    return from_dict(inp["network"]), FlowDemand(inp["source"], inp["sink"], inp["rate"])


def query(inp: dict):
    """One request through the public API, options at their defaults."""
    from repro.core.api import compute_reliability

    net, demand = _load(inp)
    return compute_reliability(net, demand=demand)


def decomposed_query(tracer: Tracer, inp: dict, rid: int) -> dict:
    """The ``method="auto"`` bottleneck pipeline, one public layer at a time."""
    from repro.core.accumulate import accumulate
    from repro.core.arrays import build_side_array
    from repro.core.assignments import classify_by_support, enumerate_assignments
    from repro.core.bottleneck import pattern_probabilities
    from repro.core.summation import prob_fsum
    from repro.flow.incremental import resolve_incremental
    from repro.graph.cuts import find_bottleneck, verify_bottleneck

    with tracer.span("request", rid=rid):
        with tracer.span("graph.io"):
            net, demand = _load(inp)
        with tracer.span("cuts.find"):
            split = find_bottleneck(net, demand.source, demand.sink, max_size=3)
        if split is None:
            raise RuntimeError("generated network has no admissible bottleneck cut")
        with tracer.span("cuts.verify"):
            split = verify_bottleneck(net, demand.source, demand.sink, split.cut)
        cut = split.cut
        with tracer.span("assignments"):
            assignments = enumerate_assignments(
                [net.link(i).capacity for i in cut], demand.rate
            )
        stats = {"assignments": len(assignments), "entries": 0, "flow_calls": 0, "classes": 0}
        if not assignments:
            return {"value": 0.0, **stats}
        incremental = resolve_incremental(None, None)
        with tracer.span("arrays.build"):
            arrays = [
                build_side_array(
                    side,
                    role=role,
                    terminal=terminal,
                    ports=ports,
                    assignments=assignments,
                    demand=demand.rate,
                    incremental=incremental,
                )
                for side, role, terminal, ports in (
                    (split.source_side, "source", demand.source, split.source_ports),
                    (split.sink_side, "sink", demand.sink, split.sink_ports),
                )
            ]
        with tracer.span("accumulate"):
            source_array, sink_array = arrays
            p_patterns = pattern_probabilities(net, cut)
            memo: dict[tuple[int, ...], float] = {}
            terms = []
            for pattern, supported in classify_by_support(assignments, len(cut)).items():
                if not supported:
                    continue
                p_pattern = float(p_patterns[pattern])
                if p_pattern == 0.0:
                    continue
                r = memo.get(supported)
                if r is None:
                    r = accumulate(source_array, sink_array, supported, strategy="auto")
                    memo[supported] = r
                terms.append(p_pattern * r)
            value = prob_fsum(terms)
    stats["entries"] = sum(len(a.masks) * a.num_assignments for a in arrays)
    stats["flow_calls"] = sum(a.flow_calls for a in arrays)
    stats["classes"] = len(memo)
    return {"value": value, **stats}


def setup(ctx: Context, rep: int) -> tuple[dict, float]:
    start = clock()
    fresh_import(IMPORTS)
    inputs = make_inputs(ctx.seed, ctx.smoke)
    return {"inputs": inputs}, clock() - start


def timed(ctx: Context, state: dict, outcome: Outcome) -> None:
    inputs = state["inputs"]
    values = outcome.results.setdefault("values", {})
    methods = outcome.results.setdefault("methods", {})

    def check(i: int, result) -> int:
        methods[result.method] = methods.get(result.method, 0) + 1
        if not 0.0 <= result.value <= 1.0:
            outcome.fail(f"request {i}: reliability {result.value!r} outside [0, 1]")
        values[i] = result.value
        return 1

    closed_loop(ctx.seconds, outcome, lambda i: query(inputs[i % len(inputs)]), check)


def finish(ctx: Context, state: dict, outcome: Outcome) -> None:
    """Re-check a seeded subset against the non-incremental pipeline."""
    from repro.core.bottleneck import bottleneck_reliability

    inputs = state["inputs"]
    values = outcome.results.get("values", {})
    rng = np.random.default_rng([ctx.seed, 1])
    done = sorted(values)
    chosen = sorted(rng.choice(done, size=min(CHECKED, len(done)), replace=False).tolist())
    for i in chosen:
        net, demand = _load(inputs[i % len(inputs)])
        reference = bottleneck_reliability(net, demand, incremental=False).value
        if not same_float(values[i], reference):
            outcome.fail(f"request {i}: served {values[i]!r}, reference {reference!r}")
    outcome.report["checked_requests"] = chosen
    outcome.report["methods"] = outcome.results.get("methods", {})


def traced(ctx: Context, state: dict, outcome: Outcome) -> None:
    from repro.obs import record

    inputs = state["inputs"]

    def pick(i: int) -> dict:
        return inputs[i % len(inputs)]

    tracer = Tracer()
    totals = {"assignments": 0, "entries": 0, "flow_calls": 0, "classes": 0}
    counters: dict[str, float] = {}
    requests = 0

    def traced_call(i: int) -> dict:
        nonlocal requests
        with record() as rec:
            stats = decomposed_query(tracer, pick(i), i)
        for key, value in rec.counter_totals().items():
            counters[key] = counters.get(key, 0) + value
        requests += 1
        return stats

    def compare(i: int, plain, stats: dict) -> None:
        if not same_float(plain.value, stats["value"]):
            outcome.fail(
                f"request {i}: traced decomposition {stats['value']!r} "
                f"!= untraced {plain.value!r}"
            )
        for key in ("assignments", "entries", "classes"):
            totals[key] += stats[key]
        # The solve count of record is the untraced ReliabilityResult's.
        totals["flow_calls"] += plain.flow_calls
        outcome.points += 1

    traced_pairs(ctx.seconds, outcome, lambda i: query(pick(i)), traced_call, compare)
    n = max(requests, 1)
    own = tracer.self_seconds()
    uncovered, total = tracer.unattributed("request")
    outcome.layers.update(
        {
            "cuts.find_ms": own.get("cuts.find", 0.0) * 1e3 / n,
            "cuts.verify_ms": own.get("cuts.verify", 0.0) * 1e3 / n,
            "assignments.ms": own.get("assignments", 0.0) * 1e3 / n,
            "assignments.count": totals["assignments"] / n,
            "arrays.build_ms": own.get("arrays.build", 0.0) * 1e3 / n,
            "arrays.entries": totals["entries"] / n,
            "arrays.flow_calls": totals["flow_calls"] / n,
            "arrays.solves_per_entry": totals["flow_calls"] / max(totals["entries"], 1),
            "flow.augmenting_paths": solver_counter_sum(counters, "paths") / n,
            "flow.solves": solver_counter_sum(counters, "solves") / n,
            "accumulate.ms": own.get("accumulate", 0.0) * 1e3 / n,
            "accumulate.classes": totals["classes"] / n,
            "trace.unattributed_frac": uncovered / total if total else 0.0,
        }
    )
    outcome.tracer = tracer
