"""High-level entry point: :func:`compute_reliability`.

Dispatches to the right algorithm:

* ``method="auto"`` — discover a bottleneck cut; if one exists whose
  sides are enumerable, run the paper's algorithm; otherwise fall back
  to factoring (exact on any network) for moderate link counts, to the
  rare-event estimator tier (:mod:`repro.core.rare`) once the network
  outgrows every exact engine's enumeration guard, and to naive only
  for tiny instances where it is just as cheap.
* explicit ``method`` — any name from :func:`available_methods`:
  the exact engines (``naive``, ``naive-parallel``, ``bottleneck``,
  ``bridge``, ``chain``, ``factoring``, ``series-parallel``,
  ``frontier``, ``frontier-directed``, ``minpaths``) and the
  estimators (``montecarlo``, ``montecarlo-stratified``, ``rare``).

All exact methods return a
:class:`~repro.core.result.ReliabilityResult`; the estimators return an
:class:`~repro.core.result.EstimateResult` (same ``float(...)``
protocol).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.bridge import bridge_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.factoring import factoring_reliability
from repro.core.montecarlo import montecarlo_reliability
from repro.core.naive import MAX_NAIVE_BITS, naive_reliability
from repro.core.result import EstimateResult, ReliabilityResult
from repro.core.sweep import _split_reliability
from repro.exceptions import DecompositionError, ReproError
from repro.graph.cuts import find_bottleneck
from repro.graph.network import FlowNetwork, Node
from repro.obs.export import phase_summary
from repro.obs.recorder import current_recorder, span

__all__ = [
    "COALESCIBLE_METHODS",
    "available_methods",
    "compute_reliability",
    "dispatch_query",
    "is_coalescible",
]

#: Methods the serving daemon (:mod:`repro.serve`) may merge into one
#: coalesced sweep batch: only the bottleneck pipeline separates the
#: combinatorial phase (cacheable realization arrays) from the
#: probability phase, which is what :func:`repro.core.sweep.plan_batch`
#: exploits.  ``None`` (no explicit method) coalesces as ``"auto"``.
COALESCIBLE_METHODS = frozenset({"auto", "bottleneck"})

#: "auto" only picks naive below this many links (it is never *better*
#: than factoring, just simpler to predict).
_AUTO_NAIVE_BITS = 12
#: "auto" only accepts a bottleneck split whose larger side stays below
#: this many links.
_AUTO_SIDE_BITS = 20
#: Past this many links (with no enumerable bottleneck split) "auto"
#: stops pretending an exact answer is reachable and hands the query to
#: the rare-event estimator tier instead of factoring.
_AUTO_ESTIMATE_LINKS = 24
#: The estimator tier's bitmask-packing ceiling (shared with
#: ``repro.probability.bitset``); beyond it "auto" has no path and the
#: explicit engines' own guards apply.
_AUTO_ESTIMATE_MAX_LINKS = 63


def available_methods() -> list[str]:
    """Names accepted by :func:`compute_reliability`."""
    return [
        "auto",
        "naive",
        "naive-parallel",
        "bottleneck",
        "bridge",
        "factoring",
        "chain",
        "series-parallel",
        "frontier",
        "frontier-directed",
        "minpaths",
        "montecarlo",
        "montecarlo-stratified",
        "rare",
    ]


def compute_reliability(
    net: FlowNetwork,
    source: Node | None = None,
    sink: Node | None = None,
    rate: int | None = None,
    *,
    demand: FlowDemand | None = None,
    method: str = "auto",
    **options: Any,
) -> ReliabilityResult | EstimateResult:
    """Compute (or estimate) the reliability of ``net`` for a demand.

    The demand is given either as a :class:`FlowDemand` via ``demand=``
    or as the positional triple ``source, sink, rate``.

    ``options`` are forwarded to the chosen algorithm (e.g. ``solver=``,
    ``cut=``, ``strategy=``, ``num_samples=``, ``cuts=`` for chain,
    ``workers=`` for the parallel engines, ``incremental=`` for the
    Gray-walk flow-repair kernels, ``cache=`` an
    :class:`repro.core.sweep.ArrayCache` for realization-array reuse —
    in ``auto`` mode the ``workers=``, ``incremental=`` and ``cache=``
    options reach the bottleneck engine when that path wins;
    ``incremental=`` also reaches the naive fallback, and all are
    dropped by factoring).

    Examples
    --------
    >>> from repro.graph import diamond
    >>> result = compute_reliability(diamond(), "s", "t", 1)
    >>> 0.0 < result.value < 1.0
    True
    """
    if demand is None:
        if source is None or sink is None or rate is None:
            raise ReproError(
                "provide either demand= or the (source, sink, rate) triple"
            )
        demand = FlowDemand(source, sink, rate)
    elif (source, sink, rate) != (None, None, None):
        raise ReproError("pass demand= or the positional triple, not both")
    demand.validate_against(net)

    result = _dispatch(net, demand, method, options)
    recorder = current_recorder()
    if recorder is not None:
        # The phase accounting of the trace so far (for a recorder
        # installed around exactly this call: this call's phases) —
        # benches and dashboards read it off the result directly.
        result.details["obs"] = phase_summary(recorder)
    return result


def is_coalescible(method: str | None) -> bool:
    """Whether a served query with ``method`` may join a coalesced batch.

    The daemon routes everything else (explicit naive, factoring,
    Monte-Carlo, ...) through :func:`dispatch_query` individually.
    """
    return method is None or method in COALESCIBLE_METHODS


def dispatch_query(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    method: str | None = None,
    **options: Any,
) -> ReliabilityResult | EstimateResult:
    """Engine dispatch for one served query.

    The per-query back door of the serving daemon: queries that cannot
    ride a coalesced sweep batch — an explicit non-bottleneck method, or
    a topology with no admissible bottleneck cut — are answered here,
    through exactly the same dispatch chain as the CLI's ``repro
    compute`` (so served values stay pinned to the pointwise path).
    """
    return compute_reliability(
        net, demand=demand, method=method if method is not None else "auto", **options
    )


def _dispatch(
    net: FlowNetwork,
    demand: FlowDemand,
    method: str,
    options: dict[str, Any],
) -> ReliabilityResult | EstimateResult:
    if method == "naive":
        return naive_reliability(net, demand, **options)
    if method == "naive-parallel":
        from repro.core.parallel import parallel_naive_reliability

        return parallel_naive_reliability(net, demand, **options)
    if method == "bottleneck":
        return bottleneck_reliability(net, demand, **options)
    if method == "bridge":
        return bridge_reliability(net, demand, **options)
    if method == "factoring":
        return factoring_reliability(net, demand, **options)
    if method == "series-parallel":
        from repro.core.reductions import series_parallel_reliability

        return series_parallel_reliability(net, demand, **options)
    if method == "frontier":
        from repro.core.frontier import frontier_reliability

        return frontier_reliability(net, demand, **options)
    if method == "frontier-directed":
        from repro.core.frontier import directed_frontier_reliability

        return directed_frontier_reliability(net, demand, **options)
    if method == "minpaths":
        from repro.core.paths import minpath_reliability

        return minpath_reliability(net, demand, **options)
    if method == "montecarlo":
        return montecarlo_reliability(net, demand, **options)
    if method == "montecarlo-stratified":
        from repro.core.stratified import stratified_montecarlo_reliability

        return stratified_montecarlo_reliability(net, demand, **options)
    if method == "rare":
        from repro.core.rare import rare_reliability

        return rare_reliability(net, demand, **options)
    if method == "chain":
        cuts: Sequence[Sequence[int]] | None = options.pop("cuts", None)
        if cuts is None:
            raise ReproError("method='chain' requires cuts=[[...], ...]")
        return chain_reliability(net, demand, cuts, **options)
    if method != "auto":
        raise ReproError(
            f"unknown method {method!r}; available: {available_methods()}"
        )

    # --- auto dispatch -------------------------------------------------
    solver = options.get("solver")
    workers = options.get("workers")
    incremental = options.get("incremental")
    cache = options.get("cache")
    with span("bottleneck.cut_search", given=False):
        try:
            split = find_bottleneck(
                net, demand.source, demand.sink, max_size=options.get("max_cut_size", 3)
            )
        except DecompositionError:
            split = None
    if split is not None:
        side = max(len(split.source_side.link_map), len(split.sink_side.link_map))
        if side <= _AUTO_SIDE_BITS:
            # The split goes straight to the pipeline: one cut search.
            return _split_reliability(
                net,
                demand,
                split,
                solver=solver,
                workers=workers,
                incremental=incremental,
                cache=cache,
            )
    if net.num_links <= _AUTO_NAIVE_BITS:
        return naive_reliability(net, demand, solver=solver, incremental=incremental)
    if _AUTO_ESTIMATE_LINKS < net.num_links <= _AUTO_ESTIMATE_MAX_LINKS:
        # No enumerable bottleneck split and a state space past every
        # exact engine's guard: estimate instead of grinding factoring
        # through an exponential recursion.  Bounded relative error even
        # at five-nines availability, bit-replayable via seed=.
        from repro.core.rare import rare_reliability

        return rare_reliability(
            net,
            demand,
            solver=solver,
            incremental=incremental,
            seed=options.get("seed", 0),
            num_samples=options.get("num_samples"),
        )
    return factoring_reliability(net, demand, solver=solver)
