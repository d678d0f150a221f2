"""The paper's headline algorithm (§III + §IV).

``bottleneck_reliability`` computes the exact flow reliability of a
network with a set of α-bottleneck links in
``O(2^{α|E|} |V||E|)`` time (for constant ``k`` and ``d``):

1. find (or verify) the bottleneck cut and split into ``G_s`` / ``G_t``
   (:mod:`repro.graph.cuts`, :mod:`repro.graph.transforms`);
2. enumerate the assignment set ``D`` (§III-B,
   :mod:`repro.core.assignments`);
3. build both realization arrays (§III-C, :mod:`repro.core.arrays`) at
   ``|D| · 2^{|E_side|}`` max-flow solves each;
4. for each of the ``2^k`` bottleneck survival patterns ``E'``, weigh
   the ACCUMULATION result over the supported class by the pattern
   probability ``p_{E'}`` (Eq. 2) and sum (Eq. 3,
   :mod:`repro.core.accumulate`).

Model note: the assignment machinery routes every sub-stream *forward*
across the cut.  For directed cut links (all the library's generators)
this is exact.  An undirected cut link admits pathological networks
where flow crosses the cut backwards to shortcut through the far side;
such routings are outside the paper's model (sub-streams are pushed
source-to-sink) and are not counted.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.arrays import build_side_array
from repro.core.assignments import (
    classify_by_support,
    enumerate_assignments,
)
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.core.summation import prob_fsum
from repro.exceptions import DecompositionError, ReproValueError
from repro.flow.base import MaxFlowSolver
from repro.flow.incremental import resolve_incremental
from repro.graph.cuts import find_bottleneck, verify_bottleneck
from repro.graph.network import FlowNetwork
from repro.graph.transforms import SideSplit
from repro.obs.recorder import ASSIGNMENTS_ENUMERATED, count, span
from repro.probability.enumeration import check_enumerable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sweep import ArrayCache

__all__ = ["bottleneck_reliability", "pattern_probabilities", "pattern_probability"]


def _validate_cut_indices(net: FlowNetwork, cut: Sequence[int]) -> None:
    """Eq. 2 inputs must name real links — reject instead of mis-indexing."""
    for index in cut:
        try:
            i = operator.index(index)
        except TypeError as exc:
            raise ReproValueError(
                f"cut link index {index!r} is not an integer"
            ) from exc
        if not 0 <= i < net.num_links:
            raise ReproValueError(
                f"cut link index {i} out of range for a network with "
                f"{net.num_links} links"
            )


def pattern_probability(net: FlowNetwork, cut: Sequence[int], pattern: int) -> float:
    """Eq. (2): probability that exactly the cut links in ``pattern``
    survive (bit ``i`` of ``pattern`` refers to ``cut[i]``)."""
    _validate_cut_indices(net, cut)
    k = len(cut)
    check_enumerable(k)
    if not 0 <= pattern < 1 << k:
        raise ReproValueError(
            f"pattern {pattern} out of range for a {k}-link cut "
            f"(need 0 <= pattern < 2^{k})"
        )
    value = 1.0
    for i, index in enumerate(cut):
        link = net.link(index)
        value *= link.availability if (pattern >> i) & 1 else link.failure_probability
    return value


def pattern_probabilities(net: FlowNetwork, cut: Sequence[int]) -> np.ndarray:
    """Eq. (2) for all ``2^k`` survival patterns at once.

    Built by the same doubling scheme as
    :func:`repro.probability.configuration_probabilities`: one
    concatenation per cut link, in cut order.  Entry ``pattern`` is the
    product ``((1.0 * f_0) * f_1) * ...`` with exactly the left-to-right
    associativity of :func:`pattern_probability`, so every entry is
    bit-identical to the scalar — not merely close.
    """
    _validate_cut_indices(net, cut)
    check_enumerable(len(cut))
    table = np.ones(1, dtype=np.float64)
    for index in cut:
        link = net.link(index)
        table = np.concatenate(
            [table * link.failure_probability, table * link.availability]
        )
    return table


def bottleneck_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    cut: Sequence[int] | None = None,
    solver: str | MaxFlowSolver | None = None,
    strategy: str = "auto",
    prune: bool = True,
    max_cut_size: int = 3,
    workers: int | None = None,
    screen: bool = True,
    incremental: bool | None = None,
    cache: "ArrayCache | None" = None,
) -> ReliabilityResult:
    """Exact reliability via the bottleneck decomposition.

    Parameters
    ----------
    net, demand:
        The problem instance.
    cut:
        Bottleneck link indices.  When omitted the best admissible cut
        of size up to ``max_cut_size`` is discovered automatically;
        when given it is verified (minimality + two components).
    solver:
        Max-flow solver for the realization arrays.
    strategy:
        ACCUMULATION strategy: ``"auto"``, ``"zeta"`` or ``"pairs"``.
    prune:
        Monotone pruning inside the realization arrays.
    workers:
        ``None`` (default) keeps the serial §III-C builder with its
        exact historical ``flow_calls`` accounting.  Any ``workers >= 1``
        routes both side arrays through
        :func:`repro.core.engine.build_realization_arrays` — chunked,
        optionally multi-process, bit-identical masks — and enables the
        pre-solve ``screen``.
    screen:
        Engine path only: cheap certain-negative screens (alive port
        capacity / connectivity) that skip max-flow solves without
        changing the result.  Ignored when ``workers`` is ``None``.
    incremental:
        Walk the realization lattices in Gray-code order with flow
        repair instead of cold-solving every entry (``None`` = auto: on
        whenever the solver supports the warm-start contract; see
        :mod:`repro.flow.incremental`).  Bit-identical masks and value;
        only the solve accounting changes.
    cache:
        A :class:`repro.core.sweep.ArrayCache`.  When given, both side
        arrays are resolved per-assignment-column through the
        content-addressed cache (serial or engine build for the misses,
        per ``workers``): a warm call spends zero max-flow solves and
        reports ``flow_calls == 0``.  Value and ``details`` are
        unchanged; the cache traffic of this call is reported under
        ``details["array_cache"]``.

    Raises
    ------
    DecompositionError
        If no admissible bottleneck cut exists (or the given one fails
        verification).
    """
    demand.validate_against(net)
    use_incremental = resolve_incremental(solver, incremental)
    with span("bottleneck.cut_search", given=cut is not None):
        if cut is None:
            split = find_bottleneck(
                net, demand.source, demand.sink, max_size=max_cut_size
            )
            if split is None:
                raise DecompositionError(
                    f"no admissible bottleneck cut of size <= {max_cut_size} found"
                )
        else:
            split = verify_bottleneck(net, demand.source, demand.sink, cut)

    cut_links = split.cut
    k = len(cut_links)
    capacities = [net.link(i).capacity for i in cut_links]
    with span("bottleneck.assignments", k=k, demand=demand.rate):
        assignments = enumerate_assignments(capacities, demand.rate)
        count(ASSIGNMENTS_ENUMERATED, len(assignments))
    base_details = {
        "cut": tuple(cut_links),
        "alpha": split.alpha,
        "num_assignments": len(assignments),
        "source_side_links": len(split.source_side.link_map),
        "sink_side_links": len(split.sink_side.link_map),
    }
    if not assignments:
        # The cut cannot carry the demand even fully alive (the k = 1
        # case of this is the paper's "c(e') < d => trivially zero").
        return ReliabilityResult(
            value=0.0,
            method="bottleneck",
            details={**base_details, "reason": "cut capacity below demand"},
        )

    engine_stats: dict[str, object] | None = None
    cache_delta: dict[str, int] | None = None
    if cache is not None:
        from repro.core.sweep import cached_side_array  # local: avoids cycle

        before = cache.stats()
        with span("bottleneck.arrays", cached=True, workers=workers or 0):
            source_array = cached_side_array(
                split.source_side,
                role="source",
                terminal=demand.source,
                ports=split.source_ports,
                assignments=assignments,
                demand=demand.rate,
                solver=solver,
                prune=prune,
                screen=screen,
                workers=workers,
                incremental=use_incremental,
                cache=cache,
            )
            sink_array = cached_side_array(
                split.sink_side,
                role="sink",
                terminal=demand.sink,
                ports=split.sink_ports,
                assignments=assignments,
                demand=demand.rate,
                solver=solver,
                prune=prune,
                screen=screen,
                workers=workers,
                incremental=use_incremental,
                cache=cache,
            )
        after = cache.stats()
        cache_delta = {key: after[key] - before[key] for key in after}
    elif workers is None:
        with span(
            "bottleneck.source_array",
            links=len(split.source_side.link_map),
            assignments=len(assignments),
        ):
            source_array = build_side_array(
                split.source_side,
                role="source",
                terminal=demand.source,
                ports=split.source_ports,
                assignments=assignments,
                demand=demand.rate,
                solver=solver,
                prune=prune,
                incremental=use_incremental,
            )
        with span(
            "bottleneck.sink_array",
            links=len(split.sink_side.link_map),
            assignments=len(assignments),
        ):
            sink_array = build_side_array(
                split.sink_side,
                role="sink",
                terminal=demand.sink,
                ports=split.sink_ports,
                assignments=assignments,
                demand=demand.rate,
                solver=solver,
                prune=prune,
                incremental=use_incremental,
            )
    else:
        from repro.core.engine import build_realization_arrays  # local: engine-path only

        with span("bottleneck.arrays", workers=workers, screen=screen):
            source_array, sink_array, engine_stats = build_realization_arrays(
                split,
                source=demand.source,
                sink=demand.sink,
                assignments=assignments,
                demand=demand.rate,
                solver=solver,
                prune=prune,
                screen=screen,
                workers=workers,
                incremental=use_incremental,
            )

    # Eq. (3): sum over the 2^k bottleneck survival patterns.  r_{E'}
    # depends only on the supported class, so identical classes share
    # one accumulation.
    from repro.core.accumulate import accumulate  # local: avoids cycle at import

    check_enumerable(k)
    with span("bottleneck.accumulate", patterns=1 << k, strategy=strategy):
        classes = classify_by_support(assignments, k)
        p_patterns = pattern_probabilities(net, cut_links)
        class_memo: dict[tuple[int, ...], float] = {}
        terms: list[float] = []
        for pattern, supported in classes.items():
            if not supported:
                continue
            p_pattern = float(p_patterns[pattern])
            if p_pattern == 0.0:
                continue
            r = class_memo.get(supported)
            if r is None:
                r = accumulate(source_array, sink_array, supported, strategy=strategy)
                class_memo[supported] = r
            terms.append(p_pattern * r)

    details = {
        **base_details,
        "accumulation_strategy": strategy,
        "distinct_classes": len(class_memo),
        "incremental": use_incremental,
    }
    if engine_stats is not None:
        details["engine"] = engine_stats
    if cache_delta is not None:
        details["array_cache"] = cache_delta
    return ReliabilityResult(
        value=prob_fsum(terms),
        method="bottleneck",
        flow_calls=source_array.flow_calls + sink_array.flow_calls,
        configurations=len(source_array.masks) + len(sink_array.masks),
        details=details,
    )
