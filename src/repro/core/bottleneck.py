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

Steps 2–4 are :mod:`repro.core.sweep`'s one Eq. 2/3 pipeline: a
pointwise call is a sweep of one point, the network's own failure
vector.

Model note: the assignment machinery routes every sub-stream *forward*
across the cut.  For directed cut links (all the library's generators)
this is exact.  An undirected cut link admits pathological networks
where flow crosses the cut backwards to shortcut through the far side;
such routings are outside the paper's model (sub-streams are pushed
source-to-sink) and are not counted.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from repro.core.accumulate import probability_grid
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.core.sweep import ArrayCache, _resolve_split, _split_reliability
from repro.exceptions import ReproValueError
from repro.flow.base import MaxFlowSolver
from repro.flow.incremental import resolve_incremental
from repro.graph.network import FlowNetwork
from repro.probability.enumeration import check_enumerable

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

    The one-row case of :func:`repro.core.accumulate.probability_grid`
    over the cut links: one doubling per cut link, in cut order.
    Entry ``pattern`` is the product ``((1.0 * f_0) * f_1) * ...`` with
    exactly the left-to-right associativity of
    :func:`pattern_probability`, so every entry is bit-identical to the
    scalar — not merely close.
    """
    _validate_cut_indices(net, cut)
    check_enumerable(len(cut))
    failures = [net.link(index).failure_probability for index in cut]
    return probability_grid(np.array([failures], dtype=np.float64))[0]


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
    cache: ArrayCache | None = None,
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
    split = _resolve_split(net, demand, cut, max_cut_size)
    return _split_reliability(
        net,
        demand,
        split,
        solver=solver,
        strategy=strategy,
        prune=prune,
        workers=workers,
        screen=screen,
        incremental=use_incremental,
        cache=cache,
    )
