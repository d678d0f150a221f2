"""Solver-facing API: results, the solver base class and the registry.

Every solver implements one method on residual graphs
(:meth:`MaxFlowSolver.solve_residual`) and inherits the public
:meth:`MaxFlowSolver.max_flow` convenience wrapper that accepts a
:class:`~repro.graph.FlowNetwork` directly.

The ``limit`` parameter implements *feasibility short-circuiting*: the
reliability algorithms only ever need to know whether the max flow
reaches the demand ``d``, so solvers stop augmenting once ``limit``
units have been pushed.  This turns the per-configuration check into a
bounded amount of work independent of how much extra capacity the
network has.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.exceptions import SolverError
from repro.graph.network import FlowNetwork, Node
from repro.flow.residual import ResidualGraph, ResidualTemplate, build_template
from repro.obs.recorder import current_recorder, wallclock

__all__ = [
    "MaxFlowResult",
    "MaxFlowSolver",
    "register_solver",
    "get_solver",
    "available_solvers",
    "max_flow",
    "max_flow_value",
    "is_feasible",
    "DEFAULT_SOLVER",
]


@dataclass(frozen=True)
class MaxFlowResult:
    """Outcome of a max-flow computation on a :class:`FlowNetwork`.

    Attributes
    ----------
    value:
        The computed flow value.  When a ``limit`` was supplied this is
        ``min(limit, true max flow)``.
    limited:
        Whether a limit was supplied (if so, ``value == limit`` does not
        certify that the true max flow equals ``value``).
    link_flows:
        Net flow per original link index.  Only links carrying nonzero
        flow appear.
    min_cut_source_side:
        Source side of a minimum cut (residual-reachable nodes).  Only
        meaningful when ``limited`` is ``False`` or the flow value is
        below the limit.
    """

    value: int
    source: Node
    sink: Node
    limited: bool
    link_flows: dict[int, int]
    min_cut_source_side: frozenset[Node]


class MaxFlowSolver(ABC):
    """Base class: implement :meth:`solve_residual`, get the rest free."""

    #: Registry key, set by subclasses.
    name: str = ""

    #: Whether the solver honours the *warm-start contract* below well
    #: enough to drive :class:`repro.flow.incremental.IncrementalMaxFlow`:
    #: called on a residual graph that already carries flow, it must (a)
    #: return only the **additional** flow pushed by this call and (b)
    #: stop pushing the moment ``limit`` is reached, leaving the residual
    #: state at exactly that flow.  All augmenting-path solvers satisfy
    #: both for free; preflow solvers (push–relabel) cannot satisfy (b)
    #: — they cap the *reported* value after running to completion — and
    #: must set this to ``False``.
    supports_incremental: bool = True

    #: Augmenting paths found by the most recent :meth:`solve_residual`
    #: call (one per push).  Solvers that do not augment along paths
    #: leave it at 0.  Surfaced as the ``solver.<name>.paths`` counter —
    #: the "augmenting-path work" measure the incremental benches compare.
    last_paths: int = 0

    # The per-solver counter family, formatted once per *class* (by
    # register_solver, where the name is assigned) rather than per
    # solve: the sanctioned shape for dynamic metric names under RR111
    # (call sites must pass a bound name, not build one), and it keeps
    # string formatting out of the hot solve path.
    _metric_solves: str = "solver.unnamed.solves"
    _metric_seconds: str = "solver.unnamed.seconds"
    _metric_paths: str = "solver.unnamed.paths"

    @abstractmethod
    def solve_residual(
        self, graph: ResidualGraph, source: int, sink: int, limit: int | None = None
    ) -> int:
        """Compute (possibly limited) max flow on a residual graph.

        Mutates ``graph.cap`` to the residual state and returns the flow
        value *pushed by this call*.  ``limit`` stops augmenting once
        that much flow has been pushed; implementations must never
        exceed it.

        Warm-start contract: the input graph may already be a residual
        state carrying flow (the incremental engine's repair loop calls
        solvers on warm graphs, with arbitrary node pairs as terminals).
        Implementations must treat whatever capacities they find as the
        ground truth and report only the delta they push — never the
        total flow the graph carries.
        """

    def solve(
        self, graph: ResidualGraph, source: int, sink: int, limit: int | None = None
    ) -> int:
        """:meth:`solve_residual` plus per-solver accounting.

        The preferred entry point for the reliability loops: with a
        :class:`repro.obs.Recorder` installed it adds the solve to the
        ``solver.<name>.solves`` / ``solver.<name>.seconds`` counters on
        the current span; without one it is a direct passthrough.
        """
        recorder = current_recorder()
        if recorder is None:
            return self.solve_residual(graph, source, sink, limit=limit)
        start = wallclock()
        try:
            return self.solve_residual(graph, source, sink, limit=limit)
        finally:
            recorder.count(self._metric_solves)
            recorder.count(self._metric_seconds, wallclock() - start)
            if self.last_paths:
                recorder.count(self._metric_paths, self.last_paths)

    def max_flow(
        self,
        net: FlowNetwork,
        source: Node,
        sink: Node,
        *,
        alive: int | Iterable[int] | None = None,
        limit: int | None = None,
        template: ResidualTemplate | None = None,
    ) -> MaxFlowResult:
        """Solve on a :class:`FlowNetwork` and package the result.

        ``alive`` masks failed links (bitmask or iterable of indices).
        Supplying a pre-built ``template`` (from
        :func:`repro.flow.residual.build_template`) skips per-call
        construction — the fast path used by the reliability loops.
        """
        if source == sink:
            raise SolverError("source and sink must differ")
        if template is None:
            template = build_template(net)
        try:
            s = template.node_index[source]
            t = template.node_index[sink]
        except KeyError as exc:
            raise SolverError(f"terminal {exc.args[0]!r} is not in the network") from exc
        graph = template.configure(alive=alive)
        value = self.solve(graph, s, t, limit=limit)
        flows: dict[int, int] = {}
        for link in net.links():
            f = template.link_flow(link.index)
            if f != 0:
                flows[link.index] = f
        reachable_flags = graph.residual_reachable(s)
        reverse_index = {idx: node for node, idx in template.node_index.items()}
        reachable = frozenset(
            reverse_index[i] for i, flag in enumerate(reachable_flags) if flag
        )
        return MaxFlowResult(
            value=value,
            source=source,
            sink=sink,
            limited=limit is not None,
            link_flows=flows,
            min_cut_source_side=reachable,
        )


_REGISTRY: dict[str, Callable[[], MaxFlowSolver]] = {}

DEFAULT_SOLVER = "dinic"


def register_solver(name: str) -> Callable[[type], type]:
    """Class decorator adding a solver to the registry under ``name``."""

    def decorate(cls: type) -> type:
        if not issubclass(cls, MaxFlowSolver):
            raise SolverError(f"{cls!r} is not a MaxFlowSolver")
        cls.name = name
        cls._metric_solves = f"solver.{name}.solves"
        cls._metric_seconds = f"solver.{name}.seconds"
        cls._metric_paths = f"solver.{name}.paths"
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_solver(name: str | MaxFlowSolver | None = None) -> MaxFlowSolver:
    """Instantiate a registered solver (default: Dinic).

    Passing an existing solver instance returns it unchanged, so APIs
    can accept either a name or an instance.
    """
    if isinstance(name, MaxFlowSolver):
        return name
    key = name or DEFAULT_SOLVER
    try:
        factory = _REGISTRY[key]
    except KeyError as exc:
        raise SolverError(
            f"unknown max-flow solver {key!r}; available: {sorted(_REGISTRY)}"
        ) from exc
    return factory()


def available_solvers() -> list[str]:
    """Names of all registered solvers, sorted."""
    return sorted(_REGISTRY)


def max_flow(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    alive: int | Iterable[int] | None = None,
    limit: int | None = None,
    solver: str | MaxFlowSolver | None = None,
) -> MaxFlowResult:
    """Module-level convenience: solve with a registry solver."""
    return get_solver(solver).max_flow(net, source, sink, alive=alive, limit=limit)


def max_flow_value(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    alive: int | Iterable[int] | None = None,
    solver: str | MaxFlowSolver | None = None,
) -> int:
    """Just the max-flow value."""
    return max_flow(net, source, sink, alive=alive, solver=solver).value


def is_feasible(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    demand: int,
    *,
    alive: int | Iterable[int] | None = None,
    solver: str | MaxFlowSolver | None = None,
) -> bool:
    """Whether the (alive sub)network admits an s-t flow of ``demand``.

    Uses the ``limit`` short-circuit, so the cost is bounded by the
    demand rather than the total network capacity.
    """
    if demand <= 0:
        return True
    return (
        max_flow(net, source, sink, alive=alive, limit=demand, solver=solver).value
        >= demand
    )
