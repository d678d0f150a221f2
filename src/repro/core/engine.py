"""Parallel realization-array engine with pre-solve screens.

The bottleneck algorithm (§III-C) spends essentially all of its time in
the two realization arrays: ``|D| * 2^{|E_side|}`` side-local max-flow
solves per side.  This module turns that build into a process-parallel,
screen-accelerated pipeline while keeping the output **bit-identical**
to :func:`repro.core.arrays.build_side_array`:

* the two side arrays (``G_s``, ``G_t``) are independent, so all of
  their chunks go into **one** process pool and run concurrently;
* each side's ``2^m`` configuration lattice is partitioned by its
  **high bits** — the same owner-computes block decomposition
  :mod:`repro.core.parallel` proved for the naive algorithm, now
  factored into the shared :func:`partition_lattice` / :func:`run_chunked`
  helpers both modules use.  Within a chunk the low-bit lattice is
  complete, so monotone pruning stays sound per chunk;
* two *screens* answer "certainly not realized" without a max-flow
  solve: the alive capacity adjacent to the ports cannot carry the
  assignment (:meth:`RealizationScreens.port_budgets`), or a required
  port is disconnected from the terminal in the alive subgraph
  (an inlined undirected BFS with the same semantics as
  :func:`repro.graph.connectivity.component_of`).  Both screens
  are exact negatives, so screened entries still feed the monotone
  pruning and the resulting masks are unchanged.

Bit-identity across worker counts holds because pruning and the screens
are *sound*: every variant computes the same ground-truth realization
masks, only the number of max-flow solves differs (chunked pruning sees
only same-chunk supersets, so more solves; screens, fewer).  The
property tests in ``tests/properties/test_prop_engine.py`` pin this.

Workers are separate processes (no recorder contextvar crosses the
boundary), so each chunk reports its own solve/screen counts, the
solver's own ``solver.<name>.*`` counters (:func:`run_counted`) and
self-measured seconds; the parent replays them onto ``engine.chunk``
spans, keeping the ``flow_solves`` phase accounting exact.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.core.arrays import (
    RealizationArray,
    _side_template,
    _validate_side_request,
)
from repro.core.latticewalk import gray_walk_table, popcount_descending_order
from repro.exceptions import ReproValueError
from repro.flow.base import MaxFlowSolver, get_solver
from repro.flow.incremental import IncrementalMaxFlow, plan_gray_order, resolve_incremental
from repro.graph.io import from_dict, to_dict
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SideSplit, SubnetworkView
from repro.obs.recorder import (
    ARRAY_ENTRIES_BUILT,
    AUGMENTING_PATHS_SAVED,
    FLOW_REPAIRS,
    FLOW_SOLVES,
    SCREENED_SOLVES,
    count,
    current_recorder,
    record,
    span,
    wallclock,
)
from repro.obs.telemetry import current_spool_dir, spool_chunk_events
from repro.probability.bitset import pack_bitplanes
from repro.probability.enumeration import check_enumerable, configuration_probabilities

__all__ = [
    "LatticePlan",
    "RealizationScreens",
    "build_realization_arrays",
    "build_side_array_parallel",
    "default_workers",
    "partition_lattice",
    "run_chunked",
    "run_counted",
]

_R = TypeVar("_R")


def default_workers() -> int:
    """A sensible worker count: physical parallelism minus one, >= 1."""
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass(frozen=True)
class LatticePlan:
    """An owner-computes partition of a ``2^{num_bits}`` lattice.

    Chunk ``i`` owns every mask whose top ``high_bits`` bits equal
    ``i``; the ``low_bits`` low bits enumerate the chunk's complete
    sub-lattice, which is what keeps per-chunk monotone pruning sound.
    """

    num_bits: int
    high_bits: int

    @property
    def low_bits(self) -> int:
        """Bits enumerated inside each chunk."""
        return self.num_bits - self.high_bits

    @property
    def chunks(self) -> int:
        """Number of chunks (``2^high_bits``)."""
        return 1 << self.high_bits

    @property
    def chunk_size(self) -> int:
        """Masks per chunk (``2^low_bits``)."""
        return 1 << self.low_bits


def partition_lattice(num_bits: int, workers: int) -> LatticePlan:
    """Partition a ``2^{num_bits}`` lattice for ``workers`` processes.

    The chunk count is the smallest power of two >= ``workers`` (capped
    at ``2^{num_bits}``), exactly the scheme the naive parallel scan
    uses, so both decompositions stay comparable in benches.
    """
    if num_bits < 0:
        raise ReproValueError(f"num_bits must be non-negative, got {num_bits}")
    if workers < 1:
        raise ReproValueError(f"workers must be >= 1, got {workers}")
    high_bits = 0
    while (1 << high_bits) < workers and high_bits < num_bits:
        high_bits += 1
    return LatticePlan(num_bits=num_bits, high_bits=high_bits)


def run_chunked(
    worker: Callable[..., _R],
    tasks: Sequence[tuple[Any, ...]],
    *,
    workers: int,
) -> list[_R]:
    """Run ``worker(*task)`` for every task, possibly across processes.

    The shared worker-bootstrap helper behind both the naive parallel
    scan and the realization-array engine: one task per lattice chunk,
    results in task order.  With one worker (or one task) everything
    runs in-process — no pool, no pickling — which is also the path
    that keeps ``workers=1`` observability exact (the recorder
    contextvar does not cross process boundaries).

    ``worker`` must be a module-level (picklable) function and every
    task element spawn-safe; ship networks as :func:`repro.graph.io`
    dicts, not library objects.
    """
    if workers < 1:
        raise ReproValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        return [worker(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(worker, *zip(*tasks)))


def run_counted(
    capture: bool, call: Callable[[], _R]
) -> tuple[_R, dict[str, int | float]]:
    """``call()`` plus the counters it recorded, for the parent to replay.

    A pool worker has no recorder of its own, so without this its
    counters (the solver's ``solver.<name>.*`` above all) never reach
    the trace.  In-process the private recorder shadows the parent's,
    so replaying the returned counters counts each solve exactly once
    either way.  With ``capture`` off nothing is recording and this is
    a plain call.
    """
    if not capture:
        return call(), {}
    with record() as rec:
        result = call()
    return result, rec.counter_totals()


class RealizationScreens:
    """Cheap certain-negative tests for one side's realization solves.

    Both screens only ever answer "this (configuration, assignment)
    pair is certainly **not** realized"; a pass means nothing.  That
    one-sidedness is what makes them free: a screened entry is recorded
    as unrealized — the exact value a max-flow solve would have
    produced — so pruning and the final masks are unchanged.

    * **Budget screen** — the flow through port ``l`` is at most
      ``min(a_l, alive capacity adjacent to the port)`` (for the source
      side, links that can *deliver* into ``x_l``; for the sink side,
      links that can *drain* ``y_l``).  If those bounds sum below the
      demand the assignment cannot be realized.  A port that *is* the
      terminal originates/terminates flow itself and is unbounded.
    * **Connectivity screen** — a port with ``a_l > 0`` that is not in
      the terminal's undirected component of the alive subgraph cannot
      carry flow (undirected connectivity over-approximates directed
      reachability, so this is still a certain negative).

    Both per-configuration inputs (:meth:`port_budgets`,
    :meth:`reachable_ports`) are independent of the assignment, so one
    configuration's screen state is shared across all ``|D|``
    assignments.
    """

    def __init__(
        self,
        net: FlowNetwork,
        *,
        role: str,
        terminal: Node,
        ports: Sequence[Node],
        demand: int,
    ) -> None:
        self._net = net
        self._terminal = terminal
        self._ports = tuple(ports)
        self._demand = demand
        # Per port: None when the port is the terminal (unbounded),
        # else the (link index, capacity) pairs of side links that can
        # carry flow through the port in this side's direction.  Plain
        # tuples: the per-configuration sums run millions of times and
        # integer arithmetic beats tiny-array numpy there.
        feeders: list[tuple[tuple[int, int], ...] | None] = []
        for port in self._ports:
            if port == terminal:
                feeders.append(None)
                continue
            pairs: list[tuple[int, int]] = []
            for link in net.links():
                if link.tail == link.head:
                    continue
                if not link.directed:
                    useful = port in (link.tail, link.head)
                elif role == "source":
                    useful = link.head == port
                else:
                    useful = link.tail == port
                if useful:
                    pairs.append((link.index, link.capacity))
            feeders.append(tuple(pairs))
        self._feeders = feeders
        # Undirected adjacency over *all* side links (self-loops add
        # nothing to a component); the per-configuration BFS filters by
        # the alive mask.  Matches component_of's undirected semantics
        # without rebuilding adjacency 2^m times.
        adjacency: dict[Node, list[tuple[Node, int]]] = {
            node: [] for node in net.nodes()
        }
        for link in net.links():
            if link.tail == link.head:
                continue
            adjacency[link.tail].append((link.head, link.index))
            adjacency[link.head].append((link.tail, link.index))
        self._adjacency = adjacency

    def port_budgets(self, alive: int) -> list[int | None]:
        """Per-port alive adjacent capacity (``None`` = unbounded)."""
        budgets: list[int | None] = []
        for feeder in self._feeders:
            if feeder is None:
                budgets.append(None)
                continue
            budgets.append(
                sum(cap for idx, cap in feeder if (alive >> idx) & 1)
            )
        return budgets

    def reachable_ports(self, alive: int) -> tuple[bool, ...]:
        """Which ports share the terminal's alive undirected component."""
        adjacency = self._adjacency
        component = {self._terminal}
        queue = [self._terminal]
        while queue:
            current = queue.pop()
            for neighbor, index in adjacency[current]:
                if (alive >> index) & 1 and neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        return tuple(port in component for port in self._ports)

    def budget_screened(
        self, assignment: Sequence[int], budgets: Sequence[int | None]
    ) -> bool:
        """Certainly unrealized by capacity alone (reachability aside)."""
        bound = 0
        for a, budget in zip(assignment, budgets):
            bound += a if budget is None else min(int(a), budget)
        return bound < self._demand

    def connectivity_screened(
        self, assignment: Sequence[int], reachable: Sequence[bool]
    ) -> bool:
        """Certainly unrealized because a loaded port is cut off."""
        return any(a > 0 and not ok for a, ok in zip(assignment, reachable))

    def screened(
        self,
        assignment: Sequence[int],
        budgets: Sequence[int | None],
        reachable: Sequence[bool],
    ) -> bool:
        """True when the pair is certainly not realized (skip the solve)."""
        return self.budget_screened(assignment, budgets) or self.connectivity_screened(
            assignment, reachable
        )



def _build_chunk_masks(
    net: FlowNetwork,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: str | MaxFlowSolver | None,
    prune: bool,
    screen: bool,
    low_bits: int,
    high_pattern: int,
    incremental: bool = False,
) -> tuple[np.ndarray, int, int, int, int]:
    """Realization masks for one high-bit chunk of one side's lattice.

    Returns ``(masks, flow_calls, screened, repairs, paths_saved)``
    where ``masks`` is the ``uint64`` array for the chunk's
    ``2^low_bits`` configurations in low-bit order (``repairs`` /
    ``paths_saved`` are zero on the cold path).  Runs identically
    in-process and inside a worker.
    """
    template, port_names, s_idx, t_idx = _side_template(
        net, role=role, terminal=terminal, ports=ports, demand=demand
    )
    engine = get_solver(solver)

    screens = (
        RealizationScreens(
            net, role=role, terminal=terminal, ports=ports, demand=demand
        )
        if screen
        else None
    )

    check_enumerable(low_bits)
    size = 1 << low_bits
    base = high_pattern << low_bits
    num_assignments = len(assignments)
    flow_calls = 0
    screened = 0

    if incremental:
        return _chunk_masks_gray(
            template,
            port_names,
            s_idx,
            t_idx,
            screens,
            assignments=assignments,
            demand=demand,
            solver=engine,
            prune=prune,
            low_bits=low_bits,
            base=base,
        )

    if prune and low_bits > 0:
        order = [int(x) for x in popcount_descending_order(low_bits)]
    else:
        order = list(range(size))

    all_viable = (1 << num_assignments) - 1
    caps_by_assignment = [
        {name: int(a) for name, a in zip(port_names, assignment)}
        for assignment in assignments
    ]
    # Row masks live as plain ints: the pruning sweep ANDs one superset
    # row per missing bit, shared across all |D| assignments at once.
    rows = [0] * size
    for low in order:
        viable = all_viable
        if prune:
            # An assignment stays viable only while every immediate
            # in-chunk superset realized it (monotonicity); screened
            # entries were recorded unrealized, so they prune too.
            bits = ~low & (size - 1)
            while bits:
                lowest = bits & -bits
                viable &= rows[low | lowest]
                if not viable:
                    break
                bits ^= lowest
            if not viable:
                continue

        full_mask = base | low
        budgets: list[int | None] | None = None
        reachable: tuple[bool, ...] | None = None
        row = 0
        while viable:
            j_bit = viable & -viable
            viable ^= j_bit
            j = j_bit.bit_length() - 1
            assignment = assignments[j]
            if screens is not None:
                # Budget screen first — it is a handful of int ops; the
                # reachability BFS runs at most once per configuration
                # and only when some assignment survives the budgets.
                if budgets is None:
                    budgets = screens.port_budgets(full_mask)
                if screens.budget_screened(assignment, budgets):
                    screened += 1
                    continue
                if reachable is None:
                    reachable = screens.reachable_ports(full_mask)
                if screens.connectivity_screened(assignment, reachable):
                    screened += 1
                    continue
            graph = template.configure(
                alive=full_mask, virtual_capacities=caps_by_assignment[j]
            )
            flow_calls += 1
            value = engine.solve(graph, s_idx, t_idx, limit=demand)
            if value >= demand:
                row |= j_bit
        rows[low] = row

    masks = np.asarray(rows, dtype=np.uint64)
    return masks, flow_calls, screened, 0, 0


def _chunk_masks_gray(
    template: Any,
    port_names: Sequence[str],
    s_idx: int,
    t_idx: int,
    screens: "RealizationScreens | None",
    *,
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: MaxFlowSolver,
    prune: bool,
    low_bits: int,
    base: int,
) -> tuple[np.ndarray, int, int, int, int]:
    """Incremental variant of the chunk build: chunk-local Gray walks.

    One :class:`~repro.flow.incremental.IncrementalMaxFlow` per
    assignment walks the chunk's complete low-bit sub-lattice in
    Gray-code order (the high bits stay pinned to the chunk pattern), so
    consecutive solves repair a one-link delta.  The screens run
    unchanged — a screened entry is recorded unrealized without moving
    the engine — and their per-configuration state is cached across the
    ``|D|`` walks exactly as the cold path shares it across the inner
    assignment loop.  Masks are bit-identical to the cold chunk build.
    """
    check_enumerable(low_bits)
    size = 1 << low_bits
    num_assignments = len(assignments)
    realized = np.zeros((size, num_assignments), dtype=bool)
    flow_calls = screened = repairs = paths_saved = 0
    budgets_cache: dict[int, list[int | None]] = {}
    reachable_cache: dict[int, tuple[bool, ...]] = {}

    for j, assignment in enumerate(assignments):
        caps = {name: int(a) for name, a in zip(port_names, assignment)}
        engine = IncrementalMaxFlow(
            template,
            s_idx,
            t_idx,
            solver=solver,
            limit=demand,
            alive=base,
            virtual_capacities=caps,
        )
        order = plan_gray_order(
            template, s_idx, t_idx, low_bits,
            solver=solver, limit=demand or None, virtual_capacities=caps,
        )

        def decide(low: int, _engine: IncrementalMaxFlow = engine, _a=assignment) -> bool:
            nonlocal flow_calls, screened
            full_mask = base | low
            if screens is not None:
                budgets = budgets_cache.get(low)
                if budgets is None:
                    budgets = budgets_cache[low] = screens.port_budgets(full_mask)
                if screens.budget_screened(_a, budgets):
                    screened += 1
                    return False
                reachable = reachable_cache.get(low)
                if reachable is None:
                    reachable = reachable_cache[low] = screens.reachable_ports(full_mask)
                if screens.connectivity_screened(_a, reachable):
                    screened += 1
                    return False
            return _engine.goto(full_mask) >= demand

        gray_walk_table(realized[:, j], low_bits, decide, order=order, prune=prune)
        flow_calls += engine.solver_calls
        repairs += engine.repairs
        paths_saved += engine.paths_saved

    masks = pack_bitplanes(realized)
    return masks, flow_calls, screened, repairs, paths_saved


def _chunk_worker(payload: dict[str, Any]) -> dict[str, Any]:
    """Process-pool entry point: build one chunk from a plain-dict payload.

    Ships nothing but JSON-ready data plus hashable node labels, so the
    spawn start method works too.  Self-times through the sanctioned
    :func:`repro.obs.wallclock` and reports counts for the parent to
    replay onto spans (worker processes have no recorder installed).
    """
    start = wallclock()
    net = from_dict(payload["net"])
    built, solver_counters = run_counted(
        payload["capture"],
        lambda: _build_chunk_masks(
            net,
            role=payload["role"],
            terminal=payload["terminal"],
            ports=payload["ports"],
            assignments=payload["assignments"],
            demand=payload["demand"],
            solver=payload["solver"],
            prune=payload["prune"],
            screen=payload["screen"],
            low_bits=payload["low_bits"],
            high_pattern=payload["high_pattern"],
            incremental=payload["incremental"],
        ),
    )
    masks, flow_calls, screened, repairs, paths_saved = built
    result = {
        "side": payload["side"],
        "chunk": payload["high_pattern"],
        "masks": masks,
        "flow_calls": flow_calls,
        "screened": screened,
        "repairs": repairs,
        "paths_saved": paths_saved,
        "entries": len(payload["assignments"]) * (1 << payload["low_bits"]),
        "solver_counters": solver_counters,
        "seconds": wallclock() - start,
    }
    spool_dir = payload.get("spool_dir")
    if spool_dir:
        # Mirror _merge_side's replay exactly (same names, same
        # zero-suppression for the optional counters) so summing the
        # worker streams reproduces the parent's replayed totals
        # bit-for-bit — the invariant the telemetry property suite pins.
        counters: dict[str, int | float] = {
            FLOW_SOLVES: flow_calls,
            SCREENED_SOLVES: screened,
            ARRAY_ENTRIES_BUILT: result["entries"],
        }
        if repairs:
            counters[FLOW_REPAIRS] = repairs
        if paths_saved:
            counters[AUGMENTING_PATHS_SAVED] = paths_saved
        counters.update(solver_counters)
        spool_chunk_events(
            spool_dir,
            "engine.chunk",
            attrs={"side": payload["side"], "chunk": payload["high_pattern"]},
            seconds=result["seconds"],
            counters=counters,
        )
    return result


def _solver_token(solver: str | MaxFlowSolver | None) -> str | None:
    """A spawn-safe stand-in for a solver argument (registry name)."""
    if isinstance(solver, MaxFlowSolver):
        return solver.name
    return solver


def _side_payloads(
    side: SubnetworkView,
    *,
    side_name: str,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: str | MaxFlowSolver | None,
    prune: bool,
    screen: bool,
    incremental: bool,
    plan: LatticePlan,
) -> list[dict[str, Any]]:
    """One :func:`_chunk_worker` payload per chunk of one side."""
    net_data = to_dict(side.network)
    spool = current_spool_dir()
    capture = current_recorder() is not None
    return [
        {
            "side": side_name,
            "spool_dir": str(spool) if spool is not None else None,
            "capture": capture,
            "role": role,
            "net": net_data,
            "terminal": terminal,
            "ports": tuple(ports),
            "assignments": [tuple(int(x) for x in a) for a in assignments],
            "demand": demand,
            "solver": _solver_token(solver),
            "prune": prune,
            "screen": screen,
            "incremental": incremental,
            "low_bits": plan.low_bits,
            "high_pattern": pattern,
        }
        for pattern in range(plan.chunks)
    ]


def _merge_side(
    side: SubnetworkView,
    results: list[dict[str, Any]],
    *,
    side_name: str,
    num_assignments: int,
) -> tuple[RealizationArray, int]:
    """Bit-exact merge of one side's chunk results, replaying obs counts.

    Chunks are concatenated in high-pattern order, so entry ``i`` of the
    merged array is exactly configuration ``i`` — the same indexing the
    serial builder produces.  Returns the array and the side's screened
    count.
    """
    ordered = sorted(results, key=lambda r: int(r["chunk"]))
    screened_total = 0
    flow_total = 0
    for r in ordered:
        with span(
            "engine.chunk",
            side=side_name,
            chunk=int(r["chunk"]),
            worker_seconds=float(r["seconds"]),
        ):
            count(FLOW_SOLVES, int(r["flow_calls"]))
            count(SCREENED_SOLVES, int(r["screened"]))
            count(ARRAY_ENTRIES_BUILT, int(r["entries"]))
            if r.get("repairs"):
                count(FLOW_REPAIRS, int(r["repairs"]))
            if r.get("paths_saved"):
                count(AUGMENTING_PATHS_SAVED, int(r["paths_saved"]))
            for name, amount in r["solver_counters"].items():
                count(name, amount)
        screened_total += int(r["screened"])
        flow_total += int(r["flow_calls"])
    masks = np.concatenate([np.asarray(r["masks"], dtype=np.uint64) for r in ordered])
    probabilities = configuration_probabilities(side.network)
    array = RealizationArray(
        masks=masks,
        probabilities=probabilities,
        num_assignments=num_assignments,
        flow_calls=flow_total,
    )
    return array, screened_total


def build_side_array_parallel(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: str | MaxFlowSolver | None = None,
    prune: bool = True,
    screen: bool = True,
    workers: int | None = None,
    incremental: bool | None = None,
) -> RealizationArray:
    """Chunked (optionally multi-process) drop-in for ``build_side_array``.

    Produces masks bit-identical to
    :func:`repro.core.arrays.build_side_array` for every ``workers``
    value — only ``flow_calls`` differs (chunked pruning sees only
    same-chunk supersets, so more solves; screens, fewer).
    ``workers=None`` uses :func:`default_workers`; ``incremental=None``
    auto-enables the per-chunk Gray walk whenever the solver supports
    the warm-start contract.
    """
    if workers is None:
        workers = default_workers()
    net = side.network
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    use_incremental = resolve_incremental(solver, incremental)
    plan = partition_lattice(net.num_links, workers)
    payloads = _side_payloads(
        side,
        side_name=role,
        role=role,
        terminal=terminal,
        ports=ports,
        assignments=assignments,
        demand=demand,
        solver=solver,
        prune=prune,
        screen=screen,
        incremental=use_incremental,
        plan=plan,
    )
    # Literal span names (not f"engine.{role}_array"): RR111 keeps the
    # span vocabulary closed to the KNOWN_SPANS catalogue.
    span_name = "engine.source_array" if role == "source" else "engine.sink_array"
    with span(
        span_name,
        links=net.num_links,
        assignments=len(assignments),
        workers=workers,
        chunks=plan.chunks,
    ):
        results = run_chunked(_chunk_worker, [(p,) for p in payloads], workers=workers)
        array, _ = _merge_side(
            side, results, side_name=role, num_assignments=len(assignments)
        )
    return array


def build_realization_arrays(
    split: SideSplit,
    *,
    source: Node,
    sink: Node,
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: str | MaxFlowSolver | None = None,
    prune: bool = True,
    screen: bool = True,
    workers: int | None = None,
    incremental: bool | None = None,
) -> tuple[RealizationArray, RealizationArray, dict[str, Any]]:
    """Both §III-C side arrays through one process pool.

    The two sides are independent, so every chunk of ``G_s`` and
    ``G_t`` goes into the same pool and the slow side cannot serialize
    behind the fast one.  Returns ``(source_array, sink_array, stats)``
    with ``stats`` carrying the engine accounting (``workers``,
    ``screened_solves``, per-side chunk counts, and the incremental
    repair totals when the Gray walk is on).
    """
    if workers is None:
        workers = default_workers()
    for side, role, ports in (
        (split.source_side, "source", split.source_ports),
        (split.sink_side, "sink", split.sink_ports),
    ):
        _validate_side_request(
            side.network,
            role=role,
            assignments=assignments,
            ports=ports,
            demand=demand,
        )
    use_incremental = resolve_incremental(solver, incremental)
    source_plan = partition_lattice(split.source_side.network.num_links, workers)
    sink_plan = partition_lattice(split.sink_side.network.num_links, workers)
    payloads = _side_payloads(
        split.source_side,
        side_name="source",
        role="source",
        terminal=source,
        ports=split.source_ports,
        assignments=assignments,
        demand=demand,
        solver=solver,
        prune=prune,
        screen=screen,
        incremental=use_incremental,
        plan=source_plan,
    ) + _side_payloads(
        split.sink_side,
        side_name="sink",
        role="sink",
        terminal=sink,
        ports=split.sink_ports,
        assignments=assignments,
        demand=demand,
        solver=solver,
        prune=prune,
        screen=screen,
        incremental=use_incremental,
        plan=sink_plan,
    )
    with span(
        "engine.build",
        workers=workers,
        chunks=len(payloads),
        screen=screen,
        prune=prune,
    ):
        results = run_chunked(_chunk_worker, [(p,) for p in payloads], workers=workers)
        with span(
            "engine.source_array",
            links=split.source_side.network.num_links,
            assignments=len(assignments),
            chunks=source_plan.chunks,
        ):
            source_array, source_screened = _merge_side(
                split.source_side,
                [r for r in results if r["side"] == "source"],
                side_name="source",
                num_assignments=len(assignments),
            )
        with span(
            "engine.sink_array",
            links=split.sink_side.network.num_links,
            assignments=len(assignments),
            chunks=sink_plan.chunks,
        ):
            sink_array, sink_screened = _merge_side(
                split.sink_side,
                [r for r in results if r["side"] == "sink"],
                side_name="sink",
                num_assignments=len(assignments),
            )
    stats: dict[str, Any] = {
        "workers": workers,
        "screened_solves": source_screened + sink_screened,
        "source_chunks": source_plan.chunks,
        "sink_chunks": sink_plan.chunks,
        "incremental": use_incremental,
        "flow_repairs": sum(int(r.get("repairs", 0)) for r in results),
        "augmenting_paths_saved": sum(int(r.get("paths_saved", 0)) for r in results),
    }
    return source_array, sink_array, stats
