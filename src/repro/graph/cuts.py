"""Minimal s-t cut enumeration and α-bottleneck discovery.

The paper assumes a set of *α-bottleneck links* is known: a minimal s-t
disconnecting link set of constant size whose removal leaves exactly two
connected components, each holding at most ``α|E|`` links.  This module
finds such sets:

* :func:`bridges_between` — the ``k = 1`` fast path: the s-t bridges;
* :func:`minimal_st_cuts` — exhaustive enumeration of minimal cuts up to
  a size bound, at ``C(|E|, k-1)`` DFS passes of ``O(|V| + |E|)`` for
  size class ``k`` (fine for the constant ``k`` the paper assumes);
* :func:`minimum_cardinality_cut` — one smallest cut via unit-capacity
  max-flow (Menger), used to seed / lower-bound the search;
* :func:`find_bottleneck` — picks the admissible cut minimising the
  achieved α.

Separation is *undirected*: the paper's components are connected
components of the link-removal graph, independent of link direction.
Every connectivity question here goes through one primitive, the s-t
bridges of ``G - removed`` (:func:`_st_bridge_finder`): ``removed``
disconnects the terminals exactly when it returns ``None``, and
``removed ∪ {c}`` does exactly when ``c`` is one of the bridges.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable, Sequence

from repro.exceptions import DecompositionError, NodeNotFoundError
from repro.graph.connectivity import bridges
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SideSplit, split_on_cut

__all__ = [
    "is_disconnecting",
    "is_minimal_cut",
    "bridges_between",
    "minimum_cardinality_cut",
    "minimal_st_cuts",
    "find_bottleneck",
    "verify_bottleneck",
]

#: ``removed -> sorted s-t bridges of G - removed``, or ``None`` when
#: ``G - removed`` already separates the terminals.
StBridges = Callable[[Collection[int]], "list[int] | None"]


def _st_bridge_finder(net: FlowNetwork, source: Node, sink: Node) -> StBridges:
    """Prepare ``net`` once for repeated s-t bridge queries.

    The network becomes an integer-indexed undirected adjacency list
    (self-loops dropped, parallel links kept apart by index).  Each
    query runs one iterative Tarjan low-link DFS from ``source`` over the
    links not in ``removed``; the s-t bridges are the tree links on the
    ``source -> sink`` tree path whose child cannot reach above its
    parent (``low[child] > disc[parent]``).
    """
    for node in (sink, source):
        if not net.has_node(node):
            raise NodeNotFoundError(node)
    ids = {node: i for i, node in enumerate(net.nodes())}
    adj: list[list[tuple[int, int]]] = [[] for _ in ids]
    for link in net.links():
        if link.tail != link.head:
            u, v = ids[link.tail], ids[link.head]
            adj[u].append((v, link.index))
            adj[v].append((u, link.index))
    s, t, n = ids[source], ids[sink], len(ids)

    def st_bridges(removed: Collection[int]) -> list[int] | None:
        disc = [0] * n  # discovery time from 1; 0 means unvisited
        low = [0] * n
        parent = [-1] * n
        via = [-1] * n  # tree link into each node
        disc[s] = low[s] = clock = 1
        stack = [(s, iter(adj[s]))]
        while stack:
            node, neighbours = stack[-1]
            for other, link in neighbours:
                if link == via[node] or link in removed:
                    continue
                if disc[other]:
                    if disc[other] < low[node]:
                        low[node] = disc[other]
                else:
                    clock += 1
                    disc[other] = low[other] = clock
                    parent[other], via[other] = node, link
                    stack.append((other, iter(adj[other])))
                    break
            else:
                stack.pop()
                up = parent[node]
                if up >= 0 and low[node] < low[up]:
                    low[up] = low[node]
        if not disc[t]:
            return None
        found = []
        node = t
        while node != s:
            up = parent[node]
            if low[node] > disc[up]:
                found.append(via[node])
            node = up
        found.sort()
        return found

    return st_bridges


def is_disconnecting(
    net: FlowNetwork, source: Node, sink: Node, cut: Iterable[int]
) -> bool:
    """Whether removing ``cut`` separates the terminals (undirected)."""
    return _st_bridge_finder(net, source, sink)(set(cut)) is None


def is_minimal_cut(
    net: FlowNetwork, source: Node, sink: Node, cut: Sequence[int]
) -> bool:
    """Whether ``cut`` disconnects s and t and no proper subset does."""
    st_bridges = _st_bridge_finder(net, source, sink)
    removed = set(cut)
    if len(removed) != len(cut) or st_bridges(removed) is not None:
        return False
    return all(st_bridges(removed - {index}) is not None for index in cut)


def bridges_between(net: FlowNetwork, source: Node, sink: Node) -> list[int]:
    """Bridge links that actually separate ``source`` from ``sink``.

    A bridge separates its component into two; only bridges whose two
    sides contain one terminal each are s-t cuts of size one.  When the
    terminals are already apart, removing any link keeps them apart, so
    every bridge of the network is returned.
    """
    found = _st_bridge_finder(net, source, sink)(())
    return bridges(net) if found is None else found


def minimum_cardinality_cut(
    net: FlowNetwork, source: Node, sink: Node
) -> list[int] | None:
    """One minimum-cardinality s-t *undirected* cut, via Menger/max-flow.

    Every link is given unit capacity and made traversable both ways
    (undirected separation); the min cut of that auxiliary problem is a
    smallest link set whose removal disconnects the terminals.  Returns
    ``None`` when the terminals are already disconnected, and the empty
    impossibility is reported the same way.
    """
    # Local import: repro.flow depends on repro.graph, not vice versa.
    from repro.flow.dinic import DinicSolver

    st_bridges = _st_bridge_finder(net, source, sink)
    if st_bridges(()) is None:
        return None
    aux = FlowNetwork(name="unit-aux")
    aux.add_nodes(net.nodes())
    for link in net.links():
        aux.add_link(link.tail, link.head, 1, 0.0, directed=False)
    solver = DinicSolver()
    result = solver.max_flow(aux, source, sink)
    reachable = result.min_cut_source_side
    cut = [
        link.index
        for link in net.links()
        if (link.tail in reachable) != (link.head in reachable)
    ]
    # The crossing set of the max-flow bipartition is disconnecting; prune
    # it down to a minimal subset (it usually already is minimal).
    return _prune_to_minimal(st_bridges, cut)


def _prune_to_minimal(st_bridges: StBridges, cut: Sequence[int]) -> list[int]:
    current = list(cut)
    changed = True
    while changed:
        changed = False
        for index in list(current):
            reduced = [c for c in current if c != index]
            if st_bridges(reduced) is None:
                current = reduced
                changed = True
    return sorted(current)


def minimal_st_cuts(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    max_size: int,
    *,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All minimal s-t cuts of size at most ``max_size``.

    Size classes come in increasing order, each in
    :func:`itertools.combinations` order of the link indices.  A size-``k``
    cut is a ``(k-1)``-prefix ``P`` plus one link ``c > P[-1]``, and
    ``P ∪ {c}`` disconnects exactly when ``c`` is an s-t bridge of
    ``G - P``.  So each prefix costs one DFS: prefixes holding an
    already-found cut are skipped (supersets of cuts are never minimal),
    and the rest are extended by their bridges.  A disconnecting
    candidate is minimal exactly when no smaller found cut is a subset of
    it.  Cost is ``C(|E|, k-1)`` DFS passes of ``O(|V| + |E|)`` for size
    class ``k`` — the "constant k" regime of the paper.

    ``limit`` truncates the result once that many cuts were found.
    """
    if max_size < 1:
        return []
    st_bridges = _st_bridge_finder(net, source, sink)
    if st_bridges(()) is None:
        # Already apart: no nonempty link set is a minimal cut.
        return []
    found: list[tuple[int, ...]] = []
    found_sets: list[frozenset[int]] = []
    indices = [link.index for link in net.links()]
    for size in range(1, max_size + 1):
        # A prefix holding the last index has no ``c > P[-1]`` to add.
        for prefix in combinations(indices[:-1], size - 1):
            prefix_set = frozenset(prefix)
            if any(cut <= prefix_set for cut in found_sets):
                continue
            last = prefix[-1] if prefix else -1
            for link in st_bridges(prefix_set) or ():
                if link <= last:
                    continue
                candidate = prefix_set | {link}
                if any(cut <= candidate for cut in found_sets):
                    continue
                found.append(prefix + (link,))
                found_sets.append(candidate)
                if limit is not None and len(found) >= limit:
                    return found
    return found


def verify_bottleneck(
    net: FlowNetwork, source: Node, sink: Node, cut: Sequence[int]
) -> SideSplit:
    """Validate ``cut`` as an α-bottleneck link set and split on it.

    Checks minimality (the paper's condition 1) and the exactly-two-
    components condition (via :func:`split_on_cut`).  Returns the
    :class:`~repro.graph.transforms.SideSplit`.
    """
    if not is_minimal_cut(net, source, sink, cut):
        raise DecompositionError(
            f"links {tuple(cut)} are not a minimal s-t disconnecting set"
        )
    return split_on_cut(net, source, sink, cut)


def find_bottleneck(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    max_size: int = 3,
    max_candidates: int = 256,
) -> SideSplit | None:
    """Find the admissible bottleneck cut with the best (smallest) α.

    Strategy: collect bridge cuts (size 1), the minimum-cardinality cut,
    and every minimal cut up to ``max_size`` (capped at
    ``max_candidates``); keep the candidates whose split satisfies the
    two-component condition; return the one minimising
    ``max(|E_s|, |E_t|)``, breaking ties towards fewer cut links.
    Returns ``None`` when no admissible cut of size <= ``max_size``
    exists (e.g. the terminals are adjacent through many parallel
    links).
    """
    candidates: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()

    def push(cut: Sequence[int]) -> None:
        key = frozenset(cut)
        if key and key not in seen and len(key) <= max_size:
            seen.add(key)
            candidates.append(tuple(sorted(key)))

    for index in bridges_between(net, source, sink):
        push([index])
    smallest = minimum_cardinality_cut(net, source, sink)
    if smallest is not None:
        push(smallest)
    for cut in minimal_st_cuts(net, source, sink, max_size, limit=max_candidates):
        push(cut)

    best: SideSplit | None = None
    best_key: tuple[int, int] | None = None
    for cut in candidates:
        try:
            split = split_on_cut(net, source, sink, cut)
        except DecompositionError:
            continue
        side = max(len(split.source_side.link_map), len(split.sink_side.link_map))
        key = (side, len(cut))
        if best_key is None or key < best_key:
            best, best_key = split, key
    return best
