"""Property-based tests for graph-structure algorithms."""

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import cuts
from repro.graph.connectivity import (
    bridges,
    connected_components,
    has_path,
    is_connected,
)
from repro.graph.cuts import is_disconnecting, is_minimal_cut, minimal_st_cuts
from repro.graph.io import from_dict, to_dict
from repro.graph.network import FlowNetwork
from repro.core.assignments import count_assignments, enumerate_assignments, support_mask
from tests.conftest import small_networks


class TestConnectivityProperties:
    @settings(max_examples=50, deadline=None)
    @given(small_networks())
    def test_components_partition_nodes(self, net):
        comps = connected_components(net)
        all_nodes = [node for comp in comps for node in comp]
        assert sorted(map(str, all_nodes)) == sorted(map(str, net.nodes()))

    @settings(max_examples=50, deadline=None)
    @given(small_networks())
    def test_strategy_networks_are_connected(self, net):
        assert is_connected(net)

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_bridge_definition(self, net):
        """Removing a bridge increases the component count; removing a
        non-bridge does not."""
        bridge_set = set(bridges(net))
        base = len(connected_components(net))
        for link in net.links():
            alive = [l.index for l in net.links() if l.index != link.index]
            after = len(connected_components(net, alive))
            if link.index in bridge_set:
                assert after == base + 1
            else:
                assert after == base

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_minimal_cuts_are_minimal_and_disconnecting(self, net):
        for cut in minimal_st_cuts(net, "s", "t", 2, limit=16):
            assert is_disconnecting(net, "s", "t", cut)
            assert is_minimal_cut(net, "s", "t", list(cut))

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_full_link_removal_disconnects(self, net):
        assert is_disconnecting(net, "s", "t", range(net.num_links))
        assert has_path(net, "s", "t")


# -- subset-scan oracle for the cut search ------------------------------
#
# The plain definitions, by brute force over link subsets and one BFS per
# subset (connectivity.has_path); independent of the s-t bridge primitive
# in repro.graph.cuts.


def _oracle_disconnecting(net, source, sink, cut):
    removed = set(cut)
    alive = [link.index for link in net.links() if link.index not in removed]
    return not has_path(net, source, sink, alive)


def _oracle_minimal(net, source, sink, cut):
    cut_list = list(dict.fromkeys(cut))
    if len(cut_list) != len(cut) or not _oracle_disconnecting(net, source, sink, cut_list):
        return False
    return not any(
        _oracle_disconnecting(net, source, sink, [c for c in cut_list if c != index])
        for index in cut_list
    )


def _oracle_minimal_cuts(net, source, sink, max_size, *, limit=None):
    """Every subset in combinations order, size class by size class."""
    found, found_sets = [], []
    indices = [link.index for link in net.links()]
    for size in range(1, max_size + 1):
        for candidate in combinations(indices, size):
            cand_set = frozenset(candidate)
            if any(smaller <= cand_set for smaller in found_sets if len(smaller) < size):
                continue
            if not _oracle_disconnecting(net, source, sink, candidate):
                continue
            if _oracle_minimal(net, source, sink, candidate):
                found.append(candidate)
                found_sets.append(cand_set)
                if limit is not None and len(found) >= limit:
                    return found
    return found


def _oracle_bridges_between(net, source, sink):
    return [i for i in bridges(net) if _oracle_disconnecting(net, source, sink, [i])]


@st.composite
def cut_multigraphs(draw):
    """Small multigraphs with directed and undirected links, parallel
    links, self-loops, isolated nodes and possibly disconnected terminals."""
    nodes = ["s", "t"] + [f"v{i}" for i in range(draw(st.integers(0, 4)))]
    net = FlowNetwork()
    net.add_nodes(nodes)
    if draw(st.booleans()):
        # an s-t path first, so most draws have cuts to find
        path = ["s", *draw(st.permutations(nodes[2:]))[: draw(st.integers(0, 2))], "t"]
        for tail, head in zip(path, path[1:]):
            net.add_link(tail, head, 1, 0.1, directed=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 8))):
        tail, head = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        net.add_link(tail, head, 1, 0.1, directed=draw(st.booleans()))
    return net


limits = st.sampled_from([None, 1, 2, 3, 5])


class TestCutSearchOracle:
    @settings(max_examples=300, deadline=None)
    @given(cut_multigraphs(), st.integers(1, 4), limits)
    def test_minimal_st_cuts_matches_subset_scan(self, net, max_size, limit):
        # identical list: same cuts, same order, same truncation
        assert minimal_st_cuts(net, "s", "t", max_size, limit=limit) == (
            _oracle_minimal_cuts(net, "s", "t", max_size, limit=limit)
        )

    @settings(max_examples=100, deadline=None)
    @given(cut_multigraphs(), st.integers(1, 4), st.sampled_from([1, 2, 3, 5, 256]))
    def test_find_bottleneck_matches_oracle_search(self, net, max_size, max_candidates):
        def search():
            split = cuts.find_bottleneck(
                net, "s", "t", max_size=max_size, max_candidates=max_candidates
            )
            return None if split is None else split.cut

        with mock.patch.object(cuts, "minimal_st_cuts", _oracle_minimal_cuts):
            with mock.patch.object(cuts, "bridges_between", _oracle_bridges_between):
                expected = search()
        assert search() == expected

    @settings(max_examples=100, deadline=None)
    @given(cut_multigraphs())
    def test_predicates_match_definitions(self, net):
        assert cuts.bridges_between(net, "s", "t") == _oracle_bridges_between(net, "s", "t")
        for size in range(4):
            for cut in combinations(range(net.num_links), size):
                assert is_disconnecting(net, "s", "t", cut) == (
                    _oracle_disconnecting(net, "s", "t", cut)
                )
                assert is_minimal_cut(net, "s", "t", cut) == _oracle_minimal(net, "s", "t", cut)


class TestIoProperties:
    @settings(max_examples=50, deadline=None)
    @given(small_networks())
    def test_serialization_round_trip(self, net):
        clone = from_dict(to_dict(net))
        assert clone.num_nodes == net.num_nodes
        assert clone.num_links == net.num_links
        for a, b in zip(net.links(), clone.links()):
            assert a.endpoints == b.endpoints
            assert a.capacity == b.capacity
            assert a.failure_probability == pytest.approx(b.failure_probability)


class TestAssignmentProperties:
    caps = st.lists(st.integers(0, 4), min_size=1, max_size=4)

    @settings(max_examples=80)
    @given(caps, st.integers(0, 6))
    def test_count_matches_enumeration(self, caps, demand):
        assert count_assignments(caps, demand) == len(enumerate_assignments(caps, demand))

    @settings(max_examples=80)
    @given(caps, st.integers(0, 6))
    def test_assignments_valid(self, caps, demand):
        for a in enumerate_assignments(caps, demand):
            assert sum(a) == demand
            assert all(0 <= v <= min(c, demand) for v, c in zip(a, caps))

    @settings(max_examples=80)
    @given(caps, st.integers(0, 5))
    def test_assignments_unique_and_sorted(self, caps, demand):
        result = enumerate_assignments(caps, demand)
        assert len(set(result)) == len(result)
        assert result == sorted(result)

    @settings(max_examples=50)
    @given(caps, st.integers(1, 5))
    def test_support_popcount_bounds(self, caps, demand):
        for a in enumerate_assignments(caps, demand):
            mask = support_mask(a)
            positive = sum(1 for v in a if v > 0)
            assert bin(mask).count("1") == positive
