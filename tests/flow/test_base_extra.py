"""Additional tests for repro.flow.base: registry contracts, template
reuse and infinite-capacity arcs."""

import pytest

from repro.exceptions import SolverError
from repro.flow.base import (
    MaxFlowSolver,
    get_solver,
    max_flow,
    register_solver,
)
from repro.flow.residual import INFINITE_CAPACITY, build_template
from repro.graph.builders import diamond, two_paths
from repro.graph.network import FlowNetwork


class TestRegistryContracts:
    def test_register_rejects_non_solver(self):
        with pytest.raises(SolverError):

            @register_solver("bogus")
            class NotASolver:
                pass

    def test_custom_solver_registration(self):
        @register_solver("copycat-dinic")
        class CopycatSolver(MaxFlowSolver):
            def solve_residual(self, graph, source, sink, limit=None):
                return get_solver("dinic").solve_residual(graph, source, sink, limit)

        value = max_flow(diamond(), "s", "t", solver="copycat-dinic").value
        assert value == 2

    def test_solver_name_attribute_set(self):
        assert get_solver("edmonds_karp").name == "edmonds_karp"

    def test_solver_counters_carry_the_registered_name(self):
        from repro.core import compute_reliability
        from repro.obs import Recorder, record

        recorder = Recorder()
        with record(recorder):
            compute_reliability(diamond(), "s", "t", 1)
        totals = recorder.counter_totals()
        assert totals.get("solver.dinic.solves", 0) > 0
        assert not [k for k in totals if k.startswith("solver.unnamed.")]


class TestTemplateReuse:
    def test_repeated_solves_on_one_template(self):
        net = two_paths(2, 1)
        template = build_template(net)
        solver = get_solver()
        values = []
        for alive in (None, 0b0011, 0b1100, 0b0000):
            values.append(
                solver.max_flow(net, "s", "t", alive=alive, template=template).value
            )
        assert values == [3, 2, 1, 0]

    def test_template_state_does_not_leak(self):
        net = diamond()
        template = build_template(net)
        solver = get_solver()
        first = solver.max_flow(net, "s", "t", template=template).value
        second = solver.max_flow(net, "s", "t", template=template).value
        assert first == second == 2

    def test_interleaved_limits(self):
        net = two_paths(2, 1)
        template = build_template(net)
        solver = get_solver()
        limited = solver.max_flow(net, "s", "t", limit=1, template=template).value
        full = solver.max_flow(net, "s", "t", template=template).value
        assert (limited, full) == (1, 3)


class TestInfiniteCapacity:
    def test_virtual_arc_never_bottlenecks(self):
        net = FlowNetwork()
        net.add_link("s", "m", 1000, 0.0)
        net.add_link("m", "t", 1000, 0.0)
        template = build_template(net, extra_nodes=["virt"])
        template.add_virtual_arc(
            "boost", template.node_index["s"], template.node_index["virt"], INFINITE_CAPACITY
        )
        graph = template.configure()
        assert graph.cap[template.virtual_arcs["boost"]] == INFINITE_CAPACITY

    def test_infinite_capacity_magnitude(self):
        # large enough to never bind, small enough to sum safely
        assert INFINITE_CAPACITY > 10**9
        assert INFINITE_CAPACITY * 1000 < 2**63


class TestMaxFlowEdgeCases:
    def test_zero_capacity_network(self):
        net = FlowNetwork()
        net.add_link("s", "t", 0)
        assert max_flow(net, "s", "t").value == 0

    def test_self_loop_contributes_nothing(self):
        net = FlowNetwork()
        net.add_link("s", "s", 5)
        net.add_link("s", "t", 1)
        assert max_flow(net, "s", "t").value == 1

    def test_isolated_terminals(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        result = max_flow(net, "s", "t")
        assert result.value == 0
        assert result.link_flows == {}

    def test_limit_zero(self):
        assert max_flow(diamond(), "s", "t", limit=0).value == 0
