"""Unit tests for the cheap bounds and the high-level API."""

import pytest

from repro.core.api import available_methods, compute_reliability
from repro.core.bounds import cut_upper_bound, reliability_bounds, route_lower_bound
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.core.result import EstimateResult, ReliabilityResult
from repro.exceptions import ReproError
from repro.graph.builders import (
    diamond,
    fujita_fig2_bridge,
    fujita_fig4,
    parallel_links,
    series_chain,
)
from repro.graph.generators import bottlenecked_network, random_network
from repro.graph.network import FlowNetwork
from repro.obs.recorder import record


class TestCutUpperBound:
    def test_series_chain_exact(self):
        # every link is a cut; the bound equals the true reliability
        net = series_chain(3, capacity=1, failure_probability=0.1)
        demand = FlowDemand("s", "t", 1)
        assert cut_upper_bound(net, demand) == pytest.approx(0.9)

    def test_parallel_exact(self):
        net = parallel_links(3, 1, 0.1)
        demand = FlowDemand("s", "t", 2)
        exact = naive_reliability(net, demand).value
        assert cut_upper_bound(net, demand, max_cut_size=3) == pytest.approx(exact)

    def test_is_upper_bound(self):
        for seed in range(5):
            net = random_network(6, 10, seed=seed)
            demand = FlowDemand("s", "t", 1)
            exact = naive_reliability(net, demand).value
            assert cut_upper_bound(net, demand) >= exact - 1e-12

    def test_disconnected_zero(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        assert cut_upper_bound(net, FlowDemand("s", "t", 1)) == 0.0

    def test_infeasible_demand_zero(self):
        assert cut_upper_bound(diamond(), FlowDemand("s", "t", 5)) == 0.0


class TestRouteLowerBound:
    def test_single_path(self):
        net = series_chain(3, capacity=1, failure_probability=0.1)
        demand = FlowDemand("s", "t", 1)
        assert route_lower_bound(net, demand) == pytest.approx(0.9**3)

    def test_diamond_two_families(self):
        demand = FlowDemand("s", "t", 1)
        bound = route_lower_bound(diamond(), demand, max_families=2)
        # both disjoint 2-hop paths found: IE gives the exact value here
        assert bound == pytest.approx(1 - (1 - 0.81) ** 2)

    def test_is_lower_bound(self):
        for seed in range(5):
            net = random_network(6, 10, seed=seed)
            demand = FlowDemand("s", "t", 1)
            exact = naive_reliability(net, demand).value
            assert route_lower_bound(net, demand) <= exact + 1e-12

    def test_infeasible_zero(self):
        assert route_lower_bound(diamond(), FlowDemand("s", "t", 5)) == 0.0

    def test_more_families_never_worse(self):
        demand = FlowDemand("s", "t", 1)
        one = route_lower_bound(diamond(), demand, max_families=1)
        two = route_lower_bound(diamond(), demand, max_families=2)
        assert two >= one - 1e-12

    def test_rejects_zero_families(self):
        with pytest.raises(ReproError):
            route_lower_bound(diamond(), FlowDemand("s", "t", 1), max_families=0)


class TestReliabilityBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_brackets_exact(self, seed):
        net = bottlenecked_network(
            source_side_links=5, sink_side_links=5, num_bottlenecks=2, demand=2, seed=seed
        )
        demand = FlowDemand("s", "t", 2)
        low, high = reliability_bounds(net, demand)
        exact = naive_reliability(net, demand).value
        assert low - 1e-10 <= exact <= high + 1e-10


class TestComputeReliability:
    def test_positional_triple(self):
        result = compute_reliability(diamond(), "s", "t", 1)
        assert isinstance(result, ReliabilityResult)

    def test_demand_keyword(self):
        result = compute_reliability(diamond(), demand=FlowDemand("s", "t", 1))
        assert 0 < result.value < 1

    def test_both_forms_rejected(self):
        with pytest.raises(ReproError):
            compute_reliability(diamond(), "s", "t", 1, demand=FlowDemand("s", "t", 1))

    def test_neither_form_rejected(self):
        with pytest.raises(ReproError):
            compute_reliability(diamond())

    def test_explicit_methods_agree(self):
        net = fujita_fig4()
        values = {}
        for method in ("naive", "factoring"):
            values[method] = compute_reliability(net, "s", "t", 2, method=method).value
        values["bottleneck"] = compute_reliability(
            net, "s", "t", 2, method="bottleneck", cut=[0, 1]
        ).value
        values["chain"] = compute_reliability(
            net, "s", "t", 2, method="chain", cuts=[[0, 1]]
        ).value
        assert len({round(v, 10) for v in values.values()}) == 1

    def test_bridge_method(self):
        result = compute_reliability(fujita_fig2_bridge(), "s", "t", 2, method="bridge")
        assert result.method == "bridge"

    def test_montecarlo_method(self):
        result = compute_reliability(
            diamond(), "s", "t", 1, method="montecarlo", num_samples=500, seed=0
        )
        assert isinstance(result, EstimateResult)

    def test_chain_requires_cuts(self):
        with pytest.raises(ReproError):
            compute_reliability(fujita_fig4(), "s", "t", 2, method="chain")

    def test_unknown_method(self):
        with pytest.raises(ReproError):
            compute_reliability(diamond(), "s", "t", 1, method="magic")

    def test_auto_prefers_bottleneck(self):
        net = fujita_fig2_bridge()
        assert compute_reliability(net, "s", "t", 2).method == "bottleneck"

    def test_auto_falls_back_without_cut(self):
        result = compute_reliability(parallel_links(5), "s", "t", 2)
        assert result.method in ("naive", "factoring")
        exact = naive_reliability(parallel_links(5), FlowDemand("s", "t", 2)).value
        assert result.value == pytest.approx(exact)

    def test_auto_cut_search_bug_propagates(self, monkeypatch):
        # Only DecompositionError means "no usable cut"; anything else
        # is a bug and must not fall back to naive or factoring.
        import repro.core.api as api

        def broken(*args, **kwargs):
            raise RuntimeError("cut search bug")

        monkeypatch.setattr(api, "find_bottleneck", broken)
        with pytest.raises(RuntimeError, match="cut search bug"):
            compute_reliability(fujita_fig4(), "s", "t", 2)

    def test_auto_cut_search_is_a_span(self):
        net = bottlenecked_network(
            source_side_links=6, sink_side_links=6, num_bottlenecks=2, demand=2, seed=0
        )
        with record() as rec:
            result = compute_reliability(net, "s", "t", 2)
        assert result.method == "bottleneck"
        searches = [
            span.attrs["given"]
            for span in rec.root.iter_spans()
            if span.name == "bottleneck.cut_search"
        ]
        # the search itself; the split goes to the pipeline unverified
        assert searches == [False]

    def test_auto_factoring_for_larger_cutless_networks(self):
        net = parallel_links(14, 1, 0.1)
        result = compute_reliability(net, "s", "t", 2)
        assert result.method == "factoring"

    def test_available_methods(self):
        assert "bottleneck" in available_methods()
        assert "auto" in available_methods()

    def test_float_protocol(self):
        assert 0 < float(compute_reliability(diamond(), "s", "t", 1)) < 1
