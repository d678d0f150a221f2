"""Solver counters against the solve accounting, pooled or not.

``solver.<name>.solves`` counts every max-flow the solver ran;
``flow_solves`` counts the solves the reliability loops spent.  The two
agree exactly except for the cut search, whose unit-capacity max-flow
(``graph.cuts.minimum_cardinality_cut``) is a solver call but no
reliability solve.  Pool workers have no recorder of their own, so
their solver counters must be captured and replayed by the parent.
"""

import pytest

from repro import obs
from repro.core.api import compute_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.parallel import parallel_naive_reliability
from repro.graph.builders import fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network
from repro.obs import merge_spool, telemetry_session

SOLVES = "solver.dinic.solves"
DEMAND = FlowDemand("s", "t", 2)


def _net():
    return bottlenecked_network(
        source_side_links=8, sink_side_links=7, num_bottlenecks=2, demand=2, seed=3
    )


def _totals(call):
    with obs.record() as rec:
        result = call()
    return result, rec.counter_totals()


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_given_cut_solver_solves_equal_flow_solves(workers):
    net = _net()
    cut = find_bottleneck(net, "s", "t").cut
    result, totals = _totals(
        lambda: bottleneck_reliability(net, DEMAND, cut=cut, workers=workers)
    )
    assert totals["flow_solves"] == result.flow_calls
    assert totals[SOLVES] == totals["flow_solves"]


@pytest.mark.parametrize("workers", [1, 2])
def test_naive_parallel_solver_solves_equal_flow_solves(workers):
    result, totals = _totals(
        lambda: parallel_naive_reliability(fujita_fig4(), DEMAND, workers=workers)
    )
    assert totals["flow_solves"] == result.flow_calls
    assert totals[SOLVES] == totals["flow_solves"]


@pytest.mark.parametrize("workers", [None, 2])
def test_auto_adds_exactly_the_cut_search_solve(workers):
    result, totals = _totals(
        lambda: compute_reliability(_net(), demand=DEMAND, workers=workers)
    )
    assert result.method == "bottleneck"
    assert totals["flow_solves"] == result.flow_calls
    assert totals[SOLVES] == totals["flow_solves"] + 1


def test_serial_given_cut_solver_solves_equal_flow_solves():
    net = _net()
    cut = find_bottleneck(net, "s", "t").cut
    _, totals = _totals(lambda: bottleneck_reliability(net, DEMAND, cut=cut))
    assert totals[SOLVES] == totals["flow_solves"]


def test_pooled_chunks_replay_onto_their_spans():
    net = _net()
    cut = find_bottleneck(net, "s", "t").cut
    with obs.record() as rec:
        bottleneck_reliability(net, DEMAND, cut=cut, workers=2)
    chunks = [s for s in rec.root.iter_spans() if s.name == "engine.chunk"]
    assert chunks
    for chunk in chunks:
        assert chunk.counters.get(SOLVES, 0) == chunk.counters.get("flow_solves", 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_spool_carries_the_solver_counters(workers, tmp_path):
    net = _net()
    cut = find_bottleneck(net, "s", "t").cut
    spool = tmp_path / f"ev-w{workers}"
    with telemetry_session(spool) as rec:
        bottleneck_reliability(net, DEMAND, cut=cut, workers=workers)
    totals = rec.counter_totals()
    summary = merge_spool(spool)
    assert summary.worker_totals[SOLVES] == totals[SOLVES]
    assert summary.worker_totals["flow_solves"] == totals["flow_solves"]
