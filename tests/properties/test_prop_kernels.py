"""Property: every surviving realization-array kernel is bit-identical.

Three builders reach the §III-C realization bits: the scalar cold walk
(``incremental=False``), the scalar Gray walk (the default) and the
chunked engine (``workers``).  The engine is also the only parallel
mechanism behind cached sweeps, where columns are published to a disk
cache directory.  These tests pin the acceptance bar for all of them:
for every seed, worker count and knob combination, the masks, the
reliability value *and* the result ``details`` must be bit-identical
to the cold, unpruned scalar reference, and a cache directory filled by
any worker count must serve a repeat sweep with zero max-flow solves.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.engine import build_realization_arrays, build_side_array_parallel
from repro.core.sweep import (
    ArrayCache,
    SweepSpec,
    cached_side_array,
    compute_reliability_sweep,
)
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network
from repro.obs import KNOWN_COUNTERS, Recorder, record
from repro.obs.recorder import ARRAY_CACHE_CORRUPT

SEEDS = [0, 7, 23]
WORKERS = [1, 2, 4]

#: details keys that describe *how the solves were accounted* or which
#: walk ran, not what was computed.
ACCOUNTING_KEYS = ("engine", "array_cache", "obs", "incremental")


def _scrub(details):
    return {k: v for k, v in details.items() if k not in ACCOUNTING_KEYS}


def _instance(seed, source_links=5, sink_links=4):
    return bottlenecked_network(
        source_side_links=source_links,
        sink_side_links=sink_links,
        num_bottlenecks=2,
        demand=2,
        seed=seed,
    )


def _split(net):
    split = find_bottleneck(net, "s", "t", max_size=3)
    assert split is not None
    capacities = [net.link(i).capacity for i in split.cut]
    return split, enumerate_assignments(capacities, 2)


def _side_kwargs(split, assignments, role):
    if role == "source":
        side, terminal, ports = split.source_side, "s", split.source_ports
    else:
        side, terminal, ports = split.sink_side, "t", split.sink_ports
    return side, dict(
        role=role,
        terminal=terminal,
        ports=ports,
        assignments=assignments,
        demand=2,
    )


def _reference(split, assignments, role):
    """Cold, unpruned scalar build: one fresh solve per lattice entry."""
    side, kwargs = _side_kwargs(split, assignments, role)
    return build_side_array(side, prune=False, incremental=False, **kwargs)


class TestMasksBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("screen", [False, True])
    @pytest.mark.parametrize("role", ["source", "sink"])
    def test_side_masks(self, seed, workers, screen, role):
        split, assignments = _split(_instance(seed))
        reference = _reference(split, assignments, role)
        side, kwargs = _side_kwargs(split, assignments, role)
        engine = build_side_array_parallel(
            side, screen=screen, workers=workers, **kwargs
        )
        assert np.array_equal(reference.masks, engine.masks)
        assert engine.num_assignments == reference.num_assignments

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("incremental", [False, True])
    def test_knob_combinations(self, seed, prune, incremental):
        split, assignments = _split(_instance(seed))
        reference = _reference(split, assignments, "sink")
        side, kwargs = _side_kwargs(split, assignments, "sink")
        scalar = build_side_array(
            side, prune=prune, incremental=incremental, **kwargs
        )
        assert np.array_equal(reference.masks, scalar.masks)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=300),
        workers=st.integers(min_value=1, max_value=4),
        screen=st.booleans(),
        prune=st.booleans(),
        incremental=st.booleans(),
    )
    def test_arbitrary_knobs(self, seed, workers, screen, prune, incremental):
        """Any worker count, serial or chunked, screened or not."""
        split, assignments = _split(_instance(seed, 4, 3))
        reference = _reference(split, assignments, "source")
        side, kwargs = _side_kwargs(split, assignments, "source")
        engine = build_side_array_parallel(
            side,
            workers=workers,
            screen=screen,
            prune=prune,
            incremental=incremental,
            **kwargs,
        )
        assert np.array_equal(reference.masks, engine.masks)


class TestValueBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prune", [False, True])
    def test_gray_walk_point(self, seed, prune):
        """The Gray walk and the cold walk reach the same value and
        details; only the solve count and the walk flag differ."""
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        cold = bottleneck_reliability(net, demand, prune=prune, incremental=False)
        gray = bottleneck_reliability(net, demand, prune=prune)
        assert gray.value == cold.value
        assert _scrub(gray.details) == _scrub(cold.details)
        assert gray.details["incremental"] is True
        assert cold.details["incremental"] is False

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_engine_point(self, seed, workers):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        scalar = bottleneck_reliability(net, demand)
        engine = bottleneck_reliability(net, demand, workers=workers)
        assert engine.value == scalar.value
        assert _scrub(engine.details) == _scrub(scalar.details)
        assert engine.details["engine"]["workers"] == workers

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_sweep_matches_pointwise(self, seed):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability(list(np.linspace(0.7, 0.99, 4)))
        swept = compute_reliability_sweep(net, demand, sweep=spec, workers=2)
        for i, result in enumerate(swept):
            point = bottleneck_reliability(spec.point_network(net, i), demand)
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_failure_scale_sweep_matches_pointwise(self, seed):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.failure_scale([0.5, 1.0, 2.0])
        swept = compute_reliability_sweep(net, demand, sweep=spec, workers=2)
        for i, result in enumerate(swept):
            point = bottleneck_reliability(spec.point_network(net, i), demand)
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_demand_sweep_matches_pointwise(self, seed):
        net = _instance(seed)
        swept = compute_reliability_sweep(
            net,
            FlowDemand("s", "t", 2),
            sweep=SweepSpec.demand_rates([1, 2]),
            workers=2,
        )
        for rate, result in zip((1, 2), swept):
            point = bottleneck_reliability(net, FlowDemand("s", "t", rate))
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)


class TestEngineAccounting:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_counts_once_under_recorder(self, workers):
        """Chunk results merge their counters exactly once: the entry
        total is the lattice size and the solves stay within it."""
        split, assignments = _split(_instance(0))
        side, kwargs = _side_kwargs(split, assignments, "source")
        rec = Recorder()
        with record(rec):
            array = build_side_array_parallel(side, workers=workers, **kwargs)
        totals = rec.counter_totals()
        size = 1 << side.network.num_links
        assert totals["array_entries_built"] == size * len(assignments)
        assert 0 < totals["flow_solves"] <= size * len(assignments)
        assert totals["flow_solves"] == array.flow_calls

    @pytest.mark.parametrize("workers", WORKERS)
    def test_engine_stats_keys(self, workers):
        split, assignments = _split(_instance(0))
        _source, _sink, stats = build_realization_arrays(
            split,
            source="s",
            sink="t",
            assignments=assignments,
            demand=2,
            workers=workers,
        )
        assert set(stats) == {
            "workers",
            "screened_solves",
            "source_chunks",
            "sink_chunks",
            "incremental",
            "flow_repairs",
            "augmenting_paths_saved",
        }
        assert stats["workers"] == workers
        assert stats["source_chunks"] >= 1 and stats["sink_chunks"] >= 1


class TestCachedEngineBuilds:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_cold_cache_dir_sweep_bit_identity(self, tmp_path, seed, workers):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.9, 0.95])
        plain = compute_reliability_sweep(net, demand, sweep=spec)
        cached = compute_reliability_sweep(
            net,
            demand,
            sweep=spec,
            workers=workers,
            cache=ArrayCache(tmp_path / f"cache{workers}"),
        )
        assert cached.values == plain.values
        for mine, theirs in zip(cached, plain):
            assert _scrub(mine.details) == _scrub(theirs.details)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_warm_rerun_solves_nothing(self, tmp_path, workers):
        net = _instance(0)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.95])
        cache_dir = tmp_path / "cache"
        cold = compute_reliability_sweep(
            net, demand, sweep=spec, workers=workers, cache=ArrayCache(cache_dir)
        )
        assert cold.flow_calls > 0
        warm = compute_reliability_sweep(
            net, demand, sweep=spec, workers=workers, cache=ArrayCache(cache_dir)
        )
        assert warm.flow_calls == 0
        assert warm.values == cold.values
        assert not list(Path(cache_dir).glob("*.tmp"))

    def test_one_file_per_column(self, tmp_path):
        """A cold sweep publishes exactly one column per (side,
        assignment) pair, whichever worker count built it."""
        net = _instance(0)
        split, assignments = _split(net)
        cache_dir = tmp_path / "cache"
        compute_reliability_sweep(
            net,
            FlowDemand("s", "t", 2),
            sweep=SweepSpec.availability([0.8, 0.875, 0.95]),
            workers=2,
            cache=ArrayCache(cache_dir),
        )
        assert len(list(cache_dir.glob("*.npy"))) == 2 * len(assignments)


class TestCacheTiers:
    def test_get_sees_disk_and_memory(self, tmp_path):
        column = np.arange(4) % 2 == 0
        cache = ArrayCache(tmp_path)
        assert cache.get("k", 4) is None
        cache.put("k", column)
        assert np.array_equal(cache.get("k", 4), column)
        fresh = ArrayCache(tmp_path)
        assert np.array_equal(fresh.get("k", 4), column)
        assert fresh.stats()["hits"] == 1

    def test_demand_sweep_shares_columns_across_rates(self, tmp_path):
        """Assignment columns common to several rates are built once: a
        rate sweep stores no more columns than its per-rate total."""
        net = _instance(0)
        demand = FlowDemand("s", "t", 2)
        cache = ArrayCache(tmp_path)
        swept = compute_reliability_sweep(
            net, demand, sweep=SweepSpec.demand_rates([1, 2]), cache=cache
        )
        separate = 0
        for rate in (1, 2):
            per_rate = ArrayCache()
            compute_reliability_sweep(
                net, demand, sweep=SweepSpec.demand_rates([rate]), cache=per_rate
            )
            separate += per_rate.stats()["stores"]
        assert len(swept) == 2
        assert cache.stats()["stores"] <= separate
        keys = [p.stem for p in tmp_path.glob("*.npy")]
        assert len(keys) == len(set(keys)) == cache.stats()["stores"]

    @pytest.mark.parametrize("role", ["source", "sink"])
    def test_cached_engine_side_matches_reference(self, tmp_path, role):
        split, assignments = _split(_instance(7))
        reference = _reference(split, assignments, role)
        side, kwargs = _side_kwargs(split, assignments, role)
        cache = ArrayCache(tmp_path)
        cold = cached_side_array(side, workers=2, cache=cache, **kwargs)
        warm = cached_side_array(side, workers=2, cache=cache, **kwargs)
        assert np.array_equal(reference.masks, cold.masks)
        assert np.array_equal(reference.masks, warm.masks)
        assert warm.flow_calls == 0

    @pytest.mark.parametrize("damage", ["short", "truncated", "dtype"])
    def test_corrupt_column_reaches_the_recorder(self, tmp_path, damage):
        """A bad disk column is counted under ``array_cache_corrupt`` in
        the active recorder, not only in ``ArrayCache.stats()``."""
        column = np.arange(64) % 3 == 0
        ArrayCache(tmp_path).put("k", column)
        path = tmp_path / "k.npy"
        if damage == "short":
            np.save(path, np.load(path)[:2])
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:20])
        else:
            np.save(path, np.load(path).astype(np.int64))
        cache = ArrayCache(tmp_path)
        rec = Recorder()
        with record(rec):
            assert cache.get("k", 64) is None
        assert ARRAY_CACHE_CORRUPT in KNOWN_COUNTERS
        assert rec.counter_totals()[ARRAY_CACHE_CORRUPT] == 1
        assert cache.stats()["corrupt"] == 1
        assert not path.exists()
