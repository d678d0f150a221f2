"""X2 — extension: process-parallel enumeration and array building.

The owner-computes block decomposition over the configuration lattice,
in both of its uses: the naive full scan (``repro.core.parallel``) and
the bottleneck realization-array engine (``repro.core.engine``).
Speedup is measured against the single-process path at identical
results; the per-worker pruning loss (workers only see same-chunk
supersets) shows up in the call counts, and the engine sweep
additionally proves the side-array masks bit-identical at every worker
count."""

import numpy as np
import pytest

from repro.bench.harness import time_call
from repro.bench.workloads import scaling_workload
from repro.core import naive_reliability, parallel_naive_reliability
from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.engine import build_realization_arrays
from repro.graph.cuts import find_bottleneck


def test_x2_worker_scaling(benchmark, show):
    workload = scaling_workload(14, demand=2, k=2, seed=11)
    net, demand = workload.network, workload.demand

    def sweep():
        rows = []
        serial = time_call(naive_reliability, net, demand, repeats=1)
        rows.append(
            ["serial", f"{serial.seconds * 1e3:.1f}", serial.value.flow_calls, serial.value.value]
        )
        for workers in (1, 2, 4):
            par = time_call(
                parallel_naive_reliability, net, demand, workers=workers, repeats=1
            )
            assert par.value.value == pytest.approx(serial.value.value, abs=1e-12)
            rows.append(
                [
                    f"{workers} worker(s)",
                    f"{par.seconds * 1e3:.1f}",
                    par.value.flow_calls,
                    par.value.value,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(
        ["configuration", "ms", "flow calls", "R"],
        rows,
        title=f"X2: parallel naive on {net.num_links} links (2^{net.num_links} configs)",
    )


def test_x2_array_engine_scaling(benchmark, show):
    """Bottleneck-side sweep: serial §III-C builder vs the chunked engine.

    14-link sides (2^14-entry realization arrays each).  Every engine
    row is checked for **bit-identical** masks against the serial
    builder and reliability equality to 1e-12; the flow-call column
    shows the chunked-pruning loss (slightly more solves as chunks
    shrink) and the screen savings (``screened`` column).
    """
    workload = scaling_workload(28, demand=2, k=2, seed=11)
    net, demand = workload.network, workload.demand
    split = find_bottleneck(net, demand.source, demand.sink, max_size=3)
    assert split is not None
    capacities = [net.link(i).capacity for i in split.cut]
    assignments = enumerate_assignments(capacities, demand.rate)

    def sweep():
        serial = time_call(bottleneck_reliability, net, demand, repeats=1)
        source_serial = build_side_array(
            split.source_side,
            role="source",
            terminal=demand.source,
            ports=split.source_ports,
            assignments=assignments,
            demand=demand.rate,
        )
        sink_serial = build_side_array(
            split.sink_side,
            role="sink",
            terminal=demand.sink,
            ports=split.sink_ports,
            assignments=assignments,
            demand=demand.rate,
        )
        rows = [
            [
                "serial",
                f"{serial.seconds * 1e3:.1f}",
                "1.00x",
                serial.value.flow_calls,
                "-",
                serial.value.value,
            ]
        ]
        for workers in (1, 2, 4):
            par = time_call(
                bottleneck_reliability, net, demand, workers=workers, repeats=1
            )
            assert par.value.value == pytest.approx(serial.value.value, abs=1e-12)
            source_arr, sink_arr, stats = build_realization_arrays(
                split,
                source=demand.source,
                sink=demand.sink,
                assignments=assignments,
                demand=demand.rate,
                workers=workers,
            )
            np.testing.assert_array_equal(source_serial.masks, source_arr.masks)
            np.testing.assert_array_equal(sink_serial.masks, sink_arr.masks)
            rows.append(
                [
                    f"{workers} worker(s)",
                    f"{par.seconds * 1e3:.1f}",
                    f"{serial.seconds / par.seconds:.2f}x",
                    par.value.flow_calls,
                    stats["screened_solves"],
                    par.value.value,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    side_bits = max(
        split.source_side.network.num_links, split.sink_side.network.num_links
    )
    show(
        ["configuration", "ms", "speedup", "flow calls", "screened", "R"],
        rows,
        title=(
            f"X2: realization-array engine on 2x{side_bits}-link sides "
            f"(2^{side_bits} entries/side, masks bit-identical)"
        ),
    )


def test_x2_two_workers(benchmark):
    workload = scaling_workload(12, demand=2, k=2, seed=11)
    result = benchmark.pedantic(
        parallel_naive_reliability,
        args=(workload.network, workload.demand),
        kwargs={"workers": 2},
        rounds=2,
        iterations=1,
    )
    assert 0 < result.value < 1
