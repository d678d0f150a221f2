"""Tests of the benchmark itself, on its tiny ``--smoke`` inputs.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench_run
from perfbench.common import END_TO_END, PER_LAYER, ROOT, SRC, Context, Outcome, tail

sys.path.insert(0, str(SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(tmp_path, workload: str, trace: bool = False) -> Context:
    return Context(workload, seed=3, seconds=0.5, trace=trace, smoke=True, run_dir=tmp_path)


# -- names --------------------------------------------------------------------


def test_metric_and_workload_names_are_well_formed():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    for workload in bench_run.WORKLOADS:
        assert NAME.match(workload), workload


def test_benchmark_json_matches_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# -- the tail rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, index",
    [
        (1, 100.0, 0),
        (19, 100.0, 18),  # even the median has only 9 beyond: the maximum
        (20, 50.0, 9),
        (47, 78.0, 36),
        (100, 90.0, 89),
        (101, 90.0, 90),
        (1000, 99.0, 989),
        (2000, 99.5, 1989),
        (10000, 99.9, 9989),
        (200000, 99.99, 199979),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(n, percentile, index):
    values = list(range(n))
    random.Random(n).shuffle(values)
    got = tail(values)
    assert got.percentile == percentile
    assert got.value == index
    assert got.samples == n
    assert got.beyond == (n - 1 - index)
    if percentile < 100.0:
        assert got.beyond >= 10


def test_harrell_davis_median():
    from perfbench.common import harrell_davis_median

    assert harrell_davis_median([7.0]) == 7.0
    assert harrell_davis_median([1.0, 3.0]) == pytest.approx(2.0)
    symmetric = [1.0, 2.0, 4.0, 9.0, 16.0, 23.0, 28.0, 30.0, 31.0]
    assert harrell_davis_median(symmetric) == pytest.approx(16.0)
    assert harrell_davis_median([5.0] * 12) == pytest.approx(5.0)
    # two bands: the sample median jumps from one to the other when one
    # request moves across, the Harrell-Davis estimate moves a little
    low, high = [100.0] * 7 + [130.0] * 7, [100.0] * 6 + [130.0] * 8
    assert harrell_davis_median(low) == pytest.approx(115.0)
    assert 115.0 < harrell_davis_median(high) < 122.0


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# -- speed normalisation ------------------------------------------------------


def test_speed_scale_is_the_trimmed_mean_of_the_reference_timings():
    from perfbench.speed import REFERENCE_MS, SpeedProbe, trimmed_mean

    ticks = iter(range(1000))
    probe = SpeedProbe(lambda: next(ticks) * 1e-3, reps=2)  # every timing "takes" 1 ms
    for _ in range(3):
        probe.mark()
    assert probe.samples == pytest.approx([1e-3] * 6)
    assert probe.scale() == pytest.approx(REFERENCE_MS)
    # ten values: the lowest and the highest are dropped
    assert trimmed_mean([100.0, 1, 2, 2, 2, 4, 4, 4, 4, -50.0]) == pytest.approx(23 / 8)
    probe.marks = [[1.0, 3.0]] * 10  # two modes: the scale sits between them
    assert probe.scale() == pytest.approx(REFERENCE_MS * 1e-3 / 2.0)
    probe.marks = [[1.0]] * 4 + [[2.0]] * 4 + [[4.0]] * 4
    # request 5 lies between marks 5 and 6; around=1 takes marks 4..7
    assert probe.scale(5, around=1) == pytest.approx(REFERENCE_MS * 1e-3 / 2.0)
    assert probe.scale(10, around=1) == pytest.approx(REFERENCE_MS * 1e-3 / 4.0)
    assert probe.scale(0) == pytest.approx(REFERENCE_MS * 1e-3 / 1.0)


# -- failure accounting -------------------------------------------------------


def test_wrong_cold_query_value_is_counted(tmp_path, monkeypatch):
    from perfbench import cold_query

    real_query = cold_query.query

    def off_by_a_bit(inp):
        result = real_query(inp)
        return dataclasses.replace(result, value=result.value * (1 - 1e-12))

    monkeypatch.setattr(cold_query, "query", off_by_a_bit)
    monkeypatch.setattr(cold_query, "CHECKED", 10_000)  # re-check every request
    ctx = _smoke(tmp_path, "cold-query")
    state, _ = cold_query.setup(ctx, 0)
    outcome = Outcome()
    cold_query.timed(ctx, state, outcome)
    cold_query.finish(ctx, state, outcome)
    assert outcome.attempted >= 1
    assert outcome.failed == len(outcome.latencies)
    assert not outcome.correct


def test_refused_and_wrong_served_values_are_counted():
    from perfbench import serve_mixed
    from repro.core.demand import FlowDemand
    from repro.core.sweep import SweepSpec, compute_reliability_sweep
    from repro.graph.io import from_dict

    pool = serve_mixed.make_pool(3, smoke=True)
    net = from_dict(pool[0]["network"])
    grid = [0.9, 0.95]
    right = compute_reliability_sweep(
        net,
        FlowDemand(pool[0]["source"], pool[0]["sink"], pool[0]["rate"]),
        sweep=SweepSpec.availability(grid),
    ).values

    def served(qid, values):
        request = serve_mixed.Request(qid, 0, "availability", grid)
        points = [{"x": x, "reliability": v} for x, v in zip(grid, values)]
        response = {"ok": True, "points": points, "batch": {"queries": 1}, "warm": False}
        return serve_mixed.Record(request, response=response)

    good = served("good", right)
    wrong = served("wrong", [right[0], right[1] + 1e-15])
    refused = serve_mixed.Record(
        serve_mixed.Request("refused", 0, "availability", grid),
        response={"ok": False, "error": {"code": "bad-request"}},
    )
    unanswered = serve_mixed.Record(serve_mixed.Request("lost", 0, "availability", grid))
    outcome = Outcome()
    records = [good, wrong, refused, unanswered]
    serve_mixed._account(outcome, records, records)
    serve_mixed._verify(outcome, pool, records)
    assert outcome.attempted == 4
    assert outcome.failed == 3
    assert any("wrong" in e for e in outcome.errors)
    assert any("refused" in e for e in outcome.errors)


def test_interval_misses_fail_only_when_coverage_is_implausible():
    from perfbench.rare_estimate import COVERAGE_ALPHA, binomial_tail

    assert binomial_tail(1, 10, 0.05) > COVERAGE_ALPHA  # one miss in ten is normal
    assert binomial_tail(7, 10, 0.05) < COVERAGE_ALPHA
    assert binomial_tail(0, 10, 0.05) == pytest.approx(1.0)


# -- whole runs ---------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = json.loads(lines[-2])["report"]
    assert report["why"] and report["environment"]["nproc"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert {"percentile", "samples_beyond", "samples"} <= set(report["latency_tail"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "cold-query", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
