"""``repro serve`` with layer spans, for the traced ``serve-mixed`` run.

Usage::

    python3 perfbench/traced_daemon.py --stats FILE -- serve --port 0 ...

Wraps the daemon's layer functions — request decoding, the planner's
answer round, the sweep engine's cut search, assignments, column
resolution and array builds, response encoding — in spans, runs the
unchanged ``repro`` command line, and writes what it recorded to FILE
when the daemon exits.  Stamps come from the system-wide monotonic
clock, so the load generator can line them up with its own.

The timed phase starts when the first query whose id begins with
``serve_mixed.TRACED_TAG`` is decoded.  Span times, array work, solver
counters, cache statistics and flow calls are reported for the timed
phase only: what the set-up's warm-up queries recorded before that mark
is taken out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench.common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

from perfbench.serve_mixed import TRACED_TAG  # noqa: E402
from perfbench.tracing import Tracer, array_work, count_result  # noqa: E402


class DaemonTrace:
    def __init__(self) -> None:
        self.tracer = Tracer()
        self.per_query: dict[str, dict[str, list[float]]] = {}
        self.counters: dict[str, float] = {}
        self.cache = None
        self.flow_calls = 0
        # Totals at the start of the timed phase, subtracted in stats().
        self.mark: float | None = None
        self.mark_counters: dict[str, float] = {}
        self.mark_cache: dict[str, int] = {}
        self.mark_flow_calls = 0

    def _stamp(self, qid, stage: str, record) -> None:
        if qid is not None:
            self.per_query.setdefault(str(qid), {})[stage] = [record.start, record.end]

    def on_decode(self, record, args, kwargs, query) -> None:
        if self.mark is None and str(query.qid).startswith(TRACED_TAG):
            self._mark(record.start)
        self._stamp(query.qid, "decode", record)

    def _mark(self, start: float) -> None:
        """Snapshot the running totals as the timed phase begins."""
        from repro.obs.recorder import current_recorder

        self.mark = start
        recorder = current_recorder()
        self.mark_counters = recorder.counter_totals() if recorder is not None else {}
        self.mark_cache = self.cache.stats() if self.cache is not None else {}
        self.mark_flow_calls = self.flow_calls

    def on_answer(self, record, args, kwargs, payloads) -> None:
        from repro.obs.recorder import current_recorder

        for query in args[0]:
            self._stamp(query.qid, "answer", record)
        self.cache = kwargs.get("cache")
        recorder = current_recorder()
        if recorder is not None:
            self.counters = recorder.counter_totals()

    def on_encode(self, record, args, kwargs, line) -> None:
        self._stamp(args[0].get("id"), "encode", record)

    def on_sweep(self, record, args, kwargs, result) -> None:
        self.flow_calls += result.flow_calls

    def targets(self) -> list[tuple]:
        import repro.core.sweep as sweep_module
        import repro.serve.planner as planner_module
        import repro.serve.server as server_module

        return [
            (server_module, "decode_query", "serve.decode", self.on_decode),
            (server_module, "answer_queries", "serve.answer", self.on_answer),
            (server_module, "encode_line", "serve.encode", self.on_encode),
            # The sweep's own time, once the layers below are taken out,
            # is the grid Eq. 2/3.
            (planner_module, "compute_reliability_sweep", "sweep.grid", self.on_sweep),
            (sweep_module, "find_bottleneck", "cuts.find"),
            (sweep_module, "verify_bottleneck", "cuts.verify"),
            (sweep_module, "enumerate_assignments", "assignments", count_result),
            (sweep_module, "cached_side_array", "sweep.columns"),
            (sweep_module, "build_side_array", "arrays.build", array_work),
        ]

    def stats(self) -> dict:
        """What the timed phase recorded (everything, if it never began)."""
        tracer = self.tracer
        since = self.mark if self.mark is not None else -math.inf
        cache = self.cache.stats() if self.cache is not None else {}
        return {
            "self_seconds": tracer.self_seconds(since),
            "answer_seconds": sum(
                s.seconds for s in tracer.spans if s.name == "serve.answer" and s.start >= since
            ),
            "assignments": tracer.attr_total("assignments", "count", since),
            "entries": tracer.attr_total("arrays.build", "entries", since),
            "build_flow_calls": tracer.attr_total("arrays.build", "flow_calls", since),
            "flow_calls": self.flow_calls - self.mark_flow_calls,
            "per_query": self.per_query,
            "counters": _minus(self.counters, self.mark_counters),
            "cache": _minus(cache, self.mark_cache),
        }


def _minus(totals: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in totals.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from repro.cli import main as repro_main

    trace = DaemonTrace()
    with trace.tracer.patched(trace.targets()):
        code = repro_main(command)
    args.stats.write_text(json.dumps(trace.stats()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
