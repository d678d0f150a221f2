"""Layer spans recorded from the benchmark's own files.

A :class:`Tracer` keeps spans in memory — name, request id, parent,
start, end — and is written out once, when the run ends.  Layers are
traced either by calling their public functions inside :meth:`span`
blocks, or by :meth:`patched`, which wraps a module attribute (the name a
caller inside ``repro`` looks up) for the duration of a ``with`` block
and restores it afterwards.  Nothing under ``src/`` is edited.

A layer's cost is its *self* time: its spans' durations minus the part
covered by spans nested inside them, so the layer numbers add up.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from perfbench.common import shared_clock


@dataclass
class Span:
    name: str
    rid: Any
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: Any = None, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        record = Span(name, rid, parent, shared_clock(), attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = shared_clock()
            self._stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_call: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``on_call(span, args, kwargs, result)`` runs
        after the span closes and may add attrs."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(record, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets: Sequence[tuple]) -> Iterator[None]:
        """Wrap ``(module, attribute, span name[, on_call])`` targets in spans."""
        saved = []
        try:
            for module, attribute, name, *hook in targets:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(original, name, *hook))
            yield
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    # -- reductions ---------------------------------------------------------

    def _child_seconds(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.seconds
        return covered

    def self_seconds(self, since: float = -math.inf) -> dict[str, float]:
        """Total self time per span name, over spans starting at ``since`` or later."""
        covered = self._child_seconds()
        totals: dict[str, float] = {}
        for record, inner in zip(self.spans, covered):
            if record.start >= since:
                totals[record.name] = totals.get(record.name, 0.0) + record.seconds - inner
        return totals

    def attr_total(self, name: str, attr: str, since: float = -math.inf) -> float:
        return float(
            sum(s.attrs.get(attr, 0) for s in self.spans if s.name == name and s.start >= since)
        )

    def unattributed(self, root: str) -> tuple[float, float]:
        """(seconds of ``root`` spans covered by no child span, their total)."""
        covered = self._child_seconds()
        uncovered = total = 0.0
        for record, inner in zip(self.spans, covered):
            if record.name == root:
                uncovered += record.seconds - inner
                total += record.seconds
        return uncovered, total

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name,
                "rid": s.rid,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}, default=str) + "\n", encoding="utf-8")


def solver_counter_sum(counters: dict[str, float], kind: str) -> float:
    """Sum ``solver.<name>.<kind>`` over every solver name present.

    Summing by pattern rather than by a fixed solver name keeps the work
    counts right whatever name a solver registers its counters under.
    """
    return float(
        sum(
            value
            for key, value in counters.items()
            if key.startswith("solver.") and key.endswith("." + kind)
        )
    )


def count_result(record: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """``on_call`` hook: the number of items a layer returned."""
    record.attrs["count"] = len(result)


def array_work(record: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """``on_call`` hook: entries built and solves spent by a §III-C builder."""
    record.attrs["entries"] = len(result.masks) * result.num_assignments
    record.attrs["flow_calls"] = result.flow_calls
