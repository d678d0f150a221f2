"""The instrumentation core: spans, counters, gauges.

A :class:`Recorder` captures a tree of timed *spans* with per-span
integer/float *counters* and last-value *gauges*.  The recorder is
scoped through a :mod:`contextvars` variable, so instrumented library
code never receives it explicitly — kernels call the module-level
:func:`span` / :func:`count` / :func:`gauge` helpers, which collapse to
near-zero-cost no-ops while no recorder is installed:

* :func:`span` returns a shared singleton context manager (no
  allocation, no timestamps);
* :func:`count` / :func:`gauge` return after one context-var read.

That no-op fast path is what lets the hot ``2^n`` loops stay
instrumented permanently without moving the tier-1 timings (the
overhead guard in ``benchmarks/bench_obs_overhead.py`` enforces the
budget).

Timestamps come from :func:`wallclock` — the single sanctioned clock of
the repository.  Direct ``time.perf_counter()`` / ``time.time()`` calls
anywhere else in ``src/repro`` are rejected by lint rule RR107 so every
duration in bench tables and trace output is measured the same way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from repro.exceptions import ReproValueError

__all__ = [
    "ARRAY_CACHE_BYTES",
    "ARRAY_CACHE_CORRUPT",
    "ARRAY_CACHE_EVICTED_BYTES",
    "ARRAY_CACHE_EVICTIONS",
    "ARRAY_CACHE_HITS",
    "ARRAY_CACHE_MISSES",
    "ASSIGNMENTS_ENUMERATED",
    "ARRAY_ENTRIES_BUILT",
    "CONFIGURATIONS_ENUMERATED",
    "SERVE_COALESCED",
    "SERVE_QUERIES",
    "SERVE_WARM_HITS",
    "FLOW_REPAIRS",
    "FLOW_SOLVES",
    "AUGMENTING_PATHS_SAVED",
    "MC_SAMPLES",
    "SAMPLES_VECTORIZED",
    "SCREENED_SOLVES",
    "SPECTRUM_SOLVES",
    "KNOWN_COUNTERS",
    "KNOWN_SPANS",
    "KNOWN_TICKER_LABELS",
    "Recorder",
    "SpanRecord",
    "count",
    "current_recorder",
    "gauge",
    "record",
    "span",
    "wallclock",
]

#: The sanctioned monotonic clock (seconds, float).  Everything in the
#: repository that measures a duration reads this — see RR107.
wallclock = time.perf_counter

# -- the typed counter catalogue ------------------------------------------
# Counters are string-keyed, but the cross-kernel cost counters the
# paper's accounting cares about have fixed names so exporters, benches
# and tests agree on the vocabulary.

#: Max-flow solves that enter ``ReliabilityResult.flow_calls`` — the
#: paper's cost measure.  Incremented by the feasibility oracle and the
#: realization-array build (NOT by auxiliary solves such as cut search,
#: which appear under ``solver.<name>.solves`` instead).
FLOW_SOLVES = "flow_solves"
#: Failure configurations whose probability was materialised
#: (``2^m`` per probability-table build).
CONFIGURATIONS_ENUMERATED = "configurations_enumerated"
#: Assignment tuples produced by the §III-B enumeration.
ASSIGNMENTS_ENUMERATED = "assignments_enumerated"
#: Realization-array entries evaluated (``|D| * 2^{m_side}`` per side
#: before pruning).
ARRAY_ENTRIES_BUILT = "array_entries_built"
#: Monte-Carlo samples drawn.
MC_SAMPLES = "mc_samples"
#: Realization solves skipped by the engine's pre-solve screens
#: (``repro.core.engine``): entries proven "not realized" from alive
#: port capacity or terminal/port connectivity alone, so no max-flow
#: solve was spent and they do **not** count toward ``flow_solves``.
SCREENED_SOLVES = "screened_solves"
#: Flow-crossing repairs performed by the incremental engine
#: (``repro.flow.incremental``): one per killed/shrunk arc that carried
#: flow.  The repair solves themselves are counted in ``flow_solves``.
FLOW_REPAIRS = "flow_repairs"
#: Flow units already carried when the incremental engine evaluated a
#: configuration — augmenting-path work a cold solve would have redone
#: from scratch.  The headline saving of the Gray-code walk.
AUGMENTING_PATHS_SAVED = "augmenting_paths_saved"
#: Realization columns served from the content-addressed
#: :class:`repro.core.sweep.ArrayCache` — each hit replaces a full
#: ``2^{m_side}`` column build (and its max-flow solves) with a lookup.
ARRAY_CACHE_HITS = "array_cache_hits"
#: Realization columns the cache had to build (and then stored).
ARRAY_CACHE_MISSES = "array_cache_misses"
#: Bytes of bit-packed realization columns moved through the cache
#: (read on hits + written on stores).
ARRAY_CACHE_BYTES = "array_cache_bytes"
#: Columns evicted from a bounded :class:`~repro.core.sweep.ArrayCache`
#: (``max_bytes`` LRU): dropped from memory and unlinked from disk.
ARRAY_CACHE_EVICTIONS = "array_cache_evictions"
#: Accounted bytes reclaimed by those evictions.
ARRAY_CACHE_EVICTED_BYTES = "array_cache_evicted_bytes"
#: Disk-tier columns that failed to load or had the wrong dtype, shape
#: or length: unlinked, treated as a miss and rebuilt — never served.
ARRAY_CACHE_CORRUPT = "array_cache_corrupt"
#: Queries decoded and answered by the serving daemon
#: (``repro.serve``): one per protocol ``query`` op.
SERVE_QUERIES = "serve_queries"
#: Queries answered by a merged batch beyond the first member — for a
#: plan covering ``n`` queries, ``n - 1`` of them rode along on one cut
#: search / array build / Eq. 2-3 grid.
SERVE_COALESCED = "serve_coalesced"
#: Queries answered with **zero** max-flow solves (every realization
#: column came from the warm :class:`~repro.core.sweep.ArrayCache`).
SERVE_WARM_HITS = "serve_warm_hits"
#: Feasibility queries spent on the rare-event tier's critical-point
#: searches (``repro.core.rare``): one per kill walked along a sampled
#: failure order.  A subset of ``flow_solves`` territory but counted
#: separately so benches can report solves-per-permutation.
SPECTRUM_SOLVES = "spectrum_solves"
#: Samples produced by a single array-at-a-time draw in the estimator
#: tier (permutation batches, splitting populations/refreshes) — the
#: vectorization contract's observable: ``samples_vectorized`` should
#: track ``mc_samples`` without a per-sample Python draw in sight.
SAMPLES_VECTORIZED = "samples_vectorized"

#: The catalogue, for documentation and validation in tests.
KNOWN_COUNTERS = frozenset(
    {
        FLOW_SOLVES,
        CONFIGURATIONS_ENUMERATED,
        ASSIGNMENTS_ENUMERATED,
        ARRAY_ENTRIES_BUILT,
        MC_SAMPLES,
        SCREENED_SOLVES,
        FLOW_REPAIRS,
        AUGMENTING_PATHS_SAVED,
        ARRAY_CACHE_HITS,
        ARRAY_CACHE_MISSES,
        ARRAY_CACHE_BYTES,
        ARRAY_CACHE_EVICTIONS,
        ARRAY_CACHE_EVICTED_BYTES,
        ARRAY_CACHE_CORRUPT,
        SERVE_QUERIES,
        SERVE_COALESCED,
        SERVE_WARM_HITS,
        SPECTRUM_SOLVES,
        SAMPLES_VECTORIZED,
    }
)

#: The span taxonomy: every span name instrumented code may open.  Lint
#: rule RR111 rejects ``span()`` calls whose name literal is not listed
#: here (and any dynamically built name), so the vocabulary that
#: ``repro profile`` trees, the live metrics endpoint, and the run
#: ledger agree on stays closed.  Per-solver dynamic families
#: (``solver.<name>.*``) are counters, not spans, and are precomputed
#: once at solver construction — see ``repro.flow.base``.
KNOWN_SPANS = frozenset(
    {
        "bench.call",
        "bottleneck.accumulate",
        "bottleneck.arrays",
        "bottleneck.assignments",
        "bottleneck.cut_search",
        "bounds.cut_upper",
        "bounds.route_lower",
        "engine.build",
        "engine.chunk",
        "engine.sink_array",
        "engine.source_array",
        "incremental.walk",
        "montecarlo.sample",
        "naive.accumulate",
        "naive.enumerate",
        "parallel.chunk",
        "probability.table",
        "rare.spectrum",
        "rare.split",
        "serve.batch",
        "serve.query",
        "serve.warm",
        "sweep.array_cache",
        "sweep.batch",
        "sweep.plan",
        "sweep.run",
    }
)

#: Labels :func:`repro.obs.progress.progress_ticker` may be created
#: with.  The ticker derives its gauge names (``<label>.items`` /
#: ``<label>.rate``) from the label, so closing this set closes the
#: gauge vocabulary too (also enforced by RR111).
KNOWN_TICKER_LABELS = frozenset(
    {
        "arrays.sink",
        "arrays.source",
        "montecarlo.samples",
        "naive.configurations",
        "rare.permutations",
    }
)


class SpanRecord:
    """One node of the captured span tree.

    Attributes
    ----------
    name:
        Span name (dotted taxonomy, e.g. ``"bottleneck.arrays"``).
    attrs:
        Keyword attributes captured at span entry.
    start, end:
        :func:`wallclock` stamps; ``end`` is ``None`` while open.
    children:
        Child spans in entry order.
    counters:
        Amounts counted *while this span was the innermost open span*
        (children hold their own; use :meth:`total` for the subtree).
    gauges:
        Last value set per gauge name while this span was innermost.
    """

    __slots__ = ("name", "attrs", "start", "end", "children", "counters", "gauges")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end: float | None = None
        self.children: list[SpanRecord] = []
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        """Wall time of the span (up to now while still open)."""
        end = self.end if self.end is not None else wallclock()
        return max(0.0, end - self.start)

    def total(self, counter: str) -> int | float:
        """Counter total over this span's whole subtree."""
        value: int | float = self.counters.get(counter, 0)
        for child in self.children:
            value = value + child.total(counter)
        return value

    def totals(self) -> dict[str, int | float]:
        """All counter totals over this span's subtree."""
        out: dict[str, int | float] = dict(self.counters)
        for child in self.children:
            for key, value in child.totals().items():
                out[key] = out.get(key, 0) + value
        return out

    def iter_spans(self) -> Iterator["SpanRecord"]:
        """Depth-first iteration over the subtree, self first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def gauge_values(self) -> dict[str, Any]:
        """Last value per gauge name over this span's subtree.

        Gauges are *last-value-wins*: spans entered later override
        earlier settings of the same name.  Subtree order approximates
        chronology (children are stored in entry order); for the exact
        trace-wide chronological view use
        :meth:`Recorder.gauge_values`, which records every ``gauge()``
        call in arrival order.
        """
        out: dict[str, Any] = dict(self.gauges)
        for child in self.children:
            out.update(child.gauge_values())
        return out


class _LiveSpan:
    """Context manager produced by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "record")

    def __init__(self, recorder: "Recorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self.record = record

    def __enter__(self) -> SpanRecord:
        self._recorder._push(self.record)
        return self.record

    def __exit__(self, *exc: object) -> None:
        self._recorder._pop(self.record)


class _NullSpan:
    """Shared do-nothing span used while no recorder is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: The singleton returned by :func:`span` when recording is off.  Being
#: a shared instance is load-bearing: the disabled path allocates
#: nothing (asserted by the unit tests).
NULL_SPAN = _NullSpan()


class Recorder:
    """Captures one trace: a span tree plus counters and gauges.

    Parameters
    ----------
    progress_callback:
        Optional callable receiving
        :class:`repro.obs.progress.ProgressUpdate` objects from
        :class:`~repro.obs.progress.ProgressTicker` instances created
        while this recorder is installed.
    progress_interval:
        Minimum seconds between two progress callbacks per ticker.
    """

    def __init__(
        self,
        *,
        progress_callback: Callable[[Any], None] | None = None,
        progress_interval: float = 0.25,
    ) -> None:
        if progress_interval < 0:
            raise ReproValueError("progress_interval must be non-negative")
        self.root = SpanRecord("<root>", {})
        self.root.start = wallclock()
        self._stack: list[SpanRecord] = [self.root]
        self._gauge_values: dict[str, Any] = {}
        self._counter_totals: dict[str, int | float] = {}
        self.progress_callback = progress_callback
        self.progress_interval = progress_interval

    # -- span plumbing ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        """A context manager recording one timed span under the current one."""
        return _LiveSpan(self, SpanRecord(name, attrs))

    def _push(self, record: SpanRecord) -> None:
        record.start = wallclock()
        self._stack[-1].children.append(record)
        self._stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        record.end = wallclock()
        # Tolerate exits out of order (a span leaked across a generator
        # boundary): unwind to the matching record if present.
        if record in self._stack:
            while self._stack[-1] is not record:
                leaked = self._stack.pop()
                if leaked.end is None:
                    leaked.end = record.end
            self._stack.pop()

    @property
    def current(self) -> SpanRecord:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def finish(self) -> SpanRecord:
        """Close the root span and return it."""
        now = wallclock()
        for open_span in self._stack[1:]:
            if open_span.end is None:
                open_span.end = now
        del self._stack[1:]
        if self.root.end is None:
            self.root.end = now
        return self.root

    # -- counters and gauges ----------------------------------------------

    def count(self, name: str, amount: int | float = 1) -> None:
        """Add ``amount`` to counter ``name`` on the innermost span."""
        counters = self._stack[-1].counters
        counters[name] = counters.get(name, 0) + amount
        totals = self._counter_totals
        totals[name] = totals.get(name, 0) + amount

    def gauge(self, name: str, value: Any) -> None:
        """Set gauge ``name`` on the innermost span (last value wins)."""
        self._stack[-1].gauges[name] = value
        self._gauge_values[name] = value

    def counter_total(self, name: str) -> int | float:
        """Total of one counter over the whole trace."""
        return self._counter_totals.get(name, 0)

    def counter_totals(self) -> dict[str, int | float]:
        """All counter totals over the whole trace.

        Maintained incrementally by :meth:`count` (it mirrors every
        increment into one trace-wide map), so reading the totals is
        O(#counters) — the telemetry heartbeat and the live metrics
        endpoint poll this on every phase close / scrape and must not
        pay a span-tree walk that grows with the trace.
        """
        return dict(self._counter_totals)

    def gauge_values(self) -> dict[str, Any]:
        """Last value per gauge name over the whole trace.

        The trace-wide companion of :meth:`counter_totals`: exporters
        and the live metrics endpoint read the final gauge state from
        here instead of walking the span tree.  Exactly chronological —
        every :meth:`gauge` call updates this map in arrival order, so
        "last" means last *set*, not last in tree order.
        """
        return dict(self._gauge_values)


# -- context-var scoping ------------------------------------------------

_ACTIVE: ContextVar[Recorder | None] = ContextVar("repro_obs_recorder", default=None)


def current_recorder() -> Recorder | None:
    """The installed recorder, or ``None`` (instrumentation disabled)."""
    return _ACTIVE.get()


@contextmanager
def record(recorder: Recorder | None = None) -> Iterator[Recorder]:
    """Install a recorder for the duration of the ``with`` block.

    >>> from repro.obs import record, span
    >>> with record() as rec:
    ...     with span("work"):
    ...         pass
    >>> [child.name for child in rec.root.children]
    ['work']
    """
    rec = Recorder() if recorder is None else recorder
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)
        rec.finish()


# -- the no-op-able module-level API ------------------------------------


def span(name: str, **attrs: Any) -> _LiveSpan | _NullSpan:
    """A timed span on the installed recorder, or the shared no-op span."""
    rec = _ACTIVE.get()
    if rec is None:
        return NULL_SPAN
    return rec.span(name, **attrs)


def count(name: str, amount: int | float = 1) -> None:
    """Increment a counter on the installed recorder, if any."""
    rec = _ACTIVE.get()
    if rec is not None:
        rec.count(name, amount)


def gauge(name: str, value: Any) -> None:
    """Set a gauge on the installed recorder, if any."""
    rec = _ACTIVE.get()
    if rec is not None:
        rec.gauge(name, value)
