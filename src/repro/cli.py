"""Command-line interface.

Usage::

    python -m repro describe network.json
    python -m repro compute network.json --source s --sink t --rate 2
    python -m repro compute network.json -s s -t t -d 2 --method bottleneck
    python -m repro compute network.json -s s -t t -d 2 --trace
    python -m repro estimate network.json -s s -t t -d 2 --budget 20000 \
        --target-relative-error 0.05 --seed 7
    python -m repro sweep network.json -s s -t t -d 2 --availability 0.7:0.99:9 \
        --metrics-port 0 --events telemetry/
    python -m repro serve --port 0 --cache-dir cache/ --warm network.json \
        -s s -t t -d 2 --metrics-port 0
    python -m repro profile network.json -s s -t t -d 2 --method naive
    python -m repro distribution network.json -s s -t t
    python -m repro bounds network.json -s s -t t -d 2
    python -m repro runs list
    python -m repro runs diff -2 -1
    python -m repro top http://127.0.0.1:9100
    python -m repro sample-network --kind fig4 -o network.json

Networks are the JSON documents produced by :mod:`repro.graph.io`.

Every ``compute`` / ``sweep`` invocation appends a content-addressed
run record to the ledger under ``.repro/runs/`` (disable with
``--no-ledger``); ``repro runs list|show|diff`` reads it back and
``runs diff`` exits nonzero on counter regressions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from datetime import datetime
from typing import Any, Sequence

from repro._version import __version__
from repro.core.api import available_methods, compute_reliability
from repro.core.bounds import reliability_bounds
from repro.core.demand import FlowDemand
from repro.core.distribution import flow_value_distribution
from repro.core.sweep import ArrayCache, SweepSpec, compute_reliability_sweep
from repro.exceptions import ReproError, ReproValueError
from repro.flow import DEFAULT_SOLVER
from repro.graph.builders import diamond, fujita_fig2_bridge, fujita_fig4
from repro.graph.generators import bottlenecked_network
from repro.graph.io import dumps as network_to_json
from repro.graph.io import load, to_dict
from repro.graph.network import FlowNetwork
from repro.obs import (
    MetricsServer,
    ProgressUpdate,
    Recorder,
    RunLedger,
    diff_records,
    format_tree,
    make_run_record,
    record,
    telemetry_session,
    trace_to_json,
)
from repro.obs.ledger import DEFAULT_LEDGER_DIR, content_hash

__all__ = ["main", "build_parser"]

_SAMPLES = {
    "diamond": lambda: diamond(),
    "fig2": lambda: fujita_fig2_bridge(),
    "fig4": lambda: fujita_fig4(),
    "bottlenecked": lambda: bottlenecked_network(
        source_side_links=6, sink_side_links=6, num_bottlenecks=2, demand=2, seed=0
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flow reliability of networks with bottleneck links "
        "(Fujita, IPDPSW 2017).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_demand_args(p: argparse.ArgumentParser, with_rate: bool = True) -> None:
        p.add_argument("network", help="path to a network JSON file")
        p.add_argument("--source", "-s", required=True, help="source node label")
        p.add_argument("--sink", "-t", required=True, help="sink node label")
        if with_rate:
            p.add_argument("--rate", "-d", type=int, required=True, help="demand d")

    def _add_incremental_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--incremental",
            action="store_true",
            default=None,
            dest="incremental",
            help="force the Gray-walk flow-repair kernels for --method "
            "naive, bottleneck or auto (default: on when the solver "
            "supports warm starts)",
        )
        group.add_argument(
            "--no-incremental",
            action="store_false",
            dest="incremental",
            help="force cold solves for every lattice entry",
        )

    def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group("telemetry")
        group.add_argument(
            "--events",
            metavar="DIR",
            default=None,
            help="stream repro.obs/events/v1 JSONL telemetry into DIR "
            "(parent trace in main.jsonl, one worker-*.jsonl per chunk)",
        )
        group.add_argument(
            "--metrics-port",
            type=int,
            default=None,
            metavar="PORT",
            help="serve live Prometheus metrics + /trace.json on PORT "
            "while the run executes (0 = ephemeral; the bound URL is "
            "printed to stderr)",
        )
        group.add_argument(
            "--metrics-linger",
            type=float,
            default=0.0,
            metavar="SECONDS",
            help="keep the metrics endpoint up this long after the run "
            "completes (for scrapers that poll on their own schedule)",
        )
        group.add_argument(
            "--ledger-dir",
            default=os.environ.get("REPRO_LEDGER_DIR", DEFAULT_LEDGER_DIR),
            metavar="DIR",
            help="run-ledger directory (default: $REPRO_LEDGER_DIR or "
            f"{DEFAULT_LEDGER_DIR})",
        )
        group.add_argument(
            "--no-ledger",
            action="store_true",
            help="do not append this run to the run ledger",
        )

    describe = sub.add_parser("describe", help="print a network summary")
    describe.add_argument("network")

    compute = sub.add_parser("compute", help="compute the reliability")
    add_demand_args(compute)
    compute.add_argument(
        "--method",
        default="auto",
        choices=available_methods(),
        help="algorithm (default: auto)",
    )
    compute.add_argument(
        "--samples",
        type=int,
        default=10_000,
        help="sample count for --method montecarlo",
    )
    compute.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --method naive-parallel, bottleneck or auto "
        "(default: serial)",
    )
    _add_incremental_flags(compute)
    compute.add_argument("--json", action="store_true", help="machine-readable output")
    compute.add_argument(
        "--trace",
        action="store_true",
        help="record the computation and print the phase tree to stderr",
    )
    compute.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="record the computation and write the JSON trace to FILE ('-' = stdout)",
    )
    _add_telemetry_flags(compute)

    estimate = sub.add_parser(
        "estimate",
        help="rare-event reliability estimation (permutation MC / splitting)",
    )
    add_demand_args(estimate)
    estimate.add_argument(
        "--variant",
        default="auto",
        choices=["auto", "permutation", "spectrum", "splitting"],
        help="estimator variant (default: auto = permutation)",
    )
    estimate.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="sample budget: permutations for the spectrum estimator, "
        "per-level population for splitting (default: variant-specific)",
    )
    estimate.add_argument(
        "--target-relative-error",
        type=float,
        default=None,
        metavar="RE",
        help="stop early once the unreliability's relative error at the "
        "chosen confidence reaches RE (permutation variant; budget "
        "permitting)",
    )
    estimate.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for the reported interval (default: 0.95)",
    )
    estimate.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed of the hierarchical random streams (default: 0); "
        "the same seed + inputs replays the estimate bit-for-bit",
    )
    estimate.add_argument(
        "--batch-size",
        type=int,
        default=2048,
        metavar="N",
        help="permutations drawn per vectorized batch (default: 2048)",
    )
    estimate.add_argument(
        "--levels",
        type=int,
        default=None,
        metavar="L",
        help="splitting levels (default: auto from the time ladder)",
    )
    _add_incremental_flags(estimate)
    estimate.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    estimate.add_argument(
        "--trace",
        action="store_true",
        help="record the estimation and print the phase tree to stderr",
    )
    estimate.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="record the estimation and write the JSON trace to FILE ('-' = stdout)",
    )
    _add_telemetry_flags(estimate)

    profile = sub.add_parser(
        "profile",
        help="compute the reliability and print the phase/counter breakdown",
    )
    add_demand_args(profile)
    profile.add_argument(
        "--method",
        default="auto",
        choices=available_methods(),
        help="algorithm (default: auto)",
    )
    profile.add_argument(
        "--samples",
        type=int,
        default=10_000,
        help="sample count for --method montecarlo",
    )
    profile.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --method naive-parallel, bottleneck or auto "
        "(default: serial)",
    )
    _add_incremental_flags(profile)
    profile.add_argument(
        "--progress",
        action="store_true",
        help="stream progress heartbeats of the exponential loops to stderr",
    )
    profile.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="also write the JSON trace to FILE ('-' = stdout)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="reliability curve over an availability / failure-scale / "
        "demand grid (one cached array build, vectorized points)",
    )
    add_demand_args(sweep)
    axis = sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument(
        "--availability",
        metavar="SPEC",
        help="uniform link availability per point: 'start:stop:n' "
        "(n evenly spaced points) or a comma-separated list",
    )
    axis.add_argument(
        "--failure-scale",
        metavar="SPEC",
        help="multiply every link failure probability by a per-point "
        "factor: 'start:stop:n' or a comma-separated list",
    )
    axis.add_argument(
        "--rates",
        metavar="LIST",
        help="comma-separated demand rates to sweep (probabilities fixed; "
        "--rate is ignored)",
    )
    sweep.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="LINK=P",
        help="set link LINK's failure probability to P before sweeping "
        "(repeatable)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the realization-array build (default: serial)",
    )
    _add_incremental_flags(sweep)
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed on-disk realization-array cache; a second "
        "run against the same DIR performs zero max-flow solves",
    )
    sweep.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the array cache: least-recently-used columns are "
        "evicted (memory + disk) once tracked bytes exceed BYTES",
    )
    sweep.add_argument("--json", action="store_true", help="machine-readable output")
    _add_telemetry_flags(sweep)

    serve = sub.add_parser(
        "serve",
        help="reliability-as-a-service: a query daemon that coalesces "
        "concurrent requests into shared sweep batches (newline-delimited "
        "JSON over local TCP; see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port for the query protocol (0 = ephemeral; the bound "
        "address is printed to stderr)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent realization-array cache shared with `repro sweep "
        "--cache-dir`; queries on topologies already present answer with "
        "zero max-flow solves",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the array cache: least-recently-used columns are "
        "evicted (memory + disk) once tracked bytes exceed BYTES",
    )
    serve.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="NETWORK",
        help="pre-build the realization arrays for this network JSON at "
        "startup (repeatable; requires -s/-t/-d for the demand)",
    )
    serve.add_argument("--source", "-s", default=None, help="warm-demand source node")
    serve.add_argument("--sink", "-t", default=None, help="warm-demand sink node")
    serve.add_argument(
        "--rate", "-d", type=int, default=None, help="warm-demand rate d"
    )
    serve.add_argument(
        "--coalesce-window",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="after the first query of a round arrives, keep draining "
        "newly-readable sockets this long so near-simultaneous queries "
        "merge into one batch (default: 0.005)",
    )
    serve.add_argument(
        "--solver",
        default=None,
        help=f"max-flow solver (default: {DEFAULT_SOLVER})",
    )
    _add_telemetry_flags(serve)

    runs = sub.add_parser("runs", help="inspect and compare the run ledger")
    # Shared by every runs subcommand so the flag may appear after the
    # subcommand name (``repro runs list --ledger-dir DIR``).
    runs_common = argparse.ArgumentParser(add_help=False)
    runs_common.add_argument(
        "--ledger-dir",
        default=DEFAULT_LEDGER_DIR,
        metavar="DIR",
        help=f"run-ledger directory (default: {DEFAULT_LEDGER_DIR})",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", parents=[runs_common], help="list recorded runs, oldest first"
    )
    runs_list.add_argument("--json", action="store_true", help="machine-readable output")
    runs_show = runs_sub.add_parser(
        "show", parents=[runs_common], help="print one full run record"
    )
    runs_show.add_argument(
        "ref",
        help="run reference: id prefix, negative index (-1 = latest), "
        "or a path to a record JSON file",
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        parents=[runs_common],
        help="compare two runs; exits 1 when counters regressed "
        "(latency regressions are advisory unless --strict-latency)",
    )
    runs_diff.add_argument("base", help="baseline run reference (or BENCH_*.json path)")
    runs_diff.add_argument("other", help="candidate run reference")
    runs_diff.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        metavar="RATIO",
        help="growth ratio above which a counter/phase is a regression "
        "(default: 1.25)",
    )
    runs_diff.add_argument(
        "--strict-latency",
        action="store_true",
        help="treat wallclock regressions as fatal too",
    )
    runs_diff.add_argument("--json", action="store_true", help="machine-readable output")

    top = sub.add_parser(
        "top",
        help="in-terminal phase/worker/cache view of a live metrics endpoint",
    )
    top.add_argument("url", help="endpoint base URL, e.g. http://127.0.0.1:9100")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until the endpoint goes away)",
    )

    bounds = sub.add_parser("bounds", help="cheap lower/upper bounds")
    add_demand_args(bounds)

    dist = sub.add_parser("distribution", help="full PMF of the surviving max-flow")
    add_demand_args(dist, with_rate=False)

    importance = sub.add_parser("importance", help="rank links by importance")
    add_demand_args(importance)
    importance.add_argument(
        "--measure",
        default="birnbaum",
        choices=[
            "birnbaum",
            "improvement_potential",
            "risk_achievement_worth",
            "fussell_vesely",
        ],
        help="ranking measure (default: birnbaum)",
    )

    sample = sub.add_parser("sample-network", help="write a sample network JSON")
    sample.add_argument(
        "--kind", default="fig4", choices=sorted(_SAMPLES), help="which sample"
    )
    sample.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    return parser


def _cmd_describe(args: argparse.Namespace) -> int:
    net = load(args.network)
    print(net.describe())
    return 0


class _Terminated(Exception):
    """Raised by the SIGTERM handler so the run unwinds cleanly.

    Unwinding as an exception (instead of dying mid-write) is what lets
    the telemetry sink flush its final lines and the ledger append an
    ``interrupted`` record — the kill-safety contract.
    """


def _raise_terminated(signum: int, frame: Any) -> None:
    raise _Terminated(f"terminated by signal {signum}")


class _ObsSession:
    """Per-invocation observability plumbing for compute/sweep.

    Owns everything the telemetry flags switch on: the recorder (plain
    or streaming to ``--events DIR``), the ``--metrics-port`` endpoint,
    the SIGTERM handler, and the ledger append.  The command body runs
    inside the ``with`` block and reports its outcome through
    :meth:`complete`; a missing ``complete`` (exception or SIGTERM)
    lands in the ledger as ``interrupted`` rather than not at all.

    With ``--no-ledger`` and no tracing/events/metrics flags the session
    is inert — no recorder is installed, preserving the zero-overhead
    path the obs benchmarks guard.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        *,
        command: str,
        net: FlowNetwork | None = None,
        demand: FlowDemand | None = None,
        input_payload: dict[str, Any] | None = None,
        params: dict[str, Any],
    ) -> None:
        self.args = args
        self.command = command
        self.params = {k: v for k, v in params.items() if v is not None}
        self.tracing = bool(
            getattr(args, "trace", False) or getattr(args, "trace_json", None)
        )
        self.recorder: Recorder | None = None
        self.server: MetricsServer | None = None
        self._record_cm: Any = None
        self._old_sigterm: Any = None
        self._value: Any = None
        self._flow_calls: int | None = None
        self._completed = False
        # The input fingerprint covers the network and the demand, not
        # the method/options: diffing "same computation, different
        # engine" is exactly what the ledger is for.  Commands without a
        # single input network (``serve``) fingerprint their
        # configuration via ``input_payload`` instead.
        if input_payload is None:
            if net is None or demand is None:
                raise ReproValueError("session needs net+demand or input_payload")
            input_payload = {
                "net": to_dict(net),
                "source": demand.source,
                "sink": demand.sink,
                "rate": demand.rate,
            }
        self._input_fp = content_hash(input_payload)

    @property
    def active(self) -> bool:
        return (
            not self.args.no_ledger
            or self.tracing
            or self.args.events is not None
            or self.args.metrics_port is not None
        )

    def __enter__(self) -> "_ObsSession":
        if not self.active:
            return self
        if self.args.metrics_port is not None:
            # Bind *before* the telemetry session opens so the ephemeral
            # port (``--metrics-port 0``) rides the ``start`` event's
            # meta and the ledger params; the real recorder is swapped
            # in below (handlers read ``server.recorder`` per request).
            self.server = MetricsServer(
                Recorder(),
                port=self.args.metrics_port,
                spool_dir=self.args.events,
            )
            self.params["metrics_port"] = self.server.port
        if self.args.events is not None:
            self._record_cm = telemetry_session(
                self.args.events,
                meta={"command": self.command, **self.params},
            )
        else:
            self._record_cm = record()
        self.recorder = self._record_cm.__enter__()
        if self.server is not None:
            self.server.recorder = self.recorder
            print(f"metrics endpoint: {self.server.url}", file=sys.stderr, flush=True)
        try:
            self._old_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
        except ValueError:  # not the main thread (embedded use)
            self._old_sigterm = None
        return self

    def complete(self, *, value: Any = None, flow_calls: int | None = None) -> None:
        """Mark the run completed and stash its headline outcome."""
        self._value = value
        self._flow_calls = flow_calls
        self._completed = True

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._old_sigterm is not None:
            signal.signal(signal.SIGTERM, self._old_sigterm)
        if not self.active:
            return False
        interrupted = exc_type is _Terminated
        if self._record_cm is not None:
            # Finishes the recorder (emitting the telemetry ``finish``
            # event) and closes the sink — before the ledger reads the
            # totals, and before any linger window starts.
            self._record_cm.__exit__(exc_type, exc, tb)
        if not self.args.no_ledger and (interrupted or exc_type is None):
            self._append_ledger(interrupted=interrupted)
        if self.server is not None:
            if exc_type is None and self.args.metrics_linger > 0:
                time.sleep(self.args.metrics_linger)
            self.server.stop()
        return False

    def _append_ledger(self, *, interrupted: bool) -> None:
        rec = self.recorder
        assert rec is not None  # active sessions always install one
        status = "interrupted" if interrupted or not self._completed else "completed"
        run_record = make_run_record(
            command=self.command,
            input_fingerprint=self._input_fp,
            params=self.params,
            status=status,
            seconds=rec.root.seconds,
            counters=rec.counter_totals(),
            phases=[
                {"name": child.name, "seconds": child.seconds}
                for child in rec.root.children
            ],
            value=self._value,
            flow_calls=self._flow_calls,
            solver=DEFAULT_SOLVER,
        )
        run_id = RunLedger(self.args.ledger_dir).append(run_record)
        print(f"run {run_id} recorded ({status})", file=sys.stderr)


def _write_trace_json(recorder: Recorder, destination: str) -> None:
    text = trace_to_json(recorder)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote trace to {destination}", file=sys.stderr)


def _print_progress(update: ProgressUpdate) -> None:
    if update.total is not None:
        eta = f", eta {update.eta:.1f}s" if update.eta is not None else ""
        line = (
            f"{update.label}: {update.done}/{update.total}"
            f" ({update.rate:.0f}/s{eta})"
        )
    else:
        line = f"{update.label}: {update.done} ({update.rate:.0f}/s)"
    print(line, file=sys.stderr)


def _cmd_compute(args: argparse.Namespace) -> int:
    # Validate the option/method pairing before load(): a bad pairing
    # must not be masked by (or ordered after) file-system side effects.
    options = {}
    if args.method in ("montecarlo", "montecarlo-stratified"):
        options["num_samples"] = args.samples
    options.update(_workers_option(args))
    options.update(_incremental_option(args))
    net = load(args.network)
    demand = FlowDemand(args.source, args.sink, args.rate)
    session = _ObsSession(
        args,
        command="compute",
        net=net,
        demand=demand,
        params={
            "method": args.method,
            "workers": args.workers,
            "incremental": args.incremental,
        },
    )
    with session:
        result = compute_reliability(net, demand=demand, method=args.method, **options)
        session.complete(
            value=result.value, flow_calls=getattr(result, "flow_calls", None)
        )
    recorder = session.recorder
    if args.trace and recorder is not None:
        print(format_tree(recorder, title=f"phases ({result.method})"), file=sys.stderr)
    if args.trace_json is not None and recorder is not None:
        _write_trace_json(recorder, args.trace_json)
    if args.json:
        payload = {
            "reliability": result.value,
            "method": result.method,
            "source": args.source,
            "sink": args.sink,
            "rate": args.rate,
        }
        if hasattr(result, "low"):
            payload["interval"] = [result.low, result.high]
        if hasattr(result, "flow_calls"):
            payload["flow_calls"] = result.flow_calls
        print(json.dumps(payload, indent=2))
    else:
        print(f"reliability = {result.value:.10f}  (method: {result.method})")
        if hasattr(result, "low"):
            print(f"{result.confidence:.0%} interval: [{result.low:.6f}, {result.high:.6f}]")
        elif result.flow_calls:
            print(f"max-flow calls: {result.flow_calls}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.rare import rare_reliability

    # Eager option validation before load(), like compute.
    if args.budget is not None and args.budget < 1:
        raise ReproValueError("--budget must be positive")
    if args.target_relative_error is not None and args.variant == "splitting":
        raise ReproValueError(
            "--target-relative-error applies to the permutation variant only"
        )
    options: dict[str, Any] = dict(
        variant=args.variant,
        num_samples=args.budget,
        confidence=args.confidence,
        seed=args.seed,
        batch_size=args.batch_size,
        num_levels=args.levels,
    )
    if args.target_relative_error is not None:
        options["target_relative_error"] = args.target_relative_error
    options.update(_incremental_option(args))
    net = load(args.network)
    demand = FlowDemand(args.source, args.sink, args.rate)
    session = _ObsSession(
        args,
        command="estimate",
        net=net,
        demand=demand,
        params={
            "variant": args.variant,
            "budget": args.budget,
            "target_relative_error": args.target_relative_error,
            "confidence": args.confidence,
            "seed": args.seed,
            "incremental": args.incremental,
        },
    )
    with session:
        result = rare_reliability(net, demand, **options)
        session.complete(
            value=result.value, flow_calls=result.details.get("flow_calls")
        )
    recorder = session.recorder
    if args.trace and recorder is not None:
        print(format_tree(recorder, title=f"phases ({result.method})"), file=sys.stderr)
    if args.trace_json is not None and recorder is not None:
        _write_trace_json(recorder, args.trace_json)
    details = result.details
    if args.json:
        payload = {
            "reliability": result.value,
            "interval": [result.low, result.high],
            "confidence": result.confidence,
            "method": result.method,
            "unreliability": details.get("unreliability"),
            "relative_error": _json_safe(details.get("relative_error")),
            "num_samples": result.num_samples,
            "seed": details.get("seed"),
            "flow_calls": details.get("flow_calls"),
            "source": args.source,
            "sink": args.sink,
            "rate": args.rate,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"reliability = {result.value:.10f}  (method: {result.method})")
        print(
            f"{result.confidence:.0%} interval: "
            f"[{result.low:.10f}, {result.high:.10f}]"
        )
        unreliability = details.get("unreliability")
        if unreliability is not None:
            print(f"unreliability = {unreliability:.6e}")
        relative_error = details.get("relative_error")
        if relative_error is not None and relative_error == relative_error:
            print(f"relative error = {relative_error:.2%}")
        print(f"samples: {result.num_samples}  seed: {details.get('seed')}")
    return 0


def _json_safe(value: Any) -> Any:
    """JSON has no inf/nan: map non-finite floats to None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cmd_profile(args: argparse.Namespace) -> int:
    # Same eager option validation as compute: fail before load().
    options = {}
    if args.method in ("montecarlo", "montecarlo-stratified"):
        options["num_samples"] = args.samples
    options.update(_workers_option(args))
    options.update(_incremental_option(args))
    net = load(args.network)
    demand = FlowDemand(args.source, args.sink, args.rate)
    recorder = Recorder(progress_callback=_print_progress if args.progress else None)
    with record(recorder):
        result = compute_reliability(net, demand=demand, method=args.method, **options)
    print(f"reliability = {result.value:.10f}  (method: {result.method})")
    if getattr(result, "flow_calls", 0):
        print(f"max-flow calls: {result.flow_calls}")
    print()
    print(format_tree(recorder, title=f"phases ({result.method})"))
    totals = recorder.counter_totals()
    if totals:
        print()
        print("counters:")
        for name in sorted(totals):
            value = totals[name]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name} = {shown}")
    if args.trace_json is not None:
        _write_trace_json(recorder, args.trace_json)
    return 0


def _parse_grid(spec: str, option: str) -> list[float]:
    """Sweep grid syntax: ``start:stop:n`` (evenly spaced) or ``a,b,c``."""
    text = spec.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ReproValueError(
                f"{option} grid must be 'start:stop:n', got {spec!r}"
            )
        try:
            start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ReproValueError(f"cannot parse {option} grid {spec!r}") from exc
        if n < 1:
            raise ReproValueError(f"{option} grid needs n >= 1, got {n}")
        if n == 1:
            return [start]
        return [start + (stop - start) * i / (n - 1) for i in range(n)]
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ReproValueError(f"cannot parse {option} grid {spec!r}") from exc
    if not values:
        raise ReproValueError(f"{option} grid {spec!r} is empty")
    return values


def _parse_link_overrides(pairs: list[str]) -> dict[int, float]:
    """``--override LINK=P`` arguments into a failure-probability patch."""
    overrides: dict[int, float] = {}
    for pair in pairs:
        head, sep, tail = pair.partition("=")
        if not sep:
            raise ReproValueError(f"--override must be LINK=P, got {pair!r}")
        try:
            overrides[int(head)] = float(tail)
        except ValueError as exc:
            raise ReproValueError(f"--override must be LINK=P, got {pair!r}") from exc
    return overrides


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Eager option validation before load(), like compute/profile.
    if args.workers is not None and args.workers < 1:
        raise ReproValueError(f"--workers must be >= 1, got {args.workers}")
    overrides = _parse_link_overrides(args.override)
    if args.availability is not None:
        spec = SweepSpec.availability(_parse_grid(args.availability, "--availability"))
    elif args.failure_scale is not None:
        spec = SweepSpec.failure_scale(
            _parse_grid(args.failure_scale, "--failure-scale")
        )
    else:
        try:
            rates = [int(r) for r in args.rates.split(",") if r.strip()]
        except ValueError as exc:
            raise ReproValueError(f"cannot parse --rates list {args.rates!r}") from exc
        spec = SweepSpec.demand_rates(rates)
    if args.cache_max_bytes is not None and args.cache_dir is None:
        raise ReproValueError("--cache-max-bytes requires --cache-dir")
    net = load(args.network)
    if overrides:
        net = net.with_failure_probabilities(overrides)
    demand = FlowDemand(args.source, args.sink, args.rate)
    cache = (
        ArrayCache(args.cache_dir, max_bytes=args.cache_max_bytes)
        if args.cache_dir is not None
        else None
    )
    session = _ObsSession(
        args,
        command="sweep",
        net=net,
        demand=demand,
        params={
            "kind": spec.kind,
            "points": len(spec),
            "workers": args.workers,
            "incremental": args.incremental,
            "cache_dir": args.cache_dir,
            "cache_max_bytes": args.cache_max_bytes,
        },
    )
    with session:
        result = compute_reliability_sweep(
            net,
            demand,
            sweep=spec,
            workers=args.workers,
            incremental=args.incremental,
            cache=cache,
        )
        session.complete(flow_calls=result.flow_calls)
    stats = result.cache_stats
    if args.json:
        payload = {
            "kind": result.kind,
            "source": args.source,
            "sink": args.sink,
            "rate": args.rate,
            "points": [
                {"x": x, "reliability": r.value}
                for x, r in zip(result.xs, result.results)
            ],
            "flow_calls": result.flow_calls,
            "cache": stats,
        }
        print(json.dumps(payload, indent=2))
    else:
        label = {
            "availability": "availability",
            "failure-scale": "scale",
            "demand": "rate",
        }[result.kind]
        print(f"{label:>14}  reliability")
        for x, r in zip(result.xs, result.results):
            shown = f"{x:.6g}" if isinstance(x, float) else str(x)
            print(f"{shown:>14}  {r.value:.10f}")
        print(f"max-flow calls: {result.flow_calls}")
        print(
            f"array cache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['bytes_read'] + stats['bytes_written']} bytes"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ReliabilityServer  # local: daemon-only path

    if args.cache_max_bytes is not None and args.cache_dir is None:
        raise ReproValueError("--cache-max-bytes requires --cache-dir")
    if args.warm and (args.source is None or args.sink is None or args.rate is None):
        raise ReproValueError("--warm requires --source/--sink/--rate")
    warm_nets = [load(path) for path in args.warm]
    cache = ArrayCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    # Bind before the session opens so the bound (possibly ephemeral)
    # port rides the telemetry ``start`` event and the ledger params.
    server = ReliabilityServer(
        host=args.host,
        port=args.port,
        cache=cache,
        solver=args.solver,
        coalesce_window=args.coalesce_window,
    )
    session = _ObsSession(
        args,
        command="serve",
        input_payload={
            "serve": {
                "host": args.host,
                "cache_dir": args.cache_dir,
                "cache_max_bytes": args.cache_max_bytes,
                "solver": args.solver,
                "warm": sorted(args.warm),
            }
        },
        params={
            "host": server.host,
            "port": server.port,
            "cache_dir": args.cache_dir,
            "cache_max_bytes": args.cache_max_bytes,
            "coalesce_window": args.coalesce_window,
            "warm": len(args.warm) or None,
        },
    )
    try:
        with session:
            print(f"serving on {server.address}", file=sys.stderr, flush=True)
            for path, warm_net in zip(args.warm, warm_nets):
                demand = FlowDemand(args.source, args.sink, args.rate)
                solves = server.warm(warm_net, demand)
                print(
                    f"warmed {path}: {solves} max-flow solves",
                    file=sys.stderr,
                    flush=True,
                )
            # Runs until a protocol ``shutdown`` op (ledger: completed)
            # or SIGTERM, which unwinds through select() as _Terminated
            # (ledger: interrupted) — the same kill-safety contract as
            # compute/sweep.
            server.serve_forever()
            session.complete(value=server.queries_served)
    finally:
        server.close()
    stats = server.cache.stats()
    print(
        f"served {server.queries_served} queries in {server.rounds} "
        f"batch rounds ({server.torn_requests} torn); array cache: "
        f"{stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions",
        file=sys.stderr,
    )
    return 0


def _format_unix(stamp: Any) -> str:
    if not isinstance(stamp, (int, float)):
        return "-"
    return datetime.fromtimestamp(float(stamp)).strftime("%Y-%m-%d %H:%M:%S")


def _cmd_runs(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger_dir)
    if args.runs_command == "list":
        entries = ledger.entries()
        if args.json:
            print(json.dumps(entries, indent=2))
            return 0
        if not entries:
            print(f"no runs recorded under {ledger.directory}")
            return 0
        print(
            f"{'id':<13} {'when':<19}  {'command':<8} {'status':<12} "
            f"{'seconds':>9} {'solves':>8}  value"
        )
        for entry in entries:
            seconds = entry.get("seconds")
            shown_seconds = (
                f"{seconds:.3f}" if isinstance(seconds, (int, float)) else "-"
            )
            solves = entry.get("flow_calls")
            value = entry.get("value")
            shown_value = f"{value:.10g}" if isinstance(value, float) else value
            print(
                f"{str(entry.get('id', '?')):<13} "
                f"{_format_unix(entry.get('unix')):<19}  "
                f"{str(entry.get('command', '?')):<8} "
                f"{str(entry.get('status', '?')):<12} "
                f"{shown_seconds:>9} "
                f"{solves if solves is not None else '-':>8}  "
                f"{shown_value if shown_value is not None else '-'}"
            )
        return 0
    if args.runs_command == "show":
        print(json.dumps(ledger.resolve(args.ref), indent=2, default=str))
        return 0
    # diff
    base = ledger.resolve(args.base)
    other = ledger.resolve(args.other)
    diff = diff_records(base, other, tolerance=args.tolerance)
    if args.json:
        print(
            json.dumps(
                {
                    "base": diff.base_id,
                    "other": diff.other_id,
                    "same_input": diff.same_input,
                    "counter_regressions": diff.counter_regressions,
                    "counter_improvements": diff.counter_improvements,
                    "latency_regressions": diff.latency_regressions,
                    "ok": diff.ok_strict if args.strict_latency else diff.ok,
                },
                indent=2,
            )
        )
    else:
        print(f"base  {diff.base_id}  ->  other  {diff.other_id}")
        if not diff.same_input:
            print("note: the two runs fingerprint different inputs")
        for entry in diff.counter_regressions:
            ratio = f"{entry['ratio']:.2f}x" if entry["ratio"] else "new"
            print(
                f"REGRESSION  {entry['name']}: {entry['base']:g} -> "
                f"{entry['other']:g} ({ratio})"
            )
        for entry in diff.counter_improvements:
            print(
                f"improved    {entry['name']}: {entry['base']:g} -> "
                f"{entry['other']:g}"
            )
        for entry in diff.latency_regressions:
            tag = "LATENCY" if args.strict_latency else "latency (advisory)"
            print(
                f"{tag}  {entry['name']}: {entry['base']:.3f}s -> "
                f"{entry['other']:.3f}s"
            )
        if diff.ok and not diff.latency_regressions:
            print("no regressions")
    ok = diff.ok_strict if args.strict_latency else diff.ok
    return 0 if ok else 1


def _fetch_json(url: str) -> dict[str, Any]:
    import urllib.request

    with urllib.request.urlopen(url, timeout=5.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _render_top_frame(payload: dict[str, Any]) -> str:
    lines: list[str] = []
    seconds = payload.get("seconds", 0.0)
    lines.append(f"repro top — trace {seconds:.2f}s")
    lines.append("")
    lines.append(f"{'phase':<28} {'seconds':>9}  counters")
    for phase in payload.get("spans", []):
        own = phase.get("counters", {})
        shown = ", ".join(f"{k}={v:g}" for k, v in sorted(own.items())) or "-"
        lines.append(f"{phase.get('name', '?'):<28} {phase.get('seconds', 0.0):>9.3f}  {shown}")
    counters = payload.get("counters", {})
    if counters:
        lines.append("")
        lines.append("totals:")
        for name in sorted(counters):
            lines.append(f"  {name:<28} {counters[name]:g}")
    cache = {k: v for k, v in counters.items() if k.startswith("array_cache_")}
    if cache:
        lines.append("")
        lines.append(
            "cache: "
            + ", ".join(f"{k.removeprefix('array_cache_')}={v:g}" for k, v in sorted(cache.items()))
        )
    workers = payload.get("workers")
    if workers:
        lines.append("")
        lines.append(
            f"workers: {workers.get('files', 0)} chunk streams, "
            f"{workers.get('events', 0)} events"
        )
        for name, value in sorted((workers.get("counters") or {}).items()):
            lines.append(f"  worker {name:<21} {value:g}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    if "://" not in base:
        base = "http://" + base
    frames = 0
    while True:
        try:
            payload = _fetch_json(base + "/trace.json")
        except ValueError as exc:
            raise ReproValueError(f"bad endpoint URL {args.url!r}: {exc}") from exc
        except OSError as exc:
            if frames == 0:
                raise ReproValueError(f"cannot reach {base}: {exc}") from exc
            print("endpoint gone; exiting", file=sys.stderr)
            return 0
        if frames and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(_render_top_frame(payload))
        frames += 1
        if args.iterations is not None and frames >= args.iterations:
            return 0
        time.sleep(max(0.0, args.interval))


def _cmd_bounds(args: argparse.Namespace) -> int:
    net = load(args.network)
    demand = FlowDemand(args.source, args.sink, args.rate)
    low, high = reliability_bounds(net, demand)
    print(f"lower bound = {low:.10f}")
    print(f"upper bound = {high:.10f}")
    return 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    net = load(args.network)
    dist = flow_value_distribution(net, args.source, args.sink)
    print("rate  P(maxflow == rate)  P(maxflow >= rate)")
    for v, p in enumerate(dist.pmf):
        print(f"{v:>4}  {p:>18.10f}  {dist.reliability(v):>18.10f}")
    print(f"expected deliverable rate: {dist.expected_value:.6f}")
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    from repro.core.importance import link_importances

    net = load(args.network)
    demand = FlowDemand(args.source, args.sink, args.rate)
    table = link_importances(net, demand)
    ranked = sorted(table, key=lambda imp: -getattr(imp, args.measure))
    print("link  birnbaum    improvement  RAW         fussell-vesely")
    for imp in ranked:
        link = net.link(imp.link_index)
        print(
            f"e{imp.link_index:<4} {imp.birnbaum:<11.6f} "
            f"{imp.improvement_potential:<12.6f} {imp.risk_achievement_worth:<11.4f} "
            f"{imp.fussell_vesely:<11.6f}  ({link.tail!r} -> {link.head!r})"
        )
    return 0


def _cmd_sample_network(args: argparse.Namespace) -> int:
    net = _SAMPLES[args.kind]()
    text = network_to_json(net)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


#: Methods that accept a ``workers=`` option (``auto`` forwards it to
#: the bottleneck engine when that path wins).
_WORKERS_METHODS = ("naive-parallel", "bottleneck", "auto")


def _workers_option(args: argparse.Namespace) -> dict[str, int]:
    """Validate ``--workers`` and turn it into a compute option."""
    if args.workers is None:
        return {}
    if args.workers < 1:
        raise ReproValueError(f"--workers must be >= 1, got {args.workers}")
    if args.method not in _WORKERS_METHODS:
        raise ReproValueError(
            f"--workers is not supported by method {args.method!r}; "
            f"use one of: {', '.join(_WORKERS_METHODS)}"
        )
    return {"workers": args.workers}


#: Methods with a Gray-walk flow-repair path (``auto`` forwards the
#: toggle to whichever of them wins the dispatch).
_INCREMENTAL_METHODS = ("naive", "bottleneck", "auto")


def _incremental_option(args: argparse.Namespace) -> dict[str, bool]:
    """Validate ``--incremental``/``--no-incremental`` into an option."""
    if args.incremental is None:
        return {}
    flag = "--incremental" if args.incremental else "--no-incremental"
    if args.method not in _INCREMENTAL_METHODS:
        raise ReproValueError(
            f"{flag} is not supported by method {args.method!r}; "
            f"use one of: {', '.join(_INCREMENTAL_METHODS)}"
        )
    return {"incremental": args.incremental}


_COMMANDS = {
    "describe": _cmd_describe,
    "compute": _cmd_compute,
    "estimate": _cmd_estimate,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "runs": _cmd_runs,
    "top": _cmd_top,
    "bounds": _cmd_bounds,
    "distribution": _cmd_distribution,
    "importance": _cmd_importance,
    "sample-network": _cmd_sample_network,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Terminated:
        # The telemetry sink was flushed and the ledger already holds
        # the ``interrupted`` record (see _ObsSession.__exit__).
        print("terminated", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
