"""``serve-mixed``: an open-loop load generator against ``repro serve``.

A ``python -m repro serve`` subprocess runs with its ledger and a disk
cache in private temp directories, the cache bounded below the working
set.  One process drives it over at most ``nproc`` connections with
seeded Poisson arrivals at a quarter of the capacity calibrated in the
set-ups.  Topology popularity is Zipf over a pool; requests mix
short availability grids with override what-ifs.  Hot topologies are
cache reads, the tail forces builds, stores and evictions, and the cut
search runs on every query.  Latency is timed from each request's due
time, so a stall also charges the requests queued behind it; the
generator's own lateness is reported.

Times are in reference seconds (``perfbench.speed``): capacity is
calibrated at the reference speed, and the arrivals are a Poisson
process on a ``ReferenceClock``, which the generator keeps in step with
the host by timing the reference whenever the daemon is idle and the
next arrival is far enough off.  So the offered load stays the same share
of the daemon's capacity when the host slows down or speeds up, and each
latency is scaled by the clock's speed when its request fell due.

Every served point must equal the in-process ``compute_reliability_sweep``
value; a refused or unanswered request counts as failed; the daemon must
stop on the protocol ``shutdown`` op with exit code 0.
"""

from __future__ import annotations

import json
import math
import select
import socket
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.common import ROOT, BenchError, Context, Outcome, clock
from perfbench.common import pid_cpu_seconds, pid_peak_rss_mb
from perfbench.common import bottlenecked, program_env, same_float, shared_clock
from perfbench.loops import scaled_setup
from perfbench.speed import REFERENCE_MS, ReferenceClock, SpeedProbe

WHY = (
    "the daemon under open-loop Poisson load at 0.25 of capacity: Zipf-popular "
    "topologies, grids and what-ifs, a cache bound below the working set forcing "
    "builds and evictions"
)

# Traffic parameters.  The repository has no traffic traces, so these are
# choices; the README gives the measurement behind each.  Figures below
# are from traced runs at 20 s on a 2-vCPU x86_64 VM (Python 3.11).
#
#: (side links, demand d) of every pool topology; k = 2 bottleneck links,
#: so 20 links, split evenly.  Smaller than the 26-30 links of cold-query:
#: at 28 links a warm answer takes ~95 ms, a 20 s phase holds ~67
#: requests, and over five seeds the median latency's IQR/median was
#: 0.34-0.47.  At 20 links a 20 s phase holds ~140; the cut search is
#: still ~83 % of a warm answer (21.5 of 26 ms), as in a warm daemon
#: query on the larger nets.
SHAPE = (18, 2)
#: Pool size: every set-up warms every topology (12 cold builds, ~0.4 s).
POOL = 12
#: What decides the work is the same on every run: pool structure (and
#: so each topology's cost and popularity rank), which topology each
#: request asks for, and the arrival times.  The workload seed draws what
#: decides the values: failure probabilities, grid points, what-if links
#: and their probabilities.
FAMILY_SEED = 20171
SMOKE_SHAPE = (10, 2)
SMOKE_POOL = 3
#: Zipf popularity, an assumption: the top three topologies take 63 % of
#: the requests, the bottom six 19 %.
ZIPF_EXPONENT = 1.1
#: Requests alternate: a short availability grid, then an override
#: what-if of WHATIF_POINTS maps, each changing the failure probability
#: of one or two links.  An override leaves the structure, and so the
#: cut search and the cached columns, unchanged: how many links it
#: changes moves the values, not the work.
GRID_POINTS = 8
WHATIF_POINTS = 2
#: Cache byte bound as a share of the pool's working set.  At 0.75,
#: 14-17 % of the timed requests miss and build (one store and one eviction per
#: request on average): more than the 8 % beyond the tail percentile, so
#: ``latency_tail_ms`` samples the misses, and far less than half, so
#: ``latency_p50_ms`` samples the cache reads.
CACHE_SHARE = 0.75
#: Offered load as a share of the calibrated capacity: a quarter, a
#: departure from "about half".  The closed-loop calibration counts the
#: round trip, so at 0.4 the daemon was busy (CPU time) 22-27 % of the
#: phase, at 0.25 about 15 %.  The tail is queueing in the arrival
#: pattern's few tight bursts, and a stall of a shared host during one of
#: them inflates every request queued in it: at 0.4, one 10-seed pass
#: gave latency_tail_ms an IQR/median of 0.33 (single runs at 2.2x the
#: median), against 0.09-0.12 in two others; at 0.25, six seeds gave
#: 65-76 ms.
UTILIZATION = 0.25
#: Arrivals per second of ``--seconds``.  The count, not the phase's length,
#: is fixed, so every run offers the same arrival pattern (see schedule());
#: at the calibrated rate of the current code (~6.6 per reference second)
#: the phase lasts about ``--seconds`` at the reference speed.
ARRIVALS_PER_SECOND = 7
CALIBRATION_REQUESTS = 30
CALIBRATION_STREAM = (2024, 2)
SMOKE_CALIBRATION_REQUESTS = 4
#: The generator times the reference only when nothing is in flight and
#: the next arrival is at least this many reference times away.
IDLE_MARK_REFERENCES = 3
#: How long unanswered requests are awaited after the last arrival.
DRAIN_SECONDS = 60.0
START_TIMEOUT = 60.0
QUERY_SCHEMA = "repro.serve/query/v1"
#: Id prefix of the traced phase's requests; the traced daemon reports
#: only what it recorded from the first of them on.
TRACED_TAG = "t"


# -- inputs -------------------------------------------------------------------


def make_pool(seed: int, smoke: bool) -> list[dict]:
    """Pool topologies as graph.io dicts, with demand and cache footprint."""
    from repro.graph.io import to_dict

    side, d = SMOKE_SHAPE if smoke else SHAPE
    pool = []
    for t in range(SMOKE_POOL if smoke else POOL):
        source_links, sink_links = side // 2, side - side // 2
        net = bottlenecked(
            np.random.default_rng([FAMILY_SEED, t]),
            source_links=source_links,
            sink_links=sink_links,
            k=2,
            d=d,
            probabilities=np.random.default_rng([seed, 100 + t]),
        )
        # Every composition of d over the two cut links is an assignment;
        # each owns one bit-packed column per side.
        columns = d + 1
        footprint = columns * (math.ceil(2**source_links / 8) + math.ceil(2**sink_links / 8))
        pool.append(
            {"network": to_dict(net), "source": "s", "sink": "t", "rate": d, "bytes": footprint}
        )
    return pool


@dataclass
class Request:
    qid: str
    topology: int
    axis: str  # "availability" or "overrides"
    values: list
    due: float = 0.0  # seconds after the phase start
    conn: int = 0

    def payload(self, pool: list[dict]) -> bytes:
        entry = pool[self.topology]
        body: dict[str, Any] = {
            "schema": QUERY_SCHEMA,
            "op": "query",
            "id": self.qid,
            "network": entry["network"],
            "source": entry["source"],
            "sink": entry["sink"],
            "rate": entry["rate"],
        }
        if self.axis == "availability":
            body["availability"] = self.values
        else:
            body["overrides"] = [{str(k): v for k, v in m.items()} for m in self.values]
        return json.dumps(body, separators=(",", ":")).encode("utf-8") + b"\n"


def popularity(size: int) -> np.ndarray:
    """Zipf weights over the pool: topology ``t`` has rank ``t + 1``."""
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def make_requests(
    choices, values, weights: np.ndarray, pool: list[dict], count: int, tag: str
) -> list[Request]:
    """``count`` requests: Zipf topology choice, grids and what-ifs alternating.

    The ``choices`` generator picks each request's topology, the
    ``values`` generator its grid or what-if.
    """
    requests = []
    for i in range(count):
        t = int(choices.choice(len(pool), p=weights))
        links = len(pool[t]["network"]["links"])
        if i % 2:
            maps = []
            for _ in range(WHATIF_POINTS):
                chosen = values.choice(links, size=int(values.integers(1, 3)), replace=False)
                maps.append({int(j): float(values.uniform(0.01, 0.3)) for j in chosen})
            requests.append(Request(f"{tag}{i}", t, "overrides", maps))
        else:
            low, high = values.uniform(0.85, 0.95), values.uniform(0.97, 0.999)
            grid = np.linspace(low, high, GRID_POINTS).tolist()
            requests.append(Request(f"{tag}{i}", t, "availability", grid))
    return requests


def schedule(rng, rate: float, requests: list[Request], conns: int) -> list[Request]:
    """Poisson arrivals of ``requests`` at ``rate``, round-robin connections.

    The gaps between arrivals are unit-mean exponential draws divided by
    ``rate``: a rate measured a little higher or lower stretches the same
    arrival pattern instead of drawing a new one, so with the request
    count fixed every run offers the same bursts, measured in service
    times.
    """
    dues = np.cumsum(rng.exponential(1.0, size=len(requests))) / rate
    for i, (request, due) in enumerate(zip(requests, dues)):
        request.due = float(due)
        request.conn = i % conns
    return requests


# -- the daemon -----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess with private cache and ledger dirs."""

    def __init__(self, directory: Path, cache_max_bytes: int, traced: bool) -> None:
        directory.mkdir(parents=True)
        self.stats_path = directory / "trace-stats.json"
        self.log_path = directory / "daemon.log"
        serve = [
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(directory / "cache"),
            "--cache-max-bytes",
            str(cache_max_bytes),
            "--ledger-dir",
            str(directory / "ledger"),
        ]
        if traced:
            command = [
                sys.executable,
                str(ROOT / "perfbench" / "traced_daemon.py"),
                "--stats",
                str(self.stats_path),
                "--",
                *serve,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            cwd=directory,
        )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self) -> None:
        """Read the bound port from the daemon's stderr, then ping it."""
        from repro.serve.client import ReliabilityClient

        deadline = clock() + START_TIMEOUT
        while not self.port:
            for line in self.log_path.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("serving on "):
                    host, _, port = line[len("serving on "):].rpartition(":")
                    self.host, self.port = host, int(port)
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited early: {self.log()}")
            if clock() > deadline:
                raise BenchError("daemon did not report its port")
            if not self.port:
                select.select([], [], [], 0.005)
        with ReliabilityClient(self.host, self.port) as client:
            if not client.ping().get("ok"):
                raise BenchError("daemon did not answer ping")

    def log(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]

    def shutdown(self) -> int:
        """Stop through the protocol ``shutdown`` op; returns the exit code."""
        from repro.serve.client import ReliabilityClient

        with ReliabilityClient(self.host, self.port) as client:
            client.shutdown()
        code = self.proc.wait(timeout=60)
        self._log.close()
        return code

    def kill(self) -> None:
        """Stop a daemon the run could not shut down cleanly (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        self._log.close()

    def trace_stats(self) -> dict:
        return json.loads(self.stats_path.read_text(encoding="utf-8"))


# -- the load generator ---------------------------------------------------------


@dataclass
class Record:
    request: Request
    due: float = 0.0  # absolute, shared clock
    sent: float = 0.0
    recv: float = 0.0
    response: dict | None = None
    scale: float = 1.0  # reference seconds per wall second when it fell due

    @property
    def latency(self) -> float:
        """Seconds from due time to answer, at the reference speed."""
        return (self.recv - self.due) * self.scale


@dataclass
class _Conn:
    sock: socket.socket
    outbuf: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    written: int = 0
    queued: list = field(default_factory=list)  # (end offset, record)
    enqueued: int = 0


def drive(
    host: str,
    port: int,
    pool: list[dict],
    timed: list[Request],
    conns: int,
    ref_clock: ReferenceClock,
) -> tuple[list[Record], float]:
    """Send ``timed`` on schedule; returns records and the phase's length.

    ``Request.due`` is in reference seconds after the phase start, on
    ``ref_clock``; each record's ``due`` becomes the wall-clock reading at
    which it fell due.  In the daemon's idle gaps — nothing in flight,
    the next arrival far enough off — the generator takes a reference
    timing, which keeps the clock's speed current.  The phase's length,
    up to the last answer, is in reference seconds.
    """
    payloads = [r.payload(pool) for r in timed]  # encoded before the clock starts
    connections = []
    for _ in range(conns):
        sock = socket.create_connection((host, port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        connections.append(_Conn(sock))
    records = [Record(r) for r in timed]
    by_id = {r.request.qid: r for r in records}
    pending = len(records)
    start = ref_clock.now() + 0.02

    def wall_until_next() -> float:
        return (start + records[next_send].request.due - ref_clock.now()) / ref_clock.scale

    drain_deadline = None
    next_send = 0
    try:
        while pending and (drain_deadline is None or shared_clock() < drain_deadline):
            now = ref_clock.now()
            while next_send < len(records) and start + records[next_send].request.due <= now:
                record = records[next_send]
                record.due = ref_clock.wall_at(start + record.request.due)
                record.scale = ref_clock.scale
                conn = connections[record.request.conn]
                conn.outbuf += payloads[next_send]
                conn.enqueued += len(payloads[next_send])
                conn.queued.append((conn.enqueued, record))
                record.sent = shared_clock()
                next_send += 1
                if next_send == len(records):
                    drain_deadline = shared_clock() + DRAIN_SECONDS
            for conn in connections:
                if conn.outbuf:
                    _flush(conn)
            wait = 0.05
            if next_send < len(records):
                wait = min(wait, max(0.0, wall_until_next()))
            writers = [c.sock for c in connections if c.outbuf]
            readable, _, _ = select.select([c.sock for c in connections], writers, [], wait)
            for conn in connections:
                if conn.sock in readable:
                    pending -= _read(conn, by_id)
            idle = next_send == len(records) - pending
            if (
                idle
                and next_send < len(records)
                and wall_until_next() > IDLE_MARK_REFERENCES * REFERENCE_MS * 1e-3
            ):
                ref_clock.observe()
        phase = ref_clock.now() - start
    finally:
        for conn in connections:
            conn.sock.close()
    return records, phase


def _flush(conn: _Conn) -> None:
    try:
        sent = conn.sock.send(conn.outbuf)
    except BlockingIOError:
        return
    del conn.outbuf[:sent]
    conn.written += sent
    now = shared_clock()
    while conn.queued and conn.queued[0][0] <= conn.written:
        conn.queued.pop(0)[1].sent = now


def _read(conn: _Conn, by_id: dict[str, Record]) -> int:
    try:
        data = conn.sock.recv(1 << 20)
    except BlockingIOError:
        return 0
    if not data:
        raise BenchError("daemon closed a load-generator connection")
    now = shared_clock()
    conn.inbuf += data
    answered = 0
    while (newline := conn.inbuf.find(b"\n")) >= 0:
        line = bytes(conn.inbuf[:newline])
        del conn.inbuf[: newline + 1]
        response = json.loads(line)
        record = by_id.get(str(response.get("id")))
        if record is not None and record.response is None:
            record.response = response
            record.recv = now
            answered += 1
    return answered


# -- the run -----------------------------------------------------------------


def _start(ctx: Context, name: str, pool: list[dict], traced: bool) -> Daemon:
    """Set-up: start a daemon up to its first ping, warm every topology."""
    from repro.serve.client import ReliabilityClient

    working_set = sum(entry["bytes"] for entry in pool)
    bound = max(1, int(CACHE_SHARE * working_set))
    daemon = Daemon(ctx.run_dir / name, bound, traced)
    try:
        daemon.wait_ready()
        # Least popular first, so the bounded cache ends the warm-up in its
        # steady state (the hottest topologies most recently used) rather
        # than letting the timed phase open with a burst of builds.
        with ReliabilityClient(daemon.host, daemon.port) as client:
            for t in reversed(range(len(pool))):
                client.send_raw(Request(f"warm{t}", t, "availability", [0.9]).payload(pool))
                if not client.read_response().get("ok"):
                    raise BenchError(f"warm-up query on topology {t} was refused")
    except BaseException:
        daemon.kill()
        raise
    return daemon


def _calibrate(
    ctx: Context, daemon: Daemon, pool: list[dict]
) -> tuple[float, SpeedProbe, list[Record]]:
    """Closed-loop capacity on the request mix, per reference second.

    Capacity is one over the mean service time of every calibration
    request, the cache misses' builds included, so the offered load (and
    with it ``points_per_s``) follows the cost of builds and evictions as
    well as that of cache reads.  The reference is timed before every
    request, and the service times are scaled by those timings.
    """
    from repro.serve.client import ReliabilityClient

    count = SMOKE_CALIBRATION_REQUESTS if ctx.smoke else CALIBRATION_REQUESTS
    # The same choices on every seed, so the offered load follows the
    # daemon's speed rather than the calibration draw.
    rng = np.random.default_rng(CALIBRATION_STREAM)
    records = [
        Record(r) for r in make_requests(rng, rng, popularity(len(pool)), pool, count, "cal")
    ]
    payloads = [record.request.payload(pool) for record in records]
    service = []
    probe = SpeedProbe(shared_clock)
    with ReliabilityClient(daemon.host, daemon.port) as client:
        for record, payload in zip(records, payloads):
            probe.mark()
            start = shared_clock()
            client.send_raw(payload)
            record.response = client.read_response()
            service.append(shared_clock() - start)
    return 1.0 / (statistics.fmean(service) * probe.scale()), probe, records


def _stop(daemon: Daemon, outcome: Outcome) -> None:
    code = daemon.shutdown()
    if code != 0:
        outcome.fail(f"daemon exited with code {code}: {daemon.log()}")


def run(ctx: Context) -> Outcome:
    """Each set-up starts a daemon (stopping the previous one); the last
    serves the timed phase.  The traced run then repeats the phase, with
    the same stream and rate, on a traced daemon."""
    from perfbench.common import fresh_import

    outcome = Outcome()
    conns = max(1, min(ctx.cpus, 4))
    daemon = None
    phases: list[list[Record]] = []
    sent: list[Record] = []
    capacities: list[float] = []  # requests per reference second

    def one_setup(rep: int) -> tuple[tuple[list[dict], Daemon], float]:
        start = clock()
        fresh_import(("repro.serve.client", "repro.graph.generators"))
        pool = make_pool(ctx.seed, ctx.smoke)
        return (pool, _start(ctx, f"daemon-{rep}", pool, traced=False)), clock() - start

    try:
        for rep in range(ctx.setup_reps):
            if daemon is not None:
                _stop(daemon, outcome)
                daemon = None
            pool, daemon = scaled_setup(outcome, lambda: one_setup(rep))
            # Every set-up's daemon is calibrated; the median of these
            # capacities, taken seconds apart, is not set by one burst of
            # machine noise.
            capacity, probe, calibration = _calibrate(ctx, daemon, pool)
            capacities.append(capacity)
            sent += calibration
        assert daemon is not None
        rate = UTILIZATION * statistics.median(capacities)
        speed = probe.scale()  # the last calibration's, to start the phase clock
        count = max(1, round(ARRIVALS_PER_SECOND * (ctx.seconds / 2 if ctx.trace else ctx.seconds)))

        def timed_requests(tag: str) -> list[Request]:
            choices = np.random.default_rng([FAMILY_SEED, 1])
            values = np.random.default_rng([ctx.seed, 1])
            requests = make_requests(choices, values, popularity(len(pool)), pool, count, tag)
            arrivals = np.random.default_rng([FAMILY_SEED, 3])
            return schedule(arrivals, rate, requests, conns)

        phase_clock = ReferenceClock(shared_clock, speed)
        busy = pid_cpu_seconds(daemon.proc.pid)
        records, outcome.phase_seconds = drive(
            daemon.host, daemon.port, pool, timed_requests("q"), conns, phase_clock
        )
        busy = pid_cpu_seconds(daemon.proc.pid) - busy
        outcome.peak_rss_mb = pid_peak_rss_mb(daemon.proc.pid)
        _stop(daemon, outcome)
        outcome.report["daemon_summary"] = daemon.log().strip().splitlines()[-1:]
        phases.append(records)
        if ctx.trace:
            daemon = _start(ctx, "daemon-traced", pool, traced=True)
            records, outcome.phase_seconds = drive(
                daemon.host,
                daemon.port,
                pool,
                timed_requests(TRACED_TAG),
                conns,
                ReferenceClock(shared_clock, phase_clock.scale),
            )
            _stop(daemon, outcome)
            phases.append(records)
            _trace_layers(outcome, phases[0], phases[1], daemon.trace_stats())
    finally:
        if daemon is not None:
            daemon.kill()

    sent += [r for records in phases for r in records]
    measured = phases[-1]
    answered_records = [r for r in measured if r.response is not None]
    outcome.report["raw"] = {
        "wall_phase_s": max((r.recv for r in answered_records), default=0.0)
        - min((r.due for r in measured), default=0.0),
        "wall_latency_p50_ms": statistics.median(
            [r.recv - r.due for r in answered_records] or [0.0]
        ) * 1e3,
        "daemon_cpu_s": busy,
        **phase_clock.probe.summary(),
    }
    _account(outcome, sent, measured)
    _verify(outcome, pool, sent)
    late = [r.sent - r.due for r in measured if r.sent]
    answered = [r.response for r in measured if r.response and r.response.get("ok")]
    outcome.report.update(
        connections=conns,
        calibrated_capacity_per_reference_s=capacities,
        offered_rate_per_reference_s=rate,
        loadgen_late_ms={
            "mean": statistics.fmean(late) * 1e3 if late else 0.0,
            "max": max(late) * 1e3 if late else 0.0,
        },
        coalesced_frac=_share(answered, lambda p: p["batch"]["queries"] > 1),
        warm_frac=_share(answered, lambda p: p["warm"]),
    )
    return outcome


def _share(payloads: list[dict], test) -> float:
    return sum(1 for p in payloads if test(p)) / len(payloads) if payloads else 0.0


def _account(outcome: Outcome, sent: list[Record], measured: list[Record]) -> None:
    """Count every request sent; time and count points of the measured phase."""
    outcome.attempted += len(sent)
    for record in sent:
        response = record.response
        if response is None:
            outcome.fail(f"request {record.request.qid} unanswered")
        elif not response.get("ok"):
            outcome.fail(f"request {record.request.qid} refused: {response.get('error')}")
    for record in measured:
        if record.response is not None and record.response.get("ok"):
            outcome.latencies.append(record.latency)
            outcome.points += len(record.response["points"])


def _verify(outcome: Outcome, pool: list[dict], records: list[Record]) -> None:
    """Every served point must equal the in-process sweep value."""
    from repro.core.demand import FlowDemand
    from repro.core.sweep import ArrayCache, SweepSpec, compute_reliability_sweep
    from repro.graph.io import from_dict

    answered = [r for r in records if r.response is not None and r.response.get("ok")]
    by_topology: dict[int, list[Record]] = {}
    for record in answered:
        by_topology.setdefault(record.request.topology, []).append(record)
    for t, group in sorted(by_topology.items()):
        net = from_dict(pool[t]["network"])
        demand = FlowDemand(pool[t]["source"], pool[t]["sink"], pool[t]["rate"])
        cache = ArrayCache()
        reference: dict[tuple, float] = {}
        for axis in ("availability", "overrides"):
            keys = {
                _key(axis, value)
                for r in group
                if r.request.axis == axis
                for value in r.request.values
            }
            if not keys:
                continue
            ordered = sorted(keys)
            if axis == "availability":
                spec = SweepSpec.availability([k[1] for k in ordered])
            else:
                spec = SweepSpec.overrides([dict(k[1]) for k in ordered])
            swept = compute_reliability_sweep(net, demand, sweep=spec, cache=cache)
            reference.update(zip(ordered, swept.values))
        for record in group:
            points = record.response["points"]
            wrong = len(points) != len(record.request.values) or any(
                not same_float(point["reliability"], reference[_key(record.request.axis, value)])
                for point, value in zip(points, record.request.values)
            )
            if wrong:
                outcome.fail(f"request {record.request.qid}: served values differ from the sweep")


def _key(axis: str, value) -> tuple:
    if axis == "availability":
        return (axis, float(value))
    return (axis, tuple(sorted((int(k), float(v)) for k, v in value.items())))


def _trace_layers(outcome: Outcome, plain: list[Record], traced: list[Record], stats: dict) -> None:
    """Per-layer numbers from the traced daemon and the generator's stamps."""
    own = stats["self_seconds"]
    answered = [r for r in traced if r.response is not None and r.response.get("ok")]
    n = max(len(answered), 1)
    waits, uncovered, total = [], 0.0, 0.0
    for record in answered:
        stamps = stats["per_query"].get(record.request.qid)
        if not stamps or not all(k in stamps for k in ("decode", "answer", "encode")):
            continue
        decode, answer, encode = stamps["decode"], stamps["answer"], stamps["encode"]
        latency = record.recv - record.due
        late = record.sent - record.due
        wait = (decode[0] - record.sent) + (answer[0] - decode[1])
        covered = late + wait + (decode[1] - decode[0]) + (answer[1] - answer[0]) + (encode[1] - encode[0])
        waits.append(wait)
        uncovered += latency - covered
        total += latency
    cache = stats["cache"]
    counters = stats["counters"]
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    late = [r.sent - r.due for r in traced if r.sent]
    plain_latency = [r.recv - r.due for r in plain if r.response is not None]
    traced_latency = [r.recv - r.due for r in answered]
    from perfbench.tracing import solver_counter_sum

    outcome.layers.update(
        {
            "cuts.find_ms": own.get("cuts.find", 0.0) * 1e3 / n,
            "cuts.verify_ms": own.get("cuts.verify", 0.0) * 1e3 / n,
            "assignments.ms": own.get("assignments", 0.0) * 1e3 / n,
            "assignments.count": stats["assignments"] / n,
            "arrays.build_ms": own.get("arrays.build", 0.0) * 1e3 / n,
            "arrays.entries": stats["entries"] / n,
            "arrays.flow_calls": stats["flow_calls"] / n,
            "arrays.solves_per_entry": stats["build_flow_calls"] / stats["entries"] if stats["entries"] else 0.0,
            "flow.augmenting_paths": solver_counter_sum(counters, "paths") / n,
            "flow.solves": solver_counter_sum(counters, "solves") / n,
            "sweep.columns_ms": own.get("sweep.columns", 0.0) * 1e3 / n,
            "sweep.grid_ms": own.get("sweep.grid", 0.0) * 1e3 / n,
            "cache.hits": hits / n,
            "cache.misses": misses / n,
            "cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "cache.bytes_read": cache.get("bytes_read", 0) / n,
            "cache.stores": cache.get("stores", 0) / n,
            "cache.evictions": cache.get("evictions", 0) / n,
            "serve.decode_ms": own.get("serve.decode", 0.0) * 1e3 / n,
            "serve.answer_ms": stats["answer_seconds"] * 1e3 / n,
            "serve.encode_ms": own.get("serve.encode", 0.0) * 1e3 / n,
            "serve.wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
            "serve.coalesced_frac": _share([r.response for r in answered], lambda p: p["batch"]["queries"] > 1),
            "serve.warm_frac": _share([r.response for r in answered], lambda p: p["warm"]),
            "loadgen.late_ms": statistics.fmean(late) * 1e3 if late else 0.0,
            "trace.unattributed_frac": uncovered / total if total else 0.0,
        }
    )
    if plain_latency and traced_latency:
        outcome.layers["trace.overhead_frac"] = (
            statistics.median(traced_latency) / statistics.median(plain_latency) - 1.0
        )
