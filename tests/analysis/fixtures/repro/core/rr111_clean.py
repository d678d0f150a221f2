"""RR111 clean fixture — realistic instrumented code the rule must not flag."""

from repro.obs import count, gauge, span
from repro.obs.progress import progress_ticker
from repro.obs.recorder import FLOW_SOLVES, SCREENED_SOLVES


def accumulate_side(entries):
    with span("bottleneck.accumulate", points=len(entries), strategy="grid"):
        realized = 0
        for entry in entries:
            count(FLOW_SOLVES)
            if entry:
                realized += 1
        count(SCREENED_SOLVES, len(entries) - realized)
        return realized


def walk_configurations(size):
    with span("naive.enumerate", links=size.bit_length(), prune=True):
        with progress_ticker("naive.configurations", total=size) as ticker:
            for _ in range(size):
                ticker.tick()


def set_progress_gauge(done):
    gauge("sweep.points_done", done)


class _ChunkAccounting:
    """Bound dynamic family, formatted once at construction."""

    def __init__(self, solver_name):
        self._metric_solves = f"solver.{solver_name}.solves"

    def record(self, recorder):
        recorder.count(self._metric_solves)


def popcounts(masks):
    return [bin(mask).count("1") for mask in masks]
