"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-query --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a report (environment, why the workload was chosen, the
tail percentile and its sample count, failures).  The exit code is 0
only when every checked value was right, 2 when the program under test
is missing.  ``--smoke`` shrinks every input for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench.common import SCRATCH, SRC, BenchError, Context, environment, nproc  # noqa: E402
from perfbench.common import pin_to_one_cpu  # noqa: E402

WORKLOADS = ("cold-query", "sweep-warm", "serve-mixed", "rare-estimate")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpus = nproc()
    pinned = pin_to_one_cpu()
    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    from perfbench.loops import run_workload

    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH / "tmp"))
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        run_dir=run_dir,
        cpus=cpus,
    )
    try:
        # serve-mixed drives a daemon and has its own run(); the others
        # share the in-process driver.
        outcome = module.run(ctx) if hasattr(module, "run") else run_workload(ctx, module)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = outcome.per_layer() if ctx.trace else outcome.end_to_end()
    if outcome.tracer is not None:
        trace_path = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}-{int(time.time())}.json"
        outcome.tracer.dump(trace_path)
        outcome.report["trace_file"] = str(trace_path.relative_to(SCRATCH.parent))
    report = {
        "workload": args.workload,
        "why": module.WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "environment": {**environment(), "nproc": cpus, "pinned_cpu": pinned},
        "failed_frac": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "setup_samples_s": outcome.setup_seconds,
        "errors": outcome.errors,
        **outcome.report,
    }
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
