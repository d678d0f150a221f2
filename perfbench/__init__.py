"""The repository's end-to-end and per-layer benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the public API (or the real ``repro serve``
daemon) with options at their defaults, checks every value it gets
back, and prints one JSON result line.  See ``perfbench/README.md``.
"""
