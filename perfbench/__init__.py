"""The repository benchmark: back-tests and the functional tick-to-order path.

Run it from the repository root::

    python3 perfbench/run.py --workload backtest-wsds --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics; the
layer map in :mod:`perfbench.layers` records which end-to-end metric each
per-layer metric should move, and on which workload.
"""
