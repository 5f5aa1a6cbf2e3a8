"""Scalar parity oracles, kept apart from the production modules.

Each production class has one code path; the simple reference
versions the parity tests and benchmarks compare it against live here,
one module per layer, each built on the production type it checks:
:mod:`~repro.reference.planner` (per-step heapq sharders),
:mod:`~repro.reference.engine` (per-lookup remap-table executor) and
:mod:`~repro.reference.serving` (per-request serving loop).
Production code never imports this package.
"""
