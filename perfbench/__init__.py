"""The repo's gating benchmark: six workloads, measured from outside.

Every layer is timed through its public calls and read through the
counters the program already returns; nothing under ``src/`` is
instrumented.  See ``perfbench/README.md``.
"""
