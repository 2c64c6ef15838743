"""The repository benchmark: campaign-shaped workloads timed end to end.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints its metrics as the last line
of standard output.  See ``perfbench/README.md`` for the workloads, the
metrics and the layer map.
"""
