"""Analysis: traces, metrics, invariants, statistics, and reporting."""
