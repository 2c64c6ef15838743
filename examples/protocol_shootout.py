#!/usr/bin/env python3
"""Scenario: side-by-side protocol comparison on one hostile workload.

Runs all registered protocols over the *same* sequence of
pre-stabilization chaos workloads — declared once as an
:class:`ExperimentSpec` over the ``partitioned-chaos`` registry workload —
and prints a small table of post-``TS`` decision lags and message counts.
This is a scripted, smaller sibling of experiment E8.

Run with::

    python examples/protocol_shootout.py [--jobs N]

``--jobs 4`` fans the (protocol, seed) runs out over four worker
processes; the results are identical to a serial run because every
simulation is seeded and deterministic.
"""

import argparse

from repro import (
    PROTOCOLS,
    ExperimentSpec,
    TimingParams,
    lag_delta,
    run_experiment,
)
from repro.core.timing import decision_bound
from repro.harness.tables import render_table

N = 9
SEEDS = (11, 12, 13)
PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    args = parser.parse_args()

    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=tuple(sorted(PROTOCOLS)),
        seeds=SEEDS,
        base={"n": N, "params": PARAMS, "ts": 10.0},
    )
    results = run_experiment(spec, jobs=args.jobs)

    def fmt(value):
        return f"{value:.2f}" if value is not None else "undecided"

    rows = []
    for (protocol,), subset in results.group_by("protocol").items():
        unsafe = [row for row in subset if not row.outcome.extra["safety_valid"]]
        if unsafe:
            raise AssertionError(f"{protocol} violated safety")
        rows.append(
            [
                protocol,
                fmt(subset.min(lag_delta)),
                fmt(subset.max(lag_delta)),
                f"{int(subset.total(lambda row: row.outcome.messages_sent)) // len(subset)}",
            ]
        )

    print(f"n={N}, {len(SEEDS)} seeds, partitioned chaos before TS, delta=1, "
          f"jobs={args.jobs}")
    print(f"Modified Paxos analytic bound: {decision_bound(PARAMS):.1f} delta")
    print()
    print(
        render_table(
            ["protocol", "best lag (delta)", "worst lag (delta)", "avg messages"], rows
        )
    )
    print()
    print(
        "Note: under this generic workload even the baselines can be quick — their O(N*delta) "
        "behaviour needs their specific worst cases (see experiments E2 and E3, or "
        "examples/replicated_lock_service.py)."
    )


if __name__ == "__main__":
    main()
