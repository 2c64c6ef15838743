"""Run every workload in fresh processes, and compare two sets of results strictly.

From the root of a repository checkout::

    python3 perfbench/suite.py run --repeat 3 --seed 1 --out .perfbench/base.json
    python3 perfbench/suite.py compare .perfbench/base.json .perfbench/new.json

``run`` starts one ``run.py`` process per workload and repetition, so no
workload inherits another's heap, caches or CPU state, and reverses the
workload order on every other repetition so order effects cancel out.
``compare`` is strict: a workload or metric missing on either side fails the
comparison, as does an incorrect run or a median that worsens by more than
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

Results = Dict[str, List[dict]]  # workload -> one result object per repetition


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_suite(repeat: int, seed: int, seconds: int) -> Results:
    """Every workload ``repeat`` times, each in a fresh process, alternating order."""
    names = [workload["name"] for workload in load_spec()["workloads"]]
    results: Results = {name: [] for name in names}
    for index in range(repeat):
        for name in names if index % 2 == 0 else reversed(names):
            done = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
            )
            results[name].append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def compare(base: Results, new: Results) -> List[str]:
    """Every reason ``new`` fails against ``base`` (empty = it passes)."""
    spec = load_spec()
    problems = []
    for name in sorted(set(base) | set(new)):
        if not base.get(name) or not new.get(name):
            problems.append(f"{name}: missing on the {'base' if not base.get(name) else 'new'} side")
            continue
        for side, runs in (("base", base[name]), ("new", new[name])):
            if not all(run["correct"] for run in runs):
                problems.append(f"{name}: an incorrect run on the {side} side")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            try:
                old = statistics.median(run["metrics"][key]["value"] for run in base[name])
                now = statistics.median(run["metrics"][key]["value"] for run in new[name])
            except KeyError:
                problems.append(f"{name}: metric {key} missing on one side")
                continue
            worse = (now - old) / old if metric["better"] == "lower" else (old - now) / old
            if worse > metric["bound"]:
                problems.append(f"{name}: {key} {old:.4g} -> {now:.4g} {metric['unit']} "
                                f"({worse:+.1%} worse, bound {metric['bound']:.0%})")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload in fresh processes")
    run.add_argument("--repeat", type=int, default=3)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    run.add_argument("--out", required=True)
    check = commands.add_parser("compare", help="fail if NEW regresses against BASE")
    check.add_argument("base")
    check.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "run":
        results = run_suite(args.repeat, args.seed, args.seconds)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        return 0
    with open(args.base, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    problems = compare(base, new)
    for problem in problems:
        print(problem)
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
