"""The correctness gate: outcome digests, run checks and the golden digests.

A run's *digest* covers every field of its condensed outcome
(:class:`~repro.consensus.values.RunOutcome` or
:class:`~repro.smr.outcome.SmrOutcome`) except wall-clock telemetry:
decisions, lags, message counts, event counts, command records and replica
digests.  Simulations are seeded, so a digest only changes when behaviour
does.  ``golden.json`` holds the per-run digests of the default and the
held-out seed; any other seed is still checked for determinism (every pass
must repeat the first) and for the run checks below.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def _is_telemetry(key: str) -> bool:
    """Wall-clock fields an outcome may carry; they differ on every run."""
    return key.startswith("wall") or key.endswith(("_per_s", "_per_sec"))


def canonical(value: Any) -> Any:
    """Plain, JSON-ready form of an outcome: dataclasses become dicts, tuples lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def outcome_digest(outcome: Any) -> str:
    """SHA-256 (first 16 hex digits) of the outcome, wall-clock telemetry excluded."""
    data = canonical(outcome)
    data["extra"] = {key: item for key, item in data.get("extra", {}).items()
                     if not _is_telemetry(key)}
    data["kind"] = type(outcome).__name__
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def outcome_problems(outcome: Any) -> List[str]:
    """Why a finished run does not count as a success (empty when it does)."""
    problems = []
    if hasattr(outcome, "unlearned_command_ids"):
        unlearned = outcome.unlearned_command_ids()
        if unlearned:
            problems.append(f"{len(unlearned)} commands never learned everywhere")
        if not outcome.replicas_agree:
            problems.append("replica state-machine digests disagree")
    else:
        if outcome.undecided_pids:
            problems.append(f"expected deciders undecided: {outcome.undecided_pids}")
        if outcome.extra.get("safety_valid") is False:
            problems.append("safety check failed")
    return problems


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_digests(workload: str, seed: int) -> Optional[List[str]]:
    """The recorded per-run digests of one workload and seed, if any."""
    return load_golden()["digests"].get(workload, {}).get(str(seed))


def record_golden() -> None:
    """Rewrite golden.json from one pass per workload on the two recorded seeds.

    Only for a change that is meant to alter behaviour (or the workloads);
    run from the repository root as ``PYTHONPATH=src python3 -m perfbench.gate``.
    """
    import tempfile

    from perfbench.workloads import WORKLOADS

    golden = load_golden()
    seeds = (golden["default_seed"], golden["held_out_seed"])
    golden["digests"] = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(GOLDEN_PATH)) as scratch:
        for name, workload in WORKLOADS.items():
            golden["digests"][name] = {}
            for seed in seeds:
                result = workload.run_pass(workload.plan(seed), scratch)
                if None in result.digests:
                    raise SystemExit(f"{name} seed {seed}: {result.errors[:3]}")
                golden["digests"][name][str(seed)] = result.digests
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    record_golden()
