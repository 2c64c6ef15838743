"""Run one benchmark workload and print its metrics.

From the root of a repository checkout::

    python3 perfbench/run.py --workload e1-chaos-scaling --seed 1 --seconds 15 --trace 0

The workload runs in this fresh process.  Passes over its seeded plan repeat
until ``--seconds`` have gone by (whole passes only, at least three), after a
garbage collection and a short settle; each run counts with its median
over the passes, at the reference speed measured next to it.  Every run is
checked by the correctness gate (``gate.py``).  The last line of standard
output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  The traced run alternates untraced and traced passes,
so the tracing overhead is measured, and writes its spans under
``.perfbench/``.  A checkout without the package sources fails before
measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7
MIN_PASSES = 3
SETTLE_S = 0.5


def _import_package() -> None:
    """Put this checkout's sources first on the path; refuse to run without them."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no package sources under {SRC}; run from a checkout")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def declared_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def settle() -> None:
    """Collect garbage, then spin the CPU back up to speed before timing."""
    from perfbench.workloads import spin

    gc.collect()
    spin(SETTLE_S)


def setup_samples(workload: str, seed: int, count: int = SETUP_SAMPLES) -> List[float]:
    """CPU seconds ``count`` fresh processes spend on interpreter start, imports,
    registries, store open and the warm-up run, each at the reference speed
    the process measured right after."""
    samples = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_passes(workload: Any, plan: Any, scratch: str, seconds: float) -> List[Any]:
    """Whole passes over ``plan`` until ``seconds`` have gone by (at least three)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(plan, scratch))
    return passes


def tally(passes: Sequence[Any], golden: Optional[List[str]]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, error messages) over every run of every pass.

    A run fails when it raised, failed a run check, differs from the same
    run in the first pass, or differs from its golden digest; a resumed run
    fails when it differs from the run it was stored from.
    """
    reference = passes[0].digests
    attempted = failed = 0
    errors: List[str] = []
    if golden is not None and len(golden) != len(reference):
        errors.append(f"plan has {len(reference)} runs, golden digests {len(golden)}")
        golden = [None] * len(reference)
    for result in passes:
        errors.extend(result.errors)
        for index, digest in enumerate(result.digests):
            attempted += 1
            expected = golden[index] if golden is not None else reference[index]
            if digest is None or digest != reference[index] or digest != expected:
                failed += 1
                if digest is not None and digest != expected:
                    errors.append(f"run {index}: digest {digest} != golden {expected}")
        for index, digest in enumerate(result.resume_digests):
            attempted += 1
            if digest is None or digest != result.digests[index]:
                failed += 1
    return attempted, failed, errors


def band_mean(values: Sequence[float], low: float, high: float) -> float:
    """Mean of ``values`` between their ``low`` and ``high`` quantiles.

    Each sorted value covers an equal slice of [0, 1] and weighs by how much
    of [low, high] its slice covers.  Unlike a single order statistic, the
    band moves smoothly when one run crosses a gap between run sizes; on
    campaign-resume the 90th percentile sat right below a 40% jump to the
    heaviest runs.
    """
    ordered = sorted(values)
    count = len(ordered)
    total = 0.0
    for index, value in enumerate(ordered):
        overlap = min(high, (index + 1) / count) - max(low, index / count)
        if overlap > 0:
            total += value * overlap
    return total / (high - low)


def end_to_end(passes: Sequence[Any], setup: Sequence[float]) -> Dict[str, float]:
    """Each run's time is its median over the passes, so one disturbed pass
    does not move it.  (The fastest pass picked the samples the speed factor
    over-corrected, and spread more.)  Throughput is runs over the sum of
    those times."""
    run_ms = [1000.0 * statistics.median(times) for times in zip(*(r.run_s for r in passes))]
    return {
        "setup_s": statistics.median(setup),
        "runs_per_cpu_s": 1000.0 * len(run_ms) / sum(run_ms),
        "run_cpu_ms_p25_75": band_mean(run_ms, 0.25, 0.75),
        "run_cpu_ms_p85_95": band_mean(run_ms, 0.85, 0.95),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload: Any, plan: Any, scratch: str, seconds: float,
           spans_path: str) -> Tuple[List[Any], Dict[str, float]]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones.

    Neither samples the reference speed between runs, so the kernel's time
    is not in the shares or the overhead.
    """
    from perfbench.tracing import Tracer, install_layers, layer_metrics

    untraced, passes, tracers = [], [], []
    untraced_walls, traced_walls = [], []  # spans are wall-clock, so shares are too
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        untraced.append(workload.run_pass(plan, scratch, math.inf))
        untraced_walls.append(time.perf_counter() - began)
        settle()
        tracer = Tracer()
        install_layers(tracer)
        began = time.perf_counter()
        try:
            passes.append(workload.run_pass(plan, scratch, math.inf))
        finally:
            traced_walls.append(time.perf_counter() - began)
            tracer.uninstall()
        tracers.append(tracer)
        settle()
    tracers[0].write(spans_path)
    metrics = layer_metrics(tracers, workload.runs(plan), traced_walls, untraced_walls)
    metrics["results.bytes"] = passes[0].store_bytes
    resume_s = sum(result.resume_s for result in untraced)
    metrics["results.resume_runs_per_cpu_s"] = (
        sum(len(result.resume_digests) for result in untraced) / resume_s if resume_s else 0.0
    )
    return untraced + passes, metrics


def summary(workload: str, seed: int, passes: Sequence[Any], attempted: int,
            failed: int) -> str:
    """The workload-specific figures users read beside the JSON metrics."""
    cpu_s = sum(sum(result.run_s) for result in passes)
    resume_s = sum(result.resume_s for result in passes)
    lags = [r.lag_max_delta for r in passes if r.lag_max_delta is not None]
    latencies = [r.command_latency_max_delta for r in passes
                 if r.command_latency_max_delta is not None]
    parts = [
        f"workload={workload}", f"seed={seed}", f"passes={len(passes)}",
        f"runs={sum(len(r.run_s) for r in passes)}",
        f"error_rate={failed / attempted:.4f}",
        f"speed={statistics.median(r.speed for r in passes):.3f}",
    ]
    if any(r.commands for r in passes):
        parts.append(f"commands_per_cpu_s={sum(r.commands for r in passes) / cpu_s:.1f}")
    if resume_s:
        resumed = sum(len(r.resume_digests) for r in passes)
        parts.append(f"resume_runs_per_cpu_s={resumed / resume_s:.1f}")
    if lags:
        parts.append(f"decision_lag_max_delta={max(lags):.4f}")
    if latencies:
        parts.append(f"command_latency_max_delta={max(latencies):.4f}")
    return " ".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, warm up, print the set-up time and exit")
    args = parser.parse_args(argv)

    _import_package()
    from perfbench import gate
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    try:
        workload.warm_up(scratch)
        if args.setup_probe:
            from perfbench.workloads import speed_factor

            setup_s = time.process_time()
            print(json.dumps({"setup_s": setup_s * speed_factor()}))
            return 0
        plan = workload.plan(args.seed)
        golden = gate.golden_digests(workload.name, args.seed)
        if args.trace:
            settle()
            spans_path = os.path.join(OUT, f"spans-{workload.name}-s{args.seed}.json")
            passes, metrics = traced(workload, plan, scratch, args.seconds, spans_path)
        else:
            setup = setup_samples(workload.name, args.seed)
            settle()
            passes = run_passes(workload, plan, scratch, args.seconds)
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares "
                         f"{sorted(units)}")
    attempted, failed, errors = tally(passes, golden)
    for message in errors[:10]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(summary(workload.name, args.seed, passes, attempted, failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
