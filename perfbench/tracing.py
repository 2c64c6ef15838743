"""Span tracing for the traced run, installed from outside by attribute patching.

The benchmark wraps public calls of each layer, times every call while the
patch is in place, and restores the originals afterwards; nothing under
``src/`` knows about it.

* Per-run calls (scenario build, ``Simulator.run``, analysis, outcome
  snapshot, record and store calls) become *kept spans*: ``(id, name,
  start, end, parent)`` tuples held in memory and written out at the end.
* Per-message and per-event calls (``Network.send``, ``Node.deliver``,
  ``StableStore`` operations, the ``stop_when`` predicate) are timed the same
  way and nest like spans, so their time leaves their parent's self time,
  but they are only summed: one E1 pass makes millions of them.
* The hottest calls (``EventQueue.push``, ``TraceRecorder.record``) are only
  counted.

A call's self time is its duration minus the time its timed children cover.
A span's name is ``<layer>.<call>``; the layers are named after the
package's modules.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis import invariants
from repro.analysis.trace import TraceRecorder
from repro.harness import executors, runner
from repro.net.network import Network
from repro.results import record, store
from repro.results.smr_record import SmrRecord
from repro.sim.events import EventQueue
from repro.sim.lifecycle import Node
from repro.sim.simulator import Simulator
from repro.smr import runner as smr_runner
from repro.storage.stable import StableStore
from repro.workloads.registry import ScenarioRegistry

LAYERS = ("workloads", "sim", "net", "protocol", "storage", "analysis", "harness", "results")

_SMR_ANALYSIS = ("command_latencies", "learned_prefix_lengths", "replica_digests",
                 "check_log_consistency")


class Tracer:
    """Timed wrappers, what they measured, and the patches that installed them."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # Open calls, innermost last: [start, seconds covered by children, span id or -1].
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def timed(self, name: str, func: Callable, keep: bool = True) -> Callable:
        """Wrap ``func`` so each call is timed under ``name``; ``keep`` stores the span."""
        stack, spans, ids = self._stack, self.spans, self._ids
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, next(ids) if keep else -1]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    parent = next((open_[2] for open_ in reversed(stack) if open_[2] >= 0), -1)
                    spans.append((frame[2], name, frame[0], end, parent))

        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        """Wrap ``func`` so each call only bumps a counter."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``wrap(original)`` until :meth:`uninstall`."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, wrap(original))
        self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> None:
        data = {
            "spans": [
                {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                for span_id, name, start, end, parent in self.spans
            ],
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def _traced_run(tracer: Tracer, run: Callable) -> Callable:
    """``Simulator.run`` as a span, with its ``stop_when`` predicate timed inside it."""
    timed_run = tracer.timed("sim.run", run)
    counts = tracer.counts

    def wrapper(self, until=None, stop_when=None, max_events=None):
        if stop_when is not None:
            stop_when = tracer.timed("sim.stop_check", stop_when, keep=False)
        events = self.events_processed
        try:
            return timed_run(self, until, stop_when, max_events)
        finally:
            counts["sim.events"] += self.events_processed - events
            # Each simulator runs once on these paths, so its monitor totals
            # are this run's traffic.
            stats = self.network.monitor.stats
            counts["net.sent"] += stats.sent
            counts["net.delivered"] += stats.delivered
            counts["net.dropped"] += stats.dropped

    return wrapper


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""

    def span(name):
        return lambda func: tracer.timed(name, func)

    def hot(name):
        return lambda func: tracer.timed(name, func, keep=False)

    def count(name):
        return lambda func: tracer.counted(name, func)

    invariant_checks = [name for name in vars(invariants) if name.startswith("check_")]
    table = [
        (ScenarioRegistry, "create", span("workloads.build")),
        (Simulator, "run", lambda func: _traced_run(tracer, func)),
        (EventQueue, "push", count("sim.queue_pushes")),
        (Network, "send", hot("net.send")),
        (Node, "deliver", hot("protocol.deliver")),
        (StableStore, "put", hot("storage.op")),
        (StableStore, "get", hot("storage.op")),
        (StableStore, "update", hot("storage.op")),
        (TraceRecorder, "record", count("analysis.trace_events")),
        (runner, "compute_run_metrics", span("analysis.metrics")),
        (runner, "check_safety", span("analysis.safety")),
        *[(invariants, name, span("analysis.invariants")) for name in invariant_checks],
        (smr_runner, "check_session_entry_rule", span("analysis.invariants")),
        *[(smr_runner, name, span("analysis.smr_metrics")) for name in _SMR_ANALYSIS],
        (executors, "snapshot_outcome", span("harness.snapshot")),
        (executors, "snapshot_smr_outcome", span("harness.snapshot")),
        (record, "content_key_for_task", span("results.key")),
        (record, "record_for_task", span("results.encode")),
        (record.RunRecord, "to_json", span("results.encode")),
        (SmrRecord, "to_json", span("results.encode")),
        (store.JsonlStore, "put", span("results.put")),
        (store.JsonlStore, "flush", span("results.flush")),
        (store.JsonlStore, "get", span("results.get")),
        (store, "open_store", span("results.open")),
        (record.RunRecord, "to_outcome", span("results.decode")),
        (SmrRecord, "to_outcome", span("results.decode")),
    ]
    for owner, attr, wrap in table:
        tracer.patch(owner, attr, wrap)


def layer_metrics(
    tracers: Sequence[Tracer],
    runs_per_pass: int,
    traced_walls: Sequence[float],
    untraced_walls: Sequence[float],
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes (one tracer per pass).

    ``*_ms`` values are self time per run, averaged over every traced pass;
    counts come from the first pass (passes repeat exactly); shares divide a
    layer's self time by the traced wall time.
    """
    first = tracers[0]
    runs = runs_per_pass * len(tracers)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for tracer in tracers:
        self_s.update(tracer.self_s)
        total_s.update(tracer.total_s)
    wall = sum(traced_walls)

    def ms(name: str) -> float:
        return 1000.0 * self_s[name] / runs

    metrics = {
        "workloads.build_ms": ms("workloads.build"),
        "sim.run_ms": ms("sim.run"),
        "sim.events": first.counts["sim.events"],
        "sim.events_per_s": sum(t.counts["sim.events"] for t in tracers) / total_s["sim.run"],
        "sim.queue_pushes": first.counts["sim.queue_pushes"],
        "sim.stop_check_ms": ms("sim.stop_check"),
        "sim.stop_check_calls": first.calls["sim.stop_check"],
        "sim.stop_check_share": self_s["sim.stop_check"] / wall,
        "net.sent": first.counts["net.sent"],
        "net.delivered": first.counts["net.delivered"],
        "net.dropped": first.counts["net.dropped"],
        "net.send_ms": ms("net.send"),
        "protocol.deliver_ms": ms("protocol.deliver"),
        "storage.ops": first.calls["storage.op"],
        "storage.ms": ms("storage.op"),
        "analysis.trace_events": first.counts["analysis.trace_events"],
        "analysis.metrics_ms": ms("analysis.metrics"),
        "analysis.safety_ms": ms("analysis.safety"),
        "analysis.invariants_ms": ms("analysis.invariants"),
        "analysis.smr_metrics_ms": ms("analysis.smr_metrics"),
        "harness.snapshot_ms": ms("harness.snapshot"),
        "results.key_ms": ms("results.key"),
        "results.encode_ms": ms("results.encode"),
        "results.put_ms": ms("results.put"),
        "results.flush_ms": ms("results.flush"),
        "results.open_ms": ms("results.open"),
        "results.get_ms": ms("results.get"),
        "results.decode_ms": ms("results.decode"),
    }
    shares = {
        layer: sum(seconds for name, seconds in self_s.items() if name.split(".")[0] == layer)
        / wall
        for layer in LAYERS
    }
    for layer, share in shares.items():
        metrics[f"{layer}.share"] = share
    metrics["other.share"] = 1.0 - sum(shares.values())
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    return metrics
