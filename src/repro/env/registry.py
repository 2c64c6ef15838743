"""The environment primitives: adversary kinds and fault kinds.

Two literal tables are the whole catalogue:

* :data:`ADVERSARY_KINDS` maps an adversary kind to its
  :class:`AdversaryPrimitive` (builder, summary, accepted parameters, and
  whether it wraps an ``inner`` adversary);
* :data:`FAULT_KINDS` maps a fault-schedule kind to its
  :class:`FaultPrimitive`.

An :class:`~repro.env.spec.EnvironmentSpec` is composed from these kinds,
either inline (``repro run --env JSON``) or written literally by a
workload: the named environments are the workloads of
:data:`~repro.workloads.registry.WORKLOADS`.  A new adversary or fault kind
is one table entry plus its builder.  :func:`adversary_primitive` and
:func:`fault_primitive` look entries up; :func:`checked_adversary` and
:func:`checked_faults` are the one per-node check that both building and
validating a spec run.

Parameter conventions shared by every primitive:

* quantities named ``*_delta`` are multiples of the run's ``δ`` (resolved
  against the :class:`~repro.sim.simulator.SimulationConfig` at build time);
* probabilities are plain floats in ``[0, 1]``;
* randomized primitives take an ``rng_label`` naming their RNG stream, so a
  spec replayed with the same seed consumes identical randomness;
* unknown parameters are rejected with an error listing what the primitive
  accepts (typos fail loudly, not silently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.env.spec import AdversarySpec, FaultSpec, PartitionDecl
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.schedules import (
    churn_waves,
    crash_before_stability,
    crash_forever,
    staggered_restarts,
)
from repro.net.adversary import (
    Adversary,
    AsymmetricLinkAdversary,
    BenignAdversary,
    DeferringPartitionAdversary,
    DropAllAdversary,
    GrayPartitionAdversary,
    PartitionAdversary,
    RandomChaosAdversary,
    WorstCaseDelayAdversary,
)
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import SimulationConfig

__all__ = [
    "ADVERSARY_KINDS",
    "AdversaryPrimitive",
    "FAULT_KINDS",
    "FaultPrimitive",
    "adversary_primitive",
    "checked_adversary",
    "checked_faults",
    "fault_primitive",
]

AdversaryBuilder = Callable[
    ["SimulationConfig", SeededRng, Mapping[str, Any], Optional[Adversary]], Adversary
]
FaultBuilder = Callable[["SimulationConfig", Mapping[str, Any]], FaultPlan]


@dataclass(frozen=True)
class AdversaryPrimitive:
    """One adversary kind: builder plus parameter schema."""

    builder: AdversaryBuilder
    summary: str = ""
    parameters: Tuple[str, ...] = ()
    takes_inner: bool = False


@dataclass(frozen=True)
class FaultPrimitive:
    """One fault-schedule kind: builder plus parameter schema."""

    builder: FaultBuilder
    summary: str = ""
    parameters: Tuple[str, ...] = ()
    post_ts_crashes: bool = False


_Entry = TypeVar("_Entry")


def _lookup(table: Mapping[str, _Entry], key: str, what: str) -> _Entry:
    entry = table.get(key)
    if entry is None:
        raise ConfigurationError(f"unknown {what} {key!r}; available: {', '.join(sorted(table))}")
    return entry


def adversary_primitive(kind: str) -> AdversaryPrimitive:
    return _lookup(ADVERSARY_KINDS, kind, "adversary kind")


def fault_primitive(kind: str) -> FaultPrimitive:
    return _lookup(FAULT_KINDS, kind, "fault kind")


def _check_params(kind: str, params: Mapping[str, Any], accepted: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"{what} {kind!r} does not accept parameters {unknown}; "
            f"accepted: {', '.join(sorted(accepted)) or '(none)'}"
        )


def checked_adversary(spec: AdversarySpec) -> AdversaryPrimitive:
    """The primitive for one adversary node, once the node is checked against it.

    The kind must exist, every parameter must be one the primitive accepts,
    and only a wrapping kind may have an ``inner``.  The ``inner`` chain
    itself is not walked: each node is checked on its own.
    """
    primitive = adversary_primitive(spec.kind)
    _check_params(spec.kind, spec.params, primitive.parameters, "adversary")
    if spec.inner is not None and not primitive.takes_inner:
        raise ConfigurationError(f"adversary kind {spec.kind!r} does not wrap an inner adversary")
    return primitive


def checked_faults(spec: FaultSpec) -> FaultPrimitive:
    """The primitive for a fault spec, once its kind and parameters are checked."""
    primitive = fault_primitive(spec.kind)
    _check_params(spec.kind, spec.params, primitive.parameters, "fault schedule")
    return primitive


# ---------------------------------------------------------------------------
# Adversary builders.  Each receives the run configuration (for n, ts, δ and
# the seed), the network RNG stream, the validated params, and the built
# inner adversary (for wrapping kinds).
# ---------------------------------------------------------------------------


def _delta(config: "SimulationConfig") -> float:
    return config.params.delta


def _build_benign(config, rng, params, inner):
    return BenignAdversary(
        delta=_delta(config),
        min_delay_fraction=params.get("min_delay_fraction", 0.1),
    )


def _build_drop_all(config, rng, params, inner):
    return DropAllAdversary()


def _build_random_chaos(config, rng, params, inner):
    delta = _delta(config)
    return RandomChaosAdversary(
        ts=config.ts,
        delta=delta,
        drop_probability=params.get("drop_probability", 0.5),
        defer_probability=params.get("defer_probability", 0.1),
        max_defer=params.get("max_defer_delta", 10.0) * delta,
        max_delay_factor=params.get("max_delay_factor", 5.0),
        duplicate_prob=params.get("duplicate_prob", 0.05),
    )


def _partition_decl(params: Mapping[str, Any]) -> PartitionDecl:
    return PartitionDecl.from_dict(params.get("partition", {"mode": "minority"}))


def _build_partition(config, rng, params, inner):
    delta = _delta(config)
    spec = _partition_decl(params).materialize(config.n, rng)
    kwargs: Dict[str, Any] = {}
    if "intra_delay_max_delta" in params:
        kwargs["intra_delay_max"] = params["intra_delay_max_delta"] * delta
    if params.get("leak_past_ts"):
        kwargs["leak_max_delay"] = config.ts + 2.0 * delta
    elif "leak_max_delay_delta" in params:
        kwargs["leak_max_delay"] = params["leak_max_delay_delta"] * delta
    return PartitionAdversary(
        spec=spec,
        delta=delta,
        leak_probability=params.get("leak_probability", 0.0),
        **kwargs,
    )


def _build_gray_partition(config, rng, params, inner):
    delta = _delta(config)
    spec = _partition_decl(params).materialize(config.n, rng)
    kwargs: Dict[str, Any] = {}
    if "intra_delay_max_delta" in params:
        kwargs["intra_delay_max"] = params["intra_delay_max_delta"] * delta
    if "leak_max_delay_delta" in params:
        kwargs["leak_max_delay"] = params["leak_max_delay_delta"] * delta
    return GrayPartitionAdversary(
        spec=spec,
        ts=config.ts,
        delta=delta,
        heal_start=params.get("heal_start", 0.4),
        start_drop=params.get("start_drop", 1.0),
        end_drop=params.get("end_drop", 0.0),
        **kwargs,
    )


def _check_pid(what: str, pid: int, n: int) -> None:
    if not 0 <= pid < n:
        raise ConfigurationError(f"{what} must be a pid in [0, {n}), got {pid}")


def _build_asymmetric_link(config, rng, params, inner):
    hub, links = params.get("hub"), params.get("links")
    if hub is not None:
        _check_pid("hub", hub, config.n)
    for link in links or ():
        for pid in link:
            _check_pid("link endpoint", pid, config.n)
    return AsymmetricLinkAdversary(
        delta=_delta(config),
        hub=hub,
        direction=params.get("direction", "both"),
        links=[tuple(link) for link in links] if links is not None else None,
        slow_factor=params.get("slow_factor", 4.0),
        fast_min_fraction=params.get("fast_min_fraction", 0.1),
        slow_post_ts=params.get("slow_post_ts", True),
    )


def _build_worst_case_delay(config, rng, params, inner):
    return WorstCaseDelayAdversary(
        delta=_delta(config),
        pre_ts=inner,
        jitter=params.get("jitter", 0.01),
    )


def _build_deferring_partition(config, rng, params, inner):
    delta = _delta(config)
    # The class itself validates that `inner` is partition-shaped (exposes a
    # PartitionSpec), so hard and gray partitions both compose.
    return DeferringPartitionAdversary(
        inner=inner,
        ts=config.ts,
        delta=delta,
        defer_probability=params.get("defer_probability", 0.25),
        max_defer=params.get("max_defer_delta", 3.0) * delta,
        duplicate_prob=params.get("duplicate_prob", 0.1),
    )


# ---------------------------------------------------------------------------
# Fault-schedule builders.
# ---------------------------------------------------------------------------


def _build_no_faults(config, params):
    return FaultPlan()


def _build_explicit_faults(config, params):
    events = []
    for entry in params.get("events", []):
        try:
            events.append(
                FaultEvent(
                    time=float(entry["time"]),
                    pid=int(entry["pid"]),
                    kind=FaultKind(entry["kind"]),
                )
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"explicit fault event {entry!r} is malformed: {error}; "
                "expected {'time': float, 'pid': int, 'kind': 'crash'|'restart'}"
            ) from error
    return FaultPlan(events)


def _build_random_before_ts(config, params):
    rng = SeededRng(config.seed, label=params.get("rng_label", "chaos-faults"))
    return crash_before_stability(
        config.n,
        config.ts,
        rng,
        max_faulty=params.get("max_faulty"),
        allow_recovery=params.get("allow_recovery", True),
    )


def _build_crash_forever(config, params):
    if "pids" not in params or "time" not in params:
        raise ConfigurationError("'crash-forever' needs 'pids' and 'time'")
    return crash_forever([int(pid) for pid in params["pids"]], float(params["time"]))


def _build_staggered_restarts(config, params):
    try:
        return staggered_restarts(
            [int(pid) for pid in params["pids"]],
            crash_time=float(params["crash_time"]),
            first_restart=float(params["first_restart"]),
            spacing=float(params.get("spacing", 0.0)),
        )
    except KeyError as error:
        raise ConfigurationError(f"'staggered-restarts' is missing parameter {error}") from error


def _churn_victims(config: "SimulationConfig", params: Mapping[str, Any]) -> List[int]:
    max_victims = config.n - config.majority
    if "victims" in params:
        victims = [int(pid) for pid in params["victims"]]
    else:
        count = params.get("num_victims")
        count = int(count) if count is not None else max_victims
        victims = list(range(config.n - count, config.n)) if count > 0 else []
    if len(victims) > max_victims:
        raise ConfigurationError(
            f"churn over {len(victims)} victims of n={config.n} would take down a "
            f"majority; at most {max_victims} processes may churn"
        )
    if not victims:
        raise ConfigurationError(
            f"churn needs at least one victim (n={config.n} leaves room for {max_victims})"
        )
    return victims


def _build_churn_waves(config, params):
    victims = _churn_victims(config, params)
    return churn_waves(
        victims,
        ts=config.ts,
        delta=config.params.delta,
        first_offset=params.get("first_offset", 2.0),
        up_time=params.get("up_time", 1.0),
        down_time=params.get("down_time", 2.0),
        waves=params.get("waves", 3),
        stagger=params.get("stagger", 0.5),
        pre_ts_crash_fraction=params.get("pre_ts_crash_fraction", 0.4),
    )


# ---------------------------------------------------------------------------
# The catalogue.
# ---------------------------------------------------------------------------

ADVERSARY_KINDS: Dict[str, AdversaryPrimitive] = {
    "benign": AdversaryPrimitive(
        _build_benign,
        "prompt delivery on every link, even before TS",
        ("min_delay_fraction",),
    ),
    "drop-all": AdversaryPrimitive(_build_drop_all, "every pre-TS message is lost"),
    "random-chaos": AdversaryPrimitive(
        _build_random_chaos,
        "independent random loss/delay/deferral/duplication per message",
        ("drop_probability", "defer_probability", "max_defer_delta",
         "max_delay_factor", "duplicate_prob"),
    ),
    "partition": AdversaryPrimitive(
        _build_partition,
        "hard partition: cross-group messages dropped (optionally leaking)",
        ("partition", "intra_delay_max_delta", "leak_probability",
         "leak_max_delay_delta", "leak_past_ts"),
    ),
    "gray-partition": AdversaryPrimitive(
        _build_gray_partition,
        "partial partition whose cross-group drop rate heals gradually before TS",
        ("partition", "heal_start", "start_drop", "end_drop",
         "intra_delay_max_delta", "leak_max_delay_delta"),
    ),
    "asymmetric-link": AdversaryPrimitive(
        _build_asymmetric_link,
        "designated slow links (to/from a hub) crawl; all other links are prompt",
        ("hub", "direction", "links", "slow_factor", "fast_min_fraction", "slow_post_ts"),
    ),
    "worst-case-delay": AdversaryPrimitive(
        _build_worst_case_delay,
        "post-TS deliveries stretched to (almost) the full delta; wraps a pre-TS adversary",
        ("jitter",),
        takes_inner=True,
    ),
    "deferring-partition": AdversaryPrimitive(
        _build_deferring_partition,
        "partition whose cross-group leaks surface only after TS; wraps any "
        "partition-shaped adversary",
        ("defer_probability", "max_defer_delta", "duplicate_prob"),
        takes_inner=True,
    ),
}

FAULT_KINDS: Dict[str, FaultPrimitive] = {
    "none": FaultPrimitive(_build_no_faults, "no crashes, no restarts"),
    "explicit": FaultPrimitive(
        _build_explicit_faults,
        "a literal list of timestamped crash/restart events",
        ("events",),
    ),
    "random-before-ts": FaultPrimitive(
        _build_random_before_ts,
        "random minority crashes (and optional recoveries) strictly before TS",
        ("max_faulty", "allow_recovery", "rng_label"),
    ),
    "crash-forever": FaultPrimitive(
        _build_crash_forever,
        "crash the given pids at one time and never restart them",
        ("pids", "time"),
    ),
    "staggered-restarts": FaultPrimitive(
        _build_staggered_restarts,
        "crash pids together, restart them one by one",
        ("pids", "crash_time", "first_restart", "spacing"),
    ),
    "churn-waves": FaultPrimitive(
        _build_churn_waves,
        "repeated post-TS crash/restart waves over a minority (majority stays up)",
        ("victims", "num_victims", "first_offset", "up_time", "down_time",
         "waves", "stagger", "pre_ts_crash_fraction"),
        post_ts_crashes=True,
    ),
}
