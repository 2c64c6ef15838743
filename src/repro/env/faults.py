"""The fault kinds: one function each, built straight from its spec.

Every function here is a fault kind's builder, ``kind(config, params) ->
FaultPlan``, called with the run configuration and the checked params of a
:class:`~repro.env.spec.FaultSpec`.  The function body is the only place
that holds each parameter's default and its conversion from ``δ`` units,
and it runs the range checks.  The :func:`_fault_kind` decorator declares
the rest of the kind on the function: ``summary`` (its
``list-environments`` line), ``parameters`` (name -> JSON type, checked by
:func:`repro.env.registry.checked_faults` before the builder runs) and
``post_ts_crashes`` (whether the schedule steps outside the paper's
no-failures-after-``TS`` assumption, consulted when the plan is validated).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Optional, TypeVar

from repro.env.spec import is_integer, is_number
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import SimulationConfig

__all__ = [
    "churn_waves",
    "crash_before_stability",
    "crash_forever",
    "explicit_faults",
    "no_faults",
    "staggered_restarts",
]

Params = Mapping[str, Any]
_Builder = TypeVar("_Builder", bound=Callable[..., FaultPlan])


def _fault_kind(
    summary: str, parameters: Optional[Mapping[str, str]] = None, post_ts_crashes: bool = False
) -> Callable[[_Builder], _Builder]:
    def declare(build: _Builder) -> _Builder:
        build.summary = summary  # type: ignore[attr-defined]
        build.parameters = dict(parameters or {})  # type: ignore[attr-defined]
        build.post_ts_crashes = post_ts_crashes  # type: ignore[attr-defined]
        return build

    return declare


@_fault_kind("no crashes, no restarts")
def no_faults(config: "SimulationConfig", params: Params) -> FaultPlan:
    return FaultPlan()


@_fault_kind("a literal list of timestamped crash/restart events", {"events": "array"})
def explicit_faults(config: "SimulationConfig", params: Params) -> FaultPlan:
    """The ``events`` list, each ``{"time": t, "pid": p, "kind": "crash"|"restart"}``."""
    events = []
    for entry in params.get("events", []):
        # Checked, not coerced: a NaN time would break the event queue's order.
        if not (
            isinstance(entry, Mapping)
            and is_number(entry.get("time"))
            and is_integer(entry.get("pid"))
            and entry.get("kind") in ("crash", "restart")
        ):
            raise ConfigurationError(
                f"explicit fault event {entry!r} is malformed; expected "
                "{'time': finite number, 'pid': integer, 'kind': 'crash'|'restart'}"
            )
        events.append(
            FaultEvent(time=float(entry["time"]), pid=entry["pid"], kind=FaultKind(entry["kind"]))
        )
    return FaultPlan(events)


@_fault_kind(
    "random minority crashes (and optional recoveries) strictly before TS",
    {"max_faulty": "integer or null", "allow_recovery": "boolean"},
)
def crash_before_stability(config: "SimulationConfig", params: Params) -> FaultPlan:
    """Random crashes (and optional recoveries) strictly before ``ts``.

    At most ``max_faulty`` processes (null: one less than a majority) are
    ever crashed, so the generated plan always satisfies the model: crashes
    happen before ``ts`` and a majority of processes is up at ``ts``.  When
    ``allow_recovery`` is true, roughly half of the crashed processes are
    restarted before ``ts`` (exercising the restart-with-stable-storage
    path); the rest stay down forever, which the model permits as long as a
    majority is up.  The draws come from a stream of the run's seed.
    """
    n, ts = config.n, config.ts
    if ts <= 0:
        raise ConfigurationError("crash_before_stability needs ts > 0")
    rng = SeededRng(config.seed, label="chaos-faults")
    max_faulty = params.get("max_faulty")
    majority = n // 2 + 1
    limit = max_faulty if max_faulty is not None else max(0, n - majority)
    limit = min(limit, n - majority)
    plan = FaultPlan()
    if limit <= 0 or n < 2:
        return plan
    victims = rng.pick_subset(list(range(n)), size=limit)
    for pid in victims:
        crash_time = rng.uniform(0.05 * ts, 0.6 * ts)
        plan.crash(pid, crash_time)
        if params.get("allow_recovery", True) and rng.coin(0.5):
            restart_time = rng.uniform(min(crash_time + 0.01, 0.95 * ts), 0.95 * ts)
            plan.restart(pid, max(restart_time, crash_time + 0.01))
    return plan


@_fault_kind(
    "crash the given pids at one time and never restart them",
    {"pids": "array of pids", "time": "number"},
)
def crash_forever(config: "SimulationConfig", params: Params) -> FaultPlan:
    """Crash ``pids`` at ``time`` for good; validation checks a majority stays up."""
    if "pids" not in params or "time" not in params:
        raise ConfigurationError("'crash-forever' needs 'pids' and 'time'")
    plan = FaultPlan()
    for pid in params["pids"]:
        plan.crash(pid, float(params["time"]))
    return plan


@_fault_kind(
    "crash pids together, restart them one by one",
    {"pids": "array of pids", "crash_time": "number", "first_restart": "number",
     "spacing": "number"},
)
def staggered_restarts(config: "SimulationConfig", params: Params) -> FaultPlan:
    """Crash ``pids`` at ``crash_time`` and restart them one by one.

    Restarts happen at ``first_restart``, ``first_restart + spacing``, ... in
    the order given.
    """
    try:
        pids = params["pids"]
        crash_time = float(params["crash_time"])
        first_restart = float(params["first_restart"])
    except KeyError as error:
        raise ConfigurationError(f"'staggered-restarts' is missing parameter {error}") from error
    spacing = float(params.get("spacing", 0.0))
    if spacing < 0:
        raise ConfigurationError("spacing must be non-negative")
    plan = FaultPlan()
    for index, pid in enumerate(pids):
        plan.crash(pid, crash_time)
        plan.restart(pid, first_restart + index * spacing)
    return plan


def _churn_victims(config: "SimulationConfig", params: Params) -> List[int]:
    max_victims = config.n - config.majority
    if "victims" in params:
        victims = list(params["victims"])
    else:
        count = params.get("num_victims")
        count = count if count is not None else max_victims
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


@_fault_kind(
    "repeated post-TS crash/restart waves over a minority (majority stays up)",
    {"victims": "array of pids", "num_victims": "integer or null",
     "first_offset": "number", "up_time": "number", "down_time": "number",
     "waves": "integer", "stagger": "number", "pre_ts_crash_fraction": "number"},
    post_ts_crashes=True,
)
def churn_waves(config: "SimulationConfig", params: Params) -> FaultPlan:
    """Repeated post-``TS`` restart waves over a minority of victims.

    The victims are ``victims``, or the ``num_victims`` highest pids (null:
    as many as leave a majority up).  Each victim crashes once before
    stabilization (at ``pre_ts_crash_fraction * ts``) and is then churned
    through ``waves`` restart cycles after ``TS``: restart, stay up for
    ``up_time`` δ, crash again, stay down for ``down_time`` δ, restart, ...
    ending *up* after the final wave.  The first restart comes
    ``first_offset`` δ after ``TS``, and victims are staggered by ``stagger``
    δ so the waves ripple through the fleet instead of firing in lock-step.

    The post-``TS`` crashes step outside the paper's no-failures-after-``TS``
    assumption (hence ``post_ts_crashes``); the model's one non-negotiable
    invariant holds because at most a minority churns (a majority of
    processes — the non-victims — stays up throughout).
    """
    victims = _churn_victims(config, params)
    ts, delta = config.ts, config.params.delta
    first_offset = params.get("first_offset", 2.0)
    up_time = params.get("up_time", 1.0)
    down_time = params.get("down_time", 2.0)
    waves = params.get("waves", 3)
    stagger = params.get("stagger", 0.5)
    pre_ts_crash_fraction = params.get("pre_ts_crash_fraction", 0.4)
    if ts <= 0:
        raise ConfigurationError("churn_waves needs ts > 0 (victims crash before TS)")
    if waves < 1:
        raise ConfigurationError(f"churn_waves needs at least one wave, got {waves}")
    if up_time <= 0 or down_time <= 0:
        raise ConfigurationError("up_time and down_time must be positive (in delta units)")
    if first_offset < 0 or stagger < 0:
        raise ConfigurationError("first_offset and stagger must be non-negative")
    if not 0.0 < pre_ts_crash_fraction < 1.0:
        raise ConfigurationError("pre_ts_crash_fraction must be in (0, 1)")
    plan = FaultPlan()
    for index, pid in enumerate(victims):
        plan.crash(pid, pre_ts_crash_fraction * ts)
        when = ts + (first_offset + index * stagger) * delta
        for wave in range(waves):
            plan.restart(pid, when)
            if wave + 1 < waves:
                plan.crash(pid, when + up_time * delta)
                when += (up_time + down_time) * delta
    return plan
