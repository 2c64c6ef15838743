"""Schema-versioned run records: the canonical serialized form of a run.

A :class:`RunRecord` freezes everything one executed run produced — the
condensed :class:`~repro.consensus.values.RunOutcome`, the resolved
environment, the experiment tags, and a small metrics digest — as plain,
JSON-representable data under an explicit schema version.  Records
round-trip exactly (``RunRecord.from_dict(record.to_dict()) == record``)
and carry a *content key* naming the run's identity::

    <protocol>/<workload>/<env-hash>/n<n>-ts<ts>-d<delta>-s<seed>

The readable components come straight from the run configuration; the
``env-hash`` is a SHA-256 digest of the task's canonical fingerprint (its
normalized workload and protocol keyword arguments, resolved environment
included), so two tasks share a key exactly when they would execute the
same run.  Keys are derivable from a :class:`~repro.harness.executors.RunTask`
*before* execution (:func:`content_key_for_task`), which is what lets a
store answer "has this run already happened?" and makes campaigns
resumable.

Simulations are seeded and deterministic, so a record is a faithful
substitute for re-running its task: :meth:`RunRecord.to_outcome` rebuilds
the exact :class:`RunOutcome` the executor would have produced, integer
mapping keys and tuple-valued extras restored by dedicated codecs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.consensus.values import DecisionOutcome, RunOutcome, json_safe
from repro.errors import ResultSchemaError

__all__ = [
    "SCHEMA_VERSION",
    "RecordBase",
    "RunRecord",
    "content_key_for_task",
    "decode_record_dict",
    "decode_record_json",
    "record_for_task",
    "task_fingerprint",
]

SCHEMA_VERSION = 1

# ``extra`` keys whose values need a codec to survive JSON (tuples inside
# lists, integer mapping keys).  Everything else must already be plain data —
# RunOutcome.validate_extra enforces that when a record is built.
_EXTRA_CODEC_KEYS = ("restart_events", "restart_lags")


def _fingerprint_value(value: Any, where: str) -> Any:
    """Normalize one task argument into canonical, hashable plain data.

    The simulation-level value objects that legally appear in workload
    kwargs — :class:`~repro.params.TimingParams` and
    :class:`~repro.env.spec.EnvironmentSpec` — are expanded into tagged
    dicts; everything else must be JSON-plain or the task has no stable
    identity and is rejected.
    """
    from repro.env.spec import EnvironmentSpec
    from repro.params import TimingParams

    if isinstance(value, TimingParams):
        return {
            "__kind__": "TimingParams",
            "delta": value.delta,
            "rho": value.rho,
            "epsilon": value.epsilon,
            "session_timeout_factor": value.session_timeout_factor,
        }
    if isinstance(value, EnvironmentSpec):
        return {"__kind__": "EnvironmentSpec", **value.to_dict()}
    if isinstance(value, (list, tuple)):
        return [_fingerprint_value(item, f"{where}[{index}]") for index, item in enumerate(value)]
    if isinstance(value, Mapping):
        plain: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ResultSchemaError(
                    f"{where}: mapping key {key!r} must be a string for a stable content key"
                )
            plain[key] = _fingerprint_value(item, f"{where}[{key!r}]")
        return plain
    try:
        return json_safe(value, where)
    except ResultSchemaError as error:
        raise ResultSchemaError(
            f"cannot fingerprint task argument: {error}; tasks with unserializable "
            "arguments have no stable content key and cannot be stored"
        ) from error


def task_fingerprint(task: Any) -> Dict[str, Any]:
    """The canonical identity of a declarative task (run or SMR).

    For a :class:`~repro.harness.executors.RunTask` this covers everything
    that determines the run's outcome: protocol, workload, both kwarg
    mappings (normalized), and ``run_until_decided`` — stopping at the first
    decision versus running to the horizon changes durations and message
    counts, so the two must never share a cache entry.  ``n``, ``ts``, and
    ``seed`` are left out of the hashed kwargs — they appear readably in the
    content key itself, so every run of one scenario family shares an
    ``env-hash``.  The *enforcement* flags (``enforce_safety``,
    ``enforce_invariants``, ``enforce_consistency``) are deliberately
    excluded — they change what failures raise, never what a successful run
    produces.

    For an :class:`~repro.harness.executors.SmrTask` (``task.kind ==
    "smr"``) the fingerprint instead covers the command schedule and the
    state-machine name — the two extra axes of a multi-decree run's
    identity.
    """
    kwargs = {
        key: value
        for key, value in dict(task.workload_kwargs).items()
        if key not in ("n", "ts", "seed")
    }
    if task.kind == "smr":
        return {
            "schema": SCHEMA_VERSION,
            "kind": "smr",
            "protocol": task.protocol,
            "workload": task.workload,
            "workload_kwargs": _fingerprint_value(kwargs, "workload_kwargs"),
            "schedule": _fingerprint_value(task.schedule.to_dict(), "schedule"),
            "machine": task.machine,
        }
    return {
        "schema": SCHEMA_VERSION,
        "protocol": task.protocol,
        "workload": task.workload,
        "workload_kwargs": _fingerprint_value(kwargs, "workload_kwargs"),
        "protocol_kwargs": _fingerprint_value(dict(task.protocol_kwargs), "protocol_kwargs"),
        "run_until_decided": bool(task.run_until_decided),
    }


def _env_hash(fingerprint: Mapping[str, Any]) -> str:
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def content_key_for_task(task: Any) -> str:
    """The stable content key of one declarative run task.

    Pure data in, pure string out: the same task yields the same key in any
    process on any platform (SHA-256 over canonical JSON; no ``hash()``).
    """
    fingerprint = task_fingerprint(task)
    kwargs = dict(task.workload_kwargs)
    params = kwargs.get("params")
    delta = getattr(params, "delta", None)
    ts = kwargs.get("ts")

    def exact(value: Any) -> str:
        # repr round-trips floats exactly ('%g' would truncate to 6 significant
        # digits and collide e.g. ts=123456.7 with ts=123456.8); ints render
        # without a trailing '.0'.
        return repr(value) if isinstance(value, (int, float)) else "auto"

    return (
        f"{task.protocol}/{task.workload}/{_env_hash(fingerprint)}/"
        f"n{kwargs.get('n', '?')}-ts{exact(ts)}-d{exact(delta)}-s{kwargs.get('seed', 0)}"
    )


def _round_trippable(value: Any) -> bool:
    """Whether JSON reproduces ``value`` exactly (tuples and sets do not)."""
    try:
        return json_safe(value) == value
    except ResultSchemaError:
        return False


def _consensus_value_offenders(outcome: RunOutcome) -> list:
    """Decision/proposal values JSON cannot reproduce exactly, by owner."""
    offenders = []
    for decision in outcome.decisions:
        if not _round_trippable(decision.value):
            offenders.append(f"decision value of p{decision.pid} ({decision.value!r})")
    for pid, value in outcome.proposals.items():
        if not _round_trippable(value):
            offenders.append(f"proposal of p{pid} ({value!r})")
    return offenders


def _encode_decision(decision: DecisionOutcome) -> Dict[str, Any]:
    return {
        "pid": decision.pid,
        "value": decision.value,
        "time": decision.time,
        "after_stability": decision.after_stability,
    }


def _decode_decision(data: Mapping[str, Any]) -> DecisionOutcome:
    return DecisionOutcome(
        pid=data["pid"],
        value=data["value"],
        time=data["time"],
        after_stability=data["after_stability"],
    )


def _encode_extra(extra: Mapping[str, Any]) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {}
    for key, value in extra.items():
        if key == "restart_events":
            encoded[key] = [[time, pid] for time, pid in value]
        elif key == "restart_lags":
            encoded[key] = {str(pid): lag for pid, lag in value.items()}
        else:
            encoded[key] = json_safe(value, f"extra[{key!r}]")
    return encoded


def _decode_extra(extra: Mapping[str, Any]) -> Dict[str, Any]:
    decoded: Dict[str, Any] = {}
    for key, value in extra.items():
        if key == "restart_events":
            decoded[key] = [(time, pid) for time, pid in value]
        elif key == "restart_lags":
            decoded[key] = {int(pid): lag for pid, lag in value.items()}
        else:
            decoded[key] = value
    return decoded


def _load_json_object(text: str) -> Dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ResultSchemaError(f"invalid record JSON: {error}") from error
    if not isinstance(data, dict):
        raise ResultSchemaError("record JSON must be an object")
    return data


class RecordBase:
    """The envelope both record kinds share.

    A subclass is a frozen dataclass declaring its payload fields (``key``,
    ``workload``, ``tags``, ``extra`` and ``schema_version`` among them) plus
    ``from_outcome``, ``to_outcome``, ``to_dict`` and ``from_dict``; this
    base adds the task-keyed constructor, the environment view, the
    canonical JSON form, and the envelope check every ``from_dict`` starts
    with.  ``kind`` is the record's ``"kind"`` marker; single-decree records
    are written without one.
    """

    kind = "run"

    @classmethod
    def from_task(cls, task: Any, outcome: Any, key: Optional[str] = None) -> Any:
        """Freeze one (task, outcome) pair; the key is derived from the task."""
        return cls.from_outcome(
            outcome,
            workload=task.workload,
            key=key if key is not None else content_key_for_task(task),
            tags=task.tags,
        )

    @property
    def environment(self) -> Optional[Mapping[str, Any]]:
        """The resolved environment spec this run executed under, if any."""
        return self.extra.get("environment")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> Any:
        return cls.from_dict(_load_json_object(text))

    @classmethod
    def _check_envelope(cls, data: Mapping[str, Any]) -> int:
        """Reject another kind's record or an unreadable schema; return the version."""
        kind = data.get("kind", "run")
        if kind != cls.kind:
            raise ResultSchemaError(
                f"{cls.__name__} cannot decode a record of kind {kind!r} (it reads "
                f"{cls.kind!r}); use decode_record_dict for mixed stores"
            )
        version = data.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise ResultSchemaError(
                f"record has no valid schema_version (got {version!r}); "
                "not a repro results record"
            )
        if version > SCHEMA_VERSION:
            raise ResultSchemaError(
                f"record schema_version {version} is newer than this library's "
                f"{SCHEMA_VERSION}; upgrade to read this store"
            )
        return version


@dataclass(frozen=True)
class RunRecord(RecordBase):
    """One run, frozen as schema-versioned plain data.

    Everything here is JSON-representable; ``decisions`` keep their
    :class:`DecisionOutcome` form in memory (serialized by
    :meth:`to_dict`) so equality and analysis work on the natural types.
    """

    key: str
    protocol: str
    workload: str
    n: int
    ts: float
    delta: float
    seed: int
    decisions: Tuple[DecisionOutcome, ...] = ()
    proposals: Mapping[int, Any] = field(default_factory=dict)
    undecided_pids: Tuple[int, ...] = ()
    messages_sent: int = 0
    messages_delivered: int = 0
    duration: float = 0.0
    tags: Mapping[str, Any] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- construction -------------------------------------------------------
    @classmethod
    def from_outcome(
        cls,
        outcome: RunOutcome,
        *,
        workload: str,
        key: str,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> "RunRecord":
        """Freeze one executed outcome under the given identity.

        Raises :class:`~repro.errors.ResultSchemaError` listing every
        ``extra`` key whose value JSON cannot represent — an outcome with
        opaque extras must fail at record time, not at query time.  The
        same strictness applies to decision and proposal values: a value
        JSON cannot reproduce *exactly* (a tuple, say, which would come
        back as a list) is rejected rather than silently coerced, because a
        resumed run must equal a fresh one.
        """
        offending = outcome.validate_extra(codec_keys=_EXTRA_CODEC_KEYS)
        if offending:
            raise ResultSchemaError(
                f"RunOutcome.extra of {outcome.protocol!r} on {workload!r} carries "
                f"non-JSON-safe values under keys: {', '.join(sorted(offending))}"
            )
        value_offenders = _consensus_value_offenders(outcome)
        if value_offenders:
            raise ResultSchemaError(
                f"RunOutcome of {outcome.protocol!r} on {workload!r} carries consensus "
                f"values JSON cannot reproduce exactly: {'; '.join(value_offenders)}; "
                "use scalar / list / string-keyed-dict values"
            )
        lag = outcome.extra.get("max_lag_after_ts")
        metrics = {
            "max_lag_after_ts": lag,
            "lag_delta": (lag / outcome.delta) if lag is not None else None,
            "decided": len(outcome.decisions),
            "all_decided": outcome.all_decided,
            "safety_valid": outcome.extra.get("safety_valid"),
        }
        return cls(
            key=key,
            protocol=outcome.protocol,
            workload=workload,
            n=outcome.n,
            ts=outcome.ts,
            delta=outcome.delta,
            seed=outcome.seed,
            decisions=tuple(outcome.decisions),
            proposals=dict(outcome.proposals),
            undecided_pids=tuple(outcome.undecided_pids),
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
            duration=outcome.duration,
            tags=json_safe(dict(tags or {}), "tags"),
            extra=_decode_extra(_encode_extra(outcome.extra)),
            metrics=metrics,
        )

    # -- derived views ------------------------------------------------------
    @property
    def lag_delta(self) -> Optional[float]:
        return self.metrics.get("lag_delta")

    # -- reconstruction -----------------------------------------------------
    def to_outcome(self) -> RunOutcome:
        """Rebuild the exact outcome the executor produced for this run."""
        return RunOutcome(
            protocol=self.protocol,
            n=self.n,
            ts=self.ts,
            delta=self.delta,
            seed=self.seed,
            decisions=[_decode_decision(_encode_decision(d)) for d in self.decisions],
            proposals=dict(self.proposals),
            undecided_pids=list(self.undecided_pids),
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            duration=self.duration,
            extra=_decode_extra(_encode_extra(self.extra)),
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "key": self.key,
            "protocol": self.protocol,
            "workload": self.workload,
            "n": self.n,
            "ts": self.ts,
            "delta": self.delta,
            "seed": self.seed,
            "decisions": [_encode_decision(d) for d in self.decisions],
            "proposals": {str(pid): value for pid, value in self.proposals.items()},
            "undecided_pids": list(self.undecided_pids),
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "duration": self.duration,
            "tags": dict(self.tags),
            "extra": _encode_extra(self.extra),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        version = cls._check_envelope(data)
        try:
            return cls(
                key=data["key"],
                protocol=data["protocol"],
                workload=data["workload"],
                n=data["n"],
                ts=data["ts"],
                delta=data["delta"],
                seed=data["seed"],
                decisions=tuple(_decode_decision(d) for d in data.get("decisions", ())),
                proposals={int(pid): value for pid, value in data.get("proposals", {}).items()},
                undecided_pids=tuple(data.get("undecided_pids", ())),
                messages_sent=data.get("messages_sent", 0),
                messages_delivered=data.get("messages_delivered", 0),
                duration=data.get("duration", 0.0),
                tags=dict(data.get("tags", {})),
                extra=_decode_extra(data.get("extra", {})),
                metrics=dict(data.get("metrics", {})),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ResultSchemaError(f"malformed record dict: {error!r}") from error

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        lag = self.lag_delta
        lag_text = f"{lag:.3f}d" if lag is not None else "n/a"
        return (
            f"{self.key}  decided={len(self.decisions)}/{self.n} "
            f"lag={lag_text} msgs={self.messages_sent}"
        )


def record_for_task(task: Any, outcome: Any, key: Optional[str] = None) -> Any:
    """Freeze one (task, outcome) pair into the record type matching the task.

    The single polymorphic entry point the store-backed harness paths use:
    :class:`~repro.harness.executors.RunTask` → :class:`RunRecord`,
    :class:`~repro.harness.executors.SmrTask` →
    :class:`~repro.results.smr_record.SmrRecord`.
    """
    if task.kind == "smr":
        from repro.results.smr_record import SmrRecord

        return SmrRecord.from_task(task, outcome, key=key)
    return RunRecord.from_task(task, outcome, key=key)


def decode_record_dict(data: Mapping[str, Any]) -> Any:
    """Decode a serialized record of either kind.

    Dispatches on the ``"kind"`` marker: ``"smr"`` →
    :class:`~repro.results.smr_record.SmrRecord`, absent (or ``"run"``) →
    :class:`RunRecord` — pre-SMR stores carry no marker, so they decode
    unchanged.
    """
    if not isinstance(data, Mapping):
        raise ResultSchemaError("record JSON must be an object")
    kind = data.get("kind", "run")
    if kind == "smr":
        from repro.results.smr_record import SmrRecord

        return SmrRecord.from_dict(data)
    if kind == "run":
        return RunRecord.from_dict(data)
    raise ResultSchemaError(
        f"unknown record kind {kind!r}; this library understands 'run' and 'smr'"
    )


def decode_record_json(text: str) -> Any:
    """Decode one serialized record line/payload of either kind."""
    return decode_record_dict(_load_json_object(text))
