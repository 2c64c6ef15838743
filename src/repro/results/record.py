"""Schema-versioned records: the canonical serialized form of a run.

:class:`RecordBase` is the one record envelope — content key, workload,
tags, a small metrics digest and the schema version — around the run's
outcome dataclass, ``record.outcome``.  A kind is a subclass naming its
outcome type and the codecs that carry the outcome's fields through JSON:
:class:`RunRecord` wraps a :class:`~repro.consensus.values.RunOutcome`,
:class:`~repro.results.smr_record.SmrRecord` an
:class:`~repro.smr.outcome.SmrOutcome`.  Records round-trip exactly, and
since simulations are seeded and deterministic, :meth:`RecordBase.to_outcome`
is a faithful substitute for re-running the task.  The content key names
the run's identity::

    <protocol>/<workload>/<env-hash>/n<n>-ts<ts>-d<delta>-s<seed>

``env-hash`` is a SHA-256 digest of the task's canonical fingerprint (its
normalized workload and protocol keyword arguments, resolved environment
included), so two tasks share a key exactly when they would execute the
same run.  Keys derive from the declarative task *before* execution
(:func:`content_key_for_task`), which is what makes campaigns resumable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.consensus.values import DecisionOutcome, RunOutcome, json_safe
from repro.errors import ResultSchemaError
from repro.smr.state_machine import MACHINE

__all__ = [
    "EXACT",
    "PLAIN",
    "SCHEMA_VERSION",
    "TUPLES",
    "Codec",
    "RecordBase",
    "RunRecord",
    "by_pid",
    "content_key_for_task",
    "decode_record_dict",
    "decode_record_json",
    "extra",
    "record_for_task",
    "rows",
    "sequence",
    "task_fingerprint",
]

SCHEMA_VERSION = 1


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
    that determines the run's outcome: protocol, workload and the workload
    kwargs (normalized).  ``n``, ``ts``, and ``seed`` are left out of the
    hashed kwargs — they appear readably in the content key itself, so every
    run of one scenario family shares an ``env-hash``.

    For an :class:`~repro.harness.executors.SmrTask` (``task.kind ==
    "smr"``) the fingerprint instead covers the command schedule — the
    extra axis of a multi-decree run's identity.
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
            # Tasks once named their state machine; the fixed name keeps
            # every content key already in a store valid.
            "machine": MACHINE,
        }
    return {
        "schema": SCHEMA_VERSION,
        "protocol": task.protocol,
        "workload": task.workload,
        "workload_kwargs": _fingerprint_value(kwargs, "workload_kwargs"),
        # Every run builds its protocol with no arguments and stops at the
        # last expected decision.  Tasks once carried both as settings; the
        # literals keep every content key already in a store valid.
        "protocol_kwargs": {},
        "run_until_decided": True,
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


class Codec(NamedTuple):
    """How one field that is not a plain scalar crosses JSON.

    ``encode(value, where, offenders)`` returns fresh JSON data, noting in
    ``offenders`` (named from ``where``) each value JSON would not give back
    exactly; ``decode(data)`` rebuilds a fresh in-memory value.
    """

    encode: Callable[[Any, str, List[str]], Any]
    decode: Callable[[Any], Any]


def _exact(value: Any, where: str, offenders: List[str]) -> Any:
    if type(value) in (str, int, bool, type(None)):  # the common case, exact as is
        return value
    try:
        plain = json_safe(value, where)
    except ResultSchemaError as error:
        offenders.append(str(error))
        return None
    if plain != value:
        offenders.append(f"{where}: {value!r} would come back as {plain!r}")
    return plain


PLAIN = Codec(lambda value, where, offenders: value, lambda data: data)
"""Scalars of a declared type (ids, times, counts): passed through unchecked."""

EXACT = Codec(_exact, lambda data: data)
"""Free-form plain data (decision values, ``extra`` entries): JSON must give it back exactly."""


def sequence(kind: Callable[[Any], Any]) -> Codec:
    """A list or tuple of scalars, stored as a JSON list and rebuilt by ``kind``."""
    return Codec(lambda value, where, offenders: list(value), kind)


TUPLES = Codec(
    lambda value, where, offenders: [list(item) for item in value],
    lambda data: [tuple(item) for item in data],
)
"""A list of tuples (``restart_events``' ``(time, pid)`` pairs), stored as nested lists."""


def by_pid(values: Codec = PLAIN) -> Codec:
    """A mapping keyed by process id (JSON keys are strings); offenders are named ``<field>[p<pid>]``."""
    encode, decode = values
    return Codec(
        lambda value, where, offenders: {
            str(pid): encode(item, f"{where}[p{pid}]", offenders) for pid, item in value.items()
        },
        lambda data: {int(pid): decode(item) for pid, item in data.items()},
    )


def extra(**codecs: Codec) -> Codec:
    """A string-keyed mapping of free-form values, except the keys given their own codec."""

    def encode(value: Mapping[str, Any], where: str, offenders: List[str]) -> Dict[str, Any]:
        return {
            key: codecs.get(key, EXACT).encode(item, f"{where}[{key!r}]", offenders)
            for key, item in value.items()
        }

    def decode(data: Mapping[str, Any]) -> Dict[str, Any]:
        return {key: codecs.get(key, EXACT).decode(item) for key, item in data.items()}

    return Codec(encode, decode)


Schema = Tuple[Tuple[str, ...], Tuple[Tuple[str, Codec], ...]]


def _schema_of(cls: type, codecs: Mapping[str, Codec]) -> Schema:
    """The plain and the coded fields of ``cls``; plain ones skip the (costly) codec calls."""
    names = [item.name for item in fields(cls)]
    unknown = sorted(set(codecs) - set(names))
    if unknown:
        raise TypeError(f"codecs name fields {cls.__name__} does not declare: {unknown}")
    return (
        tuple(name for name in names if name not in codecs),
        tuple((name, codecs[name]) for name in names if name in codecs),
    )


def _encode_fields(schema: Schema, obj: Any, prefix: str, offenders: List[str]) -> Dict[str, Any]:
    plain, coded = schema
    data = {name: getattr(obj, name) for name in plain}
    for name, codec in coded:
        data[name] = codec.encode(getattr(obj, name), prefix + name, offenders)
    return data


def _decode_fields(schema: Schema, data: Mapping[str, Any]) -> Dict[str, Any]:
    """Keyword arguments for the fields present in ``data``; absent ones keep their defaults."""
    plain, coded = schema
    kwargs = {name: data[name] for name in plain if name in data}
    for name, codec in coded:
        if name in data:
            kwargs[name] = codec.decode(data[name])
    return kwargs


def rows(
    row_type: type,
    codecs: Mapping[str, Codec],
    label: Callable[[Any], str],
    keyed_by: Optional[str] = None,
) -> Codec:
    """Dataclass rows, stored as a list of JSON objects.

    In memory the rows are a list, or a dict keyed by the row field
    ``keyed_by``; ``label(row)`` names a row in offender notes.
    """
    schema = _schema_of(row_type, codecs)

    def encode(value: Any, where: str, offenders: List[str]) -> List[Dict[str, Any]]:
        return [
            _encode_fields(schema, row, f"{where}[{label(row)}].", offenders)
            for row in (value.values() if keyed_by else value)
        ]

    def decode(data: List[Mapping[str, Any]]) -> Any:
        built = [row_type(**_decode_fields(schema, item)) for item in data]
        return {getattr(row, keyed_by): row for row in built} if keyed_by else built

    return Codec(encode, decode)


def _load_json_object(text: str) -> Dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ResultSchemaError(f"invalid record JSON: {error}") from error
    if not isinstance(data, dict):
        raise ResultSchemaError("record JSON must be an object")
    return data


def _outcome_view(name: str) -> property:
    """A read-only view of one identity field of ``record.outcome``."""
    return property(lambda record: getattr(record.outcome, name))


@dataclass(frozen=True)
class RecordBase:
    """The one record envelope: identity and digest around a run's outcome.

    ``outcome`` is the record's own copy of the executor's outcome: read it,
    and mutate only what :meth:`to_outcome` hands out.  A kind is a subclass
    declaring ``kind`` (its ``"kind"`` marker; run records predate the
    marker and are written without one), ``outcome_type`` (a dataclass with
    ``protocol``, ``n``, ``ts``, ``delta``, ``seed``, ``extra``,
    ``messages_sent``, ``messages_delivered`` and ``duration``), ``codecs``
    (for its fields that are not plain scalars), ``digest(outcome)`` (the
    metrics dict) and ``describe()``.  The serialized form is flat: the
    outcome's fields with the envelope's on top, so an outcome field named
    like an envelope field (the SMR outcome's ``workload``) takes its value.
    """

    key: str
    workload: str
    outcome: Any
    tags: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    kind: ClassVar[str]
    outcome_type: ClassVar[type]
    codecs: ClassVar[Mapping[str, Codec]] = {}
    lag_metric: ClassVar[str] = "lag_delta"
    kinds: ClassVar[Dict[str, type]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Once per kind: campaign resume encodes and decodes every run.
        cls._schema = _schema_of(cls.outcome_type, cls.codecs)
        RecordBase.kinds[cls.kind] = cls

    # -- construction -------------------------------------------------------
    @classmethod
    def from_outcome(
        cls,
        outcome: Any,
        *,
        workload: str,
        key: str,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """Freeze one executed outcome under the given identity.

        A resumed run must equal a fresh one, so this raises
        :class:`~repro.errors.ResultSchemaError` naming every value JSON
        cannot reproduce exactly (an opaque ``extra`` entry, a tuple
        decision value that would come back as a list).
        """
        data = cls._encode_outcome(outcome, workload)
        data["workload"] = workload
        frozen = cls._decode_outcome(data)
        return cls(
            key=key,
            workload=workload,
            outcome=frozen,
            tags=json_safe(dict(tags or {}), "tags"),
            metrics=cls.digest(frozen),
        )

    @classmethod
    def from_task(cls, task: Any, outcome: Any, key: Optional[str] = None) -> Any:
        """Freeze one (task, outcome) pair; the key is derived from the task."""
        return cls.from_outcome(
            outcome,
            workload=task.workload,
            key=key if key is not None else content_key_for_task(task),
            tags=task.tags,
        )

    # -- identity views -----------------------------------------------------
    protocol = _outcome_view("protocol")
    n = _outcome_view("n")
    ts = _outcome_view("ts")
    delta = _outcome_view("delta")
    seed = _outcome_view("seed")

    @property
    def environment(self) -> Optional[Mapping[str, Any]]:
        """The resolved environment spec this run executed under, if any."""
        return self.outcome.extra.get("environment")

    @property
    def lag_delta(self) -> Optional[float]:
        """The kind's headline lag in delta units (``metrics[lag_metric]``)."""
        return self.metrics.get(self.lag_metric)

    # -- reconstruction and serialization -----------------------------------
    @classmethod
    def _encode_outcome(cls, outcome: Any, workload: str) -> Dict[str, Any]:
        offenders: List[str] = []
        data = _encode_fields(cls._schema, outcome, "", offenders)
        if offenders:
            raise ResultSchemaError(
                f"{type(outcome).__name__} of {outcome.protocol!r} on {workload!r} carries "
                f"values JSON cannot reproduce exactly: {'; '.join(offenders)}; "
                "use scalar / list / string-keyed-dict values"
            )
        return data

    @classmethod
    def _decode_outcome(cls, data: Mapping[str, Any]) -> Any:
        return cls.outcome_type(**_decode_fields(cls._schema, data))

    def to_outcome(self) -> Any:
        """A fresh copy of the exact outcome the executor produced for this run."""
        return self._decode_outcome(self._encode_outcome(self.outcome, self.workload))

    def to_dict(self) -> Dict[str, Any]:
        data = self._encode_outcome(self.outcome, self.workload)
        data.update(
            schema_version=self.schema_version,
            key=self.key,
            protocol=self.protocol,
            workload=self.workload,
            tags=dict(self.tags),
            metrics=dict(self.metrics),
        )
        if self.kind != "run":
            data["kind"] = self.kind
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Decode this kind's serialized form; another kind or an unreadable schema is refused."""
        kind = data.get("kind", "run")
        if kind != cls.kind:
            raise ResultSchemaError(
                f"{cls.__name__} cannot decode a record of kind {kind!r} (it reads "
                f"{cls.kind!r}); use decode_record_dict for mixed stores"
            )
        version = data.get("schema_version")
        # type() rather than isinstance(): ``true`` is an int to isinstance.
        if type(version) is not int or version < 1:
            raise ResultSchemaError(
                f"record has no valid schema_version (got {version!r}); "
                "not a repro results record"
            )
        if version > SCHEMA_VERSION:
            raise ResultSchemaError(
                f"record schema_version {version} is newer than this library's "
                f"{SCHEMA_VERSION}; upgrade to read this store"
            )
        try:
            return cls(
                key=data["key"],
                workload=data["workload"],
                outcome=cls._decode_outcome(data),
                tags=dict(data.get("tags", {})),
                metrics=dict(data.get("metrics", {})),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ResultSchemaError(f"malformed {cls.kind} record dict: {error!r}") from error


class RunRecord(RecordBase):
    """One single-decree run: the envelope around a :class:`RunOutcome`."""

    kind = "run"
    outcome_type = RunOutcome
    codecs = {
        "decisions": rows(DecisionOutcome, {"value": EXACT}, label=lambda row: f"p{row.pid}"),
        "proposals": by_pid(EXACT),
        "undecided_pids": sequence(list),
        "extra": extra(restart_events=TUPLES, restart_lags=by_pid()),
    }

    @staticmethod
    def digest(outcome: RunOutcome) -> Dict[str, Any]:
        lag = outcome.extra.get("max_lag_after_ts")
        return {
            "max_lag_after_ts": lag,
            "lag_delta": (lag / outcome.delta) if lag is not None else None,
            "decided": len(outcome.decisions),
            "all_decided": outcome.all_decided,
            "safety_valid": outcome.extra.get("safety_valid"),
        }

    def describe(self) -> str:
        lag = self.lag_delta
        lag_text = f"{lag:.3f}d" if lag is not None else "n/a"
        return (
            f"{self.key}  decided={len(self.outcome.decisions)}/{self.n} "
            f"lag={lag_text} msgs={self.outcome.messages_sent}"
        )


def _record_class(kind: str) -> Any:
    try:
        return RecordBase.kinds[kind]
    except KeyError:
        known = ", ".join(repr(name) for name in RecordBase.kinds)
        raise ResultSchemaError(
            f"unknown record kind {kind!r}; this library understands {known}"
        ) from None


def record_for_task(task: Any, outcome: Any, key: Optional[str] = None) -> Any:
    """Freeze one (task, outcome) pair into the record kind matching ``task.kind``."""
    return _record_class(task.kind).from_task(task, outcome, key=key)


def decode_record_dict(data: Mapping[str, Any]) -> Any:
    """Decode a serialized record of any kind, dispatching on its ``"kind"`` marker.

    Run records carry no marker (they predate it), so they decode unchanged.
    """
    if not isinstance(data, Mapping):
        raise ResultSchemaError("record JSON must be an object")
    return _record_class(data.get("kind", "run")).from_dict(data)


def decode_record_json(text: str) -> Any:
    """Decode one serialized record line/payload of any kind."""
    return decode_record_dict(_load_json_object(text))
