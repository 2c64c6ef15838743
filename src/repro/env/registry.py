"""The environment catalogue: adversary kinds and fault kinds.

Two literal tables are the whole catalogue:

* :data:`ADVERSARY_KINDS` maps an adversary kind to its class in
  :mod:`repro.env.adversaries`;
* :data:`FAULT_KINDS` maps a fault-schedule kind to its builder function in
  :mod:`repro.env.faults`.

Each class or function is the kind's one declaration: its defaults, its
``δ`` conversions, its range checks, its summary and its parameter schema.
A new kind is one class or one function plus its table entry.  An
:class:`~repro.env.spec.EnvironmentSpec` is composed from these kinds,
either inline (``repro run --env JSON``) or written literally by a
workload: the named environments are the workloads of
:data:`~repro.workloads.registry.WORKLOADS`.  :func:`checked_adversary` and
:func:`checked_faults` are the one per-node check that both building and
validating a spec run.

Every kind declares the JSON type of every parameter it accepts
(``"number"``, ``"integer or null"``, ``"array of pids"``, ...): unknown
parameters are rejected with an error listing what the kind accepts, and a
value of the wrong type with an error naming the parameter (typos and type
slips fail loudly, not deep inside a builder).  A number is a finite int or
float, never a bool; null is accepted only where the kind's default is None.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Type, TypeVar

from repro.env import adversaries, faults
from repro.env.spec import AdversarySpec, FaultSpec, is_integer, is_number
from repro.errors import ConfigurationError
from repro.net.adversary import Adversary

__all__ = ["ADVERSARY_KINDS", "FAULT_KINDS", "checked_adversary", "checked_faults"]

ADVERSARY_KINDS: Dict[str, Type[Adversary]] = {
    "benign": adversaries.BenignAdversary,
    "drop-all": adversaries.DropAllAdversary,
    "random-chaos": adversaries.RandomChaosAdversary,
    "partition": adversaries.PartitionAdversary,
    "gray-partition": adversaries.GrayPartitionAdversary,
    "asymmetric-link": adversaries.AsymmetricLinkAdversary,
    "worst-case-delay": adversaries.WorstCaseDelayAdversary,
    "deferring-partition": adversaries.DeferringPartitionAdversary,
}

FAULT_KINDS: Dict[str, Callable[..., Any]] = {
    "none": faults.no_faults,
    "explicit": faults.explicit_faults,
    "random-before-ts": faults.crash_before_stability,
    "crash-forever": faults.crash_forever,
    "staggered-restarts": faults.staggered_restarts,
    "churn-waves": faults.churn_waves,
}

_Entry = TypeVar("_Entry")


def _lookup(table: Mapping[str, _Entry], key: str, what: str) -> _Entry:
    entry = table.get(key)
    if entry is None:
        raise ConfigurationError(f"unknown {what} {key!r}; available: {', '.join(sorted(table))}")
    return entry


# The JSON types a parameter may declare; "A or B" accepts either.
_JSON_TYPES: Mapping[str, Callable[[Any], bool]] = {
    "number": is_number,
    "integer": is_integer,
    "boolean": lambda value: isinstance(value, bool),
    "string": lambda value: isinstance(value, str),
    "array": lambda value: isinstance(value, list),
    "array of pids": lambda value: isinstance(value, list) and all(map(is_integer, value)),
    "array of pid pairs": lambda value: isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(is_integer, pair))
        for pair in value
    ),
    "null": lambda value: value is None,
    # PartitionDecl.from_dict checks a partition declaration's shape itself.
    "PartitionDecl": lambda value: True,
}


def _check_params(kind: str, params: Mapping[str, Any], accepted: Mapping[str, str], what: str) -> None:
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"{what} {kind!r} does not accept parameters {unknown}; "
            f"accepted: {', '.join(sorted(accepted)) or '(none)'}"
        )
    for name, value in params.items():
        declared = accepted[name]
        if not any(_JSON_TYPES[json_type](value) for json_type in declared.split(" or ")):
            raise ConfigurationError(
                f"{what} {kind!r} parameter {name!r} must be {declared}, got {value!r}"
            )


def checked_adversary(spec: AdversarySpec) -> Type[Adversary]:
    """The class for one adversary node, once the node is checked against it.

    The kind must exist, every parameter must be one the kind accepts, and
    only a wrapping kind may have an ``inner``.  The ``inner`` chain itself
    is not walked: each node is checked on its own.
    """
    kind = _lookup(ADVERSARY_KINDS, spec.kind, "adversary kind")
    _check_params(spec.kind, spec.params, kind.parameters, "adversary")
    if spec.inner is not None and not kind.takes_inner:
        raise ConfigurationError(f"adversary kind {spec.kind!r} does not wrap an inner adversary")
    return kind


def checked_faults(spec: FaultSpec) -> Callable[..., Any]:
    """The builder for a fault spec, once its kind and parameters are checked."""
    build = _lookup(FAULT_KINDS, spec.kind, "fault kind")
    _check_params(spec.kind, spec.params, build.parameters, "fault schedule")
    return build
