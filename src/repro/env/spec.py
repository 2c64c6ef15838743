"""Declarative environment specifications.

An :class:`EnvironmentSpec` describes everything about a run's *environment*
— the pre-stabilization adversary (including any partition) and the
crash/restart schedule — as plain, validated,
JSON-serializable data.  The paper's whole subject is how the environment
determines consensus latency; making it a first-class value means:

* **declarative** — a scenario is a spec, not a module: new environments are
  written as data, composed from the adversary/fault kinds catalogued in
  :mod:`repro.env.registry`;
* **reproducible** — the resolved spec is recorded in every
  :class:`~repro.consensus.values.RunOutcome`, so any result row can be
  re-run from its own metadata;
* **composable** — adversary specs nest (e.g. ``worst-case-delay`` wrapping
  a ``partition``), and fault schedules combine freely with any adversary.

Scale-dependent quantities are expressed relative to the run configuration:
each kind is built from the :class:`~repro.sim.simulator.SimulationConfig`
(for ``n``, ``ts``, ``δ``, and the seed), so one spec works across system
sizes.  Parameters named ``*_delta`` are multiples of ``δ``; randomized kinds
(minority partitions, random crash schedules) name their RNG stream label so
replays consume the exact same randomness.

The split mirrors the model itself:

* :class:`AdversarySpec` — who rules before ``TS`` (instantiates a class of
  :mod:`repro.env.adversaries`, which the network's
  :class:`~repro.net.synchrony.EventualSynchrony` consults);
* :class:`PartitionDecl` — how processes are grouped (instantiates
  :class:`~repro.net.partition.PartitionSpec`);
* :class:`FaultSpec` — who crashes and restarts, and when (a function of
  :mod:`repro.env.faults` builds the :class:`~repro.faults.plan.FaultPlan`).

The synchrony model has one regime, the paper's.  It is not a field: a
spec's serialized form names it in a ``"synchrony"`` entry, which
:meth:`EnvironmentSpec.from_dict` checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.net.partition import PartitionSpec, minority_groups
from repro.net.synchrony import POST_MIN_DELAY_FRACTION, EventualSynchrony

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.net.adversary import Adversary
    from repro.net.network import Network
    from repro.sim.rng import SeededRng
    from repro.sim.simulator import SimulationConfig

__all__ = [
    "AdversarySpec",
    "EnvironmentSpec",
    "FaultSpec",
    "PartitionDecl",
    "is_integer",
    "is_number",
]

# The one synchrony regime, the paper's: what every spec's "synchrony" entry
# says.  TS and δ themselves live in the run configuration, so a spec stays
# scale-free.
_SYNCHRONY: Mapping[str, Any] = {
    "kind": "eventual",
    "post_min_delay_fraction": POST_MIN_DELAY_FRACTION,
}


def is_integer(value: Any) -> bool:
    """Whether ``value`` is a JSON integer (an int, never a bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether ``value`` is a JSON number: a finite int or float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _plain(value: Any, where: str) -> Any:
    """Deep-normalize ``value`` to JSON-compatible plain data.

    Tuples become lists (so a spec equals its JSON round trip), mappings
    become plain dicts, and anything that JSON cannot represent is rejected
    with an error naming where it appeared.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item, where) for item in value]
    if isinstance(value, Mapping):
        plain: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"{where}: mapping keys must be strings, got {key!r}"
                )
            plain[key] = _plain(item, where)
        return plain
    raise ConfigurationError(
        f"{where}: value {value!r} of type {type(value).__name__} is not "
        "JSON-serializable; specs must be plain data"
    )


@dataclass(frozen=True)
class PartitionDecl:
    """Declarative partition: either explicit groups or a generated minority split.

    ``mode="minority"`` defers to :func:`repro.net.partition.minority_groups`
    at build time, drawing the grouping from the network RNG stream named by
    ``rng_label`` (so the same seed reproduces the same partition);
    ``mode="explicit"`` pins the groups in the spec itself.
    """

    mode: str = "minority"
    groups: Optional[List[List[int]]] = None
    rng_label: str = "partition"

    def __post_init__(self) -> None:
        if self.mode not in ("minority", "explicit"):
            raise ConfigurationError(
                f"partition mode must be 'minority' or 'explicit', got {self.mode!r}"
            )
        if self.mode == "explicit":
            if not self.groups:
                raise ConfigurationError("an explicit partition needs non-empty groups")
            object.__setattr__(
                self, "groups", [[int(pid) for pid in group] for group in self.groups]
            )
            PartitionSpec.of(self.groups)  # validates disjointness eagerly
        elif self.groups is not None:
            raise ConfigurationError("a minority partition is generated; do not pass groups")

    def materialize(self, n: int, rng: "SeededRng") -> PartitionSpec:
        """Instantiate the concrete grouping for an ``n``-process run."""
        if self.mode == "minority":
            return minority_groups(n, rng.fork(self.rng_label))
        return PartitionSpec.of(self.groups or ())

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"mode": self.mode}
        if self.groups is not None:
            data["groups"] = [list(group) for group in self.groups]
        if self.rng_label != "partition":
            data["rng_label"] = self.rng_label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartitionDecl":
        _expect_keys(data, {"mode", "groups", "rng_label"}, "PartitionDecl")
        return cls(
            mode=data.get("mode", "minority"),
            groups=data.get("groups"),
            rng_label=data.get("rng_label", "partition"),
        )


@dataclass(frozen=True)
class AdversarySpec:
    """A named pre-stabilization adversary plus its parameters.

    ``kind`` resolves through :data:`~repro.env.registry.ADVERSARY_KINDS`;
    ``params`` are plain data checked against the kind's schema at build
    time.  Wrapping adversaries (``worst-case-delay``,
    ``deferring-partition``) take their wrapped adversary as ``inner``, so
    specs compose the same way the adversary classes do.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    inner: Optional["AdversarySpec"] = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("AdversarySpec needs a non-empty kind")
        object.__setattr__(self, "params", _plain(dict(self.params), f"adversary {self.kind!r}"))

    def build(self, config: "SimulationConfig", rng: "SeededRng") -> "Adversary":
        """Instantiate the adversary (and its inner chain) for one run."""
        from repro.env.registry import checked_adversary

        inner = self.inner.build(config, rng) if self.inner is not None else None
        return checked_adversary(self)(config, rng, self.params, inner)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "params": _plain(self.params, self.kind)}
        if self.inner is not None:
            data["inner"] = self.inner.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdversarySpec":
        _expect_keys(data, {"kind", "params", "inner"}, "AdversarySpec")
        if "kind" not in data:
            raise ConfigurationError("AdversarySpec dict needs a 'kind'")
        inner = data.get("inner")
        return cls(
            kind=_expect_string(data["kind"], "AdversarySpec kind"),
            params=_expect_object(data.get("params", {}), "AdversarySpec params"),
            inner=cls.from_dict(inner) if inner is not None else None,
        )


@dataclass(frozen=True)
class FaultSpec:
    """A named crash/restart schedule plus its parameters.

    ``kind`` resolves through :data:`~repro.env.registry.FAULT_KINDS`.
    The default is no faults.  Whether the schedule steps outside the
    paper's no-failures-after-``TS`` assumption (the churn family does) is a
    property of the kind, consulted when the plan is validated.
    """

    kind: str = "none"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("FaultSpec needs a non-empty kind")
        object.__setattr__(self, "params", _plain(dict(self.params), f"faults {self.kind!r}"))

    def build(self, config: "SimulationConfig") -> "FaultPlan":
        """Instantiate the fault plan for one run."""
        from repro.env.registry import checked_faults

        return checked_faults(self)(config, self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": _plain(self.params, self.kind)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        _expect_keys(data, {"kind", "params"}, "FaultSpec")
        return cls(
            kind=_expect_string(data.get("kind", "none"), "FaultSpec kind"),
            params=_expect_object(data.get("params", {}), "FaultSpec params"),
        )


@dataclass(frozen=True)
class EnvironmentSpec:
    """One complete run environment: adversary + faults.

    The spec is the declarative counterpart of what every workload module
    used to hand-build: :meth:`build_network` instantiates the network
    (the eventual-synchrony model wrapping the adversary chain) and
    :meth:`build_fault_plan` the crash/restart schedule, both against a
    concrete :class:`~repro.sim.simulator.SimulationConfig`.  Specs
    round-trip through :meth:`to_dict`/:meth:`from_dict` (and JSON) with
    equality, which is what lets a :class:`~repro.consensus.values.RunOutcome`
    carry its environment verbatim.
    """

    adversary: AdversarySpec
    faults: FaultSpec = field(default_factory=FaultSpec)
    name: str = ""
    notes: str = ""

    # -- instantiation ------------------------------------------------------
    def build_network(self, config: "SimulationConfig", rng: "SeededRng") -> "Network":
        """Build the network for one run (the :class:`Scenario` factory hook)."""
        from repro.net.network import Network

        adversary = self.adversary.build(config, rng)
        model = EventualSynchrony(ts=config.ts, delta=config.params.delta, adversary=adversary)
        return Network(model=model, rng=rng)

    def build_fault_plan(self, config: "SimulationConfig") -> "FaultPlan":
        """Build the crash/restart schedule for one run."""
        return self.faults.build(config)

    def allows_post_ts_crashes(self) -> bool:
        """Whether the fault schedule may crash processes at or after ``TS``."""
        from repro.env.registry import checked_faults

        return checked_faults(self.faults).post_ts_crashes

    def validate(self) -> None:
        """Check, without building anything, every node the builds would check."""
        from repro.env.registry import checked_adversary, checked_faults

        adversary: Optional[AdversarySpec] = self.adversary
        while adversary is not None:
            checked_adversary(adversary)
            adversary = adversary.inner
        checked_faults(self.faults)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "adversary": self.adversary.to_dict(),
            "synchrony": dict(_SYNCHRONY),
            "faults": self.faults.to_dict(),
        }
        if self.name:
            data["name"] = self.name
        if self.notes:
            data["notes"] = self.notes
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnvironmentSpec":
        _expect_keys(data, {"adversary", "synchrony", "faults", "name", "notes"}, "EnvironmentSpec")
        if "adversary" not in data:
            raise ConfigurationError("EnvironmentSpec dict needs an 'adversary'")
        _check_synchrony(data.get("synchrony", {}))
        return cls(
            adversary=AdversarySpec.from_dict(data["adversary"]),
            faults=FaultSpec.from_dict(data.get("faults", {})),
            name=_expect_string(data.get("name", ""), "EnvironmentSpec name"),
            notes=_expect_string(data.get("notes", ""), "EnvironmentSpec notes"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EnvironmentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid environment JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("environment JSON must be an object")
        return cls.from_dict(data)

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        """Compact one-line rendering used by listings and reports."""
        chain = []
        adversary: Optional[AdversarySpec] = self.adversary
        while adversary is not None:
            chain.append(adversary.kind)
            adversary = adversary.inner
        text = f"adversary={'>'.join(chain)} faults={self.faults.kind}"
        if self.name:
            text = f"{self.name}: {text}"
        return text


def _check_synchrony(data: Mapping[str, Any]) -> None:
    """Accept the one synchrony regime there is, :data:`_SYNCHRONY`, written in full or in part."""
    _expect_keys(data, set(_SYNCHRONY), "SynchronySpec")
    synchrony = {**_SYNCHRONY, **data}
    if synchrony["kind"] != "eventual":
        raise ConfigurationError(
            f"unknown synchrony kind {synchrony['kind']!r}; only 'eventual' is implemented"
        )
    fraction = synchrony["post_min_delay_fraction"]
    if not is_number(fraction) or not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("post_min_delay_fraction must be in [0, 1]")
    if fraction != POST_MIN_DELAY_FRACTION:
        raise ConfigurationError(
            f"post_min_delay_fraction is fixed at {POST_MIN_DELAY_FRACTION}, got {fraction!r}"
        )


def _expect_object(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _expect_string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _expect_keys(data: Mapping[str, Any], allowed: set, where: str) -> None:
    """The check every ``from_dict`` runs first: a mapping with only ``allowed`` keys."""
    unknown = sorted(set(_expect_object(data, where)) - allowed)
    if unknown:
        raise ConfigurationError(
            f"{where} does not accept keys {unknown}; allowed: {sorted(allowed)}"
        )
