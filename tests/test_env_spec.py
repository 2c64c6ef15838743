"""Unit tests for the declarative environment layer (`repro.env`)."""

import json

import pytest

from repro.env.adversaries import (
    BenignAdversary,
    DeferringPartitionAdversary,
    PartitionAdversary,
    WorstCaseDelayAdversary,
)
from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec, PartitionDecl
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig
from repro.workloads.registry import WORKLOADS

from tests.helpers import make_params


def make_config(n=5, ts=10.0, seed=3):
    return SimulationConfig(n=n, params=make_params(), ts=ts, seed=seed, max_time=ts + 100.0)


class TestSerializationRoundTrip:
    def spec_samples(self):
        return [
            EnvironmentSpec(name="stable", adversary=AdversarySpec("benign")),
            EnvironmentSpec(
                name="partitioned",
                adversary=AdversarySpec(
                    "partition",
                    {
                        "partition": {"mode": "minority"},
                        "leak_probability": 0.05,
                        "leak_past_ts": True,
                    },
                ),
                faults=FaultSpec("random-before-ts", {"allow_recovery": True}),
            ),
            EnvironmentSpec(
                name="nested",
                adversary=AdversarySpec(
                    "worst-case-delay",
                    inner=AdversarySpec(
                        "deferring-partition",
                        {"defer_probability": 0.25},
                        inner=AdversarySpec("partition", {"partition": {"mode": "minority"}}),
                    ),
                ),
                faults=FaultSpec(
                    "explicit",
                    {"events": [{"time": 1.0, "pid": 0, "kind": "crash"}]},
                ),
                notes="three-deep adversary chain",
            ),
            EnvironmentSpec(
                name="churny",
                adversary=AdversarySpec("drop-all"),
                faults=FaultSpec("churn-waves", {"waves": 2, "up_time": 1.5}),
            ),
        ]

    def test_dict_round_trip_is_equal(self):
        for spec in self.spec_samples():
            assert EnvironmentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_equal(self):
        for spec in self.spec_samples():
            assert EnvironmentSpec.from_json(spec.to_json()) == spec

    def test_json_is_plain_data(self):
        for spec in self.spec_samples():
            payload = json.loads(spec.to_json())
            assert isinstance(payload, dict)
            assert payload["adversary"]["kind"]

    def test_tuples_normalize_to_lists(self):
        # A spec built with tuples equals its JSON round trip (lists).
        spec = AdversarySpec("crash", {"pids": (1, 2, 3)})
        assert spec.params["pids"] == [1, 2, 3]

    def test_non_serializable_params_rejected(self):
        with pytest.raises(ConfigurationError, match="not JSON-serializable"):
            AdversarySpec("benign", {"callback": lambda: None})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept keys"):
            EnvironmentSpec.from_dict({"adversary": {"kind": "benign"}, "bogus": 1})
        with pytest.raises(ConfigurationError, match="needs an 'adversary'"):
            EnvironmentSpec.from_dict({"name": "empty"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid environment JSON"):
            EnvironmentSpec.from_json("{not json")
        with pytest.raises(ConfigurationError, match="must be an object"):
            EnvironmentSpec.from_json("[1, 2]")


class TestSynchronyEntry:
    """The serialized ``"synchrony"`` entry names the one regime there is."""

    LITERAL = {"kind": "eventual", "post_min_delay_fraction": 0.1}

    def test_to_dict_writes_the_literal(self):
        spec = EnvironmentSpec(adversary=AdversarySpec("benign"))
        assert spec.to_dict()["synchrony"] == self.LITERAL

    def test_from_dict_accepts_the_literal_in_full_in_part_or_absent(self):
        spec = EnvironmentSpec(adversary=AdversarySpec("benign"))
        for synchrony in (self.LITERAL, {"kind": "eventual"}, {}):
            data = {"adversary": {"kind": "benign"}, "synchrony": synchrony}
            assert EnvironmentSpec.from_dict(data) == spec
        assert EnvironmentSpec.from_dict({"adversary": {"kind": "benign"}}) == spec

    @pytest.mark.parametrize("synchrony, message", [
        ({"kind": "lockstep"}, "unknown synchrony kind 'lockstep'"),
        ({"post_min_delay_fraction": 1.5}, r"must be in \[0, 1\]"),
        ({"post_min_delay_fraction": 0.2}, "fixed at 0.1, got 0.2"),
        ({"jitter": 1}, "SynchronySpec does not accept keys"),
    ])
    def test_from_dict_rejects_any_other_value(self, synchrony, message):
        data = {"adversary": {"kind": "benign"}, "synchrony": synchrony}
        with pytest.raises(ConfigurationError, match=message):
            EnvironmentSpec.from_dict(data)

    def test_post_ts_delay_floor_is_a_tenth_of_delta(self):
        from repro.net.synchrony import POST_MIN_DELAY_FRACTION

        assert POST_MIN_DELAY_FRACTION == self.LITERAL["post_min_delay_fraction"]


class TestPartitionDecl:
    def test_minority_mode_generates_no_majority_group(self):
        decl = PartitionDecl()
        spec = decl.materialize(7, SeededRng(1, label="net"))
        assert spec.blocks_majority(7)

    def test_minority_mode_matches_legacy_stream(self):
        # The decl must consume the exact RNG stream the old closures used.
        from repro.net.partition import minority_groups

        rng = SeededRng(42, label="net")
        assert PartitionDecl().materialize(7, rng) == minority_groups(7, rng.fork("partition"))

    def test_explicit_mode_pins_groups(self):
        decl = PartitionDecl(mode="explicit", groups=[[0, 1], [2]])
        spec = decl.materialize(3, SeededRng(0))
        assert 1 in spec.reachable(0) and 2 not in spec.reachable(0)

    def test_explicit_requires_groups(self):
        with pytest.raises(ConfigurationError):
            PartitionDecl(mode="explicit")

    def test_minority_rejects_groups(self):
        with pytest.raises(ConfigurationError):
            PartitionDecl(mode="minority", groups=[[0]])

    def test_round_trip(self):
        decl = PartitionDecl(mode="explicit", groups=[[0, 1], [2]], rng_label="split")
        assert PartitionDecl.from_dict(decl.to_dict()) == decl


class TestAdversaryBuilding:
    def test_benign_builder(self):
        adversary = AdversarySpec("benign").build(make_config(), SeededRng(1))
        assert isinstance(adversary, BenignAdversary)
        assert adversary.delta == make_params().delta

    def test_nested_chain_builds_inside_out(self):
        spec = AdversarySpec(
            "worst-case-delay",
            inner=AdversarySpec(
                "deferring-partition",
                inner=AdversarySpec("partition", {"partition": {"mode": "minority"}}),
            ),
        )
        adversary = spec.build(make_config(), SeededRng(1, label="net"))
        assert isinstance(adversary, WorstCaseDelayAdversary)
        assert isinstance(adversary.pre_ts, DeferringPartitionAdversary)
        assert isinstance(adversary.pre_ts.inner, PartitionAdversary)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown adversary kind"):
            AdversarySpec("quantum-foam").build(make_config(), SeededRng(1))

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept parameters"):
            AdversarySpec("benign", {"typo": 1}).build(make_config(), SeededRng(1))

    def test_inner_on_non_wrapping_kind_rejected(self):
        spec = AdversarySpec("benign", inner=AdversarySpec("drop-all"))
        with pytest.raises(ConfigurationError, match="does not wrap"):
            spec.build(make_config(), SeededRng(1))
        with pytest.raises(ConfigurationError, match="does not wrap"):
            EnvironmentSpec(adversary=spec).validate()

    def test_deferring_partition_requires_partition_shaped_inner(self):
        spec = AdversarySpec("deferring-partition", inner=AdversarySpec("drop-all"))
        with pytest.raises(ConfigurationError, match="partition-shaped"):
            spec.build(make_config(), SeededRng(1))

    def test_deferring_partition_composes_over_gray_partition(self):
        from repro.env.adversaries import GrayPartitionAdversary

        spec = AdversarySpec(
            "deferring-partition",
            inner=AdversarySpec("gray-partition", {"partition": {"mode": "minority"}}),
        )
        adversary = spec.build(make_config(), SeededRng(1, label="net"))
        assert isinstance(adversary, DeferringPartitionAdversary)
        assert isinstance(adversary.inner, GrayPartitionAdversary)


class TestFaultBuilding:
    def test_none_is_empty(self):
        assert len(FaultSpec().build(make_config())) == 0

    def test_explicit_events(self):
        spec = FaultSpec(
            "explicit",
            {"events": [
                {"time": 2.0, "pid": 1, "kind": "crash"},
                {"time": 4.0, "pid": 1, "kind": "restart"},
            ]},
        )
        plan = spec.build(make_config())
        assert [event.kind.value for event in plan] == ["crash", "restart"]

    def test_explicit_malformed_event(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            FaultSpec("explicit", {"events": [{"time": 1.0}]}).build(make_config())

    def test_random_before_ts_matches_legacy_stream(self):
        from repro.env.faults import crash_before_stability

        config = make_config(n=7, seed=9)
        plan = FaultSpec("random-before-ts", {"allow_recovery": True}).build(config)
        legacy = crash_before_stability(config, {"allow_recovery": True})
        assert plan.events == legacy.events

    def test_churn_waves_marks_post_ts_crashes(self):
        config = make_config(n=5)
        spec = EnvironmentSpec(
            adversary=AdversarySpec("drop-all"),
            faults=FaultSpec("churn-waves", {"waves": 2}),
        )
        assert spec.allows_post_ts_crashes()
        plan = spec.build_fault_plan(config)
        plan.validate(config.n, ts=config.ts, allow_post_ts_crashes=True)
        with pytest.raises(ConfigurationError, match="no failures at or after"):
            plan.validate(config.n, ts=config.ts)

    def test_churn_rejects_majority_victims(self):
        config = make_config(n=5)
        with pytest.raises(ConfigurationError, match="majority"):
            FaultSpec("churn-waves", {"victims": [0, 1, 2]}).build(config)


def workload_environment(name: str) -> EnvironmentSpec:
    """The spec workload ``name`` writes at n=5 (its named environment)."""
    return WORKLOADS.create(name, n=5).environment


class TestEnvironmentRegistry:
    def test_workload_environments_validate(self):
        for name in sorted(set(WORKLOADS) - {"environment"}):
            spec = workload_environment(name)
            spec.validate()
            assert EnvironmentSpec.from_json(spec.to_json()) == spec

    def test_unknown_fault_kind_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind 'meteor'; available:"):
            FaultSpec("meteor").build(make_config())

    def test_validate_environment_checks_nested_params(self):
        spec = EnvironmentSpec(
            adversary=AdversarySpec(
                "worst-case-delay", inner=AdversarySpec("drop-all", {"oops": 1})
            )
        )
        with pytest.raises(ConfigurationError, match="does not accept parameters"):
            spec.validate()

    def test_describe_mentions_chain_and_faults(self):
        text = workload_environment("churn").describe()
        assert "drop-all" in text and "churn-waves" in text


class TestEnvironmentBuildDeterminism:
    def test_build_network_consumes_rng_like_the_legacy_closure(self):
        """The spec path must reproduce the legacy adversary chain bit for bit."""
        from repro.net.partition import minority_groups

        config = make_config(n=7, ts=8.0, seed=5)
        spec = EnvironmentSpec(
            adversary=AdversarySpec(
                "partition",
                {
                    "partition": {"mode": "minority"},
                    "leak_probability": 0.05,
                    "leak_past_ts": True,
                },
            )
        )
        network = spec.build_network(config, SeededRng(5, label="net"))
        adversary = network.model.adversary
        assert isinstance(adversary, PartitionAdversary)
        legacy_spec = minority_groups(7, SeededRng(5, label="net").fork("partition"))
        assert adversary.spec == legacy_spec
        assert adversary.leak_max_delay == config.ts + 2.0 * config.params.delta

    def test_environment_params_object_with_defaults(self):
        params = TimingParams()
        config = SimulationConfig(n=3, params=params, ts=0.0, seed=1, max_time=10.0)
        spec = EnvironmentSpec(adversary=AdversarySpec("benign"))
        network = spec.build_network(config, SeededRng(1))
        assert network.model.delta == params.delta
