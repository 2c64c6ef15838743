"""Invariant-checked tests for the environment-driven scenario families.

Covers the three families the environment layer introduces (asymmetric
links, gray partitions, post-``TS`` churn), the generic ``environment``
workload, the resolved-spec recording in :class:`RunOutcome`, and the CLI
``run --env`` / ``list-environments`` paths, including malformed ``--env``
input.
"""

import json

import pytest

from repro.cli import main
from repro.env.spec import EnvironmentSpec
from repro.errors import ConfigurationError
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.runner import run_scenario
from repro.net.message import Era
from repro.sim.rng import SeededRng
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    environment_scenario,
    gray_partition_scenario,
    resolve_environment,
)
from repro.workloads.registry import WORKLOADS

from tests.helpers import capture_sent_envelopes, make_params

PARAMS = make_params()


class TestAsymmetricLink:
    def test_decides_and_slow_links_crawl_pre_ts(self, monkeypatch):
        envelopes = capture_sent_envelopes(monkeypatch)
        scenario = asymmetric_link_scenario(5, params=PARAMS, seed=3, hub=0)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.safety.valid
        delta = PARAMS.delta
        slow = [e for e in envelopes
                if e.era is Era.PRE and e.latency is not None
                and (e.src == 0) != (e.dst == 0)]
        fast = [e for e in envelopes
                if e.era is Era.PRE and e.latency is not None
                and e.src != 0 and e.dst != 0]
        assert slow and fast
        # Slow links take [delta, 4 delta]; fast links stay within delta.
        assert min(e.latency for e in slow) >= delta - 1e-9
        assert max(e.latency for e in slow) <= 4.0 * delta + 1e-9
        assert max(e.latency for e in fast) <= delta + 1e-9

    def test_post_ts_slow_link_pinned_to_delta_fast_links_random(self):
        from repro.core.messages import Phase1a
        from repro.net.message import Envelope

        scenario = asymmetric_link_scenario(5, params=PARAMS, seed=3, hub=0)
        network = scenario.build_network(scenario.config, SeededRng(3, label="net"))
        model = network.model
        adversary = model.adversary
        assert adversary.is_slow(0, 2) and adversary.is_slow(2, 0)
        assert not adversary.is_slow(1, 2)
        now = scenario.config.ts + 1.0
        delta = PARAMS.delta

        def fate(src, dst):
            envelope = Envelope(
                message=Phase1a(mbal=0), src=src, dst=dst, send_time=now, era=Era.POST
            )
            return model.fate(envelope, now, SeededRng(9)) - now

        # Slow links are stretched to exactly the bound; never beyond it.
        assert fate(0, 2) == pytest.approx(delta)
        assert fate(2, 0) == pytest.approx(delta)
        fast_delays = [fate(1, 2) for _ in range(20)]
        assert all(d <= delta + 1e-9 for d in fast_delays)
        assert min(fast_delays) < 0.99 * delta

    def test_leaderless_protocol_is_hub_insensitive(self):
        # The hub choice must not break decisions for any protocol.
        for hub in (0, 4):
            scenario = asymmetric_link_scenario(5, params=PARAMS, seed=7, hub=hub)
            result = run_scenario(scenario, "modified-paxos")
            assert result.decided_all

    def test_hub_must_be_a_pid(self):
        with pytest.raises(ConfigurationError):
            asymmetric_link_scenario(3, params=PARAMS, hub=7)

    @pytest.mark.parametrize("params, message", [
        ({"hub": 9}, r"hub must be a pid in \[0, 3\), got 9"),
        ({"hub": -1}, r"hub must be a pid in \[0, 3\), got -1"),
        ({"links": [[0, 9]]}, r"link endpoint must be a pid in \[0, 3\), got 9"),
    ])
    def test_spec_pids_are_checked_when_the_network_is_built(self, params, message):
        from repro.env.spec import AdversarySpec

        scenario = asymmetric_link_scenario(3, params=PARAMS, seed=1)
        spec = EnvironmentSpec(adversary=AdversarySpec("asymmetric-link", params))
        with pytest.raises(ConfigurationError, match=message):
            spec.build_network(scenario.config, SeededRng(1, label="net"))


class TestGrayPartition:
    def test_decides_with_invariants(self):
        scenario = gray_partition_scenario(5, params=PARAMS, seed=3)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.safety.valid

    def test_healing_is_monotone(self):
        scenario = gray_partition_scenario(5, params=PARAMS, seed=3, heal_start=0.5)
        network = scenario.build_network(scenario.config, SeededRng(3, label="net"))
        adversary = network.model.adversary
        ts = scenario.config.ts
        probes = [adversary.drop_probability_at(t) for t in
                  (0.0, 0.25 * ts, 0.5 * ts, 0.75 * ts, ts, 2.0 * ts)]
        assert probes[0] == probes[1] == 1.0  # total before healing starts
        assert all(a >= b for a, b in zip(probes, probes[1:]))  # monotone heal
        assert probes[-1] == 0.0  # fully healed at TS

    def test_cross_group_messages_heal_through(self, monkeypatch):
        envelopes = capture_sent_envelopes(monkeypatch)
        scenario = gray_partition_scenario(6, params=PARAMS, seed=11)
        result = run_scenario(scenario, "modified-paxos")
        adversary = result.simulator.network.model.adversary
        spec = adversary.spec
        cross = [e for e in envelopes
                 if e.era is Era.PRE and not spec.connected(e.src, e.dst)]
        delivered = [e for e in cross if not e.dropped]
        dropped = [e for e in cross if e.dropped]
        # A gray partition is neither total (some cross messages get through
        # during healing) nor absent (the early phase drops everything).
        assert delivered and dropped

    def test_with_crashes_keeps_model_valid(self):
        scenario = gray_partition_scenario(7, params=PARAMS, seed=5, with_crashes=True)
        scenario.fault_plan.validate(7, ts=scenario.config.ts)
        result = run_scenario(scenario, "modified-paxos")
        assert result.safety.valid


class TestChurn:
    def test_full_wave_schedule_plays_out(self):
        scenario = churn_scenario(5, params=PARAMS, seed=3, waves=3)
        result = run_scenario(scenario, "modified-paxos", run_until_decided=False)
        assert result.safety.valid
        assert result.decided_all
        victims = sorted(scenario.fault_plan.pids_touched())
        for victim in victims:
            restarts = result.simulator.trace.filter(
                event="restart", category="node", pid=victim
            )
            assert len(list(restarts)) == 3  # every wave executed

    def test_churn_delays_victim_decisions_past_the_last_restart(self):
        scenario = churn_scenario(5, params=PARAMS, seed=3, waves=2)
        result = run_scenario(scenario, "modified-paxos", run_until_decided=False)
        victims = sorted(scenario.fault_plan.pids_touched())
        decided_values = {r.value for r in result.simulator.all_decisions}
        assert len(decided_values) == 1  # uniform agreement across churn
        for victim in victims:
            # The waves bite: the victim's up-windows are too short to decide
            # in, so its (only) decision lands after its final restart.
            last_restart = max(
                event.time for event in scenario.fault_plan
                if event.pid == victim and event.kind.value == "restart"
            )
            decisions = [r for r in result.simulator.all_decisions if r.pid == victim]
            assert decisions
            assert min(r.time for r in decisions) > last_restart

    def test_plan_is_rejected_under_the_strict_model(self):
        scenario = churn_scenario(5, params=PARAMS, seed=3)
        assert scenario.allow_post_ts_crashes
        with pytest.raises(ConfigurationError, match="no failures at or after"):
            scenario.fault_plan.validate(5, ts=scenario.config.ts)

    def test_majority_always_up(self):
        scenario = churn_scenario(7, params=PARAMS, seed=1, waves=3)
        plan = scenario.fault_plan
        times = sorted({event.time for event in plan})
        for time in times:
            assert 7 - len(plan.crashed_at(time)) >= 4

    def test_tiny_system_rejected(self):
        with pytest.raises(ConfigurationError):
            churn_scenario(2, params=PARAMS)

    def test_churn_runs_under_the_smr_runner(self):
        # The SMR entry point validates the fault plan too — it must honor
        # the scenario's allow_post_ts_crashes flag like the consensus runner.
        from repro.smr.runner import run_smr
        from repro.smr.workload import uniform_schedule

        scenario = churn_scenario(5, params=PARAMS, seed=3, waves=2)
        schedule = uniform_schedule(
            5, 3, start=scenario.config.ts + 0.5, interval=2.0, target_pid=0
        )
        result = run_smr(scenario, schedule)
        assert result.replicas_agree


class TestEnvironmentWorkload:
    def test_workload_resolves_an_inline_spec(self):
        env = {"adversary": {"kind": "worst-case-delay", "inner": {"kind": "drop-all"}}}
        scenario = WORKLOADS.create("environment", n=5, env=env, params=PARAMS, seed=2)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all

    def test_inline_dict_resolution(self):
        env = {"adversary": {"kind": "drop-all"}}
        scenario = environment_scenario(env, n=3, params=PARAMS, seed=1)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all

    @pytest.mark.parametrize("env", [42, "churn"])
    def test_resolve_environment_rejects_other_types(self, env):
        with pytest.raises(ConfigurationError, match="pass an EnvironmentSpec or a spec dict"):
            resolve_environment(env)

    def test_outcome_carries_resolved_spec(self):
        churn = WORKLOADS.create("churn", n=5, params=PARAMS).environment
        scenario = environment_scenario(churn, n=5, params=PARAMS, seed=4)
        result = run_scenario(scenario, "modified-paxos")
        recorded = result.outcome().extra["environment"]
        assert EnvironmentSpec.from_dict(recorded) == scenario.environment
        # The recorded spec is JSON-safe end to end.
        assert EnvironmentSpec.from_json(json.dumps(recorded)) == scenario.environment

    def test_experiment_rows_expose_environment(self):
        spec = ExperimentSpec(
            workload="environment",
            protocols=("modified-paxos",),
            seeds=(1,),
            base={"n": 3, "env": {"adversary": {"kind": "drop-all"}}, "params": PARAMS},
        )
        results = run_experiment(spec)
        assert len(results) == 1
        row = results.rows[0]
        assert row.environment is not None
        assert EnvironmentSpec.from_dict(row.environment).adversary.kind == "drop-all"

    def test_scenario_without_network_source_rejected(self):
        from repro.sim.simulator import SimulationConfig
        from repro.workloads.scenario import Scenario

        config = SimulationConfig(n=3, params=PARAMS, ts=0.0, seed=1, max_time=100.0)
        with pytest.raises(TypeError, match="environment"):
            Scenario(name="empty", config=config)


class TestCli:
    def test_run_with_inline_json(self, capsys):
        env = json.dumps({"adversary": {"kind": "drop-all"}})
        exit_code = main(["run", "--env", env, "--n", "3", "--seed", "1"])
        assert exit_code == 0
        assert "decided" in capsys.readouterr().out

    @pytest.mark.parametrize("params, message", [
        ({"hub": 9}, "hub must be a pid in [0, 3), got 9"),
        ({"links": [[0, 9]]}, "link endpoint must be a pid in [0, 3), got 9"),
    ])
    def test_run_rejects_asymmetric_link_pids_outside_the_system(self, capsys, params, message):
        env = json.dumps({"adversary": {"kind": "asymmetric-link", "params": params}})
        assert main(["run", "--env", env, "--n", "3"]) == 2
        assert capsys.readouterr().out.strip() == message

    def test_run_rejects_a_fault_plan_naming_an_unknown_pid(self, capsys):
        env = json.dumps({
            "adversary": {"kind": "drop-all"},
            "faults": {"kind": "crash-forever", "params": {"pids": [7], "time": 1}},
        })
        assert main(["run", "--env", env, "--n", "3"]) == 2
        assert capsys.readouterr().out.strip() == "fault event references unknown pid 7"

    @pytest.mark.parametrize("env", ["churn", "atlantis", '{"adversary": ', '"churn"', "[1, 2]"])
    def test_run_with_a_name_or_non_object_points_at_workloads(self, capsys, env):
        assert main(["run", "--env", env, "--n", "3"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "--env takes an EnvironmentSpec JSON object; "
            "to run a named environment use --workload NAME"
        ]

    @pytest.mark.parametrize("env, message", [
        ({"adversary": {"kind": "drop-all"}, "synchrony": []},
         "SynchronySpec must be a JSON object, got list"),
        ({"adversary": {"kind": "drop-all", "params": [1]}},
         "AdversarySpec params must be a JSON object, got list"),
        ({"adversary": "drop-all"}, "AdversarySpec must be a JSON object, got str"),
        ({"adversary": {"kind": ["drop-all"]}}, "AdversarySpec kind must be a string, got list"),
        ({"adversary": {"kind": "drop-all"}, "faults": {"kind": ["none"]}},
         "FaultSpec kind must be a string, got list"),
        ({"adversary": {"kind": "partition", "params": {"partition": "minority"}}},
         "PartitionDecl must be a JSON object, got str"),
        ({"adversary": {"kind": "drop-all"}, "faults": {"kind": "none", "params": "x"}},
         "FaultSpec params must be a JSON object, got str"),
        ({"adversary": {"kind": "drop-all"}, "name": 5},
         "EnvironmentSpec name must be a string, got int"),
        ({"adversary": {"kind": "drop-all"}, "notes": ["x"]},
         "EnvironmentSpec notes must be a string, got list"),
    ])
    def test_run_rejects_malformed_spec_json_in_one_line(self, capsys, env, message):
        assert main(["run", "--env", json.dumps(env), "--n", "3"]) == 2
        assert capsys.readouterr().out.splitlines() == [message]

    def test_list_environments(self, capsys):
        exit_code = main(["list-environments"])
        out = capsys.readouterr().out
        assert exit_code == 0
        # Only the primitives: the named environments are workloads.
        assert out.startswith("adversary primitives")
        for name in ("asymmetric-link", "gray-partition", "churn"):
            assert name in out
        assert "adversary primitives" in out
        assert "fault-schedule primitives" in out
