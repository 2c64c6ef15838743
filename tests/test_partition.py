"""Unit tests for partition specifications (`repro.net.partition`)."""

import copy
import json
import pickle

import pytest

from repro.env.spec import AdversarySpec, EnvironmentSpec
from repro.errors import ConfigurationError
from repro.net.partition import PartitionSpec, minority_groups
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig


class TestPartitionSpec:
    def test_connected_within_group(self):
        spec = PartitionSpec.of([[0, 1], [2, 3, 4]])
        assert 1 in spec.reachable(0)
        assert 4 in spec.reachable(3)
        assert 2 not in spec.reachable(1)

    def test_self_connection_always_allowed(self):
        spec = PartitionSpec.of([[0], [1]])
        assert 0 in spec.reachable(0)

    def test_unlisted_pid_is_isolated(self):
        spec = PartitionSpec.of([[0, 1]])
        assert 0 not in spec.reachable(2)
        assert 2 not in spec.reachable(0)

    def test_duplicate_pid_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionSpec.of([[0, 1], [1, 2]])

    def test_groups_are_sorted(self):
        spec = PartitionSpec.of([[3, 1], [2, 0]])
        assert spec.groups == ((1, 3), (0, 2))

    def test_blocks_majority(self):
        blocking = PartitionSpec.of([[0, 1], [2, 3], [4]])
        assert blocking.blocks_majority(5)
        allowing = PartitionSpec.of([[0, 1, 2], [3, 4]])
        assert not allowing.blocks_majority(5)

    def test_largest_group_size(self):
        spec = PartitionSpec.of([[0], [1, 2, 3], [4, 5]])
        assert spec.largest_group_size() == 3
        assert PartitionSpec.of([]).largest_group_size() == 0


class TestPartitionSpecValueSemantics:
    """The pid -> reachable-set table is a cache: the value is still just ``groups``."""

    def test_reachable_matches_a_scan_of_the_groups(self):
        spec = minority_groups(15, SeededRng(4))

        def scanned(pid):
            return next((i for i, group in enumerate(spec.groups) if pid in group), -1)

        for pid in range(-1, 17):
            for other in range(-1, 17):
                assert (other in spec.reachable(pid)) == (
                    pid == other or (scanned(pid) >= 0 and scanned(pid) == scanned(other))
                )

    def test_equality_hash_and_repr_cover_groups_only(self):
        spec = PartitionSpec.of([[1, 0], [2]])
        assert spec == PartitionSpec(((0, 1), (2,)))
        assert spec != PartitionSpec.of([[0], [1, 2]])
        assert hash(spec) == hash((((0, 1), (2,)),))
        assert repr(spec) == "PartitionSpec(groups=((0, 1), (2,)))"

    def test_pickle_and_copy_round_trip(self):
        spec = PartitionSpec.of([[0, 3], [1], [2, 4]])
        assert spec.__reduce_ex__(2)[2] == {"groups": spec.groups}
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert clone == spec and hash(clone) == hash(spec)
            assert 3 in clone.reachable(0) and 1 not in clone.reachable(0)
            assert 4 in clone.reachable(2) and 4 not in clone.reachable(1)

    def test_environment_spec_json_round_trip(self):
        env = EnvironmentSpec(
            name="split",
            adversary=AdversarySpec(
                "partition", {"partition": {"mode": "explicit", "groups": [[0, 1], [2, 3, 4]]}}
            ),
        )
        restored = EnvironmentSpec.from_dict(json.loads(env.to_json()))
        assert restored == env
        assert restored.to_json() == env.to_json()
        config = SimulationConfig(n=5, ts=10.0, seed=3, max_time=110.0)
        built = [e.adversary.build(config, SeededRng(1, label="net")) for e in (env, restored)]
        assert built[0].spec == built[1].spec == PartitionSpec.of([[0, 1], [2, 3, 4]])


class TestMinorityGroups:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 15, 31])
    def test_every_process_in_exactly_one_group(self, n):
        spec = minority_groups(n, SeededRng(n))
        assert sorted(pid for group in spec.groups for pid in group) == list(range(n))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 15, 31])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_group_holds_a_majority(self, n, seed):
        spec = minority_groups(n, SeededRng(seed))
        assert spec.blocks_majority(n)

    def test_requires_at_least_two_processes(self):
        with pytest.raises(ConfigurationError):
            minority_groups(1, SeededRng(0))

    def test_deterministic_for_a_seed(self):
        assert minority_groups(9, SeededRng(5)).groups == minority_groups(9, SeededRng(5)).groups
