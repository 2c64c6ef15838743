"""Unit tests for the seeded randomness streams (`repro.sim.rng`)."""

import copy
import pickle
import random

import pytest

from repro.sim.rng import SeededRng, derive_seed


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))])
    def test_a_copy_replays_the_same_draws_from_its_own_stream(self, clone):
        rng = SeededRng(11)
        rng.random()
        twin = clone(rng)
        draws = [rng.random(), rng.delay(0.1, 1.0), rng.random(), rng.coin(0.5)]
        assert [twin.random(), twin.delay(0.1, 1.0), twin.random(), twin.coin(0.5)] == draws
        assert twin.random() == rng.random()

    def test_fork_is_deterministic(self):
        a = SeededRng(7).fork("net")
        b = SeededRng(7).fork("net")
        assert a.random() == b.random()

    def test_forks_with_different_labels_are_independent(self):
        root = SeededRng(7)
        a = root.fork("clocks")
        b = root.fork("faults")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_does_not_disturb_parent(self):
        root_a = SeededRng(3)
        root_b = SeededRng(3)
        root_a.fork("whatever")
        assert root_a.random() == root_b.random()

    def test_derive_seed_depends_on_label(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_derive_seed_fits_in_63_bits(self):
        for label in ("x", "y", "a-much-longer-label"):
            assert 0 <= derive_seed(123456, label) < 2**63


class TestHelpers:
    def test_clock_rate_within_rho(self):
        rng = SeededRng(0)
        for _ in range(100):
            rate = rng.clock_rate(0.05)
            assert 0.95 <= rate <= 1.05

    def test_clock_rate_zero_rho_is_exact(self):
        assert SeededRng(0).clock_rate(0.0) == 1.0

    def test_clock_rate_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            SeededRng(0).clock_rate(-0.1)

    def test_delay_within_bounds(self):
        rng = SeededRng(1)
        for _ in range(100):
            delay = rng.delay(0.2, 0.9)
            assert 0.2 <= delay <= 0.9

    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 5])
    def test_delay_draws_equal_random_uniform_bit_for_bit(self, seed):
        bounds = random.Random(f"bounds/{seed}")
        rng, reference = SeededRng(seed), random.Random(seed)
        for draw in range(10_000):
            low = bounds.choice([0.0, 0.05, 0.1, 1.0]) * bounds.uniform(0.0, 10.0)
            high = low if draw % 7 == 0 else low + bounds.choice([1e-9, 0.5, 1.0, 20.0])
            assert rng.delay(low, high) == reference.uniform(low, high), (draw, low, high)

    def test_delay_rejects_bad_bounds(self):
        rng = SeededRng(1)
        with pytest.raises(ValueError):
            rng.delay(-0.1, 1.0)
        with pytest.raises(ValueError):
            rng.delay(1.0, 0.5)

    def test_coin_probability_bounds(self):
        rng = SeededRng(2)
        with pytest.raises(ValueError):
            rng.coin(1.5)
        with pytest.raises(ValueError):
            rng.coin(-0.5)

    def test_coin_extremes(self):
        rng = SeededRng(2)
        assert all(not rng.coin(0.0) for _ in range(20))
        assert all(rng.coin(1.0) for _ in range(20))

    def test_pick_subset_size_clamped(self):
        rng = SeededRng(3)
        items = list(range(5))
        assert len(rng.pick_subset(items, size=10)) == 5
        assert rng.pick_subset(items, size=0) == []

    def test_pick_subset_members_come_from_items(self):
        rng = SeededRng(4)
        items = ["a", "b", "c", "d"]
        subset = rng.pick_subset(items, size=3)
        assert set(subset) <= set(items)
        assert len(set(subset)) == len(subset)

    def test_shuffle_preserves_elements(self):
        rng = SeededRng(5)
        items = list(range(10))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_repr_mentions_seed_and_label(self):
        rng = SeededRng(9, label="net")
        assert "9" in repr(rng)
        assert "net" in repr(rng)
