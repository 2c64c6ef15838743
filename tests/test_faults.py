"""Unit tests for fault plans (`repro.faults`) and the fault kinds built from specs."""

import math
import re

import pytest

from repro.env.spec import FaultSpec
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.sim.simulator import SimulationConfig
from tests.helpers import fault_events, make_params


def build_faults(kind, params=None, *, n=5, ts=10.0, delta=1.0, seed=0):
    """The fault plan of ``kind`` built from its spec for an ``n``-process run."""
    config = SimulationConfig(
        n=n, params=make_params(delta=delta), ts=ts, seed=seed, max_time=ts + 1000.0
    )
    return FaultSpec(kind, params or {}).build(config)


class TestFaultPlanConstruction:
    def test_events_sorted_by_time(self):
        plan = FaultPlan().crash(0, 5.0).crash(1, 2.0).restart(1, 3.0)
        times = [event.time for event in fault_events(plan)]
        assert times == sorted(times)
        assert len(fault_events(plan)) == 3

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        text = FaultPlan().crash(2, 1.5).describe()
        assert "crash p2" in text


class TestFaultPlanGrowth:
    """Building a plan one fluent call at a time costs O(n log n) comparisons.

    Each ``crash``/``restart`` inserts with :func:`bisect.insort`, about
    log2(n) comparisons of ``FaultEvent``s; re-sorting the whole list on
    every insert costs O(n) each, O(n²) in all.  The count, not the time,
    is the check, so a loaded machine cannot fail it.
    """

    @staticmethod
    def _build_plan(num_events):
        plan = FaultPlan()
        # Alternate crash/restart per pid in ascending time order, the
        # pattern every schedule generator produces.
        for index in range(num_events // 2):
            pid = index % 64
            plan.crash(pid, float(index))
            plan.restart(pid, index + 0.5)
        return plan

    def test_fluent_construction_makes_n_log_n_comparisons(self, monkeypatch):
        compare = FaultEvent.__lt__
        counts = {}
        for num_events in (20_000, 40_000):
            ceiling = num_events * math.log2(num_events)
            calls = 0

            def counting_lt(self, other):
                nonlocal calls
                calls += 1
                # Stop a quadratic build early instead of waiting it out.
                if calls > ceiling:
                    raise AssertionError(
                        f"a {num_events}-event plan took over {ceiling:.0f} comparisons to build"
                    )
                return compare(self, other)

            monkeypatch.setattr(FaultEvent, "__lt__", counting_lt)
            plan = self._build_plan(num_events)
            counts[num_events] = calls
            times = [event.time for event in fault_events(plan)]
            assert len(fault_events(plan)) == num_events and times == sorted(times)
        # Doubling n about doubles the count (2.16x for n log n; 4x if quadratic).
        assert counts[40_000] < 2.5 * counts[20_000]


class TestStateQueries:
    def test_crashed_at_follows_crash_restart_sequence(self):
        plan = FaultPlan().crash(0, 1.0).restart(0, 3.0).crash(1, 2.0)
        assert plan.crashed_at(0.5) == set()
        assert plan.crashed_at(1.5) == {0}
        assert plan.crashed_at(2.5) == {0, 1}
        assert plan.crashed_at(3.5) == {1}

    def test_final_down(self):
        plan = FaultPlan().crash(0, 1.0).restart(0, 2.0).crash(1, 1.5)
        assert plan.final_down() == {1}


class TestValidation:
    def test_valid_plan_passes(self):
        plan = FaultPlan().crash(0, 1.0).restart(0, 2.0)
        plan.validate(n=3, ts=5.0)

    def test_crash_after_ts_rejected(self):
        plan = FaultPlan().crash(0, 6.0)
        with pytest.raises(ConfigurationError):
            plan.validate(n=3, ts=5.0)

    def test_restart_after_ts_allowed(self):
        plan = FaultPlan().crash(0, 1.0).restart(0, 9.0)
        plan.validate(n=3, ts=5.0)

    def test_double_crash_rejected(self):
        plan = FaultPlan().crash(0, 1.0).crash(0, 2.0)
        with pytest.raises(ConfigurationError):
            plan.validate(n=3)

    def test_restart_of_running_process_rejected(self):
        plan = FaultPlan().restart(0, 1.0)
        with pytest.raises(ConfigurationError):
            plan.validate(n=3)

    def test_unknown_pid_rejected(self):
        plan = FaultPlan().crash(7, 1.0)
        with pytest.raises(ConfigurationError):
            plan.validate(n=3)

    def test_majority_must_be_up_at_ts(self):
        plan = FaultPlan().crash(0, 1.0).crash(1, 1.5)
        with pytest.raises(ConfigurationError):
            plan.validate(n=3, ts=5.0)
        plan_ok = FaultPlan().crash(0, 1.0)
        plan_ok.validate(n=3, ts=5.0)

    @pytest.mark.parametrize("time", [-1.0, -1e-9, float("inf"), float("-inf"), float("nan")])
    def test_crash_outside_the_run_rejected_naming_the_event(self, time):
        with pytest.raises(ConfigurationError, match=re.escape(f"fault event crash p1 @ {time:g} ")):
            FaultPlan().crash(1, time).validate(n=3)

    def test_restart_before_the_run_rejected_naming_the_event(self):
        with pytest.raises(ConfigurationError, match="fault event restart p1 @ -0.5 "):
            FaultPlan().crash(1, 1.0).restart(1, -0.5).validate(n=3)

    def test_time_zero_allowed(self):
        FaultPlan().crash(0, 0.0).restart(0, 1.0).validate(n=3, ts=5.0)

    def test_without_ts_majority_not_enforced(self):
        plan = FaultPlan().crash(0, 1.0).crash(1, 1.5)
        plan.validate(n=3)

    def test_majority_boundary_n4_two_down_at_ts_rejected(self):
        # n=4 needs a majority of 3 up at ts: two processes down is exactly
        # one too many, one down is exactly at the boundary and fine.
        two_down = FaultPlan().crash(0, 1.0).crash(1, 2.0)
        with pytest.raises(ConfigurationError, match="majority"):
            two_down.validate(n=4, ts=5.0)
        one_down = FaultPlan().crash(0, 1.0)
        one_down.validate(n=4, ts=5.0)
        # A pre-ts recovery of one of the two keeps 3 up at ts.
        recovered = FaultPlan().crash(0, 1.0).crash(1, 2.0).restart(1, 3.0)
        recovered.validate(n=4, ts=5.0)


class TestPostTsChurnValidation:
    def test_post_ts_crash_allowed_only_with_flag(self):
        plan = FaultPlan().crash(0, 2.0).restart(0, 6.0).crash(0, 7.0).restart(0, 8.0)
        with pytest.raises(ConfigurationError, match="no failures at or after"):
            plan.validate(n=3, ts=5.0)
        plan.validate(n=3, ts=5.0, allow_post_ts_crashes=True)

    def test_churn_below_majority_rejected_even_with_flag(self):
        # Two of three down at once after ts dips below the majority.
        plan = (
            FaultPlan()
            .crash(0, 6.0)
            .crash(1, 6.5)
            .restart(0, 7.0)
            .restart(1, 7.5)
        )
        with pytest.raises(ConfigurationError, match="majority"):
            plan.validate(n=3, ts=5.0, allow_post_ts_crashes=True)

    def test_staggered_churn_keeping_majority_accepted(self):
        plan = (
            FaultPlan()
            .crash(0, 6.0)
            .restart(0, 7.0)
            .crash(1, 7.5)
            .restart(1, 8.5)
        )
        plan.validate(n=3, ts=5.0, allow_post_ts_crashes=True)


class TestSchedules:
    def test_crash_forever(self):
        plan = build_faults("crash-forever", {"pids": [3, 4], "time": 2.0})
        assert plan.final_down() == {3, 4}
        assert all(event.kind is FaultKind.CRASH for event in fault_events(plan))

    def test_staggered_restarts_order_and_spacing(self):
        plan = build_faults(
            "staggered-restarts",
            {"pids": [5, 6], "crash_time": 1.0, "first_restart": 10.0, "spacing": 2.0},
            n=8,
        )
        restarts = [event for event in fault_events(plan) if event.kind is FaultKind.RESTART]
        assert [(event.pid, event.time) for event in restarts] == [(5, 10.0), (6, 12.0)]
        plan.validate(n=8, ts=5.0)

    def test_staggered_restarts_rejects_negative_spacing(self):
        with pytest.raises(ConfigurationError):
            build_faults(
                "staggered-restarts",
                {"pids": [0], "crash_time": 1.0, "first_restart": 2.0, "spacing": -1.0},
            )

    @pytest.mark.parametrize("n", [3, 5, 7, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crash_before_stability_is_always_valid(self, n, seed):
        plan = build_faults("random-before-ts", n=n, ts=10.0, seed=seed)
        plan.validate(n=n, ts=10.0)

    def test_crash_before_stability_respects_max_faulty(self):
        plan = build_faults("random-before-ts", {"max_faulty": 1}, n=7, ts=10.0, seed=1)
        assert len({event.pid for event in fault_events(plan)}) <= 1

    def test_crash_before_stability_requires_positive_ts(self):
        with pytest.raises(ConfigurationError):
            build_faults("random-before-ts", n=5, ts=0.0)

    def test_crash_before_stability_tiny_system_is_empty(self):
        assert build_faults("random-before-ts", n=1, ts=5.0).describe() == "no faults"

    def test_churn_waves_shape(self):
        plan = build_faults("churn-waves", {"victims": [3, 4], "first_offset": 2.0, "up_time": 1.0,
                                            "down_time": 2.0, "waves": 2, "stagger": 0.5})
        # Per victim: one pre-ts crash, `waves` restarts, `waves - 1` churn crashes.
        crashes = [e for e in fault_events(plan) if e.kind is FaultKind.CRASH]
        restarts = [e for e in fault_events(plan) if e.kind is FaultKind.RESTART]
        assert len(crashes) == 2 * 2 and len(restarts) == 2 * 2
        assert plan.final_down() == set()  # every victim ends up
        plan.validate(n=5, ts=10.0, allow_post_ts_crashes=True)
        # Stagger shifts the second victim's waves by 0.5 delta.
        p3 = [e.time for e in fault_events(plan) if e.pid == 3 and e.kind is FaultKind.RESTART]
        p4 = [e.time for e in fault_events(plan) if e.pid == 4 and e.kind is FaultKind.RESTART]
        assert [round(b - a, 9) for a, b in zip(p3, p4)] == [0.5, 0.5]

    def test_churn_waves_validation(self):
        with pytest.raises(ConfigurationError):
            build_faults("churn-waves", {"victims": [0]}, ts=0.0)
        with pytest.raises(ConfigurationError):
            build_faults("churn-waves", {"victims": [0], "waves": 0})
        with pytest.raises(ConfigurationError):
            build_faults("churn-waves", {"victims": [0], "up_time": 0.0})
        with pytest.raises(ConfigurationError):
            build_faults("churn-waves", {"victims": [0], "pre_ts_crash_fraction": 1.0})


class TestFaultEvent:
    def test_ordering_and_describe(self):
        early = FaultEvent(time=1.0, pid=0, kind=FaultKind.CRASH)
        late = FaultEvent(time=2.0, pid=0, kind=FaultKind.RESTART)
        assert early < late
        assert "crash p0" in early.describe()

    @pytest.mark.parametrize("first", [FaultKind.CRASH, FaultKind.RESTART])
    def test_a_crash_orders_before_a_restart_of_the_same_pid_at_the_same_time(self, first):
        second = FaultKind.RESTART if first is FaultKind.CRASH else FaultKind.CRASH
        plan = FaultPlan([FaultEvent(1.0, 0, first), FaultEvent(1.0, 0, second)])
        assert [event.kind for event in fault_events(plan)] == [FaultKind.CRASH, FaultKind.RESTART]
        plan.validate(n=3, ts=5.0)
        built = FaultPlan()
        getattr(built, first.value)(0, 1.0)
        getattr(built, second.value)(0, 1.0)
        assert fault_events(built) == fault_events(plan)
