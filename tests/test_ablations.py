"""Ablations of the protocol design choices, on partitioned-chaos runs.

* Original vs. modified B-Consensus: the Section 5 modification (round
  jumping, current-round-only retransmission) keeps liveness and sends no
  more messages than retransmitting everything.
* Session-timer length: the paper pins the session timer to Θ(δ); longer
  timers slow the recovery after ``TS``.
* Worst-case post-``TS`` delays: every delivery taking the full δ raises
  the lag but keeps it under ε + 3τ + 5δ.
* The ε keep-alive: with ε far above δ, recovery leans on session
  timeouts alone and is no faster.
"""

from repro.core.timing import decision_bound
from repro.harness.experiments import default_experiment_params
from repro.harness.runner import run_scenario
from repro.params import TimingParams
from repro.workloads.chaos import partitioned_chaos_scenario


def _lags_and_messages(protocol, scenarios):
    results = [run_scenario(scenario, protocol) for scenario in scenarios]
    return (
        [result.max_lag_after_ts() for result in results],
        [result.outcome.messages_sent for result in results],
    )


def test_bconsensus_modification_keeps_liveness_and_sends_no_more():
    params = default_experiment_params()
    scenarios = [
        partitioned_chaos_scenario(7, params=params, ts=8.0, seed=seed) for seed in (1, 2, 3)
    ]
    modified_lags, modified_msgs = _lags_and_messages("modified-b-consensus", scenarios)
    original_lags, original_msgs = _lags_and_messages("b-consensus", scenarios)
    assert all(lag is not None for lag in modified_lags + original_lags)
    assert sum(modified_msgs) <= sum(original_msgs) * 1.1


def test_longer_session_timer_slows_recovery():
    lags = {}
    for factor in (4.0, 8.0, 16.0):
        params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5, session_timeout_factor=factor)
        scenario = partitioned_chaos_scenario(7, params=params, ts=8.0, seed=2)
        lags[factor] = run_scenario(scenario, "modified-paxos").max_lag_after_ts()
    assert all(lag is not None for lag in lags.values())
    assert lags[16.0] > lags[4.0]


def test_worst_case_post_ts_delays_raise_the_lag_within_the_bound():
    params = default_experiment_params()
    lags = {}
    for worst in (False, True):
        lags[worst] = max(
            run_scenario(
                partitioned_chaos_scenario(
                    9, params=params, ts=8.0, seed=seed, worst_case_post_delays=worst
                ),
                "modified-paxos",
            ).max_lag_after_ts()
            for seed in (1, 2, 3)
        )
    assert lags[True] >= lags[False]
    assert lags[True] <= decision_bound(params)


def test_large_epsilon_keepalive_still_decides_but_no_faster():
    base = default_experiment_params()
    fast = partitioned_chaos_scenario(7, params=base, ts=8.0, seed=3)
    slow = partitioned_chaos_scenario(7, params=base.with_epsilon(8.0 * base.delta), ts=8.0, seed=3)
    fast_lag = run_scenario(fast, "modified-paxos").max_lag_after_ts()
    slow_lag = run_scenario(slow, "modified-paxos").max_lag_after_ts()
    assert fast_lag is not None and slow_lag is not None
    assert slow_lag >= fast_lag
