"""Ablation benchmarks for the protocol design choices.

* Original vs. modified B-Consensus: the Section 5 modification (round
  jumping + current-round-only retransmission) should not be slower and
  should send no more messages than retransmit-everything.
* Session-timer length: the 4δ minimum required by the paper versus longer
  timers — longer session timers inflate the decision lag roughly linearly,
  which is why the paper pins the timer to Θ(δ).
"""

from repro.harness.runner import run_scenario
from repro.harness.experiments import default_experiment_params
from repro.params import TimingParams
from repro.workloads.chaos import partitioned_chaos_scenario


def _run_many(protocol, scenarios, **kwargs):
    results = [run_scenario(scenario, protocol, **kwargs) for scenario in scenarios]
    lags = [result.max_lag_after_ts() for result in results]
    messages = [result.metrics.messages_sent for result in results]
    return lags, messages


def test_ablation_bconsensus_modification(benchmark):
    """Modified vs. original B-Consensus on the same chaos workloads."""
    params = default_experiment_params()
    scenarios = [
        partitioned_chaos_scenario(7, params=params, ts=8.0, seed=seed) for seed in (1, 2, 3)
    ]

    def run_pair():
        modified = _run_many("modified-b-consensus", scenarios)
        original = _run_many("b-consensus", scenarios)
        return modified, original

    (modified_lags, modified_msgs), (original_lags, original_msgs) = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    print()
    print("ablation: B-Consensus modification (3 seeds, n=7, partitioned chaos)")
    print(f"  modified : lag(delta)={[round(v, 2) for v in modified_lags]} msgs={modified_msgs}")
    print(f"  original : lag(delta)={[round(v, 2) for v in original_lags]} msgs={original_msgs}")
    assert all(lag is not None for lag in modified_lags + original_lags)
    # The modification must not lose liveness or cost more messages overall.
    assert sum(modified_msgs) <= sum(original_msgs) * 1.1


def test_ablation_session_timer_length(benchmark):
    """Longer session timers slow recovery roughly proportionally."""
    def run_sweep():
        lags = {}
        for factor in (4.0, 8.0, 16.0):
            params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5, session_timeout_factor=factor)
            scenario = partitioned_chaos_scenario(7, params=params, ts=8.0, seed=2)
            result = run_scenario(scenario, "modified-paxos")
            lags[factor] = result.max_lag_after_ts()
        return lags

    lags = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print("ablation: session timer factor -> decision lag after TS (delta units)")
    for factor, lag in lags.items():
        print(f"  {factor:>5.1f} * delta : {lag:.2f}")
    assert all(lag is not None for lag in lags.values())
    assert lags[16.0] > lags[4.0], "longer session timers must slow post-TS recovery"


def test_ablation_worst_case_post_ts_delays(benchmark):
    """Every post-TS delivery takes the full δ: lags rise but stay under the bound."""
    from repro.core.timing import decision_bound

    params = default_experiment_params()

    def run_pair():
        lags = {}
        for label, worst in (("random delays", False), ("worst-case delays", True)):
            per_seed = []
            for seed in (1, 2, 3):
                scenario = partitioned_chaos_scenario(
                    9, params=params, ts=8.0, seed=seed, worst_case_post_delays=worst
                )
                result = run_scenario(scenario, "modified-paxos")
                per_seed.append(result.max_lag_after_ts())
            lags[label] = max(per_seed)
        return lags

    lags = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    bound = decision_bound(params)
    print()
    print("ablation: post-TS delivery delays -> worst decision lag (delta units)")
    for label, lag in lags.items():
        print(f"  {label:18s}: {lag:.2f}  (bound {bound:.2f})")
    assert lags["worst-case delays"] >= lags["random delays"]
    assert lags["worst-case delays"] <= bound


def test_ablation_keepalive_disabled_equivalent(benchmark):
    """A very large ε (keep-alive effectively off) still decides, but slower.

    This isolates why the ε re-broadcast exists: with ε far above δ the
    post-stabilization recovery leans entirely on session timeouts.
    """
    def run_pair():
        base = default_experiment_params()
        fast = partitioned_chaos_scenario(7, params=base, ts=8.0, seed=3)
        slow_params = base.with_epsilon(8.0 * base.delta)
        slow = partitioned_chaos_scenario(7, params=slow_params, ts=8.0, seed=3)
        fast_lag = run_scenario(fast, "modified-paxos").max_lag_after_ts()
        slow_lag = run_scenario(slow, "modified-paxos").max_lag_after_ts()
        return fast_lag, slow_lag

    fast_lag, slow_lag = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print()
    print(f"ablation: epsilon=0.5*delta lag={fast_lag:.2f} vs epsilon=8*delta lag={slow_lag:.2f}")
    assert fast_lag is not None and slow_lag is not None
    assert slow_lag >= fast_lag
