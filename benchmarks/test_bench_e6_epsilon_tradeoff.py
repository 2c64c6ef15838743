"""E6 — The ε keep-alive: message complexity vs. recovery latency (claim C6).

Shape expectation: as ε grows, the per-process post-``TS`` message rate
falls (fewer keep-alives) while the analytic bound — and generally the
measured decision lag — grows once ``2δ + ε`` exceeds ``σ``.
"""

from repro.harness.experiments import experiment_e6_epsilon_tradeoff


def test_e6_epsilon_tradeoff(experiment_runner):
    table = experiment_runner(experiment_e6_epsilon_tradeoff)
    rates = table.column("post_ts_msgs_per_proc_per_delta")
    bounds = table.column("bound_delta")
    lags = table.column("max_lag_delta")
    assert all(value is not None for value in rates + bounds + lags)
    # Message rate falls by a large factor from the chattiest to the quietest setting.
    assert rates[0] > 3.0 * rates[-1]
    # The analytic bound is monotone non-decreasing in epsilon.
    assert all(b >= a - 1e-9 for a, b in zip(bounds, bounds[1:]))
    # Every measured lag still respects its own bound.
    assert all(lag <= bound for lag, bound in zip(lags, bounds))
