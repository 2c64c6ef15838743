"""Obsolete high-ballot workload (experiment E2, the Section 2 argument).

The scenario installs a reachable pre-stabilization state for traditional
Paxos in which ``k`` processes crashed before ``TS`` after announcing
anomalously high ballots (the paper's "messages with higher mbal fields that
were sent by processes that have since failed").  Those phase 1a messages
are still in flight after ``TS`` and the adversary — which controls the
delivery time of every message sent before ``TS`` — releases them one at a
time, each aimed at every acceptor except the post-stabilization leader, and
each timed to land just after the leader has committed to a new ballot
(right when its phase 2a goes out).  Every release therefore forces one more
rejection/retry cycle on the leader, which is exactly the ``O(Nδ)``
behaviour the paper describes.

Two details are worth calling out:

* **Reachability.**  Traditional Paxos lets a self-believed leader "increase
  mbal[p] to an arbitrary value congruent to p mod N"; before ``TS`` the
  crashed processes believed themselves leaders (the Ω oracle may answer
  arbitrarily before stabilization) and chose those ballots, so the injected
  messages correspond to a legal pre-``TS`` history.
* **Adaptivity.**  The release times depend on the execution (the adversary
  watches the leader and releases the next obsolete ballot when the current
  attempt reaches phase 2).  This is allowed: the model places *no*
  constraint on when a pre-``TS`` message is delivered, so a worst-case
  adversary may schedule deliveries with full knowledge of the run.  When
  the protocol under test is not traditional Paxos (no proposer state to
  watch), the controller falls back to a fixed release schedule.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.messages import Phase1a
from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workloads.scenario import Scenario

__all__ = ["obsolete_ballot_scenario"]


class _ObsoleteReleaseController:
    """Adaptive adversary releasing one obsolete ballot per leader attempt."""

    def __init__(
        self,
        simulator: Simulator,
        leader: int,
        owners: List[int],
        count: int,
        ballot_stride: int,
        poll_interval: float,
        arrival_lead: float,
        fallback_gap: float,
    ) -> None:
        self.simulator = simulator
        self.leader = leader
        self.owners = owners
        self.count = count
        self.ballot_stride = ballot_stride
        self.poll_interval = poll_interval
        self.arrival_lead = arrival_lead
        self.fallback_gap = fallback_gap
        self.released = 0
        self.last_ruined_ballot = -1

    def install(self) -> None:
        start = self.simulator.config.ts + 0.5 * self.poll_interval
        self.simulator.schedule_at(start, self._poll, label="obsolete-adversary")

    # -- internals ---------------------------------------------------------------
    def _poll(self) -> None:
        if self.released >= self.count or self.simulator.has_decided(self.leader):
            return
        attempt = self._leader_attempt()
        if attempt is None:
            # Not traditional Paxos: degrade to a fixed-schedule release.
            self._release_all_on_schedule()
            return
        if attempt.phase2a_sent and attempt.ballot > self.last_ruined_ballot:
            self._release(above_ballot=attempt.ballot)
            self.last_ruined_ballot = attempt.ballot
        self.simulator.schedule_in(self.poll_interval, self._poll, label="obsolete-adversary")

    def _leader_attempt(self):
        node = self.simulator.nodes[self.leader]
        proposer = getattr(node.process, "proposer", None)
        return getattr(proposer, "attempt", None)

    def _release(self, above_ballot: int) -> None:
        n = self.simulator.config.n
        owner = self.owners[self.released % len(self.owners)]
        floor = max(above_ballot, (self.released + 1) * self.ballot_stride * n)
        ballot = ((floor // n) + 1) * n + owner
        now = self.simulator.now()
        message = Phase1a(mbal=ballot)
        for dst in range(n):
            if dst == self.leader or dst == owner:
                continue
            self.simulator.network.inject(
                message, src=owner, dst=dst, deliver_time=now + self.arrival_lead, send_time=0.0
            )
        self.simulator.trace.record(
            now, "net", "obsolete_release", pid=owner, ballot=ballot, index=self.released
        )
        self.released += 1

    def _release_all_on_schedule(self) -> None:
        while self.released < self.count:
            delay = self.released * self.fallback_gap + self.arrival_lead
            index = self.released
            owner = self.owners[index % len(self.owners)]
            n = self.simulator.config.n
            ballot = ((index + 1) * self.ballot_stride + 1) * n + owner
            now = self.simulator.now()
            message = Phase1a(mbal=ballot)
            for dst in range(n):
                if dst == self.leader or dst == owner:
                    continue
                self.simulator.network.inject(
                    message, src=owner, dst=dst, deliver_time=now + delay, send_time=0.0
                )
            self.released += 1


def obsolete_ballot_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    num_obsolete: Optional[int] = None,
    ballot_stride: int = 1_000,
    poll_interval_factor: float = 0.05,
    max_time: Optional[float] = None,
) -> Scenario:
    """Build the obsolete-high-ballot adversarial scenario.

    Args:
        n: Number of processes (at least 3).
        params: Timing constants.
        ts: Stabilization time; defaults to ``5δ``.
        num_obsolete: How many obsolete ballots surface after ``TS``;
            defaults to the maximum the model allows, ``⌈N/2⌉ − 1`` (one per
            crashed process).
        ballot_stride: Controls how far apart the crafted ballots are; must
            comfortably exceed anything the leader can reach between releases.
        poll_interval_factor: How often (in δ) the adaptive adversary checks
            the leader's progress.
    """
    if n < 3:
        raise ConfigurationError("obsolete_ballot_scenario needs n >= 3")
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 5.0 * params.delta
    majority = n // 2 + 1
    max_victims = n - majority
    victims = list(range(n - max_victims, n))  # highest-id processes crash
    k = num_obsolete if num_obsolete is not None else max_victims
    if not 0 <= k <= max_victims:
        raise ConfigurationError(
            f"num_obsolete must be in [0, {max_victims}] to keep a majority alive, got {k}"
        )
    if ballot_stride < n:
        raise ConfigurationError("ballot_stride must be at least n")

    delta = params.delta
    # Generous horizon: the whole point is that the decision takes O(k·δ).
    horizon = max_time if max_time is not None else ts + (6.0 * k + 80.0) * delta
    config = SimulationConfig(n=n, params=params, ts=ts, seed=seed, max_time=horizon)

    environment = EnvironmentSpec(
        name="obsolete-ballots",
        adversary=AdversarySpec("drop-all"),
        faults=(
            FaultSpec("crash-forever", {"pids": list(victims), "time": 0.25 * ts})
            if victims
            else FaultSpec("none")
        ),
    )

    survivors = [pid for pid in range(n) if pid not in victims]
    post_ts_leader = min(survivors)

    def post_setup(simulator: Simulator) -> None:
        controller = _ObsoleteReleaseController(
            simulator=simulator,
            leader=post_ts_leader,
            owners=victims,
            count=k,
            ballot_stride=ballot_stride,
            poll_interval=poll_interval_factor * delta,
            arrival_lead=0.02 * delta,
            fallback_gap=3.0 * delta,
        )
        controller.install()

    return Scenario(
        name=f"obsolete-ballots-n{n}-k{k}",
        config=config,
        environment=environment,
        post_setup=post_setup,
        expected_deciders=survivors,
        notes=(
            f"{k} obsolete phase-1a messages with anomalously high ballots from crashed "
            f"processes surface after TS, one per ballot attempt of the post-TS leader "
            f"p{post_ts_leader}"
        ),
    )
