"""SMR phase 1 ships only what the ballot owner lacks, and no run changes for it.

A promise (``MultiPhase1b``) carries the sender's decided log from the
prefix the ballot owner last announced, not the whole log, and the owner
pushes back only the decisions past the sender's own prefix.  Nothing the
owner learns, nor when, changes: the runs below are pinned to the event
count, the end time and a digest of the outcome the whole-log exchange gave,
and the entries promises carry per command stay flat as the stream grows.
"""

import hashlib

import pytest

from repro.errors import AgreementViolation
from repro.harness.executors import SmrTask, build_task_scenario
from repro.sim.simulator import Simulator
from repro.smr.log import ReplicatedLog
from repro.smr.messages import MultiPhase1b
from repro.smr.workload import ScheduleSpec

from tests.helpers import capture_sent_envelopes


def smr_task(workload: str, n: int, seed: int, submitter: str, commands: int = 20) -> SmrTask:
    """``commands`` commands from t=10 every 0.7, all submitted at one replica.

    The "leader" submitter is the highest expected replica (the serving
    leader of a stable run), the "follower" the lowest.
    """
    kwargs = {"n": n, "seed": seed}
    deciders = build_task_scenario(SmrTask(workload, ScheduleSpec(), kwargs)).deciders()
    target = deciders[-1] if submitter == "leader" else deciders[0]
    schedule = ScheduleSpec(num_commands=commands, start=10.0, interval=0.7, target_pid=target)
    return SmrTask(workload, schedule, kwargs)


# (workload, n, seed, submitter, events_processed, now(), sha256(repr(outcome))[:16]),
# as the whole-log promise exchange ran them.
PINNED = [
    ("smr-stable", 5, 1, "leader", 15789, 24.81543557321913, "d242761122ef684b"),
    ("smr-stable", 5, 1, "follower", 15534, 24.554559637942642, "db3010f98beaf922"),
    ("smr-stable", 5, 2, "leader", 15448, 24.379504689284722, "702e2946c3d201db"),
    ("smr-stable", 5, 2, "follower", 16195, 25.091242606084688, "21aec7f87764078f"),
    ("smr-stable", 5, 3, "leader", 15416, 24.365527768425025, "5388bc8537a7c847"),
    ("smr-stable", 5, 3, "follower", 15825, 24.683679475060096, "d2fd0ce0bbb999c1"),
    ("smr-stable", 9, 1, "leader", 49721, 24.509688129597855, "7aa422d89f36e943"),
    ("smr-stable", 9, 1, "follower", 49518, 24.651492797862826, "52d0cb76838fa889"),
    ("smr-stable", 9, 2, "leader", 49526, 24.526863727263315, "46034d028fd750db"),
    ("smr-stable", 9, 2, "follower", 50517, 24.755634513943928, "015f56f37233a481"),
    ("smr-stable", 9, 3, "leader", 49163, 24.569004554232052, "bf228b2aba3c7499"),
    ("smr-stable", 9, 3, "follower", 49491, 24.587961019782096, "51faa20ecb0b7d6d"),
    ("smr-chaos", 5, 1, "leader", 9368, 25.345202486599607, "0074af97b6c422ed"),
    ("smr-chaos", 5, 1, "follower", 9129, 24.929266621759123, "5df5121fbdb27901"),
    ("smr-chaos", 5, 2, "leader", 6179, 24.922287979703704, "833643e9772a51e7"),
    ("smr-chaos", 5, 2, "follower", 5834, 24.977737672681318, "94d467af18345d21"),
    ("smr-chaos", 5, 3, "leader", 9755, 25.61887292522949, "6b2468e63ef08214"),
    ("smr-chaos", 5, 3, "follower", 9290, 24.7485004456865, "24ac26dad22c1c40"),
    ("smr-chaos", 9, 1, "leader", 36615, 24.805356381510855, "1c9fb578aa4be2a0"),
    ("smr-chaos", 9, 1, "follower", 37322, 24.870616070562544, "b4900b4e6fcbad6f"),
    ("smr-chaos", 9, 2, "leader", 27755, 25.051662292051702, "148b5d9b7559d2b3"),
    ("smr-chaos", 9, 2, "follower", 27510, 24.894356223952506, "383bd19f555fb532"),
    ("smr-chaos", 9, 3, "leader", 17858, 25.072284667176795, "4057bef9ea4c80eb"),
    ("smr-chaos", 9, 3, "follower", 17911, 25.098112808174708, "4e1a8f7bcaa37fc5"),
    ("smr-churn", 5, 1, "leader", 9630, 25.013575450911464, "4a787f83d039b448"),
    ("smr-churn", 5, 1, "follower", 9358, 24.84614836689783, "5118ddc03675ce49"),
    ("smr-churn", 5, 2, "leader", 9524, 24.82564788662852, "5f503ee3a7146018"),
    ("smr-churn", 5, 2, "follower", 9741, 25.047170231663923, "dd5988731d099e11"),
    ("smr-churn", 5, 3, "leader", 9770, 25.012282850238762, "ed852ecf9f84af1b"),
    ("smr-churn", 5, 3, "follower", 9043, 24.485274811310283, "0724603dcac303ae"),
    ("smr-churn", 9, 1, "leader", 28583, 24.84169099573528, "76c9553ea882e814"),
    ("smr-churn", 9, 1, "follower", 28990, 25.092717126907477, "fbc7726d9cd166b9"),
    ("smr-churn", 9, 2, "leader", 27825, 24.70103933295395, "fa4bf173fba58589"),
    ("smr-churn", 9, 2, "follower", 29335, 25.356251059817712, "65c54a518582f748"),
    ("smr-churn", 9, 3, "leader", 27595, 24.496181377041047, "bab450a74d77d8f3"),
    ("smr-churn", 9, 3, "follower", 28513, 24.687292943434358, "e33e4be83f1566a4"),
    ("smr-gray-partition", 5, 1, "leader", 13198, 24.266303874627898, "28089c5ff2ae176f"),
    ("smr-gray-partition", 5, 1, "follower", 13792, 24.6890592394115, "cf6030f8d1a4b90d"),
    ("smr-gray-partition", 5, 2, "leader", 12837, 24.54207748046997, "c507a2646e9cdfd0"),
    ("smr-gray-partition", 5, 2, "follower", 13117, 24.63072575543758, "a9c2e82b24d6edd8"),
    ("smr-gray-partition", 5, 3, "leader", 12786, 24.607413763226408, "02ddc1d947527663"),
    ("smr-gray-partition", 5, 3, "follower", 13382, 24.90366520549467, "31eb6334ab8a404f"),
    ("smr-gray-partition", 9, 1, "leader", 42183, 24.590367988493895, "df6df0689e9be040"),
    ("smr-gray-partition", 9, 1, "follower", 43700, 25.032979513823694, "b54f77ecc45d4170"),
    ("smr-gray-partition", 9, 2, "leader", 40976, 24.634191311327754, "acfc4615ae0626c2"),
    ("smr-gray-partition", 9, 2, "follower", 41487, 24.66590201838794, "7e7ffbb6e51abe14"),
    ("smr-gray-partition", 9, 3, "leader", 41270, 24.579588598356764, "898f31c3b42859b0"),
    ("smr-gray-partition", 9, 3, "follower", 41440, 24.82554020740331, "4211fb95f2f78dae"),
    ("smr-asymmetric-link", 5, 1, "leader", 16032, 24.717792421181777, "71f0cd0b97561e66"),
    ("smr-asymmetric-link", 5, 1, "follower", 17368, 25.98107276066287, "abc6968b6f410a5c"),
    ("smr-asymmetric-link", 5, 2, "leader", 16491, 25.026404345133304, "4b4b21ad9c4d4ebf"),
    ("smr-asymmetric-link", 5, 2, "follower", 17502, 25.966737305520976, "f67dcc92512941e6"),
    ("smr-asymmetric-link", 5, 3, "leader", 16264, 25.052222442325288, "0afd16e1fcf9dd65"),
    ("smr-asymmetric-link", 5, 3, "follower", 17161, 25.634534358146695, "2119fb24c24fabe2"),
    ("smr-asymmetric-link", 9, 1, "leader", 51054, 24.87170814614519, "0a51ef7b799efc8a"),
    ("smr-asymmetric-link", 9, 1, "follower", 53037, 25.746381126173773, "cbada3805a486196"),
    ("smr-asymmetric-link", 9, 2, "leader", 50340, 24.81541851176228, "de01071614d27356"),
    ("smr-asymmetric-link", 9, 2, "follower", 53950, 25.981347024344537, "1d3531c5348e6a50"),
    ("smr-asymmetric-link", 9, 3, "leader", 51575, 24.94055451563378, "a96e1e2c464fceec"),
    ("smr-asymmetric-link", 9, 3, "follower", 53697, 25.81597168974099, "f34ed94cad06f215"),
]


@pytest.mark.parametrize("workload, n, seed, submitter, events, end, digest", PINNED)
def test_runs_are_unchanged(workload, n, seed, submitter, events, end, digest):
    result = smr_task(workload, n, seed, submitter).run()
    assert result.simulator.events_processed == events
    assert result.simulator.now() == end
    assert hashlib.sha256(repr(result.outcome).encode()).hexdigest()[:16] == digest


def promised_entries_per_command(monkeypatch, commands: int) -> float:
    sent = capture_sent_envelopes(monkeypatch)
    smr_task("smr-stable", 9, 1, "leader", commands).run()
    carried = sum(
        len(envelope.message.decided) for envelope in sent if isinstance(envelope.message, MultiPhase1b)
    )
    return carried / commands


def test_promised_entries_per_command_do_not_grow_with_the_log(monkeypatch):
    short = promised_entries_per_command(monkeypatch, 30)
    long = promised_entries_per_command(monkeypatch, 120)
    # Shipping the whole log makes this ratio about 4 (the log is 4x longer).
    assert long / short <= 1.2


def test_a_replica_diverging_below_the_cut_fails_the_run(monkeypatch):
    """No promise carries slot 0 once every owner's prefix is past it, so no
    owner's ``learn`` can reject a conflict there; the end-of-run log check
    still catches it."""
    original_run = Simulator.run

    def run_then_diverge(simulator, **kwargs):
        original_run(simulator, **kwargs)
        assert all(node.process.log.get(0) is not None for node in simulator.nodes.values())
        follower = simulator.nodes[0].process
        entries = follower.log.snapshot()
        entries[0] = ("cmd-diverged", ("set", "k", -1))
        follower.log = ReplicatedLog.restore(entries)

    monkeypatch.setattr(Simulator, "run", run_then_diverge)
    with pytest.raises(AgreementViolation, match="slot 0"):
        smr_task("smr-stable", 5, 1, "leader", commands=5).run()
