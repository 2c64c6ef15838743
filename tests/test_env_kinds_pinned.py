"""Pinned behaviour of every environment kind, built from its spec.

Each adversary case builds an environment's network from an
:class:`~repro.env.spec.AdversarySpec` (default params, each param set on
its own, every param set, and the nested chains) and feeds one fixed stream
of 500 envelopes, sent before and after ``TS``, one at a time through the
batch hook of its era (the adversary's ``pre_ts_fates`` or the synchrony
model's ``post_ts_fates``) with the network's own seeded rng.  The SHA-256 of the
resulting fates, together with the adversary's ``duplicate_prob``, is
pinned.  Each fault case pins the SHA-256 of the built plan's events at
n = 5 and n = 9.

Each adversary case is also driven through ``Network.send`` on a silent
simulator, as broadcasts to every pid and to every pid but the sender,
before and after ``TS``: that pins whole multi-destination calls, the
network's duplicate coin and the queue's sequence numbers.  The digest
covers each destination's message id and delivery time (``None`` when
lost), every queued delivery (duplicate copies included) as ``(time, seq,
msg_id)``, the next message id and the monitor's counts.

δ is 1.5 rather than 1, so a dropped δ conversion changes the fates.  Any
change to a default, to a unit conversion or to the order in which a
builder consumes randomness moves a digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import pytest

from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.net.message import Envelope, Era, Message
from repro.params import TimingParams
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig
from tests.helpers import capture_sent_envelopes, silent_simulator

PARAMS = TimingParams(delta=1.5)
TS = 10.0 * PARAMS.delta
N_ADVERSARY = 7
STREAM_LENGTH = 500


@dataclass(frozen=True, slots=True)
class _Probe(Message):
    kind = "probe"


def _stream(n: int) -> List[Envelope]:
    """500 envelopes between random pids, sent over ``[0, 2 TS)`` in time order."""
    rng = SeededRng(2005, label="pinned-stream")
    envelopes = []
    send_time = 0.0
    for msg_id in range(STREAM_LENGTH):
        send_time += rng.uniform(0.0, 4.0 * TS / STREAM_LENGTH)
        envelopes.append(
            Envelope(
                message=_Probe(),
                src=rng.randint(0, n - 1),
                dst=rng.randint(0, n - 1),
                send_time=send_time,
                era=Era.POST if send_time >= TS else Era.PRE,
                msg_id=msg_id,
            )
        )
    return envelopes


def _adversary_digest(spec: AdversarySpec) -> str:
    config = SimulationConfig(
        n=N_ADVERSARY, params=PARAMS, ts=TS, seed=17, max_time=TS + 400.0 * PARAMS.delta
    )
    rng = SeededRng(config.seed, label="net").fork("pinned")
    network = EnvironmentSpec(adversary=spec).build_network(config, rng)
    model = network.model
    fates: List[Optional[str]] = []
    for envelope in _stream(N_ADVERSARY):
        # Each envelope alone through its era's batch hook: no duplicate coin.
        hook = model.adversary.pre_ts_fates if envelope.era is Era.PRE else model.post_ts_fates
        (when,) = hook(envelope.src, (envelope.dst,), envelope.send_time, network.rng)
        fates.append(None if when is None else repr(when))
    payload = {"fates": fates, "duplicate_prob": repr(network.model.adversary.duplicate_prob)}
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# Broadcast calls as (time, src): twelve before TS, one at TS and eleven after.
_BROADCASTS = [(k * TS / 12.0, k % N_ADVERSARY) for k in range(12)] + [
    (TS + k * 0.7 * PARAMS.delta, (k + 3) % N_ADVERSARY) for k in range(12)
]


def _broadcast_digest(spec: AdversarySpec, monkeypatch) -> str:
    sent = capture_sent_envelopes(monkeypatch)
    config = SimulationConfig(
        n=N_ADVERSARY, params=PARAMS, ts=TS, seed=17, max_time=TS + 400.0 * PARAMS.delta
    )
    rng = SeededRng(config.seed, label="net").fork("broadcast")
    network = EnvironmentSpec(adversary=spec).build_network(config, rng)
    simulator = silent_simulator(network, n=N_ADVERSARY)
    everyone = tuple(range(N_ADVERSARY))
    calls = []
    for send_time, src in _BROADCASTS:
        simulator._time = send_time
        for dsts in (everyone, tuple(pid for pid in everyone if pid != src)):
            before = len(sent)
            network.send(_Probe(), src, dsts)
            calls.append([
                [envelope.msg_id, None if envelope.deliver_time is None
                 else repr(envelope.deliver_time)]
                for envelope in sent[before:]
            ])
    queued = sorted(
        # A delivery entry's args are ``(message, src, msg_id)``.
        [repr(time), seq, args[2]] for time, seq, _, args in simulator._events._heap
    )
    stats = network.monitor.stats
    payload = {
        "calls": calls,
        "queued": queued,
        "next_msg_id": network._next_msg_id,
        "counts": [stats.sent, stats.dropped, stats.duplicated, stats.sent_pre_ts,
                   stats.sent_post_ts],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _fault_digest(spec: FaultSpec, n: int) -> str:
    config = SimulationConfig(
        n=n, params=PARAMS, ts=TS, seed=23, max_time=TS + 400.0 * PARAMS.delta
    )
    events = [[repr(event.time), event.pid, event.kind.value] for event in spec.build(config)]
    return hashlib.sha256(json.dumps(events).encode()).hexdigest()


_GROUPS = {"mode": "explicit", "groups": [[0, 1, 2], [3, 4], [5, 6]]}
_PARTITION = AdversarySpec("partition")
_GRAY = AdversarySpec("gray-partition")

# kind -> (base params, {param: non-default value}, inner).  A case sets the
# base params plus none, one, or all of the listed values.
_ADVERSARY_KINDS: Dict[str, Any] = {
    "benign": ({}, {"min_delay_fraction": 0.3}, None),
    "drop-all": ({}, {}, None),
    "random-chaos": (
        {},
        {"drop_probability": 0.2, "defer_probability": 0.3, "max_defer_delta": 4.0,
         "max_delay_factor": 2.5, "duplicate_prob": 0.15},
        None,
    ),
    "partition": (
        {},
        {"partition": _GROUPS, "intra_delay_max_delta": 0.5, "leak_probability": 0.3,
         "leak_max_delay_delta": 4.0, "leak_past_ts": True},
        None,
    ),
    "gray-partition": (
        {},
        {"partition": _GROUPS, "heal_start": 0.2, "start_drop": 0.9, "end_drop": 0.1,
         "intra_delay_max_delta": 0.5, "leak_max_delay_delta": 4.0},
        None,
    ),
    "asymmetric-link": (
        {"hub": 2},
        {"direction": "to", "links": [[0, 1], [2, 3], [4, 0]], "slow_factor": 3.0,
         "fast_min_fraction": 0.3, "slow_post_ts": False},
        None,
    ),
    "worst-case-delay": ({}, {"jitter": 0.05}, None),
    "deferring-partition": (
        {},
        {"defer_probability": 0.5, "max_defer_delta": 5.0, "duplicate_prob": 0.2},
        _PARTITION,
    ),
}


def _adversary_cases() -> Dict[str, AdversarySpec]:
    cases: Dict[str, AdversarySpec] = {}
    for kind, (base, values, inner) in _ADVERSARY_KINDS.items():
        cases[f"{kind}/defaults"] = AdversarySpec(kind, dict(base), inner)
        for name, value in values.items():
            cases[f"{kind}/{name}"] = AdversarySpec(kind, {**base, name: value}, inner)
        if values:
            cases[f"{kind}/all"] = AdversarySpec(kind, {**base, **values}, inner)
    for name, value in (("leak_max_delay_delta", 4.0), ("leak_past_ts", True)):
        cases[f"partition/leak_probability+{name}"] = AdversarySpec(
            "partition", {"leak_probability": 0.3, name: value}
        )
    cases["partition/rng-label"] = AdversarySpec(
        "partition", {"partition": {"mode": "minority", "rng_label": "other"}}
    )
    cases["asymmetric-link/direction-from"] = AdversarySpec(
        "asymmetric-link", {"hub": 2, "direction": "from"}
    )
    cases["worst-case-delay/no-jitter>benign"] = AdversarySpec(
        "worst-case-delay", {"jitter": 0.0}, AdversarySpec("benign")
    )
    cases["deferring-partition>gray-partition"] = AdversarySpec(
        "deferring-partition", {}, _GRAY
    )
    deferring = _ADVERSARY_KINDS["deferring-partition"][1]
    for name, inner in (("partition", _PARTITION), ("gray-partition", _GRAY)):
        cases[f"worst-case-delay>deferring-partition>{name}"] = AdversarySpec(
            "worst-case-delay", {}, AdversarySpec("deferring-partition", {}, inner)
        )
        cases[f"worst-case-delay>deferring-partition>{name}/all"] = AdversarySpec(
            "worst-case-delay",
            {"jitter": 0.05},
            AdversarySpec("deferring-partition", deferring, inner),
        )
    return cases


_EVENTS = [
    {"time": 2.0, "pid": 1, "kind": "crash"},
    {"time": 1.0, "pid": 0, "kind": "crash"},
    {"time": 6.5, "pid": 1, "kind": "restart"},
]

_FAULT_CASES: Dict[str, FaultSpec] = {
    "none": FaultSpec("none"),
    "explicit/empty": FaultSpec("explicit"),
    "explicit/events": FaultSpec("explicit", {"events": _EVENTS}),
    "random-before-ts/defaults": FaultSpec("random-before-ts"),
    "random-before-ts/max_faulty": FaultSpec("random-before-ts", {"max_faulty": 1}),
    "random-before-ts/allow_recovery": FaultSpec("random-before-ts", {"allow_recovery": False}),
    "crash-forever": FaultSpec("crash-forever", {"pids": [3, 0], "time": 2.5}),
    "staggered-restarts/defaults": FaultSpec(
        "staggered-restarts", {"pids": [4, 1], "crash_time": 2.0, "first_restart": 20.0}
    ),
    "staggered-restarts/spacing": FaultSpec(
        "staggered-restarts",
        {"pids": [4, 1], "crash_time": 2.0, "first_restart": 20.0, "spacing": 3.5},
    ),
    "churn-waves/defaults": FaultSpec("churn-waves"),
    "churn-waves/victims": FaultSpec("churn-waves", {"victims": [0, 2]}),
    "churn-waves/num_victims": FaultSpec("churn-waves", {"num_victims": 1}),
    "churn-waves/all": FaultSpec(
        "churn-waves",
        {"num_victims": 2, "first_offset": 1.0, "up_time": 2.0, "down_time": 0.5,
         "waves": 2, "stagger": 1.5, "pre_ts_crash_fraction": 0.2},
    ),
}

ADVERSARY_DIGESTS: Dict[str, str] = {
    "asymmetric-link/all":
        "82528fcfec9aaffb0442deef1237ca5fe4523a084913fc1b6f93d38c9ba9b9a2",
    "asymmetric-link/defaults":
        "bd211a43c619c7a50003f8a48429557aa3fc20101480a7b85be56d7e4afc1bd2",
    "asymmetric-link/direction":
        "5581059722b8acc796fbcefcae78ccf67f3dad2c940c9aca0c8de54e4ef42f8d",
    "asymmetric-link/direction-from":
        "50f888a9f70dbf866c0962e45fea78c34ae59ece1d06c7cc17f26a13ac9944ca",
    "asymmetric-link/fast_min_fraction":
        "180c86d3c6004adda6cfcc2ba6ba9d99168a05e98c40efce7cc73bfc7b05876e",
    "asymmetric-link/links":
        "d7783ca337a288b7e7c5fd9080cf39528c45be64395fad79b5a18898bf2159e2",
    "asymmetric-link/slow_factor":
        "d9136f33ac7be98001479b167eb6816fee32f9cfcca2b987bb9422bca8aa5ce2",
    "asymmetric-link/slow_post_ts":
        "8e24052ab1aa347a6168c38555f558021ab7340728633aa1e8a6d64bdc5a132e",
    "benign/all":
        "180da3a1b4167c2fa4f97dac01f3631868ff4c382cd742ae6db0e03e0f0af2b7",
    "benign/defaults":
        "bf63714c183e39333c2249691fad5a627a71a16bb66ffb40e1a87f0538c37a58",
    "benign/min_delay_fraction":
        "180da3a1b4167c2fa4f97dac01f3631868ff4c382cd742ae6db0e03e0f0af2b7",
    "deferring-partition/all":
        "3eb85016aecac3eb42d7b7b4c6b1ff3783e072d8f63ee7a339eaa7129f17ace3",
    "deferring-partition/defaults":
        "5ca4d2d306d690adf68b12458f8f4a484a6ede2d50803a948c219151c31d39e8",
    "deferring-partition/defer_probability":
        "8df3afd64d96cf5528344fce421dd73f4010143c298a36efa0f6d9ff0503814c",
    "deferring-partition/duplicate_prob":
        "20eb251221a74eed7d6c019df6c113e733019c4a36e401f67edc677d0514a7e0",
    "deferring-partition/max_defer_delta":
        "315ffde05e7480a1c856ecc5b41dd646fbec15b6a2488fa9da90dbd171b3888e",
    "deferring-partition>gray-partition":
        "5ca4d2d306d690adf68b12458f8f4a484a6ede2d50803a948c219151c31d39e8",
    "drop-all/defaults":
        "6444ea772ed631d0122e07e40d736a9b7c562838639238e427e86b865b51f072",
    "gray-partition/all":
        "79243244ab9c133c7b6bbfaaa756ed36d9128d5ffaf50c6dab1bfc461bd20a44",
    "gray-partition/defaults":
        "e4e429118948ae3d4fc0f0430aed79f8e913e33f773187a7097607176b1dda6e",
    "gray-partition/end_drop":
        "0ba5f233931a0c8bedf132aa734e6536bbf7e7841b30d72bbd02f5fe054b3ba1",
    "gray-partition/heal_start":
        "450e070af4f0e2525fc9dc120e140264ef54cd66a3205973036d5217dd9d371b",
    "gray-partition/intra_delay_max_delta":
        "40a8f83c632bdb010248498a9c8ee42db5dbbf682c1497ce2832be10f5a7e342",
    "gray-partition/leak_max_delay_delta":
        "be03f4276c6e5112bffb7b697dd946c80c6f415a60b780f1a7d6ddeb855b397b",
    "gray-partition/partition":
        "7c31040cf048029296d2979cb49688bed1d36b1b9cde13609deb3fefaf9057cb",
    "gray-partition/start_drop":
        "53cca37551da6e76a260ed916f2db475267261a5fd6821f105fd26e48d2e3567",
    "partition/all":
        "99e3787a8e753a0a936676be436f250cb179d6c1bbc5cb7b015748d0f9758532",
    "partition/defaults":
        "e908470970e927bcb399d251667bcdc689047982e2746015b36a2c25d3c5eb05",
    "partition/intra_delay_max_delta":
        "749405ce760d60fd9377688d75bf852c115518bad2a25826f906026d610525c0",
    "partition/leak_max_delay_delta":
        "e908470970e927bcb399d251667bcdc689047982e2746015b36a2c25d3c5eb05",
    "partition/leak_past_ts":
        "e908470970e927bcb399d251667bcdc689047982e2746015b36a2c25d3c5eb05",
    "partition/leak_probability":
        "afb44b5de25598cc4b3daee2052a3dd786e2695968bcae1a7be2219ad2a422ea",
    "partition/leak_probability+leak_max_delay_delta":
        "034a0bdff0e278e81c42eef0947156a44a0799c5af169a201b536dc85752bf94",
    "partition/leak_probability+leak_past_ts":
        "5fd426e8c6baa673808701bb9c8624d6a11b35bda407efa0ccc1004011896842",
    "partition/partition":
        "fb081b33337697fbf102ce420379d565b451c7fda11a39ed27635690d3280e2a",
    "partition/rng-label":
        "4580af1dac6031883b8302f6fd9115485f074355aa560d789b9133f456dc20ce",
    "random-chaos/all":
        "63e69207583b25e89d33d00254fae2ed07e82ac415aee4b40d8eb9e47aa6d62f",
    "random-chaos/defaults":
        "54bf5c47729e3c8081e01456f6e9524dc21cd3c9a5c0e56f1d5a7a90cf8d35a9",
    "random-chaos/defer_probability":
        "a04c09bc28e1e19df19d2504e14a4bd7a495e6b2c95f0053b90793f004361dbf",
    "random-chaos/drop_probability":
        "9d1557f11b4645ec9237f04dcdb1f424aae4e0f2aa142207041dc23e0326c6a4",
    "random-chaos/duplicate_prob":
        "91d20e1e98fb4629ca235e6fba794240d1e56444cd35a9ebdacca8d3dea63efb",
    "random-chaos/max_defer_delta":
        "eebf7dbdd461c1b6b6fd751fc4dbcc0b58e5f3c49106b245b993f7e6863a1467",
    "random-chaos/max_delay_factor":
        "a00d49c01bfe3e1b62ec587b51e3bc450e1f6c5531ca2fcc785330b445f492ea",
    "worst-case-delay/all":
        "51ef037f117e21b866bb3d3c4d69b311e2915e3daff28c0d983b097d3ee90b74",
    "worst-case-delay/defaults":
        "27fb1a0044afd90c94aa45efd8073d38a4e4d4ba776608b304a19bb7a27889bb",
    "worst-case-delay/jitter":
        "51ef037f117e21b866bb3d3c4d69b311e2915e3daff28c0d983b097d3ee90b74",
    "worst-case-delay/no-jitter>benign":
        "96ba97bcb2213ab71b80b22b832f45b3d0f5647935349ab08eb8382bfe680f66",
    "worst-case-delay>deferring-partition>gray-partition":
        "710f786a54e8aec426c7778af71e204d0127e05d64c411435ae23a4bd51c0910",
    "worst-case-delay>deferring-partition>gray-partition/all":
        "0d70959c39dc78d4d91a4bed93782790e90b2348c5cafbd35cfd8c392fafe080",
    "worst-case-delay>deferring-partition>partition":
        "710f786a54e8aec426c7778af71e204d0127e05d64c411435ae23a4bd51c0910",
    "worst-case-delay>deferring-partition>partition/all":
        "0d70959c39dc78d4d91a4bed93782790e90b2348c5cafbd35cfd8c392fafe080",
}

BROADCAST_DIGESTS: Dict[str, str] = {
    "asymmetric-link/all":
        "93b1322c69624045ee633a47d69204c3f3f2069b5ea1b90fe93effc9e03e7a11",
    "asymmetric-link/defaults":
        "4c11eae829dbef113ccf9184f51555fcf92d013f7c6b2481cf657d9092888fa0",
    "asymmetric-link/direction":
        "12ea97d63497a388f885daadcd7c63599b5774648f00bf517df16dee79fd2342",
    "asymmetric-link/direction-from":
        "bc923eb6ce8f932d67db1c07112bd6d5a70682cbe7b71240c52d85f853e502a4",
    "asymmetric-link/fast_min_fraction":
        "a7fbbf5015b0ce6b38856816196add19f18dac41bffe3412c46b2f1b1032a9fc",
    "asymmetric-link/links":
        "1e082139b68666dfbccbc79d3d172dc45c496753f8b7efcec48cce360c7d39f9",
    "asymmetric-link/slow_factor":
        "a74957b542a7e550951a9908e5d3940e5c161088517f046b53d0e57be2734e48",
    "asymmetric-link/slow_post_ts":
        "e12f6475d3f17204e3cd7f5e4c42083668f575a46a64e8cf854ba2f586c8a21f",
    "benign/all":
        "a1ff5aa26b765520fe7796667273329f40af138267f7be3ec9c23e6d702f981c",
    "benign/defaults":
        "2b8ad2d09ecc14ce3ab0da2f1242592358cb5909d3ccc35325913e83282e650d",
    "benign/min_delay_fraction":
        "a1ff5aa26b765520fe7796667273329f40af138267f7be3ec9c23e6d702f981c",
    "deferring-partition/all":
        "e5fc17cf53950219bf8881b65ca06e0ec03f885f5be5b964ab909417516dd517",
    "deferring-partition/defaults":
        "9c16dca6e0de7324d3e204fcf90586eb5f84eb76e2fd2917ad03bf37dae521f6",
    "deferring-partition/defer_probability":
        "8730ed6a2af0dfcb28e458d450686d34baea43141a58c362403cdd91e47db22d",
    "deferring-partition/duplicate_prob":
        "0228b3c742ba8887251718615c025a1ce116a1c991a9c7c263d6531cc2426107",
    "deferring-partition/max_defer_delta":
        "8dbc062c1cc28450106dad8c16e49a5b4f4cdf99ea2f4aacb5e370befc6e1409",
    "deferring-partition>gray-partition":
        "9c16dca6e0de7324d3e204fcf90586eb5f84eb76e2fd2917ad03bf37dae521f6",
    "drop-all/defaults":
        "718d007c03d05f36a58bbbe1221e95f7600e9d150cc74f8137f3bb6ec938841b",
    "gray-partition/all":
        "4be72237c3c2b26951cd478fada783ce61316468b23b4d7a887f16e8fc516af7",
    "gray-partition/defaults":
        "945ab9c264e53127e57113deec1b64b224e9ce492af51a620593bca1d6d16fda",
    "gray-partition/end_drop":
        "b5f6b5df7d77cc038e6ca37595fea63e554e27607a38061531290b71bc3293d8",
    "gray-partition/heal_start":
        "96fcb5e5f7af7b44b15bae051cbab7d34b2f0b905bcabdc365c4c5f13485a4b6",
    "gray-partition/intra_delay_max_delta":
        "17b2f0261e896131e257137816f0179105149b55430a86fe26faf824ad0d5f29",
    "gray-partition/leak_max_delay_delta":
        "1e8c92c33a84f736d5ae625b32c7a9af66569d7fd496e9ceb61bd18376ae4532",
    "gray-partition/partition":
        "98c51f111d5eda605df22a0e44c4611362802b1ec9b33679b8308b2b25a1f0bf",
    "gray-partition/start_drop":
        "e4180c9a9aef683bfb48639a4d70e1ffa3b1d7bc4f194ec6f6d0894e97c360c9",
    "partition/all":
        "dc678092289b63ac094de9e284d4e0453cdcd02c4bba8ec275022fd4588d5d9c",
    "partition/defaults":
        "804c37f050558f7e1243ae8bc579f0024c3bec329c3f72c10dcf9b0fa4af654c",
    "partition/intra_delay_max_delta":
        "ed11ea55c53f523ff378833b759ae21e49922b26d60785dd449a3516c9f3b46f",
    "partition/leak_max_delay_delta":
        "804c37f050558f7e1243ae8bc579f0024c3bec329c3f72c10dcf9b0fa4af654c",
    "partition/leak_past_ts":
        "804c37f050558f7e1243ae8bc579f0024c3bec329c3f72c10dcf9b0fa4af654c",
    "partition/leak_probability":
        "bf9d80034714dbdfe2e63f6918c0e2ff7d0b66f31bb1e963b09ea962009ec756",
    "partition/leak_probability+leak_max_delay_delta":
        "6c1c977293c975582e17889641a148698fe351add677aa87f56006ed64709d61",
    "partition/leak_probability+leak_past_ts":
        "fedd182716fae98f2315546b10a5257a2e87f650833dde0ef059183e71ed211d",
    "partition/partition":
        "012eb3de6000588a776edd238ea719bc82e2bfd966bf25360dc0a7ac6fbf1c5a",
    "partition/rng-label":
        "7bbac3659582ca8e7191334ab04f8be994193c3164514c4b6e0f2bade0ad0081",
    "random-chaos/all":
        "db73cb9043e071e096f6e87fa66f0215478daeb9e54893622c8dde50453db3cf",
    "random-chaos/defaults":
        "2e76b408c00559219b614591c7cf4bc82b6add24834904a2322deab2957fb04f",
    "random-chaos/defer_probability":
        "6881b4fe3e8cf0d105a06d409f00d3a31a8589b27c280d6a78a913ac24e2304e",
    "random-chaos/drop_probability":
        "c4b4ab306b49640b23333388fa1cd0ecb38075c16dfc0c6bca2afb87b737b849",
    "random-chaos/duplicate_prob":
        "74ee31ea165be614d7dd802b32338173844a3b0890b8c118b3cb4f8df10c00e3",
    "random-chaos/max_defer_delta":
        "42f463f6d0b921fa284be531d5c175058b9828af291755c61a2044d3f965e8d1",
    "random-chaos/max_delay_factor":
        "391a4548c3925a14104133fecb88b5f83249efb307ed87edfcd74e51f83e210a",
    "worst-case-delay/all":
        "79db8f4bc508fa7eaeb0e48a41463c38cbf4b32a6e5d2a1665deb131642e6ee2",
    "worst-case-delay/defaults":
        "75feb9cffd17ca6845c1cba95522526d6a95e01f3f02702f48cd4764119d44a8",
    "worst-case-delay/jitter":
        "79db8f4bc508fa7eaeb0e48a41463c38cbf4b32a6e5d2a1665deb131642e6ee2",
    "worst-case-delay/no-jitter>benign":
        "fbdb9bdb43d00bda5c3450575879fa20f074d61a55b806bda6ea61f0f395e04e",
    "worst-case-delay>deferring-partition>gray-partition":
        "8738f1873166a1846734574e4ccef56944f37254c89eb7be9e30fde1762eee25",
    "worst-case-delay>deferring-partition>gray-partition/all":
        "a34d947eec5be4b2dbbae13a4cdf02d5bf6f62ecfb89a82030459b764582d07a",
    "worst-case-delay>deferring-partition>partition":
        "8738f1873166a1846734574e4ccef56944f37254c89eb7be9e30fde1762eee25",
    "worst-case-delay>deferring-partition>partition/all":
        "a34d947eec5be4b2dbbae13a4cdf02d5bf6f62ecfb89a82030459b764582d07a",
}

FAULT_DIGESTS: Dict[str, str] = {
    "churn-waves/all@n5":
        "c5d582ade0fda98e2c7ba3c33669286a13a6d74629c9c13c3cce5b969bd80df0",
    "churn-waves/all@n9":
        "8fc237882065d3d59a2c459fbee9a1f7c2d290622697705c33eff7ab05e80237",
    "churn-waves/defaults@n5":
        "03d833c99bf6298e3e18ddeedb5ab46e5aacf7fba933f887d17a25b7a7e5c8f9",
    "churn-waves/defaults@n9":
        "9ffb14ae34ccb9f11e35c867c9677b51214fa08a6a92bb3824510c23e4b89809",
    "churn-waves/num_victims@n5":
        "5a76af17159e1de4102390a33986a3934f5e28e632edd75740f0671fd286ac4b",
    "churn-waves/num_victims@n9":
        "2fbc81f007b7ecad5c89ceb008adb55615b90a1e37e1f7a8dffe7e079838e3f9",
    "churn-waves/victims@n5":
        "bfddc1bca65db8b3ddeb96d59ad304f67b47fa4c043d692342cfede0e56bd6ff",
    "churn-waves/victims@n9":
        "bfddc1bca65db8b3ddeb96d59ad304f67b47fa4c043d692342cfede0e56bd6ff",
    "crash-forever@n5":
        "bd47c5808e510c893a9f893fefab17de8b2b1af70f828e427293a7b577843dc4",
    "crash-forever@n9":
        "bd47c5808e510c893a9f893fefab17de8b2b1af70f828e427293a7b577843dc4",
    "explicit/empty@n5":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "explicit/empty@n9":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "explicit/events@n5":
        "64ab3edfee44f1135fef9aef7316bcd75cffb6043c7331029296067a18d6b7f7",
    "explicit/events@n9":
        "64ab3edfee44f1135fef9aef7316bcd75cffb6043c7331029296067a18d6b7f7",
    "none@n5":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "none@n9":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "random-before-ts/allow_recovery@n5":
        "3b178d45059b40e6bffc07e4732d8eb0ced94862ddb211115c331e0a066bcb51",
    "random-before-ts/allow_recovery@n9":
        "49d87348177e495ac557684ab89fb01cba096660a1b4ddd9e634133918fd7965",
    "random-before-ts/defaults@n5":
        "54efa34620ce7c5335c97f2f6b9cc2b26129966294e81cd4e1bc4ee1615f30ba",
    "random-before-ts/defaults@n9":
        "d08a0bdc03b25a33892e47b9746abfec114fb0fd709df0350ddbabd7326a0636",
    "random-before-ts/max_faulty@n5":
        "d59a26b417ab808247edbdde90f83d7daa46b60c5d75ce30ba7eb9f0fd29f7b5",
    "random-before-ts/max_faulty@n9":
        "2d867c3bba226f8ca3d4e3bfeb41b7641b54f4f2392054cc8c09e37e6fa71adf",
    "staggered-restarts/defaults@n5":
        "427c133d2ea817c2c3065ad7b0f8c15e52af1f1e42010b070510c3c2dd27d693",
    "staggered-restarts/defaults@n9":
        "427c133d2ea817c2c3065ad7b0f8c15e52af1f1e42010b070510c3c2dd27d693",
    "staggered-restarts/spacing@n5":
        "e20449b3faaa09d1fef63fe303be99f4dc539dc2b70ffd4505747a8c4d59c1c3",
    "staggered-restarts/spacing@n9":
        "e20449b3faaa09d1fef63fe303be99f4dc539dc2b70ffd4505747a8c4d59c1c3",
}


def test_every_kind_has_pinned_cases():
    from repro.env.registry import ADVERSARY_KINDS, FAULT_KINDS

    assert set(_ADVERSARY_KINDS) == set(ADVERSARY_KINDS)
    assert {case.kind for case in _FAULT_CASES.values()} == set(FAULT_KINDS)
    assert set(ADVERSARY_DIGESTS) == set(_adversary_cases())
    assert set(BROADCAST_DIGESTS) == set(_adversary_cases())
    assert set(FAULT_DIGESTS) == {f"{case}@n{n}" for case in _FAULT_CASES for n in (5, 9)}


@pytest.mark.parametrize("case", sorted(_adversary_cases()))
def test_adversary_fates_are_pinned(case):
    assert _adversary_digest(_adversary_cases()[case]) == ADVERSARY_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(_adversary_cases()))
def test_broadcast_streams_are_pinned(case, monkeypatch):
    assert _broadcast_digest(_adversary_cases()[case], monkeypatch) == BROADCAST_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(f"{case}@n{n}" for case in _FAULT_CASES for n in (5, 9)))
def test_fault_plans_are_pinned(case):
    name, n = case.rsplit("@n", 1)
    assert _fault_digest(_FAULT_CASES[name], int(n)) == FAULT_DIGESTS[case]


def test_random_before_ts_takes_no_rng_label(capsys):
    # Its draws depend on the run's seed alone, so a stream label would be a
    # parameter that changes nothing; the kind rejects it as unknown.
    from repro.cli import main

    env = json.dumps({"adversary": {"kind": "benign"},
                      "faults": {"kind": "random-before-ts", "params": {"rng_label": "other"}}})
    assert main(["run", "--env", env, "--n", "5"]) == 2
    assert "does not accept parameters ['rng_label']" in capsys.readouterr().out
