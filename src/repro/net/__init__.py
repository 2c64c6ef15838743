"""Network substrate: messages, partial synchrony, adversaries, monitoring.

The network realizes the communication model of the paper:

* messages sent after the stabilization time ``TS`` are delivered to live
  processes within ``δ`` (the bound includes processing time, which is why
  process actions are instantaneous in the kernel);
* messages sent before ``TS`` are under adversary control — they may be
  dropped, delayed arbitrarily (even past ``TS``), or delivered normally;
* messages to crashed processes are lost;
* duplication is permitted (and exercised by some adversaries) because the
  protocols under study tolerate it.
"""

from repro.net.adversary import (
    Adversary,
    AsymmetricLinkAdversary,
    BenignAdversary,
    DeferringPartitionAdversary,
    DropAllAdversary,
    GrayPartitionAdversary,
    PartitionAdversary,
    RandomChaosAdversary,
    ScriptedAdversary,
    WorstCaseDelayAdversary,
)
from repro.net.message import Envelope, Era, Message
from repro.net.monitor import NetworkMonitor
from repro.net.network import Network
from repro.net.partition import PartitionSpec, minority_groups
from repro.net.synchrony import EventualSynchrony, validate_delivery_time

__all__ = [
    "Adversary",
    "AsymmetricLinkAdversary",
    "BenignAdversary",
    "DeferringPartitionAdversary",
    "DropAllAdversary",
    "Envelope",
    "Era",
    "EventualSynchrony",
    "GrayPartitionAdversary",
    "Message",
    "minority_groups",
    "Network",
    "NetworkMonitor",
    "PartitionAdversary",
    "PartitionSpec",
    "RandomChaosAdversary",
    "ScriptedAdversary",
    "validate_delivery_time",
    "WorstCaseDelayAdversary",
]
