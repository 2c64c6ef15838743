"""Stable storage surviving process crashes.

In the paper's model a process "keeps mbal[p] (and the rest of its state) in
stable storage so it can restart after failure by simply resuming where it
left off".  :class:`StableStore` is the in-simulation equivalent: a
per-process key/value store owned by the node (not by the protocol object),
so it survives the destruction of the protocol instance at crash time and is
handed unchanged to the next incarnation.
"""

from repro.storage.stable import StableStore

__all__ = ["StableStore"]
