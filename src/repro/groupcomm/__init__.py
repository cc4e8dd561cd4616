"""Group communication primitives (Section 3.1 of the paper).

The stack, bottom-up:

* :class:`ReliableTransport` — quasi-reliable FIFO point-to-point channels.
* :class:`ReliableBroadcast` — all-or-nothing diffusion to a static group.
* :class:`FifoBroadcast` / :class:`CausalBroadcast` — ordered variants.
* :class:`Consensus` — Chandra–Toueg rotating-coordinator consensus.
* :class:`SequencerAtomicBroadcast` / :class:`ConsensusAtomicBroadcast` —
  the paper's ABCAST primitive (total order).
* :class:`ViewSyncGroup` — group membership + the paper's VSCAST primitive.
* :class:`DeferredConsensus` — consensus with deferred initial values
  (the semi-passive replication engine).
"""

from .abcast import (
    ConsensusAtomicBroadcast,
    SequencerAtomicBroadcast,
    check_abcast_flavour,
)
from .optimistic import OptimisticAtomicBroadcast
from .causal import CausalBroadcast
from .channels import ReliableTransport
from .consensus import Consensus
from .deferred import DeferredConsensus
from .fifo import FifoBroadcast
from .rbcast import ReliableBroadcast
from .vclock import VectorClock
from .views import View, ViewSyncGroup

__all__ = [
    "ReliableTransport",
    "ReliableBroadcast",
    "FifoBroadcast",
    "CausalBroadcast",
    "VectorClock",
    "Consensus",
    "DeferredConsensus",
    "SequencerAtomicBroadcast",
    "ConsensusAtomicBroadcast",
    "OptimisticAtomicBroadcast",
    "check_abcast_flavour",
    "View",
    "ViewSyncGroup",
]
