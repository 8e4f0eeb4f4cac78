"""Fault-injected message-passing runtime (``repro.netsim``).

The lockstep :class:`~repro.runtime.simulator.Simulator` assumes a perfect
stack: every decoded message is delivered in its slot and nodes never die.
This package runs the *same* protocol agents over an explicit transport that
can drop, delay, partition and crash - with every fault drawn from stateless
counter-hashed randomness, so a fault trace is bit-reproducible across runs,
scheduling orders and worker counts.  Composed with a perfect transport the
runtime reduces exactly to the lockstep engine, which therefore stays
the oracle for everything the faults perturb.

Layers (bottom up): :mod:`.faults` (seeded fault models), :mod:`.transport`
(delivery policy), :mod:`.detector` (heartbeat failure detection),
:mod:`.runtime` (the :class:`NetSimulator` engine), :mod:`.delivery`
(ack/retry/backoff reliable mode), :mod:`.driver` (quorum-or-timeout round
advancement), :mod:`.init_builder` (``Init`` over the lossy transport,
with crash damage repaired through :class:`~repro.core.repair.TreeRepairer`),
:mod:`.election` (bully-style leader election and root failover),
:mod:`.distr_cap_builder` (``Distr-Cap`` selection over the transport) and
:mod:`.aggregation` (convergecast/dissemination with per-hop retry budgets
and an explicit partial-result degradation contract).
"""

from .aggregation import (
    NetConvergecastResult,
    NetDisseminationResult,
    run_convergecast,
    run_dissemination,
)
from .delivery import (
    AckResponderAgent,
    OutstandingSend,
    ReliableOutbox,
    ReliableSenderAgent,
    RetryPolicy,
)
from .detector import HeartbeatDetector
from .distr_cap_builder import NetDistrCapBuilder, NetDistrCapResult
from .driver import RoundDriver
from .election import (
    BullyElection,
    ElectionResult,
    FailoverResult,
    election_priority,
    run_root_failover,
)
from .faults import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    FaultTrace,
    LatencyModel,
    Partition,
)
from .init_builder import DELIVERY_MODES, NetInitBuilder, NetInitResult
from .runtime import NetSimulator
from .transport import FaultyTransport, PerfectTransport, Transport

__all__ = [
    "AckResponderAgent",
    "BullyElection",
    "CrashSchedule",
    "CrashWindow",
    "DELIVERY_MODES",
    "ElectionResult",
    "FailoverResult",
    "FaultPlan",
    "FaultTrace",
    "FaultyTransport",
    "HeartbeatDetector",
    "LatencyModel",
    "NetConvergecastResult",
    "NetDisseminationResult",
    "NetDistrCapBuilder",
    "NetDistrCapResult",
    "NetInitBuilder",
    "NetInitResult",
    "NetSimulator",
    "OutstandingSend",
    "Partition",
    "PerfectTransport",
    "ReliableOutbox",
    "ReliableSenderAgent",
    "RetryPolicy",
    "RoundDriver",
    "Transport",
    "election_priority",
    "run_convergecast",
    "run_dissemination",
    "run_root_failover",
]
