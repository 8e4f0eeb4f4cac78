"""The fault-injected message-passing runtime.

:class:`NetSimulator` executes the same :class:`~repro.runtime.agent
.NodeAgent` protocol machines as the lockstep :class:`~repro.runtime
.simulator.Simulator`, but every decoded message passes through an explicit
:class:`~repro.netsim.transport.Transport` before it reaches an agent:

* a message may be **dropped** (Bernoulli loss or a link partition) - the
  sender's interference still happened, only the delivery is lost;
* a message may be **delayed** - it matures in a later slot and is handed to
  the receiver then, provided the receiver is listening (half-duplex) and up;
* a node may be **crashed** - it is neither polled (consuming no randomness)
  nor delivered to until its recovery slot, and its agent sees
  :meth:`~repro.runtime.agent.NodeAgent.on_crash` /
  :meth:`~repro.runtime.agent.NodeAgent.on_recover` transitions;
* out-of-band **heartbeats** feed a :class:`~repro.netsim.detector
  .HeartbeatDetector`, whose view of liveness and progress is what round
  drivers act on instead of the lockstep engine's god's-eye agent reads.

The control plane around the slot is array-shaped, one pass per slot:
crash windows are synced by comparing the transport's down set with the
previous slot's (transitions fire only when it changed, in node order); a
slot's decodes go through one :meth:`~repro.netsim.transport.Transport
.admit` call over aligned ``(src, dst)`` arrays; the heartbeats of every
monitored, up node are one :meth:`~repro.netsim.transport.Transport
.heartbeats_delivered` call, in node order, and one
:meth:`~repro.netsim.detector.HeartbeatDetector.observe` update.  Every fault
draw is a counter hash of its own identity, so these calls decide exactly
what per-node and per-sender calls would (``tests/oracles.py`` keeps that
scalar control plane as the parity oracle).

Composed with :class:`~repro.netsim.transport.PerfectTransport`, every seam
reduces to the lockstep engine: the same poll order, the same decode
arithmetic, the same delivery order - so the zero-fault message trace and
protocol outcome are bit-identical to ``runtime.Simulator`` (the parity
tests pin this), and the lockstep engine remains the oracle for everything
the transport can perturb.

Delivery bookkeeping: at most one message reaches an agent per slot (the
radio decodes one frame).  A matured delayed message takes precedence over a
fresh decode in the same slot - it is older - and the displaced fresh frame
is counted in ``receiver_busy_drops``.  With zero latency the maturity queue
is empty and the rule never fires.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.runtime import OBS
from ..runtime.agent import NodeAgent
from ..runtime.simulator import Simulator
from ..runtime.trace import ExecutionTrace
from ..sinr import Reception, SINRParameters
from ..state import NetworkState
from .detector import HeartbeatDetector
from .faults import FaultTrace
from .transport import PerfectTransport, Transport

__all__ = ["NetSimulator"]


class NetSimulator(Simulator):
    """Message-passing runtime: the slot engine behind a lossy transport.

    Args:
        agents: the per-node protocol agents.
        params: the physical-model parameters of the shared channel.
        transport: delivery policy (drops, delays, crashes, partitions).
        detector: failure detector fed by out-of-band heartbeats; a default
            one monitoring every agent each slot is created if omitted.
        trace: optional pre-existing trace to append to.
        store: the geometry store over the agents' nodes, when already built.
    """

    _COUNTERS = ("netsim.slots", "netsim.sends", "netsim.deliveries")

    def __init__(
        self,
        agents: Sequence[NodeAgent],
        params: SINRParameters,
        transport: Transport | None = None,
        *,
        detector: HeartbeatDetector | None = None,
        trace: ExecutionTrace | None = None,
        store: NetworkState | None = None,
    ) -> None:
        super().__init__(agents, params, trace, store=store)
        self.transport: Transport = transport if transport is not None else PerfectTransport()
        self.detector = (
            detector
            if detector is not None
            else HeartbeatDetector(list(self._node_ids), interval=1)
        )
        self._pos_by_id = {node_id: i for i, node_id in enumerate(self._node_ids)}
        unknown = set(self.detector.node_ids) - set(self._node_ids)
        if unknown:
            raise ConfigurationError(
                f"detector monitors ids outside the agent set: {sorted(unknown)[:5]}"
            )
        self._ids = np.array(self._node_ids, dtype=np.int64)
        #: per-position down flag, synced from the transport's crash windows.
        self._crashed = np.zeros(len(self.agents), dtype=bool)
        #: the transport's down set at the last sync (ids outside the agent
        #: set included), so an unchanged set costs one comparison.
        self._down: frozenset[int] = frozenset()
        # Heartbeat senders: the monitored positions in simulator order, and
        # where each one sits in the detector's arrays.
        monitored = np.array(
            [self._pos_by_id[node_id] for node_id in self.detector.node_ids], dtype=np.intp
        )
        order = np.argsort(monitored, kind="stable")
        self._beat_pos = monitored[order]
        self._beat_index = order
        self._is_done = [agent.is_done for agent in self.agents]
        #: mature slot -> [(sequence, dst position, reception)], FIFO by sequence.
        self._pending: dict[int, list[tuple[int, int, Reception]]] = {}
        self._pending_seq = 0
        #: per-node transmissions actually attempted (retries included).
        self.send_budget: dict[int, int] = {node_id: 0 for node_id in self._node_ids}
        #: fresh decodes displaced by a matured delayed message (or a matured
        #: message arriving while its receiver transmitted).
        self.receiver_busy_drops = 0
        #: matured deliveries lost because the receiver was down.
        self.crash_drops = 0

    # -- fault bookkeeping ---------------------------------------------------

    @property
    def fault_trace(self) -> FaultTrace | None:
        """The transport's fault recorder, when it keeps one."""
        return getattr(self.transport, "trace", None)

    def crashed_ids(self) -> frozenset[int]:
        """Ids of the nodes currently down."""
        return frozenset(self._ids[self._crashed].tolist())

    def _sync_crashes(self, slot: int) -> None:
        """Apply the transport's crash windows, firing agent transitions.

        Transitions fire only when the down set changed since the last
        slot, in node order.
        """
        down = self.transport.crashed_ids(slot)
        if down == self._down:
            return
        self._down = down
        now = np.isin(self._ids, np.fromiter(down, dtype=np.int64, count=len(down)))
        changed = np.flatnonzero(now != self._crashed)
        self._crashed = now
        trace = self.fault_trace
        for i in changed.tolist():
            node_id = self._node_ids[i]
            if now[i]:
                self.agents[i].on_crash(slot)
                if trace is not None:
                    trace.record_crash(slot, node_id)
                if OBS.enabled:
                    OBS.registry.inc("netsim.crashes")
            else:
                self.agents[i].on_recover(slot)
                if trace is not None:
                    trace.record_recovery(slot, node_id)
                if OBS.enabled:
                    OBS.registry.inc("netsim.recoveries")

    # -- engine seams --------------------------------------------------------

    def _poll(self, slot: int) -> tuple[list[int], list[float], list[Any]]:
        self._sync_crashes(slot)
        if not self._crashed.any():
            tx_pos, powers, messages = super()._poll(slot)
        else:
            # Crashed agents are not polled at all: they consume no
            # randomness, transmit nothing and do not listen.
            tx_pos, powers, messages = [], [], []
            listening = self._listening
            listening[:] = True
            for i, (act, crashed) in enumerate(zip(self._act, self._crashed.tolist())):
                if crashed:
                    listening[i] = False
                    continue
                action = act(slot)
                if action is not None:
                    tx_pos.append(i)
                    powers.append(action[0])
                    messages.append(action[1])
                    listening[i] = False
        for i in tx_pos:
            self.send_budget[self._node_ids[i]] += 1
        return tx_pos, powers, messages

    def _decode(
        self,
        slot: int,
        tx_pos: list[int],
        powers: list[float],
        messages: list[Any],
    ) -> tuple[list[Reception | None], tuple[list[int], list[int]]]:
        """Channel decode, then the transport and the maturity queue filter
        which decoded deliveries arrive."""
        receptions, (listener_ids, sender_ids) = super()._decode(slot, tx_pos, powers, messages)
        matured = self._pending.pop(slot, [])
        if listener_ids:
            delivered, delay = self.transport.admit(
                slot,
                np.array(sender_ids, dtype=np.int64),
                np.array(listener_ids, dtype=np.int64),
            )
            if bool(delivered.all()) and not delay.any() and not matured:
                return receptions, (listener_ids, sender_ids)
            kept_listeners: list[int] = []
            kept_senders: list[int] = []
            for dst_id, src_id, ok, lag in zip(
                listener_ids, sender_ids, delivered.tolist(), delay.tolist()
            ):
                pos = self._pos_by_id[dst_id]
                if not ok:
                    receptions[pos] = None
                    continue
                if lag:
                    reception = receptions[pos]
                    receptions[pos] = None
                    assert reception is not None
                    self._pending.setdefault(slot + lag, []).append(
                        (self._pending_seq, pos, reception)
                    )
                    self._pending_seq += 1
                    continue
                kept_listeners.append(dst_id)
                kept_senders.append(src_id)
            listener_ids, sender_ids = kept_listeners, kept_senders
        for _, pos, reception in sorted(matured, key=lambda item: item[0]):
            if self._crashed[pos]:
                self.crash_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.crash_drops")
                continue
            if not self._listening[pos]:
                # Half-duplex: the receiver transmitted in the arrival slot.
                self.receiver_busy_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.receiver_busy_drops")
                continue
            dst_id = self._node_ids[pos]
            if receptions[pos] is not None:
                # The older (matured) message wins the receive buffer.
                self.receiver_busy_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.receiver_busy_drops")
                keep = [k for k, listener in enumerate(listener_ids) if listener != dst_id]
                listener_ids = [listener_ids[k] for k in keep]
                sender_ids = [sender_ids[k] for k in keep]
            receptions[pos] = reception
            listener_ids.append(dst_id)
            sender_ids.append(reception.sender.id)
        return receptions, (listener_ids, sender_ids)

    def _deliver(self, slot: int, receptions: list[Reception | None]) -> None:
        if not self._crashed.any():
            super()._deliver(slot, receptions)
        else:
            for observe, reception, crashed in zip(
                self._observe, receptions, self._crashed.tolist()
            ):
                if not crashed:
                    observe(slot, reception)
        self._emit_heartbeats(slot)

    def _emit_heartbeats(self, slot: int) -> None:
        """Out-of-band heartbeats, sent once the slot's deliveries are done:
        one transport query over the monitored up nodes (in node order),
        one detector update."""
        detector = self.detector
        if not detector.expects_heartbeat(slot):
            return
        up = ~self._crashed[self._beat_pos]
        senders = self._beat_pos[up]
        delivered = self.transport.heartbeats_delivered(self._ids[senders], slot)
        heard = self._beat_index[up][delivered]
        arrived = np.zeros(len(self._beat_pos), dtype=bool)
        arrived[heard] = True
        done = np.zeros(len(self._beat_pos), dtype=bool)
        is_done = self._is_done
        done[heard] = [is_done[i]() for i in senders[delivered].tolist()]
        detector.observe(slot, arrived, done)

    # -- summaries -----------------------------------------------------------

    def fault_summary(self) -> dict[str, int]:
        """Counters of everything the transport did to this run.

        Includes the reliable-delivery tallies (``retries``/``timeouts``)
        summed over every agent that owns a :class:`~repro.netsim.delivery
        .ReliableOutbox` (zero when no agent uses reliable sends).
        """
        trace = self.fault_trace
        summary = trace.summary() if trace is not None else {
            "dropped": 0, "delayed": 0, "crashes": 0, "recoveries": 0,
            "heartbeat_losses": 0,
        }
        summary["receiver_busy_drops"] = self.receiver_busy_drops
        summary["crash_drops"] = self.crash_drops
        summary["transmissions"] = sum(self.send_budget.values())
        retries = 0
        timeouts = 0
        for agent in self.agents:
            outbox = getattr(agent, "outbox", None)
            if outbox is not None:
                retries += outbox.retries
                timeouts += len(outbox.timeouts)
        summary["retries"] = retries
        summary["timeouts"] = timeouts
        return summary
