"""Delivery semantics agents can opt into.

The paper's protocols are fire-and-forget: a broadcast is sent once and the
protocol's own redundancy (repeated slot pairs) absorbs loss.  This module
adds the other mode a lossy transport makes necessary: **reliable unicast**
with acknowledgments, per-message retry budgets, timeouts and exponential
backoff.  A :class:`ReliableOutbox` tracks each outstanding message; the
owning agent retransmits whatever :meth:`ReliableOutbox.due` returns and the
outbox raises :class:`~repro.exceptions.DeliveryTimeout` when a message
exhausts its attempts.  Retries are real transmissions, so they land in the
runtime's per-node send budget and inflate the round-complexity metrics -
which is exactly the overhead the loss-resilience experiments measure.

:class:`ReliableSenderAgent` and :class:`AckResponderAgent` are a minimal
protocol pair exercising the mode end to end over :class:`~repro.netsim
.runtime.NetSimulator`; the chaos tests run them at double-digit loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, DeliveryTimeout
from ..geometry import Node
from ..obs.runtime import OBS
from ..runtime import AckMessage, DataMessage, NodeAgent
from ..sinr import Reception

__all__ = [
    "AckResponderAgent",
    "OutstandingSend",
    "ReliableOutbox",
    "ReliableSenderAgent",
    "RetryPolicy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and pacing of reliable sends.

    Attempt ``k`` (0-based) waits ``timeout_slots * backoff**k`` slots for an
    ack before retransmitting; after ``max_attempts`` unacked attempts the
    send times out.

    Attributes:
        max_attempts: total transmissions allowed per message (>= 1).
        timeout_slots: slots to wait for an ack after the first attempt.
        backoff: multiplicative backoff on the timeout per retry.
    """

    max_attempts: int = 5
    timeout_slots: int = 4
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.timeout_slots < 1:
            raise ConfigurationError(
                f"timeout_slots must be positive, got {self.timeout_slots}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {self.backoff}")

    def deadline_after(self, slot: int, attempt: int) -> int:
        """Slot at which attempt ``attempt`` (0-based) times out."""
        return slot + max(1, int(self.timeout_slots * self.backoff**attempt))


@dataclass
class OutstandingSend:
    """One reliable message awaiting its acknowledgment."""

    key: int
    payload: Any
    dst_id: int
    attempts: int
    deadline: int


class ReliableOutbox:
    """Per-agent bookkeeping of unacked reliable sends.

    Args:
        policy: retry budget and pacing.

    The owner calls :meth:`post` when it first wants a message delivered,
    retransmits whatever :meth:`due` hands back, and calls :meth:`ack` when
    the matching acknowledgment arrives.  ``retries`` counts retransmissions
    only (attempts beyond each message's first), the quantity the send-budget
    metrics report.
    """

    __slots__ = ("_outstanding", "policy", "retries", "timeouts")

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self._outstanding: dict[int, OutstandingSend] = {}
        self.retries = 0
        #: keys that exhausted their budget (populated only in lenient mode).
        self.timeouts: list[int] = []

    def __len__(self) -> int:
        return len(self._outstanding)

    def post(self, key: int, payload: Any, dst_id: int, slot: int) -> Any:
        """Register a new reliable send; returns the payload to transmit now."""
        if key in self._outstanding:
            raise ConfigurationError(f"message key {key} is already outstanding")
        self._outstanding[key] = OutstandingSend(
            key=key,
            payload=payload,
            dst_id=dst_id,
            attempts=1,
            deadline=self.policy.deadline_after(slot, 0),
        )
        if OBS.enabled:
            OBS.registry.inc("netsim.reliable_posts")
        return payload

    def ack(self, key: int) -> bool:
        """Mark ``key`` acknowledged; returns whether it was outstanding."""
        return self._outstanding.pop(key, None) is not None

    def due(self, slot: int, *, strict: bool = True) -> list[OutstandingSend]:
        """Messages whose ack deadline passed, ready for retransmission.

        Each returned message has its attempt count bumped and a fresh
        backoff deadline.  A message with no attempts left is removed and
        either raises :class:`DeliveryTimeout` (``strict=True``) or is
        recorded in :attr:`timeouts`.
        """
        expired = [send for key, send in sorted(self._outstanding.items()) if slot >= send.deadline]
        ready: list[OutstandingSend] = []
        for send in expired:
            if send.attempts >= self.policy.max_attempts:
                del self._outstanding[send.key]
                if OBS.enabled:
                    OBS.registry.inc("netsim.timeouts")
                if strict:
                    raise DeliveryTimeout(
                        f"message {send.key} to node {send.dst_id} unacked after "
                        f"{send.attempts} attempts"
                    )
                self.timeouts.append(send.key)
                continue
            send.attempts += 1
            send.deadline = self.policy.deadline_after(slot, send.attempts - 1)
            self.retries += 1
            if OBS.enabled:
                OBS.registry.inc("netsim.retries")
            ready.append(send)
        return ready


class ReliableSenderAgent(NodeAgent):
    """Delivers a fixed batch of payloads to one peer, reliably.

    Sends one :class:`~repro.runtime.message.DataMessage` at a time (stop and
    wait), retransmitting per the outbox's policy until every payload is
    acked or a message times out.

    Args:
        node: the controlled node.
        rng: agent randomness (unused; the schedule is deterministic).
        dst_id: the receiving node's id.
        payloads: the payload sequence to deliver, in order.
        power: transmission power.
        policy: retry policy (default :class:`RetryPolicy`).
        strict: raise :class:`DeliveryTimeout` on budget exhaustion when
            ``True``, otherwise record the loss and move on.
    """

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        *,
        dst_id: int,
        payloads: list[Any],
        power: float,
        policy: RetryPolicy | None = None,
        strict: bool = True,
    ) -> None:
        super().__init__(node, rng)
        self.dst_id = dst_id
        self.payloads = list(payloads)
        self.power = power
        self.outbox = ReliableOutbox(policy)
        self.strict = strict
        self.acked = 0
        self._next_key = 0

    def act(self, slot: int) -> tuple[float, Any] | None:
        due = self.outbox.due(slot, strict=self.strict)
        if due:
            send = due[0]
            return self.power, send.payload
        if len(self.outbox) == 0 and self._next_key < len(self.payloads):
            key = self._next_key
            self._next_key += 1
            payload = DataMessage(
                sender=self.node,
                payload=self.payloads[key],
                destination_id=self.dst_id,
                metadata={"key": key},
            )
            return self.power, self.outbox.post(key, payload, self.dst_id, slot)
        return None

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is None:
            return
        message = reception.message
        if isinstance(message, AckMessage) and message.target_id == self.node_id:
            if self.outbox.ack(message.slot_pair):
                self.acked += 1

    def is_done(self) -> bool:
        return (
            self._next_key >= len(self.payloads)
            and len(self.outbox) == 0
        )


class AckResponderAgent(NodeAgent):
    """Acknowledges every :class:`DataMessage` addressed to it."""

    def __init__(self, node: Node, rng: np.random.Generator, *, power: float) -> None:
        super().__init__(node, rng)
        self.power = power
        self.received: dict[int, Any] = {}
        self._pending_ack: AckMessage | None = None

    def act(self, slot: int) -> tuple[float, Any] | None:
        if self._pending_ack is not None:
            ack = self._pending_ack
            self._pending_ack = None
            return self.power, ack
        return None

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is None:
            return
        message = reception.message
        if (
            isinstance(message, DataMessage)
            and message.destination_id == self.node_id
        ):
            key = int(message.metadata.get("key", -1))
            self.received.setdefault(key, message.payload)
            # `slot_pair` carries the message key back, which is all the
            # sender needs to clear its outbox (dup-acks are harmless).
            self._pending_ack = AckMessage(
                sender=self.node, target_id=message.sender_id, slot_pair=key
            )

    def is_done(self) -> bool:
        # A responder is a pure service: it is "done" whenever no ack is
        # waiting to go out, which lets all-nodes quorums complete.
        return self._pending_ack is None

    def on_crash(self, slot: int) -> None:
        self._pending_ack = None

    def on_recover(self, slot: int) -> None:
        self._pending_ack = None
