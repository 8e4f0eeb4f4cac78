"""Per-node agents.

Every distributed algorithm in the library is written as a subclass of
:class:`NodeAgent`: an object holding only the node's local state, deciding at
each slot whether to transmit (and what and at which power) or to listen, and
updating its state from whatever the channel delivers.  Agents never see
global state; the simulator is the only component that touches the channel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ..geometry import Node
from ..sinr import Reception

__all__ = ["NodeAgent"]


class NodeAgent(ABC):
    """Base class for the local protocol state machine of one node.

    Args:
        node: the wireless node this agent controls.
        rng: the agent's private source of randomness.  Each agent gets its
            own generator so runs are reproducible regardless of the order in
            which the simulator polls agents.
    """

    def __init__(self, node: Node, rng: np.random.Generator):
        self.node = node
        self.rng = rng

    @property
    def node_id(self) -> int:
        """Id of the controlled node."""
        return self.node.id

    @abstractmethod
    def act(self, slot: int) -> tuple[float, Any] | None:
        """Decide the node's action for ``slot``.

        Returns:
            ``(power, message)`` to transmit ``message`` from this agent's
            node at ``power`` in this slot, or ``None`` to listen.
        """

    @abstractmethod
    def observe(self, slot: int, reception: Reception | None) -> None:
        """Deliver the outcome of ``slot`` to the agent.

        Args:
            slot: the global slot index.
            reception: the message decoded by this node in the slot, or
                ``None`` if the node transmitted or decoded nothing.
        """

    def is_done(self) -> bool:
        """Whether the agent has finished its protocol (used for early exit)."""
        return False

    def on_crash(self, slot: int) -> None:
        """Notify the agent that its node crashed at ``slot``.

        Called by fault-injecting runtimes (``repro.netsim``) when the fault
        plan takes the node down.  While crashed the agent is neither polled
        nor delivered to.  The default keeps all state (crash-recover
        semantics); subclasses may drop volatile in-flight state here.
        """

    def on_recover(self, slot: int) -> None:
        """Notify the agent that its node came back up at ``slot``.

        The agent resumes being polled from this slot on.  Protocol agents
        whose per-slot state is only meaningful within a slot pair (e.g. a
        pending broadcast awaiting its ack phase) should discard it here -
        the context it referred to has passed while the node was down.
        """

    def summary(self) -> dict[str, Any]:
        """Small diagnostic dictionary (protocol-specific)."""
        return {"node_id": self.node_id, "done": self.is_done()}
