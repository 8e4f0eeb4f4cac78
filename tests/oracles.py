"""Test-side oracle for the slot engine.

:class:`LegacySimulator` is the seed per-object slot loop: each agent's
``(power, message)`` action becomes a :class:`~repro.sinr.Transmission`, the
slot is resolved by :meth:`~repro.sinr.Channel.resolve` over node objects
(no geometry store, no index arrays), and every agent then observes its
outcome.  :class:`~repro.runtime.Simulator` must reproduce its traces and
deliveries bit for bit; the slot-engine benchmarks time against it.
"""

from __future__ import annotations

from repro.runtime import ExecutionTrace
from repro.sinr import Channel, Transmission

__all__ = ["LegacySimulator"]


class LegacySimulator:
    """Runs agents slot by slot through ``channel.resolve``.

    Args:
        agents: the per-node protocol agents.
        channel: the channel whose object-path ``resolve`` decodes each slot.
    """

    def __init__(self, agents, channel: Channel):
        self.agents = list(agents)
        self.channel = channel
        self.trace = ExecutionTrace()
        self._slot = 0

    def step(self, label: str = "") -> None:
        slot = self._slot
        transmissions = []
        listeners = []
        for agent in self.agents:
            action = agent.act(slot)
            if action is None:
                listeners.append(agent.node)
            else:
                transmissions.append(Transmission(agent.node, action[0], action[1]))
        receptions = self.channel.resolve(transmissions, listeners, slot)
        for agent in self.agents:
            agent.observe(slot, receptions.get(agent.node_id))
        self.trace.append_slot(
            slot,
            [t.sender.id for t in transmissions],
            [(listener, rec.sender.id) for listener, rec in receptions.items()],
            label,
        )
        self._slot += 1

    def run(self, slots: int, label: str = "") -> ExecutionTrace:
        for _ in range(slots):
            self.step(label)
        return self.trace
