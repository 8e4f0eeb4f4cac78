"""Test-side oracles for the slot engine and the ``Init`` population.

:class:`LegacySimulator` is the seed per-object slot loop: each agent's
``(power, message)`` action becomes a :class:`~repro.sinr.Transmission`, the
slot is resolved by :meth:`~repro.sinr.Channel.resolve` over node objects
(no geometry store, no index arrays), and every agent then observes its
outcome.  :class:`~repro.runtime.Simulator` must reproduce its traces and
deliveries bit for bit; the slot-engine benchmarks time against it.

:func:`agent_init_build` runs ``Init`` the per-object way: one
:class:`~repro.core.InitAgent` per node, polled and delivered to by a plain
:class:`~repro.runtime.Simulator`.  :class:`~repro.core.InitialTreeBuilder`'s
struct-of-arrays population must reproduce its result field for field.
"""

from __future__ import annotations

from repro.core import InitAgent, InitialTreeBuilder, InitialTreeResult
from repro.core.init_tree import InitState
from repro.exceptions import ProtocolError
from repro.runtime import ExecutionTrace, Simulator, spawn_agent_rngs
from repro.sinr import Channel, Transmission

__all__ = ["LegacySimulator", "agent_init_build", "init_fingerprint"]


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


def agent_init_build(builder: InitialTreeBuilder, nodes, rng) -> InitialTreeResult:
    """``builder.build(nodes, rng)`` with ``InitAgent`` objects on ``Simulator``."""
    node_list = list(nodes)
    if len(node_list) <= 1:
        return builder.build(node_list, rng)
    delta, rounds_per_sweep, pairs_per_round = builder._sweep_plan(node_list)
    agents = [
        InitAgent(
            node=node,
            rng=agent_rng,
            params=builder.params,
            constants=builder.constants,
            rounds_per_sweep=rounds_per_sweep,
            slot_pairs_per_round=pairs_per_round,
        )
        for node, agent_rng in zip(node_list, spawn_agent_rngs(rng, len(node_list)))
    ]
    simulator = Simulator(agents, builder.params)

    def active_count() -> int:
        return sum(1 for agent in agents if agent.active)

    rounds_used, sweeps_used = builder._run_sweeps(
        simulator, active_count, rounds_per_sweep, pairs_per_round
    )
    if active_count() > 1:
        raise ProtocolError(
            f"Init did not converge to a single active node within {builder.max_sweeps} sweeps"
        )
    return builder._extract_result(
        node_list,
        InitState.from_agents(agents),
        simulator.trace,
        simulator.current_slot,
        delta,
        rounds_used,
        sweeps_used,
    )


def init_fingerprint(result: InitialTreeResult) -> tuple:
    """Every field of an ``Init`` result that the parity claims cover."""
    return (
        result.trace.records,
        result.tree.root_id,
        result.tree.parent,
        result.tree.slot_stamps(),
        result.link_rounds,
        result.power.as_dict(),
        result.stored_degrees,
        result.slots_used,
        result.rounds_used,
        result.sweeps_used,
        result.delta,
    )
