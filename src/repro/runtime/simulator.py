"""Lock-step slotted simulator.

The simulator advances global slotted time.  In every slot it polls each
agent for an action, feeds the resulting transmissions through the SINR
channel, and delivers to every listening agent whatever (if anything) that
agent decoded.  This is exactly the execution model of the paper: synchronized
clocks, slotted time, a single shared channel, no carrier sensing.

A slot is three seams - poll, decode, deliver - composed by :meth:`Simulator
.step`.  Agents are polled through :meth:`~repro.runtime.agent.NodeAgent.act`,
transmitter positions and powers are collected into arrays, and the whole
agent universe is decoded in one vectorized pass through
:meth:`~repro.sinr.channel.CachedChannel.resolve_indices_full`, which gathers
its attenuation/fade blocks from the channel's backing geometry store (dense
or tiled, as :func:`repro.state.build_store` decides); :class:`~repro.sinr
.Reception` objects are built only for the listeners that decode.  The
fault-injected message-passing runtime (``repro.netsim``) overrides the seams
to change who gets polled and which decoded messages actually arrive, while
reusing the exact decode arithmetic.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import CachedChannel, Reception, SINRParameters
from ..sinr.channel import ensure_positive_powers
from ..state import DecodeWorkspace
from .agent import NodeAgent
from .trace import ExecutionTrace

__all__ = ["Simulator", "spawn_agent_rngs"]


def spawn_agent_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent child generators from a parent generator."""
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


class Simulator:
    """Runs a collection of agents over a shared SINR channel.

    Args:
        agents: the per-node protocol agents.
        params: the physical-model parameters of the shared channel.
        trace: optional pre-existing trace to append to.
    """

    #: Telemetry counters bumped per slot: slots, transmissions, receptions.
    _COUNTERS = ("sim.slots", "sim.transmissions", "sim.receptions")

    def __init__(
        self,
        agents: Sequence[NodeAgent],
        params: SINRParameters,
        trace: ExecutionTrace | None = None,
    ):
        ids = [agent.node_id for agent in agents]
        if len(ids) != len(set(ids)):
            raise ProtocolError("duplicate node ids among agents")
        self.agents: list[NodeAgent] = list(agents)
        # The agent set is fixed for the simulator's lifetime, so the channel
        # views one geometry store over the agents' nodes, in agent order:
        # agent position == channel cache index.
        self._nodes = [agent.node for agent in self.agents]
        self.channel = CachedChannel(params, self._nodes)
        self.trace = trace if trace is not None else ExecutionTrace()
        self._slot = 0
        self._node_ids: list[int] = ids
        # Hot-loop hoists: bound methods are captured once instead of being
        # looked up per agent per slot.
        self._act = [agent.act for agent in self.agents]
        self._observe = [agent.observe for agent in self.agents]
        self._listening = np.empty(len(self.agents), dtype=bool)
        # Scratch arena for the decode: every slot's gathered blocks,
        # received-power matrix and per-listener vectors live in these
        # reused buffers (results are consumed within the slot, so the
        # view-until-next-decode contract holds by construction).
        self._workspace = DecodeWorkspace()

    @property
    def current_slot(self) -> int:
        """Index of the next slot to execute."""
        return self._slot

    def step(self, label: str = "") -> None:
        """Execute one slot."""
        slot = self._slot
        tx_pos, powers, messages = self._poll(slot)
        receptions, pairs = self._decode(slot, tx_pos, powers, messages)
        self._deliver(slot, receptions)
        self.trace.append_slot(slot, [self._node_ids[i] for i in tx_pos], pairs, label)
        if OBS.enabled:
            registry = OBS.registry
            slots, transmissions, received = self._COUNTERS
            registry.inc(slots)
            if tx_pos:
                registry.inc(transmissions, len(tx_pos))
            if pairs:
                registry.inc(received, len(pairs))
        self._slot += 1

    def _poll(self, slot: int) -> tuple[list[int], list[float], list[Any]]:
        """Poll every agent for the slot; fills ``self._listening`` in place."""
        tx_pos: list[int] = []
        powers: list[float] = []
        messages: list[Any] = []
        listening = self._listening
        listening[:] = True
        for i, act in enumerate(self._act):
            action = act(slot)
            if action is not None:
                tx_pos.append(i)
                powers.append(action[0])
                messages.append(action[1])
                listening[i] = False
        return tx_pos, powers, messages

    def _decode(
        self,
        slot: int,
        tx_pos: list[int],
        powers: list[float],
        messages: list[Any],
    ) -> tuple[list[Reception | None], list[tuple[int, int]]]:
        """Resolve the slot's transmissions through the SINR channel.

        Returns per-agent-position receptions plus the (listener id, sender
        id) pairs in trace order.
        """
        node_ids = self._node_ids
        nodes = self._nodes
        receptions: list[Reception | None] = [None] * len(nodes)
        pairs: list[tuple[int, int]] = []
        if not tx_pos:
            return receptions, pairs
        # Validate before the listener check so a non-positive power raises
        # even in a slot where every agent transmits.
        power_arr = np.array(powers, dtype=float)
        ensure_positive_powers(power_arr)
        if len(tx_pos) == len(nodes):
            return receptions, pairs
        best, sinr, ok = self.channel.resolve_indices_full(
            np.array(tx_pos, dtype=np.intp), power_arr, slot=slot, workspace=self._workspace
        )
        # Half-duplex: transmitter columns never decode.
        for pos in np.nonzero(ok & self._listening)[0].tolist():
            b = int(best[pos])
            src = tx_pos[b]
            receptions[pos] = Reception(
                sender=nodes[src], message=messages[b], sinr=float(sinr[pos])
            )
            pairs.append((node_ids[pos], node_ids[src]))
        return receptions, pairs

    def _deliver(self, slot: int, receptions: list[Reception | None]) -> None:
        """Deliver the slot outcome to every agent, in agent order."""
        for observe, reception in zip(self._observe, receptions):
            observe(slot, reception)

    def run(self, slots: int, label: str = "") -> ExecutionTrace:
        """Execute a fixed number of slots."""
        if slots < 0:
            raise ValueError("slots must be non-negative")
        with span("sim.run", slots=slots, label=label):
            for _ in range(slots):
                self.step(label)
        return self.trace

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_slots: int,
        label: str = "",
    ) -> ExecutionTrace:
        """Execute slots until ``predicate(self)`` holds or ``max_slots`` elapse.

        The predicate is evaluated before each slot; if it is already true no
        slot is executed.

        Raises:
            ProtocolError: if the slot budget is exhausted without the
                predicate becoming true.
        """
        executed = 0
        with span("sim.run_until", max_slots=max_slots, label=label):
            while not predicate(self):
                if executed >= max_slots:
                    raise ProtocolError(
                        f"predicate not satisfied within {max_slots} slots (label={label!r})"
                    )
                self.step(label)
                executed += 1
        return self.trace

    def all_done(self) -> bool:
        """Whether every agent reports completion."""
        return all(agent.is_done() for agent in self.agents)

    def agents_by_id(self) -> dict[int, NodeAgent]:
        """Mapping from node id to agent."""
        return {agent.node_id: agent for agent in self.agents}
