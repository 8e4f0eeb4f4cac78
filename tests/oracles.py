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

The scalar netsim control plane - one hash and one detector update per node
per slot, one admission call per sender, one crash query per node per slot -
is :class:`ScalarFaultyTransport`, :class:`ScalarHeartbeatDetector` and
:class:`ScalarNetSimulator`; :func:`scalar_control_plane` swaps them in for a
:class:`~repro.netsim.NetInitBuilder` run.  The array control plane of
:class:`~repro.netsim.NetSimulator` must reproduce its fault traces,
detector states, telemetry totals and results exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

import repro.netsim.init_builder as init_builder_module
from repro.core import InitAgent, InitialTreeBuilder, InitialTreeResult
from repro.core.init_tree import InitState
from repro.dynamics.gain import _hash_u64, _uniform_open
from repro.exceptions import ConfigurationError, NodeCrashedError, ProtocolError
from repro.netsim import FaultyTransport, NetSimulator
from repro.netsim.faults import _DROP_STREAM, _HEARTBEAT_STREAM
from repro.obs.runtime import OBS
from repro.runtime import ExecutionTrace, Simulator, spawn_agent_rngs
from repro.sinr import Channel, Transmission
from repro.state import build_store

__all__ = [
    "LegacySimulator",
    "ScalarFaultyTransport",
    "ScalarHeartbeatDetector",
    "ScalarNetSimulator",
    "agent_init_build",
    "detector_state",
    "init_fingerprint",
    "scalar_control_plane",
]


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
            list(receptions),
            [rec.sender.id for rec in receptions.values()],
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
    store = build_store(node_list, builder.params.store)
    delta, rounds_per_sweep, pairs_per_round = builder._sweep_plan(store)
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
    simulator = Simulator(agents, builder.params, store=store)

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


# -- the scalar netsim control plane -------------------------------------------


class ScalarFaultyTransport(FaultyTransport):
    """:class:`~repro.netsim.FaultyTransport` answering one message, one
    sender or one node at a time: per-sender admission, a scalar hash per
    heartbeat, and a scan of the crash windows per node query."""

    __slots__ = ()

    def admit(self, slot, src_ids, dst_ids):
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        plan = self.plan
        hashed_slot = slot + self.slot_offset
        delivered = np.ones(len(dst), dtype=bool)
        delay = np.zeros(len(dst), dtype=np.intp)
        for src_id in np.unique(src).tolist():
            mask = src == src_id
            targets = dst[mask]
            drops = np.zeros(len(targets), dtype=bool)
            if plan.drop_prob > 0.0:
                u = _uniform_open(_hash_u64(_DROP_STREAM, plan.seed, src_id, targets, hashed_slot))
                drops |= u < plan.drop_prob
            for partition in plan.partitions:
                if partition.active(hashed_slot):
                    src_left = src_id in partition.left
                    drops |= np.array(
                        [(int(d) in partition.left) != src_left for d in targets], dtype=bool
                    )
            if plan.latency is None:
                delays = np.zeros(len(targets), dtype=np.intp)
            else:
                delays = plan.latency.delays(plan.seed, src_id, targets, hashed_slot)
            delivered[mask] = ~drops
            delay[mask] = np.where(drops, 0, delays)
            for dst_id, was_dropped, d in zip(targets.tolist(), drops.tolist(), delays.tolist()):
                if was_dropped:
                    self.trace.record_drop(slot, src_id, dst_id)
                elif d:
                    self.trace.record_delay(slot, src_id, dst_id, d)
        if OBS.enabled:
            registry = OBS.registry
            drop_count = len(dst) - int(delivered.sum())
            if drop_count:
                registry.inc("netsim.dropped", drop_count)
            delay_count = int((delay > 0).sum())
            if delay_count:
                registry.inc("netsim.delayed", delay_count)
        return delivered, delay

    def is_crashed(self, node_id, slot):
        hashed_slot = slot + self.slot_offset
        return any(
            w.node_id == node_id and w.covers(hashed_slot) for w in self.plan.crashes.windows
        )

    def heartbeats_delivered(self, node_ids, slot):
        plan = self.plan
        hashed_slot = slot + self.slot_offset
        prob = plan.drop_prob if plan.heartbeat_drop_prob is None else plan.heartbeat_drop_prob
        out = []
        for node_id in np.asarray(node_ids, dtype=np.int64).tolist():
            lost = prob > 0.0 and bool(
                _uniform_open(_hash_u64(_HEARTBEAT_STREAM, plan.seed, node_id, hashed_slot)) < prob
            )
            if lost:
                self.trace.heartbeat_losses.append((hashed_slot, node_id))
            out.append(not lost)
        return np.array(out, dtype=bool)


class ScalarHeartbeatDetector:
    """The per-node heartbeat detector: dicts and a set, one call per node."""

    def __init__(self, node_ids, *, interval=1, miss_threshold=3):
        if interval < 1 or miss_threshold < 1:
            raise ConfigurationError("interval and miss_threshold must be positive")
        self.node_ids = list(node_ids)
        self.interval = interval
        self._threshold = miss_threshold
        self._misses = {node_id: 0 for node_id in self.node_ids}
        self._suspected = set()
        self._done = {node_id: False for node_id in self.node_ids}

    def expects_heartbeat(self, slot):
        return slot % self.interval == 0

    def observe_heartbeat(self, node_id, slot, *, done):
        self._misses[node_id] = 0
        self._suspected.discard(node_id)
        self._done[node_id] = done
        if OBS.enabled:
            OBS.registry.inc("netsim.heartbeats")

    def observe_miss(self, node_id, slot):
        misses = self._misses[node_id] + 1
        self._misses[node_id] = misses
        if OBS.enabled:
            OBS.registry.inc("netsim.heartbeat_misses")
        if misses >= self._threshold:
            if OBS.enabled and node_id not in self._suspected:
                OBS.registry.inc("netsim.suspicions")
            self._suspected.add(node_id)

    def suspected_ids(self):
        return frozenset(self._suspected)

    def alive_view(self):
        return [node_id for node_id in self.node_ids if node_id not in self._suspected]

    def active_view(self):
        return sum(
            1
            for node_id in self.node_ids
            if node_id not in self._suspected and not self._done[node_id]
        )

    def require_alive(self, node_id):
        if node_id in self._suspected:
            raise NodeCrashedError(f"node {node_id} is suspected crashed")


class ScalarNetSimulator(NetSimulator):
    """:class:`~repro.netsim.NetSimulator` with the per-node control plane:
    one crash query per node per slot and one heartbeat draw plus one
    detector call per monitored node per heartbeat slot."""

    def _sync_crashes(self, slot):
        trace = self.fault_trace
        for i, node_id in enumerate(self._node_ids):
            down = self.transport.is_crashed(node_id, slot)
            if down == bool(self._crashed[i]):
                continue
            self._crashed[i] = down
            if down:
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

    def _emit_heartbeats(self, slot):
        detector = self.detector
        if not detector.expects_heartbeat(slot):
            return
        monitored = set(detector.node_ids)
        for i, node_id in enumerate(self._node_ids):
            if node_id not in monitored:
                continue
            if self._crashed[i] or not self.transport.heartbeats_delivered(
                np.array([node_id], dtype=np.int64), slot
            )[0]:
                detector.observe_miss(node_id, slot)
            else:
                detector.observe_heartbeat(node_id, slot, done=self.agents[i].is_done())


def detector_state(detector) -> tuple:
    """Views plus per-node misses and reported status, for either detector."""
    misses = detector._misses
    done = detector._done
    if isinstance(misses, dict):
        misses = [misses[node_id] for node_id in detector.node_ids]
        done = [done[node_id] for node_id in detector.node_ids]
    else:
        misses, done = misses.tolist(), done.tolist()
    return (
        detector.suspected_ids(),
        detector.alive_view(),
        detector.active_view(),
        misses,
        done,
    )


@contextmanager
def scalar_control_plane() -> Iterator[None]:
    """Run :class:`~repro.netsim.NetInitBuilder` (completion patches
    included) on the scalar transport, detector and simulator."""
    module = init_builder_module
    swapped = {
        "FaultyTransport": ScalarFaultyTransport,
        "HeartbeatDetector": ScalarHeartbeatDetector,
        "NetSimulator": ScalarNetSimulator,
    }
    originals = {name: getattr(module, name) for name in swapped}
    for name, oracle in swapped.items():
        setattr(module, name, oracle)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
