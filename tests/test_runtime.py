"""Tests for repro.runtime (agents, simulator, trace, messages)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.runtime import (
    AckMessage,
    BroadcastMessage,
    DataMessage,
    ExecutionTrace,
    NodeAgent,
    Simulator,
    SlotRecord,
    spawn_agent_rngs,
)
from repro.sinr import Reception

from .conftest import make_node


class _BeaconAgent(NodeAgent):
    """Transmits in every even slot; records what it hears otherwise."""

    def __init__(self, node, rng, power: float, transmit: bool):
        super().__init__(node, rng)
        self.power = power
        self.transmit = transmit
        self.heard: list[tuple[int, int]] = []

    def act(self, slot: int):
        if self.transmit and slot % 2 == 0:
            return self.power, BroadcastMessage(self.node)
        return None

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is not None:
            self.heard.append((slot, reception.sender.id))

    def is_done(self) -> bool:
        return bool(self.heard)


def _make_simulator(params) -> tuple[Simulator, list[_BeaconAgent]]:
    power = params.min_power_for(2.0)
    nodes = [make_node(0, 0, 0), make_node(1, 1, 0), make_node(2, 2, 0)]
    rngs = spawn_agent_rngs(np.random.default_rng(0), len(nodes))
    agents = [
        _BeaconAgent(nodes[0], rngs[0], power, transmit=True),
        _BeaconAgent(nodes[1], rngs[1], power, transmit=False),
        _BeaconAgent(nodes[2], rngs[2], power, transmit=False),
    ]
    return Simulator(agents, params), agents


class TestMessages:
    def test_broadcast_message_fields(self):
        node = make_node(3, 1, 2)
        message = BroadcastMessage(sender=node, round_index=2)
        assert message.sender_id == 3
        assert message.round_index == 2

    def test_ack_message_fields(self):
        node = make_node(4, 0, 0)
        ack = AckMessage(sender=node, target_id=7, round_index=1, slot_pair=9)
        assert ack.sender_id == 4
        assert ack.target_id == 7

    def test_data_message_defaults(self):
        message = DataMessage(sender=make_node(0, 0, 0), payload=42)
        assert message.payload == 42
        assert message.destination_id is None
        assert message.metadata == {}


class TestSpawnRngs:
    def test_count_and_independence(self):
        parent = np.random.default_rng(1)
        children = spawn_agent_rngs(parent, 3)
        assert len(children) == 3
        draws = {child.integers(0, 2**31) for child in children}
        assert len(draws) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_agent_rngs(np.random.default_rng(0), -1)


class TestSimulator:
    def test_step_delivers_receptions(self, params):
        simulator, agents = _make_simulator(params)
        simulator.step(label="beacon")
        (record,) = simulator.trace.records
        assert record.transmitters == (0,)
        assert set(record.receptions) == {1, 2}
        assert agents[1].heard and agents[1].heard[0][1] == 0

    def test_run_counts_slots(self, params):
        simulator, _ = _make_simulator(params)
        trace = simulator.run(4, label="x")
        assert trace.slots_used == 4
        assert simulator.current_slot == 4

    def test_run_until_predicate(self, params):
        simulator, agents = _make_simulator(params)
        simulator.run_until(lambda sim: agents[1].is_done(), max_slots=10)
        assert agents[1].is_done()

    def test_run_until_budget_exhausted_raises(self, params):
        simulator, _ = _make_simulator(params)
        with pytest.raises(ProtocolError):
            simulator.run_until(lambda sim: False, max_slots=3)

    def test_duplicate_agent_ids_rejected(self, params):
        node = make_node(0, 0, 0)
        rngs = spawn_agent_rngs(np.random.default_rng(0), 2)
        agents = [
            _BeaconAgent(node, rngs[0], 1.0, True),
            _BeaconAgent(node, rngs[1], 1.0, False),
        ]
        with pytest.raises(ProtocolError):
            Simulator(agents, params)

    def test_all_done_and_agents_by_id(self, params):
        simulator, agents = _make_simulator(params)
        assert not simulator.all_done()
        assert simulator.agents_by_id()[0] is agents[0]


class TestTrace:
    def test_counts(self):
        trace = ExecutionTrace()
        trace.record(SlotRecord(slot=0, transmitters=(1, 2), receptions={3: 1}, label="a"))
        trace.record(SlotRecord(slot=1, transmitters=(), receptions={}, label="b"))
        assert trace.slots_used == 2
        assert trace.busy_slots() == 1
        assert trace.transmissions_sent == 2
        assert trace.successful_receptions == 1

    def test_label_filter_and_summary(self):
        trace = ExecutionTrace(metadata={"phase": "test"})
        trace.record(SlotRecord(slot=0, transmitters=(0,), receptions={}, label="x"))
        assert len(trace.slots_with_label("x")) == 1
        summary = trace.summary()
        assert summary["slots_used"] == 1
        assert summary["phase"] == "test"
