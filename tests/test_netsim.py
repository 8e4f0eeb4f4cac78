"""Tests for the fault-injected message-passing runtime (``repro.netsim``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InitialTreeBuilder
from repro.exceptions import (
    ConfigurationError,
    DeliveryTimeout,
    NodeCrashedError,
    ProtocolError,
    TransportError,
)
from repro.geometry import uniform_random
from repro.netsim import (
    AckResponderAgent,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    FaultyTransport,
    HeartbeatDetector,
    LatencyModel,
    NetInitBuilder,
    NetSimulator,
    Partition,
    PerfectTransport,
    ReliableOutbox,
    ReliableSenderAgent,
    RetryPolicy,
    RoundDriver,
)
from repro.sinr import SINRParameters

from .conftest import make_node

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)
#: Plenty of power for a unit-distance link with no competing transmitter.
LINK_POWER = 1000.0


def _pair():
    return [make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0)]


def _reliable_pair(plan=None, *, payloads=3, policy=None, strict=True, detector=None):
    sender_node, receiver_node = _pair()
    rngs = [np.random.default_rng(7), np.random.default_rng(8)]
    sender = ReliableSenderAgent(
        sender_node,
        rngs[0],
        dst_id=receiver_node.id,
        payloads=[f"payload-{i}" for i in range(payloads)],
        power=LINK_POWER,
        policy=policy,
        strict=strict,
    )
    receiver = AckResponderAgent(receiver_node, rngs[1], power=LINK_POWER)
    transport = PerfectTransport() if plan is None else FaultyTransport(plan)
    sim = NetSimulator([sender, receiver], PARAMS, transport, detector=detector)
    return sender, receiver, sim


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(TransportError, ProtocolError)
        assert issubclass(DeliveryTimeout, TransportError)
        assert issubclass(NodeCrashedError, ProtocolError)


class TestFaultPlan:
    def test_faultless_property(self):
        assert FaultPlan().faultless
        assert not FaultPlan(drop_prob=0.1).faultless
        assert not FaultPlan(crashes=CrashSchedule((CrashWindow(1, 0),))).faultless
        assert not FaultPlan(latency=LatencyModel(delay_prob=0.5)).faultless

    def test_drop_rate_tracks_probability(self):
        plan = FaultPlan(seed=5, drop_prob=0.25)
        dst = np.arange(2000, dtype=np.int64)
        rate = float(plan.dropped(9999, dst, 7).mean())
        assert 0.2 < rate < 0.3

    def test_partition_severs_cross_cut_only(self):
        plan = FaultPlan(partitions=(Partition(frozenset({0, 1}), 10, 20),))
        dst = np.array([1, 2], dtype=np.int64)
        assert plan.dropped(0, dst, 15).tolist() == [False, True]
        assert plan.dropped(0, dst, 25).tolist() == [False, False]

    def test_latency_bounded_and_deterministic(self):
        model = LatencyModel(delay_prob=1.0, mean_slots=2.0, max_slots=4)
        dst = np.arange(500, dtype=np.int64)
        delays = model.delays(3, 0, dst, 11)
        assert delays.min() >= 1 and delays.max() <= 4
        assert np.array_equal(delays, model.delays(3, 0, dst, 11))

    def test_crash_schedule_sample_is_pure(self):
        ids = list(range(40))
        first = CrashSchedule.sample(ids, 3, horizon=100, seed=2)
        second = CrashSchedule.sample(list(reversed(ids)), 3, horizon=100, seed=2)
        assert first == second
        assert len(first.node_ids) == 3

    def test_without_crashes_keeps_loss(self):
        plan = FaultPlan(
            seed=1, drop_prob=0.2, crashes=CrashSchedule((CrashWindow(4, 0),))
        )
        stripped = plan.without_crashes()
        assert stripped.drop_prob == 0.2 and not stripped.crashes.windows

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ConfigurationError):
            LatencyModel(delay_prob=-0.1)
        with pytest.raises(ConfigurationError):
            CrashSchedule.sample([1, 2], 3, horizon=10)


class TestTransports:
    def test_faulty_transport_slot_offset_shifts_streams(self):
        plan = FaultPlan(seed=4, drop_prob=0.5)
        base = FaultyTransport(plan)
        shifted = FaultyTransport(plan, slot_offset=1000)
        src = np.zeros(200, dtype=np.int64)
        dst = np.arange(200, dtype=np.int64)
        delivered_base, _ = base.admit(3, src, dst)
        delivered_shifted, _ = shifted.admit(3, src, dst)
        delivered_ref, _ = FaultyTransport(plan).admit(1003, src, dst)
        assert not np.array_equal(delivered_base, delivered_shifted)
        assert np.array_equal(delivered_shifted, delivered_ref)

    def test_heartbeat_digest_distinguishes_slot_offsets(self):
        """Heartbeat losses are recorded at the hashed slot, so a transport
        chained at an offset produces the continuation's digest, not the
        origin's."""
        plan = FaultPlan(seed=4, heartbeat_drop_prob=0.4)
        base = FaultyTransport(plan)
        shifted = FaultyTransport(plan, slot_offset=1000)
        continuation = FaultyTransport(plan)
        for slot in range(64):
            base.heartbeat_delivered(7, slot)
            shifted.heartbeat_delivered(7, slot)
            continuation.heartbeat_delivered(7, slot + 1000)
        assert base.trace.summary()["heartbeat_losses"] > 0
        assert base.trace.digest() != shifted.trace.digest()
        assert shifted.trace.digest() == continuation.trace.digest()

    def test_trace_records_drops_and_delays(self):
        plan = FaultPlan(seed=6, drop_prob=0.4, latency=LatencyModel(delay_prob=0.4))
        transport = FaultyTransport(plan)
        src = np.zeros(300, dtype=np.int64)
        dst = np.arange(1, 301, dtype=np.int64)
        delivered, delay = transport.admit(0, src, dst)
        assert len(transport.trace.dropped) == int((~delivered).sum())
        assert len(transport.trace.delayed) == int((delay > 0).sum())


class TestHeartbeatDetector:
    def test_suspects_after_threshold_and_recovers(self):
        detector = HeartbeatDetector([1, 2], miss_threshold=3)
        for slot in range(3):
            detector.observe_miss(1, slot)
        assert detector.suspected_ids() == {1}
        assert detector.alive_view() == [2]
        detector.observe_heartbeat(1, 3, done=False)
        assert detector.suspected_ids() == frozenset()

    def test_active_view_counts_not_done_alive(self):
        detector = HeartbeatDetector([1, 2, 3], miss_threshold=1)
        detector.observe_heartbeat(1, 0, done=True)
        detector.observe_miss(2, 0)
        assert detector.active_view() == 1  # only node 3

    def test_require_alive_raises(self):
        detector = HeartbeatDetector([1], miss_threshold=1)
        detector.observe_miss(1, 0)
        with pytest.raises(NodeCrashedError):
            detector.require_alive(1)


class TestNetSimulatorSemantics:
    def test_zero_fault_faulty_transport_matches_lockstep(self, rng):
        """A FaultyTransport with a faultless plan is still bit-exact."""
        nodes = uniform_random(32, np.random.default_rng(5))
        oracle = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(6))

        builder = NetInitBuilder(PARAMS)
        # Force the faulty code path (the builder would shortcut to
        # PerfectTransport for a faultless plan).
        builder._make_transport = lambda: FaultyTransport(FaultPlan(seed=9))
        outcome = builder.build(nodes, np.random.default_rng(6))
        assert outcome.tree.parent == oracle.tree.parent
        assert outcome.slots_used == oracle.slots_used
        assert outcome.fault_summary["dropped"] == 0

    def test_crashed_agents_not_polled_and_budget_counts(self):
        sender, receiver, _ = _reliable_pair()
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(1, 2, 6),)))
        sender2, receiver2, sim = _reliable_pair(plan, policy=RetryPolicy(max_attempts=20))
        for _ in range(40):
            sim.step("chatter")
            if sender2.is_done():
                break
        assert sender2.is_done()
        assert sim.crashed_ids() == frozenset()
        summary = sim.fault_summary()
        assert summary["crashes"] == 1 and summary["recoveries"] == 1
        assert sim.send_budget[sender2.node_id] >= 3
        assert sum(sim.send_budget.values()) == summary["transmissions"]

    def test_delayed_message_matures_later(self):
        plan = FaultPlan(seed=2, latency=LatencyModel(delay_prob=1.0, mean_slots=1.0, max_slots=1))
        sender, receiver, sim = _reliable_pair(plan, payloads=1, policy=RetryPolicy(max_attempts=10))
        for _ in range(20):
            sim.step("delayed")
            if sender.is_done():
                break
        assert sender.is_done()
        assert len(sim.fault_trace.delayed) >= 1
        assert receiver.received

    def test_permanent_partition_times_out_reliable_send(self):
        plan = FaultPlan(partitions=(Partition(frozenset({0}),),))
        sender, _, sim = _reliable_pair(
            plan, payloads=1, policy=RetryPolicy(max_attempts=3, timeout_slots=2)
        )
        with pytest.raises(DeliveryTimeout):
            for _ in range(100):
                sim.step("partitioned")

    def test_lenient_mode_records_timeouts(self):
        plan = FaultPlan(partitions=(Partition(frozenset({0}),),))
        sender, _, sim = _reliable_pair(
            plan,
            payloads=2,
            policy=RetryPolicy(max_attempts=2, timeout_slots=2),
            strict=False,
        )
        for _ in range(60):
            sim.step("partitioned")
        assert sender.outbox.timeouts == [0, 1]
        assert sender.acked == 0

    def test_detector_scope_validated(self):
        nodes = _pair()
        agents = [
            AckResponderAgent(node, np.random.default_rng(i), power=LINK_POWER)
            for i, node in enumerate(nodes)
        ]
        with pytest.raises(ConfigurationError):
            NetSimulator(agents, PARAMS, detector=HeartbeatDetector([99]))


class TestReliableOutbox:
    def test_backoff_deadlines_grow(self):
        policy = RetryPolicy(max_attempts=4, timeout_slots=2, backoff=2.0)
        outbox = ReliableOutbox(policy)
        outbox.post(0, "m", dst_id=1, slot=0)
        first = outbox.due(2)
        assert len(first) == 1 and first[0].attempts == 2
        assert first[0].deadline == 2 + 4  # timeout * backoff**1
        assert outbox.due(3) == []
        assert outbox.retries == 1

    def test_duplicate_key_rejected_and_ack_clears(self):
        outbox = ReliableOutbox()
        outbox.post(0, "m", dst_id=1, slot=0)
        with pytest.raises(ConfigurationError):
            outbox.post(0, "m2", dst_id=1, slot=0)
        assert outbox.ack(0) is True
        assert outbox.ack(0) is False
        assert len(outbox) == 0


class TestRoundDriver:
    def test_quorum_validation(self):
        _, _, sim = _reliable_pair()
        with pytest.raises(ConfigurationError):
            RoundDriver(sim, quorum=0.0)

    def test_run_until_quorum_stops_early(self):
        sender, _, sim = _reliable_pair(payloads=1)
        driver = RoundDriver(sim)
        executed, done = driver.run_until_quorum(50, "reliable")
        assert done and executed < 50
        assert sender.is_done()

    def test_run_until_quorum_times_out_under_partition(self):
        plan = FaultPlan(partitions=(Partition(frozenset({0}),),))
        _, _, sim = _reliable_pair(
            plan, payloads=1, policy=RetryPolicy(max_attempts=100, timeout_slots=2)
        )
        driver = RoundDriver(sim)
        executed, done = driver.run_until_quorum(30, "partitioned")
        assert executed == 30 and not done


class TestNetInitParity:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_zero_fault_parity_trace_and_tree(self, seed):
        """The acceptance pin: faultless netsim Init == lockstep, n >= 128."""
        nodes = uniform_random(128, np.random.default_rng(seed))
        oracle = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(seed + 1))
        outcome = NetInitBuilder(PARAMS).build(nodes, np.random.default_rng(seed + 1))
        assert outcome.tree.root_id == oracle.tree.root_id
        assert outcome.tree.parent == oracle.tree.parent
        assert outcome.slots_used == oracle.slots_used
        assert outcome.trace.records == oracle.trace.records
        assert outcome.link_rounds == oracle.link_rounds
        assert outcome.stored_degrees == oracle.stored_degrees
        assert {
            link: oracle.power.power(link)
            for link in oracle.tree.aggregation_schedule.links()
        } == {
            link: outcome.power.power(link)
            for link in outcome.tree.aggregation_schedule.links()
        }


class TestNetInitUnderFaults:
    def test_loss_converges_spanning_tree(self):
        nodes = uniform_random(48, np.random.default_rng(3))
        plan = FaultPlan(seed=3, drop_prob=0.1)
        outcome = NetInitBuilder(PARAMS, plan=plan).build(nodes, np.random.default_rng(4))
        outcome.tree.validate()
        assert set(outcome.tree.nodes) == {node.id for node in nodes}
        assert outcome.fault_summary["dropped"] > 0

    def test_crashes_reliable_spans_survivors(self):
        nodes = uniform_random(48, np.random.default_rng(7))
        ids = [node.id for node in nodes]
        plan = FaultPlan(
            seed=7,
            drop_prob=0.1,
            crashes=CrashSchedule.sample(ids, 2, horizon=150, seed=7, min_slot=10),
        )
        outcome = NetInitBuilder(PARAMS, plan=plan, delivery="reliable").build(
            nodes, np.random.default_rng(8)
        )
        outcome.tree.validate()
        assert len(outcome.crashed) == 2
        assert set(outcome.tree.nodes) == set(ids) - set(outcome.crashed)

    def test_fire_and_forget_crash_raises(self):
        nodes = uniform_random(24, np.random.default_rng(9))
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(nodes[0].id, 5),)))
        with pytest.raises(NodeCrashedError):
            NetInitBuilder(PARAMS, plan=plan, delivery="fire-and-forget").build(
                nodes, np.random.default_rng(10)
            )

    def test_all_crashed_raises(self):
        nodes = uniform_random(8, np.random.default_rng(11))
        windows = tuple(CrashWindow(node.id, 0) for node in nodes)
        plan = FaultPlan(crashes=CrashSchedule(windows))
        with pytest.raises(NodeCrashedError):
            NetInitBuilder(PARAMS, plan=plan).build(nodes, np.random.default_rng(12))

    def test_delivery_mode_validated(self):
        with pytest.raises(ConfigurationError):
            NetInitBuilder(PARAMS, delivery="pigeon")
