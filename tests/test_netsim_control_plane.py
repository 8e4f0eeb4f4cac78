"""Differential parity: the array netsim control plane against the scalar one.

:class:`~repro.netsim.NetSimulator` syncs crash windows, admits a slot's
decodes and feeds the failure detector as one array pass per slot;
``tests/oracles.py`` keeps the per-node, per-sender control plane.  Every
fault draw is a counter hash of its own identity, so the two must agree
exactly: fault-trace lists in order, detector state after every slot,
telemetry totals, and every field of a ``NetInitBuilder`` result.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InitAgent, InitialTreeBuilder
from repro.geometry import uniform_random
from repro.netsim import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    FaultyTransport,
    HeartbeatDetector,
    LatencyModel,
    NetInitBuilder,
    NetSimulator,
    Partition,
)
from repro.obs import MetricsRegistry, telemetry
from repro.runtime import spawn_agent_rngs
from repro.sinr import SINRParameters
from repro.state import build_store

from .oracles import (
    ScalarFaultyTransport,
    ScalarHeartbeatDetector,
    ScalarNetSimulator,
    detector_state,
    scalar_control_plane,
)

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)


@st.composite
def fault_setups(draw):
    """A deployment size and a fault plan exercising every fault stream."""
    n = draw(st.integers(3, 14))
    ids = list(range(n))
    latency = draw(
        st.one_of(
            st.none(),
            st.builds(
                LatencyModel,
                delay_prob=st.sampled_from([0.0, 0.3, 1.0]),
                mean_slots=st.sampled_from([1.0, 2.5]),
                max_slots=st.integers(1, 4),
            ),
        )
    )
    partitions = tuple(
        Partition(frozenset(left), start, None if span is None else start + span)
        for left, start, span in draw(
            st.lists(
                st.tuples(
                    st.sets(st.sampled_from(ids), max_size=n),
                    st.integers(0, 30),
                    st.one_of(st.none(), st.integers(1, 30)),
                ),
                max_size=2,
            )
        )
    )
    windows = [
        CrashWindow(node, start, None if span is None else start + span)
        for node, start, span in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),
                    st.integers(0, 40),
                    st.one_of(st.none(), st.integers(1, 25)),
                ),
                max_size=4,
            )
        )
    ]
    if draw(st.booleans()):
        # Every node down at once, then back.
        start = draw(st.integers(0, 30))
        windows += [CrashWindow(node, start, start + draw(st.integers(1, 8))) for node in ids]
    plan = FaultPlan(
        seed=draw(st.integers(0, 2**20)),
        drop_prob=draw(st.sampled_from([0.0, 0.1, 0.4, 1.0])),
        latency=latency,
        crashes=CrashSchedule(tuple(windows)),
        partitions=partitions,
        heartbeat_drop_prob=draw(st.sampled_from([None, 0.0, 0.3, 1.0])),
    )
    return n, plan


def _fault_lists(trace):
    return (trace.dropped, trace.delayed, trace.crashes, trace.recoveries, trace.heartbeat_losses)


def _init_sim(sim_cls, detector_cls, transport, nodes, seed, monitored, thresholds):
    store = build_store(nodes, PARAMS.store)
    lockstep = InitialTreeBuilder(PARAMS)
    _, rounds_per_sweep, pairs_per_round = lockstep._sweep_plan(store)
    agents = [
        InitAgent(
            node=node,
            rng=rng,
            params=PARAMS,
            constants=lockstep.constants,
            rounds_per_sweep=rounds_per_sweep,
            slot_pairs_per_round=pairs_per_round,
        )
        for node, rng in zip(nodes, spawn_agent_rngs(np.random.default_rng(seed), len(nodes)))
    ]
    interval, miss_threshold = thresholds
    detector = detector_cls(monitored, interval=interval, miss_threshold=miss_threshold)
    return sim_cls(agents, PARAMS, transport, detector=detector, store=store)


class TestSlotBySlotParity:
    @settings(max_examples=40, deadline=None)
    @given(
        setup=fault_setups(),
        slot_offset=st.sampled_from([0, 5, 1000]),
        thresholds=st.tuples(st.integers(1, 3), st.integers(1, 4)),
        monitor=st.data(),
    )
    def test_array_control_plane_matches_scalar(self, setup, slot_offset, thresholds, monitor):
        n, plan = setup
        nodes = uniform_random(n, np.random.default_rng(plan.seed))
        # The detector watches a reordered subset of the nodes.
        order = monitor.draw(st.permutations([node.id for node in nodes]))
        monitored = order[: monitor.draw(st.integers(1, n))]
        fast = _init_sim(
            NetSimulator,
            HeartbeatDetector,
            FaultyTransport(plan, slot_offset=slot_offset),
            nodes,
            plan.seed,
            monitored,
            thresholds,
        )
        slow = _init_sim(
            ScalarNetSimulator,
            ScalarHeartbeatDetector,
            ScalarFaultyTransport(plan, slot_offset=slot_offset),
            nodes,
            plan.seed,
            monitored,
            thresholds,
        )
        fast_obs, slow_obs = MetricsRegistry(), MetricsRegistry()
        for _ in range(60):
            with telemetry(fast_obs):
                fast.step("chaos")
            with telemetry(slow_obs):
                slow.step("chaos")
            assert detector_state(fast.detector) == detector_state(slow.detector)
            assert fast.crashed_ids() == slow.crashed_ids()
            assert _fault_lists(fast.fault_trace) == _fault_lists(slow.fault_trace)
        assert fast.trace.records == slow.trace.records
        assert fast.fault_summary() == slow.fault_summary()
        assert fast.send_budget == slow.send_budget
        assert list(fast_obs.counters()) == list(slow_obs.counters())


def _outcome(builder, nodes, seed):
    try:
        result = builder.build(nodes, np.random.default_rng(seed))
    except Exception as exc:  # both planes must fail identically
        return type(exc).__name__, str(exc)
    return (
        result.tree.root_id,
        result.tree.parent,
        result.tree.slot_stamps(),
        result.slots_used,
        result.rounds_used,
        result.sweeps_used,
        result.delta,
        result.power.as_dict(),
        result.link_rounds,
        result.trace.records,
        result.stored_degrees,
        result.crashed,
        result.reattached,
        result.completed_by_repair,
        result.completion_slots,
        result.send_budget,
        result.fault_summary,
        result.fault_digest,
    )


class TestBuilderParity:
    @settings(max_examples=20, deadline=None)
    @given(
        setup=fault_setups(),
        slot_offset=st.sampled_from([0, 5, 1000]),
        miss_threshold=st.integers(1, 4),
        max_sweeps=st.integers(1, 2),
    )
    def test_net_init_result_matches_scalar(self, setup, slot_offset, miss_threshold, max_sweeps):
        n, plan = setup
        nodes = uniform_random(n, np.random.default_rng(plan.seed + 1))

        def builder():
            return NetInitBuilder(
                PARAMS,
                max_sweeps=max_sweeps,
                plan=plan,
                miss_threshold=miss_threshold,
                slot_offset=slot_offset,
            )

        fast_obs, slow_obs = MetricsRegistry(), MetricsRegistry()
        with telemetry(fast_obs):
            fast = _outcome(builder(), nodes, plan.seed)
        with scalar_control_plane(), telemetry(slow_obs):
            slow = _outcome(builder(), nodes, plan.seed)
        assert fast == slow
        assert list(fast_obs.counters()) == list(slow_obs.counters())

    def test_oracle_is_swapped_in_and_restored(self):
        import repro.netsim.init_builder as module

        with scalar_control_plane():
            assert module.NetSimulator is ScalarNetSimulator
            assert module.HeartbeatDetector is ScalarHeartbeatDetector
            assert module.FaultyTransport is ScalarFaultyTransport
        assert module.NetSimulator is NetSimulator
        assert module.HeartbeatDetector is HeartbeatDetector
        assert module.FaultyTransport is FaultyTransport
