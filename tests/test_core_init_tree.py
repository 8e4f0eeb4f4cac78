"""Tests for repro.core.init_tree (the ``Init`` protocol, Theorem 2/7)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import AlgorithmConstants
from repro.core import InitialTreeBuilder, InitPopulation, round_power
from repro.exceptions import ProtocolError
from repro.geometry import grid, linear_chain, uniform_random
from repro.links import length_class_index
from repro.netsim import NetInitBuilder
from repro.obs import telemetry
from repro.sinr import SINRParameters
from repro.state.store import MAX_CACHED_CHANNEL_NODES, build_store

from .conftest import make_node
from .oracles import agent_init_build, init_fingerprint


def outcome_fingerprint(build, nodes, seed):
    """The result fingerprint, or the error a build raised."""
    try:
        return init_fingerprint(build(nodes, np.random.default_rng(seed)))
    except ProtocolError as error:
        return ("ProtocolError", str(error))


def population_build(params, constants, max_sweeps=20):
    return InitialTreeBuilder(params, constants, max_sweeps).build


def oracle_build(params, constants, max_sweeps=20):
    builder = InitialTreeBuilder(params, constants, max_sweeps)
    return lambda nodes, rng: agent_init_build(builder, nodes, rng)


def netsim_build(params, constants, max_sweeps=20):
    return NetInitBuilder(params, constants, max_sweeps, delivery="fire-and-forget").build


class TestRoundPower:
    def test_round_power_covers_round_reach(self, params):
        # Power of round r must keep c(u, v) <= 2 beta for links up to 2**r.
        from repro.links import Link
        from repro.sinr import link_cost

        for round_index in (1, 3, 6):
            reach = 2.0**round_index
            link = Link(make_node(0, 0, 0), make_node(1, reach * 0.99, 0))
            cost = link_cost(link, round_power(round_index, params), params)
            assert cost <= 2 * params.beta + 1e-9

    def test_round_power_monotone(self, params):
        assert round_power(2, params) < round_power(3, params)

    def test_round_index_validated(self, params):
        with pytest.raises(ValueError):
            round_power(0, params)

    def test_zero_noise_power_positive(self):
        params = SINRParameters(noise=0.0)
        assert round_power(1, params) > 0


class TestInitSmall:
    def test_single_node(self, params, constants, rng):
        result = InitialTreeBuilder(params, constants).build([make_node(0, 0, 0)], rng)
        assert result.tree.size == 1
        assert result.slots_used == 0
        assert result.tree.root_id == 0

    def test_two_nodes_form_one_link(self, params, constants, rng):
        nodes = [make_node(0, 0, 0), make_node(1, 1.5, 0)]
        result = InitialTreeBuilder(params, constants).build(nodes, rng)
        assert result.tree.size == 2
        assert len(result.tree.aggregation_links()) == 1
        assert result.tree.is_strongly_connected()

    def test_empty_input_rejected(self, params, constants, rng):
        with pytest.raises(ProtocolError):
            InitialTreeBuilder(params, constants).build([], rng)

    def test_invalid_max_sweeps(self, params, constants):
        with pytest.raises(ValueError):
            InitialTreeBuilder(params, constants, max_sweeps=0)


class TestInitStructure:
    @pytest.fixture(scope="class")
    def outcome(self):
        params = SINRParameters()
        rng = np.random.default_rng(42)
        nodes = uniform_random(48, rng)
        return nodes, InitialTreeBuilder(params).build(nodes, rng), params

    def test_spanning_tree(self, outcome):
        nodes, result, _ = outcome
        result.tree.validate()
        assert set(result.tree.nodes) == {node.id for node in nodes}

    def test_strongly_connected(self, outcome):
        _, result, _ = outcome
        assert result.tree.is_strongly_connected()

    def test_aggregation_order_respected(self, outcome):
        _, result, _ = outcome
        result.tree.validate_aggregation_order()

    def test_schedule_feasible_under_recorded_powers(self, outcome):
        _, result, params = outcome
        assert result.tree.aggregation_schedule.is_feasible(result.power, params)

    def test_link_lengths_match_recorded_rounds(self, outcome):
        _, result, _ = outcome
        for (sender, receiver), round_index in result.link_rounds.items():
            link = next(
                l for l in result.tree.aggregation_links() if l.endpoint_ids == (sender, receiver)
            )
            assert length_class_index(max(link.length, 1.0)) + 1 == pytest.approx(round_index)

    def test_slots_accounted(self, outcome):
        _, result, _ = outcome
        assert result.slots_used == result.trace.slots_used
        assert result.slots_used > 0

    def test_degree_bound_is_modest(self, outcome):
        _, result, _ = outcome
        n = result.tree.size
        assert result.tree.max_degree() <= 4 * math.log2(n) + 4

    def test_stored_degrees_cover_all_nodes(self, outcome):
        nodes, result, _ = outcome
        assert set(result.stored_degrees) == {node.id for node in nodes}


class TestInitDeployments:
    def test_grid_deployment(self, params, rng):
        nodes = grid(36, spacing=2.0)
        result = InitialTreeBuilder(params).build(nodes, rng)
        assert result.tree.is_strongly_connected()

    def test_linear_chain_deployment(self, params, rng):
        nodes = linear_chain(20, spacing=1.0)
        result = InitialTreeBuilder(params).build(nodes, rng)
        assert result.tree.is_strongly_connected()

    def test_rounds_scale_with_log_delta(self, params, rng):
        small = InitialTreeBuilder(params).build(linear_chain(8), rng)
        large = InitialTreeBuilder(params).build(linear_chain(64), rng)
        assert large.rounds_used > small.rounds_used

    def test_determinism_with_same_seed(self, params):
        nodes = grid(16, spacing=2.0)
        first = InitialTreeBuilder(params).build(nodes, np.random.default_rng(5))
        second = InitialTreeBuilder(params).build(nodes, np.random.default_rng(5))
        assert first.tree.parent == second.tree.parent
        assert first.slots_used == second.slots_used


class TestPopulationParity:
    """The struct-of-arrays population against ``InitAgent`` objects."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        deploy_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**16),
        broadcast_probability=st.sampled_from([0.05, 0.15, 0.3, 0.5]),
        ack_probability=st.sampled_from([0.25, 0.75, 1.0]),
        factor=st.sampled_from([0.5, 1.0, 3.0]),
        min_pairs=st.integers(min_value=1, max_value=10),
    )
    def test_matches_agent_oracle(
        self, n, deploy_seed, seed, broadcast_probability, ack_probability, factor, min_pairs
    ):
        params = SINRParameters()
        constants = AlgorithmConstants(
            broadcast_probability=broadcast_probability,
            ack_probability=ack_probability,
            slot_pairs_per_round_factor=factor,
            min_slot_pairs_per_round=min_pairs,
        )
        nodes = uniform_random(n, np.random.default_rng(deploy_seed))
        assert outcome_fingerprint(
            population_build(params, constants, 4), nodes, seed
        ) == outcome_fingerprint(oracle_build(params, constants, 4), nodes, seed)

    def test_many_prefetch_blocks(self, params):
        # The root stays active throughout and draws on every slot-pair, so
        # it refills its prefetch buffer several times.
        constants = AlgorithmConstants(min_slot_pairs_per_round=80)
        nodes = uniform_random(6, np.random.default_rng(3))
        population = population_build(params, constants)(nodes, np.random.default_rng(4))
        assert population.slots_used // 2 > 3 * InitPopulation.PREFETCH
        oracle = oracle_build(params, constants)(nodes, np.random.default_rng(4))
        assert init_fingerprint(population) == init_fingerprint(oracle)

    def test_tiled_store_above_dense_ceiling(self):
        params = SINRParameters()
        constants = AlgorithmConstants(slot_pairs_per_round_factor=1.0, min_slot_pairs_per_round=1)
        n = MAX_CACHED_CHANNEL_NODES + 1  # build_store picks the tiled store
        nodes = uniform_random(n, np.random.default_rng(3))
        population = population_build(params, constants)(nodes, np.random.default_rng(4))
        oracle = oracle_build(params, constants)(nodes, np.random.default_rng(4))
        assert init_fingerprint(population) == init_fingerprint(oracle)

    def test_netsim_zero_fault_matches_population(self, params, constants):
        nodes = uniform_random(40, np.random.default_rng(8))
        population = population_build(params, constants)(nodes, np.random.default_rng(9))
        netsim = netsim_build(params, constants)(nodes, np.random.default_rng(9))
        assert init_fingerprint(netsim) == init_fingerprint(population)


@pytest.mark.parametrize("make_build", [population_build, oracle_build, netsim_build])
class TestEdgeSemantics:
    """Pinned small-instance behaviour, identical on every engine."""

    def test_single_node_is_a_zero_slot_tree(self, make_build, params, constants):
        result = make_build(params, constants)([make_node(0, 0, 0)], np.random.default_rng(1))
        assert result.tree.size == 1 and result.tree.root_id == 0
        assert result.slots_used == 0 and result.trace.slots_used == 0

    def test_pair_at_one_and_a_half_converges(self, make_build, params, constants):
        nodes = [make_node(0, 0, 0), make_node(1, 1.5, 0)]
        result = make_build(params, constants)(nodes, np.random.default_rng(1))
        assert len(result.tree.aggregation_links()) == 1
        assert result.link_rounds == {
            (child, parent): 1 for child, parent in result.tree.parent.items()
        }

    def test_colocated_pair_with_a_third_node_converges(self, make_build, params, constants):
        nodes = [make_node(0, 0, 0), make_node(1, 0, 0), make_node(2, 3, 0)]
        result = make_build(params, constants)(nodes, np.random.default_rng(1))
        assert result.tree.root_id == 2
        assert result.tree.parent == {0: 2, 1: 2}

    @pytest.mark.parametrize("gap", [0.0, 0.1])
    def test_sub_unit_pair_never_links(self, make_build, params, constants, gap):
        nodes = [make_node(0, 0, 0), make_node(1, gap, 0)]
        with telemetry() as registry, pytest.raises(ProtocolError, match="did not converge"):
            make_build(params, constants, 3)(nodes, np.random.default_rng(1))
        # It raises only after all three sweeps ran in full.
        plan = InitialTreeBuilder(params, constants)._sweep_plan(build_store(nodes, params.store))
        _, rounds_per_sweep, pairs_per_round = plan
        slots = registry.counter_value("sim.slots") + registry.counter_value("netsim.slots")
        assert slots == 3 * rounds_per_sweep * pairs_per_round * 2


class TestProgressTelemetry:
    @staticmethod
    def per_round(registry, counter):
        return {
            labels["round"]: value for name, labels, value in registry.counters() if name == counter
        }

    def test_active_and_parented_per_round(self, params, constants):
        nodes = uniform_random(24, np.random.default_rng(2))
        off = InitialTreeBuilder(params, constants).build(nodes, np.random.default_rng(4))
        with telemetry() as registry:
            on = InitialTreeBuilder(params, constants).build(nodes, np.random.default_rng(4))
        assert init_fingerprint(on) == init_fingerprint(off)
        assert on.sweeps_used == 1
        active = self.per_round(registry, "init.active")
        parented = self.per_round(registry, "init.parented")
        assert set(active) == set(parented) == {str(r) for r in range(1, on.rounds_used + 1)}
        assert active["1"] == len(nodes)
        for r in range(1, on.rounds_used):
            assert active[str(r + 1)] == active[str(r)] - parented[str(r)]
        assert sum(parented.values()) == len(nodes) - 1
