"""Slot-engine benchmarks: each fast engine against its oracle, in one run.

``bench_slot_engine`` runs the same 256-agent, 2000-slot beacon workload twice:

* **fast**: :class:`~repro.runtime.Simulator`, ``resolve_indices_full`` over
  the cached attenuation matrix, columnar trace;
* **seed**: the PR-1 slot path - the test-side per-object oracle
  (``tests/oracles.py``: ``Transmission`` objects through ``resolve``),
  cached node distances, and the seed per-listener decode loop
  (``decode_reference``).

In timed runs (``--benchmark-only``, ``scripts/run_benchmarks.py``, the
non-blocking CI micro-benchmark job) this asserts PR 2's acceptance
criterion: the fast path is at least 5x faster with identical channel
outcomes.  Under ``--benchmark-disable`` (the blocking CI collection smoke)
only the outcome-parity checks run - wall-clock ratios on noisy shared
runners must not gate merges.

``bench_init_population`` builds ``Init`` on one 512-node deployment with
:class:`~repro.core.InitialTreeBuilder` (the struct-of-arrays population)
and with the ``InitAgent``-on-``Simulator`` oracle (``tests/oracles.py``),
asserts equal result fingerprints, and prints the oracle / population time
ratio; timed runs also assert it stays above a floor.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import InitialTreeBuilder
from repro.geometry import deployment_by_name, uniform_random
from repro.runtime import NodeAgent, Simulator, spawn_agent_rngs
from repro.sinr import CachedChannel, SINRParameters
from repro.sinr.channel import decode_reference
from tests.oracles import LegacySimulator, agent_init_build, init_fingerprint

N_AGENTS = 256
N_SLOTS = 2000
SPEEDUP_FLOOR = 5.0

INIT_NODES = 512
#: The population must beat the per-agent oracle by at least this much.
INIT_SPEEDUP_FLOOR = 1.5


class ProbeAgent(NodeAgent):
    """Deterministic beacon: transmits every 8th slot, staggered by node id."""

    def __init__(self, node, rng, power):
        super().__init__(node, rng)
        self.power = power
        self.phase = node.id % 8
        self.heard = 0

    def act(self, slot):
        if slot & 7 == self.phase:
            return self.power, None
        return None

    def observe(self, slot, reception):
        if reception is not None:
            self.heard += 1


class SeedDecodeChannel(CachedChannel):
    """The PR-1 channel: cached node distances, per-listener decode loop.

    Subclassing :class:`CachedChannel` keeps the baseline honest - the seed
    path already sliced a precomputed distance matrix; only the decode loop
    and the object marshalling were scalar.
    """

    def _decode(self, transmissions, active_listeners, dist, powers):
        return decode_reference(transmissions, active_listeners, dist, powers, self.params)


def _make_agents(params: SINRParameters) -> list[ProbeAgent]:
    nodes = deployment_by_name("uniform", N_AGENTS, np.random.default_rng(5))
    rngs = spawn_agent_rngs(np.random.default_rng(6), N_AGENTS)
    power = params.min_power_for(1.5)
    return [ProbeAgent(node, rng, power) for node, rng in zip(nodes, rngs)]


def _run_fast(params: SINRParameters, slots: int):
    agents = _make_agents(params)
    simulator = Simulator(agents, params)
    simulator.run(slots)
    return simulator.trace, [agent.heard for agent in agents]


def _run_seed(params: SINRParameters, slots: int):
    agents = _make_agents(params)
    channel = SeedDecodeChannel(params, [agent.node for agent in agents])
    simulator = LegacySimulator(agents, channel)
    simulator.run(slots)
    return simulator.trace, [agent.heard for agent in agents]


def _timed(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_same_outcomes(fast, seed, slots):
    fast_trace, fast_heard = fast
    seed_trace, seed_heard = seed
    assert fast_trace.slots_used == seed_trace.slots_used == slots
    assert fast_trace.transmissions_sent == seed_trace.transmissions_sent
    assert fast_trace.successful_receptions == seed_trace.successful_receptions
    assert fast_trace.records == seed_trace.records
    assert fast_heard == seed_heard


def bench_slot_engine(benchmark):
    params = SINRParameters()

    if not benchmark.enabled:
        # Blocking CI smoke: check outcome parity on a shortened run, skip
        # the wall-clock assertion (shared runners are too noisy to gate on).
        slots = 200
        _assert_same_outcomes(_run_fast(params, slots), _run_seed(params, slots), slots)
        benchmark.pedantic(lambda: _run_fast(params, slots), rounds=1, iterations=1)
        return

    fast_time, fast = _timed(lambda: _run_fast(params, N_SLOTS), repeats=2)
    # Record the fast engine as the benchmark's headline number.
    benchmark.pedantic(lambda: _run_fast(params, N_SLOTS), rounds=1, iterations=1)
    seed_time, seed = _timed(lambda: _run_seed(params, N_SLOTS), repeats=2)
    _assert_same_outcomes(fast, seed, N_SLOTS)

    speedup = seed_time / fast_time
    print()
    print(
        f"slot engine {N_AGENTS} agents x {N_SLOTS} slots: "
        f"fast {fast_time:.3f}s, seed (PR-1) path {seed_time:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized slot engine only {speedup:.1f}x faster than the seed "
        f"per-listener decode path (required: {SPEEDUP_FLOOR}x)"
    )


def bench_init_population(benchmark):
    params = SINRParameters()
    builder = InitialTreeBuilder(params)
    nodes = uniform_random(INIT_NODES, np.random.default_rng(5))

    def population():
        return builder.build(nodes, np.random.default_rng(6))

    def oracle():
        return agent_init_build(builder, nodes, np.random.default_rng(6))

    repeats = 3 if benchmark.enabled else 1
    population_time, fast = _timed(population, repeats)
    oracle_time, reference = _timed(oracle, repeats)
    assert init_fingerprint(fast) == init_fingerprint(reference)
    benchmark.pedantic(population, rounds=1, iterations=1)

    ratio = oracle_time / population_time
    print()
    print(
        f"Init n={INIT_NODES} ({fast.slots_used} slots): population {population_time:.3f}s, "
        f"InitAgent oracle {oracle_time:.3f}s, ratio {ratio:.2f}x"
    )
    if benchmark.enabled:
        assert ratio >= INIT_SPEEDUP_FLOOR, (
            f"Init population only {ratio:.2f}x faster than the InitAgent oracle "
            f"(required: {INIT_SPEEDUP_FLOOR}x)"
        )
