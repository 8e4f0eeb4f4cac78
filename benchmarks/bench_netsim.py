"""Netsim benchmark: the message runtime's overhead over the lockstep engine.

Runs the same ``Init`` instance three ways:

* **lockstep**: the batch-engine oracle (``InitialTreeBuilder``);
* **netsim zero-fault**: the message runtime over a perfect transport - must
  produce the bit-identical trace and tree (asserted on every run, timed or
  not: this is the parity pin the whole package rests on);
* **netsim lossy**: 10% drops, to record what fault injection itself costs.

The headline number is the zero-fault netsim run; the printed ratio against
lockstep is the price of the transport seam (delivery filtering, heartbeats,
the failure detector).  In timed runs the zero-fault seam must stay within
``OVERHEAD_CEILING`` of the lockstep engine - the runtime is a testing
instrument, not a replacement engine, but an order-of-magnitude regression
would make the chaos suite unusably slow.

``bench_netsim_control_plane`` runs the lossy instance plus one crash window
on the array control plane and on the scalar one (``tests/oracles.py``),
asserts identical fault traces and results, and prints the ratio.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import InitialTreeBuilder
from repro.geometry import deployment_by_name
from repro.netsim import (
    CrashSchedule,
    FaultPlan,
    NetInitBuilder,
    election_priority,
    run_root_failover,
)
from repro.netsim.faults import CrashWindow
from repro.sinr import SINRParameters
from tests.oracles import scalar_control_plane

N_NODES = 96
SEED = 17
#: Zero-fault netsim slowdown over lockstep tolerated in timed runs.
OVERHEAD_CEILING = 6.0
#: The array control plane must beat the scalar oracle by at least this much.
CONTROL_PLANE_FLOOR = 3.0


def _nodes():
    return deployment_by_name("uniform", N_NODES, np.random.default_rng(SEED))


def _run_lockstep(params):
    return InitialTreeBuilder(params).build(_nodes(), np.random.default_rng(SEED + 1))


def _run_netsim(params, plan=None):
    return NetInitBuilder(params, plan=plan).build(
        _nodes(), np.random.default_rng(SEED + 1)
    )


def _timed(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_parity(oracle, outcome):
    assert outcome.tree.root_id == oracle.tree.root_id
    assert outcome.tree.parent == oracle.tree.parent
    assert outcome.slots_used == oracle.slots_used
    assert outcome.trace.records == oracle.trace.records


def bench_netsim(benchmark):
    params = SINRParameters()
    oracle = _run_lockstep(params)

    if not benchmark.enabled:
        # Blocking CI smoke: the parity pin always runs; wall-clock ratios on
        # shared runners never gate merges.
        _assert_parity(oracle, _run_netsim(params))
        lossy = _run_netsim(params, FaultPlan(seed=SEED, drop_prob=0.10))
        lossy.tree.validate()
        benchmark.pedantic(lambda: _run_netsim(params), rounds=1, iterations=1)
        return

    lockstep_time, _ = _timed(lambda: _run_lockstep(params), repeats=2)
    netsim_time, outcome = _timed(lambda: _run_netsim(params), repeats=2)
    _assert_parity(oracle, outcome)
    benchmark.pedantic(lambda: _run_netsim(params), rounds=1, iterations=1)

    lossy_plan = FaultPlan(seed=SEED, drop_prob=0.10)
    lossy_time, lossy = _timed(lambda: _run_netsim(params, lossy_plan), repeats=2)
    lossy.tree.validate()

    ratio = netsim_time / max(lockstep_time, 1e-9)
    print()
    print(
        f"netsim Init {N_NODES} nodes: lockstep {lockstep_time:.3f}s, "
        f"netsim zero-fault {netsim_time:.3f}s ({ratio:.2f}x), "
        f"netsim 10% loss {lossy_time:.3f}s "
        f"({lossy.slots_used}/{oracle.slots_used} slots)"
    )
    assert ratio <= OVERHEAD_CEILING, (
        f"zero-fault netsim runtime is {ratio:.1f}x the lockstep engine "
        f"(ceiling: {OVERHEAD_CEILING}x)"
    )


def _control_plane_fingerprint(outcome, trace):
    return (
        outcome.tree.root_id,
        outcome.tree.parent,
        outcome.slots_used,
        outcome.trace.records,
        outcome.crashed,
        outcome.reattached,
        outcome.send_budget,
        outcome.fault_summary,
        outcome.fault_digest,
        trace.dropped,
        trace.delayed,
        trace.crashes,
        trace.recoveries,
        trace.heartbeat_losses,
    )


def bench_netsim_control_plane(benchmark):
    """Array control plane vs the scalar oracle on the 10%-loss instance
    with one node crashing mid-run and recovering."""
    params = SINRParameters()
    victim = _nodes()[N_NODES // 2].id
    plan = FaultPlan(
        seed=SEED,
        drop_prob=0.10,
        crashes=CrashSchedule((CrashWindow(victim, 40, 400),)),
    )

    def run(scalar):
        # Keep the main run's fault trace: the result carries its summary
        # and digest, the trace holds the ordered lists.
        traces = []
        builder = NetInitBuilder(params, plan=plan)
        make_transport = builder._make_transport

        def recording_transport():
            transport = make_transport()
            traces.append(transport.trace)
            return transport

        builder._make_transport = recording_transport
        if scalar:
            with scalar_control_plane():
                outcome = builder.build(_nodes(), np.random.default_rng(SEED + 1))
        else:
            outcome = builder.build(_nodes(), np.random.default_rng(SEED + 1))
        return _control_plane_fingerprint(outcome, traces[0])

    repeats = 2 if benchmark.enabled else 1
    array_time, fast = _timed(lambda: run(False), repeats)
    scalar_time, slow = _timed(lambda: run(True), repeats)
    summary = fast[7]
    assert summary["crashes"] == 1 and summary["heartbeat_losses"] > 0
    assert fast == slow
    benchmark.pedantic(lambda: run(False), rounds=1, iterations=1)
    ratio = scalar_time / max(array_time, 1e-9)
    print()
    print(
        f"netsim control plane {N_NODES} nodes, 10% loss + 1 crash: array "
        f"{array_time:.3f}s, scalar oracle {scalar_time:.3f}s, ratio {ratio:.2f}x"
    )
    if benchmark.enabled:
        assert ratio >= CONTROL_PLANE_FLOOR, (
            f"array control plane only {ratio:.2f}x faster than the scalar oracle "
            f"(floor: {CONTROL_PLANE_FLOOR}x)"
        )


def _run_failover(params, tree, power, root):
    plan = FaultPlan(
        seed=SEED, drop_prob=0.10, crashes=CrashSchedule((CrashWindow(root, 0),))
    )
    return run_root_failover(
        tree,
        power,
        params=params,
        plan=plan,
        crashed_ids=[root],
        rng=np.random.default_rng(SEED + 2),
    )


def bench_election_failover(benchmark):
    """Root-failover latency: election + re-root + repair at 10% loss.

    The liveness pin always runs: the survivors elect the max-priority live
    node, the tree re-roots at it and spans every survivor.  Timed runs
    record the wall-clock of the whole recovery (the election itself is a
    few slots; the cost is the completion patch re-attaching the dead
    root's orphans).
    """
    params = SINRParameters()
    oracle = _run_lockstep(params)
    tree, power, root = oracle.tree, oracle.power, oracle.tree.root_id

    failover = _run_failover(params, tree, power, root)
    survivors = set(tree.nodes) - {root}
    assert failover.new_root_id == max(
        survivors, key=lambda nid: election_priority(SEED, nid)
    )
    assert failover.tree.root_id == failover.new_root_id
    assert set(failover.tree.nodes) == survivors
    failover.tree.validate()
    assert failover.election.slots_used > 0

    benchmark.pedantic(
        lambda: _run_failover(params, tree, power, root), rounds=1, iterations=1
    )
