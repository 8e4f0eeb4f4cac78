"""The four benchmark workloads, driven through ``repro``'s public calls.

Each workload is a closed loop of ops, one at a time.  An op regenerates
its deployment and every protocol RNG from its op seed (the fixed pool seed
and the op's index in the run), runs the protocol stack, and returns the
outcome.  ``Workload.check`` then verifies the outcome (outside the timed
window) and returns the op's exact work counts; a failed check is a failed
op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import SINRParameters, uniform_random
from repro.core import InitialTreeBuilder, TreeViaCapacity
from repro.dynamics import ChurnProcess, DynamicScenario, DynamicSimulator, RandomWalk
from repro.netsim import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    NetDistrCapBuilder,
    NetInitBuilder,
    election_priority,
    run_convergecast,
    run_root_failover,
)

__all__ = ["WORKLOADS", "Workload"]

# Stream tags: each RNG an op draws from is keyed by (op seed, tag), so the
# deployment and every protocol stream are fixed by the op seed alone.
_DEPLOY, _PROTO, _FAULTS, _ELECT, _CHURN, _DYN = range(6)


OpSeed = tuple[int, int]

#: First element of every timed op's seed.  The pool does not depend on the
#: run's ``--seed``: every run of a workload executes the same ops, so its
#: exact counts repeat and its timing spread is host noise only.
POOL_SEED = 1


def _rng(seed: OpSeed, tag: int) -> np.random.Generator:
    return np.random.default_rng([*seed, tag])


def _seed_int(seed: OpSeed, tag: int) -> int:
    return int(_rng(seed, tag).integers(1 << 31))


@dataclass(frozen=True)
class Workload:
    """One named workload: its op, its checks and why it is here."""

    name: str
    why: str
    n: int
    #: Rough op time on the reference host; sizes the op pool of a run.
    nominal_op_s: float
    run_op: Callable[[int, OpSeed, SINRParameters], Any]
    #: ``outcome -> (ok, counts)``; counts hold at least ``sim_slots`` and
    #: ``schedule_slots``.  Raises when a structural check fails.
    check: Callable[[Any], tuple[bool, dict[str, int]]]

    def op_seeds(self, seconds: float) -> list[OpSeed]:
        """The run's op sequence: an odd number of distinct deployments,
        about ``seconds`` of work on the reference host, the same in every run.

        Op cost varies between deployments by 5-10%; a median over several
        of them keeps a run's figures from hinging on one deployment, and
        an odd count makes every median an op's own value.
        """
        count = max(3, round(seconds / self.nominal_op_s)) | 1
        return [(POOL_SEED, index) for index in range(count)]

    def op(self, seed: OpSeed) -> Any:
        return self.run_op(self.n, seed, SINRParameters())


# -- init-large --------------------------------------------------------------


def _init_large(n: int, seed: OpSeed, params: SINRParameters) -> Any:
    nodes = uniform_random(n, _rng(seed, _DEPLOY))
    return InitialTreeBuilder(params).build(nodes, _rng(seed, _PROTO))


def _check_init(result: Any) -> tuple[bool, dict[str, int]]:
    result.tree.validate()
    ok = result.tree.is_strongly_connected()
    return ok, {
        "sim_slots": result.slots_used,
        "schedule_slots": result.tree.aggregation_schedule.length,
    }


# -- tvc-compare -------------------------------------------------------------


def _tvc_compare(n: int, seed: OpSeed, params: SINRParameters) -> Any:
    nodes = uniform_random(n, _rng(seed, _DEPLOY))
    return [
        TreeViaCapacity(params, power_mode=mode).build(nodes, _rng(seed, _PROTO))
        for mode in ("arbitrary", "mean")
    ]


def _check_tvc(results: Any) -> tuple[bool, dict[str, int]]:
    ok = True
    for result in results:
        result.tree.validate()
        ok = ok and result.aggregation_feasible and result.tree.is_strongly_connected()
    return ok, {
        "sim_slots": sum(r.construction_slots for r in results),
        "schedule_slots": sum(r.schedule_length for r in results),
        "core.tvc_iterations": sum(len(r.iterations) for r in results),
    }


# -- lossy-failover ----------------------------------------------------------

_LOSS = 0.10
_RESUME_QUORUM = 0.5


def _lossy_failover(n: int, seed: OpSeed, params: SINRParameters) -> Any:
    nodes = uniform_random(n, _rng(seed, _DEPLOY))
    rng = _rng(seed, _PROTO)
    plan = FaultPlan(seed=_seed_int(seed, _FAULTS), drop_prob=_LOSS)
    # One sweep, as in the paper; reliable delivery completes the tree through
    # the repairer.  A second sweep would make op cost bimodal (about half the
    # deployments need one at 10% loss), which no per-run median survives.
    built = NetInitBuilder(params, max_sweeps=1, plan=plan, delivery="reliable").build(nodes, rng)
    tree, power = built.tree, built.power
    cap = NetDistrCapBuilder(params, plan=plan).select(
        tree.aggregation_links(), rng, link_rounds=built.link_rounds
    )
    agg = run_convergecast(tree, power, params, plan=plan)
    root = tree.root_id
    crash_plan = FaultPlan(
        seed=plan.seed, drop_prob=_LOSS, crashes=CrashSchedule((CrashWindow(root, 0),))
    )
    failover = run_root_failover(
        tree,
        power,
        params=params,
        plan=crash_plan,
        crashed_ids=[root],
        rng=_rng(seed, _ELECT),
    )
    resumed = run_convergecast(
        failover.tree,
        failover.power,
        params,
        plan=crash_plan.without_crashes(),
        slot_offset=failover.slots_used,
        quorum=_RESUME_QUORUM,
    )
    ids = [node.id for node in nodes]
    return built, cap, agg, failover, resumed, crash_plan, ids


def _check_failover(outcome: Any) -> tuple[bool, dict[str, int]]:
    built, cap, agg, failover, resumed, plan, ids = outcome
    built.tree.validate()
    failover.tree.validate()
    root = built.tree.root_id
    survivors = set(ids) - {root}
    leader = max(survivors, key=lambda node_id: election_priority(plan.seed, node_id))
    ok = (
        set(built.tree.nodes) == set(ids)
        and failover.new_root_id == leader
        and failover.tree.root_id == leader
        and set(failover.tree.nodes) == survivors
        and failover.tree.is_strongly_connected()
        and agg.quorum_met
        and resumed.quorum_met
    )
    summaries = (built.fault_summary, cap.fault_summary, agg.fault_summary, resumed.fault_summary)
    return ok, {
        "sim_slots": built.slots_used
        + cap.slots_used
        + agg.slots
        + failover.slots_used
        + resumed.slots,
        "schedule_slots": failover.tree.aggregation_schedule.length,
        "netsim.dropped": sum(s.get("dropped", 0) for s in summaries),
        "netsim.retries": built.fault_summary.get("retries", 0)
        + cap.announce_retries
        + agg.retries
        + failover.election.retries
        + resumed.retries,
        "netsim.election_slots": failover.election.slots_used,
        "netsim.recovery_slots": failover.slots_used,
    }


# -- churn-mobility ----------------------------------------------------------

_EPOCHS = 8
_SIGMA = 0.5
_FAILURE_PROB = 0.04
_ARRIVAL_RATE = 4.0


def _churn_mobility(n: int, seed: OpSeed, params: SINRParameters) -> Any:
    nodes = uniform_random(n, _rng(seed, _DEPLOY))
    churn = ChurnProcess(
        failure_prob=_FAILURE_PROB,
        arrival_rate=_ARRIVAL_RATE,
        seed=_seed_int(seed, _CHURN),
    )
    scenario = DynamicScenario(mobility=RandomWalk(sigma=_SIGMA), churn=churn, epochs=_EPOCHS)
    return DynamicSimulator(nodes, params, scenario, seed=_seed_int(seed, _DYN)).run()


def _check_churn(result: Any) -> tuple[bool, dict[str, int]]:
    result.tree.validate()
    ok = len(result.records) == _EPOCHS and all(r.strongly_connected for r in result.records)
    return ok, {
        "sim_slots": result.initial_slots + result.total_repair_slots,
        "schedule_slots": result.tree.aggregation_schedule.length,
        "dynamics.epochs": len(result.records),
        "dynamics.moved": sum(r.moved for r in result.records),
        "state.patch_cells": sum(r.patch_cells for r in result.records),
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "init-large",
            "Init (Thm 2) at n=2048: SINR kernels and geometry-store reads do real "
            "work; no selection, netsim or dynamics",
            2048,
            2.6,
            _init_large,
            _check_init,
        ),
        Workload(
            "tvc-compare",
            "TreeViaCapacity in arbitrary and mean power at n=128 (Thm 4/16): "
            "~19k short slots where per-agent Python glue dominates",
            128,
            2.2,
            _tvc_compare,
            _check_tvc,
        ),
        Workload(
            "lossy-failover",
            "single-pass netsim Init (repair completes it), Distr-Cap and convergecast "
            "at 10% loss, then root crash, election, resumed aggregation, n=128: kernels ~2%",
            128,
            1.2,
            _lossy_failover,
            _check_failover,
        ),
        Workload(
            "churn-mobility",
            "8 epochs of random walk plus churn at n=192: geometry-store writes, "
            "repair splices, schedule replay and feasibility checks",
            192,
            0.45,
            _churn_mobility,
            _check_churn,
        ),
    )
}
