"""Outside-in layer trace: span wrappers around ``repro``'s public calls.

:class:`LayerTracer` swaps each entry point listed in :data:`ENTRY_POINTS`
(and every ``@hot_kernel`` in ``repro.contracts.KERNEL_REGISTRY``) for a
wrapper that records one span per call: its layer name, start, end and the
index of the enclosing span.  The swap happens at the definition site and
at every module-level alias of the function in ``repro.*`` and in the
benchmark's ``workloads`` module, the same way ``repro.obs.instrument_kernels``
reaches its kernels; :meth:`LayerTracer.restore` puts every original back.

Spans stay in memory, in flat arrays, until the run ends.  A layer's self
time is the time of its spans minus the time of their wrapped children, so
the self times of one op partition the time its top-level spans cover; the
rest of the op is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.contracts import KERNEL_REGISTRY, kernel_function

__all__ = ["ENTRY_POINTS", "LAYERS", "LayerTracer", "OpTrace"]

#: (module, qualified attribute, layer) of every wrapped public entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.geometry.deployment", "uniform_random", "geometry.deploy"),
    ("repro.runtime.simulator", "Simulator.step", "runtime.step"),
    ("repro.sinr.feasibility", "is_feasible", "sinr.feasibility"),
    ("repro.sinr.feasibility", "feasibility_report", "sinr.feasibility"),
    ("repro.state.network", "NetworkState.add_nodes", "state.write"),
    ("repro.state.network", "NetworkState.remove_nodes", "state.write"),
    ("repro.state.network", "NetworkState.move_nodes", "state.write"),
    ("repro.core.init_tree", "InitialTreeBuilder.build", "core.init"),
    ("repro.core.tree_via_capacity", "TreeViaCapacity.build", "core.tvc"),
    ("repro.core.distr_cap", "DistrCapSelector.select", "core.select"),
    ("repro.core.mean_power_selection", "MeanPowerSelector.select", "core.select"),
    ("repro.core.power_solver", "solve_power", "core.select"),
    ("repro.core.tree_subset", "degree_bounded_subset", "core.select"),
    ("repro.core.repair", "TreeRepairer.repair", "core.repair"),
    ("repro.core.repair", "TreeRepairer.integrate", "core.repair"),
    ("repro.netsim.transport", "FaultyTransport.admit", "netsim.transport"),
    ("repro.netsim.init_builder", "NetInitBuilder.build", "netsim.protocol"),
    ("repro.netsim.distr_cap_builder", "NetDistrCapBuilder.select", "netsim.protocol"),
    ("repro.netsim.aggregation", "run_convergecast", "netsim.protocol"),
    ("repro.netsim.election", "run_root_failover", "netsim.protocol"),
    ("repro.dynamics.simulator", "DynamicSimulator.run", "dynamics.run"),
    ("repro.dynamics.simulator", "replay_schedule", "dynamics.run"),
)

#: Every layer a span can be charged to, in report order.
LAYERS: tuple[str, ...] = (
    "geometry.deploy",
    "runtime.step",
    "sinr.kernel",
    "sinr.feasibility",
    "state.kernel",
    "state.write",
    "core.init",
    "core.tvc",
    "core.select",
    "core.repair",
    "netsim.transport",
    "netsim.protocol",
    "dynamics.run",
)

#: Wrapped calls counted by name (the span's callee, not its layer).
_COUNTED_CALLS = {
    "solve_power": "core.power_solver_calls",
    "TreeRepairer.integrate": "core.repair_calls",
    "FaultyTransport.admit": "netsim.admit_calls",
}

_Patch = tuple[Any, str, Any]


@dataclass(frozen=True)
class OpTrace:
    """Self time per layer and call counts of one traced op."""

    op_ns: int
    self_ns: dict[str, int]
    counts: dict[str, int]

    @property
    def unattributed_ns(self) -> int:
        return self.op_ns - sum(self.self_ns.values())


class LayerTracer:
    """Installs span wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self._swaps: list[_Patch] | None = None
        self._originals: list[_Patch] = []
        # Span columns: callee id, layer id, start, end, parent span index.
        self._callee = array("i")
        self._layer = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack = [-1]
        self._callee_names: list[str] = []
        self._traces: dict[int, Any] = {}
        self._op_bounds: list[tuple[int, int, int]] = []
        self._op_io: list[tuple[int, int]] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, func: Callable, callee: str, layer: str, *, step: bool = False) -> Callable:
        callee_id = len(self._callee_names)
        self._callee_names.append(callee)
        layer_id = LAYERS.index(layer)
        callees, layers = self._callee, self._layer
        starts, ends, parents, stack = self._start, self._end, self._parent, self._stack
        traces = self._traces
        clock = time.perf_counter_ns

        if step:

            @functools.wraps(func)
            def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
                idx = len(callees)
                callees.append(callee_id)
                layers.append(layer_id)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return func(sim, *args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                    traces[id(sim.trace)] = sim.trace

        else:

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                idx = len(callees)
                callees.append(callee_id)
                layers.append(layer_id)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return func(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

        return wrapper

    def _plan(self) -> list[_Patch]:
        """Every ``(owner, attribute, replacement)`` swap, computed once."""
        wrappers: dict[int, Callable] = {}
        plan: list[_Patch] = []
        targets = [
            (module_name, qualname, layer, None) for module_name, qualname, layer in ENTRY_POINTS
        ]
        for key, contract in sorted(KERNEL_REGISTRY.items()):
            layer = "sinr.kernel" if contract.module.startswith("repro.sinr") else "state.kernel"
            targets.append((contract.module, contract.qualname, layer, kernel_function(key)))
        for module_name, qualname, layer, func in targets:
            owner, attr = _resolve(module_name, qualname)
            current = owner.__dict__[attr]
            raw = current.__func__ if isinstance(current, staticmethod) else current
            if func is not None and raw is not func:
                raise RuntimeError(f"{module_name}.{qualname} is already wrapped")
            wrapper = self._wrap(raw, qualname, layer, step=qualname == "Simulator.step")
            wrappers[id(raw)] = wrapper
            plan.append(
                (owner, attr, staticmethod(wrapper) if isinstance(current, staticmethod) else wrapper)
            )
        # `from x import f` aliases, in repro and in the workloads module.
        sites = {(id(owner), attr) for owner, attr, _ in plan}
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name == "repro" or name.startswith("repro.") or name == "workloads":
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and (id(module), attr) not in sites:
                        plan.append((module, attr, wrappers[id(value)]))
        return plan

    def install(self) -> None:
        """Swap every entry point and hot kernel for its span wrapper."""
        if self._originals:
            raise RuntimeError("layer tracer already installed")
        if self._swaps is None:
            self._swaps = self._plan()
        for owner, attr, replacement in self._swaps:
            self._originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def installed(self) -> bool:
        """Whether any site this tracer swaps holds its wrapper right now."""
        return any(
            owner.__dict__.get(attr) is replacement for owner, attr, replacement in self._swaps or ()
        )

    # -- recording -----------------------------------------------------------

    def begin_op(self) -> None:
        self._traces.clear()
        self._op_bounds.append((len(self._callee), 0, time.perf_counter_ns()))

    def end_op(self) -> None:
        first, _, start = self._op_bounds[-1]
        end = time.perf_counter_ns()
        if len(self._stack) != 1:
            raise RuntimeError("span stack not empty at the end of an op")
        self._op_bounds[-1] = (first, len(self._callee), end - start)
        tx = sum(t.transmissions_sent for t in self._traces.values())
        rx = sum(t.successful_receptions for t in self._traces.values())
        self._op_io.append((tx, rx))
        self._traces.clear()

    def op_traces(self) -> list[OpTrace]:
        """Self time per layer and call counts of every recorded op."""
        callee = np.frombuffer(self._callee, dtype=np.int32)
        layer = np.frombuffer(self._layer, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        out = []
        for (first, last, op_ns), (tx, rx) in zip(self._op_bounds, self._op_io):
            dur = end[first:last] - start[first:last]
            par = parent[first:last].astype(np.int64) - first
            nested = par >= 0
            child = np.bincount(par[nested], weights=dur[nested], minlength=last - first)
            own = dur - child
            per_layer = np.bincount(layer[first:last], weights=own, minlength=len(LAYERS))
            calls = np.bincount(callee[first:last], minlength=len(self._callee_names))
            by_layer = np.bincount(layer[first:last], minlength=len(LAYERS))
            counts = {
                "runtime.steps": int(by_layer[LAYERS.index("runtime.step")]),
                "runtime.transmissions": tx,
                "runtime.receptions": rx,
                "sinr.kernel_calls": int(by_layer[LAYERS.index("sinr.kernel")]),
                "sinr.feasibility_calls": int(by_layer[LAYERS.index("sinr.feasibility")]),
                "state.kernel_calls": int(by_layer[LAYERS.index("state.kernel")]),
            }
            for name, metric in _COUNTED_CALLS.items():
                counts[metric] = sum(
                    int(calls[i]) for i, c in enumerate(self._callee_names) if c == name
                )
            out.append(
                OpTrace(
                    op_ns,
                    {name: int(round(per_layer[i])) for i, name in enumerate(LAYERS)},
                    counts,
                )
            )
        return out


def _resolve(module_name: str, qualname: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]
