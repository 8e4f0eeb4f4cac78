"""Benchmark runner: one workload, one process, host-normalized timing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload init-large --seed 1 --seconds 15 --trace 0

A run executes the workload's op sequence (an odd number of distinct
deployments sized by ``--seconds``) one op at a time, in one process, with
``workers=1`` semantics (no trial fabric).
Between ops it collects garbage (GC stays enabled) and times the host probe
(about 4% of an op's time, at least one slice); an op's reference-host time
is its wall time divided by the mean slice time of the two probe gaps
around it, times ``REF_PROBE_S``.  Outcomes are checked after each op,
outside the timed window; a failed check or an exception is a failed op.
The op sequence does not depend on ``--seed``: every run executes the same
ops, so the exact counts repeat and only the host's noise spreads the times.

``--trace 0`` reports the end-to-end metrics with telemetry off.
``--trace 1`` runs every op twice, untraced then under the layer tracer,
and reports per-layer self-time shares, exact counts and the tracing
overhead.  Every metric is printed as a table (name, value, unit, samples);
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Thread counts are read when numpy loads its BLAS; pin them first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: The checkout's own sources; the benchmark never measures an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from probe import REF_PROBE_S, HostProbe  # noqa: E402

#: Setup is measured this many times per run (this process plus children
#: that stop at the first timed op); the median is reported.
SETUP_SAMPLES = 3

#: Op seed of the warm-up op; outside the timed pool (``workloads.POOL_SEED``).
WARMUP_SEED = (0, 0)

#: End-to-end metrics (``--trace 0``): name -> (unit, what it is).
END_TO_END = {
    "op_p50_ref_s": ("s", "median op time in reference-host seconds"),
    "setup_s": ("s", "imports, workload construction and one warm-up op, reference-host s"),
    "peak_rss_mb": ("MB", "peak RSS of this workload's process"),
    "sim_slots": ("count/op", "simulated channel slots per op (construction time), exact"),
    "schedule_slots": ("count/op", "final aggregation schedule length per op, exact"),
}

#: Per-layer metrics (``--trace 1``): name -> (unit, the end-to-end metric and
#: workloads it should move).  Shares are self time over op time, both from
#: the same traced ops; counts are exact per op.
PER_LAYER = {
    "runtime.step_share": ("share", "op_p50_ref_s on tvc-compare, lossy-failover; less il, cm"),
    "runtime.steps": ("count/op", "op_p50_ref_s on tvc-compare, lossy-failover"),
    "runtime.transmissions": ("count/op", "op_p50_ref_s on tvc-compare, lossy-failover"),
    "runtime.receptions": ("count/op", "op_p50_ref_s on tvc-compare, lossy-failover"),
    "sinr.kernel_share": ("share", "op_p50_ref_s on init-large, tvc-compare, churn; lossy flat"),
    "sinr.kernel_calls": ("count/op", "op_p50_ref_s on init-large, tvc-compare, churn"),
    "sinr.feasibility_share": ("share", "op_p50_ref_s on churn-mobility, tvc-compare"),
    "sinr.feasibility_calls": ("count/op", "op_p50_ref_s on churn-mobility, tvc-compare"),
    "state.kernel_share": ("share", "op_p50_ref_s on init-large (reads)"),
    "state.kernel_calls": ("count/op", "op_p50_ref_s on init-large"),
    "state.write_share": ("share", "op_p50_ref_s on churn-mobility only (writes)"),
    "state.patch_cells": ("count/op", "op_p50_ref_s on churn-mobility only"),
    "geometry.deploy_share": ("share", "op_p50_ref_s on init-large"),
    "core.init_share": ("share", "op_p50_ref_s on init-large, tvc-compare"),
    "core.tvc_share": ("share", "op_p50_ref_s on tvc-compare only"),
    "core.tvc_iterations": ("count/op", "schedule_slots on tvc-compare"),
    "core.select_share": ("share", "op_p50_ref_s on tvc-compare only"),
    "core.power_solver_calls": ("count/op", "op_p50_ref_s on tvc-compare only"),
    "core.repair_share": ("share", "op_p50_ref_s on churn-mobility, lossy-failover"),
    "core.repair_calls": ("count/op", "op_p50_ref_s on churn-mobility, lossy-failover"),
    "netsim.transport_share": ("share", "op_p50_ref_s on lossy-failover only"),
    "netsim.admit_calls": ("count/op", "op_p50_ref_s on lossy-failover only"),
    "netsim.dropped": ("count/op", "sim_slots on lossy-failover"),
    "netsim.retries": ("count/op", "sim_slots on lossy-failover"),
    "netsim.protocol_share": ("share", "op_p50_ref_s on lossy-failover only"),
    "netsim.election_slots": ("count/op", "sim_slots on lossy-failover"),
    "netsim.recovery_slots": ("count/op", "sim_slots on lossy-failover"),
    "dynamics.run_share": ("share", "op_p50_ref_s on churn-mobility only"),
    "dynamics.epochs": ("count/op", "op_p50_ref_s on churn-mobility only"),
    "dynamics.moved": ("count/op", "op_p50_ref_s on churn-mobility only"),
    "trace.unattributed_share": ("share", "nothing; must stay small"),
    "trace.overhead_ratio": ("ratio", "nothing; traced / untraced op time"),
    "host.op_p50_s": ("s", "nothing; raw wall-clock op median, explains raw drift"),
    "host.probe_p50_s": ("s", "nothing; raw probe slice median"),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, required=True, help="accepted; the op sequence does not depend on it"
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop at the first timed op and print the setup sample (internal)",
    )
    return parser.parse_args(argv)


class Runner:
    """Runs ops one at a time with a probe gap between each pair."""

    def __init__(self, workload, probe: HostProbe) -> None:
        self.workload = workload
        self.probe = probe
        # Longer ops get more probe time around them (~4% of an op), so the
        # host speed is sampled about as well for every workload.
        self.slices_per_gap = max(1, round(0.04 * workload.nominal_op_s / REF_PROBE_S))
        self.gaps = [self.gap()]
        self.failed = 0
        self.attempted = 0

    def timed(self, seed, guard=None, tracer=None):
        """Run one op; returns ``(wall_s, ref_s, counts)``, ``counts`` is
        ``None`` when the op raised or failed its checks.  With a ``tracer``
        its span wrappers are installed for exactly the op's duration."""
        if guard is not None:
            guard()
        self.attempted += 1
        counts = None
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        start = time.perf_counter()
        try:
            try:
                outcome = self.workload.op(seed)
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
                    tracer.restore()
            ok, op_counts = self.workload.check(outcome)
            del outcome
            counts = op_counts if ok else None
        except Exception:  # a failing op is counted, never dropped silently
            traceback.print_exc()
        if counts is None:
            self.failed += 1
        gc.collect()
        self.gaps.append(self.gap())
        ref = wall / ((self.gaps[-2] + self.gaps[-1]) / 2) * REF_PROBE_S
        return wall, ref, counts

    def gap(self) -> float:
        """Mean probe slice time over one gap between ops."""
        return sum(self.probe.slice() for _ in range(self.slices_per_gap)) / self.slices_per_gap


def _untraced_guard(tracer=None):
    from repro.obs import OBS, kernel_timers_active

    def guard() -> None:
        if OBS.enabled or kernel_timers_active() or (tracer is not None and tracer.installed()):
            raise RuntimeError("a timed op would run with telemetry or span wrappers on")

    return guard


def _per_op(counts: list[dict[str, int]], name: str) -> float:
    """Median over ops of one exact count (an op's own value: the sequence
    length is odd)."""
    return statistics.median(c.get(name, 0) for c in counts)


def _setup_samples(args: argparse.Namespace) -> list[float]:
    """Setup time of ``SETUP_SAMPLES - 1`` fresh child processes."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--setup-only",
            ],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_ref_s"])
    return samples


def _run_untraced(args, runner, seeds, setup_ref):
    guard = _untraced_guard()
    walls, refs, counts = [], [], []
    for seed in seeds:
        wall, ref, op_counts = runner.timed(seed, guard)
        if op_counts is not None:
            walls.append(wall)
            refs.append(ref)
            counts.append(op_counts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_ref, *_setup_samples(args)]
    metrics = {
        "op_p50_ref_s": (statistics.median(refs), len(refs)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "sim_slots": (_per_op(counts, "sim_slots"), len(counts)),
        "schedule_slots": (_per_op(counts, "schedule_slots"), len(counts)),
    }
    context = {
        "host.op_p50_s": (statistics.median(walls), len(walls)),
        "host.probe_p50_s": (statistics.median(runner.gaps), len(runner.gaps)),
    }
    return metrics, END_TO_END, context, len(counts) == len(seeds)


def _run_traced(runner, seeds):
    from tracing import LAYERS, LayerTracer

    tracer = LayerTracer()
    guard = _untraced_guard(tracer)
    walls, ratios, untraced_counts, traced_counts = [], [], [], []
    for seed in seeds:
        wall, ref, plain = runner.timed(seed, guard)
        _, traced_ref, traced = runner.timed(seed, tracer=tracer)
        if plain is None or traced is None:
            continue
        walls.append(wall)
        ratios.append(traced_ref / ref)
        untraced_counts.append(plain)
        traced_counts.append(traced)
    if tracer.installed():
        raise RuntimeError("span wrappers left installed after the traced run")
    consistent = untraced_counts == traced_counts and len(traced_counts) == len(seeds)
    ops = tracer.op_traces()
    total_ns = sum(op.op_ns for op in ops)
    span_counts = [op.counts for op in ops]
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        layer = name.removesuffix("_share")
        if layer in LAYERS:
            value = sum(op.self_ns[layer] for op in ops) / total_ns
            metrics[name] = (value, len(ops))
        elif unit == "count/op":
            source = span_counts if name in ops[0].counts else traced_counts
            metrics[name] = (_per_op(source, name), len(source))
    metrics["trace.unattributed_share"] = (
        sum(op.unattributed_ns for op in ops) / total_ns,
        len(ops),
    )
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), len(ratios))
    metrics["host.op_p50_s"] = (statistics.median(walls), len(walls))
    metrics["host.probe_p50_s"] = (statistics.median(runner.gaps), len(runner.gaps))
    return metrics, PER_LAYER, {}, consistent


def _print_table(metrics, catalog, context) -> None:
    print(f"{'metric':28} {'value':>14} {'unit':9} {'n':>4}  meaning")
    for name, (value, samples) in metrics.items():
        unit, meaning = catalog[name]
        print(f"{name:28} {value:14.6g} {unit:9} {samples:4d}  {meaning}")
    for name, (value, samples) in context.items():
        print(f"{name:28} {value:14.6g} {'s':9} {samples:4d}  context, not gated")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        sys.exit(f"no repro sources under {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = HostProbe()
    seeds = workload.op_seeds(args.seconds)
    # One warm-up op, counted only in setup time, on a deployment outside the
    # timed pool.
    warm_ok, _ = workload.check(workload.op(WARMUP_SEED))
    gc.collect()
    setup_wall = time.perf_counter() - _T0
    runner = Runner(workload, probe)
    setup_ref = setup_wall / runner.gaps[0] * REF_PROBE_S
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref}))
        return 0 if warm_ok else 1

    if args.trace:
        metrics, catalog, context, consistent = _run_traced(runner, seeds)
    else:
        metrics, catalog, context, consistent = _run_untraced(args, runner, seeds, setup_ref)
    _print_table(metrics, catalog, context)
    result = {
        "correct": bool(warm_ok and consistent and runner.failed == 0),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": catalog[name][0]}
            for name, (value, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
