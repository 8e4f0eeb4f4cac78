"""Tiled geometry store benchmarks: past the O(n^2) wall, and not slower before it.

Two claims, each asserted in every mode:

* **Scale** (``bench_tiled_decode_50k``): an E1/E9-style decode workload -
  slot groups resolved over the whole universe plus far-aggregated
  affectance row totals - completes at ``n = 50,000`` with the tiled
  store's derived structures inside a 256 MiB budget, where the dense
  store *provably cannot allocate*: its distance + attenuation matrices
  alone need ``2 * n^2 * 8`` bytes (40 GB at 50k), asserted arithmetically
  against the budget because Linux overcommit would let a live allocation
  "succeed" and then OOM on first touch.
* **No regression at small n** (``bench_tiled_vs_dense_4096``): replaying a
  fixed slot schedule (what a computed schedule does every sweep) at
  ``n = 4096``, the tiled store decodes bitwise-identically to dense and
  within ``RUNTIME_RATIO_CEILING`` of its steady-state runtime, while the
  far-field affectance row totals stay within the declared
  ``far_error_bound()`` of the dense accumulator.

Timed runs also print a same-n speed/memory curve (dense vs tiled) so the
crossover is visible in the benchmark log.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry import Node, Point, deployment_by_name
from repro.links import Link
from repro.sinr import (
    AffectanceAccumulator,
    CachedChannel,
    LinearPower,
    LinkArrayCache,
    SINRParameters,
    TiledAffectanceTotals,
)
from repro.state import DecodeWorkspace, NetworkState, TiledNetworkState

#: The headline scale; the dense store would need 40 GB of matrices here.
N_LARGE = 50_000
#: Byte budget for the tiled store's derived structures at the large n.
LARGE_BUDGET_BYTES = 256 * 1024 * 1024
#: Same-n comparison size (dense still comfortable: 268 MB of matrices).
N_COMPARE = 4096
#: Steady-state tiled runtime must stay within this factor of dense.
RUNTIME_RATIO_CEILING = 1.25

SLOT_GROUPS = 32
GROUP_SIZE = 64
SWEEPS = 3


def _schedule(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A fixed slot schedule: SLOT_GROUPS groups of GROUP_SIZE transmitters."""
    size = min(GROUP_SIZE, max(1, n // 4))
    return [
        rng.choice(n, size=size, replace=False).astype(np.intp)
        for _ in range(SLOT_GROUPS)
    ]


def _run_sweep(
    channel: CachedChannel,
    schedule: list[np.ndarray],
    workspace: DecodeWorkspace,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Resolve every slot group over the whole universe; collect (best, ok)."""
    out = []
    for slot, tx in enumerate(schedule):
        powers = np.full(tx.size, 2.0)
        best, _, ok = channel.resolve_indices_full(tx, powers, slot=slot, workspace=workspace)
        out.append((np.asarray(best).copy(), np.asarray(ok).copy()))
    return out


def _short_links(count: int, span: float, rng: np.random.Generator) -> list[Link]:
    links = []
    for i in range(count):
        a = rng.uniform(0.0, span, size=2)
        b = a + rng.uniform(-2.0, 2.0, size=2)
        links.append(
            Link(
                Node(2 * i, Point(float(a[0]), float(a[1]))),
                Node(2 * i + 1, Point(float(b[0]), float(b[1]))),
            )
        )
    return links


def bench_tiled_decode_50k(benchmark):
    n = N_LARGE if benchmark.enabled else 2000
    budget = LARGE_BUDGET_BYTES if benchmark.enabled else 4 * 1024 * 1024
    params = SINRParameters().with_overrides(store="tiled")
    rng = np.random.default_rng(29)
    nodes = deployment_by_name("uniform", n, rng)

    # The memory claim, stated arithmetically: the dense store's two
    # matrices cannot fit the budget (overcommit makes a live `np.empty`
    # "succeed" at 40 GB, so allocation failure is not a reliable oracle).
    dense_matrix_bytes = 2 * n * n * 8
    assert dense_matrix_bytes > budget, (
        f"n={n} dense matrices ({dense_matrix_bytes / 1e9:.1f} GB) fit the "
        f"{budget / 1e6:.0f} MB budget; the scale claim is vacuous here"
    )

    state = TiledNetworkState(nodes, budget_bytes=budget)
    channel = CachedChannel(params, cache=None, state=state)
    schedule = _schedule(n, np.random.default_rng(31))
    workspace = DecodeWorkspace()

    def decode_sweeps() -> int:
        decoded = 0
        for _ in range(SWEEPS if benchmark.enabled else 1):
            for best, ok in _run_sweep(channel, schedule, workspace):
                decoded += int(ok.sum())
        return decoded

    start = time.perf_counter()
    decode_sweeps()
    first_pass = time.perf_counter() - start

    # Far-aggregated affectance totals over a link universe on the same
    # field: the E9-style selection loop's data structure at scale.
    link_rng = np.random.default_rng(37)
    links = _short_links(n // 25 if benchmark.enabled else 64, 400.0, link_rng)
    cache = LinkArrayCache(links)
    power = LinearPower.for_noise(SINRParameters())
    totals = TiledAffectanceTotals(cache, power, SINRParameters(), state=state)
    for index in range(0, len(links), 4):
        totals.add(index)
    assert np.isfinite(totals.totals()).all()
    assert totals.far_error_bound() < np.inf

    resident = state.resident_bytes()
    assert resident <= budget, (
        f"derived tiled structures ({resident / 1e6:.1f} MB) exceeded the "
        f"{budget / 1e6:.0f} MB budget"
    )

    if not benchmark.enabled:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    benchmark.pedantic(decode_sweeps, rounds=1, iterations=1)
    print()
    print(
        f"tiled decode at n={n}: {SLOT_GROUPS} slot groups x {SWEEPS} sweeps in "
        f"{first_pass:.2f}s cold; resident {resident / 1e6:.1f} MB of a "
        f"{budget / 1e6:.0f} MB budget (dense would need {dense_matrix_bytes / 1e9:.1f} GB); "
        f"far error bound {totals.far_error_bound():.3f}"
    )


def bench_tiled_vs_dense_4096(benchmark):
    n = N_COMPARE if benchmark.enabled else 512
    params_dense = SINRParameters()
    params_tiled = params_dense.with_overrides(store="tiled")
    nodes = deployment_by_name("uniform", n, np.random.default_rng(41))
    schedule = _schedule(n, np.random.default_rng(43))

    # An explicit dense store: past the implicit-store ceiling, CachedChannel
    # would pick the tiled store on its own.
    dense_channel = CachedChannel(params_dense, state=NetworkState(nodes))
    tiled_channel = CachedChannel(params_tiled, nodes)
    dense_ws, tiled_ws = DecodeWorkspace(), DecodeWorkspace()

    # Warm sweep: dense materializes its matrices, tiled fills its row cache.
    _run_sweep(dense_channel, schedule, dense_ws)
    _run_sweep(tiled_channel, schedule, tiled_ws)

    start = time.perf_counter()
    for _ in range(SWEEPS):
        dense_out = _run_sweep(dense_channel, schedule, dense_ws)
    dense_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(SWEEPS):
        tiled_out = _run_sweep(tiled_channel, schedule, tiled_ws)
    tiled_time = time.perf_counter() - start

    # Near-field (decode) parity is bitwise, every slot group.
    for (dense_best, dense_ok), (tiled_best, tiled_ok) in zip(dense_out, tiled_out):
        assert np.array_equal(dense_best, tiled_best)
        assert np.array_equal(dense_ok, tiled_ok)

    # Far-field row totals stay within the declared bound of the dense
    # accumulator over a wide-field link universe.
    links = _short_links(max(64, n // 2), 400.0, np.random.default_rng(47))
    power = LinearPower.for_noise(params_dense)
    link_cache = LinkArrayCache(links)
    dense_totals = AffectanceAccumulator(link_cache.affectance_matrix(power, params_dense))
    tiled_totals = TiledAffectanceTotals(link_cache, power, params_dense, tile_size=40.0)
    for index in range(0, len(links), 2):
        dense_totals.add(index)
        tiled_totals.add(index)
    bound = tiled_totals.far_error_bound()
    exact = dense_totals.totals()
    approx = tiled_totals.totals()
    positive = exact > 0.0
    worst = float(np.abs(approx[positive] - exact[positive]).max(initial=0.0)) if positive.any() else 0.0
    relative = (
        float((np.abs(approx[positive] - exact[positive]) / exact[positive]).max())
        if positive.any()
        else 0.0
    )
    assert relative <= bound + 1e-12, (
        f"far-field row-sum error {relative:.4f} exceeds declared bound {bound:.4f}"
    )

    if not benchmark.enabled:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    def tiled_sweeps():
        for _ in range(SWEEPS):
            _run_sweep(tiled_channel, schedule, tiled_ws)

    benchmark.pedantic(tiled_sweeps, rounds=1, iterations=1)

    dense_state = dense_channel.cache.state
    dense_bytes = (
        dense_state.distance_matrix().nbytes
        + dense_state.attenuation_matrix(params_dense.alpha).nbytes
    )
    tiled_state = tiled_channel.cache.state
    assert isinstance(tiled_state, TiledNetworkState)
    ratio = tiled_time / dense_time
    print()
    print(f"same-n speed/memory, steady-state schedule replay ({SWEEPS} sweeps):")
    print(
        f"  n={n}  dense {dense_time * 1e3:7.1f}ms {dense_bytes / 1e6:8.1f}MB | "
        f"tiled {tiled_time * 1e3:7.1f}ms {tiled_state.resident_bytes() / 1e6:8.1f}MB | "
        f"ratio {ratio:.3f}"
    )
    print(
        f"  far-field totals: declared bound {bound:.4f}, measured relative "
        f"error {relative:.4f} (worst abs {worst:.2e})"
    )
    assert ratio <= RUNTIME_RATIO_CEILING, (
        f"tiled steady-state decode {ratio:.2f}x dense at n={n} "
        f"(ceiling: {RUNTIME_RATIO_CEILING}x)"
    )
