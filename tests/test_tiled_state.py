"""Tests for the tiled near/far geometry store (``repro.state.tiled``).

Three layers of claims are pinned here:

* **Kernel parity (RL005)** - every tile kernel is bit-for-bit equal to its
  reference oracle: ``tile_codes`` vs ``_tile_codes_reference``,
  ``far_tile_power_sums`` vs ``_far_tile_reference``,
  ``distance_rect_from_xy`` vs ``pairwise_distances`` and
  ``attenuation_rect_from_xy`` vs ``attenuation_from_distances``.
* **Store parity** - everything a decode consumes from a
  ``TiledNetworkState`` (rectangles, cached rows, fades, cache blocks,
  channel resolutions) is bitwise equal to the dense store, through seeded
  add/remove/move churn that crosses capacity-growth boundaries.
* **Approximation contract** - ``TiledAffectanceTotals`` is bitwise equal to
  the dense ``AffectanceAccumulator`` when everything is near, and within
  the declared ``far_error_bound()`` when far tiles aggregate; the
  peak-hold budget throttle shrinks the near radius under load and relaxes
  with hysteresis, never below one ring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InitialTreeBuilder, TreeRepairer
from repro.dynamics import LogNormalShadowing, RayleighFading
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.geometry import Node, Point, node_distance_matrix
from repro.links import Link
from repro.obs import OBS, MetricsRegistry, telemetry
from repro.sinr import (
    AffectanceAccumulator,
    CachedChannel,
    LinearPower,
    LinkArrayCache,
    NodeArrayCache,
    SINRParameters,
    TiledAffectanceTotals,
)
from repro.state import (
    DecodeWorkspace,
    NetworkState,
    PeakHoldEstimator,
    TiledNetworkState,
    attach_state,
    export_state,
)
from repro.state.kernels import (
    _far_tile_reference,
    _tile_codes_reference,
    attenuation_from_distances,
    attenuation_rect_from_xy,
    distance_rect_from_xy,
    far_tile_power_sums,
    pairwise_distances,
    tile_codes,
)
from repro.state.tiled import build_tile_grid

ALPHAS = (2.5, 3.0)
SHADOW = LogNormalShadowing(sigma_db=5.0, seed=42)


def _make_nodes(rng: np.random.Generator, count: int, *, start_id: int = 0) -> list[Node]:
    points = rng.uniform(0.0, 100.0, size=(count, 2))
    return [
        Node(id=start_id + i, position=Point(float(x), float(y)))
        for i, (x, y) in enumerate(points)
    ]


def _make_links(rng: np.random.Generator, count: int, *, span: float = 400.0) -> list[Link]:
    """Short links scattered over a wide field (far tiles exist)."""
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


class TestTileKernelParity:
    def test_tile_codes_matches_tile_codes_reference(self, rng):
        xy = rng.uniform(-500.0, 500.0, size=(64, 2))
        for tile_size in (0.7, 13.0):
            assert np.array_equal(
                tile_codes(xy, tile_size), _tile_codes_reference(xy, tile_size)
            )

    def test_tile_codes_distinct_across_cells(self):
        xy = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [-0.5, 0.5], [0.6, 0.6]])
        codes = tile_codes(xy, 1.0)
        assert codes[0] == codes[4]
        assert len({int(c) for c in codes[:4]}) == 4

    def test_distance_rect_from_xy_matches_pairwise_distances(self, rng):
        a = rng.uniform(0.0, 50.0, size=(9, 2))
        b = rng.uniform(0.0, 50.0, size=(13, 2))
        expected = pairwise_distances(a, b)
        assert np.array_equal(distance_rect_from_xy(a, b), expected)
        workspace = DecodeWorkspace()
        got = distance_rect_from_xy(a, b, workspace, "t.dist")
        assert np.array_equal(got, expected)

    def test_attenuation_rect_from_xy_matches_attenuation_from_distances(self, rng):
        a = rng.uniform(0.0, 50.0, size=(8, 2))
        b = np.concatenate([rng.uniform(0.0, 50.0, size=(5, 2)), a[:2]])  # colocated pairs
        for alpha in ALPHAS:
            expected = attenuation_from_distances(pairwise_distances(a, b), alpha)
            assert np.array_equal(attenuation_rect_from_xy(a, b, alpha), expected)
            workspace = DecodeWorkspace()
            got = attenuation_rect_from_xy(a, b, alpha, workspace, "t.att")
            assert np.array_equal(got, expected)

    def test_far_tile_power_sums_matches_far_tile_reference(self, rng):
        tx_xy = rng.uniform(0.0, 200.0, size=(17, 2))
        tx_power = rng.uniform(0.5, 8.0, size=17)
        centroids = rng.uniform(0.0, 200.0, size=(6, 2))
        for alpha in ALPHAS:
            assert np.array_equal(
                far_tile_power_sums(tx_xy, tx_power, centroids, alpha),
                _far_tile_reference(tx_xy, tx_power, centroids, alpha),
            )

    def test_far_tile_power_sums_empty_sides(self):
        none = np.empty((0, 2))
        assert far_tile_power_sums(none, np.empty(0), np.array([[1.0, 2.0]]), 2.5).tolist() == [0.0]
        assert far_tile_power_sums(np.array([[1.0, 2.0]]), np.ones(1), none, 2.5).shape == (0,)


class TestPeakHoldEstimator:
    def test_rises_instantly_holds_through_dips(self):
        estimator = PeakHoldEstimator(window=4, decay=0.5)
        assert estimator.observe(100.0) == 100.0
        for _ in range(3):  # three dips: inside the window, peak held
            assert estimator.observe(10.0) == 100.0
        assert estimator.observe(10.0) == 50.0  # fourth completes the window

    def test_decay_never_drops_below_current_load(self):
        estimator = PeakHoldEstimator(window=1, decay=0.01)
        estimator.observe(100.0)
        assert estimator.observe(90.0) == 90.0

    def test_new_peak_resets_the_quiet_window(self):
        estimator = PeakHoldEstimator(window=2, decay=0.5)
        estimator.observe(100.0)
        estimator.observe(10.0)
        estimator.observe(200.0)  # resets the below-counter
        assert estimator.observe(10.0) == 200.0  # one dip only: held

    def test_validation(self):
        with pytest.raises(ValueError):
            PeakHoldEstimator(window=0)
        with pytest.raises(ValueError):
            PeakHoldEstimator(decay=1.0)


class TestTileGrid:
    def test_grid_partitions_live_slots(self, rng):
        state = TiledNetworkState(_make_nodes(rng, 50))
        grid = state.grid()
        seen: list[int] = []
        for tile in range(grid.tile_count):
            members = grid.members(tile)
            assert members.size > 0
            seen.extend(int(s) for s in members)
            # every member binned into this tile, and back-indexed to it
            codes = tile_codes(state.xy[members], state.tile_size)
            assert len({int(c) for c in codes}) == 1
            assert (grid.tile_index_by_slot[members] == tile).all()
        assert sorted(seen) == sorted(int(s) for s in state.live_slots())

    def test_centroids_and_radii_cover_members(self, rng):
        state = TiledNetworkState(_make_nodes(rng, 40))
        grid = state.grid()
        for tile in range(grid.tile_count):
            members = grid.members(tile)
            points = state.xy[members]
            assert np.allclose(grid.centroids[tile], points.mean(axis=0))
            offsets = np.hypot(*(points - grid.centroids[tile]).T)
            assert offsets.max() <= grid.radii[tile] + 1e-12

    def test_empty_grid(self):
        grid = build_tile_grid(np.empty((0, 2)), np.empty(0, dtype=np.intp), 1.0, 4)
        assert grid.tile_count == 0
        assert (grid.tile_index_by_slot == -1).all()


def _reference_delta(nodes) -> float:
    """The instance's delta the way ``Init`` computed it before it read the
    geometry store: a throwaway node distance matrix."""
    distances = node_distance_matrix(nodes)
    np.fill_diagonal(distances, 0.0)
    return float(distances.max())


class TestMaxDistance:
    """``max_distance`` is bitwise the delta of a fresh distance matrix."""

    @pytest.mark.parametrize("count", [2, 3, 97, 600])
    def test_dense_and_tiled_match_reference(self, rng, count, monkeypatch):
        nodes = _make_nodes(rng, count)
        expected = _reference_delta(nodes)
        assert NetworkState(nodes).max_distance() == expected
        assert TiledNetworkState(nodes).max_distance() == expected
        # A block size that does not divide n leaves a ragged last block.
        monkeypatch.setattr(TiledNetworkState, "MAX_DISTANCE_ROWS", 7)
        assert TiledNetworkState(nodes).max_distance() == expected

    def test_after_churn_reads_only_live_nodes(self, rng):
        nodes = _make_nodes(rng, 30)
        far = Node(999, Point(1e4, 1e4))
        for store in (NetworkState, TiledNetworkState):
            state = store(nodes + [far], capacity=40)
            state.remove_nodes([999, 3, 17])
            fresh = _make_nodes(rng, 4, start_id=100)
            state.add_nodes(fresh)
            live = [node for node in nodes if node.id not in (3, 17)] + fresh
            assert state.max_distance() == _reference_delta(live)

    def test_below_two_nodes_is_zero(self, rng):
        for nodes in ([], _make_nodes(rng, 1)):
            assert NetworkState(nodes).max_distance() == 0.0
            assert TiledNetworkState(nodes).max_distance() == 0.0

    def test_init_delta_is_unchanged(self, rng):
        nodes = _make_nodes(rng, 40)
        result = InitialTreeBuilder(SINRParameters()).build(nodes, np.random.default_rng(2))
        assert result.delta == _reference_delta(nodes)


class TestTiledNetworkStateParity:
    def test_rects_and_rows_match_dense_matrices(self, rng):
        nodes = _make_nodes(rng, 120)
        dense = NetworkState(nodes)
        tiled = TiledNetworkState(nodes)
        live = tiled.live_slots()
        some = live[rng.permutation(live.size)[:25]]
        assert np.array_equal(
            tiled.distance_rect(some, live), dense.distance_matrix()[np.ix_(some, live)]
        )
        for alpha in ALPHAS:
            dense_att = dense.attenuation_matrix(alpha)
            assert np.array_equal(
                tiled.attenuation_rect(alpha, some, live), dense_att[np.ix_(some, live)]
            )
            assert np.array_equal(tiled.attenuation_rows(alpha, some), dense_att[some, :])

    def test_churn_matches_fresh_dense_rebuild(self, rng):
        """Seeded add/remove/move churn, asserted bitwise after every step."""
        tiled = TiledNetworkState(_make_nodes(rng, 12), capacity=16)
        next_id = 12
        for step in range(30):
            choice = rng.integers(0, 3)
            if choice == 0 or len(tiled) < 4:
                batch = int(rng.integers(1, 8))
                tiled.add_nodes(_make_nodes(rng, batch, start_id=next_id))
                next_id += batch
            elif choice == 1:
                ids = [int(node.id) for node in tiled]
                victims = rng.choice(ids, size=min(3, len(ids)), replace=False)
                tiled.remove_nodes(int(v) for v in victims)
            else:
                live = tiled.live_slots()
                moved = live[rng.permutation(live.size)[:3]]
                tiled.move_nodes(moved, rng.uniform(0.0, 100.0, size=(moved.size, 2)))
            live = tiled.live_slots()
            fresh = NetworkState([tiled.node_at(int(s)) for s in live])
            assert np.array_equal(tiled.distance_rect(live, live), fresh.distance_matrix())
            for alpha in ALPHAS:
                fresh_att = fresh.attenuation_matrix(alpha)
                assert np.array_equal(
                    tiled.attenuation_rect(alpha, live, live), fresh_att
                )
                rows = tiled.attenuation_rows(alpha, live)
                assert np.array_equal(rows[:, live], fresh_att)
            grid = tiled.grid()
            assert sorted(int(s) for s in grid.slots) == sorted(int(s) for s in live)

    def test_free_list_reuse_and_capacity_growth(self, rng):
        tiled = TiledNetworkState(_make_nodes(rng, 8), capacity=8)
        assert tiled.capacity == 8
        tiled.add_nodes(_make_nodes(rng, 12, start_id=100))  # forces growth
        grown = tiled.capacity
        assert grown >= 20
        tiled.remove_nodes([100, 101, 102])
        tiled.add_nodes(_make_nodes(rng, 3, start_id=200))  # reuses freed slots
        assert tiled.capacity == grown
        assert len(tiled) == 20

    def test_attenuation_rows_cache_serves_and_invalidates(self, rng):
        nodes = _make_nodes(rng, 30)
        tiled = TiledNetworkState(nodes)
        dense = NetworkState(nodes)
        live = tiled.live_slots()
        first = tiled.attenuation_rows(2.5, live[:10])
        again = tiled.attenuation_rows(2.5, live[:10])
        assert np.array_equal(first, again)
        # workspace-staged gather is bitwise identical to the cached rows
        workspace = DecodeWorkspace()
        staged = tiled.attenuation_rows(2.5, live[:10], workspace=workspace)
        assert np.array_equal(staged, first)
        # mutation invalidates wholesale; served rows track the new geometry
        tiled.move_nodes(live[:2], rng.uniform(0.0, 100.0, size=(2, 2)))
        dense.move_nodes(live[:2], tiled.xy[live[:2]])
        assert np.array_equal(
            tiled.attenuation_rows(2.5, live[:10]), dense.attenuation_matrix(2.5)[live[:10], :]
        )

    def test_attenuation_rows_tiny_budget_still_exact(self, rng):
        """A budget holding almost no rows evicts FIFO but never serves wrong."""
        nodes = _make_nodes(rng, 24)
        tiled = TiledNetworkState(nodes, budget_bytes=24 * 8 * 6)  # ~3 cached rows
        dense = NetworkState(nodes)
        expected = dense.attenuation_matrix(3.0)
        live = tiled.live_slots()
        for _ in range(4):
            request = live[rng.permutation(live.size)[: int(rng.integers(1, 9))]]
            assert np.array_equal(
                tiled.attenuation_rows(3.0, request), expected[request, :]
            )

    def test_fade_rect_matches_dense_fade_matrix(self, rng):
        nodes = _make_nodes(rng, 20)
        dense = NetworkState(nodes)
        tiled = TiledNetworkState(nodes)
        live = tiled.live_slots()
        fade = dense.fade_matrix(SHADOW)
        assert np.array_equal(
            tiled.fade_rect(SHADOW, live[:6], live), fade[np.ix_(live[:6], live)]
        )
        assert np.array_equal(tiled.fade_rect(SHADOW, live[:6], None), fade[live[:6], :])
        with pytest.raises(ValueError, match="slot-dependent"):
            tiled.fade_rect(RayleighFading(seed=1), live[:2], live)

    def test_matrix_accessors_refuse_to_materialize(self, rng):
        tiled = TiledNetworkState(_make_nodes(rng, 5))
        with pytest.raises(RuntimeError, match="distance"):
            tiled.distance_matrix()
        with pytest.raises(RuntimeError, match="attenuation"):
            tiled.attenuation_matrix(2.5)
        with pytest.raises(RuntimeError, match="fade"):
            tiled.fade_matrix(SHADOW)

    def test_constructor_validation(self, rng):
        nodes = _make_nodes(rng, 4)
        with pytest.raises(ValueError, match="budget_bytes"):
            TiledNetworkState(nodes, budget_bytes=0)
        with pytest.raises(ValueError, match="near_rings"):
            TiledNetworkState(nodes, near_rings=0)
        with pytest.raises(ValueError, match="tile_size"):
            TiledNetworkState(nodes, tile_size=-1.0)
        assert TiledNetworkState(()).tile_size == 1.0  # empty-state fallback

    def test_store_flags(self, rng):
        nodes = _make_nodes(rng, 3)
        assert NetworkState(nodes).store == "dense"
        assert NetworkState(nodes).materializes_matrices
        tiled = TiledNetworkState(nodes)
        assert tiled.store == "tiled"
        assert not tiled.materializes_matrices

    def test_export_attach_roundtrip(self, rng):
        tiled = TiledNetworkState(_make_nodes(rng, 25), tile_size=7.0, near_rings=3)
        live = tiled.live_slots()
        with export_state(tiled) as export:
            assert export.spec.store == "tiled"
            attached = attach_state(export.spec)
            assert isinstance(attached, TiledNetworkState)
            assert attached.tile_size == tiled.tile_size
            assert attached.near_rings == tiled.near_rings
            assert attached.budget_bytes == tiled.budget_bytes
            assert np.array_equal(
                attached.distance_rect(live[:5], live), tiled.distance_rect(live[:5], live)
            )

    def test_from_arrays_rejects_dense_blocks(self, rng):
        xy = rng.uniform(0.0, 10.0, size=(4, 2))
        ids = np.arange(4, dtype=np.int64)
        with pytest.raises(ValueError, match="coordinates only"):
            TiledNetworkState.from_arrays(xy, ids, distances=np.zeros((4, 4)))

    def test_throttle_shrinks_under_load_and_relaxes_with_hysteresis(self, rng):
        # Budget of 320 bytes -> budget_pairs = 10; loads above that throttle.
        tiled = TiledNetworkState(_make_nodes(rng, 10), budget_bytes=320, near_rings=3)
        assert tiled.near_rings == 3
        tiled.note_near_load(50)
        assert tiled.near_rings == 2
        assert tiled.throttle_events == 1
        tiled.note_near_load(50)
        assert tiled.near_rings == 1
        tiled.note_near_load(50)  # floor: never below one ring
        assert tiled.near_rings == 1
        assert tiled.throttle_events == 2
        # The held peak ignores transient dips: no relaxation yet.
        tiled.note_near_load(0)
        assert tiled.near_rings == 1
        # After a full quiet window the peak decays below a quarter of the
        # budget and the radius steps back out.
        for _ in range(200):
            tiled.note_near_load(0)
        assert tiled.near_rings == 3
        assert tiled.near_cutoff == 3 * tiled.tile_size


class TestNodeArrayCacheTiledDispatch:
    @pytest.fixture()
    def caches(self, rng):
        nodes = _make_nodes(rng, 80)
        return NodeArrayCache(nodes), NodeArrayCache(state=TiledNetworkState(nodes))

    def test_blocks_match_dense_cache(self, caches, rng):
        dense, tiled = caches
        rows = rng.permutation(80)[:12].astype(np.intp)
        cols = rng.permutation(80)[:30].astype(np.intp)
        assert np.array_equal(tiled.distance_block(rows, cols), dense.distance_block(rows, cols))
        for alpha in ALPHAS:
            assert np.array_equal(
                tiled.attenuation_block(alpha, rows, cols),
                dense.attenuation_block(alpha, rows, cols),
            )
            # cols=None: the decode hot path's whole-row gather (row cache)
            assert np.array_equal(
                tiled.attenuation_block(alpha, rows), dense.attenuation_block(alpha, rows)
            )
        assert np.array_equal(
            tiled.fade_block(SHADOW, rows, cols), dense.fade_block(SHADOW, rows, cols)
        )
        assert np.array_equal(tiled.fade_block(SHADOW, rows), dense.fade_block(SHADOW, rows))

    def test_blocks_match_with_workspace(self, caches, rng):
        dense, tiled = caches
        workspace = DecodeWorkspace()
        rows = np.arange(7, dtype=np.intp)
        got = tiled.attenuation_block(2.5, rows, workspace=workspace)
        assert np.array_equal(np.array(got), dense.attenuation_block(2.5, rows))

    def test_cached_channel_resolution_parity(self, rng):
        nodes = _make_nodes(rng, 90)
        params = SINRParameters()
        dense_channel = CachedChannel(params, nodes)
        tiled_channel = CachedChannel(params.with_overrides(store="tiled"), nodes)
        assert tiled_channel.cache.state.store == "tiled"
        tx = np.arange(0, 30, dtype=np.intp)
        rx = np.arange(30, 70, dtype=np.intp)
        powers = np.full(30, 2.5)
        for slot in (0, 1):
            got = tiled_channel.resolve_indices(tx, rx, powers, slot=slot)
            want = dense_channel.resolve_indices(tx, rx, powers, slot=slot)
            for a, b in zip(got, want):
                assert np.array_equal(np.asarray(a), np.asarray(b))


class TestTiledAffectanceTotals:
    @pytest.fixture()
    def setup(self, rng):
        links = _make_links(rng, 60)
        params = SINRParameters()
        power = LinearPower.for_noise(params)
        cache = LinkArrayCache(links)
        dense = AffectanceAccumulator(cache.affectance_matrix(power, params))
        return links, params, power, cache, dense

    def test_all_near_is_bitwise_equal_to_dense_accumulator(self, setup, rng):
        links, params, power, cache, dense = setup
        tiled = TiledAffectanceTotals(cache, power, params, near_cutoff=1e9)
        order = rng.permutation(len(links))[:35]
        for index in order:
            dense.add(int(index))
            tiled.add(int(index))
        assert tiled.far_error_bound() == 0.0  # nothing was approximated
        assert np.array_equal(dense.totals(), tiled.totals())
        for j in range(len(links)):
            assert dense.total(j) == tiled.total(j)
            if j not in tiled:  # candidates only; members reject the query
                assert dense.max_total_with(j) == tiled.max_total_with(j)
                assert dense.fits(j, 0.05) == tiled.fits(j, 0.05)
        assert tiled.members == dense.members
        assert len(tiled) == len(order)
        assert int(order[0]) in tiled

    def test_far_field_error_within_declared_bound(self, setup, rng):
        links, params, power, cache, dense = setup
        tiled = TiledAffectanceTotals(cache, power, params, tile_size=40.0)
        order = rng.permutation(len(links))[:35]
        for index in order:
            dense.add(int(index))
            tiled.add(int(index))
        bound = tiled.far_error_bound()
        assert bound > 0.0  # far tiles were actually aggregated
        exact = dense.totals()
        approx = tiled.totals()
        positive = exact > 0.0
        relative = np.abs(approx[positive] - exact[positive]) / exact[positive]
        assert relative.max() <= bound + 1e-12
        for j in range(len(links)):
            assert tiled.total(j) == approx[j]

    def test_remove_inverts_add(self, setup, rng):
        links, params, power, cache, _ = setup
        tiled = TiledAffectanceTotals(cache, power, params, tile_size=40.0)
        for index in range(0, 30):
            tiled.add(index)
        before = tiled.totals().copy()
        pairs_before = tiled.near_pairs_held
        tiled.add(45)
        tiled.remove(45)
        assert tiled.near_pairs_held == pairs_before
        after = tiled.totals()
        residue = np.abs(after - before) / np.maximum(np.abs(before), 1e-30)
        assert residue.max() < 1e-9  # fp subtraction residue only

    def test_reports_bound_and_load_to_the_state(self, setup, rng):
        links, params, power, cache, _ = setup
        state = TiledNetworkState.from_links(links)
        tiled = TiledAffectanceTotals(cache, power, params, state=state, tile_size=40.0)
        for index in range(20):
            tiled.add(index)
        assert state.far_error_bound() == tiled.far_error_bound()

    def test_rejects_gain_models_and_bad_powers(self, setup):
        links, params, power, cache, _ = setup
        faded = params.with_overrides(gain_model=SHADOW)
        with pytest.raises(ValueError, match="gain model"):
            TiledAffectanceTotals(cache, power, faded)

    def test_duplicate_membership_rejected(self, setup):
        links, params, power, cache, _ = setup
        tiled = TiledAffectanceTotals(cache, power, params, near_cutoff=1e9)
        tiled.add(3)
        with pytest.raises(ValueError):
            tiled.add(3)
        tiled.remove(3)
        with pytest.raises(ValueError):
            tiled.remove(3)


class TestTiledObservability:
    def test_counters_and_gauges_behind_telemetry(self, rng):
        nodes = _make_nodes(rng, 30)
        with telemetry() as registry:
            tiled = TiledNetworkState(nodes, near_rings=2)
            tiled.grid()
            tiled.attenuation_rows(2.5, tiled.live_slots()[:4])
            assert registry.counter_value("tiled.far_tile_refresh") == 1
            assert registry.counter_value("tiled.row_cache_miss") == 4
            # A second gather of cached rows records no new misses.
            tiled.attenuation_rows(2.5, tiled.live_slots()[:4])
            assert registry.counter_value("tiled.row_cache_miss") == 4
            # Throttling needs a load above the budget: a tiny-budget state.
            strained = TiledNetworkState(nodes, budget_bytes=320, near_rings=2)
            strained.note_near_load(50)
            assert registry.counter_value("tiled.budget_throttle") == 1
            gauges = {name: value for name, _, value in registry.gauges()}
            assert gauges["tiled.near_pairs"] == 50.0
            assert gauges["tiled.resident_bytes"] > 0.0

    def test_silent_when_telemetry_off(self, rng):
        assert not OBS.enabled
        registry = MetricsRegistry()
        previous = OBS.registry
        OBS.registry = registry
        try:
            tiled = TiledNetworkState(_make_nodes(rng, 10))
            tiled.grid()
            tiled.attenuation_rows(2.5, tiled.live_slots()[:2])
            tiled.note_near_load(5)
        finally:
            OBS.registry = previous
        assert registry.counter_value("tiled.far_tile_refresh") == 0
        assert registry.counter_value("tiled.row_cache_miss") == 0


class TestTiledThroughTheStack:
    def test_experiment_rows_identical_dense_vs_tiled(self):
        config = ExperimentConfig(sizes=(12,), delta_targets=(1.0e2,), seeds=(1,))
        dense_rows = ALL_EXPERIMENTS["E1"](config).rows
        tiled_rows = ALL_EXPERIMENTS["E1"](config.with_overrides(store="tiled")).rows
        assert tiled_rows == dense_rows

    def test_worker_fanout_identical_under_tiled(self):
        config = ExperimentConfig(
            sizes=(12,), delta_targets=(1.0e2,), seeds=(1,), store="tiled"
        )
        sequential = ALL_EXPERIMENTS["E1"](config).rows
        fanned = ALL_EXPERIMENTS["E1"](config.with_overrides(workers=2)).rows
        assert fanned == sequential

    def test_config_store_override_threads_into_params(self):
        config = ExperimentConfig(store="tiled")
        assert config.params.store == "tiled"
        with pytest.raises(Exception):
            SINRParameters(store="sparse-ish")

    def test_repair_splices_tiled_state(self, rng):
        params = SINRParameters()
        nodes = _make_nodes(rng, 24)
        outcome = InitialTreeBuilder(params).build(nodes, rng)
        state = TiledNetworkState(nodes)
        failed = [nodes[3].id, nodes[7].id]
        arrivals = _make_nodes(rng, 2, start_id=500)
        result = TreeRepairer(params).integrate(
            outcome.tree,
            outcome.power,
            failed_ids=failed,
            arrivals=arrivals,
            rng=rng,
            state=state,
        )
        assert result.tree.is_strongly_connected()
        assert all(node_id not in state for node_id in failed)
        assert all(node.id in state for node in arrivals)
        # The splice stayed O(k) bookkeeping, and the rebuilt grid + rects
        # still match a fresh dense rebuild of the surviving membership.
        assert state.cells_patched == 0
        live = state.live_slots()
        fresh = NetworkState([state.node_at(int(s)) for s in live])
        assert np.array_equal(state.distance_rect(live, live), fresh.distance_matrix())
