"""Tiled near/far geometry store: O(n) memory where the dense store is O(n^2).

:class:`TiledNetworkState` is the sparse sibling of
:class:`~repro.state.NetworkState`.  It never materializes the
``(capacity, capacity)`` distance/attenuation/fade matrices; instead it keeps

* the same capacity-managed coordinate/id arrays and free-list slots as the
  dense store (it *is* a ``NetworkState`` - membership, growth, ids, churn
  bookkeeping are all inherited), and
* a uniform **tile grid** over the live nodes - member lists, centroids and
  max-offset radii per tile, rebuilt lazily whenever ``version`` moves - and
* a budget-bounded FIFO **row cache** of attenuation rows per path-loss
  exponent, serving the whole-row gathers of the decode hot path.

Everything a decode consumes is **exact**: rectangles and cached rows are
computed from coordinates by the same kernels the dense store patches its
matrices with, so they are bitwise equal to a dense gather.  The *only*
approximation lives in the far-field affectance row totals
(:class:`repro.sinr.TiledAffectanceTotals`), which aggregate senders beyond
the near radius through tile centroids; the worst-case relative error that
aggregation actually incurred is reported back here through
:meth:`TiledNetworkState.note_far_error_bound` and read via
:meth:`TiledNetworkState.far_error_bound`.

The **approximation budget** is explicit: ``budget_bytes`` caps the derived
structures (tile grid + cached rows), and a :class:`PeakHoldEstimator` over
the near-pair load throttles the near radius (in tile rings) when the peak
load exceeds the budget.  The estimator only decays after a full window of
lower observations and the throttle re-relaxes only when the peak falls
below a quarter of the budget - a wide hysteresis gap, so the near radius
does not "bounce" (and the accuracy with it) on oscillating load.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .._types import FloatArray, IntpArray
from ..obs.runtime import OBS
from .kernels import (
    attenuation_from_distances,
    attenuation_rect_from_xy,
    distance_rect_from_xy,
    pairwise_distances,
    tile_codes,
)
from .network import NetworkState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..dynamics.gain import GainModel
    from ..geometry import Node
    from .scratch import DecodeWorkspace

__all__ = [
    "DEFAULT_TILE_BUDGET_BYTES",
    "PeakHoldEstimator",
    "TileGrid",
    "TiledNetworkState",
    "build_tile_grid",
]

#: Default per-state byte budget for derived structures (grid + row caches).
DEFAULT_TILE_BUDGET_BYTES = 256 * 1024 * 1024

#: Target mean population per tile when the tile size is derived from the
#: live bounding box (small enough for tight far-field radii, large enough
#: that the grid stays a vanishing fraction of the node arrays).
_TARGET_NODES_PER_TILE = 8


class PeakHoldEstimator:
    """Peak-hold load estimator: rises instantly, decays only after a quiet window.

    ``observe(load)`` returns the current peak estimate.  A load above the
    held peak replaces it immediately; a lower load only counts toward a
    quiet window, and the peak decays geometrically (never below the current
    load) once a *full* window of lower observations has passed.  A throttle
    keyed on the estimate therefore reacts at once to pressure but ignores
    transient dips - the hold window is what prevents accuracy "bounce" when
    the load oscillates around the budget.
    """

    __slots__ = ("decay", "peak", "window", "_below")

    def __init__(self, *, window: int = 32, decay: float = 0.5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        self.window = int(window)
        self.decay = float(decay)
        self.peak = 0.0
        self._below = 0

    def observe(self, load: float) -> float:
        """Fold one load sample into the estimate and return the held peak."""
        if load >= self.peak:
            self.peak = float(load)
            self._below = 0
        else:
            self._below += 1
            if self._below >= self.window:
                self.peak = max(float(load), self.peak * self.decay)
                self._below = 0
        return self.peak


class TileGrid:
    """One immutable tile-decomposition snapshot of a state's live nodes.

    Tiles are the occupied cells of a uniform ``tile_size`` grid (same
    binning rule as ``geometry.GridIndex``).  Members are grouped by sorted
    tile code, so each tile is a contiguous range of :attr:`slots`:
    ``slots[starts[t]:starts[t+1]]``.  ``centroids[t]`` is the member mean
    and ``radii[t]`` the max member offset from it - the two quantities the
    far-field error bound ``(1 + r/d)**alpha - 1`` is built from.
    """

    __slots__ = ("centroids", "codes", "radii", "slots", "starts", "tile_index_by_slot", "tile_size")

    def __init__(
        self,
        tile_size: float,
        slots: IntpArray,
        starts: IntpArray,
        codes: IntpArray,
        centroids: FloatArray,
        radii: FloatArray,
        tile_index_by_slot: IntpArray,
    ) -> None:
        self.tile_size = tile_size
        self.slots = slots
        self.starts = starts
        self.codes = codes
        self.centroids = centroids
        self.radii = radii
        self.tile_index_by_slot = tile_index_by_slot

    @property
    def tile_count(self) -> int:
        return int(self.centroids.shape[0])

    def members(self, tile: int) -> IntpArray:
        """Live slots of one tile (a view into the grouped slot array)."""
        return self.slots[self.starts[tile] : self.starts[tile + 1]]

    @property
    def nbytes(self) -> int:
        return int(
            self.slots.nbytes
            + self.starts.nbytes
            + self.codes.nbytes
            + self.centroids.nbytes
            + self.radii.nbytes
            + self.tile_index_by_slot.nbytes
        )


def build_tile_grid(xy: FloatArray, live: IntpArray, tile_size: float, capacity: int) -> TileGrid:
    """Group the live nodes tile-by-tile: sort packed codes, reduce per range."""
    n = int(live.shape[0])
    tile_index_by_slot = np.full(capacity, -1, dtype=np.intp)
    if n == 0:
        empty_intp = np.empty(0, dtype=np.intp)
        return TileGrid(
            tile_size,
            empty_intp,
            np.zeros(1, dtype=np.intp),
            np.empty(0, dtype=np.int64),
            np.empty((0, 2), dtype=float),
            np.empty(0, dtype=float),
            tile_index_by_slot,
        )
    points = xy[live]
    codes = tile_codes(points, tile_size)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    slots = live[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    starts = np.concatenate(
        [np.zeros(1, dtype=np.intp), boundaries.astype(np.intp), np.array([n], dtype=np.intp)]
    )
    counts = np.diff(starts)
    tile_count = int(counts.shape[0])
    sorted_points = points[order]
    centroids = np.add.reduceat(sorted_points, starts[:-1], axis=0) / counts[:, None]
    member_tile = np.repeat(np.arange(tile_count, dtype=np.intp), counts)
    offsets = sorted_points - centroids[member_tile]
    radii = np.maximum.reduceat(np.hypot(offsets[:, 0], offsets[:, 1]), starts[:-1])
    tile_index_by_slot[slots] = member_tile
    return TileGrid(
        tile_size,
        slots,
        starts,
        sorted_codes[starts[:-1]],
        centroids,
        radii,
        tile_index_by_slot,
    )


class _RowCache:
    """FIFO cache of attenuation rows for one exponent (bounded row count)."""

    __slots__ = ("cursor", "pos_of", "rows", "slot_at", "used", "version")

    def __init__(self, max_rows: int, capacity: int) -> None:
        self.rows = np.empty((max_rows, capacity), dtype=float)
        self.slot_at = np.full(max_rows, -1, dtype=np.intp)
        self.pos_of: dict[int, int] = {}
        self.cursor = 0
        self.used = 0
        self.version = -1

    def reset(self, version: int) -> None:
        self.pos_of.clear()
        self.slot_at.fill(-1)
        self.cursor = 0
        self.used = 0
        self.version = version

    @property
    def resident_bytes(self) -> int:
        row_bytes = int(self.rows.shape[1]) * 8
        return self.used * row_bytes + int(self.slot_at.nbytes)


class TiledNetworkState(NetworkState):
    """Sparse near/far geometry store: exact rectangles, no O(n^2) matrices.

    Drop-in for :class:`NetworkState` behind every consumer that dispatches
    on :attr:`materializes_matrices` (the caches, the channel, the fabric);
    the whole-matrix accessors raise instead of allocating quadratically.

    Args:
        nodes: initial node universe (same as the dense store).
        capacity: pre-reserved slots (same as the dense store).
        tile_size: uniform tile edge length; default derives one from the
            live bounding box targeting ~8 nodes per tile.
        budget_bytes: byte budget for derived structures (tile grid + cached
            attenuation rows); also the reference point of the near-load
            throttle.
        near_rings: near radius in tile rings - pairs within
            ``near_rings * tile_size`` are the "exact" neighborhood the
            affectance totals never approximate.  The peak-hold throttle may
            shrink the *effective* ring count down to 1 under load; it
            relaxes back only when the held peak falls below a quarter of
            the budget.
    """

    store: str = "tiled"
    materializes_matrices: bool = False

    def __init__(
        self,
        nodes: "Iterable[Node]" = (),
        *,
        capacity: int | None = None,
        tile_size: float | None = None,
        budget_bytes: int = DEFAULT_TILE_BUDGET_BYTES,
        near_rings: int = 2,
    ) -> None:
        super().__init__(nodes, capacity=capacity)
        self._init_tiled(tile_size, budget_bytes, near_rings)

    def _init_tiled(
        self, tile_size: float | None, budget_bytes: int, near_rings: int
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        if near_rings < 1:
            raise ValueError(f"near_rings must be >= 1, got {near_rings}")
        self._tile_size = float(tile_size) if tile_size is not None else self._derive_tile_size()
        if self._tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {self._tile_size}")
        self._budget_bytes = int(budget_bytes)
        self._max_near_rings = int(near_rings)
        self._near_rings = int(near_rings)
        self._grid_cache: TileGrid | None = None
        self._grid_version = -1
        self._row_caches: dict[float, _RowCache] = {}
        self._estimator = PeakHoldEstimator()
        self._throttle_events = 0
        self._far_bound = 0.0

    def _derive_tile_size(self) -> float:
        live = self.live_slots()
        if live.shape[0] == 0:
            return 1.0
        points = self._xy[live]
        span = float(max(np.ptp(points[:, 0]), np.ptp(points[:, 1])))
        if span <= 0.0:
            return 1.0
        tiles_per_axis = max(1.0, np.ceil(np.sqrt(live.shape[0] / _TARGET_NODES_PER_TILE)))
        return span / tiles_per_axis

    # -- construction --------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        xy: np.ndarray,
        ids: np.ndarray,
        *,
        distances: np.ndarray | None = None,
        attenuation: dict[float, np.ndarray] | None = None,
        tile_size: float | None = None,
        budget_bytes: int = DEFAULT_TILE_BUDGET_BYTES,
        near_rings: int = 2,
    ) -> "TiledNetworkState":
        """Adopt coordinate/id arrays as a read-only tiled view (fabric attach).

        The tiled store never holds dense matrices, so pre-materialized
        ``distances``/``attenuation`` blocks are rejected rather than
        silently adopted - the exporter should not have produced them for a
        tiled state.
        """
        if distances is not None or attenuation:
            raise ValueError(
                "TiledNetworkState adopts coordinates only; dense matrix "
                "blocks have no tiled counterpart"
            )
        state = super().from_arrays(xy, ids)
        assert isinstance(state, TiledNetworkState)
        state._init_tiled(tile_size, budget_bytes, near_rings)
        return state

    # -- configuration / reporting -------------------------------------------

    @property
    def tile_size(self) -> float:
        """Edge length of the uniform tiles."""
        return self._tile_size

    @property
    def budget_bytes(self) -> int:
        """Byte budget for derived structures (grid + row caches)."""
        return self._budget_bytes

    @property
    def near_rings(self) -> int:
        """Current (possibly throttled) near radius in tile rings."""
        return self._near_rings

    @property
    def near_cutoff(self) -> float:
        """Current near radius in coordinate units (``near_rings * tile_size``)."""
        return self._near_rings * self._tile_size

    @property
    def throttle_events(self) -> int:
        """How many times the peak-hold throttle shrank the near radius."""
        return self._throttle_events

    @property
    def tile_config(self) -> dict[str, float | int]:
        """The constructor-visible tile configuration (for fabric export)."""
        return {
            "tile_size": self._tile_size,
            "budget_bytes": self._budget_bytes,
            "near_rings": self._max_near_rings,
        }

    def far_error_bound(self) -> float:
        """Worst-case relative far-field row-sum error actually incurred.

        The maximum over all far tile aggregations performed so far of
        ``(1 + r/d)**alpha - 1`` (tile radius ``r``, centroid distance
        ``d``) - a sound per-row bound on
        ``|tiled_total - dense_total| / dense_total`` provided no far pair's
        raw affectance reaches the ``1 + epsilon`` cap (which the default
        near cutoff of :class:`repro.sinr.TiledAffectanceTotals` guarantees
        by construction).  ``0.0`` until a far aggregation happens - an
        all-near run is exact.
        """
        return self._far_bound

    def note_far_error_bound(self, bound: float) -> None:
        """Fold one aggregation's incurred bound into the running maximum."""
        if bound > self._far_bound:
            self._far_bound = float(bound)

    def resident_bytes(self) -> int:
        """Bytes currently held by derived tiled structures (grid + rows).

        This is what the ``budget_bytes`` contract is checked against; the
        inherited O(n) coordinate/id arrays are excluded (they exist in any
        store).
        """
        total = 0
        if self._grid_cache is not None:
            total += self._grid_cache.nbytes
        for cache in self._row_caches.values():
            total += cache.resident_bytes
        return total

    def note_near_load(self, near_pairs: int) -> None:
        """Feed the near-pair load into the peak-hold throttle.

        The load is measured in held near pairs (~16 bytes each: an index
        plus an accumulated float).  When the held peak exceeds what half
        the byte budget can hold, the near radius shrinks one ring (never
        below 1); it relaxes back one ring only when the peak falls below a
        quarter of that budget - the hysteresis gap that prevents accuracy
        bounce.
        """
        peak = self._estimator.observe(float(near_pairs))
        budget_pairs = (self._budget_bytes // 2) // 16
        if peak > budget_pairs and self._near_rings > 1:
            self._near_rings -= 1
            self._throttle_events += 1
            if OBS.enabled:
                OBS.registry.inc("tiled.budget_throttle")
        elif peak < 0.25 * budget_pairs and self._near_rings < self._max_near_rings:
            self._near_rings += 1
        if OBS.enabled:
            OBS.registry.gauge("tiled.near_pairs").set(float(near_pairs))

    # -- tile grid ------------------------------------------------------------

    def grid(self) -> TileGrid:
        """The tile decomposition at the current version (lazily rebuilt).

        Any mutation (add/remove/move) invalidates the snapshot; the next
        call rebuilds it in O(n log n) and counts one far-tile refresh.
        """
        if self._grid_cache is None or self._grid_version != self.version:
            self._grid_cache = build_tile_grid(
                self._xy, self.live_slots(), self._tile_size, self._capacity
            )
            self._grid_version = self.version
            if OBS.enabled:
                OBS.registry.inc("tiled.far_tile_refresh")
                OBS.registry.gauge("tiled.resident_bytes").set(float(self.resident_bytes()))
        return self._grid_cache

    # -- exact rectangles (the dense-gather replacements) ----------------------

    def distance_rect(
        self,
        row_slots: IntpArray,
        col_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "tiled.dist",
    ) -> FloatArray:
        """Exact distance rectangle - bitwise equal to a dense matrix gather."""
        return distance_rect_from_xy(self._xy[row_slots], self._xy[col_slots], workspace, key)

    def attenuation_rect(
        self,
        alpha: float,
        row_slots: IntpArray,
        col_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "tiled.att",
    ) -> FloatArray:
        """Exact attenuation rectangle - bitwise equal to a dense matrix gather."""
        return attenuation_rect_from_xy(
            self._xy[row_slots], self._xy[col_slots], alpha, workspace, key
        )

    def fade_rect(
        self,
        model: "GainModel",
        row_slots: IntpArray,
        col_slots: IntpArray | None,
    ) -> FloatArray | None:
        """Fade rectangle of a slot-invariant gain model (pure id-pair hash).

        ``col_slots=None`` means all capacity columns, mirroring the dense
        fade-matrix row layout.  Exact by construction: the model's fade is
        an elementwise function of the id pair, so computing the subset
        equals gathering it.
        """
        if not getattr(model, "slot_invariant", False):
            raise ValueError(f"{model!r} is slot-dependent; its fades cannot be cached")
        cols = self._ids if col_slots is None else self._ids[col_slots]
        return model.fade(self._ids[row_slots], cols, None)

    def attenuation_rows(
        self,
        alpha: float,
        row_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "tiled.rows",
    ) -> FloatArray:
        """Whole attenuation rows (capacity columns) through the FIFO row cache.

        This is the decode hot path's ``cols=None`` gather.  Cached rows are
        computed by exactly the kernels the dense store patches with
        (``attenuation_from_distances(pairwise_distances(...))``), so the
        result is bitwise equal to ``np.take`` on a dense attenuation
        matrix.  The cache holds at most ``(budget_bytes / 2) / (capacity *
        8)`` rows per exponent; requests larger than that are computed
        fresh (still exact, just uncached).  Any state mutation invalidates
        the cache wholesale - rows are cheap to recompute and a stale row
        can never be served.
        """
        alpha = float(alpha)
        row_slots = np.asarray(row_slots, dtype=np.intp)
        k = int(row_slots.shape[0])
        max_rows = max(1, (self._budget_bytes // 2) // max(1, self._capacity * 8))
        cache = self._row_caches.get(alpha)
        if cache is None or cache.rows.shape != (max_rows, self._capacity):
            cache = _RowCache(max_rows, self._capacity)
            self._row_caches[alpha] = cache
        if cache.version != self.version:
            cache.reset(self.version)
        if k > max_rows:
            # The request alone exceeds the row budget: serve it uncached.
            return attenuation_rect_from_xy(self._xy[row_slots], self._xy, alpha, workspace, key)
        requested = [int(slot) for slot in row_slots.tolist()]
        needed = set(requested)
        missing = [slot for slot in dict.fromkeys(requested) if slot not in cache.pos_of]
        if missing:
            miss = np.asarray(missing, dtype=np.intp)
            fresh = attenuation_from_distances(pairwise_distances(self._xy[miss], self._xy), alpha)
            for offset, slot in enumerate(missing):
                pos = cache.cursor
                # FIFO eviction, skipping rows the current request also needs.
                while True:
                    holder = int(cache.slot_at[pos])
                    if holder < 0 or holder not in needed:
                        break
                    pos = (pos + 1) % max_rows
                evicted = int(cache.slot_at[pos])
                if evicted >= 0:
                    del cache.pos_of[evicted]
                else:
                    cache.used += 1
                cache.rows[pos] = fresh[offset]
                cache.slot_at[pos] = slot
                cache.pos_of[slot] = pos
                cache.cursor = (pos + 1) % max_rows
            if OBS.enabled:
                OBS.registry.inc("tiled.row_cache_miss", len(missing))
                OBS.registry.gauge("tiled.resident_bytes").set(float(self.resident_bytes()))
        positions = np.fromiter(
            (cache.pos_of[slot] for slot in requested), dtype=np.intp, count=k
        )
        if workspace is None:
            return cache.rows[positions]
        stage = workspace.floats(key, k, self._capacity)
        np.take(cache.rows, positions, axis=0, out=stage)
        return stage

    #: Rows per block of :meth:`max_distance`'s scan.
    MAX_DISTANCE_ROWS = 256

    def max_distance(self) -> float:
        """Largest distance between two live nodes (``0.0`` below two nodes).

        A row-blocked max of the same :func:`~repro.state.kernels
        .pairwise_distances` expression the dense matrix holds (so the value
        is bitwise the dense store's), without materializing O(n^2) memory.
        """
        live = self.live_slots()
        if live.size < 2:
            return 0.0
        xy = self._xy[live]
        rows = self.MAX_DISTANCE_ROWS
        return max(
            float(pairwise_distances(xy[start : start + rows], xy).max())
            for start in range(0, len(xy), rows)
        )

    # -- dense accessors (refused) ---------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        raise RuntimeError(
            "TiledNetworkState does not materialize the O(n^2) distance "
            "matrix; use distance_rect()/attenuation_rows() or a dense "
            "NetworkState (store='dense') at small n"
        )

    def attenuation_matrix(self, alpha: float) -> np.ndarray:
        raise RuntimeError(
            "TiledNetworkState does not materialize the O(n^2) attenuation "
            "matrix; use attenuation_rect()/attenuation_rows() or a dense "
            "NetworkState (store='dense') at small n"
        )

    def fade_matrix(self, model: "GainModel") -> np.ndarray | None:
        raise RuntimeError(
            "TiledNetworkState does not materialize the O(n^2) fade matrix; "
            "use fade_rect() or a dense NetworkState (store='dense') at small n"
        )

    # -- churn ----------------------------------------------------------------

    def _patch_geometry(self, slots: np.ndarray) -> None:
        # Nothing quadratic to patch: derived structures (tile grid, row
        # caches) are versioned snapshots that rebuild lazily against the
        # new coordinates.  cells_patched stays honest at zero matrix cells.
        return

    def _patch_fades(self, slots: np.ndarray) -> None:
        # No fade matrices exist (fade_matrix raises); fade_rect hashes
        # id pairs on demand.
        return
