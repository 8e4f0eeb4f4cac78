"""Network-state layer: one capacity-managed geometry/gain store.

This package sits between the geometry primitives and the SINR caches in
the layer stack (see ``ARCHITECTURE.md``): a :class:`NetworkState` owns the
over-allocated position/distance/attenuation/fade matrices for one node
universe and supports O(damage) incremental add/remove/move; the caches of
``repro.sinr.arrays`` are views over it, and the dynamics drivers patch it
instead of rebuilding per event.  :class:`TiledNetworkState` is the sparse
sibling selected by ``store="tiled"``: O(n) memory, exact near-field
rectangles and tile-aggregated far fields, for populations the dense
matrices cannot hold; :func:`build_store` makes the one dense/tiled
decision for every store built on a caller's behalf.
:class:`DecodeWorkspace` provides the scratch arenas the decode kernels
reuse instead of allocating per slot, and
:mod:`repro.state.shared` exports a state's arrays through POSIX shared
memory so worker processes read them zero-copy.
"""

from .kernels import (
    attenuation_from_distances,
    attenuation_rect_from_xy,
    distance_rect_from_xy,
    far_tile_power_sums,
    pairwise_distances,
    tile_codes,
)
from .network import NetworkState, link_endpoints
from .scratch import DecodeWorkspace
from .shared import SharedStateSpec, StateExport, attach_state, export_state
from .store import build_store
from .tiled import (
    DEFAULT_TILE_BUDGET_BYTES,
    PeakHoldEstimator,
    TileGrid,
    TiledNetworkState,
    build_tile_grid,
)

__all__ = [
    "NetworkState",
    "TiledNetworkState",
    "build_store",
    "link_endpoints",
    "TileGrid",
    "PeakHoldEstimator",
    "DEFAULT_TILE_BUDGET_BYTES",
    "DecodeWorkspace",
    "SharedStateSpec",
    "StateExport",
    "attach_state",
    "export_state",
    "attenuation_from_distances",
    "attenuation_rect_from_xy",
    "distance_rect_from_xy",
    "far_tile_power_sums",
    "pairwise_distances",
    "tile_codes",
    "build_tile_grid",
]
