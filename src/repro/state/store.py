"""The one geometry-store decision.

Every store built on a caller's behalf - by the slot engine, the cached
channel, Distr-Cap, distributed scheduling and the dynamics driver - comes
from :func:`build_store`, so the dense store's node-count ceiling is checked
here and nowhere else.
"""

from __future__ import annotations

from typing import Iterable

from ..geometry import Node
from .network import NetworkState
from .tiled import TiledNetworkState

__all__ = ["MAX_CACHED_CHANNEL_NODES", "build_store"]

#: Node count above which the dense store's O(n^2) matrices are not worth
#: their memory (8 bytes * n^2 each for the distance matrix plus one
#: attenuation matrix per alpha queried; 2048 nodes ~ 33 MB per matrix).
MAX_CACHED_CHANNEL_NODES = 2048


def build_store(nodes: Iterable[Node], store: str = "dense") -> NetworkState:
    """The geometry store for ``nodes`` under the ``store`` selector.

    Dense when ``store == "dense"`` and there are at most
    :data:`MAX_CACHED_CHANNEL_NODES` nodes, tiled otherwise.  The tiled
    store's decode rectangles are bitwise-equal to the dense gather, so
    crossing the ceiling changes memory, never results.
    """
    node_list = list(nodes)
    if store == "dense" and len(node_list) <= MAX_CACHED_CHANNEL_NODES:
        return NetworkState(node_list)
    return TiledNetworkState(node_list)
