"""Heartbeat-based failure detection.

Every alive node emits an out-of-band heartbeat each ``interval`` slots
carrying its protocol status; the detector suspects a node after
``miss_threshold`` consecutive missed heartbeats and un-suspects it on the
next one that arrives.  Heartbeats ride the control plane: they share the
transport's loss and partitions (a partitioned node looks dead, which is the
point of a failure detector) but consume no data-plane channel slots, so a
zero-fault run costs exactly the lockstep slot count.

The detector's state is three arrays aligned with ``node_ids`` - consecutive
misses, suspected, last reported "done" - and a heartbeat slot is one
:meth:`HeartbeatDetector.observe` update over all of them: every node's step
is a pure function of that slot's arrivals, so nothing is processed per node.

The detector's *view* - who is alive, who is done - is what the round driver
and the netsim ``Init`` builder act on, replacing the lockstep simulator's
god's-eye reads of agent state.  Under zero faults the view coincides with
ground truth at every round boundary; under faults it is exactly as stale or
wrong as the heartbeats let it be.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._types import BoolArray
from ..exceptions import ConfigurationError, NodeCrashedError
from ..obs.runtime import OBS

__all__ = ["HeartbeatDetector"]


class HeartbeatDetector:
    """Tracks per-node liveness and last-reported protocol status.

    Args:
        node_ids: the monitored nodes (distinct ids); every state array is
            aligned with this order.
        interval: slots between expected heartbeats.
        miss_threshold: consecutive misses before a node is suspected.
    """

    __slots__ = (
        "_done",
        "_ids",
        "_interval",
        "_misses",
        "_pos",
        "_suspected",
        "_threshold",
        "node_ids",
    )

    def __init__(
        self,
        node_ids: Sequence[int],
        *,
        interval: int = 1,
        miss_threshold: int = 3,
    ) -> None:
        if interval < 1:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        if miss_threshold < 1:
            raise ConfigurationError(
                f"miss_threshold must be positive, got {miss_threshold}"
            )
        self.node_ids = [int(node_id) for node_id in node_ids]
        self._pos = {node_id: k for k, node_id in enumerate(self.node_ids)}
        if len(self._pos) != len(self.node_ids):
            raise ConfigurationError("detector node ids must be distinct")
        self._ids = np.array(self.node_ids, dtype=np.int64)
        self._interval = interval
        self._threshold = miss_threshold
        count = len(self.node_ids)
        #: consecutive missed heartbeats per node.
        self._misses = np.zeros(count, dtype=np.int64)
        self._suspected = np.zeros(count, dtype=bool)
        #: last status each node reported (protocol "done" flag).
        self._done = np.zeros(count, dtype=bool)

    @property
    def interval(self) -> int:
        return self._interval

    def expects_heartbeat(self, slot: int) -> bool:
        """Whether ``slot`` is a heartbeat slot (all nodes share the phase)."""
        return slot % self._interval == 0

    def observe(self, slot: int, arrived: BoolArray, done: BoolArray) -> None:
        """Apply one heartbeat slot, both arrays aligned with ``node_ids``.

        An arrived heartbeat resets its node's misses, clears its suspicion
        and refreshes its status from ``done``; a missing one adds a miss and
        suspects the node once the misses reach the threshold (``done`` is
        not read there).
        """
        arrived = np.asarray(arrived, dtype=bool)
        done = np.asarray(done, dtype=bool)
        missed = ~arrived
        misses = self._misses
        misses[arrived] = 0
        misses[missed] += 1
        self._done[arrived] = done[arrived]
        over = missed & (misses >= self._threshold)
        if OBS.enabled:
            registry = OBS.registry
            heard = int(np.count_nonzero(arrived))
            if heard:
                registry.inc("netsim.heartbeats", heard)
            lost = len(arrived) - heard
            if lost:
                registry.inc("netsim.heartbeat_misses", lost)
            suspicions = int(np.count_nonzero(over & ~self._suspected))
            if suspicions:
                registry.inc("netsim.suspicions", suspicions)
        self._suspected[arrived] = False
        self._suspected |= over

    def suspected_ids(self) -> frozenset[int]:
        """Nodes currently suspected crashed."""
        return frozenset(self._ids[self._suspected].tolist())

    def alive_view(self) -> list[int]:
        """Nodes currently believed alive, in monitor order."""
        return self._ids[~self._suspected].tolist()

    def active_view(self) -> int:
        """Number of alive-believed nodes whose last status was not done."""
        return int(np.count_nonzero(~(self._suspected | self._done)))

    def require_alive(self, node_id: int) -> None:
        """Raise :class:`NodeCrashedError` if ``node_id`` is suspected down."""
        k = self._pos.get(node_id)
        if k is not None and self._suspected[k]:
            raise NodeCrashedError(
                f"node {node_id} is suspected crashed "
                f"(missed >= {self._threshold} heartbeats)"
            )
