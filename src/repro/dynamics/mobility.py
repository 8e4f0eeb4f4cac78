"""Mobility models: node movement between slots/epochs.

A :class:`MobilityModel` turns the static node set of the paper into a
changing topology: given the current coordinate array it returns which nodes
moved and where to.  The :class:`~repro.dynamics.simulator.DynamicSimulator`
feeds those deltas into
:meth:`~repro.sinr.arrays.NodeArrayCache.update_positions`, which forwards
them to the shared :class:`~repro.state.NetworkState`; the state patches the
moved rows/columns of its distance/attenuation matrices incrementally
(O(k * capacity) for ``k`` movers instead of an O(n^2) rebuild) and every
view - the slot engine's channel cache, link caches built for
feasibility checks - keeps decoding against up-to-date matrices with no
rebuild cost.

All models draw from the generator handed to :meth:`MobilityModel.move`, so a
run is reproducible from the driver's seed.  Movement is reflected at the
model's :class:`~repro.geometry.region.Rectangle` bounds (defaulting to the
bounding box of the initial placement, slightly expanded) so nodes never
drift off to infinity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import ConfigurationError
from ..geometry import Rectangle, bounding_rectangle

__all__ = [
    "MobilityModel",
    "StaticMobility",
    "RandomWalk",
    "RandomWaypoint",
    "bounding_rectangle",
]


def _reflect(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Reflect coordinates into ``[low, high]`` (billiard boundary)."""
    span = high - low
    if span <= 0:
        return np.full_like(values, low)
    folded = np.mod(values - low, 2.0 * span)
    return low + np.where(folded > span, 2.0 * span - folded, folded)


class MobilityModel(ABC):
    """Per-step node movement over a fixed-id node universe."""

    def begin_run(
        self,
        xy: np.ndarray,
        rng: np.random.Generator,
        ids: np.ndarray | None = None,
    ) -> None:
        """Start a fresh run: drop all per-run state, then :meth:`reset`.

        A model instance may be reused across deployments (e.g. one
        ``DynamicScenario`` driving several simulators); this hook clears
        run-scoped state - derived bounds, per-node journeys - so the second
        run does not inherit the first deployment's geography.  The default
        delegates to :meth:`reset`, which suffices for stateless models.
        """
        self.reset(xy, rng, ids)

    def reset(
        self,
        xy: np.ndarray,
        rng: np.random.Generator,
        ids: np.ndarray | None = None,
    ) -> None:
        """(Re)initialize per-node state for a universe with positions ``xy``.

        Called mid-run whenever churn changes the universe.  ``ids`` (when
        given) are the node ids aligned with ``xy``; stateful models use
        them to carry survivors' state across a churn event instead of
        restarting everyone.  Stateless models need not override this.
        """

    @abstractmethod
    def move(
        self, xy: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """One movement step from current positions ``xy``.

        Returns:
            ``(indices, new_xy)``: the universe indices of the nodes that
            moved and their new coordinates (``(len(indices), 2)``).  Both
            are empty when nothing moved.
        """


_NO_MOVE = (np.empty(0, dtype=np.intp), np.empty((0, 2), dtype=float))


class StaticMobility(MobilityModel):
    """The paper's model: nobody moves (useful as a scenario placeholder)."""

    def move(self, xy, rng):
        return _NO_MOVE


class RandomWalk(MobilityModel):
    """Brownian motion: i.i.d. Gaussian steps, reflected at the bounds.

    Args:
        sigma: standard deviation of each coordinate step.
        bounds: rectangle the walk is confined to; derived once from the
            first positions seen (expanded bounding box) when omitted, and
            kept fixed afterwards so the confinement region cannot drift
            with the cloud across churn events.
        fraction: probability that a given node moves in a given step
            (``1.0`` = everyone moves; smaller values model partial
            mobility and exercise the incremental cache invalidation).
    """

    def __init__(
        self,
        sigma: float,
        bounds: Rectangle | None = None,
        fraction: float = 1.0,
    ):
        if sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.sigma = sigma
        self.fraction = fraction
        self._explicit_bounds = bounds
        self._bounds = bounds

    def _resolved_bounds(self, xy: np.ndarray) -> Rectangle:
        """The confinement rectangle: explicit, else derived once per run."""
        if self._bounds is None:
            self._bounds = bounding_rectangle(xy)
        return self._bounds

    def begin_run(self, xy, rng, ids=None):
        self._bounds = self._explicit_bounds
        self.reset(xy, rng, ids)

    def reset(self, xy, rng, ids=None):
        self._resolved_bounds(xy)

    def move(self, xy, rng):
        n = len(xy)
        if n == 0 or self.sigma == 0.0:
            return _NO_MOVE
        if self.fraction < 1.0:
            indices = np.nonzero(rng.random(n) < self.fraction)[0].astype(np.intp)
        else:
            indices = np.arange(n, dtype=np.intp)
        if indices.size == 0:
            return _NO_MOVE
        bounds = self._resolved_bounds(xy)
        steps = rng.normal(0.0, self.sigma, size=(indices.size, 2))
        moved = xy[indices] + steps
        moved[:, 0] = _reflect(moved[:, 0], bounds.x_min, bounds.x_max)
        moved[:, 1] = _reflect(moved[:, 1], bounds.y_min, bounds.y_max)
        return indices, moved


class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model.

    Every node travels toward a private waypoint (uniform in the bounds) at
    ``speed`` per step; on arrival it pauses for ``pause_steps`` steps and
    then draws a new waypoint.  Paused nodes do not move, so only a subset of
    rows is invalidated each step.

    Args:
        speed: distance covered per step.
        bounds: waypoint region; defaults to the expanded bounding box of the
            positions seen at :meth:`reset`.
        pause_steps: steps spent resting at a reached waypoint.
    """

    def __init__(
        self,
        speed: float,
        bounds: Rectangle | None = None,
        pause_steps: int = 0,
    ):
        if speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed}")
        if pause_steps < 0:
            raise ConfigurationError(f"pause_steps must be non-negative, got {pause_steps}")
        self.speed = speed
        self.pause_steps = pause_steps
        self._explicit_bounds = bounds
        self._bounds: Rectangle | None = bounds
        self._ids: np.ndarray | None = None
        self._waypoints: np.ndarray | None = None
        self._pause: np.ndarray | None = None

    def begin_run(self, xy, rng, ids=None):
        self._bounds = self._explicit_bounds
        self._ids = None
        self._waypoints = None
        self._pause = None
        self.reset(xy, rng, ids)

    def _draw_waypoints(self, count: int, rng: np.random.Generator) -> np.ndarray:
        bounds = self._bounds
        assert bounds is not None
        xs = rng.uniform(bounds.x_min, bounds.x_max, size=count)
        ys = rng.uniform(bounds.y_min, bounds.y_max, size=count)
        return np.column_stack([xs, ys])

    def reset(self, xy, rng, ids=None):
        if self._bounds is None:
            self._bounds = bounding_rectangle(xy)
        n = len(xy)
        waypoints = self._draw_waypoints(n, rng)
        pause = np.zeros(n, dtype=np.int64)
        if ids is not None:
            new_ids = np.asarray(ids, dtype=np.int64).copy()
            if self._ids is not None and self._waypoints is not None:
                # Churn re-anchors the universe indexing: carry survivors'
                # journeys (waypoint + pause) across by node id so only
                # genuine arrivals start fresh.
                old_index = {int(node_id): k for k, node_id in enumerate(self._ids)}
                for k, node_id in enumerate(new_ids.tolist()):
                    j = old_index.get(node_id)
                    if j is not None:
                        waypoints[k] = self._waypoints[j]
                        pause[k] = self._pause[j]
            self._ids = new_ids
        else:
            self._ids = None
        self._waypoints = waypoints
        self._pause = pause

    def move(self, xy, rng):
        n = len(xy)
        if n == 0:
            return _NO_MOVE
        if self._waypoints is None or len(self._waypoints) != n:
            self.reset(xy, rng)
        assert self._waypoints is not None and self._pause is not None

        resting = self._pause > 0
        self._pause[resting] -= 1
        active = np.nonzero(~resting)[0].astype(np.intp)
        if active.size == 0:
            return _NO_MOVE

        to_target = self._waypoints[active] - xy[active]
        distance = np.hypot(to_target[:, 0], to_target[:, 1])
        arriving = distance <= self.speed
        new_xy = np.where(
            arriving[:, None],
            self._waypoints[active],
            xy[active] + to_target * (self.speed / np.maximum(distance, 1e-300))[:, None],
        )
        arrived = active[arriving]
        if arrived.size:
            self._pause[arrived] = self.pause_steps
            self._waypoints[arrived] = self._draw_waypoints(arrived.size, rng)
        return active, new_xy
