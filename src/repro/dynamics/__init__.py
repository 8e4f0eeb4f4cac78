"""Dynamics subsystem: gain models, mobility, churn, and their driver.

The paper proves its guarantees for a frozen node set under deterministic
``P / d**alpha`` path loss; its conclusion names "dynamic situations" as the
natural extension.  This package opens that scenario space on top of the
vectorized slot engine:

* :mod:`~repro.dynamics.gain` - pluggable channel-gain models
  (:class:`DeterministicPathLoss`, :class:`LogNormalShadowing`,
  :class:`RayleighFading`, :class:`ComposedGain`), threaded through
  ``SINRParameters.gain_model`` into every SINR kernel;
* :mod:`~repro.dynamics.mobility` - node movement
  (:class:`StaticMobility`, :class:`RandomWalk`, :class:`RandomWaypoint`)
  with incremental invalidation of the cached distance/attenuation matrices;
* :mod:`~repro.dynamics.churn` - seeded failure/arrival streams
  (:class:`ChurnProcess`) wired to incremental tree repair;
* :mod:`~repro.dynamics.simulator` - the :class:`DynamicSimulator` driver
  running a :class:`DynamicScenario` epoch by epoch.

Everything is deterministic given its seeds, so the parallel experiment
harness fans dynamic trials out over worker processes with bit-identical
results.
"""

from .churn import ChurnEvent, ChurnProcess
from .gain import (
    ComposedGain,
    DeterministicPathLoss,
    GainModel,
    LogNormalShadowing,
    RayleighFading,
)
from .mobility import (
    MobilityModel,
    RandomWalk,
    RandomWaypoint,
    StaticMobility,
    bounding_rectangle,
)
from .simulator import (
    DynamicRunResult,
    DynamicScenario,
    DynamicSimulator,
    EpochRecord,
    replay_schedule,
)

__all__ = [
    "GainModel",
    "DeterministicPathLoss",
    "LogNormalShadowing",
    "RayleighFading",
    "ComposedGain",
    "MobilityModel",
    "StaticMobility",
    "RandomWalk",
    "RandomWaypoint",
    "bounding_rectangle",
    "ChurnEvent",
    "ChurnProcess",
    "DynamicScenario",
    "DynamicSimulator",
    "DynamicRunResult",
    "EpochRecord",
    "replay_schedule",
]
