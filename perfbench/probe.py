"""Host-speed probe: a fixed unit of work timed between benchmark ops.

The probe never imports ``repro``; its code and data never change, so its
time measures the host, not the program.  It mixes the two kinds of work the
workloads spend their time on: interpreter-bound object, method and dict
traffic (the per-agent protocol glue) and numpy row/column gathers from a
matrix larger than the L2 cache (the shape of the SINR decode and
geometry-store reads).  The glue takes about 2/3 of a slice: in calibration
runs of lossy-failover and churn-mobility (one op repeated 120-250 times
with both parts timed between ops), a 0.6-0.7 glue weight left the least
spread in probe-normalized op time.  Its footprint is fixed (one 8 MiB
matrix), so it does not move ``peak_rss_mb``.

An op's reference-host time is ``op_wall / probe_wall * REF_PROBE_S``: the
op's wall time in units of the probe, scaled to the probe time of a fixed
reference host.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["HostProbe", "REF_PROBE_S"]

#: Wall time of one probe slice on the reference host (a 2-vCPU Xeon KVM
#: guest with 2 MiB L2 per core, Python 3.11, numpy 2.4).  Fixed once;
#: never re-measured.
REF_PROBE_S = 0.05

#: 1024 x 1024 float64 = 8 MiB, twice the host's total L2.
_SIDE = 1024
_ROWS = 96
_COLS = 512
_OBJECTS = 64
_GLUE_PASSES = 155
_GATHERS = 100


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight

    def scaled(self, factor: float) -> float:
        return self.weight * factor


class HostProbe:
    """A fixed work unit; :meth:`slice` runs and times one unit."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        self._matrix = rng.random((_SIDE, _SIDE))
        self._rows = rng.integers(0, _SIDE, size=_ROWS)
        self._cols = rng.integers(0, _SIDE, size=_COLS)

    @staticmethod
    def _glue() -> float:
        cells = [_Cell(k, k * 0.5) for k in range(_OBJECTS)]
        table: dict[int, float] = {}
        acc = 0.0
        for sweep in range(10):
            for cell in cells:
                key = (cell.key * 31 + sweep) & 127
                table[key] = table.get(key, 0.0) + cell.scaled(1.0001)
                acc += cell.weight
        return acc + sum(table.values())

    def _gather(self) -> float:
        block = self._matrix[self._rows][:, self._cols]
        return float(block.sum(axis=1).max())

    def slice(self) -> float:
        """Run one probe slice; returns its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(_GLUE_PASSES):
            self._glue()
        for _ in range(_GATHERS):
            self._gather()
        return time.perf_counter() - start
