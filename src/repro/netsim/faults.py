"""Composable fault models drawn from stateless counter-hashed randomness.

A :class:`FaultPlan` bundles every way the transport can misbehave - per
message Bernoulli drops, seeded latency distributions, node crash/recover
windows and link partitions - behind pure functions of ``(seed, sender,
receiver, slot)``.  All draws go through the same SplitMix64 counter hash the
fading models use (see :mod:`repro.dynamics.gain`), never through a shared
RNG stream, so a fault trace is bit-reproducible regardless of query order,
agent scheduling, node subsets or worker count: the drop decision for message
``(u, v, t)`` is the same whether it is the first or the millionth question
asked of the plan.

Crash schedules can be written explicitly, sampled from a counter hash
(:meth:`CrashSchedule.sample`), or derived from the dynamics subsystem's
seeded :class:`~repro.dynamics.churn.ChurnProcess`
(:meth:`CrashSchedule.from_churn`), which maps each churn epoch's failure
draw onto a crash window in slot time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .._types import BoolArray, IntpArray
from ..dynamics.gain import _hash_u64, _uniform_open
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dynamics.churn import ChurnProcess
    from ..geometry import Node

__all__ = [
    "CrashSchedule",
    "CrashWindow",
    "FaultPlan",
    "FaultTrace",
    "LatencyModel",
    "Partition",
]

# Domain-separation tags: one per fault stream, so identical seeds never
# correlate drops with delays, crash draws or heartbeat loss.
_DROP_STREAM = 0x44524F50
_DELAY_STREAM = 0x44454C41
_CRASH_STREAM = 0x43524153
_HEARTBEAT_STREAM = 0x48454152


@dataclass(frozen=True)
class LatencyModel:
    """Seeded per-message delivery delay, in whole slots.

    With probability ``delay_prob`` a message is late; its extra delay is a
    geometric draw with mean ``mean_slots`` (conditioned on being >= 1),
    capped at ``max_slots``.  Both draws are counter hashes of
    ``(seed, sender, receiver, slot)``, so the delay of a given message is a
    pure function of its identity.

    Attributes:
        delay_prob: probability that a delivered message is delayed at all.
        mean_slots: mean of the geometric delay, given that it is delayed.
        max_slots: hard cap on the per-message delay.
    """

    delay_prob: float = 0.0
    mean_slots: float = 1.0
    max_slots: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay_prob <= 1.0:
            raise ConfigurationError(f"delay_prob must be in [0, 1], got {self.delay_prob}")
        if self.mean_slots < 1.0:
            raise ConfigurationError(f"mean_slots must be >= 1, got {self.mean_slots}")
        if self.max_slots < 1:
            raise ConfigurationError(f"max_slots must be positive, got {self.max_slots}")

    def delays(self, seed: int, src_id: int, dst_ids: np.ndarray, slot: int) -> IntpArray:
        """Per-receiver delivery delays for one sender's slot-``slot`` message."""
        dst = np.asarray(dst_ids, dtype=np.int64)
        if self.delay_prob <= 0.0:
            return np.zeros(dst.shape, dtype=np.intp)
        u_late = _uniform_open(_hash_u64(_DELAY_STREAM, seed, src_id, dst, slot, 1))
        u_size = _uniform_open(_hash_u64(_DELAY_STREAM, seed, src_id, dst, slot, 2))
        # Geometric with the requested mean: ceil(log(u) / log(1 - 1/mean)).
        p = 1.0 / self.mean_slots
        if p >= 1.0:
            size = np.ones(dst.shape, dtype=np.intp)
        else:
            size = np.ceil(np.log(u_size) / np.log1p(-p)).astype(np.intp)
        size = np.clip(size, 1, self.max_slots)
        return np.where(u_late < self.delay_prob, size, 0).astype(np.intp)


@dataclass(frozen=True)
class CrashWindow:
    """One node-down interval: crashed in ``[start_slot, end_slot)``.

    ``end_slot=None`` means crash-stop: the node never comes back.
    """

    node_id: int
    start_slot: int
    end_slot: int | None = None

    def covers(self, slot: int) -> bool:
        if slot < self.start_slot:
            return False
        return self.end_slot is None or slot < self.end_slot


@dataclass(frozen=True)
class CrashSchedule:
    """A set of crash windows, queried per (node, slot).

    Attributes:
        windows: the node-down intervals; one node may have several.
    """

    windows: tuple[CrashWindow, ...] = ()

    def is_crashed(self, node_id: int, slot: int) -> bool:
        """Whether ``node_id`` is down at ``slot``."""
        return any(w.node_id == node_id and w.covers(slot) for w in self.windows)

    def crashed_ids(self, slot: int) -> frozenset[int]:
        """Ids of every node down at ``slot``."""
        return frozenset(w.node_id for w in self.windows if w.covers(slot))

    @property
    def node_ids(self) -> frozenset[int]:
        """Every node that crashes at least once."""
        return frozenset(w.node_id for w in self.windows)

    @classmethod
    def sample(
        cls,
        node_ids: Sequence[int],
        count: int,
        horizon: int,
        *,
        seed: int = 0,
        recover_after: int | None = None,
        min_slot: int = 0,
    ) -> "CrashSchedule":
        """Draw ``count`` distinct victims and crash slots from a counter hash.

        The draw is a pure function of ``(seed, node ids, horizon)``: victims
        are the ``count`` nodes with the smallest hash rank, each crashing at
        a hash-derived slot in ``[min_slot, horizon)``.  No RNG object is
        involved, so the schedule is identical across processes and call
        orders.

        Args:
            node_ids: candidate victims.
            count: how many nodes crash.
            horizon: exclusive upper bound on crash slots.
            seed: stream seed.
            recover_after: slots until recovery (``None`` = crash-stop).
            min_slot: inclusive lower bound on crash slots.
        """
        ids = np.asarray(sorted(int(i) for i in node_ids), dtype=np.int64)
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count > len(ids):
            raise ConfigurationError(f"cannot crash {count} of {len(ids)} nodes")
        if horizon <= min_slot:
            raise ConfigurationError(f"horizon {horizon} must exceed min_slot {min_slot}")
        rank = _hash_u64(_CRASH_STREAM, seed, ids, 1)
        victims = ids[np.argsort(rank, kind="stable")][:count]
        span = horizon - min_slot
        slots = min_slot + (
            _hash_u64(_CRASH_STREAM, seed, victims, 2) % np.uint64(span)
        ).astype(np.int64)
        windows = tuple(
            CrashWindow(
                node_id=int(v),
                start_slot=int(s),
                end_slot=None if recover_after is None else int(s) + int(recover_after),
            )
            for v, s in zip(victims, slots)
        )
        return cls(windows=windows)

    @classmethod
    def from_churn(
        cls,
        churn: "ChurnProcess",
        nodes: Sequence["Node"],
        *,
        epochs: int,
        slots_per_epoch: int,
        recover_after: int | None = None,
    ) -> "CrashSchedule":
        """Map a seeded churn process onto crash windows in slot time.

        Epoch ``e``'s failure draw (a pure function of ``(churn.seed, e)``)
        becomes a set of crashes at slot ``e * slots_per_epoch``.  Arrivals
        in the churn stream are ignored - the message runtime models node
        loss, not deployment.  Nodes already scheduled to crash are excluded
        from later epochs' alive sets, mirroring the dynamics driver.
        """
        if epochs < 0:
            raise ConfigurationError(f"epochs must be non-negative, got {epochs}")
        if slots_per_epoch < 1:
            raise ConfigurationError(
                f"slots_per_epoch must be positive, got {slots_per_epoch}"
            )
        alive = list(nodes)
        next_id = max((node.id for node in alive), default=0) + 1
        windows: list[CrashWindow] = []
        for epoch in range(epochs):
            event = churn.events_for(epoch, alive, next_id)
            start = epoch * slots_per_epoch
            for node_id in event.failed:
                windows.append(
                    CrashWindow(
                        node_id=int(node_id),
                        start_slot=start,
                        end_slot=None if recover_after is None else start + recover_after,
                    )
                )
            failed = set(event.failed)
            alive = [node for node in alive if node.id not in failed]
        return cls(windows=tuple(windows))


@dataclass(frozen=True)
class Partition:
    """A link partition: messages crossing the cut are dropped.

    The cut separates ``left`` from everyone else during
    ``[start_slot, end_slot)`` (``end_slot=None`` = forever).
    """

    left: frozenset[int]
    start_slot: int = 0
    end_slot: int | None = None

    def active(self, slot: int) -> bool:
        if slot < self.start_slot:
            return False
        return self.end_slot is None or slot < self.end_slot


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault configuration of one run.

    Every decision the plan makes is a counter hash of the message identity,
    so two plans with equal fields behave identically everywhere.

    Attributes:
        seed: stream seed for drops, delays and heartbeat loss.
        drop_prob: per-message Bernoulli loss probability.
        latency: per-message delay model (``None`` = always immediate).
        crashes: node crash/recover windows.
        partitions: link partitions.
        heartbeat_drop_prob: loss probability of the out-of-band heartbeats
            feeding the failure detector (defaults to ``drop_prob``).
    """

    seed: int = 0
    drop_prob: float = 0.0
    latency: LatencyModel | None = None
    crashes: CrashSchedule = field(default_factory=CrashSchedule)
    partitions: tuple[Partition, ...] = ()
    heartbeat_drop_prob: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigurationError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if self.heartbeat_drop_prob is not None and not 0.0 <= self.heartbeat_drop_prob <= 1.0:
            raise ConfigurationError(
                f"heartbeat_drop_prob must be in [0, 1], got {self.heartbeat_drop_prob}"
            )

    @property
    def faultless(self) -> bool:
        """Whether the plan can never perturb a run."""
        return (
            self.drop_prob == 0.0
            and (self.latency is None or self.latency.delay_prob == 0.0)
            and not self.crashes.windows
            and not self.partitions
            and not self.heartbeat_drop_prob
        )

    def without_crashes(self) -> "FaultPlan":
        """The same loss/latency environment with no scheduled crashes."""
        return FaultPlan(
            seed=self.seed,
            drop_prob=self.drop_prob,
            latency=self.latency,
            partitions=self.partitions,
            heartbeat_drop_prob=self.heartbeat_drop_prob,
        )

    # -- message-level draws ------------------------------------------------

    def dropped(self, src_id: int, dst_ids: np.ndarray, slot: int) -> BoolArray:
        """Per-receiver drop decisions for one sender's slot-``slot`` message."""
        dst = np.asarray(dst_ids, dtype=np.int64)
        out = np.zeros(dst.shape, dtype=bool)
        if self.drop_prob > 0.0:
            u = _uniform_open(_hash_u64(_DROP_STREAM, self.seed, src_id, dst, slot))
            out |= u < self.drop_prob
        for partition in self.partitions:
            if partition.active(slot):
                src_left = src_id in partition.left
                out |= np.fromiter(
                    ((int(d) in partition.left) != src_left for d in dst),
                    dtype=bool,
                    count=len(dst),
                )
        return out

    def delays(self, src_id: int, dst_ids: np.ndarray, slot: int) -> IntpArray:
        """Per-receiver delivery delays (0 = arrives in the send slot)."""
        dst = np.asarray(dst_ids, dtype=np.int64)
        if self.latency is None:
            return np.zeros(dst.shape, dtype=np.intp)
        return self.latency.delays(self.seed, src_id, dst, slot)

    def heartbeat_dropped(self, node_id: int, slot: int) -> bool:
        """Whether ``node_id``'s heartbeat at ``slot`` is lost."""
        prob = self.drop_prob if self.heartbeat_drop_prob is None else self.heartbeat_drop_prob
        if prob <= 0.0:
            return False
        u = _uniform_open(_hash_u64(_HEARTBEAT_STREAM, self.seed, node_id, slot))
        return bool(u < prob)


class FaultTrace:
    """Recorder of every fault the transport actually injected.

    The trace lists events in slot order with deterministic tie-breaks, so
    two runs of the same plan produce byte-identical traces; :meth:`digest`
    condenses that into a fingerprint the property tests compare across
    scheduling orders and worker counts.
    """

    __slots__ = ("crashes", "delayed", "dropped", "heartbeat_losses", "recoveries")

    def __init__(self) -> None:
        #: (slot, src_id, dst_id) of every dropped delivery.
        self.dropped: list[tuple[int, int, int]] = []
        #: (slot, src_id, dst_id, delay) of every delayed delivery.
        self.delayed: list[tuple[int, int, int, int]] = []
        #: (slot, node_id) of every crash transition.
        self.crashes: list[tuple[int, int]] = []
        #: (slot, node_id) of every recovery transition.
        self.recoveries: list[tuple[int, int]] = []
        #: (hashed slot, node_id) of every lost out-of-band heartbeat.  The
        #: *hashed* slot (protocol slot + transport offset) is recorded so a
        #: completion patch that continues the streams at a fresh offset is
        #: distinguishable from a replay of the main run's decisions.
        self.heartbeat_losses: list[tuple[int, int]] = []

    def record_drop(self, slot: int, src_id: int, dst_id: int) -> None:
        self.dropped.append((slot, src_id, dst_id))

    def record_delay(self, slot: int, src_id: int, dst_id: int, delay: int) -> None:
        self.delayed.append((slot, src_id, dst_id, delay))

    def record_crash(self, slot: int, node_id: int) -> None:
        self.crashes.append((slot, node_id))

    def record_recovery(self, slot: int, node_id: int) -> None:
        self.recoveries.append((slot, node_id))

    def record_heartbeat_loss(self, hashed_slot: int, node_id: int) -> None:
        self.heartbeat_losses.append((hashed_slot, node_id))

    def summary(self) -> dict[str, int]:
        return {
            "dropped": len(self.dropped),
            "delayed": len(self.delayed),
            "crashes": len(self.crashes),
            "recoveries": len(self.recoveries),
            "heartbeat_losses": len(self.heartbeat_losses),
        }

    def digest(self) -> str:
        """Order-normalized fingerprint of the whole fault history."""
        payload = repr(
            (
                sorted(self.dropped),
                sorted(self.delayed),
                sorted(self.crashes),
                sorted(self.recoveries),
                sorted(self.heartbeat_losses),
            )
        ).encode("utf-8")
        return hashlib.sha1(payload).hexdigest()
