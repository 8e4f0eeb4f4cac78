"""Execution traces and slot accounting for distributed runs.

:class:`ExecutionTrace` is a columnar store: flat integer arrays plus
per-slot offsets.  Appending a slot touches no per-slot Python containers,
which is what the slot engine needs; :class:`SlotRecord` views are
materialized on demand for the readers that want them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["SlotRecord", "ExecutionTrace"]


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one slot of a simulated execution.

    Attributes:
        slot: global slot index.
        transmitters: ids of the nodes that transmitted.
        receptions: mapping from listener id to the id of the decoded sender.
        label: optional protocol-specific tag (e.g. "broadcast" / "ack").
    """

    slot: int
    transmitters: tuple[int, ...]
    receptions: dict[int, int]
    label: str = ""


class ExecutionTrace:
    """Accumulated record of a simulated protocol execution.

    Args:
        metadata: free-form experiment metadata, merged into :meth:`summary`.
    """

    __slots__ = (
        "_labels",
        "_materialized",
        "_rx_listeners",
        "_rx_offsets",
        "_rx_senders",
        "_slots",
        "_tx_flat",
        "_tx_offsets",
        "metadata",
    )

    def __init__(self, metadata: dict[str, Any] | None = None):
        self.metadata: dict[str, Any] = dict(metadata) if metadata is not None else {}
        self._slots = array("q")
        self._labels: list[str] = []
        self._tx_flat = array("q")
        self._tx_offsets = array("q", [0])
        self._rx_listeners = array("q")
        self._rx_senders = array("q")
        self._rx_offsets = array("q", [0])
        self._materialized: list[SlotRecord] | None = None

    # -- writing -------------------------------------------------------------

    def append_slot(
        self,
        slot: int,
        transmitter_ids: Sequence[int],
        reception_pairs: Sequence[tuple[int, int]],
        label: str = "",
    ) -> None:
        """Append one slot from its components (the slot engine's entry point).

        ``reception_pairs`` holds ``(listener id, sender id)`` pairs.
        """
        self._slots.append(slot)
        self._labels.append(label)
        self._tx_flat.extend(transmitter_ids)
        self._tx_offsets.append(len(self._tx_flat))
        for listener_id, sender_id in reception_pairs:
            self._rx_listeners.append(listener_id)
            self._rx_senders.append(sender_id)
        self._rx_offsets.append(len(self._rx_listeners))
        self._materialized = None

    def record(self, record: SlotRecord) -> None:
        """Append one :class:`SlotRecord` by decomposing it into columns."""
        self.append_slot(
            record.slot, record.transmitters, list(record.receptions.items()), record.label
        )

    # -- reading -------------------------------------------------------------

    @property
    def records(self) -> list[SlotRecord]:
        """Materialized :class:`SlotRecord` view of the columns (cached)."""
        if self._materialized is None:
            records = []
            for k in range(len(self._slots)):
                t0, t1 = self._tx_offsets[k], self._tx_offsets[k + 1]
                r0, r1 = self._rx_offsets[k], self._rx_offsets[k + 1]
                records.append(
                    SlotRecord(
                        slot=self._slots[k],
                        transmitters=tuple(self._tx_flat[t0:t1]),
                        receptions={
                            self._rx_listeners[j]: self._rx_senders[j] for j in range(r0, r1)
                        },
                        label=self._labels[k],
                    )
                )
            self._materialized = records
        return self._materialized

    @property
    def slots_used(self) -> int:
        """Total number of slots recorded."""
        return len(self._slots)

    @property
    def transmissions_sent(self) -> int:
        """Total number of individual transmissions across all slots."""
        return len(self._tx_flat)

    @property
    def successful_receptions(self) -> int:
        """Total number of successful receptions across all slots."""
        return len(self._rx_listeners)

    def busy_slots(self) -> int:
        """Number of slots in which at least one node transmitted."""
        offsets = self._tx_offsets
        return sum(1 for k in range(len(self._slots)) if offsets[k + 1] > offsets[k])

    def slots_with_label(self, label: str) -> list[SlotRecord]:
        """All slot records carrying the given label."""
        return [r for r in self.records if r.label == label]

    def summary(self) -> dict[str, Any]:
        """Compact summary used by experiment reports."""
        return {
            "slots_used": self.slots_used,
            "busy_slots": self.busy_slots(),
            "transmissions_sent": self.transmissions_sent,
            "successful_receptions": self.successful_receptions,
            **self.metadata,
        }
