"""Distributed runtime: agents, messages, lock-step slotted simulator."""

from .agent import NodeAgent
from .message import AckMessage, BroadcastMessage, DataMessage
from .simulator import Simulator, spawn_agent_rngs
from .trace import ExecutionTrace, SlotRecord

__all__ = [
    "NodeAgent",
    "BroadcastMessage",
    "AckMessage",
    "DataMessage",
    "Simulator",
    "spawn_agent_rngs",
    "ExecutionTrace",
    "SlotRecord",
]
