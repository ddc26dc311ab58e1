"""Explicit-state model checker for asynchronous message-passing protocols.
The root names only the protocol-free core; protocols live in their modules."""

from .engine import (
    ExplorationResult,
    ExploreConfig,
    ModelConfig,
    ProtocolModel,
    RunStats,
    TraceStep,
    TransitionRule,
    Verdict,
    explore,
    reconstruct_trace,
)
from .state import (
    Message,
    MessageKindBase,
    QueueOverflowError,
    memoized_apply,
    receive,
    state_checker,
)

__all__ = [
    "ExplorationResult",
    "ExploreConfig",
    "Message",
    "MessageKindBase",
    "ModelConfig",
    "ProtocolModel",
    "QueueOverflowError",
    "RunStats",
    "TraceStep",
    "TransitionRule",
    "Verdict",
    "explore",
    "memoized_apply",
    "receive",
    "reconstruct_trace",
    "state_checker",
]
