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
    EmptyQueueError,
    Message,
    MessageKindBase,
    ModelError,
    QueueOverflowError,
    canonical_encode,
    check_state,
    memoized_apply,
    receive,
)

__all__ = [
    "EmptyQueueError",
    "ExplorationResult",
    "ExploreConfig",
    "Message",
    "MessageKindBase",
    "ModelConfig",
    "ModelError",
    "ProtocolModel",
    "QueueOverflowError",
    "RunStats",
    "TraceStep",
    "TransitionRule",
    "Verdict",
    "canonical_encode",
    "check_state",
    "explore",
    "memoized_apply",
    "receive",
    "reconstruct_trace",
]
