"""Message representation.

Payloads are plain Python objects (dicts, dataclasses, numpy arrays); the
*accounted* size is carried explicitly in ``size`` because the simulator does
not serialise anything — protocol code computes the number of bytes the real
system would put on the wire (diff bytes, write-notice records, etc.).
"""

from __future__ import annotations

from enum import Enum
from typing import Any

__all__ = ["Message", "MessageKind"]


class MessageKind(str, Enum):
    """Protocol-level message kinds, shared by all DSM protocols and MPI.

    Using one enum keeps the dispatcher simple and lets the statistics layer
    break message counts down uniformly.  Hot modules bind the kinds they use
    at import (``ACK = MessageKind.ACK``): a ``MessageKind.X`` read is slow on
    CPython 3.11 (docs/simulator.md, "What a state test costs").
    """

    # transport
    ACK = "ack"
    # lock / barrier (LRC)
    LOCK_ACQUIRE = "lock_acquire"
    LOCK_GRANT = "lock_grant"
    LOCK_FORWARD = "lock_forward"
    BARRIER_ARRIVE = "barrier_arrive"
    BARRIER_RELEASE = "barrier_release"
    # view primitives (VC)
    VIEW_ACQUIRE = "view_acquire"
    VIEW_GRANT = "view_grant"
    VIEW_RELEASE = "view_release"
    # diff machinery
    DIFF_REQUEST = "diff_request"
    DIFF_REPLY = "diff_reply"
    PAGE_REQUEST = "page_request"
    PAGE_REPLY = "page_reply"
    DIFF_PUSH = "diff_push"  # HLRC: eager one-way diff propagation to the home
    # MPI
    MPI_DATA = "mpi_data"
    # tests / generic
    TEST = "test"


class Message:
    """A single protocol message.

    ``size`` is the payload size in bytes as it would appear on the wire
    (headers are added by the network model).  ``msg_id``, the message's
    number in its run's creation order (from 0; one counter per cluster), is
    used for ack matching and duplicate suppression; ``req_id`` links a
    reply to its request.  A plain slots class rather than a dataclass: the
    generated ``__init__`` would cost a ``__post_init__`` call per message.
    """

    __slots__ = (
        "src", "dst", "kind", "payload", "size",
        "need_ack", "req_id", "is_reply", "msg_id", "attempt",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size: int,
        msg_id: int,
        need_ack: bool = False,
        req_id: int | None = None,
        is_reply: bool = False,
    ) -> None:
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        if src == dst:
            raise ValueError("loopback messages must not reach the network")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size = size
        self.need_ack = need_ack
        self.req_id = req_id
        self.is_reply = is_reply
        self.msg_id = msg_id
        self.attempt = 0

    def wire_copy(self) -> "Message":
        """Shallow copy representing one transmission attempt on the wire."""
        clone = Message.__new__(Message)
        clone.src = self.src
        clone.dst = self.dst
        clone.kind = self.kind
        clone.payload = self.payload
        clone.size = self.size
        clone.need_ack = self.need_ack
        clone.req_id = self.req_id
        clone.is_reply = self.is_reply
        clone.msg_id = self.msg_id
        clone.attempt = self.attempt
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind.name} {self.src}->{self.dst} id={self.msg_id} "
            f"size={self.size} attempt={self.attempt})"
        )
