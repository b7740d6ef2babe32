"""Message representation.

Payloads are plain Python objects (dicts, dataclasses, numpy arrays); the
*accounted* size is carried explicitly in ``size`` because the simulator does
not serialise anything — protocol code computes the number of bytes the real
system would put on the wire (diff bytes, write-notice records, etc.).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Message", "MessageKind"]


class MessageKind(str, Enum):
    """Protocol-level message kinds, shared by all DSM protocols and MPI.

    Using one enum keeps the dispatcher simple and lets the statistics layer
    break message counts down uniformly.
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


_msg_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A single protocol message.

    ``size`` is the payload size in bytes as it would appear on the wire
    (headers are added by the network model).  ``msg_id`` is globally unique
    and used for ack matching and duplicate suppression; ``req_id`` links a
    reply to its request.
    """

    src: int
    dst: int
    kind: MessageKind
    payload: Any
    size: int
    need_ack: bool = False
    req_id: int | None = None
    is_reply: bool = False
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")
        if self.src == self.dst:
            raise ValueError("loopback messages must not reach the network")

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
