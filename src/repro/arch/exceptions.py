"""x86 fault/event model.

VM entries can inject events; VM exits report them; nested hypervisors
must translate both across VMCS levels. We model the architectural event
vectors and the interruption-information field format shared by the
VM-entry interruption info and the VM-exit/IDT-vectoring info fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.arch.bits import bit


class Vector(IntEnum):
    """Architectural exception vectors (SDM Vol. 3, 6.15)."""

    DE = 0    # divide error
    DB = 1    # debug
    NMI = 2
    BP = 3    # breakpoint
    OF = 4    # overflow
    BR = 5    # bound range
    UD = 6    # invalid opcode
    NM = 7    # device not available
    DF = 8    # double fault
    TS = 10   # invalid TSS
    NP = 11   # segment not present
    SS = 12   # stack fault
    GP = 13   # general protection
    PF = 14   # page fault
    MF = 16   # x87 FP
    AC = 17   # alignment check
    MC = 18   # machine check
    XM = 19   # SIMD FP
    VE = 20   # virtualization exception


class EventType(IntEnum):
    """Interruption-info "type" field values (SDM 24.8.3)."""

    EXTERNAL_INTERRUPT = 0
    NMI = 2
    HARDWARE_EXCEPTION = 3
    SOFTWARE_INTERRUPT = 4
    PRIVILEGED_SOFTWARE_EXCEPTION = 5
    SOFTWARE_EXCEPTION = 6
    OTHER_EVENT = 7


#: Vectors that push an error code when delivered as hardware exceptions.
ERROR_CODE_VECTORS = frozenset({
    Vector.DF, Vector.TS, Vector.NP, Vector.SS, Vector.GP, Vector.PF, Vector.AC,
})

#: The decoded event type of each 3-bit type encoding. The reserved
#: encoding (1) stays a plain int so that consistency checking can
#: reject it.
_EVENT_TYPES: tuple["EventType | int", ...] = tuple(
    {int(t): t for t in EventType}.get(raw, raw) for raw in range(8))

#: Bit *v* set for every vector *v* in ``ERROR_CODE_VECTORS``.
_ERROR_CODE_VECTOR_BITS = sum(1 << v for v in ERROR_CODE_VECTORS)


@dataclass(frozen=True)
class InterruptionInfo:
    """Decoded VM-entry/exit interruption-information field."""

    vector: int
    event_type: "EventType | int"
    deliver_error_code: bool
    valid: bool

    VALID_BIT = bit(31)
    ERROR_CODE_BIT = bit(11)

    @classmethod
    def decode(cls, raw: int) -> "InterruptionInfo":
        """Decode the 32-bit interruption-information format.

        The reserved type encoding (1) is preserved as a plain int so
        that consistency checking can reject it.
        """
        return cls(
            vector=raw & 0xFF,
            event_type=_EVENT_TYPES[(raw >> 8) & 7],
            deliver_error_code=bool(raw & cls.ERROR_CODE_BIT),
            valid=bool(raw & cls.VALID_BIT),
        )

    def encode(self) -> int:
        """Encode back to the architectural 32-bit format."""
        raw = self.vector | (int(self.event_type) << 8)
        if self.deliver_error_code:
            raw |= self.ERROR_CODE_BIT
        if self.valid:
            raw |= self.VALID_BIT
        return raw

    def consistent(self) -> bool:
        """SDM 26.2.1.3 VM-entry event-injection consistency rules."""
        return injection_consistent(self.encode())


def injection_consistent(raw: int) -> bool:
    """SDM 26.2.1.3 event-injection consistency of a raw 32-bit word.

    Equals ``InterruptionInfo.decode(raw).consistent()`` without
    building the decoded object.
    """
    if not raw & InterruptionInfo.VALID_BIT:
        return True
    event_type = (raw >> 8) & 7
    vector = raw & 0xFF
    if event_type == 1:
        return False  # reserved type encoding
    if event_type == EventType.NMI and vector != Vector.NMI:
        return False
    if event_type == EventType.HARDWARE_EXCEPTION and vector > 31:
        return False
    if raw & InterruptionInfo.ERROR_CODE_BIT:
        if event_type != EventType.HARDWARE_EXCEPTION:
            return False
        if not (_ERROR_CODE_VECTOR_BITS >> vector) & 1:
            return False
    return True


class GuestFault(Exception):
    """An exception raised *inside* a simulated guest context.

    Carries the architectural vector so L0/L1 emulation can decide
    whether to reflect, inject, or escalate it.
    """

    def __init__(self, vector: Vector, error_code: int | None = None,
                 message: str = "") -> None:
        self.vector = vector
        self.error_code = error_code
        super().__init__(message or f"guest fault #{vector.name}")


class TripleFault(Exception):
    """Unrecoverable fault cascade — shuts down the faulting VM level."""


class HostCrash(Exception):
    """The simulated L0 hypervisor (or whole host) crashed or hung.

    Raised by seeded vulnerabilities whose real-world effect is a host
    panic or hang (paper Table 6, "Host Crash"); caught by the agent's
    watchdog, which restarts the hypervisor (paper §3.2).
    """

    def __init__(self, message: str, *, hang: bool = False) -> None:
        self.hang = hang
        super().__init__(message)
