"""Shared infrastructure for the simulated L0 hypervisors.

Each hypervisor model (KVM, Xen, VirtualBox) exposes the same guest-facing
surface the real systems expose to an L1 hypervisor: execution of
hardware-assisted virtualization instructions plus the ordinary
exit-triggering instructions of Table 1. Anomalies surface through the
same channels the paper's agent monitors — sanitizer events (KASAN/UBSAN
analogues), assertion failures, kernel-log messages, and host crashes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple

from repro.arch.cpuid import Vendor


class SanitizerKind(Enum):
    """Detection channels from the paper's Table 6."""

    UBSAN = "UBSAN"
    KASAN = "KASAN"
    ASSERTION = "Assertion"
    WARN = "Warning"


@dataclass(frozen=True)
class SanitizerEvent:
    """One sanitizer/assertion report from inside the hypervisor."""

    kind: SanitizerKind
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind.value} at {self.location}: {self.message}"


class VmCrash(Exception):
    """The guest VM terminated unexpectedly (paper's "VM Crash" channel).

    Distinct from :class:`repro.arch.exceptions.HostCrash`: the host
    survives, but the fuzz-harness VM is gone and the agent records a
    potential vulnerability.
    """


@dataclass
class VcpuConfig:
    """A resolved vCPU configuration (output of the vCPU configurator)."""

    vendor: Vendor
    features: dict[str, bool]

    def enabled(self, name: str) -> bool:
        """Whether feature *name* is on (missing names default to off)."""
        return self.features.get(name, False)

    @classmethod
    def default(cls, vendor: Vendor) -> "VcpuConfig":
        """The stock configuration for *vendor*."""
        from repro.arch.cpuid import default_feature_map

        return cls(vendor, default_feature_map(vendor))


class KernelLog:
    """The hypervisor's diagnostic log, monitored by the agent.

    Mirrors dmesg/xl-dmesg: sanitizer splats and warnings are appended as
    text so the agent's log-pattern monitors (paper §4.5) have something
    to grep.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def write(self, message: str) -> None:
        """Append one line."""
        self.lines.append(message)

    def grep(self, needle: str) -> list[str]:
        """Lines containing *needle*."""
        return [line for line in self.lines if needle in line]

    def clear(self) -> None:
        """Drop all lines."""
        self.lines = []


class L0Hypervisor(ABC):
    """Base class for the simulated host hypervisors (the fuzz targets)."""

    #: Human-readable name ("kvm", "xen", "virtualbox").
    name: str = "l0"

    def __init__(self, config: VcpuConfig) -> None:
        self.config = config
        self.log = KernelLog()
        self.sanitizer_events: list[SanitizerEvent] = []
        self.crashed = False

    # --- anomaly channels ------------------------------------------------------

    def report_sanitizer(self, kind: SanitizerKind, location: str,
                         message: str) -> None:
        """Record a sanitizer event and mirror it to the kernel log."""
        event = SanitizerEvent(kind, location, message)
        self.sanitizer_events.append(event)
        self.log.write(str(event))

    def bug_assert(self, condition: bool, location: str, message: str) -> None:
        """A kernel ASSERT()/BUG_ON(): failing records an assertion event."""
        if not condition:
            self.report_sanitizer(SanitizerKind.ASSERTION, location, message)

    # --- guest-facing surface ------------------------------------------------------

    @abstractmethod
    def create_vcpu(self) -> Any:
        """Create one virtual CPU for the (L1) guest."""

    @abstractmethod
    def execute(self, vcpu: Any, instruction: "GuestInstruction") -> "ExecResult":
        """Execute one guest instruction, emulating any intercept."""

    def current_vmcs12(self, vcpu: Any) -> Any:
        """The VMCS12 L1 made current with vmptrld, or None.

        The VMX models override this. The harness's vmwrite storm
        copies its replayed writes into it after a successful first
        vmwrite, and raises ``RuntimeError`` if it is None then.
        """
        return None

    def reset(self) -> None:
        """Watchdog restart: clear crash state and logs (paper §3.2)."""
        self.log.clear()
        self.sanitizer_events = []
        self.crashed = False


class InstructionClass(Enum):
    """Table-1 instruction classes."""

    VMX = "vmx"                  # vmxon, vmclear, vmlaunch, ... / vmrun, ...
    PRIVILEGED_REGISTER = "reg"  # mov cr*, mov dr*
    IO_MSR = "io_msr"            # in/out, rdmsr, wrmsr
    MISC = "misc"                # cpuid, hlt, rdtsc, pause, rdrand, ...
    MEMORY = "memory"            # direct guest-memory writes (VMCB/MSR areas)


class _InstructionFields(NamedTuple):
    mnemonic: str
    operands: dict[str, int]
    level: int


_new_tuple = tuple.__new__


class GuestInstruction(_InstructionFields):
    """One instruction the fuzz-harness VM executes in L1 or L2 context.

    ``mnemonic`` selects the handler; ``operands`` carries whatever that
    instruction needs (addresses, field encodings, register values).
    ``level`` is 1 for the L1 hypervisor context and 2 for the L2 guest.

    A named tuple: immutable, compared by value, with a dataclass-style
    repr, and about half the construction cost of a frozen dataclass
    (the harness builds about 35 per case). ``operands`` defaults to a
    fresh empty dict.
    """

    __slots__ = ()

    def __new__(cls, mnemonic: str, operands: dict[str, int] | None = None,
                level: int = 1) -> "GuestInstruction":
        return _new_tuple(cls, (mnemonic, {} if operands is None else operands,
                                level))

    def op(self, name: str, default: int = 0) -> int:
        """Read one operand with a default."""
        return self.operands.get(name, default)

    def __str__(self) -> str:
        ops = ", ".join(f"{k}={v:#x}" for k, v in self.operands.items())
        return f"L{self.level}:{self.mnemonic}({ops})"


_new_object = object.__new__


@dataclass(slots=True)
class ExecResult:
    """Outcome of executing one guest instruction.

    :meth:`success` and :meth:`fault`, which build nearly every result,
    fill the slots directly instead of calling ``__init__``.
    """

    ok: bool
    detail: str = ""
    value: int | None = None
    #: The guest level that is now executing (switches on nested entry/exit).
    level: int = 1
    exit_reason: int | None = None

    @classmethod
    def success(cls, detail: str = "", *, value: int | None = None,
                level: int = 1, exit_reason: int | None = None) -> "ExecResult":
        """Construct a successful result."""
        result = _new_object(cls)
        result.ok = True
        result.detail = detail
        result.value = value
        result.level = level
        result.exit_reason = exit_reason
        return result

    @classmethod
    def fault(cls, detail: str, *, level: int = 1) -> "ExecResult":
        """Construct a faulting (#UD/#GP-style) result."""
        result = _new_object(cls)
        result.ok = False
        result.detail = detail
        result.value = None
        result.level = level
        result.exit_reason = None
        return result
