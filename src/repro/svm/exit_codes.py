"""SVM exit codes (AMD APM Vol. 2, Appendix C)."""

from __future__ import annotations

from enum import IntEnum


class SvmExitCode(IntEnum):
    """VMEXIT codes written to VMCB.exit_code."""

    CR0_READ = 0x000
    CR3_READ = 0x003
    CR4_READ = 0x004
    CR0_WRITE = 0x010
    CR3_WRITE = 0x013
    CR4_WRITE = 0x014
    DR0_READ = 0x020
    DR7_READ = 0x027
    DR0_WRITE = 0x030
    DR7_WRITE = 0x037
    EXCP_BASE = 0x040        # +vector
    INTR = 0x060
    NMI = 0x061
    SMI = 0x062
    INIT = 0x063
    VINTR = 0x064
    CR0_SEL_WRITE = 0x065
    IDTR_READ = 0x066
    GDTR_READ = 0x067
    LDTR_READ = 0x068
    TR_READ = 0x069
    RDTSC = 0x06E
    RDPMC = 0x06F
    PUSHF = 0x070
    POPF = 0x071
    CPUID = 0x072
    RSM = 0x073
    IRET = 0x074
    SWINT = 0x075
    INVD = 0x076
    PAUSE = 0x077
    HLT = 0x078
    INVLPG = 0x079
    INVLPGA = 0x07A
    IOIO = 0x07B
    MSR = 0x07C
    TASK_SWITCH = 0x07D
    FERR_FREEZE = 0x07E
    SHUTDOWN = 0x07F
    VMRUN = 0x080
    VMMCALL = 0x081
    VMLOAD = 0x082
    VMSAVE = 0x083
    STGI = 0x084
    CLGI = 0x085
    SKINIT = 0x086
    RDTSCP = 0x087
    ICEBP = 0x088
    WBINVD = 0x089
    MONITOR = 0x08A
    MWAIT = 0x08B
    MWAIT_CONDITIONAL = 0x08C
    XSETBV = 0x08D
    RDPRU = 0x08E
    EFER_WRITE_TRAP = 0x08F
    NPF = 0x400              # nested page fault
    AVIC_INCOMPLETE_IPI = 0x401
    AVIC_NOACCEL = 0x402     # the exit Xen bug #5 wrongly produces
    VMGEXIT = 0x403

    #: VMRUN consistency-check failure (sign-extended -1 in hardware).
    INVALID = 0xFFFF_FFFF_FFFF_FFFF


#: Exits produced by SVM instructions in the guest — routed to nested
#: SVM emulation by the L0 dispatcher.
SVM_INSTRUCTION_EXITS = frozenset({
    SvmExitCode.VMRUN, SvmExitCode.VMLOAD, SvmExitCode.VMSAVE,
    SvmExitCode.STGI, SvmExitCode.CLGI, SvmExitCode.INVLPGA,
    SvmExitCode.SKINIT, SvmExitCode.VMMCALL,
})


class SvmExitCodes:
    """The members of :class:`SvmExitCode` as plain class attributes.

    For hot code: on Python 3.11 every ``SvmExitCode.X`` lookup goes
    through ``EnumType.__getattr__`` (about 190 ns), a plain class
    attribute costs about 20 ns. ``SvmExitCodes.X is SvmExitCode.X``
    for every member, so code that imports this under the enum's name
    (``from repro.svm.exit_codes import SvmExitCodes as SvmExitCode``)
    compares, formats and hashes exactly as before.
    """


for _name, _member in SvmExitCode.__members__.items():
    setattr(SvmExitCodes, _name, _member)
del _name, _member
