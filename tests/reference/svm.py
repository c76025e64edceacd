"""The VMCB image, bulk copy, diff and vmrun checks as they were before
the kvm/amd case path read field tables through getters.

* :func:`deserialize` decodes one field at a time with
  ``int.from_bytes`` and masks each value to its width;
* :func:`copy_fields` finds the changed keys with a generator
  expression and ``dict.fromkeys`` before writing them;
* :func:`diff` compares the two field tables spec by spec;
* :func:`check_vmcb` reads every field through ``Vmcb.read`` and asks
  ``Vmcb.nested_paging`` for the NP bit.

``tests/svm/test_getter_equivalence.py`` pins ``Vmcb.deserialize``,
``Vmcb.copy_fields``, ``Vmcb.diff`` and
``repro.cpu.svm_cpu.check_vmcb`` equal to them.
"""

from __future__ import annotations

from repro.arch.registers import Cr0, Cr4, Efer
from repro.cpu.svm_cpu import SvmViolation
from repro.svm import fields as SF
from repro.svm.vmcb import _LOG_KEEP, _LOG_MAX, Vmcb

_FIELD_MASK = {s.name: (1 << s.bits) - 1 for s in SF.ALL_FIELDS}
_FIELD_NBYTES = tuple((s.name, (s.bits + 7) // 8) for s in SF.ALL_FIELDS)


def deserialize(raw) -> Vmcb:
    """Unpack a serialised layout field by field; short input raises
    ValueError."""
    if len(raw) < SF.LAYOUT_BYTES:
        raise ValueError(
            f"need {SF.LAYOUT_BYTES} bytes for a VMCB image, got {len(raw)}"
        )
    vmcb = Vmcb()
    offset = 0
    for name, nbytes in _FIELD_NBYTES:
        value = int.from_bytes(raw[offset:offset + nbytes], "little")
        vmcb._values[name] = value & _FIELD_MASK[name]
        offset += nbytes
    return vmcb


def copy_fields(dst: Vmcb, src: Vmcb, keys) -> None:
    """``dst.copy_fields(src, keys)`` through a generator expression."""
    values = dst._values
    srcvals = src._values
    try:
        changed = list(dict.fromkeys(
            k for k in keys if values[k] != srcvals[k]))
    except KeyError as exc:
        raise KeyError(f"unknown VMCB field {exc.args[0]!r}") from None
    if changed:
        values.update(zip(changed, map(srcvals.__getitem__, changed)))
        dst._gen += len(changed)
        log = dst._log
        log += changed
        if len(log) >= _LOG_MAX:
            keep = _LOG_KEEP + (len(log) - _LOG_MAX) % (_LOG_MAX - _LOG_KEEP)
            del log[:len(log) - keep]
            dst._log_base = dst._gen - keep


def diff(a: Vmcb, b: Vmcb) -> list[tuple[SF.VmcbField, int, int]]:
    """Fields whose values differ, spec by spec."""
    return [
        (spec, a._values[spec.name], b._values[spec.name])
        for spec in SF.ALL_FIELDS
        if a._values[spec.name] != b._values[spec.name]
    ]


def check_vmcb(vmcb: Vmcb) -> list[SvmViolation]:
    """APM 15.5.1 consistency checks through ``Vmcb.read``."""
    v: list[SvmViolation] = []

    def bad(name: str, reason: str) -> None:
        v.append(SvmViolation(name, reason))

    efer = vmcb.read(SF.EFER)
    cr0 = vmcb.read(SF.CR0)
    cr4 = vmcb.read(SF.CR4)

    if not efer & Efer.SVME:
        bad("efer", "EFER.SVME must be set")
    if efer & Efer.RESERVED:
        bad("efer", "reserved bits set")
    if cr0 & Cr0.CD == 0 and cr0 & Cr0.NW:
        bad("cr0", "CR0.CD=0 with CR0.NW=1")
    if cr0 >> 32:
        bad("cr0", "bits 63:32 must be zero")
    if cr4 & Cr4.RESERVED:
        bad("cr4", "reserved bits set")

    if efer & Efer.LME and cr0 & Cr0.PG:
        if not cr4 & Cr4.PAE:
            bad("cr4", "long mode with paging requires CR4.PAE")
        if not cr0 & Cr0.PE:
            bad("cr0", "long mode requires protected mode")
        cs_attrib = vmcb.read(SF.SPEC_BY_NAME["cs_attrib"].name)
        cs_long = bool(cs_attrib & (1 << 9))   # attrib bit 9 = L
        cs_db = bool(cs_attrib & (1 << 10))    # attrib bit 10 = D/B
        if cs_long and cs_db:
            bad("cs_attrib", "CS.L and CS.D may not both be set in long mode")

    dr7 = vmcb.read(SF.DR7)
    if dr7 >> 32:
        bad("dr7", "bits 63:32 must be zero")
    dr6 = vmcb.read(SF.DR6)
    if dr6 >> 32:
        bad("dr6", "bits 63:32 must be zero")

    if not vmcb.read(SF.INTERCEPT_MISC2) & SF.Misc2Intercept.VMRUN:
        bad("intercept_misc2", "VMRUN intercept must be set")

    asid = vmcb.read(SF.GUEST_ASID)
    if asid == 0:
        bad("guest_asid", "ASID 0 is reserved for the host")

    if vmcb.nested_paging:
        ncr3 = vmcb.read(SF.N_CR3)
        if ncr3 & 0xFFF or ncr3 >> 52:
            bad("n_cr3", f"invalid nested CR3 {ncr3:#x}")

    np = vmcb.read(SF.NP_CONTROL)
    if np & ~(SF.NpControl.NP_ENABLE | SF.NpControl.SEV_ENABLE
              | SF.NpControl.SEV_ES_ENABLE):
        bad("np_control", "reserved bits set")

    return v
