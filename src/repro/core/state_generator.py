"""VM state generation: raw input → rounded state → boundary injection.

The paper's recipe (§4.3, §5.6): interpret raw fuzzing input as VMCS
content, round it to the valid region with the Bochs-derived validator
(corrected at runtime by the hardware oracle), then selectively flip a
handful of bits — "one to three VMCS fields per fuzzing iteration,
mutating one to eight bits per field" — to land *near* the valid/invalid
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpuid import Vendor
from repro.fuzzer.input import FuzzInput, InputCursor
from repro.svm import fields as SF
from repro.svm.vmcb import Vmcb
from repro.validator.golden import golden_vmcb, golden_vmcs
from repro.validator.oracle import HardwareOracle
from repro.validator.rounding import VmStateValidator
from repro.validator.svm_validator import SvmHardwareOracle, VmcbValidator
from repro.vmx import fields as F
from repro.vmx.fields import FieldGroup
from repro.vmx.msr_caps import VmxCapabilities
from repro.vmx.vmcs import Vmcs

#: Per-iteration mutation budget from the paper.
MAX_FIELDS_PER_ITERATION = 3
MAX_BITS_PER_FIELD = 8

#: Security-critical VMCS fields that bit selection favours (control
#: fields and access-rights registers, per §4.3).
_PRIORITY_FIELDS: tuple[int, ...] = tuple(
    spec.encoding for spec in F.ALL_FIELDS
    if spec.group is FieldGroup.CONTROL or spec.name.endswith("_ar_bytes")
    or spec.name in ("guest_cr0", "guest_cr4", "guest_ia32_efer",
                     "guest_activity_state", "guest_interruptibility_info")
)
_WRITABLE_ENCODINGS: tuple[int, ...] = tuple(
    spec.encoding for spec in F.WRITABLE_FIELDS
)

_VMCB_PRIORITY: tuple[str, ...] = tuple(
    spec.name for spec in SF.ALL_FIELDS
    if spec.area is SF.VmcbArea.CONTROL
    or spec.name in ("efer", "cr0", "cr4", "cs_attrib", "ss_attrib")
)
_VMCB_ALL: tuple[str, ...] = tuple(spec.name for spec in SF.ALL_FIELDS)

#: Field widths in bits and field names, aligned index for index with
#: the pick tables above, so boundary injection indexes a tuple where it
#: would look a spec up per field.
_PRIORITY_BITS: tuple[int, ...] = tuple(
    F.SPEC_BY_ENCODING[e].bits for e in _PRIORITY_FIELDS)
_PRIORITY_NAMES: tuple[str, ...] = tuple(
    F.SPEC_BY_ENCODING[e].name for e in _PRIORITY_FIELDS)
_WRITABLE_BITS: tuple[int, ...] = tuple(
    F.SPEC_BY_ENCODING[e].bits for e in _WRITABLE_ENCODINGS)
_WRITABLE_NAMES: tuple[str, ...] = tuple(
    F.SPEC_BY_ENCODING[e].name for e in _WRITABLE_ENCODINGS)
_VMCB_PRIORITY_BITS: tuple[int, ...] = tuple(
    SF.SPEC_BY_NAME[n].bits for n in _VMCB_PRIORITY)
_VMCB_ALL_BITS: tuple[int, ...] = tuple(
    SF.SPEC_BY_NAME[n].bits for n in _VMCB_ALL)


def _pick_bit_count(cursor: InputCursor) -> int:
    """How many bits to flip in one field: 1..MAX, geometrically biased.

    Deeply corrupted fields are rejected wholesale by the first
    consistency check they meet; single- and double-bit flips are the
    ones that land *near* the boundary (paper §5.6), so the distribution
    leans heavily toward them while still reaching eight.
    """
    nbits = 1
    while nbits < MAX_BITS_PER_FIELD and cursor.chance(1, 2):
        nbits += 1
    return nbits


def _pick_bit(cursor: InputCursor, width: int) -> int:
    """Bit-position selection, constrained to the field width (§4.3).

    Biased toward the low 16 bits, where the architecturally meaningful
    bits of control registers, control fields, and access-rights words
    concentrate — flips there land on the validity boundary far more
    often than flips in high address bits.
    """
    if width > 16 and cursor.chance(1, 2):
        return cursor.below(16)
    return cursor.below(width)


@dataclass
class GeneratedState:
    """One generated VM state plus its provenance."""

    rounding_corrections: int
    mutated_fields: list[str]
    flipped_bits: int
    oracle_entered: bool | None = None


@dataclass
class VmStateGenerator:
    """The Intel-side state generator (validator + oracle + injection)."""

    caps: VmxCapabilities
    use_validator: bool = True
    validator: VmStateValidator = field(init=False)
    oracle: HardwareOracle = field(init=False)

    def __post_init__(self) -> None:
        self.validator = VmStateValidator(self.caps)
        self.oracle = HardwareOracle(self.caps)

    def generate(self, fuzz_input: FuzzInput) -> tuple[Vmcs, GeneratedState]:
        """Produce the VMCS12 image for one fuzzing iteration."""
        if self.use_validator:
            vmcs = Vmcs.deserialize(fuzz_input.vm_state_bytes(),
                                    self.caps.vmcs_revision_id)
            report = self.validator.round_to_valid(vmcs)
            oracle_report = self.oracle.verify(vmcs)
            meta = GeneratedState(report.total, [], 0,
                                  oracle_entered=oracle_report.entered)
        else:
            # Ablation (§5.3): no boundary search — a golden template
            # with a few raw-input field overlays, Syzkaller-style.
            vmcs = golden_vmcs(self.caps)
            cursor = InputCursor(fuzz_input.vm_state_bytes())
            for _ in range(cursor.below(4)):
                encoding = _WRITABLE_ENCODINGS[cursor.below(len(_WRITABLE_ENCODINGS))]
                vmcs.write(encoding, cursor.u64())
            meta = GeneratedState(0, [], 0)

        self._inject_boundary_bits(vmcs, fuzz_input.mutation_cursor(), meta)
        return vmcs, meta

    def _inject_boundary_bits(self, vmcs: Vmcs, cursor: InputCursor,
                              meta: GeneratedState) -> None:
        """§4.3 mutation: field selection → bit selection → flip → repeat."""
        nfields = 1 + cursor.below(MAX_FIELDS_PER_ITERATION)
        for _ in range(nfields):
            if cursor.chance(3, 4):
                index = cursor.below(len(_PRIORITY_FIELDS))
                encoding = _PRIORITY_FIELDS[index]
                width = _PRIORITY_BITS[index]
                name = _PRIORITY_NAMES[index]
            else:
                index = cursor.below(len(_WRITABLE_ENCODINGS))
                encoding = _WRITABLE_ENCODINGS[index]
                width = _WRITABLE_BITS[index]
                name = _WRITABLE_NAMES[index]
            nbits = _pick_bit_count(cursor)
            value = vmcs.read(encoding)
            for _ in range(nbits):
                value ^= 1 << _pick_bit(cursor, width)
            vmcs.write(encoding, value)
            meta.mutated_fields.append(name)
            meta.flipped_bits += nbits


@dataclass
class VmcbStateGenerator:
    """The AMD-side state generator."""

    use_validator: bool = True
    validator: VmcbValidator = field(default_factory=VmcbValidator)
    oracle: SvmHardwareOracle = field(default_factory=SvmHardwareOracle)

    def generate(self, fuzz_input: FuzzInput) -> tuple[Vmcb, GeneratedState]:
        """Produce the VMCB12 image for one fuzzing iteration."""
        if self.use_validator:
            # The 1,000-byte VM-state region holds a whole VMCB image;
            # deserialize reads its first LAYOUT_BYTES.
            vmcb = Vmcb.deserialize(fuzz_input.vm_state_bytes())
            corrections = self.validator.round_to_valid(vmcb)
            entered = self.oracle.verify(vmcb)
            meta = GeneratedState(len(corrections), [], 0, oracle_entered=entered)
        else:
            vmcb = golden_vmcb()
            cursor = InputCursor(fuzz_input.vm_state_bytes())
            for _ in range(cursor.below(4)):
                name = _VMCB_ALL[cursor.below(len(_VMCB_ALL))]
                vmcb.write(name, cursor.u64())
            meta = GeneratedState(0, [], 0)

        self._inject_boundary_bits(vmcb, fuzz_input.mutation_cursor(), meta)
        return vmcb, meta

    def _inject_boundary_bits(self, vmcb: Vmcb, cursor: InputCursor,
                              meta: GeneratedState) -> None:
        nfields = 1 + cursor.below(MAX_FIELDS_PER_ITERATION)
        for _ in range(nfields):
            if cursor.chance(3, 4):
                index = cursor.below(len(_VMCB_PRIORITY))
                name = _VMCB_PRIORITY[index]
                width = _VMCB_PRIORITY_BITS[index]
            else:
                index = cursor.below(len(_VMCB_ALL))
                name = _VMCB_ALL[index]
                width = _VMCB_ALL_BITS[index]
            nbits = _pick_bit_count(cursor)
            value = vmcb.read(name)
            for _ in range(nbits):
                value ^= 1 << _pick_bit(cursor, width)
            vmcb.write(name, value)
            meta.mutated_fields.append(name)
            meta.flipped_bits += nbits


def state_generator_for(vendor: Vendor, caps: VmxCapabilities, *,
                        use_validator: bool = True):
    """Factory: the right generator for *vendor*."""
    if vendor is Vendor.INTEL:
        return VmStateGenerator(caps, use_validator=use_validator)
    return VmcbStateGenerator(use_validator=use_validator)
