"""Page-table and EPT pointer models.

The nested-MMU code in the simulated hypervisors needs just enough paging
machinery to (a) validate EPT pointers / nested CR3 values, (b) perform
guest page walks in the modes the seeded bugs exercise, and (c) exhibit
the PAE-PDPTE array indexing that CVE-2023-30456 corrupts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.bits import extract, is_aligned

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Maximum guest-physical address width we model (bits).
MAX_PHYSADDR_WIDTH = 46
PHYSADDR_MASK = (1 << MAX_PHYSADDR_WIDTH) - 1


class EptMemType:
    """EPT paging-structure memory types encoded in EPTP bits 2:0."""

    UNCACHEABLE = 0
    WRITE_BACK = 6
    VALID = frozenset({UNCACHEABLE, WRITE_BACK})


@dataclass(frozen=True)
class EptPointer:
    """Decoded EPTP (SDM 24.6.11)."""

    raw: int

    @property
    def memory_type(self) -> int:
        """EPT paging-structure memory type (EPTP bits 2:0)."""
        return extract(self.raw, 0, 2)

    @property
    def walk_length(self) -> int:
        """Encoded as (levels - 1) in bits 5:3."""
        return extract(self.raw, 3, 5) + 1

    @property
    def accessed_dirty(self) -> bool:
        """Accessed/dirty-flag enable (EPTP bit 6)."""
        return bool(extract(self.raw, 6, 6))

    @property
    def pml4_address(self) -> int:
        """Physical address of the EPT PML4 table."""
        return self.raw & ~((1 << PAGE_SHIFT) - 1) & PHYSADDR_MASK

    def valid(self, *, ept_5level: bool = False) -> bool:
        """Architectural EPTP validity (SDM 26.2.1.1)."""
        return eptp_valid(self.raw, ept_5level=ept_5level)


def eptp_valid(raw: int, *, ept_5level: bool = False) -> bool:
    """Architectural EPTP validity (SDM 26.2.1.1) of a raw EPTP word.

    The memory type (bits 2:0) must be UC or WB and the walk length
    (bits 5:3, levels - 1) 4 levels, or 5 with 5-level EPT. Reserved
    bits 11:7 (bit 7 when no supervisor shadow stacks) and bits above
    the physical address width must be zero.
    """
    walk = (raw >> 3) & 7
    return ((raw & 7) in EptMemType.VALID
            and (walk == 3 or (ept_5level and walk == 4))
            and not raw & 0xF80
            and not raw >> MAX_PHYSADDR_WIDTH)


def cr3_valid(cr3: int, *, long_mode: bool) -> bool:
    """Check a CR3 value against the physical-address-width rule.

    In long mode CR3 bits above MAXPHYADDR must be zero; in legacy PAE
    mode only the low 32 bits are used, so the value is trivially valid.
    """
    if not long_mode:
        return True
    return not cr3 >> MAX_PHYSADDR_WIDTH


@dataclass
class PageTableMemory:
    """Tiny sparse guest-physical memory holding paging structures.

    Maps page-aligned gpa -> 512-entry tables (lists of ints). Entries
    default to zero (not-present).
    """

    tables: dict[int, list[int]] = field(default_factory=dict)

    def table_at(self, gpa: int) -> list[int]:
        """Return (creating if needed) the table page at *gpa*."""
        if not is_aligned(gpa, PAGE_SIZE):
            raise ValueError(f"table gpa {gpa:#x} not page-aligned")
        return self.tables.setdefault(gpa, [0] * 512)

    def write_entry(self, gpa: int, index: int, value: int) -> None:
        """Write paging-structure entry *index* of the table at *gpa*."""
        self.table_at(gpa)[index & 511] = value & ((1 << 64) - 1)

    def read_entry(self, gpa: int, index: int) -> int:
        """Read paging-structure entry *index* of the table at *gpa*."""
        return self.table_at(gpa)[index & 511]


class PdpteCache:
    """The four PAE page-directory-pointer-table entry registers.

    In PAE paging (CR4.PAE=1, EFER.LME=0) the CPU caches exactly four
    PDPTEs. KVM mirrors this with a fixed ``pdptrs[4]`` array; the missing
    IA-32e/CR4.PAE consistency check of CVE-2023-30456 lets a page walk
    index this array out of bounds.
    """

    SLOTS = 4

    def __init__(self) -> None:
        self._entries = [0] * self.SLOTS
        self.oob_write: tuple[int, int] | None = None

    def load(self, index: int, value: int) -> None:
        """Store a PDPTE; records (index, value) on out-of-bounds access.

        A real C implementation would corrupt adjacent memory here; we
        record the event so the UBSAN model can report it as an
        array-index-out-of-bounds, matching the paper's detection method.
        """
        if 0 <= index < self.SLOTS:
            self._entries[index] = value & ((1 << 64) - 1)
        else:
            self.oob_write = (index, value)

    def entry(self, index: int) -> int:
        """Read a cached PDPTE (bounds-checked)."""
        if not 0 <= index < self.SLOTS:
            raise IndexError(f"PDPTE index {index} out of range")
        return self._entries[index]


def pae_pdpte_index(linear_address: int, *, long_mode_guest: bool) -> int:
    """Compute the PDPTE index a page walk uses for *linear_address*.

    In legacy PAE mode the index is bits 31:30 (always 0..3). If the walk
    code wrongly believes the guest is in 4-level mode while using the
    PAE PDPTE cache — the CVE-2023-30456 confusion — it extracts bits
    38:30 instead, which can exceed the 4-entry array.
    """
    if long_mode_guest:
        return extract(linear_address, 30, 38)
    return extract(linear_address, 30, 31)
