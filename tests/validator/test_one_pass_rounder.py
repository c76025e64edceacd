"""The one-pass rounder equals the three group routines it replaced.

``VmStateValidator.round_to_valid`` rounds controls, host state and
guest state on one private copy of the values and commits once;
tests/reference/group_rounder.py keeps the routines that rounded each
group on a copy of its own and committed it with ``Vmcs.write_many``.
On raw, golden and journal-churned states, under the default
capabilities and the L1 capabilities a kvm, xen or vbox campaign rounds
with, both must report the same corrections in every group (field,
before, after and rule, in order) and leave the same values, generation
and journal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.arch.bits import sign_extend
from repro.validator.base import (
    Rounder,
    canonicalize,
    corrections,
)
from repro.validator.golden import golden_vmcs
from repro.validator.rounding import VmStateValidator
from repro.vmx import fields as F
from repro.vmx.vmcs import _LOG_KEEP, _LOG_MAX, Vmcs
from tests.reference import group_rounder
from tests.validator.test_rounding import _l1_caps

HYPERVISORS = ("default", "kvm", "xen", "vbox")

raw_vmcs = st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES)
feature_bits = st.integers(0, (1 << 64) - 1)
#: Journal churn before rounding: none, a little, or enough that the
#: rounding's own journal entries cross the truncation point.
churn = st.one_of(st.integers(0, 3),
                  st.integers(_LOG_MAX - 160, _LOG_MAX - 1),
                  st.integers(2 * _LOG_MAX - _LOG_KEEP - 160,
                              2 * _LOG_MAX - _LOG_KEEP - 1))


def _churned(vmcs: Vmcs, writes: int) -> Vmcs:
    for _ in range(writes):
        vmcs.write(F.GUEST_RSP, vmcs.read(F.GUEST_RSP) ^ 1)
    return vmcs


def _assert_rounds_equal(vmcs: Vmcs, caps, passes: int = 2) -> None:
    """Round *vmcs* with production and a copy with the reference,
    *passes* times; compare everything each pass leaves."""
    validator = VmStateValidator(caps)
    ref = vmcs.copy()
    g0 = vmcs.generation
    for _ in range(passes):
        report = validator.round_to_valid(vmcs)
        controls, host, guest = map(
            corrections, group_rounder.round_to_valid(ref, caps))
        for got, want in ((report.controls, controls), (report.host, host),
                          (report.guest, guest)):
            assert [(c.field, c.before, c.after, c.rule) for c in got] == [
                (c.field, c.before, c.after, c.rule) for c in want]
        assert report.all == controls + host + guest
        assert report.total == len(controls) + len(host) + len(guest)
        assert vmcs.serialize() == ref.serialize()
        assert vmcs._values == ref._values
        assert vmcs.generation == ref.generation
        assert (vmcs._log, vmcs._log_base) == (ref._log, ref._log_base)
        assert vmcs.changes_since(g0) == ref.changes_since(g0)
        assert vmcs.launch_state == ref.launch_state
    assert report.total == 0  # the second pass is a fixed point


class TestOnePassMatchesGroupRoutines:
    @pytest.mark.parametrize("hypervisor", HYPERVISORS)
    @given(raw=raw_vmcs, bits=feature_bits, writes=churn)
    @settings(max_examples=60, deadline=None)
    def test_raw_states(self, hypervisor, raw, bits, writes):
        caps = _l1_caps(hypervisor, bits)
        vmcs = _churned(Vmcs.deserialize(raw, caps.vmcs_revision_id), writes)
        _assert_rounds_equal(vmcs, caps)

    @pytest.mark.parametrize("hypervisor", HYPERVISORS)
    @given(bits=feature_bits, writes=churn)
    @settings(max_examples=15, deadline=None)
    def test_golden_states(self, hypervisor, bits, writes):
        caps = _l1_caps(hypervisor, bits)
        _assert_rounds_equal(_churned(golden_vmcs(caps), writes), caps)

    @pytest.mark.parametrize("hypervisor", HYPERVISORS)
    @given(bits=feature_bits,
           flips=st.lists(st.tuples(st.integers(0, len(F.ALL_FIELDS) - 1),
                                    st.integers(0, 63)), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_golden_states_with_flipped_bits(self, hypervisor, bits, flips):
        """Near-boundary states: the golden state with a few bits flipped,
        as the state generator's boundary injection produces them."""
        caps = _l1_caps(hypervisor, bits)
        vmcs = golden_vmcs(caps)
        for index, bit in flips:
            spec = F.ALL_FIELDS[index]
            vmcs.write(spec.encoding,
                       vmcs.read(spec.encoding) ^ (1 << (bit % spec.bits)))
        _assert_rounds_equal(vmcs, caps)

    @pytest.mark.parametrize("writes", [
        _LOG_MAX - 1 - k for k in (0, 1, 20, 60, 107)] + [
        2 * _LOG_MAX - _LOG_KEEP - 1 - k for k in (0, 40)])
    def test_journal_truncation_inside_the_commit(self, writes):
        """Churn that leaves the journal just short of ``_LOG_MAX``, so
        the one commit crosses the truncation point where the reference
        crosses it inside one of its three bulk writes."""
        caps = _l1_caps("default", 0)
        raw = bytes(range(256)) * (F.LAYOUT_BYTES // 256 + 1)
        vmcs = _churned(Vmcs.deserialize(raw, caps.vmcs_revision_id), writes)
        _assert_rounds_equal(vmcs, caps)


class TestRounderHelpers:
    def test_zero_records_only_changed_fields(self):
        vmcs = Vmcs()
        vmcs.write(F.GUEST_RIP, 5)
        r = Rounder(vmcs)
        r.zero(((F.GUEST_RSP, "a"), (F.GUEST_RIP, "b"), (F.GUEST_RIP, "c")))
        assert r.changes == [(F.GUEST_RIP, 5, 0, "b")]
        assert r.values[F.GUEST_RIP] == 0
        assert vmcs.read(F.GUEST_RIP) == 5  # nothing reaches the VMCS yet

    def test_canonical_sign_extends_bit_47(self):
        vmcs = Vmcs()
        vmcs.write(F.GUEST_FS_BASE, 0x8000_0000_0000)
        vmcs.write(F.GUEST_GS_BASE, 0xFFFF_0000_0000_0000 | 0x1234)
        vmcs.write(F.GUEST_TR_BASE, 0xFFFF_8000_0000_0000)
        r = Rounder(vmcs)
        r.canonical(((F.GUEST_FS_BASE, "fs"), (F.GUEST_GS_BASE, "gs"),
                     (F.GUEST_TR_BASE, "tr")))
        assert r.changes == [
            (F.GUEST_FS_BASE, 0x8000_0000_0000, 0xFFFF_8000_0000_0000, "fs"),
            (F.GUEST_GS_BASE, 0xFFFF_0000_0000_1234, 0x1234, "gs")]

    @given(st.integers(0, (1 << 64) - 1))
    def test_canonicalize_is_sign_extension(self, address):
        expected = sign_extend(address, 48) & ((1 << 64) - 1)
        assert canonicalize(address) == expected
        vmcs = Vmcs()
        vmcs.write(F.GUEST_FS_BASE, address)
        r = Rounder(vmcs)
        r.canonical(((F.GUEST_FS_BASE, "fs"),))
        assert r.values[F.GUEST_FS_BASE] == expected

    def test_commit_adopts_values_and_journals_in_order(self):
        vmcs = Vmcs()
        ref = Vmcs()
        r = Rounder(vmcs)
        r.force(F.GUEST_RIP, 1, "x")
        r.force(F.GUEST_RSP, 2, "y")
        r.force(F.GUEST_RIP, 0, "z")  # back to the start: still journalled
        changes = r.commit()
        for k, _, after, _ in changes:
            ref.write(k, after)
        assert vmcs == ref
        assert (vmcs.generation, vmcs._log) == (ref.generation, ref._log) == (
            3, [F.GUEST_RIP, F.GUEST_RSP, F.GUEST_RIP])

    def test_commit_without_changes_leaves_the_vmcs(self):
        vmcs = golden_vmcs()
        values, gen, log = vmcs._values, vmcs.generation, list(vmcs._log)
        r = Rounder(vmcs)
        r.force(F.GUEST_RIP, vmcs.read(F.GUEST_RIP), "unchanged")
        assert r.commit() == []
        assert vmcs._values is values
        assert (vmcs.generation, vmcs._log) == (gen, log)


class TestReport:
    def test_groups_split_the_one_change_list(self):
        vmcs = Vmcs.deserialize(b"\xa5" * F.LAYOUT_BYTES)
        report = VmStateValidator().round_to_valid(vmcs)
        assert report.controls and report.host and report.guest
        assert report.all == report.controls + report.host + report.guest
        assert vmcs.generation == report.total == len(report.all)
        assert report.host[0].field == "host_cr0"
        assert report.guest[0].field == "guest_cr0"
