"""The nested models' group copies equal the per-field loops they replaced.

Each of the ten VMCS/VMCB group copies in the kvm, xen and virtualbox
nested modules is one ``copy_fields`` call. Short campaigns on every
target reach all ten, and ``tests.reference.checked_group_copies``
compares each call with the per-field reference loop on the same
structures.
"""

import pytest

from repro import NecoFuzz, Vendor
from tests.reference import checked_group_copies

#: Every group copy site, by target.
_SITES = {
    ("kvm", Vendor.INTEL): {"NestedVmx._vmcs02_base",
                            "NestedVmx.nested_vmx_vmexit"},
    ("kvm", Vendor.AMD): {"NestedSvm._vmcb02_base",
                          "NestedSvm.nested_svm_vmexit"},
    ("xen", Vendor.INTEL): {"XenNestedVmx._shadow_base",
                            "XenNestedVmx.virtual_vmexit"},
    ("xen", Vendor.AMD): {"XenNestedSvm.nsvm_prepare_vmcb02",
                          "XenNestedSvm.nsvm_vmexit"},
    ("virtualbox", Vendor.INTEL): {"VboxNestedVmx._vmcs02_base",
                                   "VboxNestedVmx.vmexit_to_l1"},
}


@pytest.mark.parametrize("hypervisor,vendor", list(_SITES),
                         ids=["kvm-intel", "kvm-amd", "xen-intel", "xen-amd",
                              "vbox-intel"])
def test_group_copies_match_per_field_loops(hypervisor, vendor):
    with checked_group_copies() as sites:
        NecoFuzz(hypervisor=hypervisor, vendor=vendor, seed=11).run(200)
    assert set(sites) == _SITES[(hypervisor, vendor)]
