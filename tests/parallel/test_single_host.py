"""Campaigns run on one host, inline or in forked processes.

Pins that the socket federation stays removed: the transport package
and its public names are gone, the lease board keeps only the plain
claim/complete ledger, and the coverage plane (the NCD1 delta codec
and the ``coverage.bin`` sync sidecar it fed) is gone.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.coverage.bitmap import VirginMap
from repro.parallel import FileLeaseBoard, sync
from repro.telemetry import report


def test_transport_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.parallel.transport")


@pytest.mark.parametrize("module", ["repro.parallel", "repro.resilience"])
@pytest.mark.parametrize("name", ["FederatedCampaign", "run_federated_node",
                                  "TransportError"])
def test_federation_names_are_not_exported(module, name):
    package = importlib.import_module(module)
    assert name not in package.__all__
    assert not hasattr(package, name)


def test_lease_board_keeps_only_the_claim_ledger(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 20, 2, lease_size=8)
    created = set(json.loads(board.state_path.read_text()))
    lease = board.claim(0)
    board.complete(lease.id, 0)
    board.claim(1)
    board.claim(0)
    assert board.claim(1) is None  # budget exhausted
    state = json.loads(board.state_path.read_text())
    # Claims update the ledger in place; no keyed grant record appears.
    assert set(state) == created
    assert "grants" not in state
    assert not hasattr(board, "claim_once")
    assert not hasattr(board, "recorded_grant")


def test_coverage_plane_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.coverage.delta")
    for owner, name in ((VirginMap, "delta_since"), (VirginMap, "apply_delta"),
                        (VirginMap, "subsumes_delta"),
                        (sync, "consume_record"),
                        (report, "_COVERAGE_PLANE_COUNTERS")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
