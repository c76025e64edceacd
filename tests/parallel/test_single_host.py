"""Campaigns run on one host, inline or in forked processes.

Pins that the socket federation stays removed: the transport package
and its public names are gone, the lease board keeps only the plain
claim/complete ledger, and the coverage plane keeps only what the local
``coverage.bin`` sync sidecar uses.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.coverage import delta
from repro.coverage.bitmap import VirginMap
from repro.parallel import FileLeaseBoard, sync
from repro.parallel.shared_map import SharedVirginMap


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


def test_coverage_plane_keeps_only_sidecar_helpers():
    for owner, name in ((delta, "DeltaTracker"), (delta, "delta_between"),
                        (delta, "diff_runs"), (delta, "apply_runs"),
                        (VirginMap, "delta_since"), (VirginMap, "apply_delta"),
                        (VirginMap, "subsumes_delta"),
                        (SharedVirginMap, "delta_since"),
                        (sync, "consume_record")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    # What the sidecar writer and reader use stays.
    for name in ("CoverageDelta", "DeltaError", "full_delta", "encode",
                 "decode", "runs_subsumed"):
        assert hasattr(delta, name)
