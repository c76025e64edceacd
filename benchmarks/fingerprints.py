"""Print one JSON fingerprint digest per fuzzing target.

    PYTHONPATH=src python benchmarks/fingerprints.py

Each output line is ``{"target": ..., "digest": ...}``. Two source trees
that print the same lines ran the same campaigns bit for bit:

* ``serial/<hypervisor>/<vendor>``: ``NecoFuzz(seed=11).run(400)`` on
  every model. The digest covers the covered lines, ``EngineStats``,
  each report's iteration, signature and command line, the coverage
  timeline and the queue's inputs.
* ``inline/<vendor>/<schedule>``: a 2-worker inline ``ParallelCampaign``
  on kvm, with the static schedule and with stealing at
  ``lease_size=10``, digested by ``resilience.campaign_fingerprint``.

Coverage cells and digests name source files relative to the ``repro``
package, so outputs from different checkout directories compare equal.
"""

from __future__ import annotations

import hashlib
import json

from repro import NecoFuzz, Vendor
from repro.coverage.bitmap import relative_lines
from repro.parallel import ParallelCampaign
from repro.resilience import campaign_fingerprint

SEED = 11
SERIAL_BUDGET = 400
INLINE_BUDGET = 200
SERIAL_TARGETS = (("kvm", Vendor.INTEL), ("kvm", Vendor.AMD),
                  ("xen", Vendor.INTEL), ("xen", Vendor.AMD),
                  ("virtualbox", Vendor.INTEL))
INLINE_SCHEDULES = (("static", {}),
                    ("stealing", {"schedule": "stealing", "lease_size": 10}))


def serial_digest(hypervisor: str, vendor: Vendor) -> str:
    """Digest of one serial campaign's observable outcome."""
    campaign = NecoFuzz(hypervisor=hypervisor, vendor=vendor, seed=SEED)
    result = campaign.run(SERIAL_BUDGET)
    digest = hashlib.sha256()
    for part in (relative_lines(result.covered_lines), result.engine_stats,
                 [(r.iteration, r.anomaly.signature(), r.command_line)
                  for r in result.reports],
                 result.timeline.points,
                 [entry.data for entry in campaign.engine.queue.entries]):
        digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def inline_digest(vendor: Vendor, **schedule) -> str:
    """``campaign_fingerprint`` of a 2-worker inline kvm campaign."""
    campaign = ParallelCampaign(hypervisor="kvm", vendor=vendor, seed=SEED,
                                workers=2, sync_every=25, mode="inline",
                                telemetry_mode="off", **schedule)
    return campaign_fingerprint(campaign.run(INLINE_BUDGET))[:16]


def main() -> None:
    for hypervisor, vendor in SERIAL_TARGETS:
        print(json.dumps({"target": f"serial/{hypervisor}/{vendor.value}",
                          "digest": serial_digest(hypervisor, vendor)}),
              flush=True)
    for vendor in (Vendor.INTEL, Vendor.AMD):
        for name, schedule in INLINE_SCHEDULES:
            print(json.dumps({"target": f"inline/{vendor.value}/{name}",
                              "digest": inline_digest(vendor, **schedule)}),
                  flush=True)


if __name__ == "__main__":
    main()
