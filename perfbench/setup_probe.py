"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

``python3 perfbench/setup_probe.py WORKLOAD`` imports the fuzzer
and builds what the workload builds before its first case: the first
pool campaign (kcov instruments the target modules while its ``Agent``
is built), one campaign per hunt target for ``bug-hunt`` (it instruments
all five), and a ``ParallelCampaign`` with its worker campaigns for
``sync-2w``. The parent times the whole process, interpreter start
included.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> None:
    from workloads import HUNTS, WORKLOADS, vendor_of

    from repro import NecoFuzz
    from repro.parallel import ParallelCampaign, worker_seed

    name = sys.argv[1]
    workload = WORKLOADS[name]
    if name == "bug-hunt":
        for hunt in HUNTS:
            NecoFuzz(hypervisor=hunt.hypervisor,
                     vendor=vendor_of(hunt.vendor), seed=hunt.seeds[0])
        return
    first = workload.pool[0]
    vendor = vendor_of(workload.vendor)
    if workload.workers:
        ParallelCampaign(hypervisor=workload.hypervisor, vendor=vendor,
                         seed=first, workers=workload.workers,
                         sync_every=workload.sync_every, mode="inline")
        for index in range(workload.workers):
            NecoFuzz(hypervisor=workload.hypervisor, vendor=vendor,
                     seed=worker_seed(first, index))
        return
    NecoFuzz(hypervisor=workload.hypervisor, vendor=vendor, seed=first)


if __name__ == "__main__":
    main()
