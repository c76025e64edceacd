"""The incremental hot path.

Dirty-field tracking makes three hot-path stages incremental: VM-entry
consistency checking, the hypervisor-level VMCS12/VMCB12 checks, and
the VMCS02/VMCB02 merge. It is the only path: there is no switch. The
full-recompute reference it must equal lives in the test suite
(``tests.reference.full_recompute``), which swaps these functions for
straight-through versions; tests/unit/test_incremental_equivalence.py
pins the two equal (violation lists, corrections, exit reasons, VMCS02
contents and coverage). The validators' rounding passes are not
memoized: each case rounds a freshly deserialized structure, so a
fixed-point memo would never hit.
"""

from __future__ import annotations

from typing import Callable

from repro import telemetry


def memoized_check(struct, key, compute: Callable[[], list]):
    """Memoize a pure consistency check on its structure object.

    *struct* is a ``Vmcs`` or ``Vmcb``; *compute* must be a pure
    function of the structure's fields (plus state that is constant for
    the lifetime of *key*, e.g. the capability MSRs of the hypervisor
    instance baked into the key). The read set is recorded dynamically
    via the structure's ``_read_trace`` hook — sound because every
    branch taken by *compute* depends only on fields it read — and the
    result is revalidated against the change journal on later calls.

    Coverage equivalence: when a kcov tracer is active, the (file,
    line) events emitted during *compute* are recorded with the entry
    and replayed into the tracer on every cache hit, so per-case line
    AND edge coverage is identical to recomputing. An entry recorded
    without a tracer carries no event slice and is recomputed if a
    tracer is active when it is next consulted. The harness's vmwrite
    storm (``VmExecutionHarness._write_vmcs_fields``) is the second
    user of this record-and-replay scheme.

    Entries record the *values* read, not just the field set, and a
    journalled write back to the recorded value does not invalidate: a
    deterministic *compute* re-reading identical values would take
    identical branches and return an equal result (and emit an
    identical event slice), so the revalidation compares values on the
    journal/read-set intersection before giving up on the entry.

    The cached result list is returned as-is on a hit; callers must not
    mutate it.
    """
    from repro.coverage import kcov

    sink = kcov.event_sink()
    entry = struct.memo_get(key)
    if entry is not None:
        gen, reads, value, trace = entry
        changed = struct.changes_since(gen)
        if changed is not None and (sink is None or trace is not None) and all(
                struct.read(k) == reads[k] for k in changed & reads.keys()):
            if sink is not None and trace:
                sink.extend(trace)
            if gen != struct.generation:
                struct.memo_put(key, (struct.generation, reads, value, trace))
            if struct._read_trace is not None:
                struct._read_trace.update(reads)
            telemetry.counter("perf.memo_hits")
            return value
    telemetry.counter("perf.memo_misses")
    mark = len(sink) if sink is not None else 0
    outer = struct._read_trace
    reads = set()
    struct._read_trace = reads
    before = struct.generation
    try:
        value = compute()
    finally:
        struct._read_trace = outer
    if outer is not None:
        outer.update(reads)
    if struct.generation == before:
        trace = tuple(sink[mark:]) if sink is not None else None
        read_values = {k: struct.read(k) for k in reads}
        struct.memo_put(key, (struct.generation, read_values, value, trace))
    return value


def merge_state(state, src, *, build: Callable[[], object],
                controls: Callable[[object], None],
                state_fields: frozenset, control_inputs: frozenset):
    """Incrementally rebuild a merged VMCS02/VMCB02 from a tracked source.

    *build* constructs the merged structure from scratch (prototype copy
    plus the guest/save fields taken verbatim from *src*); *controls*
    applies the control-field section onto an existing merged structure.
    Both live in instrumented hypervisor modules, so their kcov event
    slices are captured when they run, and a skipped section's slice is
    replayed verbatim in its place, so per-case lines and edges equal a
    full merge (pinned by ``test_per_case_edges``). The skips are sound
    because *build*'s guest half is reproduced exactly by replaying the
    dirty *state_fields* from the change journal, and *controls* is a pure
    function of the fields in *control_inputs* (declared by the
    caller), so an unchanged input set means identical writes and an
    identical event slice.

    The cache — ``state.merge_cache = (src, generation, merged,
    build_trace, controls_trace)`` — is recorded before the caller's
    always-live sections (clamps, paging/MMU setup) run, so fallible
    tails replay identically from the cached prefix. *state* may be
    ``None``: the merge then runs in full every time.
    """
    if state is None:
        merged = build()
        controls(merged)
        return merged
    from repro.coverage import kcov

    sink = kcov.event_sink()
    cache = state.merge_cache
    changed = None
    if cache is not None and cache[0] is src:
        changed = src.changes_since(cache[1])
        if sink is not None and (cache[3] is None or cache[4] is None):
            # Recorded without a tracer: rebuild live to capture slices.
            changed = None
    if changed is None:
        telemetry.counter("perf.merge_full")
        mark = len(sink) if sink is not None else 0
        merged = build()
        build_trace = tuple(sink[mark:]) if sink is not None else None
        mark = len(sink) if sink is not None else 0
        controls(merged)
        ctrl_trace = tuple(sink[mark:]) if sink is not None else None
        state.merge_cache = (src, src.generation, merged, build_trace,
                             ctrl_trace)
        return merged
    telemetry.counter("perf.merge_incremental")
    merged = cache[2]
    for key in changed & state_fields:
        merged.write(key, src.read(key))
    if sink is not None:
        sink.extend(cache[3])
    ctrl_trace = cache[4]
    if changed & control_inputs:
        mark = len(sink) if sink is not None else 0
        controls(merged)
        ctrl_trace = tuple(sink[mark:]) if sink is not None else None
    elif sink is not None:
        sink.extend(ctrl_trace)
    state.merge_cache = (src, src.generation, merged, cache[3], ctrl_trace)
    return merged


def publish_merged(merged, warm: Callable[[], object] | None = None):
    """The object to install for execution: a fast copy of *merged*, so
    quirk write-backs from the run (and dirty-field replays by a later,
    *failed* merge) never alias the cached master. *warm* (typically a
    :func:`memoized_check` over the vendor's structure check) runs first
    so the copy inherits a warm memo.

    The copy is cached on the master behind both generation counters: if
    neither the master nor the previously published copy has seen a
    value-changing write since the last publish, their contents are
    still identical and the same copy is returned (generations are
    monotonic, so an equal counter means an untouched structure). A
    hardware write-back into the published copy bumps its counter and
    forces a fresh copy on the next publish.
    """
    pub = getattr(merged, "_pub", None)
    if (pub is not None and merged.generation == pub[0]
            and pub[1].generation == pub[0]):
        return pub[1]
    if warm is not None:
        warm()
    dup = merged.copy()
    merged._pub = (merged.generation, dup)
    return dup
