"""Integer kcov events against the tuple path they replaced.

``KcovTracer.drain`` reports line ids and packed edge keys, and
``CoverageBitmap.record_trace`` maps each key to its cell through a
dict. The reference in tests/reference works on ``(file, line)`` events,
pair tuples and an LRU over tuple pairs. Both must give the same line
set, the same edges and the same bitmap ``counts`` and ``touched``, on
synthetic streams and on real campaigns. Line ids must also not depend
on the order in which a process instruments the targets.
"""

import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import NecoFuzz, Vendor
from repro.coverage import bitmap, kcov
from repro.coverage.bitmap import CoverageBitmap, stable_line_id
from repro.coverage.kcov import ID_LIMIT, KcovTracer, edge_key, split_edge
from tests.reference import checked_drains, record_tuple_trace, tuple_drain

#: A full id space of made-up locations outside the package.
TABLE = [(f"/synthetic/f{i % 13}.py", i) for i in range(ID_LIMIT)]

HIGH = 0x8000


def _stable(ident: int) -> int:
    return stable_line_id(*TABLE[ident])


def _colliding_edges() -> tuple[int, int, int, int]:
    """Ids ``a, b, c, d`` with ``a -> b`` and ``c -> d`` distinct edges
    in one bitmap cell."""
    a, c = HIGH, HIGH + 1
    by_stable = {_stable(d): d for d in range(HIGH + 2, HIGH + 4096)}
    for b in range(HIGH + 2, ID_LIMIT):
        d = by_stable.get((_stable(a) >> 1) ^ (_stable(c) >> 1) ^ _stable(b))
        if d is not None and (a, b) != (c, d):
            return a, b, c, d
    raise AssertionError("no colliding edge pair")


A, B, C, D = _colliding_edges()


def _check(events: list[int]) -> None:
    with mock.patch.object(kcov, "_ID_LINES", TABLE), \
            mock.patch.object(bitmap, "_EDGE_CELLS", bitmap._EdgeCells()):
        tracer = KcovTracer([])
        tracer._events.extend(events)
        lines, edges = tracer.drain()
        assert tracer._events == []
        ref_lines, ref_edges = tuple_drain([TABLE[i] for i in events])
        assert kcov.lines_of(lines) == ref_lines
        assert len(edges) == len(ref_edges)
        assert {(TABLE[p], TABLE[c]) for p, c in map(split_edge, edges)} \
            == ref_edges
        fast, ref = CoverageBitmap(), CoverageBitmap()
        for _ in range(2):  # the second fill adds to the first
            fast.record_trace(edges)
            record_tuple_trace(ref, ref_edges)
            assert fast.counts == ref.counts
            assert fast.touched == ref.touched


_ids = st.one_of(st.integers(0, 40), st.integers(HIGH, ID_LIMIT - 1),
                 st.integers(0, ID_LIMIT - 1))


class TestSyntheticStreams:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ids, max_size=64), st.integers(1, 3))
    @example([], 1)
    @example([7], 1)
    @example([HIGH, ID_LIMIT - 1], 1)
    @example([HIGH, ID_LIMIT - 1, 3], 1)
    @example([1, 2, 1, 2, 1, 2, 1], 1)
    @example([A, B, C, D], 1)
    @example([A, B, 5, C, D, 5], 2)
    def test_drain_and_fill_match_tuple_path(self, events, repeats):
        _check(events * repeats)

    def test_collision_counts_two(self):
        with mock.patch.object(kcov, "_ID_LINES", TABLE), \
                mock.patch.object(bitmap, "_EDGE_CELLS", bitmap._EdgeCells()):
            fill = CoverageBitmap()
            fill.record_trace({edge_key(A, B), edge_key(C, D)})
        (cell,) = fill.touched
        assert fill.counts[cell] == 2

    def test_edge_keys_round_trip(self):
        for prev, cur in ((0, 0), (1, 2), (HIGH, 3), (ID_LIMIT - 1, HIGH)):
            assert split_edge(edge_key(prev, cur)) == (prev, cur)
            assert edge_key(prev, cur) < 1 << 32


CONFIGS = [
    ("kvm", Vendor.INTEL),
    ("kvm", Vendor.AMD),
    ("xen", Vendor.INTEL),
    ("xen", Vendor.AMD),
    ("virtualbox", Vendor.INTEL),
]


class TestCampaignReplay:
    @pytest.mark.parametrize("hypervisor,vendor", CONFIGS,
                             ids=[f"{h}-{v.value}" for h, v in CONFIGS])
    def test_200_cases_match_tuple_path(self, hypervisor, vendor):
        with checked_drains() as checked:
            NecoFuzz(hypervisor=hypervisor, vendor=vendor, seed=3).run(200)
        assert len(checked) >= 200
        assert sum(checked) > 200


_ID_DUMP = """
import json, sys
from repro.arch.cpuid import Vendor
from repro.coverage import kcov
from repro.coverage.bitmap import package_relative
from repro.hypervisors import HYPERVISORS

ids = {}
for name in sys.argv[1:]:
    if name == "traced_target":
        from tests.coverage import traced_target
        kcov.KcovTracer([traced_target])
        continue
    vendors = (Vendor.INTEL,) if name == "virtualbox" else tuple(Vendor)
    for vendor in vendors:
        tracer = kcov.KcovTracer(HYPERVISORS[name].nested_modules(vendor))
        for path, line in tracer.instrumented:
            ids[f"{package_relative(path)}:{line}"] = kcov.line_id(path, line)
print(json.dumps(ids, sort_keys=True))
"""


def _ids_in_fresh_interpreter(*order: str) -> dict:
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run([sys.executable, "-c", _ID_DUMP, *order],
                         capture_output=True, text=True, env=env,
                         check=True, cwd=root)
    return json.loads(out.stdout)


class TestIdOrder:
    def test_ids_do_not_depend_on_instrumentation_order(self):
        xen_first = _ids_in_fresh_interpreter(
            "traced_target", "xen", "virtualbox", "kvm")
        kvm_first = _ids_in_fresh_interpreter("kvm", "virtualbox", "xen")
        assert len(xen_first) > 1000
        assert xen_first == kvm_first

    def test_ids_match_this_process(self):
        ids = _ids_in_fresh_interpreter("kvm")
        tracer = NecoFuzz(seed=1).agent.tracer  # kvm/intel
        here = {f"{bitmap.package_relative(path)}:{line}":
                kcov.line_id(path, line) for path, line in tracer.instrumented}
        assert here.items() <= ids.items()


class TestIdSpace:
    def test_exhausted_space_fails_clearly(self, tmp_path):
        target = tmp_path / "big_module.py"
        target.write_text("x = 1\n" * 40)
        with mock.patch.object(kcov, "_next_base", ID_LIMIT - 10):
            with pytest.raises(RuntimeError, match="id space exhausted"):
                kcov.line_id(str(target), 1)
        assert str(target) not in kcov._RANGES
