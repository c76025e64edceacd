"""Tests for the compiled line coverage (kcov analogue)."""

import importlib.util

import pytest

from repro.arch.cpuid import Vendor
from repro.coverage import kcov
from repro.coverage.kcov import (
    KcovTracer,
    executable_lines,
    line_id,
    lines_of,
)
from repro.hypervisors import KvmHypervisor, VboxHypervisor, XenHypervisor

# A tiny target module defined in-repo for tracing tests.
from tests.coverage import traced_target


class TestExecutableLines:
    def test_function_bodies_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.BRANCH_TRUE_LINE in linenos
        assert traced_target.BRANCH_FALSE_LINE in linenos

    def test_module_level_not_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.MODULE_LEVEL_LINE not in linenos

    def test_class_body_not_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.CLASS_ATTR_LINE not in linenos

    def test_method_body_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.METHOD_BODY_LINE in linenos


MODEL_CONFIGS = [(KvmHypervisor, Vendor.INTEL), (KvmHypervisor, Vendor.AMD),
                 (XenHypervisor, Vendor.INTEL), (XenHypervisor, Vendor.AMD),
                 (VboxHypervisor, Vendor.INTEL)]


class TestTracerUniverse:
    @pytest.mark.parametrize("model,vendor", MODEL_CONFIGS,
                             ids=["kvm-intel", "kvm-amd", "xen-intel",
                                  "xen-amd", "vbox-intel"])
    def test_universe_equals_a_fresh_parse(self, model, vendor):
        modules = model.nested_modules(vendor)
        expected = set()
        for module in modules:
            tree = kcov._parse(module.__file__)
            expected |= {(module.__file__, n)
                         for n in kcov._process_tree(tree, 0)}
        assert KcovTracer(modules).instrumented == expected

    def test_construction_parses_each_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "kcov_fresh_target.py"
        path.write_text("def f(x):\n    if x:\n        return 1\n"
                        "    return 2\n")
        spec = importlib.util.spec_from_file_location("kcov_fresh_target",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parsed = []
        parse = kcov._parse
        monkeypatch.setattr(kcov, "_parse",
                            lambda filename: parsed.append(filename)
                            or parse(filename))
        tracer = KcovTracer([module])
        assert parsed == [str(path)]
        assert tracer.instrumented == {
            (str(path), n) for n in kcov._process_tree(parse(str(path)), 0)}


class TestTracing:
    def test_branch_coverage_distinguished(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        ids, _ = tracer.drain()
        linenos = {lineno for _, lineno in lines_of(ids)}
        assert traced_target.BRANCH_TRUE_LINE in linenos
        assert traced_target.BRANCH_FALSE_LINE not in linenos

        with tracer:
            traced_target.branchy(False)
        ids, _ = tracer.drain()
        linenos = {lineno for _, lineno in lines_of(ids)}
        assert traced_target.BRANCH_FALSE_LINE in linenos

    def test_untraced_module_ignored(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            sorted([3, 1, 2])  # stdlib work only
        lines, edges = tracer.drain()
        assert lines == set()
        assert edges == set()

    def test_edges_recorded(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        _, edges = tracer.drain()
        assert edges  # consecutive-line transitions exist

    def test_drain_resets(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        lines, _ = tracer.drain()
        assert lines
        assert tracer.drain() == (set(), set())

    def test_nested_start_rejected(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            with pytest.raises(RuntimeError):
                tracer.start()

    def test_coverage_fraction(self):
        tracer = KcovTracer([traced_target])
        assert tracer.coverage_fraction(set()) == 0.0
        with tracer:
            traced_target.branchy(True)
            traced_target.branchy(False)
            traced_target.Helper().method()
            traced_target.looper(3)
        ids, _ = tracer.drain()
        fraction = tracer.coverage_fraction(ids)
        assert fraction == 1.0

    def test_fraction_clips_to_instrumented(self):
        tracer = KcovTracer([traced_target])
        bogus = {line_id(traced_target.__file__,
                         traced_target.MODULE_LEVEL_LINE)}
        assert tracer.coverage_fraction(bogus) == 0.0
        assert tracer.covered_lines(bogus) == set()
