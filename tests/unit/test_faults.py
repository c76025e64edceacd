"""The deterministic fault-injection plan (repro.faults)."""

import pickle

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec, InjectedFault, WorkerKilled


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("set_on_fire")

    def test_raise_in_hook_requires_hook_name(self):
        with pytest.raises(ValueError):
            FaultSpec("raise_in_hook")

    def test_rejects_unknown_corruption_mode(self):
        with pytest.raises(ValueError):
            FaultSpec("corrupt_sync", corrupt="scramble")

    @pytest.mark.parametrize("kind", [
        "drop_frame", "delay_frame", "corrupt_frame", "partition",
        "kill_coordinator", "corrupt_delta"])
    def test_network_kinds_are_gone(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind, seconds=1.0)

    @pytest.mark.parametrize("field", ["at_frame", "at_event", "at_round"])
    def test_network_trigger_fields_are_gone(self, field):
        with pytest.raises(TypeError, match=field):
            FaultSpec("kill_worker", **{field: 1})


class TestFaultPlan:
    def test_case_fault_matches_worker_and_case(self):
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=5)])
        assert plan.take_case_fault(0, 5) is None
        assert plan.take_case_fault(1, 4) is None
        spec = plan.take_case_fault(1, 5)
        assert spec is not None and spec.kind == "kill_worker"

    def test_specs_fire_exactly_once(self):
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=5)])
        assert plan.take_case_fault(1, 5) is not None
        assert plan.take_case_fault(1, 5) is None
        assert plan.exhausted

    def test_wildcard_worker_matches_any(self):
        plan = FaultPlan([FaultSpec("delay_case", at_case=2, seconds=0.0)])
        assert plan.take_case_fault(3, 2) is not None

    def test_sync_fault_matches_export_round(self):
        plan = FaultPlan([FaultSpec("corrupt_sync", worker=0, at_export=2)])
        assert plan.take_sync_fault(0, 1) is None
        assert plan.take_sync_fault(0, 2) is not None

    def test_hook_fault_matches_name(self):
        plan = FaultPlan([FaultSpec("raise_in_hook", hook="kvm.run")])
        assert plan.take_hook_fault("xen.run", None) is None
        assert plan.take_hook_fault("kvm.run", None) is not None

    def test_disarm_consumes_matching_spec(self):
        plan = FaultPlan([FaultSpec("kill_worker", worker=2, at_case=9)])
        assert plan.disarm(2, ("kill_worker",))
        assert plan.take_case_fault(2, 9) is None
        assert not plan.disarm(2, ("kill_worker",))  # nothing left

    def test_plan_round_trips_through_pickle(self):
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=5),
                          FaultSpec("corrupt_sync", corrupt="garbage")])
        plan.take_case_fault(1, 5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.consumed == plan.consumed
        assert clone.take_case_fault(1, 5) is None
        assert clone.take_sync_fault(1, 1) is not None


class TestGlobalInstallation:
    def test_injected_scopes_installation(self):
        plan = FaultPlan()
        assert faults.active() is None
        with faults.injected(plan):
            assert faults.active() is plan
        assert faults.active() is None

    def test_hook_is_inert_without_a_plan(self):
        faults.hook("kvm.run")  # must not raise

    def test_hook_raises_injected_fault(self):
        plan = FaultPlan([FaultSpec("raise_in_hook", hook="oracle.verify")])
        with faults.injected(plan):
            with pytest.raises(InjectedFault) as excinfo:
                faults.hook("oracle.verify")
        assert excinfo.value.hook == "oracle.verify"
        assert plan.fired == [("raise_in_hook", None, "oracle.verify")]

    def test_hook_respects_current_worker(self):
        plan = FaultPlan([FaultSpec("raise_in_hook", hook="kvm.run",
                                    worker=1)])
        with faults.injected(plan):
            faults.set_current_worker(0)
            try:
                faults.hook("kvm.run")  # wrong worker: no fire
                faults.set_current_worker(1)
                with pytest.raises(InjectedFault):
                    faults.hook("kvm.run")
            finally:
                faults.set_current_worker(None)

    def test_worker_killed_is_not_an_exception(self):
        # The engine's case isolation catches Exception; a simulated
        # worker death must not be absorbable there.
        assert not issubclass(WorkerKilled, Exception)
