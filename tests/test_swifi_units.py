"""Additional unit tests for the SWIFI helpers and analysis formatting."""

import pytest

from repro.swifi.campaign import CampaignResult, format_table2
from repro.swifi.classify import MAX_DETAILS, Outcome, OutcomeCounter
from repro.swifi.injector import FULL_MASK, PlannedInjection, SwifiController
from repro.system import build_system


class TestPlannedInjection:
    def test_repr(self):
        plan = PlannedInjection("lock", reg=2, bit=5, after_executions=3)
        text = repr(plan)
        assert "lock" in text and "bit=5" in text


class TestControllerBookkeeping:
    def test_trace_counts_accumulate(self):
        system = build_system(ft_mode="superglue")
        swifi = SwifiController(system.kernel, seed=0)
        from repro.workloads import workload_for

        workload_for("ramfs").install(system, iterations=2)
        system.run(max_steps=20_000)
        assert swifi.trace_counts.get("ramfs", 0) > 0
        # Client-side tracking traces execute in app components and are
        # counted there, never delivered (not a target).
        assert swifi.delivered_count == 0

    def test_full_mask_covers_all_bits(self):
        assert FULL_MASK == 0xFFFFFFFF

    def test_seeded_reproducibility(self):
        system1 = build_system(ft_mode="superglue")
        system2 = build_system(ft_mode="superglue")
        a = SwifiController(system1.kernel, seed=9).arm("lock")
        b = SwifiController(system2.kernel, seed=9).arm("lock")
        assert (a.reg, a.bit) == (b.reg, b.bit)


    def test_arm_fault_dispatches_each_class(self):
        system = build_system(ft_mode="superglue")
        swifi = SwifiController(system.kernel, seed=9)
        for fault_class in ("reg", "mem", "burst"):
            swifi.arm_fault(fault_class, "lock", after=4)
            assert swifi.pending.fault_class == fault_class
            assert swifi.pending.after_executions == 4
        swifi.arm_fault("idl", "lock", after=4)
        assert swifi._idl_pending == ["lock", 4, 0]
        with pytest.raises(ValueError):
            swifi.arm_fault("cosmic", "lock")


class TestResultRow:
    def test_row_and_format(self):
        counter = OutcomeCounter()
        for __ in range(7):
            counter.add(Outcome.RECOVERED)
        counter.add(Outcome.NOT_RECOVERED_SEGFAULT, detail="boom")
        counter.add(Outcome.UNDETECTED)
        result = CampaignResult(
            service="lock", counter=counter, seed=1, ft_mode="superglue"
        )
        row = result.row()
        assert row["injected"] == 9
        assert row["recovered"] == 7
        assert result.injected == 9
        table = format_table2([result])
        assert "lock" in table
        assert counter.details == ["not_recovered_segfault: boom"]

    def test_details_growth_is_capped(self):
        # Regression: details grew one string per detailed outcome with
        # no bound, so huge campaigns accumulated unbounded memory.
        counter = OutcomeCounter()
        for i in range(MAX_DETAILS + 25):
            counter.add(Outcome.NOT_RECOVERED_OTHER, detail=f"run {i}")
        assert len(counter.details) == MAX_DETAILS
        assert counter.details_dropped == 25
        # The statistics themselves are unaffected by the cap.
        assert counter.injected == MAX_DETAILS + 25
        assert counter.count(Outcome.NOT_RECOVERED_OTHER) == MAX_DETAILS + 25


class TestAnalysisFormatting:
    def test_tracking_overhead_requires_working_workload(self):
        from repro.analysis.overhead import _run_workload

        system = _run_workload("superglue", "lock", iterations=2)
        assert system.kernel.crashed is None

    def test_schedulability_bound_dataclass(self):
        from repro.analysis.schedulability import RecoveryBound

        bound = RecoveryBound("lock", "s", ["a"], cycles=2400)
        assert bound.us == 1.0
