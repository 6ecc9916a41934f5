"""System pooling: seal once per process, dirty-restore per run.

The correctness bar for the pool is absolute: a restored system must be
*structurally indistinguishable* from a fresh ``build_system`` — same
image bytes, same allocator positions, same kernel counters, same stub
tables — because campaign outcomes are classified from exactly that
state.  These tests drive real faulty runs through pooled systems and
verify both the structural invariant and outcome bit-identity.
"""

import pytest

from repro import observe
from repro.swifi.campaign import (
    COVERAGE_KEYS,
    CampaignRunner,
    _campaign_system,
    _drive_run,
    coverage_ratio,
    execute_run,
)
from repro.swifi.injector import FAULT_CLASSES
from repro.system import (
    GLOBAL_POOL,
    SystemPool,
    SystemSnapshot,
    build_system,
    pooling_enabled,
)
from repro.webserver.campaign import (
    WebRunSpec,
    execute_web_run,
    web_run_seeds,
)
from repro.errors import ReproError


def _lock_spec(seed=3, iterations=4):
    runner = CampaignRunner("lock", n_faults=0, seed=seed,
                            iterations=iterations)
    return runner.spec()


class TestRestoreEqualsFresh:
    @pytest.mark.parametrize("ft_mode", ["superglue", "c3", "none"])
    def test_clean_restore_matches_fresh_build(self, ft_mode):
        snapshot = SystemSnapshot(build_system(ft_mode))
        snapshot.restore()
        assert snapshot.diff_against_fresh() == []

    def test_restore_after_faulty_runs_matches_fresh(self):
        spec = _lock_spec()
        pool = SystemPool()
        system = pool.acquire(ft_mode=spec.ft_mode,
                              recovery_mode=spec.recovery_mode)
        snapshot = pool._snapshots[(spec.ft_mode,
                                    tuple(system.apps),
                                    spec.recovery_mode,
                                    None,
                                    None)]
        # Dirty the pooled system with real injection runs, then restore.
        from repro.swifi.injector import SwifiController
        from repro.workloads import workload_for

        for run_seed in (11, 12, 13):
            swifi = SwifiController(system.kernel, seed=run_seed)
            handle = workload_for("lock").install(system, iterations=4)
            swifi.arm("lock", after_executions=run_seed % spec.horizon)
            try:
                system.run(max_steps=60_000)
            except Exception:
                pass
            snapshot.restore()
        assert snapshot.diff_against_fresh() == []

    def test_fingerprint_detects_divergence(self):
        # The debug diff must actually have teeth: rig the sealed system
        # and check the fingerprint comparison catches it.
        snapshot = SystemSnapshot(build_system("superglue"))
        snapshot.restore()
        snapshot.system.kernel.stats["invocations"] = 999
        diffs = snapshot.diff_against_fresh()
        assert any("invocations" in d for d in diffs)

    def test_pool_debug_mode_raises_on_divergence(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        pool = SystemPool()
        system = pool.acquire(ft_mode="superglue")
        # First acquire builds; poison durable state that a restore will
        # not repair (sealed storage copy), then re-acquire.
        storage = system.kernel.component("storage")
        storage._sealed_data[("rigged", "key")] = 1
        with pytest.raises(ReproError, match="diverged"):
            pool.acquire(ft_mode="superglue")

    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_pool_debug_clean_after_injected_runs(
        self, monkeypatch, fault_class
    ):
        # Every restore after an injected run must produce a system
        # structurally identical to a fresh build, whatever the class.
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        runner = CampaignRunner(
            "lock", n_faults=8, seed=7, fault_class=fault_class
        )
        spec = runner.spec()
        for seed in runner.run_seeds():
            execute_run(spec, seed)  # raises ReproError on divergence


class TestDirtyUnderFaults:
    def test_taint_always_on_dirty_pages(self):
        # Under injected runs, every tainted word must lie on a dirty
        # page — that is what makes the O(dirty) restore provably clear
        # all corruption.
        spec = _lock_spec()
        pool = SystemPool()
        system = pool.acquire(ft_mode=spec.ft_mode,
                              recovery_mode=spec.recovery_mode)
        from repro.swifi.injector import SwifiController
        from repro.workloads import workload_for

        swifi = SwifiController(system.kernel, seed=5)
        workload_for("lock").install(system, iterations=4)
        swifi.arm("lock", after_executions=2)
        try:
            system.run(max_steps=60_000)
        except Exception:
            pass
        checked_words = 0
        for component in system.kernel.components.values():
            image = component.image
            for index in image._taint:
                assert image.is_page_dirty(index)
                checked_words += 1
            # A run writes a tiny fraction of each 16K-word image.
            assert image.dirty_page_count < len(image._dirty)

    def test_restore_cost_tracks_dirtiness(self):
        system = build_system("superglue")
        lock = system.kernel.component("lock")
        snapshot = SystemSnapshot(system)
        lock.image.write_word(lock.image.base + 40, 7)
        snapshot.restore()
        # Only the handful of pages reinit touches plus the one we wrote
        # come back — not the whole 64-page image.
        assert lock.image.dirty_page_count < 8


class TestPoolGate:
    def test_pooling_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SYSTEM_POOL", raising=False)
        assert pooling_enabled()

    def test_gate_disables_pooling(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "0")
        assert not pooling_enabled()
        spec = _lock_spec()
        a = _campaign_system(spec.ft_mode, spec.recovery_mode)
        b = _campaign_system(spec.ft_mode, spec.recovery_mode)
        assert a is not b

    def test_pooled_systems_are_reused(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        before = GLOBAL_POOL.stats["restores"]
        a = _campaign_system("superglue", "ondemand")
        b = _campaign_system("superglue", "ondemand")
        assert a is b
        assert GLOBAL_POOL.stats["restores"] > before

    def test_traced_runs_bypass_pool(self, monkeypatch):
        # Warm trace caches change cache-hit counters that traced runs
        # fold into their per-run metrics; trace artifacts must stay
        # byte-identical serial vs parallel, so tracing forces a fresh
        # build.
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        pooled = _campaign_system("superglue", "ondemand")
        with observe.tracing(True):
            traced = _campaign_system("superglue", "ondemand")
        assert traced is not pooled


class TestOutcomeInvariance:
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_pooled_matches_fresh_over_100_run_sweep(
        self, monkeypatch, fault_class
    ):
        # Every idl run against lock fail-stops to the same outcome;
        # against sched the idl sweep mixes two.
        service = "sched" if fault_class == "idl" else "lock"
        spec = CampaignRunner(
            service, n_faults=0, seed=3, fault_class=fault_class
        ).spec()
        seeds = [3 * 1_000_003 + i for i in range(100)]
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "0")
        fresh = [execute_run(spec, s) for s in seeds]
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        pooled = [execute_run(spec, s) for s in seeds]
        assert pooled == fresh
        # The sweep must exercise more than one outcome class for the
        # comparison to mean anything.
        assert len(set(fresh)) > 1

    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_warm_pool_resweep_is_identical(self, monkeypatch, fault_class):
        # A second pass over the same seeds restores a pool already
        # dirtied by the first: outcomes must not depend on pool history.
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        runner = CampaignRunner(
            "lock", n_faults=15, seed=2, fault_class=fault_class
        )
        spec = runner.spec()
        seeds = runner.run_seeds()
        first = [execute_run(spec, s) for s in seeds]
        assert [execute_run(spec, s) for s in seeds] == first

    def test_clean_web_workload_pooled_matches_fresh(self, monkeypatch):
        # A fault-free web workload: every row is ok and pooled rows are
        # byte-identical to fresh builds.
        spec = WebRunSpec(ft_mode="superglue", n_requests=80, n_faults=0)
        seeds = web_run_seeds(2, 3)
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "0")
        fresh = [execute_web_run(spec, s) for s in seeds]
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        assert [execute_web_run(spec, s) for s in seeds] == fresh
        assert {row["outcome"] for row in fresh} == {"ok"}


class TestRetiredCounters:
    """The ``super_trace_*`` kernel counters stay, always zero, for the
    cold benchmark that still reads them."""

    @pytest.mark.parametrize("ft_mode", ["superglue", "c3", "none"])
    def test_fresh_kernel_carries_every_key(self, ft_mode):
        stats = build_system(ft_mode).kernel.stats
        assert {key: stats[key] for key in COVERAGE_KEYS} == dict.fromkeys(
            COVERAGE_KEYS, 0
        )

    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_counters_stay_zero_under_injection(
        self, monkeypatch, fault_class
    ):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        runner = CampaignRunner(
            "lock", n_faults=6, seed=5, fault_class=fault_class
        )
        spec = runner.spec()
        coverage = dict.fromkeys(COVERAGE_KEYS, 0)
        invocations = 0
        for seed in runner.run_seeds():
            system = _drive_run(spec, seed)[1]
            invocations += system.kernel.stats["invocations"]
            for key in COVERAGE_KEYS:
                coverage[key] += system.kernel.stats[key]
        assert invocations > 0
        assert coverage == dict.fromkeys(COVERAGE_KEYS, 0)
        assert coverage_ratio(coverage) == 0.0

    def test_coverage_ratio_arithmetic(self):
        coverage = dict(
            super_trace_runs=3,
            super_trace_tail_runs=1,
            super_trace_bypasses=2,
            super_trace_divergent_units=2,
            super_trace_tail_records=5,
            super_trace_divergences=7,
        )
        assert coverage_ratio(coverage) == 0.5
