"""Fault-injection campaign driver (Section V-D, Table II).

For each target service, a campaign injects ``n_faults`` faults, one per
run: the system is built fresh (the paper reboots the machine between
runs "to clear any residual errors"), the service's workload is
installed, a fault of the campaign's class — register SEU, memory-image
bit flip, IDL-boundary corruption, or correlated burst (see
:data:`~repro.swifi.injector.FAULT_CLASSES`) — is armed to fire at a
random point of the workload's execution against the target, and the run
is driven to completion.  Each injection is then classified per Table
II's outcome taxonomy, and a campaign aggregates activation ratio and
recovery success rate per fault class.

Every run is self-deterministic: its injection point is derived from the
run seed alone (``random.Random(run_seed).randrange(horizon)``), so a
run's outcome is a pure function of ``(service, ft_mode, iterations,
horizon, recovery_mode, run_seed)``.  That makes runs order-independent
and lets the campaign core in :mod:`repro.swifi.parallel` fan a campaign
out across a process pool — or resume an interrupted one — with
bit-identical aggregates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.composite.fastpath import private_program_cache
from repro.errors import ReproError, SimulatedFault, SystemHang
from repro.observe import tracing_enabled
from repro.swifi.classify import Outcome, OutcomeCounter
from repro.swifi.injector import FAULT_CLASSES, SwifiController
from repro.swifi.parallel import campaign_seeds, run_campaign, write_artifact
from repro.system import GLOBAL_POOL, build_system, pooling_enabled
from repro.workloads import workload_for

#: Default iterations of the micro-workload per injection run: enough for
#: latent corruption to surface, small enough for 500-fault campaigns.
DEFAULT_ITERATIONS = 4

#: Step budget per run; exceeding it means the system livelocked.
MAX_STEPS = 60_000

#: Kernel counters of a replay engine this simulator no longer has; they
#: are always zero.  The cold benchmark in ``perfbench/`` still reads
#: them, and imports this tuple and :func:`coverage_ratio`, in its traced
#: run, so the names stay for that benchmark to keep running unchanged.
COVERAGE_KEYS = (
    "super_trace_runs",
    "super_trace_bypasses",
    "super_trace_tail_runs",
    "super_trace_tail_records",
    "super_trace_divergences",
    "super_trace_divergent_units",
)


#: Whole-run kernel counters a traced run folds into its per-run metrics.
TRACED_KERNEL_STATS = (
    "invocations", "upcalls", "faults_vectored", "micro_reboots",
    "steps", "interp_fast_runs", "interp_slow_runs",
    "trace_cache_hits", "trace_cache_misses", "budget_exhausted",
)


def coverage_ratio(coverage: Dict[str, int]) -> float:
    """Replayed share of the units in ``coverage`` (0.0: nothing replays)."""
    replayed = (
        coverage["super_trace_runs"] + coverage["super_trace_tail_runs"]
    )
    total = (
        replayed
        + coverage["super_trace_bypasses"]
        + coverage["super_trace_divergent_units"]
    )
    return replayed / total if total else 0.0


@dataclass(frozen=True)
class RunSpec:
    """Everything a single injection run depends on, besides its seed.

    A ``RunSpec`` plus a ``run_seed`` fully determines a run's outcome,
    which is what lets :func:`execute_run` execute in a worker process
    with no shared state.  The horizon is measured once by
    :meth:`CampaignRunner.calibrate` and shared via the spec so workers
    skip the calibration pass.  :meth:`warm` and :meth:`execute` are the
    campaign-core protocol (see :mod:`repro.swifi.parallel`).
    """

    service: str
    ft_mode: str
    iterations: int
    horizon: int
    recovery_mode: str = "ondemand"
    fault_class: str = "reg"

    def __post_init__(self) -> None:
        # A zero/negative horizon used to be silently masked to 1 by
        # injection_point, turning "the workload never executed in the
        # target" into "always inject at trace execution 0".  Fail loudly
        # instead: an empty horizon means the calibration was wrong.
        if self.horizon < 1:
            raise ValueError(
                f"RunSpec horizon must be >= 1 (got {self.horizon}): an "
                f"empty injection horizon means the workload never "
                f"executes in {self.service!r}"
            )
        if self.fault_class not in FAULT_CLASSES:
            raise ValueError(
                f"unknown fault class {self.fault_class!r} "
                f"(expected one of {FAULT_CLASSES})"
            )

    def fingerprint(self) -> str:
        """Stable identity string, used to match journal entries."""
        return (
            f"{self.service}/{self.ft_mode}/it{self.iterations}"
            f"/h{self.horizon}/{self.recovery_mode}/{self.fault_class}"
        )

    def warm(self, trace: bool) -> None:
        """Boot + seal this process's pooled system before the first run.

        Traced and unpooled runs build fresh systems, so then there is
        nothing to warm.
        """
        if not trace and _pool_active():
            _campaign_system(self.ft_mode, self.recovery_mode)

    def execute(self, run_seed: int, context, trace: bool):
        """One run's ``({"outcome": value}, record | None)``."""
        if trace:
            outcome, record = execute_run_traced(self, run_seed)
        else:
            outcome, record = _drive_run(self, run_seed)[0], None
        return {"outcome": outcome.value}, record


def injection_point(run_seed: int, horizon: int) -> int:
    """Injection point for one run, a pure function of its seed.

    ``horizon`` must be at least 1; masking an empty horizon (the old
    ``max(horizon, 1)``) would silently inject at trace execution 0 of a
    workload that never runs in the target.
    """
    if horizon < 1:
        raise ValueError(f"injection horizon must be >= 1, got {horizon}")
    return random.Random(run_seed).randrange(horizon)


def execute_run(spec: RunSpec, run_seed: int) -> Outcome:
    """Run one injection and classify it.  Pure: no shared state.

    Module-level (picklable) so a :class:`ProcessPoolExecutor` worker can
    execute it from a submitted ``(spec, seeds)`` chunk.
    """
    outcome, __, __, __, __ = _drive_run(spec, run_seed)
    return outcome


def execute_run_traced(spec: RunSpec, run_seed: int):
    """Run one injection with the flight recorder on; returns
    ``(outcome, run_record)``.

    The run record is a JSON-safe dict — the run's identity, its derived
    injection point, outcome, recorded events, and per-run metrics —
    ready for :func:`repro.observe.export.write_run`.  Tracing is forced
    for the scope of the run only, so workers trace their runs whether
    or not ``REPRO_TRACE`` is set in their environment, and against a
    private compiled-program memo, so the record does not depend on
    which runs the process executed before.  Event emission never feeds
    back into execution, so the outcome is identical to the untraced
    :func:`execute_run` for the same ``(spec, run_seed)``.
    """
    from repro import observe

    with observe.tracing(True), private_program_cache():
        outcome, system, swifi, steps, __ = _drive_run(spec, run_seed)
        recorder = system.kernel.recorder
        metrics = recorder.metrics
        # Fold the kernel's whole-run counters into the per-run registry
        # so campaign aggregation sees engine + recovery statistics in
        # one deterministic place.
        for stat in TRACED_KERNEL_STATS:
            metrics.counter(stat).inc(system.kernel.stats[stat])
        metrics.counter("runs").inc()
        metrics.counter(f"outcome_{outcome.value}").inc()
        record = {
            "fingerprint": spec.fingerprint(),
            "run_seed": run_seed,
            "service": spec.service,
            "ft_mode": spec.ft_mode,
            "fault_class": spec.fault_class,
            "injection_point": injection_point(run_seed, spec.horizon),
            "horizon": spec.horizon,
            "outcome": outcome.value,
            "steps": steps,
            "events": recorder.events(),
            "dropped_events": recorder.dropped,
            "metrics": metrics.to_dict(),
        }
    return outcome, record


def _pool_active() -> bool:
    """Do campaign runs restore pooled systems (vs build fresh ones)?"""
    return pooling_enabled() and not tracing_enabled()


def _campaign_system(
    ft_mode: str, recovery_mode: str, instance=None, prepare=None
):
    """A system for one campaign run: pooled by default, fresh otherwise.

    Pooling reuses a per-process sealed system, dirty-restoring it to
    its post-boot state between runs — outcomes are bit-identical
    because a restored system is structurally indistinguishable from a
    fresh build (``REPRO_POOL_DEBUG=1`` verifies that per restore).
    ``instance`` selects a private pool snapshot (e.g. one cluster
    node's) instead of the process-shared one; ``prepare`` is applied
    to every build before it is sealed (e.g. the web server registering
    its application components).  Traced runs always build fresh: warm
    trace caches shift cache-hit counters that the flight recorder folds
    into per-run metrics, and trace artifacts must stay byte-identical
    serial vs parallel.
    """
    if _pool_active():
        return GLOBAL_POOL.acquire(
            ft_mode=ft_mode,
            recovery_mode=recovery_mode,
            instance=instance,
            prepare=prepare,
        )
    system = build_system(ft_mode=ft_mode, recovery_mode=recovery_mode)
    if prepare is not None:
        prepare(system)
    return system


def _drive_run(spec: RunSpec, run_seed: int, instance=None):
    """Boot (or pool-restore) a system, inject per the spec, run it.

    ``instance`` routes the run through a private instance-keyed pool
    snapshot (a cluster node's).
    """
    system = _campaign_system(
        spec.ft_mode, spec.recovery_mode, instance=instance
    )
    kernel = system.kernel
    swifi = SwifiController(kernel, seed=run_seed)
    workload = workload_for(spec.service)
    handle = workload.install(system, iterations=spec.iterations)
    swifi.arm_fault(
        spec.fault_class, spec.service,
        injection_point(run_seed, spec.horizon),
    )
    crash: Optional[BaseException] = None
    steps = 0
    try:
        steps = system.run(max_steps=MAX_STEPS)
    except SystemHang as hang:
        crash = hang
    except SimulatedFault as fault:
        crash = fault
    except ReproError as error:
        # Fuzzed interface values (idl) and mid-recovery re-faults
        # (burst) can surface library-level contract violations that are
        # not SimulatedFaults — e.g. an InvalidDescriptor escaping every
        # recovery tier, or a RecoveryError from a replay that keeps
        # re-faulting.  Those are real not-recovered outcomes of the
        # fault, not harness bugs: classify them instead of killing the
        # whole campaign.
        crash = error
    if kernel.crashed is not None and crash is None:
        crash = kernel.crashed
    outcome = classify_run(spec.ft_mode, system, swifi, handle, crash, steps)
    return outcome, system, swifi, steps, handle


def classify_run(ft_mode, system, swifi, handle, crash, steps) -> Outcome:
    """Map one finished run onto Table II's outcome taxonomy."""
    delivered = swifi.delivered_count > 0
    if crash is not None:
        kind = getattr(crash, "kind", "fault")
        if kind == "crash" or (kind == "segfault" and ft_mode == "none"):
            return Outcome.NOT_RECOVERED_SEGFAULT
        if kind == "propagated":
            return Outcome.NOT_RECOVERED_PROPAGATED
        return Outcome.NOT_RECOVERED_OTHER
    if system.kernel.budget_exhausted:
        # Livelock: latent fault kept the system spinning past the step
        # budget with live work remaining (distinguished, since the
        # budget-exhaustion bugfix, from a run that merely *finished*
        # near the budget).
        return Outcome.NOT_RECOVERED_OTHER
    workload_ok = handle.check()
    rebooted = system.booter.reboots > 0
    if rebooted:
        return Outcome.RECOVERED if workload_ok else Outcome.NOT_RECOVERED_OTHER
    if not delivered:
        # The SEU landed where the workload no longer executed in the
        # target (e.g. after its last invocation): no effect.
        return Outcome.UNDETECTED
    if workload_ok:
        return Outcome.UNDETECTED
    return Outcome.NOT_RECOVERED_OTHER


@dataclass
class CampaignResult:
    """One Table II row."""

    service: str
    counter: OutcomeCounter
    seed: int
    ft_mode: str
    fault_class: str = "reg"
    #: Wall-clock split: one-time setup (calibration, spec
    #: construction, IDL compile, pool boot + seal) vs run execution.
    #: Deliberately *not* part of :meth:`row` — the Table II artifact
    #: must stay bit-identical across machines and pooling modes;
    #: timings go to the ``.timing.json`` sidecar instead.
    setup_wall: float = 0.0
    exec_wall: float = 0.0

    @property
    def injected(self) -> int:
        return self.counter.injected

    def row(self) -> Dict[str, object]:
        c = self.counter
        return {
            "component": self.service,
            "fault_class": self.fault_class,
            "injected": c.injected,
            "recovered": c.recovered,
            "not_recovered_segfault": c.count(Outcome.NOT_RECOVERED_SEGFAULT),
            "not_recovered_propagated": c.count(Outcome.NOT_RECOVERED_PROPAGATED),
            "not_recovered_other": c.count(Outcome.NOT_RECOVERED_OTHER),
            "undetected": c.count(Outcome.UNDETECTED),
            "activation_ratio": c.activation_ratio,
            "recovery_success_rate": c.recovery_success_rate,
        }


class CampaignRunner:
    """Runs a SWIFI campaign against one target service."""

    def __init__(
        self,
        service: str,
        ft_mode: str = "superglue",
        n_faults: int = 500,
        iterations: int = DEFAULT_ITERATIONS,
        seed: int = 0,
        recovery_mode: str = "ondemand",
        fault_class: str = "reg",
    ):
        self.service = service
        self.ft_mode = ft_mode
        self.n_faults = n_faults
        self.iterations = iterations
        self.seed = seed
        self.recovery_mode = recovery_mode
        self.fault_class = fault_class
        self.workload = workload_for(service)
        self._horizon: Optional[int] = None

    # ------------------------------------------------------------------
    def calibrate(self) -> int:
        """Dry run: measure the campaign's injection horizon.

        For trace-delivered classes (reg, mem, burst) the horizon is the
        number of trace executions inside the target component; for the
        idl class it is the number of client-stub invocations of the
        target server.  The injection point is drawn uniformly from this
        horizon, which models the paper's periodic injection timer
        landing at a uniformly random instant of the workload's
        execution against the target.  Runs once per campaign; workers
        receive the result via the RunSpec.
        """
        system = _campaign_system(self.ft_mode, self.recovery_mode)
        swifi = SwifiController(system.kernel, seed=0)
        handle = self.workload.install(system, iterations=self.iterations)
        system.run(max_steps=MAX_STEPS)
        if not handle.check():
            raise RuntimeError(
                f"workload {self.workload.name} fails without faults: "
                f"{handle.results}"
            )
        if self.fault_class == "idl":
            observed = swifi.invoke_counts.get(self.service, 1)
        else:
            observed = swifi.trace_counts.get(self.service, 1)
        self._horizon = max(observed, 1)
        return self._horizon

    def spec(self) -> RunSpec:
        """The calibrated run spec (calibrating on first use)."""
        if self._horizon is None:
            self.calibrate()
        return RunSpec(
            service=self.service,
            ft_mode=self.ft_mode,
            iterations=self.iterations,
            horizon=self._horizon,
            recovery_mode=self.recovery_mode,
            fault_class=self.fault_class,
        )

    def run_seeds(self) -> List[int]:
        """The deterministic per-run seed schedule for this campaign."""
        return campaign_seeds(self.seed, self.n_faults)

    # ------------------------------------------------------------------
    def run(
        self,
        progress=None,
        workers: Optional[int] = None,
        journal: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> CampaignResult:
        """Run the campaign.

        ``workers=None`` uses one worker per CPU; ``workers > 1`` fans
        runs out over a process pool (see :mod:`repro.swifi.parallel`);
        the aggregate is bit-identical to the serial path for the same
        seed.  ``journal`` names a JSONL
        checkpoint file: completed runs are appended as they finish and
        skipped on a rerun, so an interrupted campaign resumes where it
        left off.  ``trace`` names a flight-recorder JSONL artifact:
        every run executes with tracing on and its event journal +
        metrics are appended there (outcomes are unchanged by tracing).
        """
        calibrate_start = time.perf_counter()
        spec = self.spec()
        calibrate_wall = time.perf_counter() - calibrate_start
        timing: Dict[str, float] = {}
        counter = run_campaign(
            spec,
            self.run_seeds(),
            workers=workers,
            journal=journal,
            progress=progress,
            trace=trace,
            timing=timing,
        )
        return CampaignResult(
            service=self.service,
            counter=counter,
            seed=self.seed,
            ft_mode=self.ft_mode,
            fault_class=self.fault_class,
            setup_wall=calibrate_wall + timing["setup_wall"],
            exec_wall=timing["exec_wall"],
        )


def run_full_campaign(
    services=None,
    n_faults: int = 500,
    ft_mode: str = "superglue",
    seed: int = 0,
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    trace: Optional[str] = None,
    fault_class: str = "reg",
) -> List[CampaignResult]:
    """Reproduce Table II: one campaign per target service.

    ``fault_class`` selects the injected fault model (one of
    :data:`~repro.swifi.injector.FAULT_CLASSES`) — each class is its own
    campaign column with its own outcome distribution.  One journal file
    covers the whole multi-service campaign: entries carry the run
    spec's fingerprint (which includes the fault class), so each service
    resumes only its own completed runs.  Likewise one ``trace``
    artifact accumulates the flight-recorder export of every service's
    campaign (each appends its runs and a per-campaign summary line).
    """
    from repro.idl_specs import SERVICES

    results = []
    for service in services or SERVICES:
        runner = CampaignRunner(
            service, ft_mode=ft_mode, n_faults=n_faults, seed=seed,
            fault_class=fault_class,
        )
        results.append(runner.run(workers=workers, journal=journal, trace=trace))
    return results


def format_table2(results: List[CampaignResult]) -> str:
    """Render campaign results in the shape of Table II."""
    header = (
        f"{'Component':<10}{'Injected':>9}{'Recovered':>10}"
        f"{'NR(segf)':>9}{'NR(prop)':>9}{'NR(other)':>10}{'Undetect':>9}"
        f"{'ActRatio':>10}{'SuccRate':>10}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        row = result.row()
        lines.append(
            f"{row['component']:<10}{row['injected']:>9}{row['recovered']:>10}"
            f"{row['not_recovered_segfault']:>9}"
            f"{row['not_recovered_propagated']:>9}"
            f"{row['not_recovered_other']:>10}{row['undetected']:>9}"
            f"{row['activation_ratio']:>9.2%}{row['recovery_success_rate']:>9.2%}"
        )
    return "\n".join(lines)


def write_table2_json(results: List[CampaignResult], path: str) -> None:
    """Emit the machine-readable Table II artifact: one dict per row.

    This is the format the campaign workflows upload and
    ``scripts/check_baseline.py`` checks against
    ``benchmarks/baselines/table2_<class>_smoke.json``.  Wall-clock
    timings are machine-dependent, so they go to a ``.timing.json``
    sidecar — the main artifact stays bit-identical across machines,
    worker counts, and pooling modes.
    """
    write_artifact(
        path,
        [result.row() for result in results],
        [
            {
                "component": result.service,
                "injected": result.injected,
                "setup_wall": result.setup_wall,
                "exec_wall": result.exec_wall,
            }
            for result in results
        ],
    )
