"""``ab``-style and open-loop load generators (Section V-E).

"During each test, ab sends 50000 requests with a maximum of 10 requests
concurrently to the server."  The closed-loop generator runs as a thread
in a *different* component than the server (requests arrive over the
event manager's global descriptors, as network interrupts would), keeps
at most ``concurrency`` requests outstanding, and measures throughput in
virtual time.

The closed-loop shape hides overload by construction: bounded
outstanding requests mean arrivals *wait* for a slow server, so a
recovery storm shows up as a throughput dip but never as queue growth.
:class:`OpenLoopGenerator` submits requests at virtual-time arrival
instants from an :class:`~repro.webserver.arrivals.ArrivalSpec` —
Poisson arrivals, phase schedules, bounded-Pareto sizes — regardless of
backlog, and the run is scored against a tail-latency SLO (goodput =
requests answered within deadline).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.composite.scheduler import CYCLES_PER_US
from repro.composite.thread import Invoke, Sleep, Yield
from repro.errors import ReproError, SimulatedFault, SystemHang
from repro.swifi.injector import SwifiController
from repro.system import build_system
from repro.webserver.arrivals import Arrival, ArrivalSpec
from repro.webserver.http import build_request
from repro.webserver.server import DEFAULT_SITE, WebServer

#: Services cycled through by the fault-injection variant ("injecting
#: faults into one system-level component every 10 seconds").  The
#: cycle deliberately differs from the full system-service list in two
#: ways; both are exposure-derived, not typos:
#:
#: * ``ramfs`` appears twice.  It is by far the hottest service on the
#:   request path (every request performs at least one tseek + tread;
#:   weighted open-loop requests multiply that), so the paper's
#:   uniform-over-*time* injection lands disproportionately often in
#:   the filesystem.  Doubling its share of the uniform-over-*cycle*
#:   schedule approximates that exposure weighting.
#: * ``sched`` is absent.  Register SEUs are delivered only to a thread
#:   *executing within* the target component, and web-path threads
#:   never execute traces inside the scheduler component (trace-count
#:   audits of the request path show lock/app/event/ramfs/mm/timer
#:   executions only) — an armed sched fault would never fire and would
#:   silently deflate ``faults_delivered``.
#:
#: ``tests/test_webserver_campaign.py`` pins both properties; change
#: them together or not at all.
FAULT_TARGET_CYCLE = ["ramfs", "lock", "event", "mm", "timer", "ramfs"]


@dataclass
class LoadResult:
    """Measured outcome of one web-server run."""

    requests: int
    served: int
    errors: int
    duration_cycles: int
    reboots: int
    ft_mode: str
    faults_injected: int = 0
    #: How many faults were actually armed.  Under stalled progress the
    #: injection schedule can arm fewer than requested; reporting only
    #: deliveries would let under-injection masquerade as a clean run.
    faults_armed: int = 0
    #: Scheduler steps consumed by the run (also when it hangs: the
    #: kernel accumulates its step counter on *every* exit path).
    steps: int = 0
    #: Terminal condition when the run did not complete cleanly:
    #: ``"hang"`` (deadlock), ``"<kind>:<component>"`` (unrecovered
    #: fault), ``"exhausted"`` (step budget), else ``None``.
    crashed: Optional[str] = None
    #: (clock, served) progress samples.
    series: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-request latency in virtual cycles, completion order.
    latencies: List[int] = field(default_factory=list)
    #: High-water mark of submitted-but-unanswered requests.  Closed
    #: loop caps this at the concurrency; open loop grows it without
    #: bound under overload — it is the queue-growth signal.
    peak_outstanding: int = 0
    #: Open-loop runs only: True when driven by an ArrivalSpec.
    open_loop: bool = False
    #: SLO deadline in virtual cycles (None = no SLO scored).
    slo_cycles: Optional[int] = None
    #: Served requests whose arrival->response latency met the SLO.
    slo_ok: int = 0

    @property
    def duration_us(self) -> float:
        return self.duration_cycles / CYCLES_PER_US

    @property
    def throughput_rps(self) -> float:
        """Requests per virtual second."""
        if self.duration_cycles == 0:
            return 0.0
        return self.served / (self.duration_cycles / (CYCLES_PER_US * 1e6))

    @property
    def slo_miss(self) -> int:
        """Requests that arrived but missed the SLO: answered late *or*
        never answered at all (a dropped request is the worst miss)."""
        if self.slo_cycles is None:
            return 0
        return self.requests - self.slo_ok

    @property
    def goodput_rps(self) -> float:
        """SLO-meeting responses per virtual second (open-loop score).

        Falls back to raw throughput when no SLO was scored.
        """
        if self.slo_cycles is None:
            return self.throughput_rps
        if self.duration_cycles == 0:
            return 0.0
        return self.slo_ok / (self.duration_cycles / (CYCLES_PER_US * 1e6))

    def dip_recovery_cycles(self, window: int = 50) -> Optional[int]:
        """How long throughput stayed depressed around the worst dip.

        Slides a ``window``-completion window over the progress series
        and returns the widest virtual-time span any window covers — the
        recovery disturbance: a micro-reboot mid-run stretches the
        windows that straddle it.  ``window=2`` degenerates to the
        single worst inter-completion gap.  Returns ``None`` when fewer
        than ``window`` samples exist (a span over a partial window
        would understate the disturbance).
        """
        if window < 2 or len(self.series) < window:
            return None
        return max(
            self.series[i + window - 1][0] - self.series[i][0]
            for i in range(len(self.series) - window + 1)
        )


class LoadGenerator:
    """Drives a web server with a bounded-concurrency request stream."""

    def __init__(
        self,
        n_requests: int = 2_000,
        concurrency: int = 10,
        client_home: str = "app1",
    ):
        self.n_requests = n_requests
        self.concurrency = concurrency
        self.client_home = client_home

    def install(self, system, server: WebServer) -> None:
        paths = itertools.cycle(sorted(DEFAULT_SITE))

        def body(sys_, thread):
            while server.evt_conn is None:
                yield Yield()
            sent = 0
            while sent < self.n_requests:
                # ab's "10 concurrent" bounds *outstanding* requests:
                # submitted and not yet responded to, whether queued or
                # in a worker.  Counting only the queue let up to
                # concurrency + n_workers requests be in flight.
                if server.outstanding >= self.concurrency:
                    yield Yield()
                    continue
                server.submit(build_request("/" + next(paths)))
                sent += 1
                yield Invoke(
                    "event", "evt_trigger", self.client_home, server.evt_conn
                )
            server.stop()
            # Nudge any workers still parked on the connection event.
            for __ in range(server.n_workers):
                yield Invoke(
                    "event", "evt_trigger", self.client_home, server.evt_conn
                )

        system.kernel.create_thread(
            "loadgen", prio=5, home=self.client_home, body_factory=body
        )


class OpenLoopGenerator:
    """Submits requests at their arrival instants, backlog be damned.

    The arrival schedule is a pure function of the
    :class:`~repro.webserver.arrivals.ArrivalSpec` (never of the SWIFI
    run seed), shifted so its origin is the instant the server finishes
    initializing.  Between arrivals the generator thread *sleeps* on
    the virtual clock (a kernel :class:`~repro.composite.thread.Sleep`,
    not a timer-service invocation), so pacing consumes none of the
    simulated CPU the offered load is calibrated against — the
    generator models the NIC, and arrivals are interrupts from outside
    the system.  It runs at a higher priority than the workers for the
    same reason: a busy server cannot delay an interrupt.

    Each submission is back-dated to its schedule instant
    (``server.submit(..., at=due)``), so latency — and therefore the
    SLO — is measured from *arrival*, queueing delay included.
    """

    def __init__(self, spec: ArrivalSpec, client_home: str = "app1"):
        self.spec = spec
        self.client_home = client_home
        #: The built schedule (populated by :meth:`install`).
        self.arrivals: List[Arrival] = []

    def install(self, system, server: WebServer) -> None:
        self.arrivals = self.spec.build(tuple(sorted(DEFAULT_SITE)))
        kernel = system.kernel

        def body(sys_, thread):
            while server.evt_conn is None:
                yield Yield()
            base = kernel.clock.now
            for arrival in self.arrivals:
                due = base + arrival.at
                if kernel.clock.now < due:
                    yield Sleep(due)
                server.submit(
                    build_request("/" + arrival.path, weight=arrival.weight),
                    at=due,
                )
                yield Invoke(
                    "event", "evt_trigger", self.client_home, server.evt_conn
                )
            server.stop()
            # Nudge any workers still parked on the connection event.
            for __ in range(server.n_workers):
                yield Invoke(
                    "event", "evt_trigger", self.client_home, server.evt_conn
                )

        kernel.create_thread(
            "loadgen-open", prio=4, home=self.client_home, body_factory=body
        )


def run_webserver(
    ft_mode: str = "superglue",
    n_requests: int = 2_000,
    concurrency: int = 10,
    n_workers: int = 2,
    with_faults: bool = False,
    n_faults: int = 6,
    seed: int = 0,
    max_steps: int = 5_000_000,
    system=None,
    warn_shortfall: bool = True,
    arrival_spec: Optional[ArrivalSpec] = None,
    slo_us: Optional[int] = None,
    fault_class: str = "reg",
) -> LoadResult:
    """Build a system, serve ``n_requests``, and measure throughput.

    With ``with_faults``, ``n_faults`` faults of ``fault_class`` are
    spread across the run, each targeting the next service in
    :data:`FAULT_TARGET_CYCLE` — the paper's "one crash injected every
    10 seconds into a different system-level component", rescaled to
    the simulated run length.

    ``arrival_spec`` switches the run open-loop: requests are submitted
    at the spec's virtual-time arrival instants (``n_requests`` and
    ``concurrency`` are ignored in favor of the spec), and ``slo_us``
    scores each response against an arrival-to-response deadline.
    ``slo_us`` may also be given for closed-loop runs.

    ``system`` lets callers (the pooled campaign path) supply a
    pre-built system; the web-server application components must already
    be registered on it (see
    :func:`repro.webserver.server.register_webserver_components`).
    """
    if system is None:
        system = build_system(ft_mode=ft_mode)
    if arrival_spec is not None:
        n_requests = arrival_spec.n_requests
    server = WebServer(system, home="app0", n_workers=n_workers)
    server.install()
    if arrival_spec is not None:
        generator = OpenLoopGenerator(arrival_spec, client_home="app1")
    else:
        generator = LoadGenerator(
            n_requests=n_requests, concurrency=concurrency,
            client_home="app1",
        )
    generator.install(system, server)

    swifi = None
    armed = {"count": 0}
    if with_faults:
        swifi = SwifiController(system.kernel, seed=seed)
        gap = max(n_requests // (n_faults + 1), 1)
        targets = iter(
            [FAULT_TARGET_CYCLE[i % len(FAULT_TARGET_CYCLE)] for i in range(n_faults)]
        )
        last_armed = {"served": 0}

        def arm_on_progress(served: int) -> None:
            if served - last_armed["served"] >= gap:
                last_armed["served"] = served
                target = next(targets, None)
                if target is not None:
                    swifi.arm_fault(fault_class, target)
                    armed["count"] += 1

        server.on_served = arm_on_progress

    kernel = system.kernel
    crashed: Optional[str] = None
    # The kernel folds each run's step count into stats["steps"] on
    # every exit path (its run loop increments inside a finally), so a
    # before/after delta survives a SystemHang — which used to be
    # reported as steps=0, hiding how much work a deadlocked run burned.
    steps_before = kernel.stats["steps"]
    try:
        steps = system.run(max_steps=max_steps)
    except SystemHang:
        crashed = "hang"
        steps = kernel.stats["steps"] - steps_before
    except SimulatedFault as fault:
        crashed = f"{fault.kind}:{fault.component}"
        steps = kernel.stats["steps"] - steps_before
    except ReproError as error:
        # Fuzzed interface values (idl) and mid-recovery re-faults
        # (burst) can surface contract violations that escape every
        # recovery tier — a real not-recovered outcome of the fault,
        # classified like the SWIFI campaigns classify it.
        crashed = f"error:{type(error).__name__}"
        steps = kernel.stats["steps"] - steps_before
    if crashed is None:
        if kernel.crashed is not None:
            crashed = f"{kernel.crashed.kind}:{kernel.crashed.component}"
        elif kernel.budget_exhausted:
            crashed = "exhausted"
    if with_faults and warn_shortfall and armed["count"] < n_faults:
        print(
            f"run_webserver: armed only {armed['count']}/{n_faults} faults "
            f"(progress stalled at {server.served}/{n_requests} served)",
            file=sys.stderr,
        )
    # Duration is *progress* time: the clock of the last completed
    # response.  A run that crashed before serving anything has made
    # zero progress — ``kernel.clock.now`` would credit boot, arming,
    # and post-crash idling as serving time and turn 0 served / big
    # duration into a plausible-looking (tiny) throughput instead of
    # the honest 0/0.
    end = server.samples[-1][0] if server.samples else 0
    slo_cycles: Optional[int] = None
    slo_ok = 0
    if slo_us is not None:
        slo_cycles = int(slo_us) * CYCLES_PER_US
        slo_ok = sum(1 for lat in server.latencies if lat <= slo_cycles)
    return LoadResult(
        requests=n_requests,
        served=server.served,
        errors=server.errors,
        duration_cycles=end,
        reboots=system.booter.reboots,
        ft_mode=ft_mode,
        faults_injected=len(swifi.delivered) if swifi else 0,
        faults_armed=armed["count"],
        steps=steps,
        crashed=crashed,
        series=server.samples,
        latencies=server.latencies,
        peak_outstanding=server.peak_outstanding,
        open_loop=arrival_spec is not None,
        slo_cycles=slo_cycles,
        slo_ok=slo_ok,
    )
