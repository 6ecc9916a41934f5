"""In-memory span tracing around the simulator's public layer entry points.

A traced benchmark child calls :func:`instrument` once after importing
``repro``.  It replaces each layer entry point the per-layer metrics read
with a timing wrapper that records a span -- name, start, end, parent span, run
id -- in a :class:`Tracer`.  Nothing under ``src/`` is edited: class
methods are swapped on their class, module functions in every loaded
``repro`` module that bound them.  Spans stay in memory until the child
writes them out when it ends.

A layer's *self time* is its span's duration minus the time covered by
its child spans (:func:`self_times`), so per-layer self times add up to
the traced wall time without double counting.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: One recorded span: ``[name, start, end, parent index or -1, run id, tag]``.
Span = list

#: Kernel counters summed per run from before/after deltas of each
#: ``Kernel.run`` call.
KERNEL_STATS = (
    "invocations", "steps", "micro_reboots",
    "interp_fast_runs", "interp_slow_runs",
    "trace_cache_hits", "trace_cache_misses",
    "super_trace_runs", "super_trace_bypasses",
    "super_trace_tail_runs", "super_trace_tail_records",
    "super_trace_divergences", "super_trace_divergent_units",
)


class Tracer:
    """Collects spans and per-run counters for one traced child process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Id of the run whose spans are being recorded (None between runs).
        self.run_id: Optional[str] = None
        #: run id -> counter name -> summed value.
        self.counts: Dict[Optional[str], Dict[str, int]] = {}

    def open(self, name: str, tag: object = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.run_id, tag])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def begin_run(self, run_id: str, group: str) -> int:
        """Open the top-level span of one benchmark run."""
        self.run_id = run_id
        return self.open("run", group)

    def end_run(self, index: int) -> None:
        self.close(index)
        self.run_id = None

    def count(self, name: str, value: int) -> None:
        bucket = self.counts.setdefault(self.run_id, {})
        bucket[name] = bucket.get(name, 0) + value

    def wrap(self, fn, name: str):
        """``fn`` wrapped so every call records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _replace_function(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.cluster import node as node_mod
    from repro.cluster import campaign as cluster_campaign
    from repro.composite.booter import Booter
    from repro.composite.kernel import Kernel
    from repro.core.runtime.stubs import ClientStubRuntime
    from repro.observe import metrics as metrics_mod
    from repro.swifi.campaign import CampaignRunner
    from repro.system import SystemPool, compile_all_interfaces
    from repro.webserver import campaign as web_campaign
    from repro.webserver.arrivals import ArrivalSpec

    def wrap_method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))

    def wrap_function(fn, name):
        if _replace_function(fn, tracer.wrap(fn, name)) == 0:
            raise RuntimeError(f"no module binds {fn.__qualname__}")

    wrap_function(compile_all_interfaces, "core.compile")
    wrap_function(web_campaign.aggregate_rows, "observe.aggregate")
    wrap_function(cluster_campaign.aggregate_cluster_rows, "observe.aggregate")
    wrap_function(metrics_mod.merge_metrics, "observe.aggregate")
    wrap_method(CampaignRunner, "calibrate", "swifi.calibrate")
    wrap_method(Booter, "handle_fault", "booter.handle_fault")
    for attr in ("recover_on_demand", "recover_by_old_sid", "recover_all"):
        wrap_method(ClientStubRuntime, attr, "stubs.recover")
    wrap_method(ArrivalSpec, "build", "webserver.schedule")
    wrap_method(node_mod.Node, "acquire_system", "cluster.node_acquire")
    wrap_method(node_mod.Node, "reboot", "cluster.node_reboot")
    wrap_method(node_mod.Node, "run_unit", "cluster.unit")

    pool_acquire = SystemPool.acquire

    @functools.wraps(pool_acquire)
    def acquire(pool, *args, **kwargs):
        # A first acquire per key boots and seals; later ones restore.
        # Dirty pages are counted just before the restore copies them.
        snapshot = pool.snapshot_for(*args, **kwargs)
        if snapshot is None:
            name = "system.boot"
        else:
            name = "system.restore"
            components = snapshot.system.kernel.components.values()
            tracer.count(
                "dirty_pages",
                sum(c.image.dirty_page_count for c in components),
            )
        index = tracer.open(name, kwargs.get("instance"))
        try:
            return pool_acquire(pool, *args, **kwargs)
        finally:
            tracer.close(index)

    SystemPool.acquire = acquire

    kernel_run = Kernel.run

    @functools.wraps(kernel_run)
    def run(kernel, *args, **kwargs):
        before = [kernel.stats[key] for key in KERNEL_STATS]
        index = tracer.open("kernel.run")
        try:
            return kernel_run(kernel, *args, **kwargs)
        finally:
            tracer.close(index)
            stats = kernel.stats
            for key, old in zip(KERNEL_STATS, before):
                delta = stats[key] - old
                if delta:
                    tracer.count(key, delta)

    Kernel.run = run


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, __, __ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (span[2] - span[1]) - _covered(children.get(index, []))
        for index, span in enumerate(spans)
    ]


def nesting_errors(spans: Sequence[Span]) -> List[str]:
    """Spans that end before they start or stick out of their parent."""
    errors = []
    for index, (name, start, end, parent, run_id, __) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {index} ({name}) has no valid end")
            continue
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                errors.append(f"span {index} ({name}) leaves parent {parent}")
            if spans[parent][4] != run_id:
                errors.append(f"span {index} ({name}) changes run id")
    return errors


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


#: Layers whose first-run cost is billed to themselves, not to recording.
_ONE_TIME = ("system.boot", "core.compile", "swifi.calibrate")


def summarize(tracer: Tracer, report: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced child (see ``README.md``)."""
    from repro.swifi.campaign import COVERAGE_KEYS, coverage_ratio

    spans = tracer.spans
    selfs = self_times(spans)
    n_runs = max(len(report["runs"]), 1)
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def indices(name, top=False):
        found = by_name.get(name, [])
        if top:  # drop calls nested in a call of the same layer
            found = [
                i for i in found
                if spans[i][3] < 0 or spans[spans[i][3]][0] != name
            ]
        return found

    def duration(i):
        return spans[i][2] - spans[i][1]

    def total_self(name):
        return sum(selfs[i] for i in indices(name))

    def median_duration(name, scale, top=False):
        return _median([duration(i) for i in indices(name, top)]) * scale

    def in_runs(found):
        return [i for i in found if spans[i][4] is not None]

    counts: Dict[str, int] = {}
    for run_id, bucket in tracer.counts.items():
        if run_id is None:
            continue
        for key, value in bucket.items():
            counts[key] = counts.get(key, 0) + value

    kernel_by_run: Dict[str, float] = {}
    for i in in_runs(indices("kernel.run")):
        kernel_by_run[spans[i][4]] = kernel_by_run.get(spans[i][4], 0.0) + duration(i)
    kernel_s = sum(kernel_by_run.values())

    # Recording cost: each group's first run minus the group's median
    # run, less the one-time layers that first run also paid for.
    record_s = 0.0
    runs_by_group: Dict[str, List[int]] = {}
    for i in indices("run"):
        runs_by_group.setdefault(spans[i][5], []).append(i)
    for found in runs_by_group.values():
        first = spans[found[0]][4]
        one_time = sum(
            selfs[i] for name in _ONE_TIME for i in indices(name)
            if spans[i][4] == first
        )
        record_s += (
            duration(found[0]) - _median([duration(i) for i in found])
            - one_time
        )

    fast, slow = counts.get("interp_fast_runs", 0), counts.get("interp_slow_runs", 0)
    hits = counts.get("trace_cache_hits", 0)
    misses = counts.get("trace_cache_misses", 0)
    metrics = {
        "repro.import_s": sum(duration(i) for i in indices("repro.import")),
        "core.compile_s": total_self("core.compile"),
        "system.boot_s": total_self("system.boot"),
        "system.boots": len(indices("system.boot")),
        "swifi.calibrate_s": total_self("swifi.calibrate"),
        "system.restore_us_p50": median_duration("system.restore", 1e6),
        "memory.dirty_pages_per_run": counts.get("dirty_pages", 0) / n_runs,
        "kernel.run_ms_p50": _median(list(kernel_by_run.values())) * 1e3,
        "kernel.invocations_per_run": counts.get("invocations", 0) / n_runs,
        "kernel.invocations_per_s": (
            counts.get("invocations", 0) / kernel_s if kernel_s else 0.0
        ),
        "kernel.steps_per_run": counts.get("steps", 0) / n_runs,
        "interp.fast_ratio": fast / (fast + slow) if fast + slow else 0.0,
        "interp.trace_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "booter.micro_reboots_per_run": (
            len(in_runs(indices("booter.handle_fault"))) / n_runs
        ),
        "booter.handle_fault_us_p50": median_duration(
            "booter.handle_fault", 1e6
        ),
        "stubs.recoveries_per_run": (
            len(in_runs(indices("stubs.recover", top=True))) / n_runs
        ),
        "stubs.recover_us_p50": median_duration("stubs.recover", 1e6, top=True),
        "supertrace.record_s": record_s,
        "supertrace.coverage": coverage_ratio(
            {key: counts.get(key, 0) for key in COVERAGE_KEYS}
        ),
        "supertrace.divergences_per_run": (
            counts.get("super_trace_divergences", 0) / n_runs
        ),
        "webserver.schedule_ms": median_duration("webserver.schedule", 1e3),
        "cluster.node_boot_s": sum(
            selfs[i] for i in indices("system.boot") if spans[i][5] is not None
        ),
        "cluster.node_reboot_ms_p50": median_duration(
            "cluster.node_reboot", 1e3
        ),
        "cluster.unit_ms_p50": median_duration("cluster.unit", 1e3),
        "observe.aggregate_ms": sum(
            duration(i) for i in indices("observe.aggregate", top=True)
        ) * 1e3,
    }
    for name in sorted(by_name):
        metrics[f"self_s.{name}"] = total_self(name)
    metrics["spanned_s"] = sum(
        duration(i) for i, span in enumerate(spans) if span[3] < 0
    )
    return metrics
