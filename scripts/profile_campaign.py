#!/usr/bin/env python3
"""Profile a SWIFI campaign: per-phase wall breakdown + hot call sites.

Usage:  python scripts/profile_campaign.py [--service lock] [--faults 50]
                [--seed 0] [--sort cumulative] [--top 25] [--no-phases]
                [--memory]

Two views of the same campaign, both single-process (workers=1, so the
numbers cover the actual work instead of pool plumbing):

* a **per-phase wall breakdown** — one-time setup costs (IDL compile,
  pooled boot + seal) and the per-run split across pool restore, SWIFI
  setup, workload install, arming, and the run itself — the view that
  sized the system pool;
* the classic **cProfile table** of hot call sites — the tool that
  motivated the two-tier execution engine: before it, ``execute_trace``
  dominated every profile; after, the interpreter drops below the
  stub/kernel bookkeeping.

``--memory`` replaces both with a **memory view** of the same campaign
under ``tracemalloc``: the bytes still held after importing the three
campaign layers against the bytes the campaign added on top, the
process's peak RSS (``ru_maxrss``), which process-pool modules got
loaded, the live component images, and the top allocation sites by
line of everything still held at the end.  That is the tool that sized
the sparse good images.  An image's live words are a private anonymous
mapping, which ``tracemalloc`` does not see, so the images get their own
line: how many are live, the KiB they map, and the OS pages written
since each was created (demand-zero, so those are the pages the kernel
had to back).

Every view also prints how many tier-2 fast-path programs the campaign
built and how many trace shapes it compiled for them (module counters in
``repro.composite.fastpath``; each shape is one ``builtins.compile``), so
a regression in compile count shows up here.

Also available as ``make profile`` (SERVICE/FAULTS overridable; add
``MEMORY=1`` for the memory view).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import mmap
import pstats
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

#: Modules a serial campaign should never load (see swifi/parallel.py).
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def fastpath_builds() -> dict:
    """Snapshot of the tier-2 build counters (``fastpath.BUILD_COUNTS``)."""
    from repro.composite import fastpath

    return dict(fastpath.BUILD_COUNTS)


def builds_line(before: dict) -> str:
    """Programs built and shapes compiled since the ``before`` snapshot.

    A shape is one ``builtins.compile``; every other program is a call
    of its shape's memoised factory.  Counts are per campaign in this
    process, so only the first campaign profiled starts cold.
    """
    now = fastpath_builds()
    return (
        "fast-path programs built / shapes compiled: "
        f"{now['programs'] - before['programs']} / "
        f"{now['shapes'] - before['shapes']}"
    )


def image_footprint() -> str:
    """Live ``MemoryImage`` count, mapped KiB and written OS pages."""
    from repro.composite.memory import MemoryImage

    gc.collect()  # count reachable images only, not pending garbage
    images = [obj for obj in gc.get_objects() if isinstance(obj, MemoryImage)]
    mapped = sum(4 * image.size for image in images)
    written = sum(image.written_os_pages for image in images)
    return (
        f"{len(images)} live, {mapped / 1024:.1f} KiB mapped, "
        f"{written} OS pages written ({written * mmap.PAGESIZE / 1024:.1f} KiB)"
    )


def phase_breakdown(service: str, n_faults: int, seed: int) -> None:
    """Print setup and per-run phase wall times for one smoke campaign.

    Mirrors ``_drive_run`` step by step with a timer around each phase —
    duplicated here (not instrumented in the hot path) so the campaign
    itself pays zero overhead for the existence of this tool.
    """
    from repro.errors import (
        BlockThread, ReproError, SimulatedFault, SystemHang,
    )
    from repro.swifi.campaign import (
        MAX_STEPS,
        _arm_for_class,
        _campaign_system,
        classify_run,
        injection_point,
    )
    from repro.swifi.campaign import CampaignRunner
    from repro.swifi.injector import SwifiController
    from repro.system import (
        GLOBAL_POOL, compile_all_interfaces, pooling_enabled,
    )
    from repro.workloads import workload_for

    runner = CampaignRunner(service, n_faults=n_faults, seed=seed)
    spec = runner.spec()
    seeds = runner.run_seeds()

    setup = {}
    start = time.perf_counter()
    if spec.ft_mode == "superglue":
        compile_all_interfaces()
    setup["idl compile"] = time.perf_counter() - start
    start = time.perf_counter()
    if pooling_enabled():
        GLOBAL_POOL.acquire(
            ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
        )
    setup["pool boot + seal"] = time.perf_counter() - start

    order = (
        "pool restore", "swifi setup", "workload install", "arm", "run",
        "classify",
    )
    phases = dict.fromkeys(order, 0.0)

    def tick(phase: str, since: float) -> float:
        now = time.perf_counter()
        phases[phase] += now - since
        return now

    builds = fastpath_builds()
    for run_seed in seeds:
        t = time.perf_counter()
        system = _campaign_system(spec.ft_mode, spec.recovery_mode)
        t = tick("pool restore", t)
        kernel = system.kernel
        swifi = SwifiController(kernel, seed=run_seed)
        t = tick("swifi setup", t)
        workload = workload_for(spec.service)
        handle = workload.install(system, iterations=spec.iterations)
        t = tick("workload install", t)
        _arm_for_class(swifi, spec, injection_point(run_seed, spec.horizon))
        t = tick("arm", t)
        crash, steps = None, 0
        try:
            steps = system.run(max_steps=MAX_STEPS)
        except (SystemHang, SimulatedFault, ReproError, BlockThread) as exc:
            crash = exc
        t = tick("run", t)
        if kernel.crashed is not None and crash is None:
            crash = kernel.crashed
        classify_run(spec.ft_mode, system, swifi, handle, crash, steps)
        tick("classify", t)

    total = sum(phases.values())
    print(f"per-phase wall breakdown ({len(seeds)} runs):")
    print("  one-time setup:")
    for name, elapsed in setup.items():
        print(f"    {name:22s} {elapsed * 1e3:10.1f} ms")
    print("  per run:")
    for name in order:
        mean_us = phases[name] / len(seeds) * 1e6
        share = phases[name] / total * 100 if total else 0.0
        print(f"    {name:22s} {mean_us:10.1f} us  {share:5.1f}%")
    rate = len(seeds) / total if total else 0.0
    print(f"    {'total':22s} {total / len(seeds) * 1e6:10.1f} us  "
          f"({rate:,.0f} runs/s)")
    print(f"  {builds_line(builds)}")
    print()


def memory_profile(service: str, n_faults: int, seed: int, top: int) -> None:
    """Print import vs run bytes, peak RSS and the top allocation sites.

    ``tracemalloc`` starts before ``repro`` is imported, so the import
    share covers every module the three campaign layers load — the
    same imports the cold benchmark times.
    """
    tracemalloc.start()
    import repro.cluster.campaign  # noqa: F401
    import repro.swifi.campaign
    import repro.webserver.campaign  # noqa: F401

    imported, __ = tracemalloc.get_traced_memory()
    runner = repro.swifi.campaign.CampaignRunner(
        service, n_faults=n_faults, seed=seed
    )
    builds = fastpath_builds()
    result = runner.run(workers=1)
    built = builds_line(builds)
    held, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    tracemalloc.stop()
    images = image_footprint()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    counts = {o.value: c for o, c in result.counter.counts.items()}
    print(f"campaign: service={service} faults={n_faults} seed={seed} "
          f"outcomes={counts}")
    print(f"{built}\n")
    print("memory (tracemalloc, bytes still held):")
    print(f"  after import          {imported / 1024:10.1f} KiB")
    print(f"  added by the run      {(held - imported) / 1024:10.1f} KiB")
    print(f"  traced peak           {peak / 1024:10.1f} KiB")
    print(f"  ru_maxrss             {maxrss_kb / 1024:10.1f} MiB")
    print(f"  images (untraced)     {images}")
    loaded = [name for name in POOL_MODULES if name in sys.modules]
    print(f"  process-pool modules  {', '.join(loaded) or 'none loaded'}")
    print(f"\ntop {top} allocation sites by line (held at the end):")
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        print(f"  {stat.size / 1024:10.1f} KiB {stat.count:8d} blocks  "
              f"{frame.filename}:{frame.lineno}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--service", default="lock",
                        help="target service (default: lock)")
    parser.add_argument("--faults", type=int, default=50,
                        help="number of injected faults (default: 50)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"])
    parser.add_argument("--top", type=int, default=25,
                        help="rows of profile output (default: 25)")
    parser.add_argument("--no-phases", action="store_true",
                        help="skip the per-phase wall breakdown")
    parser.add_argument("--memory", action="store_true",
                        help="memory view under tracemalloc instead of "
                             "the wall-clock views")
    args = parser.parse_args(argv)

    if args.memory:
        memory_profile(args.service, args.faults, args.seed, args.top)
        return 0
    from repro.swifi.campaign import CampaignRunner

    if not args.no_phases:
        phase_breakdown(args.service, args.faults, args.seed)

    runner = CampaignRunner(
        args.service, n_faults=args.faults, seed=args.seed
    )
    builds = fastpath_builds()
    profiler = cProfile.Profile()
    profiler.enable()
    result = runner.run(workers=1)
    profiler.disable()

    counts = {o.value: c for o, c in result.counter.counts.items()}
    print(f"campaign: service={args.service} faults={args.faults} "
          f"seed={args.seed} outcomes={counts}")
    print(f"{builds_line(builds)}\n")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
