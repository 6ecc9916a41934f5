#!/usr/bin/env python3
"""Campaign throughput benchmark: SWIFI runs/sec, pooled vs fresh-build.

Two measurements:

* **campaign runs/sec** — the lock-service smoke campaign executed
  twice through the real per-run driver (``_drive_run``): with
  ``REPRO_SYSTEM_POOL=0`` (the old build-a-system-per-run behaviour)
  and pooled.  Outcomes are asserted identical across both sweeps — the
  speedup is only meaningful if the pooled path is bit-exact.
* **micro-reboot restore cost** — wall time of one ``MemoryImage``
  restore when a run dirtied a handful of pages (the SWIFI steady state)
  versus every page (the worst case, equivalent to the old whole-image
  memcpy).

Standalone: ``python benchmarks/bench_campaign_throughput.py --json out.json``.
``scripts/check_campaign_baseline.py`` gates CI on the committed baseline
in ``benchmarks/baselines/campaign_throughput.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.composite.memory import PAGE_WORDS, MemoryImage  # noqa: E402
from repro.swifi.campaign import CampaignRunner, _drive_run  # noqa: E402
from repro.system import GLOBAL_POOL  # noqa: E402

BASE = 0x0100_0000


def _timed_sweep(spec, seeds) -> tuple:
    """Execute every seed serially in-process; returns (elapsed, outcomes)."""
    start = time.perf_counter()
    outcomes = [_drive_run(spec, seed)[0].value for seed in seeds]
    return time.perf_counter() - start, outcomes


#: (label, REPRO_SYSTEM_POOL) per sweep.
SWEEPS = (("fresh", "0"), ("pooled", "1"))


def measure_campaign(n_faults: int, repeat: int = 3) -> dict:
    """Runs/sec of the smoke campaign: fresh-build vs pooled."""
    runner = CampaignRunner("lock", n_faults=n_faults, seed=1)
    spec = runner.spec()
    seeds = runner.run_seeds()
    saved = os.environ.get("REPRO_SYSTEM_POOL")
    try:
        results = {}
        for label, pool_gate in SWEEPS:
            os.environ["REPRO_SYSTEM_POOL"] = pool_gate
            if pool_gate == "1":
                # Boot + seal outside the timed region, as the campaign
                # worker initializer does.
                GLOBAL_POOL.acquire(
                    ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
                )
            best, outcomes = float("inf"), None
            for __ in range(repeat):
                elapsed, sweep = _timed_sweep(spec, seeds)
                best = min(best, elapsed)
                if outcomes is None:
                    outcomes = sweep
                elif sweep != outcomes:
                    raise AssertionError(
                        f"{label} sweep outcomes changed between repeats"
                    )
            results[label] = (best, outcomes)
    finally:
        if saved is None:
            os.environ.pop("REPRO_SYSTEM_POOL", None)
        else:
            os.environ["REPRO_SYSTEM_POOL"] = saved
    fresh_time, fresh_outcomes = results["fresh"]
    pooled_time, pooled_outcomes = results["pooled"]
    if pooled_outcomes != fresh_outcomes:
        raise AssertionError(
            "pooled sweep outcomes diverge from fresh-build outcomes; "
            "the pooled path is not bit-exact — do not trust the speedup"
        )
    return {
        "campaign_runs": len(seeds),
        "fresh_runs_per_sec": len(seeds) / fresh_time,
        "pooled_runs_per_sec": len(seeds) / pooled_time,
        "pooled_over_fresh": fresh_time / pooled_time,
    }


def measure_restore(repeat: int = 200) -> dict:
    """Wall cost of one image restore: sparse dirtiness vs every page."""
    image = MemoryImage(BASE)
    addr = image.alloc(8)
    image.freeze_good_image()
    n_pages = len(image._dirty)

    def time_restores(dirty_pages: int) -> float:
        best = float("inf")
        for __ in range(repeat):
            for page in range(dirty_pages):
                image.write_word(
                    image.base + page * PAGE_WORDS + (addr % PAGE_WORDS), 0xD1
                )
            start = time.perf_counter()
            image.restore()
            best = min(best, time.perf_counter() - start)
        return best

    sparse = time_restores(4)       # a SWIFI run's typical footprint
    full = time_restores(n_pages)   # the old whole-image behaviour
    return {
        "image_pages": n_pages,
        "restore_sparse_us": sparse * 1e6,
        "restore_full_us": full * 1e6,
        "restore_full_over_sparse": full / sparse,
    }


def run_benchmark(n_faults: int, repeat: int) -> dict:
    return {
        **measure_campaign(n_faults, repeat=repeat),
        **measure_restore(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faults", type=int, default=50,
                        help="injection runs per sweep (lock service)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        args.faults, args.repeat = 30, 2

    results = run_benchmark(args.faults, args.repeat)
    print(f"campaign runs/sweep    : {results['campaign_runs']}")
    print(f"fresh-build runs/sec   : {results['fresh_runs_per_sec']:,.0f}")
    print(f"pooled runs/sec        : {results['pooled_runs_per_sec']:,.0f}")
    print(f"pooled/fresh speedup   : {results['pooled_over_fresh']:.2f}x")
    print(f"restore, sparse dirty  : {results['restore_sparse_us']:,.1f} us")
    print(f"restore, all pages     : {results['restore_full_us']:,.1f} us")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
