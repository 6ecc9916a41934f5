#!/usr/bin/env python3
"""Campaign throughput benchmark: SWIFI runs/sec, pooled vs fresh-build.

Two measurements:

* **campaign runs/sec** — the lock-service smoke campaign executed
  twice through the campaign-core protocol (:func:`pooled_vs_fresh`,
  which the Fig. 7 web-campaign bench shares): with
  ``REPRO_SYSTEM_POOL=0`` (build a system per run) and pooled.  Rows
  are asserted identical across both sweeps — the speedup is only
  meaningful if the pooled path is bit-exact.
* **micro-reboot restore cost** — wall time of one ``MemoryImage``
  restore when a run dirtied a handful of pages (the SWIFI steady state)
  versus every page (the worst case, equivalent to the old whole-image
  memcpy).

Standalone: ``python benchmarks/bench_campaign_throughput.py --json out.json``.
``python scripts/check_baseline.py out.json
benchmarks/baselines/campaign_throughput.json`` gates CI on the
committed baseline.
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
from repro.swifi.campaign import CampaignRunner  # noqa: E402
from repro.system import compile_all_interfaces  # noqa: E402

BASE = 0x0100_0000


#: (label, REPRO_SYSTEM_POOL) per sweep.
SWEEPS = (("fresh", "0"), ("pooled", "1"))


def pooled_vs_fresh(spec, seeds, repeat: int = 3) -> tuple:
    """Runs/sec of ``seeds`` through a campaign spec, fresh-build vs pooled.

    Each sweep executes every seed serially in-process through the
    campaign-core protocol (``spec.warm``, then ``spec.execute`` per
    seed) and keeps the best of ``repeat`` wall times.  IDL compile and
    the pooled boot + seal stay outside the timed region, as in a
    campaign worker's initializer.  Rows must be equal across repeats
    and across both sweeps: the speedup is only meaningful if the pooled
    path is bit-exact.  Returns ``(results, rows)``.
    """
    compile_all_interfaces()
    saved = os.environ.get("REPRO_SYSTEM_POOL")
    best, rows = {}, None
    try:
        for label, pool_gate in SWEEPS:
            os.environ["REPRO_SYSTEM_POOL"] = pool_gate
            spec.warm(False)
            for __ in range(repeat):
                start = time.perf_counter()
                sweep = [spec.execute(seed, None, False)[0] for seed in seeds]
                elapsed = time.perf_counter() - start
                best[label] = min(best.get(label, elapsed), elapsed)
                if rows is None:
                    rows = sweep
                elif sweep != rows:
                    raise AssertionError(
                        f"{label} sweep rows diverge from the first "
                        f"sweep's: runs are not deterministic or the pooled "
                        f"path is not bit-exact — do not trust the speedup"
                    )
    finally:
        if saved is None:
            os.environ.pop("REPRO_SYSTEM_POOL", None)
        else:
            os.environ["REPRO_SYSTEM_POOL"] = saved
    return {
        "campaign_runs": len(seeds),
        "fresh_runs_per_sec": len(seeds) / best["fresh"],
        "pooled_runs_per_sec": len(seeds) / best["pooled"],
        "pooled_over_fresh": best["fresh"] / best["pooled"],
    }, rows


def measure_campaign(n_faults: int, repeat: int = 3) -> dict:
    """Runs/sec of the lock smoke campaign: fresh-build vs pooled."""
    runner = CampaignRunner("lock", n_faults=n_faults, seed=1)
    return pooled_vs_fresh(runner.spec(), runner.run_seeds(), repeat)[0]


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
