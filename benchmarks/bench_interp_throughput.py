#!/usr/bin/env python3
"""Interpreter throughput benchmark: clean-trace ops/sec and invocations/sec.

Two measurements, both on the *clean* (no pending injection) path that every
SWIFI run and webserver request funnels through:

* **raw interpreter ops/sec** — a fixed, service-shaped micro-op trace
  (prologue, argument asserts, stack canary, magic check, field
  loads/stores with readback verification, checksum, epilogue) executed
  repeatedly against one ``MemoryImage``.  Measured twice: through the
  authoritative slow path (``execute_trace``) and through whatever fast
  path the tree provides (``try_execute_fast``; falls back to the slow
  path when absent, so the same benchmark runs on pre-fast-path trees).
* **end-to-end invocations/sec** — a built system running a lock
  take/release loop through the full kernel invocation path (stubs,
  capability checks, trace construction, accounting).  This is the number
  campaign throughput scales with.

Standalone: ``python benchmarks/bench_interp_throughput.py --json out.json``.
``python scripts/check_baseline.py out.json
benchmarks/baselines/interp_throughput.json`` gates CI on the committed
baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.composite.machine import (  # noqa: E402
    EAX,
    EBP,
    EBX,
    ECX,
    EDX,
    EDI,
    ESI,
    ESP,
    RegisterFile,
    Trace,
    execute_trace,
)
from repro.composite.memory import MemoryImage  # noqa: E402

try:  # Fast path exists only after the trace-compiler PR.
    from repro.composite.fastpath import try_execute_fast
except ImportError:  # pragma: no cover - pre-change measurement mode
    try_execute_fast = None

BASE = 0x0100_0000


def build_service_style_trace(image: MemoryImage) -> Trace:
    """A trace shaped like ``_CheckedTraceBuilder`` output for a touch op."""
    record = image.alloc_record(0x5EC0FFEE, 4)
    for off, value in enumerate((7, 3, 0, 42), start=1):
        image.write_word(record + off, value)
    digest = 0xCAFE57AC
    trace = Trace("bench_touch")
    trace.entry_regs = {
        EAX: record, EBX: 11, ECX: 22, EDX: 33, ESI: 44, EDI: digest,
    }
    trace.prologue()
    for reg, word in ((EBX, 11), (ECX, 22), (EDX, 33), (ESI, 44)):
        trace.assert_range(reg, word, word)
    trace.assert_range(EDI, digest, digest)
    trace.push(EDI)
    trace.chk(EAX, 0, 0x5EC0FFEE)
    # Field loads with value assertions, a store with readback, and two
    # re-verification rounds — the standard high-liveness skeleton.
    for __ in range(3):
        for off, value in ((1, 7), (2, 3), (4, 42)):
            trace.ld(EBX, EAX, off)
            trace.assert_range(EBX, value, value)
    trace.li(EDI, 9)
    trace.st(EDI, EAX, 3)
    trace.ld(EDX, EAX, 3)
    trace.assert_range(EDX, 9, 9)
    trace.pop(EDI)
    trace.assert_range(EDI, digest, digest)
    frame = (image.stack_top - 1) & 0xFFFFFFFF
    trace.assert_range(ESP, frame, frame)
    trace.assert_range(EBP, frame, frame)
    trace.add(EDI, EBX)
    trace.xor(EDI, EDI)
    trace.chk(EAX, 0, 0x5EC0FFEE)
    trace.li(EAX, 0)
    trace.epilogue(EAX)
    return trace


def _fresh_regs(image: MemoryImage, trace: Trace) -> RegisterFile:
    regs = RegisterFile()
    regs.write(ESP, image.stack_top)
    regs.write(EBP, image.stack_top)
    for reg, value in trace.entry_regs.items():
        regs.write(reg, value)
    return regs


def measure_raw(n_execs: int, repeat: int = 3) -> dict:
    """Ops/sec of the slow path and of the fast path (if present)."""
    image = MemoryImage(BASE, 4096)
    trace = build_service_style_trace(image)
    n_ops = len(trace.ops)

    def time_path(run) -> float:
        best = float("inf")
        entry = list(trace.entry_regs.items())
        for __ in range(repeat):
            regs = _fresh_regs(image, trace)
            write = regs.write
            start = time.perf_counter()
            for __ in range(n_execs):
                # Per-invocation entry-register delivery, as in
                # Component.execute.
                for reg, value in entry:
                    write(reg, value)
                run(regs)
            best = min(best, time.perf_counter() - start)
        return best

    slow = time_path(lambda regs: execute_trace(trace, regs, image))
    if try_execute_fast is not None:
        def fast_once(regs):
            result = try_execute_fast(trace, regs, image, "bench")
            if result is None:  # pragma: no cover - fast path gated off
                result = execute_trace(trace, regs, image)
            return result

        # Warm outside the timing: a novel op tuple must prove
        # NOVEL_COMPILE_RUNS clean executions before the fast path
        # compiles it (cached tuples attach on the second).
        from repro.composite.fastpath import NOVEL_COMPILE_RUNS

        for __ in range(NOVEL_COMPILE_RUNS + 1):
            fast_once(_fresh_regs(image, trace))
            if trace._compiled is not None:
                break
        fast = time_path(fast_once)
    else:
        fast = slow
    return {
        "trace_ops": n_ops,
        "executions": n_execs,
        "slow_ops_per_sec": n_ops * n_execs / slow,
        "fast_ops_per_sec": n_ops * n_execs / fast,
        "fast_over_slow": slow / fast,
    }


def measure_invocations(iterations: int, repeat: int = 3) -> dict:
    """End-to-end invocations/sec of a lock take/release loop."""
    from repro.composite.thread import Invoke
    from repro.system import build_system

    def one_run() -> tuple:
        system = build_system(ft_mode="superglue")

        def body(sys_, thread):
            lock_id = yield Invoke("lock", "lock_alloc", "app0")
            for __ in range(iterations):
                yield Invoke("lock", "lock_take", "app0", lock_id)
                yield Invoke("lock", "lock_release", "app0", lock_id)

        system.kernel.create_thread("bench", prio=5, home="app0", body_factory=body)
        start = time.perf_counter()
        system.run(max_steps=10 * iterations + 100)
        elapsed = time.perf_counter() - start
        return system.kernel.stats["invocations"], elapsed

    best_rate, invocations = 0.0, 0
    for __ in range(repeat):
        invocations, elapsed = one_run()
        best_rate = max(best_rate, invocations / elapsed)
    return {
        "lock_iterations": iterations,
        "invocations": invocations,
        "invocations_per_sec": best_rate,
    }


def run_benchmark(n_execs: int, iterations: int, repeat: int) -> dict:
    raw = measure_raw(n_execs, repeat=repeat)
    e2e = measure_invocations(iterations, repeat=repeat)
    return {**raw, **e2e}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--execs", type=int, default=3000,
                        help="raw-path trace executions per timing run")
    parser.add_argument("--iterations", type=int, default=400,
                        help="lock take/release pairs for the e2e measure")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        args.execs, args.iterations = 1000, 150

    results = run_benchmark(args.execs, args.iterations, args.repeat)
    print(f"trace ops/exec        : {results['trace_ops']}")
    print(f"slow path ops/sec     : {results['slow_ops_per_sec']:,.0f}")
    print(f"fast path ops/sec     : {results['fast_ops_per_sec']:,.0f}")
    print(f"fast/slow speedup     : {results['fast_over_slow']:.2f}x")
    print(f"invocations/sec (e2e) : {results['invocations_per_sec']:,.0f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
