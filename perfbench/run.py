"""Cold, layer-by-layer benchmark of the SuperGlue simulator.

Each measurement starts the workload in a fresh interpreter
(``child.py``) with every ``REPRO_*`` variable removed from its
environment, one child at a time, and times it from outside::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats cold children until ``--seconds`` have passed (at
least three) and reports the end-to-end metrics as medians over them.
``--trace 1`` alternates an untraced and a traced child and reports the
per-layer metrics, read from spans around the simulator's public entry
points, plus ``trace.overhead`` (traced over untraced wall time).

Either way a last child re-runs a seeded sample of the runs on the
fresh-build path (``REPRO_SYSTEM_POOL=0``: no pool, no recording) and
every row must match the timed children's.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--steadiness N`` instead runs each workload with seeds 1..N and prints
each host metric's median and quartile spread next to its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("table2", "fig7-open", "cluster")
SERVICES = ("sched", "mm", "ramfs", "lock", "event", "timer")

#: Host metrics of the untraced children, printed by every run.
HOST = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics (``--trace 0``): the host metrics that repeat
#: within a tenth across seeds on a shared 2-vCPU host.  The others are
#: per-layer metrics without a bound (see README.md, Steadiness).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics and units (``--trace 1``); see README.md for which
#: end-to-end metric each should move, on which workload.
PER_LAYER = {
    **{name: unit for name, unit in HOST.items() if name not in END_TO_END},
    "sim_recovery_success_rate": "ratio",
    "sim_goodput_rps": "1/s",
    "sim_p999_us": "us",
    "sim_availability": "ratio",
    "repro.import_s": "s",
    "core.compile_s": "s",
    "system.boot_s": "s",
    "system.boots": "count",
    "swifi.calibrate_s": "s",
    "system.restore_us_p50": "us",
    "memory.dirty_pages_per_run": "count",
    "kernel.run_ms_p50": "ms",
    "kernel.invocations_per_run": "count",
    "kernel.invocations_per_s": "1/s",
    "kernel.steps_per_run": "count",
    "interp.fast_ratio": "ratio",
    "interp.trace_cache_hit_ratio": "ratio",
    "booter.micro_reboots_per_run": "count",
    "booter.handle_fault_us_p50": "us",
    "stubs.recoveries_per_run": "count",
    "stubs.recover_us_p50": "us",
    "supertrace.record_s": "s",
    "supertrace.coverage": "ratio",
    "supertrace.divergences_per_run": "count",
    **{f"swifi.runs_per_s.{service}": "1/s" for service in SERVICES},
    "webserver.schedule_ms": "ms",
    "webserver.sim_requests_per_s": "1/s",
    "webserver.sim_peak_queue": "count",
    "cluster.node_boot_s": "s",
    "cluster.node_reboot_ms_p50": "ms",
    "cluster.unit_ms_p50": "ms",
    "observe.aggregate_ms": "ms",
    "trace.overhead": "ratio",
    **{
        f"self_s.{layer}": "s"
        for layer in (
            "repro.import", "run", "core.compile", "system.boot",
            "system.restore", "swifi.calibrate", "kernel.run",
            "booter.handle_fault", "stubs.recover", "webserver.schedule",
            "cluster.unit", "cluster.node_reboot", "observe.aggregate",
            "outside_spans",
        )
    },
}

MIN_CHILDREN = 3
#: A run starts no child after this many seconds, and kills any child
#: still running at ``DEADLINE_S``, so it ends inside the 180 s a run
#: may take.
HARD_LIMIT_S = 120.0
DEADLINE_S = 170.0
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(fresh: bool = False) -> dict:
    """A cold child's environment: no ``REPRO_*`` knob, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    if fresh:
        env["REPRO_SYSTEM_POOL"] = "0"
    return env


def child_seed(seed: int, index: int) -> int:
    """The workload seed of a run's ``index``-th child.

    Children of one run get different inputs, so a run's medians average
    over inputs as well as over host noise; the first child uses
    ``seed`` itself, so its rows match the CLI's for that seed.
    """
    return seed + 1000 * index


def run_child(workload, seed, tiny=False, spans=None, sample=False,
              timeout=DEADLINE_S):
    """Start one cold child, wait for it; returns its report plus timings."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    if sample:
        cmd.append("--sample")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(fresh=sample),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, __ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child timed out")
    exited = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child printed no report")
    report = json.loads(lines[-1])
    report["sample"] = sample
    report["wall_s"] = exited - spawned
    report["setup_s"] = (
        report["t_first"] - spawned if report["t_first"] else report["wall_s"]
    )
    return report


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def rows_digest(rows: dict) -> str:
    """Exact digest of every row, for comparing two commits."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def row_mismatches(reference: dict, candidate: dict) -> list:
    """Keys whose row differs between two runs of the same inputs."""
    return sorted(
        key for key in reference.keys() | candidate.keys()
        if reference.get(key) != candidate.get(key)
    )


def check(groups) -> dict:
    """Compare each reference child's rows with the other children that
    ran the same inputs (its traced twin, the fresh-build sample).

    ``groups`` is a list of ``(reference report, [other reports])``.  A
    sample child covers only some keys, so only those are compared.
    """
    attempted = failed = 0
    mismatched = []
    for reference, others in groups:
        for report in (reference, *others):
            attempted += len(report["rows"])
            failed += len(report["errors"])
        errors = set(reference["errors"])
        for report in others:
            rows = report["rows"]
            if report.get("sample"):
                expected = {k: reference["rows"].get(k) for k in rows}
            else:
                expected = reference["rows"]
            bad = [
                key for key in row_mismatches(expected, rows)
                if key not in errors and key not in report["errors"]
            ]
            failed += len(bad)
            mismatched += bad
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "digest": rows_digest(groups[0][0]["rows"]),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples):
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it (nearest rank), or the median when too few."""
    ordered = sorted(samples)
    n = len(ordered)
    chosen = 50
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= 10:
            chosen = pct
    rank = max(1, math.ceil(chosen / 100 * n))
    return chosen, ordered[rank - 1]


def host(reports) -> dict:
    """Host metrics of untraced children: medians over the children,
    except the tail, taken over all their runs pooled."""
    def runs_per_s(report):
        span = report["t_last"] - report["t_first"]
        return (len(report["runs"]) - 1) / span if span > 0 else 0.0

    def med(values):
        return statistics.median(values)

    return {
        "setup_s": med([r["setup_s"] for r in reports]),
        "wall_s": med([r["wall_s"] for r in reports]),
        "runs_per_s": med([runs_per_s(r) for r in reports]),
        "run_ms_p50": med([med([ms for __, __, ms in r["runs"]]) for r in reports]),
        "run_ms_tail": tail([ms for r in reports for __, __, ms in r["runs"]])[1],
        "peak_rss_mb": med([r["peak_rss_mb"] for r in reports]),
    }


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics: medians over traced children, host rates from
    the untraced ones."""
    metrics = {
        name: statistics.median(t["layers"].get(name, 0.0) for t in traced)
        for name in PER_LAYER
        if name.startswith("self_s.") or name in traced[0]["layers"]
    }
    metrics["self_s.outside_spans"] = statistics.median(
        t["wall_s"] - t["layers"]["spanned_s"] for t in traced
    )
    for name, value in untraced[0].get("sim", {}).items():
        if name in PER_LAYER:
            metrics[name] = value
    for service in SERVICES:
        rates = []
        for report in untraced:
            ms = [m for group, __, m in report["runs"]
                  if group.split("/")[-1] == service]
            rates.append(len(ms) / sum(ms) * 1e3 if ms else 0.0)
        metrics[f"swifi.runs_per_s.{service}"] = statistics.median(rates)
    metrics["webserver.sim_requests_per_s"] = statistics.median(
        r.get("info", {}).get("sim_requests", 0)
        / (sum(ms for __, __, ms in r["runs"]) / 1e3)
        for r in untraced
    )
    for name, value in host(untraced).items():
        if name in PER_LAYER:
            metrics[name] = value
    metrics["trace.overhead"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)
    )
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return metrics


def measure(workload, seed, seconds, trace=False, tiny=False, log=print):
    """One benchmark run; returns ``(result dict, notes)``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"simulator sources not found under {SRC}")
    start = time.monotonic()
    untraced, traced = [], []

    def elapsed():
        return time.monotonic() - start

    def child(run_seed, **kwargs):
        return run_child(workload, run_seed, tiny=tiny,
                         timeout=max(DEADLINE_S - elapsed(), 1.0), **kwargs)

    if trace:
        OUT.mkdir(exist_ok=True)
        while not traced or (
            elapsed() < seconds and elapsed() < HARD_LIMIT_S
        ):
            twin_seed = child_seed(seed, len(traced))
            untraced.append(child(twin_seed))
            spans = OUT / f"spans-{workload}-{twin_seed}.jsonl"
            traced.append(child(twin_seed, spans=spans))
    else:
        while len(untraced) < MIN_CHILDREN or (
            elapsed() < seconds and elapsed() < HARD_LIMIT_S
        ):
            untraced.append(child(child_seed(seed, len(untraced))))
    sample = child(seed, sample=True)
    groups = [(report, []) for report in untraced]
    for twin, report in zip(groups, traced):
        twin[1].append(report)
    groups[0][1].append(sample)
    verdict = check(groups)
    first = untraced[0]
    host_metrics = host(untraced)
    if trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        metrics = {name: host_metrics[name] for name in END_TO_END}
        units = END_TO_END
    pct, __ = tail([ms for r in untraced for __, __, ms in r["runs"]])
    runs = len(first["runs"])
    log(f"perfbench {workload} seed={seed}: {len(untraced)} cold children"
        f"{f' + {len(traced)} traced twins' if trace else ''}, {runs} runs"
        f" each, seeds {', '.join(str(r['seed']) for r in untraced)}")
    for name, value in metrics.items():
        log(f"  {name:<34} {value:>14.6g} {units[name]}")
    if not trace:
        for name, unit in HOST.items():
            if name not in END_TO_END:
                log(f"  (per-layer) {name:<22} {host_metrics[name]:>14.6g} "
                    f"{unit}")
    log(f"  run_ms_tail is p{pct:g} over {runs * len(untraced)} runs")
    for name, value in sorted(first.get("sim", {}).items()):
        log(f"  sim {name} = {value!r}")
    log(f"  error_rate {verdict['failed'] / verdict['attempted']:.6g} "
        f"({verdict['failed']} failed of {verdict['attempted']} attempted,"
        f" {len(sample['rows'])} re-run on fresh builds)")
    if verdict["mismatched"]:
        log(f"  MISMATCHED rows: {', '.join(verdict['mismatched'][:10])}")
    log(f"  rows digest (seed {seed}) sha256:{verdict['digest']}")
    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    notes = {
        "host": host_metrics,
        "digest": verdict["digest"],
        "sim": first.get("sim", {}),
    }
    return result, notes


# ---------------------------------------------------------------------------
# Steadiness report
# ---------------------------------------------------------------------------

def steadiness(workloads, repeats, seconds, tiny=False) -> int:
    """Run each workload with seeds 1..repeats; print median and spread."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        for entry in json.loads(spec.read_text())["end_to_end"]:
            bounds[entry["name"]] = entry["bound"]
    for workload in workloads:
        values = {}
        for seed in range(1, repeats + 1):
            result, notes = measure(
                workload, seed, seconds, tiny=tiny, log=lambda *a: None
            )
            for name, value in notes["host"].items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value:.5g}" for name, value in notes["host"].items()
            ), flush=True)
        print(f"{workload}: median [q1, q3] spread=(q3-q1)/median, bound")
        for name, series in values.items():
            median = statistics.median(series)
            q1, __, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<28} {median:>12.6g} [{q1:.6g}, {q3:.6g}] "
                  f"spread={spread:.4f} bound={bound} {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="See perfbench/README.md for what each metric means.",
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workload sizes (the benchmark's tests)")
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="repeat each workload with seeds 1..N")
    args = parser.parse_args(argv)
    try:
        if args.steadiness:
            workloads = [args.workload] if args.workload else WORKLOADS
            return steadiness(workloads, args.steadiness, args.seconds,
                              tiny=args.tiny)
        if not args.workload:
            parser.error("--workload is required")
        result, __ = measure(
            args.workload, args.seed, args.seconds,
            trace=bool(args.trace), tiny=args.tiny,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
