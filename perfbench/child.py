"""One cold benchmark child: run a workload once, print a JSON report.

``run.py`` starts this script in a fresh interpreter whose environment
holds no ``REPRO_*`` variable, so the simulator runs with the defaults a
user gets.  The child calls the public per-run functions --
``CampaignRunner.spec`` + ``execute_run`` (table2),
``execute_web_run`` (fig7-open), ``execute_scenario`` (cluster) --
serially, times each call from outside, and prints one JSON object as
its last stdout line::

    python3 perfbench/child.py --workload table2 --seed 1 [--tiny]
        [--spans OUT.jsonl] [--sample]

``--spans`` traces the run (see :mod:`spans`) and writes every span to
``OUT.jsonl`` when the child ends.  ``--sample`` runs only a seeded
sample of each group's runs, for the fresh-build correctness check.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import resource
import sys
import time
import traceback

#: Full sizes.
SIZES = {
    # 6 services x 4 fault classes x 30 injections: 720 runs of 0.2-40 ms.
    "table2": {"faults": 30},
    # 4 load points x 3 seeds, 200 open-loop requests and 2 faults a run.
    "fig7-open": {"loads": (0.5, 1.0, 1.5, 2.0), "seeds": 3, "requests": 200},
    # 24 scenarios of 24 units on a 4-node cell, one correlated kill each.
    "cluster": {"scenarios": 24, "units": 24, "nodes": 4, "kills": 1},
}

#: Sizes small enough for the benchmark's own tests.
TINY_SIZES = {
    "table2": {"faults": 3},
    "fig7-open": {"loads": (1.0, 2.0), "seeds": 2, "requests": 40},
    "cluster": {"scenarios": 2, "units": 6, "nodes": 4, "kills": 1},
}

#: Runs per group that the fresh-build check re-executes.
SAMPLE_PER_GROUP = {"table2": 2, "fig7-open": 1, "cluster": 2}

FAULT_CLASSES = ("reg", "mem", "idl", "burst")


# ---------------------------------------------------------------------------
# Workload plans: (group, spec, [(run seed, thunk returning a JSON row)])
# ---------------------------------------------------------------------------

def _table2_plan(size, seed):
    from repro.idl_specs import SERVICES
    from repro.swifi import campaign

    def outcome(spec, run_seed):
        return campaign.execute_run(spec, run_seed).value

    for fault_class in FAULT_CLASSES:
        for service in SERVICES:
            runner = campaign.CampaignRunner(
                service, n_faults=size["faults"], seed=seed,
                fault_class=fault_class,
            )
            spec = runner.spec()
            yield f"{fault_class}/{service}", spec, [
                (s, functools.partial(outcome, spec, s))
                for s in runner.run_seeds()
            ]


def _fig7_plan(size, seed):
    from repro.webserver import campaign

    for load in size["loads"]:
        spec = campaign.WebRunSpec(
            n_requests=size["requests"], n_faults=2, arrivals="open",
            load=load, phases="burst", slo_us=500,
        )
        yield f"load{load:g}", spec, [
            (s, functools.partial(campaign.execute_web_run, spec, s))
            for s in campaign.web_run_seeds(seed, size["seeds"])
        ]


def _cluster_plan(size, seed):
    from repro.cluster import campaign
    from repro.cluster.cell import Cell

    spec = campaign.calibrate_cluster_spec(
        n_nodes=size["nodes"], n_kill=size["kills"], units=size["units"],
    )
    # One cell reused across scenarios, as a campaign worker does.
    cell = Cell(spec)
    yield "cell", spec, [
        (s, functools.partial(campaign.execute_scenario, spec, s, cell=cell))
        for s in campaign.cluster_run_seeds(seed, size["scenarios"])
    ]


PLANS = {
    "table2": _table2_plan,
    "fig7-open": _fig7_plan,
    "cluster": _cluster_plan,
}


# ---------------------------------------------------------------------------
# Simulated (virtual-time) results: exact for a given seed
# ---------------------------------------------------------------------------

def _rate(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _table2_sim(groups):
    from repro.swifi.classify import Outcome, OutcomeCounter

    activated = recovered = 0
    for __, __, rows in groups:
        counter = OutcomeCounter()
        for row in rows:
            counter.add(Outcome(row))
        activated += counter.activated
        recovered += counter.recovered
    return {"sim_recovery_success_rate": _rate(recovered, activated)}, {}


def _fig7_sim(groups):
    from repro.composite.scheduler import CYCLES_PER_US
    from repro.webserver import campaign

    sim = {"webserver.sim_peak_queue": 0}
    requests = 0
    for __, spec, rows in groups:
        aggregate = campaign.aggregate_rows(spec, rows)
        requests += aggregate["requests"]
        sim["webserver.sim_peak_queue"] = max(
            sim["webserver.sim_peak_queue"], aggregate["peak_outstanding"]
        )
        if spec.load == 2.0:
            sim["sim_goodput_rps"] = aggregate["goodput_rps"]
        if spec.load == 1.0:
            sim["sim_p999_us"] = (
                aggregate["latency_p999_cycles"] / CYCLES_PER_US
            )
    return sim, {"sim_requests": requests}


def _cluster_sim(groups):
    from repro.cluster import campaign
    from repro.swifi.classify import Outcome

    __, __, rows = groups[0]
    aggregate = campaign.aggregate_cluster_rows(rows)
    activated = sum(
        count for name, count in aggregate["outcomes"].items()
        if Outcome(name).activated
    )
    recovered = aggregate["outcomes"].get(Outcome.RECOVERED.value, 0)
    return {
        "sim_recovery_success_rate": _rate(recovered, activated),
        "sim_availability": aggregate["availability"],
    }, {}


SIMS = {
    "table2": _table2_sim,
    "fig7-open": _fig7_sim,
    "cluster": _cluster_sim,
}


def _sampled(seed: int, group: str, runs, k: int):
    keep = set(random.Random(f"{seed}/{group}").sample(
        range(len(runs)), min(k, len(runs))
    ))
    return [run for index, run in enumerate(runs) if index in keep]


def run_workload(workload, seed, tiny=False, sample=False, tracer=None):
    """Execute the workload serially; returns the child's report dict."""
    size = (TINY_SIZES if tiny else SIZES)[workload]
    runs, rows, errors = [], {}, []
    groups = []
    t_first = None
    for group, spec, planned in PLANS[workload](size, seed):
        if sample:
            planned = _sampled(seed, group, planned, SAMPLE_PER_GROUP[workload])
        group_rows = []
        for run_seed, execute in planned:
            key = f"{group}/{run_seed}"
            span = tracer.begin_run(key, group) if tracer else None
            start = time.perf_counter()
            try:
                row = execute()
            except Exception as exc:  # a harness error, never an outcome
                traceback.print_exc(file=sys.stderr)
                print(
                    f"perfbench: {workload} run {key} raised; repro: "
                    f"PYTHONPATH=src python3 perfbench/child.py --workload {workload} "
                    f"--seed {seed}", file=sys.stderr,
                )
                row = f"error: {type(exc).__name__}: {exc}"
                errors.append(key)
            finally:
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.end_run(span)
            runs.append([group, key, elapsed * 1e3])
            rows[key] = row
            group_rows.append(row)
            if t_first is None:
                t_first = time.monotonic()
        groups.append((group, spec, group_rows))
    report = {
        "workload": workload,
        "seed": seed,
        "t_first": t_first,
        "t_last": time.monotonic(),
        "runs": runs,
        "rows": rows,
        "errors": errors,
    }
    if not sample and not errors:
        if tracer:
            index = tracer.open("observe.aggregate")
        try:
            report["sim"], report["info"] = SIMS[workload](groups)
        finally:
            if tracer:
                tracer.close(index)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--sample", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
    import_start = time.perf_counter()
    import repro.cluster.campaign  # noqa: F401  (the three campaign layers)
    import repro.swifi.campaign  # noqa: F401
    import repro.webserver.campaign  # noqa: F401
    import_end = time.perf_counter()
    if tracer:
        tracer.spans.append(
            ["repro.import", import_start, import_end, -1, None, None]
        )
        spans.instrument(tracer)

    report = run_workload(
        args.workload, args.seed, tiny=args.tiny, sample=args.sample,
        tracer=tracer,
    )
    report["import_s"] = import_end - import_start
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if tracer:
        report["layers"] = spans.summarize(tracer, report)
        with open(args.spans, "w", encoding="utf-8") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
