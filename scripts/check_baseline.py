#!/usr/bin/env python3
"""Check a benchmark or campaign artifact against its committed baseline.

Usage:  python scripts/check_baseline.py ARTIFACT BASELINE [--tolerance F]

BASELINE is one of ``benchmarks/baselines/*.json``; ARTIFACT is the
``--json`` output of the command that baseline gates.  The rules are
the baseline's own keys:

* ``[lo, hi]`` — a band on the artifact's value of that key;
* ``min_<k>`` / ``max_<k>`` — a floor / cap on the artifact's key ``k``;
* ``recorded`` — absolute rates, each a floor ``tolerance`` below its
  recorded value (``--tolerance``, else the baseline's
  ``default_tolerance``).  Absolute rates vary across machines, so
  these catch order-of-magnitude regressions; the ratio floors, both
  sides measured on one host, are the machine-independent gate;
* ``params`` / ``points`` — virtual-time outcomes, a pure function of
  (spec, seed): integers must match exactly and floats to a relative
  epsilon of 1e-9 (libm ``log``/``pow`` may differ in the last bit).

The rules under ``bounds`` apply to each service's row of a Table II
artifact (a list of rows keyed by ``component``, each also matching the
baseline's ``fault_class`` and ``faults_per_service``), or to the
``aggregate`` of a cluster artifact (whose ``fingerprint`` and scenario
count must match, and whose every scenario must satisfy the structural
failover invariants).

Exits 0 when every rule holds, 1 on any violation, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

#: Generous against last-ulp libm drift, tiny against real change: the
#: smallest behavioural difference (one request crossing the SLO) moves
#: open-loop goodput by ~0.2%.
REL_EPS = 1e-9

#: Baseline keys compared exactly, value for value.
EXACT_KEYS = ("params", "points")


def _fmt(value) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


class Checker:
    """Counts the rules applied and collects every violation."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list = []

    def limits(self, where: str, obj, rules: dict) -> None:
        """Apply every band / ``min_`` / ``max_`` rule in ``rules``."""
        for key, bound in rules.items():
            if isinstance(bound, list):
                name, kind = key, "band"
            else:
                kind, __, name = key.partition("_")
                if kind not in ("min", "max") or not name:
                    continue
            self.checked += 1
            value = obj.get(name) if isinstance(obj, dict) else None
            if value is None:
                self.failures.append(f"{where}{name}: missing from artifact")
                continue
            if kind == "band":
                ok, rule = bound[0] <= value <= bound[1], f"in {bound}"
            elif kind == "min":
                ok, rule = value >= bound, f">= {_fmt(bound)}"
            else:
                ok, rule = value <= bound, f"<= {_fmt(bound)}"
            print(f"{where + name:36s} {_fmt(value):>12}  "
                  f"{'ok  ' if ok else 'FAIL'}  (want {rule})")
            if not ok:
                self.failures.append(f"{where}{name} {_fmt(value)}, "
                                     f"want {rule}")

    def exact(self, path: str, got, want) -> None:
        """Recursive exact comparison (floats to ``REL_EPS``)."""
        if isinstance(want, dict):
            if not isinstance(got, dict):
                self.failures.append(f"{path}: expected object, got {got!r}")
                return
            for key in [*want, *(key for key in got if key not in want)]:
                if key not in got:
                    self.failures.append(f"{path}.{key}: missing from artifact")
                elif key not in want:
                    self.failures.append(f"{path}.{key}: not in baseline")
                else:
                    self.exact(f"{path}.{key}", got[key], want[key])
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                self.failures.append(f"{path}: length/shape mismatch")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                self.exact(f"{path}[{i}]", g, w)
        elif isinstance(want, float):
            if isinstance(got, bool) or not isinstance(got, (int, float)) \
                    or not math.isclose(got, want, rel_tol=REL_EPS,
                                        abs_tol=REL_EPS):
                self.failures.append(f"{path}: {got!r} != {want!r} "
                                     f"(float epsilon)")
        elif type(got) is not type(want) or got != want:
            self.failures.append(f"{path}: {got!r} != {want!r} (exact)")

    def table2(self, rows: list, baseline: dict) -> None:
        """Per-service rules plus each row's fault class and size."""
        by_service = {row["component"]: row for row in rows}
        identity = {"fault_class": baseline.get("fault_class", "reg"),
                    "injected": baseline.get("faults_per_service")}
        for service, rules in baseline.get("bounds", {}).items():
            self.checked += 1
            row = by_service.get(service)
            if row is None:
                self.failures.append(f"{service}: missing from artifact")
                continue
            got = {"fault_class": row.get("fault_class", "reg"),
                   "injected": row["injected"]}
            for key, want in identity.items():
                if got[key] != want:
                    self.failures.append(
                        f"{service}: {key} {got[key]!r} != {want!r}")
            self.limits(f"{service}: ", row, rules)

    def cluster(self, artifact: dict, baseline: dict) -> None:
        """Identity, aggregate rules and per-scenario invariants."""
        self.checked += 1
        aggregate = artifact["aggregate"]
        for key, got in (("fingerprint", artifact["fingerprint"]),
                         ("scenarios", aggregate["scenarios"])):
            if got != baseline[key]:
                self.failures.append(f"{key} {got!r} != {baseline[key]!r}")
        self.limits("", aggregate, baseline.get("bounds", {}))
        # A kill round always fails the interrupted unit over (or
        # emergency-reboots in place) and always whole-node-reboots the
        # victims; availability is the fraction of unit slots served by
        # their original placement.
        n_kill = artifact["spec"]["n_kill"]
        for row in artifact["rows"]:
            broken = []
            if n_kill >= 1:
                if row["node_reboots"] < 1:
                    broken.append("no whole-node reboot")
                if row["failovers"] < 1 and row["outcome"] != "ok":
                    broken.append("no failover recorded")
                if len(row["victims"]) != n_kill:
                    broken.append(f"{len(row['victims'])} victims != "
                                  f"n_kill {n_kill}")
            expected = (row["units"] - row["failovers"]) / row["units"]
            if abs(row["availability"] - expected) > 1e-12:
                broken.append(f"availability {row['availability']} "
                              f"inconsistent with failovers")
            self.failures += [f"scenario {row['scenario_seed']}: {problem}"
                              for problem in broken]


def check(artifact, baseline: dict, tolerance: float | None) -> Checker:
    """Apply every rule ``baseline`` declares to ``artifact``."""
    checker = Checker()
    if isinstance(artifact, list):
        checker.table2(artifact, baseline)
        return checker
    if "fingerprint" in baseline:
        checker.cluster(artifact, baseline)
    rules = {key: value for key, value in baseline.items()
             if key not in EXACT_KEYS}
    if "recorded" in baseline:
        if tolerance is None:
            tolerance = baseline.get("default_tolerance", 0.40)
        print(f"rate floors: recorded values less {tolerance:.0%}")
        rules.update({f"min_{metric}": value * (1.0 - tolerance)
                      for metric, value in baseline["recorded"].items()})
    checker.limits("", artifact, rules)
    for key in EXACT_KEYS:
        if key in baseline:
            checker.checked += 1
            before = len(checker.failures)
            checker.exact(key, artifact.get(key), baseline[key])
            ok = len(checker.failures) == before
            print(f"{key:36s} {'exact' if ok else 'FAIL'}")
    return checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="the gated command's --json output")
    parser.add_argument("baseline", help="benchmarks/baselines/<name>.json")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional drop below recorded rates "
                             "(default: baseline file's default_tolerance)")
    args = parser.parse_args(argv)
    with open(args.artifact, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    checker = check(artifact, baseline, args.tolerance)
    if not checker.checked:
        checker.failures.append("no rule in the baseline applies to the "
                                "artifact")
    if checker.failures:
        print(f"\nBASELINE CHECK FAILED ({args.baseline}):", file=sys.stderr)
        for failure in checker.failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbaseline check passed: {checker.checked} rules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
