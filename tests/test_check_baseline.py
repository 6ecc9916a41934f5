"""``scripts/check_baseline.py``: the one checker behind every gate.

Every committed baseline must accept an in-band artifact built from its
own rules, and each rule kind must reject one mutation of it, naming
the field on stderr.  No campaign runs: artifacts are synthesized.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINES = sorted((ROOT / "benchmarks" / "baselines").glob("*.json"))

_spec = importlib.util.spec_from_file_location(
    "check_baseline", ROOT / "scripts" / "check_baseline.py"
)
check_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_baseline)


def load_baseline(name: str) -> dict:
    with open(ROOT / "benchmarks" / "baselines" / f"{name}.json") as handle:
        return json.load(handle)


def _in_band(rules: dict) -> dict:
    """Artifact values on every band's midpoint and every floor/cap."""
    values = {}
    for key, bound in rules.items():
        if isinstance(bound, list):
            values[key] = (bound[0] + bound[1]) / 2
        elif key.startswith(("min_", "max_")):
            values[key[4:]] = bound
    return values


def in_band_artifact(baseline: dict):
    """The artifact a healthy run of the gated command would emit."""
    if "faults_per_service" in baseline:  # Table II: one row per service
        return [
            {
                "component": service,
                "injected": baseline["faults_per_service"],
                "fault_class": baseline.get("fault_class", "reg"),
                **_in_band(rules),
            }
            for service, rules in baseline["bounds"].items()
        ]
    if "fingerprint" in baseline:  # cluster: one kill, one failover each
        rows = [
            {"scenario_seed": seed, "outcome": "failover", "units": 12,
             "victims": [seed % 4], "failovers": 1, "node_reboots": 1,
             "availability": 11 / 12}
            for seed in range(baseline["scenarios"])
        ]
        return {
            "fingerprint": baseline["fingerprint"],
            "spec": {"n_kill": 1},
            "rows": rows,
            "aggregate": {"scenarios": baseline["scenarios"],
                          **_in_band(baseline["bounds"])},
        }
    exact = check_baseline.EXACT_KEYS
    artifact = copy.deepcopy(
        {key: baseline[key] for key in exact if key in baseline}
    )
    artifact.update(baseline.get("recorded", {}))
    artifact.update(_in_band(
        {key: value for key, value in baseline.items() if key not in exact}
    ))
    return artifact


def run_checker(tmp_path, capsys, artifact, baseline, *extra):
    """``check_baseline.py ARTIFACT BASELINE [extra]`` -> (exit, stderr)."""
    artifact_path = tmp_path / "artifact.json"
    baseline_path = tmp_path / "baseline.json"
    artifact_path.write_text(json.dumps(artifact), encoding="utf-8")
    baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
    code = check_baseline.main([str(artifact_path), str(baseline_path), *extra])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("path", BASELINES, ids=lambda path: path.stem)
def test_committed_baseline_accepts_in_band_artifact(path, tmp_path, capsys):
    baseline = json.loads(path.read_text(encoding="utf-8"))
    code, err = run_checker(
        tmp_path, capsys, in_band_artifact(baseline), baseline
    )
    assert (code, err) == (0, "")


def _row(service, key, value):
    def mutate(rows):
        next(row for row in rows if row["component"] == service)[key] = value
    return mutate


def _drop_service(service):
    def mutate(rows):
        rows[:] = [row for row in rows if row["component"] != service]
    return mutate


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(artifact):
        for step in path:
            artifact = artifact[step]
        artifact[key] = value
    return mutate


def _scale(*path_and_factor):
    *path, key, factor = path_and_factor

    def mutate(artifact):
        for step in path:
            artifact = artifact[step]
        artifact[key] *= factor
    return mutate


def _delete(key):
    def mutate(artifact):
        del artifact[key]
    return mutate


#: (rule kind, baseline, mutation, field stderr must name, extra args).
MUTATIONS = [
    ("band", "table2_reg_smoke",
     _row("mm", "activation_ratio", 0.5), "mm: activation_ratio", ()),
    ("band", "cluster_smoke",
     _set("aggregate", "availability", 0.99), "availability", ()),
    ("min", "interp_throughput",
     _set("fast_over_slow", 1.99), "fast_over_slow", ()),
    ("min", "cluster_smoke",
     _set("aggregate", "failovers", 15), "failovers", ()),
    ("max", "table2_reg_smoke",
     _row("mm", "not_recovered_propagated", 3),
     "mm: not_recovered_propagated", ()),
    ("max", "cluster_smoke",
     _set("aggregate", "evictions", 33), "evictions", ()),
    ("rate floor", "interp_throughput",
     _scale("fast_ops_per_sec", 0.5), "fast_ops_per_sec", ()),
    ("rate floor", "campaign_throughput",
     _scale("pooled_runs_per_sec", 0.3), "pooled_runs_per_sec",
     ("--tolerance", "0.6")),
    ("exact int", "fig7_openloop",
     _set("points", 0, "served", 481), "points[0].served", ()),
    ("exact int", "fig7_openloop",
     _set("params", "n_seeds", 5), "params.n_seeds", ()),
    ("float epsilon", "fig7_openloop",
     _scale("points", 2, "goodput_rps", 1 + 1e-6), "points[2].goodput_rps",
     ()),
    ("missing", "table2_burst_smoke",
     _drop_service("mm"), "mm: missing from artifact", ()),
    ("missing", "interp_throughput",
     _delete("slow_ops_per_sec"), "slow_ops_per_sec: missing", ()),
    ("missing", "fig7_webserver",
     _delete("pooled_over_fresh"), "pooled_over_fresh: missing", ()),
    ("identity", "cluster_smoke",
     _set("fingerprint", "cluster/lock/other"), "fingerprint", ()),
    ("identity", "cluster_smoke",
     _set("aggregate", "scenarios", 15), "scenarios 15 != 16", ()),
    ("identity", "table2_mem_smoke",
     _row("ramfs", "fault_class", "reg"), "ramfs: fault_class", ()),
    ("identity", "table2_idl_smoke",
     _row("event", "injected", 49), "event: injected 49 != 50", ()),
    ("invariant", "cluster_smoke",
     _set("rows", 0, "victims", []), "0 victims != n_kill 1", ()),
    ("invariant", "cluster_smoke",
     _set("rows", 3, "availability", 0.5),
     "scenario 3: availability 0.5 inconsistent", ()),
    ("invariant", "cluster_smoke",
     _set("rows", 5, "node_reboots", 0), "scenario 5: no whole-node", ()),
]


@pytest.mark.parametrize(
    "baseline_name, mutate, field, extra",
    [case[1:] for case in MUTATIONS],
    ids=[f"{case[0]}-{case[1]}-{case[3]}" for case in MUTATIONS],
)
def test_mutation_fails_naming_the_field(
    baseline_name, mutate, field, extra, tmp_path, capsys
):
    baseline = load_baseline(baseline_name)
    artifact = in_band_artifact(baseline)
    mutate(artifact)
    code, err = run_checker(tmp_path, capsys, artifact, baseline, *extra)
    assert code == 1
    assert "BASELINE CHECK FAILED" in err
    assert field in err


def test_tolerance_widens_only_the_rate_floors(tmp_path, capsys):
    baseline = load_baseline("campaign_throughput")
    artifact = in_band_artifact(baseline)
    artifact["pooled_runs_per_sec"] *= 0.5  # below 40%, above 60% drop
    assert run_checker(
        tmp_path, capsys, artifact, baseline, "--tolerance", "0.6"
    ) == (0, "")
    artifact["pooled_over_fresh"] = 2.9  # ratio floors ignore --tolerance
    code, err = run_checker(
        tmp_path, capsys, artifact, baseline, "--tolerance", "0.6"
    )
    assert code == 1 and "pooled_over_fresh" in err


def test_float_drift_within_epsilon_passes(tmp_path, capsys):
    baseline = load_baseline("fig7_openloop")
    artifact = in_band_artifact(baseline)
    artifact["points"][2]["goodput_rps"] *= 1 + 1e-12
    assert run_checker(tmp_path, capsys, artifact, baseline) == (0, "")


def test_artifact_the_baseline_has_no_rule_for_fails(tmp_path, capsys):
    table2 = in_band_artifact(load_baseline("table2_reg_smoke"))
    code, err = run_checker(
        tmp_path, capsys, table2, load_baseline("interp_throughput")
    )
    assert code == 1
    assert "no rule in the baseline applies" in err


@pytest.mark.parametrize("argv", [[], ["artifact.json"]])
def test_missing_arguments_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["check_baseline.py", *argv])
    with pytest.raises(SystemExit) as excinfo:
        check_baseline.main()
    assert excinfo.value.code == 2
    assert "required: " in capsys.readouterr().err
