"""The shared campaign core: one fan-out, merge, trace export and writer.

Every campaign kind (table2, fig7, cluster) runs through
``repro.swifi.parallel``.  These tests pin the contract the core keeps
for all of them: byte-identical artifacts serial vs parallel, harness
errors that name the spec and seed, a resumable table2 journal, and no
pool boot that the runs would never use.
"""

import json
import multiprocessing
import pickle

import pytest

from repro import observe
from repro.__main__ import main
from repro.cluster import ClusterSpec, cluster_run_seeds, run_cluster_campaign
from repro.cluster.cell import Cell
from repro.composite import fastpath
from repro.errors import HarnessError, ReproError
from repro.swifi import campaign as swifi_campaign
from repro.swifi.campaign import CampaignRunner
from repro.swifi.parallel import run_campaign
from repro.system import SystemPool
from repro.webserver import campaign as web_campaign

#: Small CLI invocations of each campaign kind (``--json``/``--trace``
#: and ``--workers`` are appended per test).
CAMPAIGNS = {
    "table2": ["table2", "--faults", "3", "--seed", "1"],
    "fig7": [
        "fig7", "--seeds", "3", "--requests", "40", "--arrivals", "open",
        "--load", "1.5", "--phases", "burst", "--faults", "2",
    ],
    "cluster": [
        "cluster", "--nodes", "3", "--faults", "1", "--seeds", "3",
        "--units", "4", "--seed", "7",
    ],
}


def _use_fork(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    monkeypatch.setenv("REPRO_WORKER_START", "fork")


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_serial_and_parallel_artifacts_byte_identical(
    kind, tmp_path, monkeypatch, capsys
):
    _use_fork(monkeypatch)
    outputs = {}
    for workers in ("1", "2"):
        artifact = tmp_path / f"{kind}_w{workers}.json"
        trace = tmp_path / f"{kind}_w{workers}.jsonl"
        argv = CAMPAIGNS[kind] + [
            "--workers", workers, "--json", str(artifact),
            "--trace", str(trace),
        ]
        assert main(argv) == 0
        outputs[workers] = (artifact.read_bytes(), trace.read_bytes())
    capsys.readouterr()
    assert outputs["1"][0] == outputs["2"][0]
    assert outputs["1"][1] == outputs["2"][1]
    assert outputs["1"][1], "the trace artifact is empty"


def test_traced_run_ignores_earlier_runs_in_the_process(monkeypatch):
    # The compiled-program memo is process-wide; a traced run's record
    # (fastpath_compile events, fast flags, fast-run counters) must not
    # depend on what earlier runs of the same worker left in it.  The
    # shape memo is never swapped out: the second traced run builds its
    # programs from the shapes the earlier runs compiled, and must still
    # record exactly what the cold run did.
    monkeypatch.setattr(fastpath, "_PROGRAM_CACHE", {})
    monkeypatch.setattr(fastpath, "_SHAPE_CACHE", {})
    spec = web_campaign.WebRunSpec(
        n_requests=40, n_faults=2, arrivals="open", load=1.5,
        phases="burst",
    )
    cold = web_campaign.execute_web_run_traced(spec, 3_000_010)
    for seed in web_campaign.web_run_seeds(3, 3):
        web_campaign.execute_web_run(spec, seed)
    assert fastpath._PROGRAM_CACHE, "untraced runs left the memo cold"
    before = dict(fastpath.BUILD_COUNTS)
    assert web_campaign.execute_web_run_traced(spec, 3_000_010) == cold
    assert fastpath.BUILD_COUNTS["programs"] > before["programs"]
    assert fastpath.BUILD_COUNTS["shapes"] == before["shapes"], (
        "the traced run compiled a shape the warm memo already held"
    )


# ---------------------------------------------------------------------------
# Harness errors
# ---------------------------------------------------------------------------

def _fail_table2(monkeypatch, bad_seed):
    point = swifi_campaign.injection_point

    def flaky(run_seed, horizon):
        if run_seed == bad_seed:
            raise KeyError("lost")
        return point(run_seed, horizon)

    monkeypatch.setattr(swifi_campaign, "injection_point", flaky)


def _fail_fig7(monkeypatch, bad_seed):
    serve = web_campaign.run_webserver

    def flaky(**kwargs):
        if kwargs["seed"] == bad_seed:
            raise KeyError("lost")
        return serve(**kwargs)

    monkeypatch.setattr(web_campaign, "run_webserver", flaky)


def _fail_cluster(monkeypatch, bad_seed):
    scenario = Cell.run_scenario

    def flaky(cell, scenario_seed):
        if scenario_seed == bad_seed:
            raise KeyError("lost")
        return scenario(cell, scenario_seed)

    monkeypatch.setattr(Cell, "run_scenario", flaky)


#: kind -> (fault installer, failing seed, fingerprint fragment)
FAULTS = {
    "table2": (_fail_table2, 1_000_004, "sched/superglue/"),
    "fig7": (_fail_fig7, 3_000_010, "webserver/superglue/"),
    "cluster": (_fail_cluster, 7_000_022, "cluster/lock/"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_harness_error_names_spec_and_seed(
    kind, workers, monkeypatch, capsys
):
    if workers != "1":
        # Forked workers inherit the monkeypatched step.
        _use_fork(monkeypatch)
    install, bad_seed, fingerprint = FAULTS[kind]
    install(monkeypatch, bad_seed)
    argv = CAMPAIGNS[kind] + ["--workers", workers]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"run seed {bad_seed} of {fingerprint}" in err
    assert "KeyError" in err
    repro_line = err.strip().splitlines()[-1]
    assert repro_line.endswith("--workers 1")
    assert f"python -m repro {kind} " in repro_line
    assert "--workers 2" not in repro_line


def test_harness_error_is_not_an_outcome_and_pickles():
    error = HarnessError("lock/superglue/it4", 12, "KeyError: 'x'")
    assert not isinstance(error, ReproError)
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.fingerprint, clone.run_seed, clone.detail) == (
        "lock/superglue/it4", 12, "KeyError: 'x'",
    )
    assert str(clone) == str(error)


def test_harness_error_from_the_core_chains_the_cause(monkeypatch):
    runner = CampaignRunner("lock", n_faults=2, seed=1)
    spec = runner.spec()
    _fail_table2(monkeypatch, runner.run_seeds()[1])
    with pytest.raises(HarnessError) as info:
        run_campaign(spec, runner.run_seeds(), workers=1)
    assert info.value.fingerprint == spec.fingerprint()
    assert info.value.run_seed == runner.run_seeds()[1]
    assert isinstance(info.value.__cause__, KeyError)


def test_interrupted_resume_keeps_completed_runs(
    tmp_path, monkeypatch, capsys
):
    journal = tmp_path / "journal.jsonl"
    base = CAMPAIGNS["table2"] + ["--workers", "1"]
    with monkeypatch.context() as patch:
        # The third sched run fails: the first two are already journaled.
        _fail_table2(patch, 1_000_005)
        argv = base + ["--resume", str(journal)]
        assert main(argv) == 2
    kept = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [entry["run_seed"] for entry in kept] == [1_000_003, 1_000_004]
    assert all(entry["fingerprint"].startswith("sched/") for entry in kept)

    resumed = tmp_path / "resumed.json"
    fresh = tmp_path / "fresh.json"
    assert main(base + ["--resume", str(journal), "--json", str(resumed)]) == 0
    assert main(base + ["--json", str(fresh)]) == 0
    capsys.readouterr()
    assert resumed.read_bytes() == fresh.read_bytes()


# ---------------------------------------------------------------------------
# No wasted pool boot under global tracing
# ---------------------------------------------------------------------------

def _count_acquires(monkeypatch):
    calls = []
    acquire = SystemPool.acquire

    def counting(pool, *args, **kwargs):
        calls.append(kwargs)
        return acquire(pool, *args, **kwargs)

    monkeypatch.setattr(SystemPool, "acquire", counting)
    return calls


def _run_each_kind():
    spec = CampaignRunner("lock", n_faults=2, seed=1).spec()
    run_campaign(spec, [1, 2], workers=1)
    web_campaign.run_webserver_campaign(
        web_campaign.web_run_seeds(1, 2),
        web_campaign.WebRunSpec(n_requests=40, n_faults=1),
        workers=1,
    )
    run_cluster_campaign(
        cluster_run_seeds(3, 2),
        ClusterSpec(service="lock", n_nodes=3, units=3, horizon=17),
        workers=1,
    )


def test_no_pool_boot_when_runs_build_fresh(monkeypatch):
    # REPRO_TRACE=1 makes every run build fresh, so the campaign
    # initializer must not boot and seal a pool nobody restores.
    monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
    calls = _count_acquires(monkeypatch)
    with observe.tracing(True):
        _run_each_kind()
    assert calls == []


def test_pooled_campaigns_do_acquire(monkeypatch):
    monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
    calls = _count_acquires(monkeypatch)
    _run_each_kind()
    assert calls
