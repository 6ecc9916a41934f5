"""Tests for the parallel deterministic SWIFI campaign engine."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.__main__ import main
from repro.cluster import ClusterSpec
from repro.cluster import campaign as cluster_campaign
from repro.swifi import campaign as swifi_campaign
from repro.swifi import parallel
from repro.system import SystemPool
from repro.webserver import campaign as web_campaign
from repro.swifi.campaign import (
    CampaignRunner,
    RunSpec,
    execute_run,
    format_table2,
    injection_point,
    write_table2_json,
)
from repro.swifi.classify import Outcome
from repro.swifi.parallel import (
    CampaignJournal,
    chunk_seeds,
    default_workers,
    run_campaign,
)


class TestDeterminism:
    def test_injection_point_is_pure(self):
        assert injection_point(7, 100) == injection_point(7, 100)
        assert injection_point(7, 1) == 0  # degenerate horizon

    def test_empty_horizon_rejected(self):
        # Regression: horizon<1 was silently masked to 1, injecting at
        # trace execution 0 of a workload that never ran in the target.
        with pytest.raises(ValueError):
            injection_point(7, 0)
        with pytest.raises(ValueError):
            injection_point(7, -5)
        with pytest.raises(ValueError):
            RunSpec("lock", "superglue", 4, 0)
        with pytest.raises(ValueError):
            RunSpec("lock", "superglue", 4, -1)

    def test_run_outcome_is_pure_function_of_spec_and_seed(self):
        runner = CampaignRunner("lock", n_faults=1, seed=0)
        spec = runner.spec()
        seed = runner.run_seeds()[0]
        assert execute_run(spec, seed) is execute_run(spec, seed)

    def test_serial_and_parallel_rows_identical(self):
        serial = CampaignRunner("lock", n_faults=10, seed=1).run(workers=1)
        pooled = CampaignRunner("lock", n_faults=10, seed=1).run(workers=4)
        assert serial.row() == pooled.row()

    def test_run_seeds_schedule(self):
        runner = CampaignRunner("lock", n_faults=3, seed=2)
        assert runner.run_seeds() == [2_000_006, 2_000_007, 2_000_008]

    def test_progress_reports_every_run(self):
        seen = []
        runner = CampaignRunner("lock", n_faults=3, seed=5)
        runner.run(progress=lambda i, n, o: seen.append((i, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestChunking:
    def test_chunks_cover_all_seeds_in_order(self):
        seeds = list(range(23))
        chunks = chunk_seeds(seeds, workers=4)
        assert [s for chunk in chunks for s in chunk] == seeds
        assert len(chunks) <= 4 * 4

    def test_empty_and_tiny(self):
        assert chunk_seeds([], 4) == []
        assert chunk_seeds([9], 4) == [[9]]

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestJournal:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        runner = CampaignRunner("timer", n_faults=8, seed=3)
        spec = runner.spec()
        seeds = runner.run_seeds()
        # Simulate an interruption: only half the campaign completes.
        run_campaign(spec, seeds[:4], workers=1, journal=journal)
        assert len(CampaignJournal(journal).load(spec)) == 4
        resumed = runner.run(workers=2, journal=journal)
        uninterrupted = CampaignRunner("timer", n_faults=8, seed=3).run()
        assert resumed.row() == uninterrupted.row()

    def test_resumed_runs_are_not_reexecuted(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        runner = CampaignRunner("lock", n_faults=4, seed=4)
        runner.run(journal=journal)
        lines = open(journal).read().splitlines()
        assert len(lines) == 4
        runner.run(journal=journal)  # full replay: nothing appended
        assert open(journal).read().splitlines() == lines

    def test_journal_ignores_truncated_and_foreign_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = RunSpec("lock", "superglue", 4, 100)
        good = {
            "fingerprint": spec.fingerprint(),
            "run_seed": 11,
            "outcome": "recovered",
        }
        other = dict(good, fingerprint="other/spec", run_seed=12)
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(other) + "\n" + '{"trunc'
        )
        done = CampaignJournal(str(path)).load(spec)
        assert done == {11: Outcome.RECOVERED}

    def test_fingerprint_distinguishes_specs(self):
        a = RunSpec("lock", "superglue", 4, 100)
        b = RunSpec("lock", "c3", 4, 100)
        assert a.fingerprint() != b.fingerprint()


class TestZeroCopyWorkers:
    def test_chunk_payload_is_seeds_only(self):
        # The submitted payload is (function-by-reference, seed list):
        # campaign parameters travel through the initializer exactly
        # once per process, never per chunk.
        seeds = list(range(200))
        payload = pickle.dumps((parallel._execute_chunk, (seeds,)))
        overhead = len(payload) - len(pickle.dumps(seeds))
        assert overhead < 150
        assert b"RunSpec" not in payload

    def test_start_method_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_START", "spawn")
        assert parallel.worker_start_method() == "spawn"
        monkeypatch.delenv("REPRO_WORKER_START")
        assert parallel.worker_start_method() in ("fork", "spawn")

    def test_fork_unavailable_falls_back_to_spawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_START", "fork")
        monkeypatch.setattr(
            multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        assert parallel.worker_start_method() == "spawn"

    def test_in_process_path_runs_initializer(self):
        calls = []
        batches = []
        parallel.fan_out_chunks(
            lambda seeds: seeds,
            [1, 2, 3],
            workers=1,
            initializer=lambda *a: calls.append(a),
            initargs=("spec", False),
            on_batch=batches.append,
        )
        assert calls == [("spec", False)]
        assert batches == [[1], [2], [3]]

    def test_serial_path_never_imports_process_pool(self):
        # The process-pool modules cost a serial campaign memory and
        # import time for nothing: only a real fan-out may load them.
        script = (
            "import sys\n"
            "import repro.swifi.campaign, repro.webserver.campaign\n"
            "import repro.cluster.campaign\n"
            "from repro.swifi.parallel import fan_out_chunks\n"
            "out = []\n"
            "fan_out_chunks(list, [1, 2], 1, on_batch=out.append)\n"
            "assert out == [[1], [2]], out\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_parallel_identical_to_serial(self, monkeypatch, start):
        if start not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start} start method unavailable")
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        runner = CampaignRunner("lock", n_faults=8, seed=4)
        spec = runner.spec()
        seeds = runner.run_seeds()
        serial = parallel.run_campaign(spec, seeds, workers=1)
        monkeypatch.setenv("REPRO_WORKER_START", start)
        fanned = parallel.run_campaign(spec, seeds, workers=2)
        assert fanned.counts == serial.counts


class TestWallClockSplit:
    def test_initializer_work_is_billed_to_setup(self, monkeypatch):
        # IDL compile and pool boot + seal run once, in the campaign
        # initializer: one-time setup, not run execution.  A frozen
        # clock that only the compile advances shows where it lands.
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        compile_all = parallel.compile_all_interfaces

        def slow_compile(force=False):
            now[0] += 100.0
            return compile_all(force)

        monkeypatch.setattr(parallel, "compile_all_interfaces", slow_compile)
        result = CampaignRunner("lock", n_faults=3, seed=1).run(workers=1)
        assert result.setup_wall == 100.0
        assert result.exec_wall == 0.0

    def test_pool_boot_is_billed_to_setup(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        runner = CampaignRunner("lock", n_faults=3, seed=1)
        runner.spec()  # calibrate first: only the campaign's boot is slow
        pool = SystemPool()

        class SlowBoot:
            def acquire(self, **kwargs):
                if pool.snapshot_for(**kwargs) is None:
                    now[0] += 40.0  # boot + seal; restores are free
                return pool.acquire(**kwargs)

        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setattr(swifi_campaign, "GLOBAL_POOL", SlowBoot())
        result = runner.run(workers=1)
        assert result.setup_wall == 40.0
        assert result.exec_wall == 0.0

    def test_runs_are_billed_to_exec(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        drive = swifi_campaign._drive_run

        def slow_run(spec, seed):
            now[0] += 1.0
            return drive(spec, seed)

        monkeypatch.setattr(swifi_campaign, "_drive_run", slow_run)
        runner = CampaignRunner("lock", n_faults=3, seed=1)
        result = runner.run(workers=1)
        assert result.setup_wall == 0.0
        assert result.exec_wall == float(len(runner.run_seeds()))

    def test_fan_out_returns_initializer_wall(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])

        def slow_init():
            now[0] += 7.0

        init_wall = parallel.fan_out_chunks(
            lambda seeds: seeds, [1, 2], workers=1,
            initializer=slow_init, on_batch=lambda batch: None,
        )
        assert init_wall == 7.0

    def test_fan_out_without_initializer_bills_nothing(self):
        batches = []
        init_wall = parallel.fan_out_chunks(
            lambda seeds: seeds, [1, 2], workers=1, on_batch=batches.append,
        )
        assert init_wall == 0.0
        assert batches == [[1], [2]]

    def test_web_initializer_work_is_billed_to_setup(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        compile_all = parallel.compile_all_interfaces

        def slow_compile(force=False):
            now[0] += 100.0
            return compile_all(force)

        monkeypatch.setattr(parallel, "compile_all_interfaces", slow_compile)
        result = web_campaign.run_webserver_campaign(
            web_campaign.web_run_seeds(1, 2),
            web_campaign.WebRunSpec(n_requests=40, n_faults=1),
            workers=1,
        )
        assert result.setup_wall == 100.0
        assert result.exec_wall == 0.0

    def test_cluster_initializer_work_is_billed_to_setup(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        compile_all = parallel.compile_all_interfaces

        def slow_compile(force=False):
            now[0] += 100.0
            return compile_all(force)

        monkeypatch.setattr(parallel, "compile_all_interfaces", slow_compile)
        spec = ClusterSpec(
            service="lock", n_nodes=3, n_kill=1, units=4, horizon=17
        )
        result = cluster_campaign.run_cluster_campaign(
            cluster_campaign.cluster_run_seeds(31, 2), spec, workers=1
        )
        assert result.setup_wall == 100.0
        assert result.exec_wall == 0.0


class TestArtifacts:
    def test_format_and_json_shape(self, tmp_path):
        results = [CampaignRunner("lock", n_faults=5, seed=1).run()]
        table = format_table2(results)
        assert "lock" in table and "SuccRate" in table
        path = tmp_path / "table2.json"
        write_table2_json(results, str(path))
        rows = json.loads(path.read_text())
        assert isinstance(rows, list) and len(rows) == 1
        assert rows[0]["component"] == "lock"
        assert rows[0]["injected"] == 5
        for key in (
            "recovered",
            "not_recovered_segfault",
            "not_recovered_propagated",
            "not_recovered_other",
            "undetected",
            "activation_ratio",
            "recovery_success_rate",
        ):
            assert key in rows[0]

    def test_json_matches_rows(self, tmp_path):
        results = [CampaignRunner("timer", n_faults=4, seed=2).run()]
        path = tmp_path / "t.json"
        write_table2_json(results, str(path))
        assert json.loads(path.read_text()) == [r.row() for r in results]


class TestCli:
    def test_table2_workers_and_json(self, tmp_path, capsys):
        artifact = str(tmp_path / "out.json")
        assert (
            main(
                [
                    "table2",
                    "--faults",
                    "3",
                    "--workers",
                    "2",
                    "--json",
                    artifact,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 worker(s)" in out
        rows = json.loads(open(artifact).read())
        assert {row["component"] for row in rows} == {
            "sched",
            "mm",
            "ramfs",
            "lock",
            "event",
            "timer",
        }

    def test_table2_resume_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        args = ["table2", "--faults", "2", "--workers", "1", "--resume", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # replayed entirely from the journal
        assert capsys.readouterr().out == first
        assert len(open(journal).read().splitlines()) == 2 * 6
