"""Integration tests: traced campaigns, JSONL export, timeline render."""

import pytest

from repro.__main__ import main
from repro.observe import EventSchemaError
from repro.observe.export import load_runs, read_trace, validate_line
from repro.observe.timeline import (
    RECOVERY_EVENTS,
    pick_default_run,
    render_rollup,
    render_run_timeline,
)
from repro.swifi.campaign import (
    CampaignRunner,
    execute_run,
    execute_run_traced,
)
from repro.swifi.classify import Outcome
from repro.swifi.parallel import run_campaign


@pytest.fixture(scope="module")
def lock_campaign(tmp_path_factory):
    """One traced lock campaign, shared by the read-side tests."""
    path = str(tmp_path_factory.mktemp("trace") / "lock.jsonl")
    runner = CampaignRunner("lock", n_faults=6, seed=1)
    result = runner.run(workers=1, trace=path)
    return runner, result, path


class TestOutcomeInvariance:
    def test_tracing_does_not_change_run_outcomes(self):
        spec = CampaignRunner("lock", n_faults=1, seed=1).spec()
        for seed in (1_000_003, 1_000_004, 12345):
            traced_outcome, record = execute_run_traced(spec, seed)
            assert traced_outcome is execute_run(spec, seed)
            assert record["outcome"] == traced_outcome.value

    def test_serial_and_parallel_traces_byte_identical(self, tmp_path):
        runner = CampaignRunner("timer", n_faults=6, seed=2)
        spec, seeds = runner.spec(), runner.run_seeds()
        serial = str(tmp_path / "serial.jsonl")
        pooled = str(tmp_path / "pooled.jsonl")
        counter_s = run_campaign(spec, seeds, workers=1, trace=serial)
        counter_p = run_campaign(spec, seeds, workers=2, trace=pooled)
        assert counter_s.counts == counter_p.counts
        assert open(serial).read() == open(pooled).read()


class TestExportFormat:
    def test_every_line_validates(self, lock_campaign):
        __, __, path = lock_campaign
        lines = list(read_trace(path, validate=True))
        assert lines, "trace artifact is empty"
        kinds = {line["type"] for line in lines}
        assert kinds == {"run", "event", "summary"}

    def test_load_runs_round_trip(self, lock_campaign):
        runner, result, path = lock_campaign
        runs, summaries = load_runs(path)
        assert [run["run_seed"] for run in runs] == runner.run_seeds()
        for run in runs:
            assert run["events"], "a traced run recorded no events"
            assert [e["seq"] for e in run["events"]] == sorted(
                e["seq"] for e in run["events"]
            )
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["runs"] == 6 and summary["replayed"] == 0
        assert sum(summary["outcomes"].values()) == 6
        assert summary["outcomes"] == {
            outcome.value: count
            for outcome, count in result.counter.counts.items()
        }
        assert summary["metrics"]["counters"]["runs"] == 6

    def test_truncated_final_line_tolerated(self, lock_campaign, tmp_path):
        __, __, path = lock_campaign
        clipped = tmp_path / "clipped.jsonl"
        content = open(path).read()
        clipped.write_text(content + '{"type": "ev')
        full = list(read_trace(path))
        assert list(read_trace(str(clipped))) == full

    def test_malformed_lines_raise(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        with pytest.raises(EventSchemaError):
            list(read_trace(str(bad)))
        with pytest.raises(EventSchemaError):
            validate_line({"type": "run", "schema": 999})

    def test_run_header_counts_its_events(self, lock_campaign):
        __, __, path = lock_campaign
        counts, seen = {}, {}
        for line in read_trace(path):
            if line["type"] == "run":
                counts[line["run_seed"]] = line["events"]
            elif line["type"] == "event":
                seen[line["run_seed"]] = seen.get(line["run_seed"], 0) + 1
        assert counts == seen


class TestInvocationSpans:
    def test_every_invoke_closes_with_its_status_and_cost(self):
        """Event runs that block in evt_wait and crash on a fault: spans
        nest, each ``invoke`` has its ``invoke_end``, and the span's
        cycles are the virtual-clock distance between the two."""
        runner = CampaignRunner("event", n_faults=50, seed=1)
        spec = runner.spec()
        statuses = set()
        # Runs 17-18 of the schedule recover; 19-20 end in a crash.
        for run_seed in runner.run_seeds()[17:21]:
            outcome, record = execute_run_traced(spec, run_seed)
            assert record["dropped_events"] == 0
            open_spans, ends = [], []
            for event in record["events"]:
                data = event["data"]
                if event["event"] == "invoke":
                    open_spans.append(event)
                elif event["event"] == "invoke_end":
                    start = open_spans.pop()
                    assert (data["tid"], data["server"], data["fn"]) == (
                        start["data"]["tid"],
                        start["data"]["server"],
                        start["data"]["fn"],
                    )
                    assert data["cycles"] == event["t"] - start["t"]
                    ends.append((data["fn"], data["status"]))
            assert open_spans == []
            statuses.update(status for __, status in ends)
            assert {fn for fn, status in ends if status == "blocked"} == {
                "evt_wait"
            }
            crashed = [end for end in ends if end[1] == "crash"]
            if outcome is Outcome.NOT_RECOVERED_SEGFAULT:
                assert crashed == [ends[-1]]
            else:
                assert crashed == []
        assert statuses == {"ok", "blocked", "crash"}


class TestRecoveryArc:
    def test_full_injection_to_replay_arc_recorded(self, lock_campaign):
        __, __, path = lock_campaign
        runs, __ = load_runs(path)
        best = pick_default_run(runs)
        names = [e["event"] for e in best["events"]]
        for required in (
            "swifi_arm", "swifi_inject", "fault_vectored",
            "micro_reboot_begin", "micro_reboot_end", "replay",
        ):
            assert required in names, f"missing {required} in {names}"
        # Causal order: arm <= inject < detect <= reboot-begin < reboot-end.
        assert names.index("swifi_arm") < names.index("swifi_inject")
        assert names.index("swifi_inject") < names.index("fault_vectored")
        assert names.index("fault_vectored") <= names.index(
            "micro_reboot_begin"
        )
        assert names.index("micro_reboot_begin") < names.index(
            "micro_reboot_end"
        )
        stamps = [e["t"] for e in best["events"]]
        assert stamps == sorted(stamps)

    def test_detection_latency_recorded(self, lock_campaign):
        __, __, path = lock_campaign
        __, summaries = load_runs(path)
        hist = summaries[0]["metrics"]["histograms"]["detection_latency_cycles"]
        assert hist["count"] >= 1
        assert hist["min"] >= 0

    def test_timeline_renders_the_story(self, lock_campaign):
        __, __, path = lock_campaign
        runs, summaries = load_runs(path)
        text = render_run_timeline(pick_default_run(runs), include=RECOVERY_EVENTS)
        assert "SWIFI INJECT" in text
        assert "reboot-begin" in text and "reboot-end" in text
        assert "replay" in text
        rollup = render_rollup(runs, summaries)
        assert "campaign lock/" in rollup
        assert "recovered" in rollup


class TestCliTrace:
    def test_table2_trace_then_render(self, tmp_path, capsys):
        artifact = str(tmp_path / "t.jsonl")
        assert main(
            ["table2", "--faults", "2", "--workers", "1", "--trace", artifact]
        ) == 0
        capsys.readouterr()
        assert main(["trace", artifact, "--validate"]) == 0
        assert "lines OK" in capsys.readouterr().out
        assert main(["trace", artifact]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "run seed=" in out

    def test_trace_run_selection_and_errors(self, tmp_path, capsys):
        artifact = str(tmp_path / "t.jsonl")
        assert main(
            ["table2", "--faults", "2", "--workers", "1", "--trace", artifact]
        ) == 0
        capsys.readouterr()
        assert main(["trace", artifact, "--run", "1000003", "--full"]) == 0
        assert "run seed=1000003" in capsys.readouterr().out
        assert main(["trace", artifact, "--run", "999"]) == 1
        assert main(["trace", str(tmp_path / "missing.jsonl")]) == 1
