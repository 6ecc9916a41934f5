"""Parallel, resumable SWIFI campaign execution.

Injection campaigns are embarrassingly parallel: each run boots a fresh
system (the paper reboots the machine between runs), so runs share
nothing but the calibrated :class:`~repro.swifi.campaign.RunSpec`.  This
module fans a campaign's run seeds out across a
:class:`~concurrent.futures.ProcessPoolExecutor`, streams each chunk's
``(run_seed, outcome)`` pairs back to the parent as it completes, and
merges them in seed-schedule order so the aggregated
:class:`~repro.swifi.classify.OutcomeCounter` is bit-identical to the
serial path.

A JSONL journal makes campaigns resumable: every completed run is
appended as ``{"fingerprint", "run_seed", "outcome"}`` the moment its
chunk finishes, and a rerun against the same journal replays those
outcomes instead of re-executing them.  Entries are keyed by the spec
fingerprint, so one journal file can checkpoint a whole multi-service
Table II campaign.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.observe import export as trace_export
from repro.observe.metrics import canonical_metrics, merge_metrics
from repro.swifi.campaign import RunSpec, _drive_run, execute_run_traced
from repro.swifi.classify import Outcome, OutcomeCounter
from repro.system import GLOBAL_POOL, compile_all_interfaces, pooling_enabled

#: Target chunks per worker: small enough to stream progress and balance
#: load, large enough to amortise task-submission overhead.
CHUNKS_PER_WORKER = 4


def default_workers() -> int:
    """Worker-count default: one per CPU."""
    return os.cpu_count() or 1


def worker_start_method() -> str:
    """The process-pool start method: ``REPRO_WORKER_START`` or auto.

    ``fork`` is the zero-copy path: the parent pays all per-process
    setup once (IDL compilation, pooled boot + seal), and forked workers
    inherit the sealed ``array('I')`` images and compiled interfaces
    copy-on-write — no per-worker boot, no re-pickling.  ``spawn``
    keeps the per-worker initializer (each worker boots its own pooled
    system), which is also the clean fallback wherever fork is
    unavailable; an explicit
    ``REPRO_WORKER_START=fork`` on such a platform degrades to spawn
    rather than failing.
    """
    choice = os.environ.get("REPRO_WORKER_START", "auto")
    if choice == "spawn":
        return "spawn"
    import multiprocessing

    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def chunk_seeds(seeds: Sequence[int], workers: int) -> List[List[int]]:
    """Split the seed schedule into contiguous chunks for distribution."""
    if not seeds:
        return []
    n_chunks = max(1, min(len(seeds), workers * CHUNKS_PER_WORKER))
    size = -(-len(seeds) // n_chunks)  # ceil division
    return [list(seeds[i:i + size]) for i in range(0, len(seeds), size)]


#: Worker-side campaign parameters, set once by the chunk initializer.
#: Chunks then carry only seed lists: the spec crosses the process
#: boundary exactly once per worker (spawn) or zero times (fork — the
#: parent runs the initializer and workers inherit everything COW).
_WORKER_SPEC: Optional[RunSpec] = None
_WORKER_TRACE: bool = False


def _init_campaign_worker(spec: RunSpec, trace: bool = False) -> None:
    """Campaign initializer: pay all per-process setup costs once.

    Without this, every worker lazily recompiled the six IDL interfaces
    on its first run (the ``compile_all_interfaces`` cache is
    per-process and starts cold) and built a system per run.  Here each
    process compiles once and — when pooling is enabled — boots and
    seals its pooled system before the first chunk arrives, so chunk
    wall times measure injection runs, not setup.  Under fork this runs
    in the *parent* and workers inherit the whole warm state
    copy-on-write.
    """
    global _WORKER_SPEC, _WORKER_TRACE
    _WORKER_SPEC = spec
    _WORKER_TRACE = trace
    if spec.ft_mode == "superglue":
        compile_all_interfaces()
    if not trace and pooling_enabled():
        GLOBAL_POOL.acquire(
            ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
        )


def fan_out_chunks(
    execute,
    pending: Sequence[int],
    workers: int,
    initializer=None,
    initargs: tuple = (),
    on_batch=None,
) -> float:
    """Fan ``execute`` out over chunked seeds — the shared campaign core.

    ``execute(seeds)`` must be a picklable module-level function taking
    only the chunk's seed list (per-campaign parameters travel through
    ``initializer(*initargs)``, never per chunk) and returning one
    result per seed; ``on_batch(results)`` is invoked in the parent as
    each chunk completes (completion order — callers that need
    determinism merge by seed afterwards, as :func:`run_campaign`
    does).  With ``workers <= 1`` or at most one pending seed, the
    initializer runs in-process and everything executes seed-by-seed
    with no pool overhead but the identical per-run code path.  Under
    the ``fork`` start method (see :func:`worker_start_method`) the
    initializer also runs in the parent, *before* the pool exists, so
    forked workers inherit its work — sealed pooled system, compiled
    interfaces — copy-on-write instead of rebuilding it per worker.
    Used by both the SWIFI table campaigns and the web-server Fig. 7
    campaign.

    Returns the wall seconds the initializer took in this process, so
    callers can bill that one-time setup apart from run execution.  It
    is zero under ``spawn``, where each worker runs the initializer
    inside the pool and its cost lands in the chunks' wall time.

    ``multiprocessing`` and :mod:`concurrent.futures` are imported only
    once a campaign really fans out: a serial run never loads them.
    """
    serial = workers <= 1 or len(pending) <= 1
    method = None if serial else worker_start_method()
    init_wall = 0.0
    if initializer is not None and (serial or method == "fork"):
        init_start = time.perf_counter()
        initializer(*initargs)
        init_wall = time.perf_counter() - init_start
        initializer, initargs = None, ()
    if serial:
        for seed in pending:
            on_batch(execute([seed]))
        return init_wall
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    chunks = chunk_seeds(pending, workers)
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        futures = [pool.submit(execute, chunk) for chunk in chunks]
        for future in as_completed(futures):
            on_batch(future.result())
    return init_wall


def _execute_chunk(seeds: List[int]):
    """Worker entry point: execute one chunk of runs.

    Reads the campaign parameters from the initializer-set module
    globals — the submitted payload is just the seed list.  Returns
    ``(run_seed, outcome.value, run_record_or_None)`` triples — plain
    strings/dicts, not enum members, so results serialise cheaply
    across the process boundary and into the journal.  With the trace
    flag set, each run executes under the flight recorder and ships its
    event journal + per-run metrics back to the parent, which merges
    and exports them deterministically.
    """
    spec, trace = _WORKER_SPEC, _WORKER_TRACE
    results: List[Tuple[int, str, Optional[dict]]] = []
    for seed in seeds:
        if trace:
            outcome, record = execute_run_traced(spec, seed)
        else:
            outcome, record = _drive_run(spec, seed)[0], None
        results.append((seed, outcome.value, record))
    return results


class CampaignJournal:
    """Append-only JSONL checkpoint of completed injection runs."""

    def __init__(self, path: str):
        self.path = path

    def load(self, spec: RunSpec) -> Dict[int, Outcome]:
        """Completed ``{run_seed: outcome}`` for this spec's fingerprint.

        Tolerates a truncated final line (the campaign may have been
        killed mid-write); anything unparseable is simply re-run.
        """
        done: Dict[int, Outcome] = {}
        if not os.path.exists(self.path):
            return done
        fingerprint = spec.fingerprint()
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if entry["fingerprint"] != fingerprint:
                        continue
                    done[int(entry["run_seed"])] = Outcome(entry["outcome"])
                except (ValueError, KeyError):
                    continue
        return done

    def append(
        self, spec: RunSpec, completed: Iterable[Tuple[int, str]]
    ) -> None:
        """Record finished runs; flushed immediately so a kill loses at
        most the in-flight chunk."""
        fingerprint = spec.fingerprint()
        with open(self.path, "a", encoding="utf-8") as handle:
            for run_seed, outcome in completed:
                handle.write(
                    json.dumps(
                        {
                            "fingerprint": fingerprint,
                            "run_seed": run_seed,
                            "outcome": outcome,
                        }
                    )
                    + "\n"
                )
            handle.flush()


def run_campaign(
    spec: RunSpec,
    run_seeds: Sequence[int],
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    progress=None,
    trace: Optional[str] = None,
    timing: Optional[Dict[str, float]] = None,
) -> OutcomeCounter:
    """Execute a campaign's runs and aggregate their outcomes.

    ``timing``, if given, receives ``init_wall``: the seconds this
    process spent in the campaign initializer (IDL compile, pool boot +
    seal; see :func:`fan_out_chunks`), which callers bill as one-time
    setup rather than run execution.

    ``workers=None`` uses one worker per CPU (:func:`default_workers`);
    ``workers=1`` (or a single pending run) stays in-process with no
    pool overhead.  The merge happens in ``run_seeds`` order regardless
    of completion order (and regardless of how many runs were replayed
    from the journal), so for a given seed schedule the resulting
    counter is bit-identical across worker counts and across resumes.

    ``trace`` names a flight-recorder JSONL artifact to append to: each
    run then executes with tracing on (workers serialize each run's
    event journal + metrics back to the parent), and the parent writes
    runs in seed-schedule order and merges per-run metrics in that same
    order — so the exported file and the merged metrics are also
    identical across worker counts.  Runs replayed from the journal were
    not re-executed and contribute no events; the summary line counts
    them.
    """
    if workers is None:
        workers = default_workers()
    book = CampaignJournal(journal) if journal else None
    outcomes: Dict[int, Outcome] = book.load(spec) if book else {}
    replayed = {seed for seed in run_seeds if seed in outcomes}
    pending = [seed for seed in run_seeds if seed not in outcomes]
    total = len(run_seeds)
    completed = total - len(pending)
    records: Dict[int, dict] = {}
    tracing = trace is not None

    def note(triples) -> None:
        nonlocal completed
        if book is not None:
            book.append(spec, [(seed, value) for seed, value, __ in triples])
        for run_seed, value, record in triples:
            outcomes[run_seed] = Outcome(value)
            if record is not None:
                records[run_seed] = record
            completed += 1
            if progress is not None:
                progress(completed, total, outcomes[run_seed])

    init_wall = fan_out_chunks(
        _execute_chunk,
        pending,
        workers,
        initializer=_init_campaign_worker,
        initargs=(spec, tracing),
        on_batch=note,
    )
    if timing is not None:
        timing["init_wall"] = init_wall

    counter = OutcomeCounter()
    for seed in run_seeds:
        counter.add(outcomes[seed])
    if tracing:
        _export_trace(trace, spec, run_seeds, outcomes, records, replayed)
    return counter


def _export_trace(
    path: str,
    spec: RunSpec,
    run_seeds: Sequence[int],
    outcomes: Dict[int, Outcome],
    records: Dict[int, dict],
    replayed,
) -> None:
    """Append this campaign's runs + summary to the trace artifact.

    Everything is written parent-side in seed-schedule order, and the
    metrics merge follows the same order, so the artifact is
    byte-identical whether the runs executed serially or across a
    process pool.
    """
    merged_metrics: Dict[str, object] = {}
    with open(path, "a", encoding="utf-8") as handle:
        for seed in run_seeds:
            record = records.get(seed)
            if record is None:
                continue
            trace_export.write_run(handle, record)
            merge_metrics(merged_metrics, record["metrics"])
        tally: Dict[str, int] = {}
        for seed in run_seeds:
            value = outcomes[seed].value
            tally[value] = tally.get(value, 0) + 1
        trace_export.write_summary(
            handle,
            fingerprint=spec.fingerprint(),
            runs=len(run_seeds),
            replayed=len(replayed),
            outcomes=tally,
            metrics=canonical_metrics(merged_metrics),
        )
