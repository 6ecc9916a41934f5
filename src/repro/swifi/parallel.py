"""The campaign core: seeded, independent runs fanned out and merged.

Every campaign in this repository — the SWIFI Table II campaigns, the
web-server Fig. 7 campaign and the cluster campaign — follows one
protocol:

* a frozen *spec* (:class:`~repro.swifi.campaign.RunSpec`,
  :class:`~repro.webserver.campaign.WebRunSpec`,
  :class:`~repro.cluster.campaign.ClusterSpec`) plus a seed schedule
  (:func:`campaign_seeds`);
* ``spec.warm(trace)`` once per process — the one-time setup (pool
  boot + seal, the cluster's cell) whose result, the *context*, every
  run of that process reuses;
* ``spec.execute(seed, context, trace) -> (row, record | None)`` per
  run, a pure function of ``(spec, seed)``; every row carries an
  ``"outcome"`` string, and ``record`` is the run's flight-recorder
  export when tracing;
* an order-independent merge: rows are collected as chunks complete and
  reordered by the seed schedule, so the result is bit-identical
  serial vs parallel;
* an artifact plus a ``.timing.json`` wall-clock sidecar.

Runs are embarrassingly parallel — each one restores (or builds) its
own system, as the paper reboots the machine between runs — so
:func:`fan_out_chunks` spreads seed chunks over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

A JSONL journal makes Table II campaigns resumable: every completed run
is appended as ``{"fingerprint", "run_seed", "outcome"}`` the moment its
chunk finishes, and a rerun against the same journal replays those
outcomes instead of re-executing them.  Entries are keyed by the spec
fingerprint, so one journal file can checkpoint a whole multi-service
Table II campaign.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.observe import export as trace_export
from repro.observe.metrics import canonical_metrics, merge_metrics
from repro.swifi.classify import Outcome, OutcomeCounter
from repro.system import compile_all_interfaces

#: Target chunks per worker: small enough to stream progress and balance
#: load, large enough to amortise task-submission overhead.
CHUNKS_PER_WORKER = 4


def campaign_seeds(seed: int, n_runs: int) -> List[int]:
    """The deterministic per-run seed schedule of a campaign."""
    return [seed * 1_000_003 + i for i in range(n_runs)]


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


#: Worker-side ``(spec, context, trace)``, set once by the initializer.
#: Chunks then carry only seed lists: the spec crosses the process
#: boundary exactly once per worker (spawn) or zero times (fork — the
#: parent runs the initializer and workers inherit everything COW).
_WORKER: Optional[tuple] = None


def _init_worker(spec, trace: bool = False) -> None:
    """Campaign initializer: pay all per-process setup costs once.

    Compiles the six IDL interfaces (the ``compile_all_interfaces``
    cache is per-process and starts cold) and lets the spec warm its
    context — boot + seal the pooled system, build the cluster cell —
    before the first chunk arrives, so chunk wall times measure runs,
    not setup.  Under fork this runs in the *parent* and workers
    inherit the whole warm state copy-on-write.
    """
    global _WORKER
    if spec.ft_mode == "superglue":
        compile_all_interfaces()
    _WORKER = (spec, spec.warm(trace), trace)


def _execute_chunk(seeds: List[int]):
    """Worker entry point: one chunk of runs -> ``(seed, row, record)``.

    Reads the campaign from the initializer-set global — the submitted
    payload is just the seed list.  Rows and records are plain
    JSON-safe values, so results serialise cheaply across the process
    boundary and into the journal.  An exception the run's own
    classification did not absorb is a harness bug, not an outcome: it
    is re-raised as :class:`~repro.errors.HarnessError` naming the spec
    and the seed, so the failure can be reproduced in one process.
    """
    spec, context, trace = _WORKER
    results = []
    for seed in seeds:
        try:
            row, record = spec.execute(seed, context, trace)
        except Exception as exc:
            raise HarnessError(
                spec.fingerprint(), seed, f"{type(exc).__name__}: {exc}"
            ) from exc
        results.append((seed, row, record))
    return results


def fan_out_chunks(
    execute,
    pending: Sequence[int],
    workers: int,
    initializer=None,
    initargs: tuple = (),
    on_batch=None,
) -> float:
    """Fan ``execute`` out over chunked seeds.

    ``execute(seeds)`` must be a picklable module-level function taking
    only the chunk's seed list (per-campaign parameters travel through
    ``initializer(*initargs)``, never per chunk) and returning one
    result per seed; ``on_batch(results)`` is invoked in the parent as
    each chunk completes (completion order — :func:`execute_campaign`
    merges by seed afterwards).  With ``workers <= 1`` or at most one
    pending seed, the initializer runs in-process and everything
    executes seed-by-seed with no pool overhead but the identical
    per-run code path.  Under the ``fork`` start method (see
    :func:`worker_start_method`) the initializer also runs in the
    parent, *before* the pool exists, so forked workers inherit its
    work — sealed pooled system, compiled interfaces — copy-on-write
    instead of rebuilding it per worker.  If a chunk raises, chunks
    not yet started are cancelled and the exception propagates.

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
        try:
            for future in as_completed(futures):
                on_batch(future.result())
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return init_wall


class CampaignJournal:
    """Append-only JSONL checkpoint of completed injection runs."""

    def __init__(self, path: str):
        self.path = path

    def load(self, spec) -> Dict[int, Outcome]:
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

    def append(self, spec, completed: Iterable[Tuple[int, str]]) -> None:
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


@dataclass
class CampaignOutput:
    """A finished campaign: per-seed rows (seed order) plus the aggregate.

    The aggregate is the driver's own reduction of the rows; the
    wall-clock split is sidecar-only, so the artifact stays
    deterministic across machines, worker counts and pooling modes.
    """

    spec: object
    seeds: List[int]
    rows: List[Dict[str, object]]
    aggregate: Optional[Dict[str, object]] = None
    #: One-time setup (IDL compile, pool boot + seal, cell build) vs
    #: run execution, in wall seconds.
    setup_wall: float = 0.0
    exec_wall: float = 0.0

    def to_json_dict(self) -> Dict[str, object]:
        """The deterministic campaign artifact (no wall-clock anywhere)."""
        return {
            "fingerprint": self.spec.fingerprint(),
            "spec": asdict(self.spec),
            "seeds": list(self.seeds),
            "rows": self.rows,
            "aggregate": self.aggregate,
        }

    def write_json(self, path: str) -> None:
        """Write the artifact plus a ``.timing.json`` wall-clock sidecar."""
        write_artifact(
            path,
            self.to_json_dict(),
            {
                "runs": len(self.rows),
                "setup_wall": self.setup_wall,
                "exec_wall": self.exec_wall,
            },
        )


def write_artifact(path: str, artifact, timing) -> None:
    """Write a campaign artifact and its ``.timing.json`` sidecar.

    Wall-clock timings are machine-dependent, so they never enter the
    artifact itself: it stays bit-identical across machines, worker
    counts and pooling modes.
    """
    for target, payload in ((path, artifact), (path + ".timing.json", timing)):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def execute_campaign(
    spec,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    progress=None,
    trace: Optional[str] = None,
) -> CampaignOutput:
    """Execute a campaign's runs and merge their rows in seed order.

    ``workers=None`` uses one worker per CPU (:func:`default_workers`);
    ``workers=1`` (or a single pending run) stays in-process with no
    pool overhead.  The merge follows ``seeds`` regardless of
    completion order (and of how many runs were replayed from the
    journal), so for a given seed schedule the rows are bit-identical
    across worker counts and across resumes.

    ``journal`` names a JSONL checkpoint (rows of the form
    ``{"outcome": ...}`` only, i.e. Table II runs): completed runs are
    appended as their chunks finish and replayed on a rerun.
    ``progress(done, total, row)`` is called per finished run.

    ``trace`` names a flight-recorder JSONL artifact to append to: each
    run then executes with tracing on (workers serialize each run's
    record back to the parent), and the parent writes runs in seed order
    and merges per-run metrics in that same order — so the exported file
    is also identical across worker counts.  Runs replayed from the
    journal were not re-executed and contribute no events; the summary
    line counts them.

    The result's ``setup_wall`` is the time this process spent in the
    campaign initializer (see :func:`fan_out_chunks`); ``exec_wall`` is
    the rest.
    """
    if workers is None:
        workers = default_workers()
    seeds = list(seeds)
    book = CampaignJournal(journal) if journal else None
    rows: Dict[int, Dict[str, object]] = {
        seed: {"outcome": outcome.value}
        for seed, outcome in (book.load(spec) if book else {}).items()
    }
    pending = [seed for seed in seeds if seed not in rows]
    replayed = len(seeds) - len(pending)
    completed = replayed
    records: Dict[int, dict] = {}

    def note(batch) -> None:
        nonlocal completed
        if book is not None:
            book.append(spec, [(seed, row["outcome"]) for seed, row, __ in batch])
        for run_seed, row, record in batch:
            rows[run_seed] = row
            if record is not None:
                records[run_seed] = record
            completed += 1
            if progress is not None:
                progress(completed, len(seeds), row)

    exec_start = time.perf_counter()
    init_wall = fan_out_chunks(
        _execute_chunk,
        pending,
        workers,
        initializer=_init_worker,
        initargs=(spec, trace is not None),
        on_batch=note,
    )
    exec_wall = time.perf_counter() - exec_start - init_wall
    ordered = [rows[seed] for seed in seeds]
    if trace is not None:
        _export_trace(trace, spec, seeds, ordered, records, replayed)
    return CampaignOutput(
        spec=spec,
        seeds=seeds,
        rows=ordered,
        setup_wall=init_wall,
        exec_wall=exec_wall,
    )


def _export_trace(
    path: str,
    spec,
    seeds: Sequence[int],
    rows: Sequence[Dict[str, object]],
    records: Dict[int, dict],
    replayed: int,
) -> None:
    """Append this campaign's runs + summary to the trace artifact.

    Everything is written parent-side in seed-schedule order, and the
    metrics merge follows the same order, so the artifact is
    byte-identical whether the runs executed serially or across a
    process pool.
    """
    merged_metrics: Dict[str, object] = {}
    with open(path, "a", encoding="utf-8") as handle:
        for seed in seeds:
            record = records.get(seed)
            if record is None:
                continue
            trace_export.write_run(handle, record)
            merge_metrics(merged_metrics, record["metrics"])
        tally: Dict[str, int] = {}
        for row in rows:
            tally[row["outcome"]] = tally.get(row["outcome"], 0) + 1
        trace_export.write_summary(
            handle,
            fingerprint=spec.fingerprint(),
            runs=len(seeds),
            replayed=replayed,
            outcomes=tally,
            metrics=canonical_metrics(merged_metrics),
        )


def run_campaign(
    spec,
    run_seeds: Sequence[int],
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    progress=None,
    trace: Optional[str] = None,
    timing: Optional[Dict[str, float]] = None,
) -> OutcomeCounter:
    """Execute a Table II campaign and count its outcomes.

    See :func:`execute_campaign` for ``workers``, ``journal``,
    ``progress`` and ``trace``.  ``timing``, if given, receives the
    campaign's ``setup_wall`` and ``exec_wall`` seconds.
    """
    output = execute_campaign(
        spec, run_seeds, workers, journal=journal, progress=progress,
        trace=trace,
    )
    if timing is not None:
        timing["setup_wall"] = output.setup_wall
        timing["exec_wall"] = output.exec_wall
    counter = OutcomeCounter()
    for row in output.rows:
        counter.add(Outcome(row["outcome"]))
    return counter
