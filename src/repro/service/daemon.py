"""The experiment daemon: benchmark-as-a-service over the result store.

An :class:`ExperimentService` owns one SQLite experiment store and a job
queue.  Submitted jobs are (benchmarks x profiles) matrices; each job
runs through :func:`repro.metrics.baseline.collect` with the store
attached, so cells already on record are **served** (zero compiles, zero
guest cycles — the memo key is content-addressed on compiler version,
profile, benchmark, canonical overrides and dispatch engine) and only
novel cells execute, through the same resilient pool every CLI uses.
The returned artifact is byte-identical to a direct serial run: that is
the daemon-vs-direct identity invariant the test suite pins.

Concurrency model (``workers=`` / ``repro-serve --workers N|auto``):

* N drain tasks pull from one queue into a thread-pool executor, and
  **each job executes in its own forked subprocess** — per-job isolation
  of every piece of process-global state that concurrent in-process
  collections would corrupt (the ``COMPILE_STATS`` counter, the
  ``collect.last_*`` function attributes, compile-cache writes).  The
  worker measures its own compile delta and reports it back over a pipe,
  so warm-path zero-compile assertions stay exact under overlap.
* Identical in-flight submissions **coalesce**: a submission whose
  content-addressed cell-key set (plus git SHA) matches a queued or
  running job attaches to it as a follower instead of re-executing —
  same artifact, zero compiles, zero guest cycles, ``coalesced_with`` in
  the job view and a ``service.coalesced_total`` counter.  Fault-plan
  submissions are rejected before coalescing can see them.
* Read endpoints (``/v1/trends``, ``/v1/stats``) draw from a
  :class:`~repro.store.StoreReadPool` of read-only connections against
  the WAL-mode store, so high-QPS reads never contend with the
  appending job workers.
* Connections are ``Connection: close`` by default; a client that sends
  ``Connection: keep-alive`` (the pooled ``ServiceClient``) gets the
  connection reused across requests.

Job completion is **long-polled**: ``GET /v1/jobs/<id>?wait=S`` holds the
request as a coroutine on the event loop (no executor thread, no worker
slot) until the job turns ``done``/``failed`` or ``S`` seconds pass,
then answers with the normal job view; a finished job answers at once.
``S`` is capped at :data:`LONG_POLL_MAX_SECONDS`, below the client's
30 s socket timeout, and every job view advertises the cap as
``wait_max_seconds`` — a client long-polls only against a daemon that
advertised it.  Holds are woken where jobs become terminal: the end of
a drain task's job (coalesced followers with it, in
:meth:`ExperimentService._resolve_followers`) and drain shedding.
``stop()`` answers every held long-poll before closing connections.
A long-poll's hold is left out of ``service.http_latency_us``;
``service.wait_notify_us`` times terminal transition to response
written.

Robustness layer (overload, wedged jobs, crashed daemons, shared stores):

* **Admission control** — ``max_queue`` bounds the job queue; an
  over-capacity submission is shed with a structured ``429`` carrying a
  deterministic ``Retry-After`` derived from queue depth and the
  ``service.job_exec_us`` latency histogram.  A ``degraded`` daemon (or
  one whose breaker tripped after K consecutive job-subprocess failures,
  or one that lost the writer lease) runs *memo-only*: submissions whose
  cells are all warm in the store still serve (read-only, nothing
  appended), cold work is refused with a structured ``503``.
* **Job deadlines** — every job can carry a deadline (service default,
  client-overridable, capped).  The executor shepherd polls the result
  pipe in bounded steps instead of blocking, so a stuck pipe can never
  wedge a drain task; on expiry the job's subprocess *group* is killed
  (each job leads its own process group, so forked pool workers die with
  it) and the job fails with a structured ``deadline`` failure.
* **Lease-fenced writes** — the daemon holds the store's expiring writer
  lease (:mod:`repro.store.lease`); each job's append re-validates the
  fencing token inside the transaction, so a daemon that lost the lease
  mid-job gets a structured ``lease-lost`` failure, never a torn append.
  The lease loser degrades to memo-only and retries acquisition with
  deterministic jittered backoff.  Lease transitions on daemon threads
  and job-worker forks are serialised by one lock: a worker forked while
  a renewal holds the store's write lock would inherit SQLite's lock
  state and fail every write with ``database is locked``.
* **Graceful drain** — ``drain()`` (SIGTERM in ``repro-serve``) stops
  admission immediately (structured 503s), sheds queued jobs, lets
  running jobs finish up to the drain budget then kills their groups,
  flushes trace sinks and releases the lease.

Every shed/killed/refused outcome is an attributed structured failure —
``job["failure"] = {"kind": ...}`` — never a daemon crash or silent hang.


All daemon bookkeeping — job dicts, the queue mirror, metric counters —
mutates only on the event-loop thread; executor threads do nothing but
shepherd the worker subprocess and hand its payload back, so no job
state needs locking.

Every request is traced (:mod:`repro.trace`): the daemon parses
``X-Repro-Trace`` off the wire (minting a fresh trace id when absent),
roots an ``http.request`` span per request, and threads the context
through submit -> queue wait -> executor -> ``baseline.collect`` ->
pool fan-out -> store.  The worker subprocess records its spans into a
local tracer and ships them back with the result; the daemon ingests
them into its ring buffer and JSONL sink, so one submission is still one
span tree across the whole stack.  The span buffer is served on ``GET
/v1/traces/<id>``, and ``GET /metrics`` exposes the registry in
Prometheus text exposition format.  All of this is wall-clock
operational telemetry; none of it touches measured artifacts.

Everything is standard library: asyncio sockets, hand-rolled HTTP/1.1
framing (:mod:`repro.service.http`), ``multiprocessing`` pipes,
``sqlite3`` underneath.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import os
import signal
import socket
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set

from ..metrics.exposition import EXPOSITION_CONTENT_TYPE, render_exposition
from ..metrics.registry import MetricsRegistry
from ..trace import (
    NULL_CONTEXT,
    TRACE_HEADER,
    JsonlSink,
    Span,
    TraceContext,
    Tracer,
    format_trace_header,
    new_span_id,
    new_trace_id,
    parse_trace_header,
)
from .http import HttpError, Request, format_response, read_request

#: job lifecycle: queued -> running -> done | failed
JOB_STATES = ("queued", "running", "done", "failed")

#: microsecond-scale latency buckets for the service histograms
#: (100us .. ~100s; jobs that execute cells land in the upper decades,
#: memo-served ones in the lower)
LATENCY_BUCKETS_US = (
    100, 1_000, 5_000, 25_000, 100_000, 500_000,
    2_000_000, 10_000_000, 30_000_000, 100_000_000,
)

#: hard ceiling on any job deadline when no service default caps it
DEADLINE_CAP_SECONDS = 3600.0

#: ceiling on a long-poll's hold (``GET /v1/jobs/<id>?wait=S``), kept
#: below the client's 30 s socket timeout so a held request never times
#: out the connection it rides on; advertised as ``wait_max_seconds``
LONG_POLL_MAX_SECONDS = 20.0

#: Retry-After is clamped to this window (seconds)
RETRY_AFTER_MIN, RETRY_AFTER_MAX = 1, 120

#: per-process service instance counter feeding lease holder identities
_INSTANCE_IDS = itertools.count(1)


class _RemoteJobError(Exception):
    """A job failure reported by the worker subprocess — the message is
    already formatted (``TypeName: detail``), so the daemon surfaces it
    verbatim instead of nesting exception names.  ``kind`` classifies the
    failure (``error`` | ``lease-lost`` | ``worker-death``) for the
    structured ``job["failure"]`` block."""

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


class _JobKilled(Exception):
    """The daemon killed the job's subprocess group on purpose —
    ``kind`` says why (``deadline`` | ``drain`` | ``fault``)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _collect_in_worker(config: dict) -> dict:
    """The actual collection, running inside the job subprocess.

    Everything process-global is private here: ``COMPILE_STATS``, the
    ``collect.last_*`` attributes, the store connection.  Spans land in a
    local tracer rooted at the job's ``job.execute`` span and travel back
    as dicts; the compile delta comes from ``collect.last_store`` —
    measured around the execution *in this process*, which is what makes
    per-job compile accounting exact under daemon-level overlap.
    """
    from ..metrics import baseline
    from ..parallel import CompileCache
    from ..store import ExperimentStore

    request = config["request"]
    profiles = baseline.resolve_profiles(request["profiles"])
    # the suite as the daemon resolved it at submission — explicit
    # per-benchmark params included, exactly what the cell keys name
    suite = config["suite"]
    tracer = Tracer()
    ctx = TraceContext(
        tracer, config["trace_id"] or new_trace_id(), config["parent_span"]
    )
    cache = (
        CompileCache(config["cache_dir"])
        if config["use_compile_cache"]
        else None
    )
    # memo-only jobs (degraded daemon / breaker open / lease lost) serve
    # warm cells through a read-only store handle and append nothing;
    # admission guaranteed every cell is a hit.  Normal jobs arm the
    # daemon's lease fence so an append after losing the lease aborts
    # inside the store transaction instead of interleaving with the
    # new holder's writes.
    memo_only = bool(config.get("memo_only"))
    lease = config.get("lease")
    with ExperimentStore(config["store_path"], read_only=memo_only) as store:
        if lease is not None and not memo_only:
            store.set_write_fence(lease["holder"], lease["token"])
        artifact = baseline.collect(
            profiles=profiles,
            suite=suite,
            scale=request["scale"],
            git_sha=request["git_sha"],
            jobs=config["jobs"],
            cache=cache,
            dispatch=request["dispatch"],
            store=store,
            trace=ctx,
            record=not memo_only,
        )
    stats = dict(baseline.collect.last_store)
    return {
        "artifact": artifact,
        "stats": stats,
        "spans": [span.to_dict() for span in tracer.snapshot()],
    }


def _job_worker(conn, config: dict) -> None:
    """Subprocess entry point: run the collection, ship one message back.

    First act: become a process-group leader, so a deadline/drain kill of
    this job's group reaps every pool worker it forks, never the daemon.
    Failures travel back structured (``{"kind", "message"}``) so the
    daemon can attribute them — a lost lease is ``lease-lost``, anything
    else is ``error``.
    """
    if hasattr(os, "setpgid"):
        try:
            os.setpgid(0, 0)
        except OSError:
            pass
    try:
        message = ("ok", _collect_in_worker(config))
    except BaseException as exc:  # noqa: BLE001 — job isolation boundary
        from ..store.lease import LeaseLost

        kind = "lease-lost" if isinstance(exc, LeaseLost) else "error"
        message = (
            "error",
            {"kind": kind, "message": f"{type(exc).__name__}: {exc}"},
        )
    try:
        conn.send(message)
    finally:
        conn.close()


def _hold_store_lock(path: str, seconds: float, acquired) -> None:
    """Rival-writer subprocess for the ``store_contention`` chaos site:
    hold ``BEGIN IMMEDIATE`` on the store for ``seconds``, signalling
    ``acquired`` once the lock is held."""
    conn = sqlite3.connect(path, timeout=5.0)
    try:
        try:
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError:
            return  # store busier than the chaos plan expected; stand down
        acquired.set()
        time.sleep(seconds)
        conn.execute("COMMIT")
    finally:
        conn.close()


def _reap_job_process(proc, grace: float = 2.0) -> None:
    """Reap one job subprocess, escalating to a process-group SIGKILL.

    ``join(grace)`` first (a cleanly-exiting child costs nothing); a
    child still alive after the grace — or an intentional kill
    (``grace <= 0``) — gets SIGKILL on its *group*: the job leads its own
    pgid (both sides call ``setpgid``), so pool workers it forked die
    with it instead of orphaning.  Every path ends in ``join()``, so no
    zombie outlives the shepherd thread.
    """
    if proc.pid is None:
        return
    escalate = grace <= 0
    if not escalate:
        proc.join(grace)
        escalate = proc.is_alive()
    if escalate:
        if hasattr(os, "killpg"):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
        if proc.is_alive():
            proc.kill()
        proc.join(5.0)
    else:
        proc.join()


def _run_job_subprocess(config: dict) -> dict:
    """Run one job in a fresh subprocess; return its result payload.

    Runs on an executor thread.  Fork context where available (same
    choice as the cell pool); the pipe carries exactly one message.  The
    shepherd never blocks on the pipe: it polls in bounded steps,
    checking the job's deadline and cancel flag between polls, so a
    stuck pipe (wedged worker) can never wedge a drain task.  A worker
    that dies without reporting (OOM-kill, hard crash) surfaces as a
    structured job failure, not a daemon crash.

    Shepherd-only keys (stripped before the child sees the config):
    ``_deadline`` (monotonic expiry), ``_cancel`` (``threading.Event``
    set by drain), ``_kill_at_start`` (chaos ``job_kill`` site),
    ``_fork_lock`` (held across the fork so no daemon-thread lease
    transition holds a store lock the child would inherit).

    A successful payload gains ``spawn_us``: fork-lock wait plus
    ``proc.start()`` through the parent's ``setpgid``.
    """
    from ..parallel.pool import _pool_context

    deadline = config.pop("_deadline", None)
    cancel = config.pop("_cancel", None)
    kill_at_start = config.pop("_kill_at_start", False)
    fork_lock = config.pop("_fork_lock")

    ctx = _pool_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_job_worker, args=(child_conn, config))
    t_spawn = time.monotonic()
    with fork_lock:
        proc.start()
    child_conn.close()
    # parent-side half of the both-sides setpgid idiom: whichever of
    # parent/child runs first makes the child a group leader, so the
    # kill path below can target the group race-free
    if hasattr(os, "setpgid"):
        try:
            os.setpgid(proc.pid, proc.pid)
        except OSError:
            pass
    spawn_us = (time.monotonic() - t_spawn) * 1e6
    killed: Optional[str] = None
    kind = payload = None
    try:
        if kill_at_start:
            killed = "fault"
            _reap_job_process(proc, grace=0.0)
        while killed is None:
            if cancel is not None and cancel.is_set():
                killed = "drain"
                _reap_job_process(proc, grace=0.0)
                break
            if deadline is not None and time.monotonic() >= deadline:
                killed = "deadline"
                _reap_job_process(proc, grace=0.0)
                break
            try:
                if parent_conn.poll(0.05):
                    kind, payload = parent_conn.recv()
                    break
            except (EOFError, OSError):
                break
            if not proc.is_alive():
                # drain any message flushed just before the child exited
                try:
                    if parent_conn.poll(0):
                        kind, payload = parent_conn.recv()
                except (EOFError, OSError):
                    pass
                break
    finally:
        parent_conn.close()
        _reap_job_process(proc)
    if killed == "deadline":
        raise _JobKilled(
            "deadline",
            f"job exceeded its deadline; subprocess group "
            f"(pid {proc.pid}) killed",
        )
    if killed == "drain":
        raise _JobKilled(
            "drain",
            f"daemon draining: running job's subprocess group "
            f"(pid {proc.pid}) killed after the drain budget",
        )
    if killed == "fault":
        raise _JobKilled(
            "fault",
            f"chaos fault job_kill: subprocess group (pid {proc.pid}) "
            f"killed at start",
        )
    if kind is None:
        raise _RemoteJobError(
            f"job worker (pid {proc.pid}) died without reporting "
            f"a result (exit code {proc.exitcode})",
            kind="worker-death",
        )
    if kind != "ok":
        if isinstance(payload, dict):
            raise _RemoteJobError(
                payload.get("message", "job failed"),
                kind=payload.get("kind", "error"),
            )
        raise _RemoteJobError(str(payload))
    payload["spawn_us"] = spawn_us
    return payload


def _coalesce_key(suite, profiles, dispatch, git_sha) -> str:
    """The submission-identity digest: the sorted content-addressed cell
    keys (already covering compiler version, profile, benchmark, resolved
    params and dispatch engine) plus the git SHA stamp, which lives in
    the artifact but not in any cell key.  Two submissions with equal
    digests are guaranteed byte-identical artifacts — the precondition
    that makes coalescing a pure optimization."""
    from ..store import cell_key

    digest = hashlib.sha256()
    for key in sorted(
        cell_key(name, profile.name, overrides=params or None, dispatch=dispatch)
        for name, params in suite
        for profile in profiles
    ):
        digest.update(key.encode())
        digest.update(b"\x00")
    digest.update(f"git:{git_sha!r}".encode())
    return digest.hexdigest()


class ExperimentService:
    """One daemon instance: an HTTP front end over a store-backed queue."""

    def __init__(
        self,
        store_path: Optional[str] = None,
        *,
        jobs=None,
        workers=None,
        cache_dir: Optional[str] = None,
        use_compile_cache: bool = True,
        default_dispatch: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        trace_log: Optional[str] = None,
        max_queue=None,
        job_deadline: Optional[float] = None,
        degraded: bool = False,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        drain_grace: float = 5.0,
        use_lease: bool = True,
        lease_ttl: Optional[float] = None,
        fault_plan=None,
    ):
        from ..parallel import resolve_jobs
        from ..store import DEFAULT_LEASE_TTL, default_store_path

        self.store_path = store_path or default_store_path()
        self.jobs = jobs
        #: concurrent job executions (``--workers``): N drain tasks over
        #: one queue, each job in its own subprocess
        self.workers = resolve_jobs(workers)
        self.cache_dir = cache_dir
        self.use_compile_cache = use_compile_cache
        self.default_dispatch = default_dispatch
        #: admission bound on *queued* (not running) jobs; None =
        #: unbounded, "auto" = 4x workers
        if isinstance(max_queue, str):
            text = max_queue.strip().lower()
            if text == "auto":
                max_queue = 4 * self.workers
            else:
                try:
                    max_queue = int(text)
                except ValueError:
                    raise ValueError(f"bad max_queue {max_queue!r}") from None
        if max_queue is not None:
            max_queue = int(max_queue)
            if max_queue < 1:
                raise ValueError("max_queue must be >= 1")
        self.max_queue: Optional[int] = max_queue
        #: default job deadline (seconds) — also the cap on client
        #: overrides; None = no default, overrides capped at
        #: DEADLINE_CAP_SECONDS
        self.job_deadline = None if job_deadline is None else float(job_deadline)
        self.deadline_cap = (
            self.job_deadline
            if self.job_deadline is not None
            else DEADLINE_CAP_SECONDS
        )
        #: operator-forced memo-only mode (vs breaker/lease, which trip it
        #: automatically)
        self.degraded = bool(degraded)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.drain_grace = float(drain_grace)
        self.use_lease = bool(use_lease)
        self.lease_ttl = float(lease_ttl) if lease_ttl else DEFAULT_LEASE_TTL
        #: this daemon's lease holder identity — per *instance*, not per
        #: process: two services in one process (tests, embedders) must
        #: not mistake each other's lease for a self-renewal
        self.holder_id = (
            f"{socket.gethostname()}:{os.getpid()}:{next(_INSTANCE_IDS)}"
        )
        #: optional FaultPlan with service sites armed (chaos harness
        #: only; request-level fault plans are still rejected with 409)
        self.fault_plan = fault_plan
        self._draining = False
        self._breaker_consecutive = 0
        self._breaker_opened_monotonic: Optional[float] = None
        self._rejected: Dict[str, int] = {}
        self._lease = None
        self._lease_held = False
        self._lease_attempts = 0
        self._lease_task: Optional[asyncio.Task] = None
        #: serialises daemon-thread lease transitions (BEGIN IMMEDIATE)
        #: with job-worker forks: a child forked while this process holds
        #: a store write lock inherits SQLite's lock state and can never
        #: write
        self._fork_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._trace_sink = JsonlSink(trace_log) if trace_log else None
        self.tracer = Tracer(
            sinks=(self._trace_sink,) if self._trace_sink else ()
        )
        self._jobs: Dict[int, dict] = {}
        self._next_job = 1
        self._queue: asyncio.Queue = asyncio.Queue()
        #: mirror of the queue's job ids in dequeue order — the source of
        #: truth for ``queue_position`` (a job leaves it the moment a
        #: drain task picks it up, unlike a status scan over ``_jobs``)
        self._pending: List[int] = []
        #: coalesce digest -> primary job id, for every queued/running job
        self._inflight_keys: Dict[str, int] = {}
        #: daemon-owned compile accounting: the sum of per-job deltas the
        #: workers report — never a snapshot of any process-global
        self._compile_totals: Dict[str, int] = {"compile_source_calls": 0}
        self._server: Optional[asyncio.AbstractServer] = None
        self._drainers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._read_pool = None
        self._connections: Set[object] = set()
        #: job id -> event set when that job turns terminal; created by
        #: the first long-poll on the job, dropped when it fires
        self._terminal_events: Dict[int, asyncio.Event] = {}
        #: long-polls currently holding (stop() waits for them to answer)
        self._long_polls_held = 0
        self._stopping = False
        self._inflight = 0
        self.started_unix: Optional[float] = None
        self._started_monotonic: Optional[float] = None
        self.swept_tmp_files = 0
        self.journal_mode: Optional[str] = None
        # register the service gauges/histograms/counters up front so a
        # fresh daemon's /metrics already carries the full instrument set
        self.registry.gauge("service.queue_depth")
        self.registry.gauge("service.inflight")
        self.registry.gauge("service.draining")
        self.registry.gauge("service.breaker_open").set(0)
        self.registry.gauge("service.lease_held")
        self.registry.counter("service.coalesced_total")
        self.registry.counter("service.rejected_total")
        self.registry.counter("service.shed_total")
        self.registry.counter("service.deadline_kills")
        self.registry.counter("service.drain_kills")
        self.registry.counter("service.breaker_trips")
        self.registry.counter("service.lease_lost_total")
        self.registry.counter("service.fault_injections")
        self.registry.counter("service.long_polls_total")
        self.registry.histogram("service.http_latency_us", LATENCY_BUCKETS_US)
        self.registry.histogram("service.wait_notify_us", LATENCY_BUCKETS_US)
        self.registry.histogram("service.job_spawn_us", LATENCY_BUCKETS_US)
        self.registry.histogram(
            "service.job_queue_wait_us", LATENCY_BUCKETS_US
        )
        self.registry.histogram("service.job_exec_us", LATENCY_BUCKETS_US)

    # ------------------------------------------------------------- lifecycle

    def _cache(self):
        if not self.use_compile_cache:
            return None
        from ..parallel import CompileCache

        return CompileCache(self.cache_dir)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the listener (port 0 = ephemeral), run startup GC, apply
        store migrations, and start the drain tasks."""
        cache = self._cache()
        if cache is not None:
            # reap compile-cache temp files orphaned by previously killed
            # writers, so a crashed run never bloats the daemon's cache
            self.swept_tmp_files = cache.sweep()
        from ..store import ExperimentStore, StoreReadPool

        # create / migrate / switch to WAL up front, then warm the
        # read-only pool the query endpoints draw from
        store = ExperimentStore(self.store_path)
        self.journal_mode = store.journal_mode
        store.close()
        self._read_pool = StoreReadPool(
            self.store_path, size=max(2, self.workers)
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        if self.use_lease:
            from ..store import WriterLease

            self._lease = WriterLease(
                self.store_path, holder=self.holder_id, ttl=self.lease_ttl
            )
            self._lease_held = self._lease.try_acquire()
            self.registry.gauge("service.lease_held").set(
                1 if self._lease_held else 0
            )
            self._lease_task = asyncio.ensure_future(self._lease_loop())
        self._server = await asyncio.start_server(self._serve_one, host, port)
        self._drainers = [
            asyncio.ensure_future(self._drain_jobs())
            for _ in range(self.workers)
        ]
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        # stop accepting, then answer every held long-poll with its job's
        # current view before the connections are closed below (Python
        # 3.12's wait_closed() waits for every open connection)
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for event in self._terminal_events.values():
            event.set()
        self._terminal_events.clear()
        released = time.monotonic() + 1.0
        while self._long_polls_held and time.monotonic() < released:
            await asyncio.sleep(0.001)
        if self._lease_task is not None:
            self._lease_task.cancel()
            try:
                await self._lease_task
            except asyncio.CancelledError:
                pass
            self._lease_task = None
        if self._lease is not None:
            # closing may checkpoint the WAL under an exclusive lock, so
            # it excludes forks too
            with self._fork_lock:
                try:
                    if self._lease_held:
                        self._lease.release()
                finally:
                    self._lease.close()
                    self._lease = None
                    self._lease_held = False
                    self.registry.gauge("service.lease_held").set(0)
        for task in self._drainers:
            task.cancel()
        for task in self._drainers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._drainers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        # keep-alive clients may still hold connections open; close them
        # so stop() never blocks on an idle peer
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._read_pool is not None:
            self._read_pool.close()
            self._read_pool = None
        if self._trace_sink is not None:
            self._trace_sink.close()
            self._trace_sink = None

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("service not started")
        await self._server.serve_forever()

    # --------------------------------------------------------- writer lease

    async def _lease_loop(self) -> None:
        """Hold the writer lease: renew at ttl/3 while held; when lost,
        retry acquisition on the deterministic jittered backoff schedule
        (memo-only mode covers the gap)."""
        loop = asyncio.get_event_loop()
        while self._lease is not None:
            if self._lease_held:
                await asyncio.sleep(self.lease_ttl / 3.0)
                if self._lease is None:
                    return
                ok = await loop.run_in_executor(
                    None, self._lease_transition, self._lease.renew
                )
                if not ok:
                    self._note_lease_lost("renewal refused: lease was stolen")
            else:
                delay = self._lease.backoff_delay(self._lease_attempts)
                self._lease_attempts += 1
                await asyncio.sleep(delay)
                if self._lease is None:
                    return
                ok = await loop.run_in_executor(
                    None, self._lease_transition, self._lease.try_acquire
                )
                if ok:
                    self._lease_held = True
                    self._lease_attempts = 0
                    self.registry.gauge("service.lease_held").set(1)

    def _lease_transition(self, method):
        """Run one lease transition under the fork lock, so no job worker
        is forked while it holds the store's write lock."""
        with self._fork_lock:
            return method()

    def _note_lease_lost(self, detail: str) -> None:
        """Event-loop-thread bookkeeping for a lost lease: stop fencing
        new appends (memo-only until re-acquired), count it, and let the
        lease loop race for re-acquisition."""
        if not self._lease_held:
            return
        self._lease_held = False
        self._lease_attempts = 0
        self.registry.counter("service.lease_lost_total").add(1)
        self.registry.gauge("service.lease_held").set(0)

    # ------------------------------------------------------ graceful drain

    def begin_drain(self) -> None:
        """Stop admission *now* and shed every queued job with a
        structured ``shed`` failure (their result polls answer 503).
        Running jobs keep running — :meth:`drain` bounds them."""
        if self._draining:
            return
        self._draining = True
        self.registry.gauge("service.draining").set(1)
        now_unix, now_mono = time.time(), time.monotonic()
        for job_id in list(self._pending):
            job = self._jobs[job_id]
            job["status"] = "failed"
            job["error"] = "daemon draining: job shed before execution"
            job["failure"] = {"kind": "shed", "detail": job["error"]}
            job["finished_unix"] = now_unix
            job["finished_monotonic"] = now_mono
            if self._inflight_keys.get(job["coalesce_key"]) == job["id"]:
                del self._inflight_keys[job["coalesce_key"]]
            self._resolve_followers(job)
            self.registry.counter("service.shed_total").add(1)
        self._pending.clear()
        self._refresh_gauges()

    async def drain(self, grace: Optional[float] = None) -> None:
        """Graceful shutdown: stop admission, shed the queue, give
        running jobs up to ``grace`` seconds (default ``drain_grace``),
        kill the stragglers' subprocess groups, flush trace sinks,
        release the lease, stop the server."""
        grace = self.drain_grace if grace is None else float(grace)
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, grace)
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._inflight:
            for job in self._jobs.values():
                if job["status"] == "running" and job.get("_cancel") is not None:
                    job["_cancel"].set()
                    self.registry.counter("service.drain_kills").add(1)
            # the cancel flag is polled every 50ms by the shepherds; give
            # the kill+reap path a bounded window to come home
            hard = time.monotonic() + 30.0
            while self._inflight and time.monotonic() < hard:
                await asyncio.sleep(0.05)
        self.tracer.flush()
        await self.stop()

    # ------------------------------------------------------------ admission

    def _retry_after(self) -> int:
        """Deterministic Retry-After: how long until the backlog ahead of
        a new submission drains, from queue depth and the measured mean
        job execution latency (1s when no job has completed yet), clamped
        to [1, 120] seconds."""
        hist = self.registry.histogram("service.job_exec_us", LATENCY_BUCKETS_US)
        mean_s = (hist.mean / 1e6) if hist.count else 1.0
        mean_s = max(mean_s, 0.001)
        depth = len(self._pending) + self._inflight + 1
        estimate = math.ceil(depth * mean_s / max(1, self.workers))
        return max(RETRY_AFTER_MIN, min(RETRY_AFTER_MAX, estimate))

    def _reject(self, status: int, message: str, reason: str,
                **fields) -> None:
        """Refuse a submission with a structured, Retry-After-bearing
        429/503 and count it."""
        self.registry.counter("service.rejected_total").add(1)
        self._rejected[reason] = self._rejected.get(reason, 0) + 1
        retry = self._retry_after()
        raise HttpError(
            status,
            message,
            headers={"Retry-After": str(retry)},
            reason=reason,
            retry_after=retry,
            **fields,
        )

    def _breaker_state(self) -> str:
        if self._breaker_opened_monotonic is None:
            return "closed"
        if (
            time.monotonic() - self._breaker_opened_monotonic
            >= self.breaker_cooldown
        ):
            return "half-open"
        return "open"

    def _memo_only_reason(self) -> Optional[str]:
        """Why cold work is currently refused (None = full service).
        ``degraded`` is operator-forced; ``lease`` means another daemon
        holds the store's writer lease; ``breaker`` means K consecutive
        job-subprocess failures tripped it (after the cooldown the
        breaker goes half-open and cold probes are admitted — a probe
        success closes it, a failure re-opens it)."""
        if self.degraded:
            return "degraded"
        if self.use_lease and self._lease is not None and not self._lease_held:
            return "lease"
        if self._breaker_state() == "open":
            return "breaker"
        return None

    def _note_job_outcome(self, job: dict, failure_kind: Optional[str]) -> None:
        """Breaker accounting for one finished job.  Only cold-path
        subprocess outcomes count: memo-only jobs don't exercise the
        failing path, and deadline/drain/lease outcomes are
        administrative, not evidence of a broken worker path."""
        if job.get("memo_only"):
            return
        if failure_kind is None:
            self._breaker_consecutive = 0
            if self._breaker_opened_monotonic is not None:
                self._breaker_opened_monotonic = None
                self.registry.gauge("service.breaker_open").set(0)
            return
        if failure_kind not in ("error", "worker-death", "fault"):
            return
        self._breaker_consecutive += 1
        if (
            self.breaker_threshold > 0
            and self._breaker_consecutive >= self.breaker_threshold
        ):
            if self._breaker_opened_monotonic is None:
                self.registry.counter("service.breaker_trips").add(1)
            # (re)open — a failed half-open probe lands here too and
            # restarts the cooldown
            self._breaker_opened_monotonic = time.monotonic()
            self.registry.gauge("service.breaker_open").set(1)

    def _all_cells_warm(self, suite, profiles, dispatch) -> bool:
        """Memo-only admission check: is every cell of this submission
        already on record?"""
        from ..store import cell_key

        keys = [
            cell_key(name, p.name, overrides=params or None, dispatch=dispatch)
            for name, params in suite
            for p in profiles
        ]
        with self._read_store() as store:
            return all(store.has_live(key) for key in keys)

    # -------------------------------------------------------- chaos faults

    def _service_fault_site(self, job_id: int) -> Optional[str]:
        if self.fault_plan is None:
            return None
        site = self.fault_plan.service_fault(job_id)
        if site is not None:
            self.registry.counter("service.fault_injections").add(1)
        return site

    def _chaos_steal_lease(self, job_id: int) -> None:
        """lease-steal fault site: a rival writer forcibly takes the
        lease (short TTL, so this daemon re-acquires soon after) — the
        in-flight job's fenced append must abort with lease-lost."""
        from ..store import WriterLease

        ttl = min(1.0, self.lease_ttl / 4.0)
        with self._fork_lock, WriterLease(
            self.store_path, holder=f"chaos-thief-{job_id}", ttl=ttl
        ) as thief:
            thief.steal()

    def _chaos_hold_store(self, seconds: float) -> None:
        """store-lock-contention fault site: a rival writer holds BEGIN
        IMMEDIATE on the store — the job must ride it out through busy
        timeouts, not fail.  The rival runs in its own *process*, not a
        daemon thread: the job subprocess forks from this process, and a
        fork taken while a local connection holds the WAL write lock
        copies SQLite's per-process inode lock state into the child,
        which then sees a phantom local writer forever.  Blocks (briefly)
        until the rival holds the lock, so the injection happens-before
        the job starts."""
        from ..parallel.pool import _pool_context

        ctx = _pool_context()
        acquired = ctx.Event()
        proc = ctx.Process(
            target=_hold_store_lock,
            args=(self.store_path, seconds, acquired),
            daemon=True,
        )
        proc.start()
        acquired.wait(5.0)

    # ------------------------------------------------------------- job queue

    def _refresh_gauges(self) -> None:
        self.registry.gauge("service.queue_depth").set(self._queue.qsize())
        self.registry.gauge("service.inflight").set(self._inflight)

    def _submit(self, request: dict, ctx=NULL_CONTEXT) -> dict:
        from ..metrics import baseline
        from ..vm.dispatch import DISPATCH_MODES

        if request.get("plan") or request.get("faults"):
            raise HttpError(
                409,
                "the service does not accept fault plans: memoized results "
                "must stay perturbation-free (run repro-chaos directly)",
            )
        scale = request.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool):
            raise HttpError(400, f"bad scale {scale!r}")
        dispatch = request.get("dispatch")
        if dispatch is None:
            dispatch = self.default_dispatch
        if dispatch is not None and dispatch not in DISPATCH_MODES:
            raise HttpError(
                400, f"bad dispatch {dispatch!r} (known: {', '.join(DISPATCH_MODES)})"
            )
        try:
            profiles = baseline.resolve_profiles(request.get("profiles"))
            suite = baseline.resolve_suite(request.get("benchmarks"), float(scale))
        except ValueError as exc:
            raise HttpError(400, str(exc))
        deadline = request.get("deadline")
        if deadline is not None:
            if (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
                or float(deadline) <= 0
            ):
                raise HttpError(400, f"bad deadline {deadline!r}")
            # client-overridable but capped: the service default (when
            # set) is the ceiling, else the global cap
            deadline = min(float(deadline), self.deadline_cap)
        else:
            deadline = self.job_deadline
        # admission control happens before the job exists, so rejected
        # submissions never leave a job record behind
        if self._draining:
            self._reject(
                503,
                "daemon is draining: no new submissions are admitted",
                "draining",
            )
        coalesce_key = _coalesce_key(
            suite, profiles, dispatch, request.get("git_sha")
        )
        primary = self._jobs.get(self._inflight_keys.get(coalesce_key, -1))
        coalesces = (
            primary is not None and primary["status"] in ("queued", "running")
        )
        memo_only = False
        if not coalesces:
            reason = self._memo_only_reason()
            if reason is not None:
                if self._all_cells_warm(suite, profiles, dispatch):
                    memo_only = True  # warm submissions still serve
                else:
                    self._reject(
                        503,
                        f"daemon is memo-only ({reason}): this submission "
                        "has cold cells and cold work is refused",
                        reason,
                        memo_only=True,
                    )
            if (
                self.max_queue is not None
                and len(self._pending) >= self.max_queue
            ):
                self._reject(
                    429,
                    f"job queue is full ({len(self._pending)}/"
                    f"{self.max_queue} queued)",
                    "queue_full",
                    queue_depth=len(self._pending),
                    max_queue=self.max_queue,
                )
        job = {
            "id": self._next_job,
            "status": "queued",
            "created_unix": time.time(),
            "request": {
                "benchmarks": [name for name, _params in suite],
                "profiles": [p.name for p in profiles],
                "scale": float(scale),
                "dispatch": dispatch,
                "git_sha": request.get("git_sha"),
            },
            # the resolved (name, params) pairs the cell keys were
            # computed from — what the worker runs
            "suite": [(name, dict(params)) for name, params in suite],
            "stats": None,
            "error": None,
            # wall-clock lifecycle stamps: unix pairs for display,
            # monotonic pairs for durations (immune to clock steps)
            "submitted_monotonic": time.monotonic(),
            "started_unix": None,
            "started_monotonic": None,
            "finished_unix": None,
            "finished_monotonic": None,
            # submission's trace: job spans are parented under the
            # submitting request's http.request span
            "trace_id": ctx.trace_id,
            "submit_span": ctx.span_id,
            "coalesce_key": coalesce_key,
            "coalesced_with": None,
            "followers": [],
            "deadline_seconds": deadline,
            "memo_only": memo_only,
            "failure": None,
            "fault_site": None,
            # drain sets this; the shepherd thread polls it between pipe
            # polls and kills the job's subprocess group when set
            "_cancel": threading.Event(),
        }
        self._next_job += 1
        self._jobs[job["id"]] = job
        if coalesces:
            # identical in-flight submission: attach, don't re-execute
            job["coalesced_with"] = primary["id"]
            primary["followers"].append(job["id"])
            if primary["status"] == "running":
                self._mark_running(job, time.monotonic())
            self.registry.counter("service.coalesced_total").add(1)
            if job["trace_id"] is not None:
                self._job_context(job).event(
                    "job.coalesced", job=job["id"], primary=primary["id"]
                )
        else:
            self._inflight_keys[job["coalesce_key"]] = job["id"]
            self._pending.append(job["id"])
            self._queue.put_nowait(job["id"])
        self.registry.counter("service.jobs").add(1)
        self._refresh_gauges()
        return job

    @staticmethod
    def _mark_running(job: dict, now: float) -> None:
        job["status"] = "running"
        job["started_unix"] = time.time()
        job["started_monotonic"] = now

    def _job_context(self, job: dict) -> TraceContext:
        """The trace position job-lifecycle spans hang off — the submit
        request's span when the submission carried one."""
        if job.get("trace_id") is None:
            return self.tracer.context()
        return self.tracer.context(
            trace_id=job["trace_id"], parent_id=job["submit_span"]
        )

    def _job_config(self, job: dict, ctx) -> dict:
        """Everything the worker subprocess needs, as plain data — plus
        the shepherd-only ``_``-prefixed keys the executor thread strips
        before the child sees the config."""
        config = {
            "request": dict(job["request"]),
            "suite": job["suite"],
            "store_path": self.store_path,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "use_compile_cache": self.use_compile_cache,
            "trace_id": job["trace_id"],
            "parent_span": getattr(ctx, "span_id", None),
            "memo_only": bool(job.get("memo_only")),
            "lease": (
                {"holder": self._lease.holder, "token": self._lease.token}
                if self._lease is not None
                and self._lease_held
                and self._lease.token is not None
                else None
            ),
            "_cancel": job.get("_cancel"),
            "_kill_at_start": job.get("fault_site") == "job_kill",
            "_fork_lock": self._fork_lock,
        }
        if job.get("deadline_seconds") is not None:
            config["_deadline"] = (
                time.monotonic() + float(job["deadline_seconds"])
            )
        return config

    def _absorb_result(self, job: dict, payload: dict, span) -> None:
        """Fold one worker payload into daemon state (event-loop thread):
        adopt the worker's spans, stats and artifact, accumulate the
        daemon-owned compile totals, bump the service counters."""
        for data in payload.get("spans", ()):
            self.tracer.ingest(Span.from_dict(data))
        stats = payload["stats"]
        job["stats"] = stats
        job["artifact"] = payload["artifact"]
        span.set(
            cells=stats["cells"],
            hits=stats["hits"],
            compile_calls=stats["compile_calls"],
        )
        spawn_us = payload.get("spawn_us")
        if spawn_us is not None:
            # an attribute, not a child span: job.execute's self time
            # keeps covering the fork
            span.set(spawn_us=round(spawn_us, 1))
            self.registry.histogram(
                "service.job_spawn_us", LATENCY_BUCKETS_US
            ).observe(spawn_us)
        self._compile_totals["compile_source_calls"] += stats["compile_calls"]
        self.registry.counter("service.cells").add(stats["cells"])
        self.registry.counter("service.cache_hits").add(stats["hits"])
        self.registry.counter("service.cache_misses").add(stats["misses"])
        self.registry.counter("service.cells_executed").add(
            stats["cells_executed"]
        )

    def _resolve_followers(self, job: dict) -> None:
        """Propagate a finished primary to its coalesced followers: same
        artifact and timestamps, but zero compiles and zero executed
        cells of their own — they are served entirely from the primary's
        execution.  Then wake every long-poll held on the primary or a
        follower: every terminal transition passes through here."""
        for follower_id in job["followers"]:
            follower = self._jobs[follower_id]
            follower["status"] = job["status"]
            follower["finished_unix"] = job["finished_unix"]
            follower["finished_monotonic"] = job["finished_monotonic"]
            if job["status"] == "done":
                follower["artifact"] = job["artifact"]
                stats = dict(job["stats"])
                stats["hits"] = stats["cells"]
                stats["misses"] = 0
                stats["compile_calls"] = 0
                stats["cells_executed"] = 0
                follower["stats"] = stats
            else:
                follower["error"] = (
                    f"coalesced with job {job['id']}, which failed: "
                    f"{job['error']}"
                )
        for job_id in (job["id"], *job["followers"]):
            event = self._terminal_events.pop(job_id, None)
            if event is not None:
                event.set()

    async def _drain_jobs(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            job_id = await self._queue.get()
            job = self._jobs[job_id]
            if job["status"] != "queued":
                continue  # shed while queued (drain) — already resolved
            try:
                self._pending.remove(job_id)
            except ValueError:
                pass
            job["fault_site"] = self._service_fault_site(job_id)
            now = time.monotonic()
            queue_wait = now - job["submitted_monotonic"]
            self._mark_running(job, now)
            for follower_id in job["followers"]:
                self._mark_running(self._jobs[follower_id], now)
            self._inflight += 1
            self._refresh_gauges()
            ctx = self._job_context(job)
            ctx.record(
                "job.queue_wait",
                t0=job["submitted_monotonic"],
                dur=queue_wait,
                job=job["id"],
                track="queue",
            )
            self.registry.histogram(
                "service.job_queue_wait_us", LATENCY_BUCKETS_US
            ).observe(queue_wait * 1e6)
            try:
                # chaos injections fire just before execution, keyed by
                # job id through the seeded plan (determinism contract)
                if job["fault_site"] == "lease_steal":
                    await loop.run_in_executor(
                        None, self._chaos_steal_lease, job["id"]
                    )
                elif job["fault_site"] == "store_contention":
                    hold = 0.05 * (
                        1 + self.fault_plan.service_param(job["id"])
                    )
                    await loop.run_in_executor(
                        None, self._chaos_hold_store, hold
                    )
                with ctx.child(
                    "job.execute", job=job["id"], track="executor"
                ) as span:
                    payload = await loop.run_in_executor(
                        self._executor,
                        _run_job_subprocess,
                        self._job_config(job, span),
                    )
                    self._absorb_result(job, payload, span)
                job["status"] = "done"
                self._note_job_outcome(job, None)
            except _JobKilled as exc:
                job["status"] = "failed"
                job["error"] = str(exc)
                kind = "worker-death" if exc.kind == "fault" else exc.kind
                job["failure"] = {"kind": kind, "detail": str(exc)}
                if exc.kind == "deadline":
                    job["failure"]["deadline_seconds"] = job["deadline_seconds"]
                    self.registry.counter("service.deadline_kills").add(1)
                if job["fault_site"] is not None:
                    job["failure"]["fault"] = job["fault_site"]
                ctx.event(
                    "job.killed", job=job["id"], kind=exc.kind,
                    fault=job["fault_site"],
                )
                self.registry.counter("service.job_failures").add(1)
                # deadline/drain kills are administrative and don't touch
                # the breaker; a chaos "fault" kill maps to worker-death,
                # which does — that's how chaos exercises the breaker
                self._note_job_outcome(job, kind)
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                job["status"] = "failed"
                job["error"] = (
                    str(exc)
                    if isinstance(exc, _RemoteJobError)
                    else f"{type(exc).__name__}: {exc}"
                )
                kind = getattr(exc, "kind", "error")
                job["failure"] = {"kind": kind, "detail": job["error"]}
                if job["fault_site"] is not None:
                    job["failure"]["fault"] = job["fault_site"]
                if kind == "lease-lost":
                    self._note_lease_lost(job["error"])
                self.registry.counter("service.job_failures").add(1)
                self._note_job_outcome(job, kind)
            finally:
                job["finished_unix"] = time.time()
                job["finished_monotonic"] = time.monotonic()
                self._inflight -= 1
                if self._inflight_keys.get(job["coalesce_key"]) == job["id"]:
                    del self._inflight_keys[job["coalesce_key"]]
                self._resolve_followers(job)
                self._refresh_gauges()
                self.registry.histogram(
                    "service.job_exec_us", LATENCY_BUCKETS_US
                ).observe(
                    (job["finished_monotonic"] - job["started_monotonic"])
                    * 1e6
                )

    # ---------------------------------------------------------------- routes

    def _job_view(self, job: dict) -> dict:
        queue_wait = run = None
        if job["started_monotonic"] is not None:
            queue_wait = job["started_monotonic"] - job["submitted_monotonic"]
            end = (
                job["finished_monotonic"]
                if job["finished_monotonic"] is not None
                else time.monotonic()
            )
            run = end - job["started_monotonic"]
        # position comes from actual queue membership, not a status scan:
        # failed/stale entries and concurrently-dequeued jobs never shift
        # it, and coalesced followers (which are "queued" but never
        # enqueued) report no position at all
        position = None
        if job["status"] == "queued" and job["coalesced_with"] is None:
            try:
                position = self._pending.index(job["id"]) + 1
            except ValueError:
                position = None
        return {
            "id": job["id"],
            "status": job["status"],
            "created_unix": job["created_unix"],
            "submitted_at": job["created_unix"],
            "started_at": job["started_unix"],
            "finished_at": job["finished_unix"],
            "queue_wait_seconds": queue_wait,
            "run_seconds": run,
            "queue_position": position,
            "trace_id": job["trace_id"],
            "coalesced_with": job["coalesced_with"],
            "followers": list(job["followers"]),
            "request": job["request"],
            "stats": job["stats"],
            "error": job["error"],
            "failure": job.get("failure"),
            "deadline_seconds": job.get("deadline_seconds"),
            "memo_only": bool(job.get("memo_only")),
            "fault_site": job.get("fault_site"),
            "wait_max_seconds": LONG_POLL_MAX_SECONDS,
        }

    def _get_job(self, job_id: str) -> dict:
        try:
            job = self._jobs[int(job_id)]
        except (KeyError, ValueError):
            raise HttpError(404, f"no job {job_id!r}")
        return job

    async def _long_poll(self, request: Request):
        """Hold ``GET /v1/jobs/<id>?wait=S`` until the job is terminal or
        ``S`` (capped at :data:`LONG_POLL_MAX_SECONDS`) seconds pass.

        Runs on the event loop and holds nothing but an event.  Returns
        ``(held_seconds, job)``, where ``job`` is set only when a
        terminal transition woke the hold; a request that is not a
        long-poll returns ``(0.0, None)`` untouched.  A bad ``wait`` is a
        400 and an unknown job a 404, both at once."""
        path = request.path.rstrip("/")
        if (
            request.method != "GET"
            or "wait" not in request.query
            or not path.startswith("/v1/jobs/")
            or path.endswith("/result")
        ):
            return 0.0, None
        raw = request.query["wait"]
        try:
            hold = float(raw)
        except ValueError:
            hold = math.nan
        if not math.isfinite(hold) or hold < 0:
            raise HttpError(400, f"bad wait {raw!r} (seconds >= 0)")
        job = self._get_job(path[len("/v1/jobs/"):])
        self.registry.counter("service.long_polls_total").add(1)
        if job["status"] in ("done", "failed") or self._stopping or not hold:
            return 0.0, None
        event = self._terminal_events.setdefault(job["id"], asyncio.Event())
        self._long_polls_held += 1
        t_hold = time.monotonic()
        try:
            await asyncio.wait_for(
                event.wait(), min(hold, LONG_POLL_MAX_SECONDS)
            )
        except asyncio.TimeoutError:
            pass
        finally:
            self._long_polls_held -= 1
        woken = job if job["status"] in ("done", "failed") else None
        return time.monotonic() - t_hold, woken

    def _read_store(self):
        """A read connection for query endpoints — pooled when the daemon
        is started, a throwaway writer-capable one otherwise (tests poke
        handlers on unstarted instances)."""
        if self._read_pool is not None:
            return self._read_pool.connection()
        from ..store import ExperimentStore

        return ExperimentStore(self.store_path)

    def _handle(self, request: Request, ctx=NULL_CONTEXT):
        """Route one request; returns ``(status, payload)`` or
        ``(status, payload, content_type)`` for non-JSON bodies."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            from ..store import SCHEMA_VERSION

            return 200, {
                "ok": True,
                "store": self.store_path,
                "schema_version": SCHEMA_VERSION,
                "workers": self.workers,
                "draining": self._draining,
                "memo_only": self._memo_only_reason(),
            }
        if path == "/metrics" and method == "GET":
            self._refresh_gauges()
            return 200, render_exposition(self.registry), EXPOSITION_CONTENT_TYPE
        if path == "/v1/jobs" and method == "POST":
            job = self._submit(request.json(), ctx)
            return 202, self._job_view(job)
        if path == "/v1/jobs" and method == "GET":
            return 200, {
                "jobs": [self._job_view(j) for j in self._jobs.values()]
            }
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                job = self._get_job(rest[: -len("/result")])
                if job["status"] == "failed":
                    failure = job.get("failure") or {}
                    if failure.get("kind") in ("shed", "drain"):
                        # shed/drained work was refused, not broken:
                        # resubmit elsewhere (or later) — 503, structured
                        raise HttpError(
                            503,
                            job["error"] or "job shed",
                            headers={"Retry-After": str(self._retry_after())},
                            failure=failure,
                        )
                    extra = {"failure": failure} if failure else {}
                    raise HttpError(
                        409, job["error"] or "job failed", **extra
                    )
                if job["status"] != "done":
                    raise HttpError(404, f"job {job['id']} is {job['status']}")
                return 200, job["artifact"]
            return 200, self._job_view(self._get_job(rest))
        if path == "/v1/traces" and method == "GET":
            return 200, {"traces": self.tracer.trace_ids()}
        if path.startswith("/v1/traces/") and method == "GET":
            trace_id = path[len("/v1/traces/"):]
            spans = self.tracer.snapshot(trace_id)
            if not spans:
                raise HttpError(404, f"no trace {trace_id!r}")
            return 200, {
                "trace": trace_id,
                "spans": [s.to_dict() for s in spans],
            }
        if path == "/v1/stats" and method == "GET":
            with self._read_store() as store:
                counts = store.counts()
            self._refresh_gauges()
            by_status = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_status[job["status"]] += 1
            return 200, {
                "metrics": self.registry.snapshot(),
                # daemon-owned accumulated per-job deltas — never a
                # snapshot of a live process-global mid-execution
                "compile_stats": dict(self._compile_totals),
                "store": counts,
                "swept_tmp_files": self.swept_tmp_files,
                "queue_depth": self._queue.qsize(),
                "inflight": self._inflight,
                "workers": self.workers,
                "journal_mode": self.journal_mode,
                "coalesced_total": self.registry.value(
                    "service.coalesced_total"
                ),
                "read_pool": (
                    None if self._read_pool is None
                    else self._read_pool.stats()
                ),
                "jobs": by_status,
                "admission": {
                    "max_queue": self.max_queue,
                    "draining": self._draining,
                    "memo_only": self._memo_only_reason(),
                    "rejected_total": self.registry.value(
                        "service.rejected_total"
                    ),
                    "rejected": dict(self._rejected),
                    "shed_total": self.registry.value("service.shed_total"),
                    "retry_after_seconds": self._retry_after(),
                },
                "breaker": {
                    "state": self._breaker_state(),
                    "consecutive_failures": self._breaker_consecutive,
                    "threshold": self.breaker_threshold,
                    "cooldown_seconds": self.breaker_cooldown,
                    "trips": self.registry.value("service.breaker_trips"),
                },
                "deadline": {
                    "default_seconds": self.job_deadline,
                    "cap_seconds": self.deadline_cap,
                    "kills": self.registry.value("service.deadline_kills"),
                },
                "lease": (
                    None
                    if self._lease is None
                    else {
                        "held": self._lease_held,
                        "holder": self.holder_id,
                        "token": self._lease.token,
                        "ttl_seconds": self.lease_ttl,
                        "lost_total": self.registry.value(
                            "service.lease_lost_total"
                        ),
                        "row": self._lease.info(),
                    }
                ),
                "uptime_seconds": (
                    time.monotonic() - self._started_monotonic
                    if self._started_monotonic is not None
                    else None
                ),
                "trace": {
                    "buffered_spans": len(self.tracer.snapshot()),
                    "dropped_spans": self.tracer.dropped,
                    "log": (
                        self._trace_sink.path
                        if self._trace_sink is not None
                        else None
                    ),
                },
            }
        if path == "/v1/trends" and method == "GET":
            with self._read_store() as store:
                if "metric" in request.query:
                    rows = store.metric_trend(
                        request.query["metric"],
                        benchmark=request.query.get("benchmark"),
                    )
                else:
                    rows = store.trend(
                        benchmark=request.query.get("benchmark"),
                        profile=request.query.get("profile"),
                        ratio_base=request.query.get("ratio_base"),
                    )
            return 200, {"rows": rows}
        if path == "/v1/admin/gc" and method == "POST":
            cache = self._cache()
            reaped = 0 if cache is None else cache.sweep()
            self.swept_tmp_files += reaped
            self.registry.counter("service.gc_runs").add(1)
            return 200, {
                "reaped_tmp_files": reaped,
                "cache_dir": None if cache is None else cache.root,
            }
        raise HttpError(404, f"no route {method} {request.path}")

    async def _serve_one(self, reader, writer) -> None:
        """One connection: serve requests until the peer closes or a
        request declines keep-alive (the default)."""
        self.registry.counter("service.http_connections").add(1)
        self._connections.add(writer)
        try:
            while await self._serve_request(reader, writer):
                pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _serve_request(self, reader, writer) -> bool:
        """Serve one request off the connection; returns True when the
        connection should be kept open for another."""
        t_request = time.monotonic()
        status, payload, content_type = 500, {"error": "internal error"}, None
        extra_headers: Dict[str, str] = {}
        request: Optional[Request] = None
        trace_id = parent = None
        try:
            request = await read_request(reader)
        except HttpError as exc:
            status, payload = exc.status, exc.payload()
            extra_headers = exc.headers
        else:
            if request is None:
                return False  # clean EOF between requests
            trace_id, parent = parse_trace_header(
                request.headers.get(TRACE_HEADER)
            )
        # every response — including protocol errors — carries a trace:
        # the http.request span roots the submission's tree (or is the
        # client's child when the header named a parent span)
        trace_id = trace_id or new_trace_id()
        request_span = new_span_id()
        ctx = TraceContext(self.tracer, trace_id, request_span)
        held, woken = 0.0, None
        if request is not None:
            try:
                held, woken = await self._long_poll(request)
                result = self._handle(request, ctx)
                status, payload = result[0], result[1]
                content_type = result[2] if len(result) > 2 else None
            except HttpError as exc:
                status, payload = exc.status, exc.payload()
                extra_headers = exc.headers
            except Exception as exc:  # noqa: BLE001 — keep the daemon alive
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        # keep-alive is strictly opt-in (pooled clients ask for it);
        # protocol errors and a stopping daemon always close
        keep_alive = (
            request is not None
            and request.wants_keep_alive()
            and not self._stopping
        )
        response_headers = {
            "X-Repro-Trace": format_trace_header(trace_id, request_span)
        }
        response_headers.update(extra_headers)
        try:
            writer.write(
                format_response(
                    status,
                    payload,
                    content_type=content_type,
                    headers=response_headers,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # client went away mid-response; the daemon shrugs
            self.registry.counter("service.client_disconnects").add(1)
            keep_alive = False
        finally:
            now = time.monotonic()
            attrs = {"status": status, "track": "http"}
            if request is not None:
                attrs["method"] = request.method
                attrs["path"] = request.path
            self.tracer.record(
                "http.request",
                trace_id,
                parent_id=parent,
                t0=t_request,
                dur=now - t_request,
                attrs=attrs,
                span_id=request_span,
            )
            self.registry.counter("service.http_requests").add(1)
            if status >= 400:
                self.registry.counter("service.http_errors").add(1)
            # a long-poll's hold is waiting for the job, not serving
            self.registry.histogram(
                "service.http_latency_us", LATENCY_BUCKETS_US
            ).observe((now - t_request - held) * 1e6)
            if woken is not None:
                self.registry.histogram(
                    "service.wait_notify_us", LATENCY_BUCKETS_US
                ).observe((now - woken["finished_monotonic"]) * 1e6)
        return keep_alive


def write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port for readiness polling (CI).

    PID-unique temp name (two daemons racing on one path never clobber
    each other's tmp), fsync before rename so a reader that sees the file
    never sees a torn write.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        handle.write(f"{port}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
