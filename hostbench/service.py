"""The ``service-cold`` and ``service-warm`` workloads.

One client with one keep-alive connection drives ``repro-serve
--workers 1`` (fresh store, fresh compile cache) in a closed loop; it
polls each job's status every 20 ms (no backoff) and then fetches the
artifact.  A request is one graph-suite benchmark on :data:`PROFILES`.

* ``service-cold``: every request carries parameters drawn from the seed
  and never sent before in the run, so each cell misses the store and
  its source misses the compile cache.
* ``service-warm``: set-up sends one cold request per benchmark of
  :data:`ROTATION`; the timed requests repeat them exactly, so each is
  served from the store.

Requests go round :data:`ROTATION` in whole seeded-shuffled cycles, so
every run holds the same mix of benchmarks; ``op_p50_ms`` is the
geometric mean over the benchmarks of each one's median latency.
Each job's ``stats`` must show it really was cold (no store hit, a
compile) or warm (all hits, no compile); warm artifacts must equal their
cold originals, and sampled cold artifacts must equal an in-process
``collect()`` of the request.  The daemon holds the store's writer
lease, with a lifetime long enough that no renewal falls inside a run
(see :data:`LEASE_TTL`).
"""

from __future__ import annotations

import glob
import json
import os
import random
import signal
import subprocess
import sys
import time

import layers
from common import LAUNCHER, canonical_digest, geomean_of_medians, median

#: (benchmark, graph-suite parameter that scales finely, its size at 1.0)
ROTATION = (
    ("micro.arith", "Reps", 3000),
    ("micro.loop", "Reps", 15000),
    ("micro.exception", "Reps", 200),
    ("micro.math", "Reps", 800),
    ("grande.sieve", "Limit", 5000),
    ("scimark.montecarlo", "Samples", 1500),
)
PROFILES = ("clr-1.1", "mono-0.23")
#: drawn sizes stay within this fraction of the graph-suite size
SPREAD = 0.1
POLL_SECONDS = 0.02
GIT_SHA = "hostbench"
SETUP_REPEATS = 9
#: cold artifacts per run re-collected in-process for comparison
SAMPLED_CHECKS = 2
JOB_TIMEOUT = 120.0
#: writer-lease lifetime.  The daemon renews at a third of it on an
#: executor thread; a job worker forked while a renewal holds the store's
#: write lock inherits SQLite's lock state and fails "database is locked"
#: after a 30 s stall (the default 15 s lifetime fails a job in about one
#: run in eight on service-warm).  An hour keeps the lease and the fence
#: check on every append while no daemon here lives long enough to renew.
LEASE_TTL = 3600.0
START_TIMEOUT = 60.0


class Request:
    """One submission: a benchmark, its drawn size, and the scale that
    makes the daemon resolve exactly that size."""

    def __init__(self, name: str, key: str, size: int, base: int) -> None:
        from repro.metrics.baseline import resolve_suite

        self.name = name
        # the daemon keeps only benchmark names and re-derives sizes from
        # the scale, so the drawn size travels as the scale producing it
        self.scale = (size + 0.5) / base
        [(_name, self.params)] = resolve_suite([name], self.scale)
        if self.params.get(key) != size:
            raise RuntimeError(f"{name}: scale {self.scale} resolves to "
                               f"{self.params}, not {key}={size}")

    def body(self) -> dict:
        return {"benchmarks": [self.name], "profiles": list(PROFILES),
                "scale": self.scale, "git_sha": GIT_SHA}


class Stream:
    """The seeded request stream: cycles over :data:`ROTATION`, each in a
    fresh shuffled order, with sizes never repeated within the run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.used = set()

    def cycle(self) -> list:
        order = list(ROTATION)
        self.rng.shuffle(order)
        return [self._draw(*entry) for entry in order]

    def _draw(self, name: str, key: str, base: int) -> Request:
        width = max(1, int(base * SPREAD))
        while True:
            free = [size for size in range(base - width, base + width + 1)
                    if size > 0 and (name, size) not in self.used]
            if free:
                break
            # a run long enough to use every size widens the range
            width *= 2
        size = self.rng.choice(free)
        self.used.add((name, size))
        return Request(name, key, size, base)


class Daemon:
    """One ``repro-serve --workers 1`` process launched through
    ``launch.py``; ``setup`` is spawn-to-``/healthz``."""

    def __init__(self, ctx, tag: str, home=None, trace_dir=None) -> None:
        from repro.service.client import ServiceClient

        self.dir = ctx.path(tag)
        home = home or self.dir
        self.rusage_path = os.path.join(self.dir, "rusage.json")
        port_file = os.path.join(self.dir, "port")
        extra = {} if trace_dir is None else {layers.TRACE_DIR_ENV: trace_dir}
        args = [sys.executable, LAUNCHER, "serve", self.rusage_path,
                "--store", os.path.join(home, "store.sqlite"),
                "--cache-dir", os.path.join(home, "cache"),
                "--host", "127.0.0.1", "--port", "0",
                "--port-file", port_file, "--workers", "1",
                "--lease-ttl", repr(LEASE_TTL)]
        self._log = open(os.path.join(self.dir, "daemon.log"), "w")
        start = time.perf_counter()
        env = ctx.env(dict(extra, HOSTBENCH_SPAWN_WALL=repr(time.time())))
        self.proc = subprocess.Popen(args, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)
        try:
            while not os.path.exists(port_file):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited: {self.log()}")
                if time.perf_counter() - start > START_TIMEOUT:
                    raise RuntimeError("daemon did not bind a port")
                time.sleep(0.002)
            with open(port_file) as handle:
                port = int(handle.read())
            self.client = ServiceClient(f"http://127.0.0.1:{port}",
                                        timeout=JOB_TIMEOUT, max_retries=3)
            self.client.health()
            self.setup = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def log(self) -> str:
        with open(os.path.join(self.dir, "daemon.log")) as handle:
            return handle.read()[-800:]

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and return the daemon's peak
        RSS figures (``{}`` when it did not report them)."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        try:
            with open(self.rusage_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


class Outcome:
    """What the client saw for one request."""

    def __init__(self, request: Request, latency: float, job: dict,
                 artifact, requests: int) -> None:
        self.request = request
        self.latency = latency
        self.job = job
        self.artifact = artifact
        self.requests = requests
        self.digest = None if artifact is None else canonical_digest(artifact)
        self.execute_self = None


def submit(client, request: Request, fetch_trace: bool = False) -> Outcome:
    """Submit, poll every :data:`POLL_SECONDS`, fetch the artifact."""
    from repro.service.client import ServiceError
    from repro.trace import new_trace_id

    if fetch_trace:
        client.trace_id = new_trace_id()
    sent = client.requests_sent
    start = time.perf_counter()
    artifact = None
    try:
        job = client.submit(request.body())
        job = client.wait(job["id"], timeout=JOB_TIMEOUT,
                          poll=POLL_SECONDS, poll_cap=POLL_SECONDS)
        if job["status"] == "done":
            artifact = client.result(job["id"])
    except ServiceError as exc:
        job = {"status": "error", "error": str(exc), "stats": None}
    outcome = Outcome(request, time.perf_counter() - start, job, artifact,
                      client.requests_sent - sent)
    if fetch_trace and artifact is not None:
        outcome.execute_self = _execute_self(client.trace(client.trace_id))
    return outcome


def _execute_self(trace: dict) -> float:
    """``job.execute`` duration minus its direct children (the worker's
    spans), i.e. the fork, pipe and absorb cost, in seconds."""
    spans = trace.get("spans", [])
    execute = [s for s in spans if s["name"] == "job.execute"]
    if len(execute) != 1:
        return 0.0
    span = execute[0]
    children = sum(s["dur"] for s in spans if s.get("parent") == span["span"])
    return span["dur"] - children


def _check(ctx, outcome: Outcome, warm: bool, expected_digest=None) -> bool:
    request, job = outcome.request, outcome.job
    tag = f"{request.name} scale {request.scale:.6f}"
    if not ctx.check(job.get("status") == "done" and outcome.artifact,
                     f"{tag}: job {job.get('status')}: {job.get('error')}"):
        return False
    stats = job["stats"]
    cells = len(PROFILES)
    if warm:
        ok = ctx.check(stats["cells"] == cells and stats["hits"] == cells
                       and stats["compile_calls"] == 0,
                       f"{tag}: warm request was not served warm: {stats}")
        ok &= ctx.check(outcome.digest == expected_digest,
                        f"{tag}: warm artifact differs from the cold one")
        return ok
    ok = ctx.check(stats["cells"] == cells and stats["hits"] == 0
                   and stats["compile_calls"] >= 1,
                   f"{tag}: cold request was not served cold: {stats}")
    served = outcome.artifact["benchmarks"].get(request.name, {})
    ok &= ctx.check(served.get("params") == request.params
                    and sorted(served.get("profiles", {})) == sorted(PROFILES),
                    f"{tag}: artifact params {served.get('params')} != "
                    f"{request.params}")
    return ok


def _direct_digest(request: Request) -> str:
    """The request collected in this process, without the service."""
    from repro.metrics import baseline

    artifact = baseline.collect(
        profiles=baseline.resolve_profiles(list(PROFILES)),
        suite=baseline.resolve_suite([request.name], request.scale),
        scale=request.scale,
        git_sha=GIT_SHA,
    )
    return canonical_digest(artifact)


def _send_cycle(ctx, client, cycle, primed: dict, fetch_trace=False) -> list:
    """Send one cycle of requests and check each outcome; ``primed`` maps
    the requests of a warm workload to their cold artifacts' digests."""
    outcomes = []
    for request in cycle:
        outcome = submit(client, request, fetch_trace)
        warm = id(request) in primed
        ctx.operation(_check(ctx, outcome, warm, primed.get(id(request))))
        outcomes.append(outcome)
    return outcomes


def _prime(ctx, daemon: Daemon, requests) -> dict:
    """Send ``requests`` cold; return id(request) -> digest of its
    artifact (what the warm repeats must return)."""
    return {id(o.request): o.digest
            for o in _send_cycle(ctx, daemon.client, requests, {})}


def _start(ctx, tag: str, home=None, trace_dir=None) -> Daemon:
    try:
        return Daemon(ctx, tag, home, trace_dir)
    except RuntimeError as exc:
        ctx.check(False, f"daemon {tag}: {exc}")
        raise


def run(ctx) -> dict:
    stream = Stream(ctx.seed)
    warm = ctx.workload == "service-warm"
    primed_requests = stream.cycle() if warm else []

    def next_cycle() -> list:
        if not warm:
            return stream.cycle()
        order = list(primed_requests)
        stream.rng.shuffle(order)
        return order

    # set-up: daemons spawned on an empty store and compile cache, half
    # before the timed loop and half after it, so that their median spans
    # the run as the requests do (the host's speed drifts over tens of
    # seconds); the first one's directory is the run's home, primed on
    # service-warm
    setups = []

    def set_up(indices) -> None:
        for index in indices:
            daemon = _start(ctx, f"setup-{index}")
            setups.append(daemon.setup)
            daemon.stop()

    daemon = _start(ctx, "setup-0")
    setups.append(daemon.setup)
    home = daemon.dir
    try:
        primed = _prime(ctx, daemon, primed_requests)
    finally:
        daemon.stop()
    before = (SETUP_REPEATS + 1) // 2
    set_up(range(1, before))
    # a daemon on the home serves one cycle of the workload's own
    # requests and reports the peak RSS (its own plus its largest job
    # worker's), so the figure neither grows with how many requests the
    # timed loop gets through nor includes set-up's cold priming jobs
    daemon = _start(ctx, "memory", home)
    try:
        _send_cycle(ctx, daemon.client, next_cycle(), primed)
    finally:
        rusage = daemon.stop()
    ctx.check(bool(rusage), "daemon did not report its peak RSS")

    daemon = _start(ctx, "timed", home)
    cycles, outcomes = [], []
    try:
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < ctx.seconds:
            cycles.append(next_cycle())
            outcomes += _send_cycle(ctx, daemon.client, cycles[-1], primed,
                                    fetch_trace=ctx.trace)
        counters = {
            "client.retries": float(daemon.client.retries_performed),
            "service.rejected": float(
                daemon.client.stats()["admission"]["rejected_total"]),
        }
    finally:
        daemon.stop()
    set_up(range(before, SETUP_REPEATS))

    # untimed: sampled cold artifacts (on service-warm, the primed ones
    # the repeats returned) must equal a direct in-process collection
    served = [o for o in outcomes if o.artifact is not None]
    rng = random.Random(ctx.seed)
    for outcome in rng.sample(served, min(SAMPLED_CHECKS, len(served))):
        request = outcome.request
        ctx.operation(ctx.check(
            _direct_digest(request) == primed.get(id(request), outcome.digest),
            f"{request.name} scale {request.scale:.6f}: service artifact "
            f"differs from a direct collect()"))

    if not served:
        raise RuntimeError("no request passed its checks")
    ctx.samples = {"op_p50_ms": len(served), "setup_s": len(setups)}
    if not ctx.trace:
        by_name = {}
        for outcome in served:
            by_name.setdefault(outcome.request.name, []).append(
                outcome.latency)
        return {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": ((rusage.get("self_kb", 0)
                             + rusage.get("children_kb", 0)) / 1024.0, "MB"),
            "op_p50_ms": (1000.0 * geomean_of_medians(by_name.values()),
                          "ms"),
        }
    return _traced(ctx, primed_requests, primed, cycles, outcomes, counters)


def _traced(ctx, primed_requests, primed, cycles, outcomes, counters) -> dict:
    """Replay the same requests against a fresh daemon with the span
    wrappers installed.  Layer metrics come from its span dumps; service
    and client metrics from what the client saw in the untraced phase."""
    trace_dir = ctx.path("trace")
    daemon = _start(ctx, "traced", trace_dir=trace_dir)
    try:
        traced_primed = _prime(ctx, daemon, primed_requests)
        ctx.check(traced_primed == primed,
                  "traced set-up artifacts differ from untraced ones")
        # the priming jobs are set-up, not timed requests: drop their dumps
        for path in glob.glob(os.path.join(trace_dir, "spans-*.json")):
            os.unlink(path)
        traced = []
        for cycle in cycles:
            traced += _send_cycle(ctx, daemon.client, cycle, traced_primed)
    finally:
        daemon.stop()
    for before, after in zip(outcomes, traced):
        ctx.check(before.digest == after.digest,
                  f"{before.request.name}: traced artifact differs from "
                  f"the untraced one")
    ok = [o for o in outcomes if o.artifact is not None]

    def mean_ms(values) -> float:
        return 1000.0 * sum(values) / len(ok)

    service = {
        "service.queue_wait_ms": mean_ms(
            o.job["queue_wait_seconds"] for o in ok),
        "service.run_ms": mean_ms(o.job["run_seconds"] for o in ok),
        "service.job_execute_self_ms": mean_ms(
            o.execute_self or 0.0 for o in ok),
        "service.http_gap_ms": mean_ms(
            o.latency - o.job["queue_wait_seconds"] - o.job["run_seconds"]
            for o in ok),
        "client.requests_per_submit": sum(o.requests for o in ok) / len(ok),
    }
    service.update(counters)
    overhead = 0.0
    if not primed:
        from suite import observer_overhead_ms

        overhead = observer_overhead_ms(ctx, ctx.path("ab-cache"), "classic")
    totals = layers.LayerTotals(layers.load_dumps(trace_dir))
    return ctx.layer_metrics(
        totals,
        ops=len(traced),
        op_wall=sum(o.latency for o in traced),
        untraced_wall=sum(o.latency for o in outcomes),
        observer_overhead_ms=overhead,
        service=service,
    )
