"""``ServiceClient`` — a pooled, keep-alive front end for the daemon.

Built on ``http.client`` so connections persist across requests: every
request goes out with ``Connection: keep-alive`` (the daemon's framing
keeps connections open only for clients that ask), and the client keeps
up to ``pool_size`` idle connections warm.  A polling ``wait()`` loop or
a burst of submissions therefore reuses one TCP connection instead of a
handshake per request.  The pool is thread-safe — connections beyond the
idle cap are simply closed on release — and ``created``/``reused``
counters on :meth:`pool_stats` make reuse observable in tests.  A stale
pooled connection (daemon restarted, idle timeout) is retried once on a
fresh connection before surfacing an error.

Constructed with ``trace_id=``, the client stamps every request with the
``X-Repro-Trace`` propagation header, so the daemon's ``http.request``
spans join the client's trace instead of each minting their own.  The
client sends the bare trace id (no parent span): the daemon's request
spans stay roots of the server-side tree, and the JSONL trace log never
references a span it does not contain.  ``last_trace`` holds the
``X-Repro-Trace`` value echoed on the most recent response — the handle
for fetching the server-side span tree via ``GET /v1/traces/<id>``.
Propagation is per-request: every request on a reused connection carries
the header and every response echoes it.

:meth:`ServiceClient.wait` long-polls: against a daemon whose job views
advertise ``wait_max_seconds``, it sends ``GET /v1/jobs/<id>?wait=S``
and the daemon answers the moment the job finishes, so a job that ends
within one hold costs exactly one request after the submit.  The client
learns the cap from the :meth:`~ServiceClient.submit` (or
:meth:`~ServiceClient.status`) response.  Against a daemon that never
advertised it, ``wait()`` falls back to polling with exponential
backoff from ``poll`` to ``poll_cap``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from typing import List, Optional, Tuple
from urllib.parse import urlsplit

from ..trace import TRACE_HEADER

#: wait()'s poll backoff against a daemon that does not long-poll:
#: start fast, cap at 2s so N waiting clients don't hammer
#: /v1/jobs/<id> at saturation
WAIT_POLL_INITIAL = 0.1
WAIT_POLL_CAP = 2.0


class ServiceError(Exception):
    """An error response from the daemon (carries the HTTP status).

    ``retry_after`` is the parsed ``Retry-After`` header (seconds) when
    the daemon sent one (429/503 admission rejections do), and ``fields``
    carries the rest of the structured JSON error body (``reason``,
    ``failure``, ...)."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None,
                 fields: Optional[dict] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.fields = dict(fields or {})


class ServiceClient:
    """Talk to one daemon; every method returns the decoded JSON payload.

    ``max_retries > 0`` arms deterministic seeded exponential
    backoff-with-jitter on 429/503 responses: the delay honors the
    daemon's ``Retry-After`` when present (plus a small seeded jitter so
    a fleet of rejected clients doesn't return in lockstep), otherwise
    doubles from ``backoff_base``.  The jitter is ``sha256(seed,
    attempt)`` — reproducible for a given seed, desynchronized across
    seeds.  Retrying a rejected submission is safe by construction: a
    429/503 admission rejection means the job was never enqueued.
    """

    def __init__(self, url: str, timeout: float = 30.0,
                 trace_id: Optional[str] = None, pool_size: int = 2,
                 max_retries: int = 0, backoff_base: float = 0.2,
                 backoff_cap: float = 30.0, backoff_seed: int = 0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.trace_id = trace_id
        self.pool_size = max(1, int(pool_size))
        self.max_retries = max(0, int(max_retries))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.backoff_seed = int(backoff_seed)
        #: total 429/503 retries performed (observable in tests)
        self.retries_performed = 0
        #: requests actually sent (wait()'s poll-count regression test)
        self.requests_sent = 0
        #: X-Repro-Trace header of the last response (None before any call)
        self.last_trace: Optional[str] = None
        #: the daemon's long-poll cap (seconds) from its last job view;
        #: None until one advertised it — wait() polls meanwhile
        self.wait_max: Optional[float] = None
        split = urlsplit(self.url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {url!r} (http only)")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self.created = 0
        self.reused = 0

    # ------------------------------------------------------ connection pool

    def _acquire(self) -> Tuple[http.client.HTTPConnection, bool]:
        """An open connection and whether it is freshly made (a reused one
        may be stale and earns one retry)."""
        with self._lock:
            if self._idle:
                self.reused += 1
                return self._idle.pop(), False
            self.created += 1
        return (
            http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            ),
            True,
        )

    def _release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every pooled connection (the daemon drops them on stop
        anyway; this makes shutdown symmetric on the client side)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def pool_stats(self) -> dict:
        with self._lock:
            return {
                "idle": len(self._idle),
                "created": self.created,
                "reused": self.reused,
            }

    # ------------------------------------------------------------- transport

    def _roundtrip(self, method: str, path: str, body: Optional[bytes],
                   headers: dict):
        """One request/response over a pooled connection; returns
        ``(status, response_headers, payload_bytes)``.  Retries once on a
        stale pooled connection; a fresh connection's failure means the
        daemon is genuinely unreachable."""
        last_exc: Optional[Exception] = None
        for _attempt in (1, 2):
            conn, fresh = self._acquire()
            try:
                self.requests_sent += 1
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                conn.close()
                last_exc = exc
                if fresh:
                    break
                continue  # stale keep-alive connection — retry fresh
            reuse = (
                response.getheader("Connection", "").strip().lower()
                == "keep-alive"
            )
            if reuse:
                self._release(conn)
            else:
                conn.close()
            return response.status, response, data
        raise ServiceError(0, f"cannot reach {self.url}: {last_exc}")

    def _backoff_delay(self, attempt: int,
                       retry_after: Optional[float] = None) -> float:
        """Deterministic seeded exponential backoff with jitter.  Honors
        the server's ``Retry-After`` as the floor when present (plus a
        seeded jitter fraction of the base so rejected clients spread
        out); otherwise doubles from ``backoff_base``."""
        digest = hashlib.sha256(
            f"{self.backoff_seed}:{int(attempt)}".encode("utf-8")
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        if retry_after is not None:
            delay = float(retry_after) + jitter * self.backoff_base
        else:
            delay = self.backoff_base * (2 ** attempt) * (0.5 + jitter)
        return min(self.backoff_cap, delay)

    def _call_once(self, method: str, path: str,
                   payload: Optional[dict] = None) -> dict:
        body = None
        headers = {"Accept": "application/json", "Connection": "keep-alive"}
        if self.trace_id:
            headers["X-Repro-Trace"] = self.trace_id
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, response, data = self._roundtrip(method, path, body, headers)
        self.last_trace = response.getheader(TRACE_HEADER)
        if status >= 400:
            detail = data.decode("utf-8", "replace")
            fields: dict = {}
            try:
                decoded = json.loads(detail)
                if isinstance(decoded, dict):
                    fields = decoded
                    detail = decoded.get("error", detail)
            except ValueError:
                pass
            retry_after = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            if retry_after is None and "retry_after" in fields:
                try:
                    retry_after = float(fields["retry_after"])
                except (TypeError, ValueError):
                    pass
            raise ServiceError(
                status, detail, retry_after=retry_after, fields=fields
            )
        return json.loads(data.decode("utf-8"))

    def _call(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        """One API call, with optional 429/503 retry (``max_retries``)."""
        attempt = 0
        while True:
            try:
                return self._call_once(method, path, payload)
            except ServiceError as exc:
                if exc.status not in (429, 503) or attempt >= self.max_retries:
                    raise
                delay = self._backoff_delay(attempt, exc.retry_after)
                attempt += 1
                self.retries_performed += 1
                time.sleep(delay)

    def _call_text(self, path: str) -> str:
        """GET a text (non-JSON) endpoint — ``/metrics``."""
        headers = {"Connection": "keep-alive"}
        if self.trace_id:
            headers["X-Repro-Trace"] = self.trace_id
        status, response, data = self._roundtrip("GET", path, None, headers)
        self.last_trace = response.getheader(TRACE_HEADER)
        if status >= 400:
            raise ServiceError(status, data.decode("utf-8", "replace"))
        return data.decode("utf-8")

    # ------------------------------------------------------------------- API

    def health(self) -> dict:
        return self._call("GET", "/healthz")

    def _note_wait_max(self, view: dict) -> dict:
        """Record the long-poll cap a job view advertises (None: the
        daemon does not long-poll)."""
        self.wait_max = view.get("wait_max_seconds")
        return view

    def submit(self, request: dict) -> dict:
        """POST a job; returns the queued job view (``id``, ``status``)."""
        return self._note_wait_max(self._call("POST", "/v1/jobs", request))

    def jobs(self) -> dict:
        return self._call("GET", "/v1/jobs")

    def status(self, job_id: int, wait: Optional[float] = None) -> dict:
        """The job view; with ``wait``, a long-poll that the daemon holds
        up to that many seconds (and its cap) until the job finishes."""
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self._note_wait_max(
            self._call("GET", f"/v1/jobs/{job_id}{query}")
        )

    def result(self, job_id: int) -> dict:
        """The finished job's BENCH artifact (raises until it is done)."""
        return self._call("GET", f"/v1/jobs/{job_id}/result")

    def wait(self, job_id: int, timeout: float = 300.0,
             poll: float = WAIT_POLL_INITIAL,
             poll_cap: float = WAIT_POLL_CAP) -> dict:
        """Wait until the job is done or failed; returns its final view.

        Against a daemon that advertised its long-poll cap
        (:attr:`wait_max`), each request is a long-poll held until the
        job finishes, up to the cap, half the socket timeout and what is
        left of ``timeout``.  Otherwise the status is polled, the
        interval backing off exponentially from ``poll`` to ``poll_cap``
        (0.1s -> 2s by default): a quick job is noticed fast, a
        long-running one costs a bounded ~0.5 req/s."""
        deadline = time.monotonic() + timeout
        delay = max(0.01, float(poll))
        while True:
            if self.wait_max is None:
                job = self.status(job_id)
            else:
                hold = min(self.wait_max, deadline - time.monotonic())
                if self.timeout is not None:
                    hold = min(hold, self.timeout / 2)
                job = self.status(job_id, wait=max(0.0, hold))
            if job["status"] in ("done", "failed"):
                return job
            if time.monotonic() > deadline:
                raise ServiceError(0, f"timed out waiting for job {job_id}")
            if self.wait_max is None:
                time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
                delay = min(poll_cap, delay * 2)

    def stats(self) -> dict:
        return self._call("GET", "/v1/stats")

    def metrics(self) -> str:
        """The Prometheus text exposition document from ``GET /metrics``."""
        return self._call_text("/metrics")

    def trace(self, trace_id: str) -> dict:
        """Server-side spans for one trace (``{"trace", "spans"}``)."""
        return self._call("GET", f"/v1/traces/{trace_id}")

    def trends(self, **query: str) -> dict:
        qs = "&".join(f"{k}={v}" for k, v in query.items() if v is not None)
        return self._call("GET", "/v1/trends" + (f"?{qs}" if qs else ""))

    def admin_gc(self) -> dict:
        return self._call("POST", "/v1/admin/gc", {})
