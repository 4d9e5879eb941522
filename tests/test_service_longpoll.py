"""Long-polled job completion (``GET /v1/jobs/<id>?wait=S``) and the
daemon fixes that ride with it: job-worker forks serialised with lease
renewals, and explicit per-benchmark params carried to the worker."""

import asyncio
import json
import threading
import time

import pytest

from repro.metrics import baseline, validate_exposition
from repro.service import ServiceClient, ServiceError
from repro.service.daemon import LONG_POLL_MAX_SECONDS

from tests.test_service import SMALL, DaemonHarness

#: one cheap cell: warm repeats of it cost a fork and a store read
TINY = {"benchmarks": "micro.arith", "profiles": "clr-1.1", "scale": 0.0,
        "git_sha": "longpoll"}


@pytest.fixture
def stalled(tmp_path, monkeypatch):
    """A 1-worker daemon whose job executions finish their real work and
    then stall until released."""
    import repro.service.daemon as daemon_mod

    real = daemon_mod._run_job_subprocess
    running = threading.Event()
    release = threading.Event()

    def slow(config):
        payload = real(config)
        running.set()
        release.wait(60)
        return payload

    monkeypatch.setattr(daemon_mod, "_run_job_subprocess", slow)
    harness = DaemonHarness(tmp_path, workers=1, drain_grace=10.0)
    harness.running, harness.release = running, release
    yield harness
    release.set()
    harness.close()
    harness.client.close()


@pytest.fixture
def daemon(tmp_path):
    harness = DaemonHarness(tmp_path)
    yield harness
    harness.close()
    harness.client.close()


def _long_poll(harness, job_id, wait=15):
    """Long-poll ``job_id`` from a second client on a thread."""

    def poll():
        with ServiceClient(harness.url) as poller:
            return poller.status(job_id, wait=wait)

    return _in_thread(poll)


def _in_thread(fn):
    """Run ``fn`` on a thread; returns (thread, box) where box gets
    ``result``/``error`` and ``returned`` (monotonic)."""
    box = {}

    def body():
        try:
            box["result"] = fn()
        except Exception as exc:  # noqa: BLE001 — reported by the test
            box["error"] = exc
        box["returned"] = time.monotonic()

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, box


def _await_held(harness, count=1, timeout=10.0):
    deadline = time.monotonic() + timeout
    while harness.service._long_polls_held < count:
        assert time.monotonic() < deadline, "long-poll never held"
        time.sleep(0.005)


class TestLongPoll:
    def test_answers_within_milliseconds_of_completion(self, stalled):
        job = stalled.client.submit(SMALL)
        assert job["wait_max_seconds"] == LONG_POLL_MAX_SECONDS
        assert stalled.running.wait(120), "job never started"
        thread, box = _long_poll(stalled, job["id"])
        _await_held(stalled)
        stalled.release.set()
        thread.join(10)
        assert not thread.is_alive()
        view = box["result"]
        assert view["status"] == "done", view["error"]
        # answered on completion, not at the end of the 15 s hold
        assert time.time() - view["finished_at"] < 2.0
        hist = stalled.client.stats()["metrics"]["histograms"][
            "service.wait_notify_us"]
        assert hist["count"] == 1
        assert hist["total"] < 250_000

    def test_hold_expires_with_the_non_terminal_view(self, stalled):
        job = stalled.client.submit(SMALL)
        assert stalled.running.wait(120), "job never started"
        latency = "service.http_latency_us"
        before = stalled.client.stats()["metrics"]["histograms"][latency]
        t0 = time.monotonic()
        view = stalled.client.status(job["id"], wait=0.4)
        held = time.monotonic() - t0
        assert view["status"] == "running"
        assert 0.38 <= held < 3.0
        after = stalled.client.stats()["metrics"]["histograms"][latency]
        # the hold is waiting, not serving: left out of http latency
        # (the delta also holds the first stats request)
        assert after["total"] - before["total"] < 200_000

    def test_one_worker_long_poll_blocks_no_other_request(self, stalled):
        first = stalled.client.submit(SMALL)
        assert stalled.running.wait(120), "job never started"
        thread, box = _long_poll(stalled, first["id"])
        _await_held(stalled)
        t0 = time.monotonic()
        second = stalled.client.submit(dict(SMALL, git_sha="other"))
        assert stalled.client.status(second["id"])["status"] == "queued"
        assert stalled.client.health()["ok"]
        assert time.monotonic() - t0 < 2.0
        assert thread.is_alive(), "the long-poll returned early"
        stalled.release.set()
        thread.join(10)
        assert box["result"]["status"] == "done"
        assert stalled.client.wait(second["id"])["status"] == "done"

    def test_drain_wakes_a_queued_long_poll_with_shed(self, stalled):
        stalled.client.submit(SMALL)
        assert stalled.running.wait(120), "job never started"
        queued = stalled.client.submit(dict(SMALL, git_sha="queued"))
        thread, box = _long_poll(stalled, queued["id"])
        _await_held(stalled)
        t0 = time.monotonic()
        stalled.loop.call_soon_threadsafe(stalled.service.begin_drain)
        thread.join(10)
        assert not thread.is_alive()
        assert box["returned"] - t0 < 2.0
        view = box["result"]
        assert view["status"] == "failed"
        assert view["failure"]["kind"] == "shed"

    def test_stop_releases_a_pending_long_poll(self, stalled):
        stalled.client.submit(SMALL)
        assert stalled.running.wait(120), "job never started"
        queued = stalled.client.submit(dict(SMALL, git_sha="queued"))
        thread, box = _long_poll(stalled, queued["id"])
        _await_held(stalled)
        t0 = time.monotonic()
        stopping = asyncio.run_coroutine_threadsafe(
            stalled.service.stop(), stalled.loop
        )
        # answered before stop closes connections — and before stop
        # blocks on the stalled job still in the executor
        thread.join(5)
        assert not thread.is_alive()
        assert box["returned"] - t0 < 2.0
        assert box["result"]["status"] == "queued"
        stalled.release.set()
        stopping.result(30)
        assert time.monotonic() - t0 < 10.0

    def test_bad_wait_is_400_unknown_job_404_at_once(self, daemon):
        job = daemon.client.wait(daemon.client.submit(TINY)["id"])
        for bad in ("abc", "-1", "nan", "inf"):
            with pytest.raises(ServiceError) as err:
                daemon.client._call("GET", f"/v1/jobs/{job['id']}?wait={bad}")
            assert err.value.status == 400, bad
        t0 = time.monotonic()
        with pytest.raises(ServiceError) as err:
            daemon.client.status(999, wait=15)
        assert err.value.status == 404
        assert time.monotonic() - t0 < 2.0
        # a finished job answers at once
        t0 = time.monotonic()
        assert daemon.client.status(job["id"], wait=15)["status"] == "done"
        assert time.monotonic() - t0 < 2.0

    def test_warm_submission_takes_three_requests(self, daemon):
        client = daemon.client
        cold = client.wait(client.submit(TINY)["id"])
        assert cold["status"] == "done", cold["error"]
        sent = client.requests_sent
        job = client.submit(TINY)
        assert client.wait_max == LONG_POLL_MAX_SECONDS
        done = client.wait(job["id"])
        client.result(job["id"])
        assert done["stats"]["hits"] == done["stats"]["cells"]
        assert client.requests_sent - sent == 3  # submit, long-poll, result

    def test_metrics_exposition(self, daemon):
        client = daemon.client
        client.wait(client.submit(TINY)["id"])
        client.wait(client.submit(TINY)["id"])
        parsed = validate_exposition(client.metrics())
        flat = {name: dict(samples).get("", 0.0)
                for name, samples in parsed.items()}
        assert flat["repro_service_long_polls_total"] >= 2
        assert flat["repro_service_job_spawn_us_count"] == 2
        assert "repro_service_wait_notify_us_count" in flat
        # the spawn time rides on job.execute as an attribute, so the
        # span keeps the fork in its self time
        job = client.jobs()["jobs"][-1]
        spans = client.trace(job["trace_id"])["spans"]
        [execute] = [s for s in spans if s["name"] == "job.execute"]
        assert execute["attrs"]["spawn_us"] > 0


class TestRiders:
    def test_no_fork_inherits_a_lease_renewal(self, tmp_path):
        """Renewals every 0.1 s race 80 back-to-back job-worker forks; a
        fork taken while a renewal held the store's write lock left the
        worker failing ``database is locked`` until its deadline."""
        harness = DaemonHarness(tmp_path, lease_ttl=0.3, job_deadline=10.0)
        try:
            client = harness.client
            cold = client.wait(client.submit(TINY)["id"])
            assert cold["status"] == "done", cold["error"]
            for _ in range(80):
                view = client.wait(client.submit(TINY)["id"], timeout=60)
                assert view["status"] == "done", view["error"]
                assert view["stats"]["hits"] == view["stats"]["cells"]
        finally:
            harness.close()
            harness.client.close()

    def test_explicit_params_reach_the_worker(self, daemon):
        request = {"benchmarks": [["micro.arith", {"Reps": 777}]],
                   "profiles": "clr-1.1", "git_sha": "cafe"}
        job = daemon.client.wait(daemon.client.submit(request)["id"])
        assert job["status"] == "done", job["error"]
        served = daemon.client.result(job["id"])
        assert served["benchmarks"]["micro.arith"]["params"] == {"Reps": 777}
        direct = baseline.collect(
            profiles=baseline.resolve_profiles("clr-1.1"),
            suite=[("micro.arith", {"Reps": 777})],
            git_sha="cafe", jobs=1,
        )
        assert json.dumps(served, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
