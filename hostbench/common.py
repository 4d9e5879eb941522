"""Helpers shared by the benchmark's workloads: percentiles, artifact
digests, and launching program processes."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10

#: artifact keys that legitimately differ between identical collections:
#: the output sequence number, the git stamp, and the wall-clock
#: ``dispatch`` block a threaded collection adds
VOLATILE_KEYS = ("seq", "git_sha", "dispatch")


# ---------------------------------------------------------------- statistics


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between
    the two nearest ranks (the common "linear" definition)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie above the ``q``-th percentile
    position (the samples that make it a measured tail)."""
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def geomean_of_medians(groups) -> float:
    """Geometric mean of the medians of ``groups`` (sequences of positive
    values).  A median over a mix of request kinds of very different
    costs falls between two kinds, on the extreme samples of each; the
    median of each kind does not, and the geometric mean weighs every
    kind's relative change alike."""
    medians = [median(group) for group in groups]
    if not medians:
        raise ValueError("geometric mean of no groups")
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


# ------------------------------------------------------------------ artifacts


def canonical_digest(artifact: dict) -> str:
    """sha256 of a BENCH artifact without its :data:`VOLATILE_KEYS`."""
    stable = {k: v for k, v in artifact.items() if k not in VOLATILE_KEYS}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ processes


def program_env(src_dir: str, extra: Optional[Dict[str, str]] = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("REPRO_DISPATCH", None)
    env.pop("REPRO_CACHE_DIR", None)
    for key in [k for k in env if k.startswith("HOSTBENCH_")]:
        del env[key]
    env.update(extra or {})
    return env


class Finished:
    """A program process that ran to completion."""

    def __init__(self, code: int, wall: float, maxrss_kb: int,
                 stdout: str, stderr: str) -> None:
        self.code = code
        self.wall = wall
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr


def run_launcher(args: List[str], env: dict, timeout: float,
                 log_dir: str) -> Finished:
    """Run ``launch.py ARGS`` to completion; time it from spawn to exit and
    read its peak RSS from ``wait4``.  Output goes through files in
    ``log_dir`` so that nothing but ``wait4`` reaps the child."""
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        env = dict(env, HOSTBENCH_SPAWN_WALL=repr(time.time()))
        proc = subprocess.Popen(
            [sys.executable, LAUNCHER] + list(args),
            env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return Finished(proc.returncode, wall, usage.ru_maxrss,
                        out.read(), err.read())
