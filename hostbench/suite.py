"""The ``suite-classic`` and ``suite-threaded`` workloads.

One closed loop of back-to-back ``repro-bench run`` processes, each a
fresh process collecting the full graph suite (10 benchmarks x 8
profiles, scale 1.0, metrics attached, serial) through a compile cache
that set-up filled.  Every artifact must match :data:`EXPECTED_DIGEST`,
threaded ones included, because the engines are bit-identical.  The
suite's input is fixed; the seed only orders the observer A/B cells.
The run's times are rescaled to the reference host speed (see
:mod:`hostspeed`).
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time

import layers
from common import canonical_digest, median, run_launcher
from hostspeed import HostSpeed

#: canonical sha256 of the graph-suite artifact at scale 1.0 on all
#: profiles, without ``seq``, ``git_sha`` and the ``dispatch`` block
EXPECTED_DIGEST = (
    "a7670a4cdcfe95b160ff61f7906729b2b2ab4b6884de4ad4acc73d79199ced08"
)

SETUP_REPEATS = 7
PROCESS_TIMEOUT = 150.0
CACHE_LINE = re.compile(r"compile cache (\d+) hits / (\d+) misses")

#: cells of the observer A/B (nothing wrapped): one per host-cost regime
AB_CELLS = ("micro.arith", "scimark.sor", "threads.sync")
AB_PROFILE = "clr-1.1"
AB_ROUNDS = 5


def _engine(workload: str) -> str:
    return "threaded" if workload == "suite-threaded" else "classic"


def _setup(ctx, engine: str, indices) -> list:
    """Compile every source a collection needs into empty caches, in
    fresh processes; the first cache serves the timed collections."""
    walls = []
    for index in indices:
        cache = ctx.path(f"cache-{index}")
        done = run_launcher(["compile", cache, engine], ctx.env(),
                            PROCESS_TIMEOUT, ctx.path(f"setup-{index}"))
        match = CACHE_LINE.search(done.stdout)
        ctx.operation(ctx.check(
            done.code == 0 and match is not None and match.group(1) == "0",
            f"setup compile {index}: exit {done.code}, "
            f"{done.stdout.strip()} {done.stderr[-400:]}"))
        walls.append(done.wall)
    return walls


def _collect(ctx, cache: str, engine: str, tag: str, trace_dir=None):
    """One ``repro-bench run`` process; returns it after checking its
    artifact digest and that it compiled nothing."""
    out = ctx.path(f"out-{tag}")
    args = ["bench", "run", "--out", out, "--seq", "0",
            "--git-sha", "hostbench", "--cache-dir", cache]
    if engine != "classic":
        args += ["--dispatch", engine]
    extra = {}
    if trace_dir is not None:
        extra = {layers.TRACE_DIR_ENV: trace_dir, layers.RUN_ID_ENV: tag}
    done = run_launcher(args, ctx.env(extra), PROCESS_TIMEOUT, ctx.path(tag))
    ok = ctx.check(done.code == 0, f"collection {tag}: exit {done.code}: "
                                   f"{done.stderr[-600:]}")
    if ok:
        match = CACHE_LINE.search(done.stdout)
        ok &= ctx.check(match is not None and match.group(2) == "0",
                        f"collection {tag}: compiled sources in a warm "
                        f"cache: {done.stdout.strip()}")
        path = os.path.join(out, "BENCH_0.json")
        with open(path) as handle:
            artifact = json.load(handle)
        os.unlink(path)
        digest = canonical_digest(artifact)
        ok &= ctx.check(digest == EXPECTED_DIGEST,
                        f"collection {tag}: artifact digest {digest} "
                        f"!= expected")
        ok &= ctx.check((engine != "classic") == ("dispatch" in artifact),
                        f"collection {tag}: dispatch block present only "
                        f"on non-classic engines")
    ctx.operation(ok)
    done.ok = ok
    return done


def run(ctx) -> dict:
    engine = _engine(ctx.workload)
    # the CPU is busy with the program all through a suite run, so the
    # host-speed samples taken beside it stand for the speed it ran at
    host = None if ctx.trace else HostSpeed()
    try:
        # half the set-ups run before the timed loop and half after it,
        # so that their median spans the run as the collections do
        before = (SETUP_REPEATS + 1) // 2
        setups = _setup(ctx, engine, range(before))
        cache = ctx.path("cache-0")
        walls, rss = [], []
        start = time.perf_counter()
        attempts = 0
        while not attempts or time.perf_counter() - start < ctx.seconds:
            done = _collect(ctx, cache, engine, f"c{attempts}")
            attempts += 1
            if done.ok:
                walls.append(done.wall)
                rss.append(done.maxrss_kb)
        setups += _setup(ctx, engine, range(before, SETUP_REPEATS))
    finally:
        if host is not None:
            host.stop()
    if not walls:
        raise RuntimeError("no collection passed its checks")
    ctx.samples = {"op_p50_ms": len(walls), "setup_s": len(setups)}
    if not ctx.trace:
        factor = host.factor()
        print(f"hostbench: host speed factor {factor:.4f} "
              f"({len(host.samples)} reference samples); unscaled: "
              f"setup_s {median(setups):.4f}, "
              f"op_p50_ms {1000.0 * median(walls):.4f}", file=sys.stderr)
        return {
            "setup_s": (median(setups) * factor, "s"),
            "peak_rss_mb": (max(rss) / 1024.0, "MB"),
            "op_p50_ms": (1000.0 * median(walls) * factor, "ms"),
        }
    trace_dir = ctx.path("trace")
    traced = _collect(ctx, cache, engine, "traced", trace_dir=trace_dir)
    totals = layers.LayerTotals(layers.load_dumps(trace_dir))
    return ctx.layer_metrics(
        totals,
        ops=1,
        op_wall=traced.wall,
        untraced_wall=median(walls),
        observer_overhead_ms=observer_overhead_ms(ctx, cache, engine),
    )


def observer_overhead_ms(ctx, cache_dir: str, engine: str) -> float:
    """A/B of ``Runner.run_on`` with metrics off vs on over
    :data:`AB_CELLS`, in this (unwrapped) process: per cell, interleaved
    rounds and the best time of each side; the sum of the differences,
    in ms."""
    from repro.harness.runner import Runner
    from repro.metrics.baseline import graph_suite
    from repro.parallel import CompileCache
    from repro.runtimes import get_profile

    params = dict(graph_suite(1.0))
    profile = get_profile(AB_PROFILE)
    runner = Runner(profiles=[profile], compile_cache=CompileCache(cache_dir),
                    dispatch=engine)
    cells = list(AB_CELLS)
    random.Random(ctx.seed).shuffle(cells)
    total = 0.0
    for name in cells:
        runner.compile_benchmark(name, params[name])
        best = {}
        for _ in range(AB_ROUNDS):
            for metrics in (None, True):
                begin = time.perf_counter()
                runner.run_on(name, profile, params[name], metrics=metrics)
                elapsed = time.perf_counter() - begin
                best[metrics] = min(best.get(metrics, elapsed), elapsed)
        total += best[True] - best[None]
    return 1000.0 * total
