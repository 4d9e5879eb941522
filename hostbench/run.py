"""Host-clock benchmark of the experiment system.

::

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads (see README.md for why each exists):

* ``suite-classic`` / ``suite-threaded`` — back-to-back fresh
  ``repro-bench run`` processes over the full graph suite;
* ``service-cold`` / ``service-warm`` — one client against
  ``repro-serve --workers 1`` submitting never-seen / repeated requests.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` repeats the workload's operations with span wrappers
installed in the program processes and reports the per-layer metrics.
Every operation's output is checked.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import median, percentile, program_env, tail_percentile  # noqa: E402

WORKLOADS = ("suite-classic", "suite-threaded", "service-cold", "service-warm")

#: end-to-end metrics (reported on every workload), with their units
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
)

#: per-layer metrics, in report order, with their units
PER_LAYER = (
    ("lang.compile_calls", "count"),
    ("lang.compile_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.typecheck_ms", "ms"),
    ("lang.codegen_ms", "ms"),
    ("cil.verify_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("jit.methods_compiled", "count"),
    ("jit.compile_ms", "ms"),
    ("dispatch.build_ops_calls", "count"),
    ("dispatch.build_ops_ms", "ms"),
    ("vm.exec_ms", "ms"),
    ("vm.guest_mips", "Minstr/s"),
    ("harness.cell_ms_p50", "ms"),
    ("harness.cell_ms_p80", "ms"),
    ("metrics.observer_overhead_ms", "ms"),
    ("metrics.snapshot_ms", "ms"),
    ("baseline.dispatch_probe_ms", "ms"),
    ("baseline.startup_ms", "ms"),
    ("pool.run_cells_ms", "ms"),
    ("pool.cells_executed", "count"),
    ("pool.cells_memoized", "count"),
    ("store.lookup_ms", "ms"),
    ("store.record_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.job_execute_self_ms", "ms"),
    ("service.http_gap_ms", "ms"),
    ("client.requests_per_submit", "count"),
    ("client.retries", "count"),
    ("service.rejected", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: per-layer metrics read off one span kind: (metric, span, what), where
#: ``what`` is ``calls`` (calls per operation), ``ms`` (duration per
#: operation) or ``self_ms`` (duration minus direct children, per operation)
SPAN_METRICS = (
    ("lang.compile_calls", "lang.compile", "calls"),
    ("lang.compile_ms", "lang.compile", "ms"),
    ("lang.parse_ms", "lang.parse", "ms"),
    ("lang.typecheck_ms", "lang.typecheck", "ms"),
    ("lang.codegen_ms", "lang.codegen", "ms"),
    ("cil.verify_ms", "cil.verify", "ms"),
    ("cache.load_ms", "cache.load", "ms"),
    ("cache.store_ms", "cache.store", "ms"),
    ("jit.methods_compiled", "jit.compile", "calls"),
    ("jit.compile_ms", "jit.compile", "self_ms"),
    ("dispatch.build_ops_calls", "dispatch.build_ops", "calls"),
    ("dispatch.build_ops_ms", "dispatch.build_ops", "ms"),
    ("vm.exec_ms", "vm.run", "self_ms"),
    ("metrics.snapshot_ms", "metrics.snapshot", "ms"),
    ("baseline.dispatch_probe_ms", "baseline.dispatch_probe", "ms"),
    ("pool.run_cells_ms", "pool.run_cells", "ms"),
    ("store.lookup_ms", "store.lookup", "ms"),
    ("store.record_ms", "store.record", "ms"),
)

#: per-layer metrics the service workloads measure from the client side
#: (0 on the suites, which bypass the service)
SERVICE_METRICS = (
    "service.queue_wait_ms",
    "service.run_ms",
    "service.job_execute_self_ms",
    "service.http_gap_ms",
    "client.requests_per_submit",
    "client.retries",
    "service.rejected",
)


class Context:
    """One benchmark run: its arguments, work directory and check tally."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = os.path.join(
            root, ".hostbench-work", f"{args.workload}-{os.getpid()}"
        )
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: metric name -> sample count, for the printed table
        self.samples = {}
        os.makedirs(self.work)

    def path(self, name: str) -> str:
        path = os.path.join(self.work, name)
        os.makedirs(path, exist_ok=True)
        return path

    def env(self, extra=None) -> dict:
        return program_env(self.src, extra)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
            print(f"hostbench: CHECK FAILED: {message}", file=sys.stderr)
        return ok

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def layer_metrics(self, totals, *, ops: int, op_wall: float,
                      untraced_wall: float, observer_overhead_ms: float,
                      service=None) -> dict:
        """Per-layer metrics from summed span totals, per operation."""
        per = 1.0 / ops
        values = {}
        for metric, span, what in SPAN_METRICS:
            amount = {"calls": totals.calls[span], "ms": totals.ms(span),
                      "self_ms": totals.self_ms(span)}[what]
            values[metric] = amount * per
            self.samples[metric] = totals.calls[span]
        exec_s = totals.self_time.get("vm.run", 0.0)
        cells = [1000.0 * d for d in totals.cells]
        lookups = (totals.counts["store.lookup.hits"]
                   + totals.counts["store.lookup.misses"])
        values.update({
            "cache.hits": totals.counts["cache.load.hits"] * per,
            "cache.misses": totals.counts["cache.load.misses"] * per,
            "vm.guest_mips": (totals.counts["vm.instructions"] / exec_s / 1e6
                              if exec_s > 0 else 0.0),
            "harness.cell_ms_p50": percentile(cells, 50) if cells else 0.0,
            "harness.cell_ms_p80": tail_percentile(cells, 80) or 0.0,
            "metrics.observer_overhead_ms": observer_overhead_ms,
            "baseline.startup_ms": (1000.0 * median(totals.startups)
                                    if totals.startups else 0.0),
            "pool.cells_executed": totals.counts["pool.cells_executed"] * per,
            "pool.cells_memoized": totals.counts["pool.cells_memoized"] * per,
            "store.hit_ratio": (totals.counts["store.lookup.hits"] / lookups
                                if lookups else 0.0),
            "trace.overhead_ratio": op_wall / untraced_wall,
        })
        self.samples.update({
            "vm.guest_mips": totals.calls["vm.run"],
            "harness.cell_ms_p50": len(cells),
            "harness.cell_ms_p80": len(cells),
            "baseline.startup_ms": len(totals.startups),
            "trace.overhead_ratio": ops,
        })
        service = service or {}
        for name in SERVICE_METRICS:
            values[name] = service.get(name, 0.0)
        if service:
            self.samples.update(dict.fromkeys(SERVICE_METRICS, ops))
        units = dict(PER_LAYER)
        return {name: (values[name], units[name]) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("hostbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # one CPU for the benchmark and every process it starts: this host's
    # two CPUs change speed independently, so a run on both mixes two
    # drifts, and the host-speed sampler must run on the program's CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload.startswith("suite-"):
        import suite as workload
    else:
        import service as workload

    ctx = Context(root, args)
    begin = time.perf_counter()
    try:
        metrics = workload.run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass
    expected = PER_LAYER if ctx.trace else END_TO_END
    if [(name, unit) for name, (_v, unit) in metrics.items()] != list(expected):
        raise RuntimeError(f"workload reported {sorted(metrics)}, "
                           f"not {[name for name, _ in expected]}")
    print(f"hostbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{ctx.attempted} operations, {ctx.failed} failed, "
          f"{time.perf_counter() - begin:.1f}s", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        count = ctx.samples.get(name)
        note = "" if count is None else f"  (n={count})"
        print(f"  {name:<32} {value:>14.4f} {unit}{note}")
    result = {
        "correct": ctx.failed == 0 and not ctx.errors,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
