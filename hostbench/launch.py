"""Start one program process of the benchmark, traced or not.

::

    python3 hostbench/launch.py bench ARGS...     # repro-bench ARGS...
    python3 hostbench/launch.py serve RUSAGE.json ARGS...   # repro-serve ARGS...
    python3 hostbench/launch.py compile CACHE_DIR ENGINE  # fill a cache

``bench`` and ``serve`` call the same functions as the ``repro-bench``
and ``repro-serve`` console scripts.  With ``HOSTBENCH_TRACE_DIR`` set,
the span wrappers of :mod:`layers` are installed first, so forked job
workers inherit them, and the process writes its spans there on exit.
``serve`` writes the peak RSS of the daemon and of its largest job worker
(``getrusage``) to RUSAGE.json once the daemon has drained.
``compile`` is the suite set-up: it compiles every graph-suite source
into an empty compile cache, as a fresh ``repro-bench run`` would.
"""

from __future__ import annotations

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def _compile(cache_dir: str, engine: str) -> int:
    from repro.harness.runner import Runner
    from repro.metrics import baseline
    from repro.parallel import CompileCache

    cache = CompileCache(cache_dir)
    runner = Runner(compile_cache=cache)
    sources = baseline.graph_suite(1.0)
    if engine != "classic":
        # a non-classic collection also times its engine against classic
        # on a benchmark variant of its own; a warm cache holds it too
        sources += sorted(
            getattr(baseline, "_SPEEDUP_OVERRIDES", {}).items())
    for name, params in sources:
        runner.compile_benchmark(name, params)
    print(f"compile cache {cache.hits} hits / {cache.misses} misses")
    return 0


def main(argv) -> int:
    command, args = argv[0], argv[1:]
    if command == "compile":
        return _compile(*args)
    recorder = layers.install_from_env()
    try:
        if command == "bench":
            from repro.metrics.cli import main as bench_main

            return bench_main(args)
        if command == "serve":
            from repro.service.cli import serve_main

            rusage_out, args = args[0], args[1:]
            code = serve_main(args)
            with open(rusage_out, "w") as handle:
                json.dump({
                    "self_kb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss,
                    "children_kb": resource.getrusage(
                        resource.RUSAGE_CHILDREN).ru_maxrss,
                }, handle)
            return code or 0
        raise SystemExit(f"launch.py: unknown command {command!r}")
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
