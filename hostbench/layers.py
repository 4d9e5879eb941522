"""Per-layer tracing for the host-clock benchmark.

The benchmark never edits the program: a traced run installs wrappers
around the public functions at each layer boundary, records one span per
call in memory, and writes the spans to a JSON file when the traced
process ends.  A span is ``(id, parent, name, start, end, run id)``;
``start``/``end`` are wall-clock seconds, ``parent`` is the innermost
wrapped call open on the same thread.  A layer's self time is its
duration minus the time its direct children cover.

Installing rebinds every module attribute that holds a wrapped function
(so names bound with ``from ... import`` are wrapped too) and every
wrapped class method; uninstalling restores each original, including
aliases bound while the wrappers were in place.
"""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

#: (module, attribute path, span name) of every wrapped entry point
TARGETS = (
    ("repro.lang.compiler", "compile_source", "lang.compile"),
    ("repro.lang.compiler", "parse", "lang.parse"),
    ("repro.lang.compiler", "check_program", "lang.typecheck"),
    ("repro.lang.codegen", "CodeGen.generate", "lang.codegen"),
    ("repro.lang.compiler", "verify_assembly", "cil.verify"),
    ("repro.parallel.cache", "CompileCache.load", "cache.load"),
    ("repro.parallel.cache", "CompileCache.store", "cache.store"),
    ("repro.jit.pipeline", "JitCompiler.compile", "jit.compile"),
    ("repro.vm.dispatch", "build_ops", "dispatch.build_ops"),
    ("repro.vm.machine", "Machine.run", "vm.run"),
    ("repro.harness.runner", "Runner.run_on", "harness.run_on"),
    ("repro.metrics.instrument", "MachineMetrics.snapshot", "metrics.snapshot"),
    ("repro.metrics.baseline", "collect", "baseline.collect"),
    ("repro.metrics.baseline", "measure_dispatch_speedup", "baseline.dispatch_probe"),
    ("repro.parallel.pool", "run_cells", "pool.run_cells"),
    ("repro.store.store", "ExperimentStore.lookup_run", "store.lookup"),
    ("repro.store.store", "ExperimentStore.record_collection", "store.record"),
    ("repro.service.daemon", "_collect_in_worker", "service.job_worker"),
)

#: environment variables a launched process reads
TRACE_DIR_ENV = "HOSTBENCH_TRACE_DIR"
SPAWN_WALL_ENV = "HOSTBENCH_SPAWN_WALL"
RUN_ID_ENV = "HOSTBENCH_RUN_ID"


class SpanRecorder:
    """In-memory spans and counters of one process."""

    def __init__(self, trace_dir: Optional[str] = None,
                 run_id: Optional[str] = None,
                 spawn_wall: Optional[float] = None) -> None:
        self.trace_dir = trace_dir
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._dumps = itertools.count(1)
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.reset(spawn_wall)

    def reset(self, spawn_wall: Optional[float] = None) -> None:
        """Forget everything recorded so far (a forked child starts here).
        Clears in place: installed wrappers hold these containers."""
        self.pid = os.getpid()
        self.spawn_wall = spawn_wall
        self.spans.clear()
        self.counts.clear()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args, kwargs, run_id=None):
        stack = self.stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.time()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end,
                 self.run_id if run_id is None else run_id)
            )

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "spawn_wall": self.spawn_wall,
            "spans": self.spans,
            "counts": dict(self.counts),
        }

    def dump(self) -> Optional[str]:
        """Write what this process recorded to ``trace_dir``."""
        if not self.trace_dir:
            return None
        path = os.path.join(
            self.trace_dir, f"spans-{self.pid}-{next(self._dumps)}.json"
        )
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)
        return path


# ------------------------------------------------------------------ wrappers


def _wrapper(recorder: SpanRecorder, name: str, original):
    """The recording stand-in for ``original``; some layers also count."""
    span = recorder.span
    counts = recorder.counts

    if name == "jit.compile":
        def jit_compile(self, method):
            # only first-time compiles are JIT work; a cached lookup is
            # one per guest call and stays unrecorded
            if self.is_compiled(method):
                return original(self, method)
            return span(name, original, (self, method), {})
        wrapper = jit_compile
    elif name == "vm.run":
        def vm_run(self, *args, **kwargs):
            try:
                return span(name, original, (self,) + args, kwargs)
            finally:
                counts["vm.instructions"] += self.instructions
        wrapper = vm_run
    elif name in ("cache.load", "store.lookup"):
        hit, miss = f"{name}.hits", f"{name}.misses"

        def lookup(*args, **kwargs):
            result = span(name, original, args, kwargs)
            counts[miss if result is None else hit] += 1
            return result
        wrapper = lookup
    elif name == "pool.run_cells":
        def run_cells(*args, **kwargs):
            payloads, report = span(name, original, args, kwargs)
            counts["pool.cells_memoized"] += report.memoized
            counts["pool.cells_executed"] += report.cells - report.memoized
            return payloads, report
        wrapper = run_cells
    elif name == "service.job_worker":
        def job_worker(config):
            try:
                return span(name, original, (config,), {},
                            run_id=config.get("trace_id"))
            finally:
                # a job worker leaves through os._exit: write now
                recorder.dump()
        wrapper = job_worker
    else:
        def timed(*args, **kwargs):
            return span(name, original, args, kwargs)
        wrapper = timed
    functools.update_wrapper(wrapper, original)
    return wrapper


class Wrappers:
    """Install and uninstall the span wrappers of :data:`TARGETS`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: (owner, attribute, original) for every rebinding made
        self._patched: List[tuple] = []
        #: id(wrapper) -> (wrapper, original) of the module-level wrappers
        self._wrappers: Dict[int, tuple] = {}

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        for module_name, path, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original,
                          _wrapper(self.recorder, span_name, original))
                continue
            original = getattr(module, path)
            wrapper = _wrapper(self.recorder, span_name, original)
            self._wrappers[id(wrapper)] = (wrapper, original)
            for mod, attr, value in _module_names():
                if value is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # names bound to a wrapper while it was installed (a module
        # imported in between) get the original back as well
        for mod, attr, value in _module_names():
            wrapper, original = self._wrappers.get(id(value), (None, None))
            if wrapper is value:
                setattr(mod, attr, original)
        self._wrappers.clear()


def _module_names():
    """(module, attribute, value) over every loaded module's globals."""
    for mod in list(sys.modules.values()):
        names = getattr(mod, "__dict__", None)
        if isinstance(names, dict):
            for attr, value in list(names.items()):
                yield mod, attr, value


def install_from_env() -> Optional[SpanRecorder]:
    """Install the wrappers when ``HOSTBENCH_TRACE_DIR`` is set; return the
    recorder (None when tracing is off).  A forked child starts with an
    empty recorder whose spawn time is the fork."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    spawn = os.environ.get(SPAWN_WALL_ENV)
    recorder = SpanRecorder(
        trace_dir,
        run_id=os.environ.get(RUN_ID_ENV),
        spawn_wall=float(spawn) if spawn else None,
    )
    Wrappers(recorder).install()
    os.register_at_fork(after_in_child=lambda: recorder.reset(time.time()))
    return recorder


# --------------------------------------------------------------- aggregation


def load_dumps(trace_dir: str) -> List[dict]:
    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps


def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _run in spans:
        if parent:
            child_time[parent] += end - start
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _parent, _name, start, end, _run in spans
    }


def _under(sid: int, name: str, names: dict, parents: dict) -> bool:
    """Whether span ``sid`` has an ancestor called ``name``."""
    parent = parents.get(sid)
    while parent:
        if names.get(parent) == name:
            return True
        parent = parents.get(parent)
    return False


class LayerTotals:
    """Span durations, self times and counts summed over many dumps."""

    def __init__(self, dumps: List[dict]) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: collect() entry minus process spawn, one per collecting process
        self.startups: List[float] = []
        #: ``Runner.run_on`` durations of the collected cells (the
        #: dispatch probe's own runs excluded)
        self.cells: List[float] = []
        for dump in dumps:
            spans = [tuple(span) for span in dump["spans"]]
            own = self_times(spans)
            names = {span[0]: span[2] for span in spans}
            parents = {span[0]: span[1] for span in spans}
            first_collect = None
            for sid, _parent, name, start, end, _run in spans:
                self.total[name] += end - start
                self.self_time[name] += own[sid]
                self.calls[name] += 1
                if name == "harness.run_on" and not _under(
                        sid, "baseline.dispatch_probe", names, parents):
                    self.cells.append(end - start)
                if name == "baseline.collect" and (
                        first_collect is None or start < first_collect):
                    first_collect = start
            if first_collect is not None and dump.get("spawn_wall"):
                self.startups.append(first_collect - dump["spawn_wall"])
            self.counts.update(dump.get("counts", {}))

    def ms(self, name: str) -> float:
        return 1000.0 * self.total.get(name, 0.0)

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_time.get(name, 0.0)
