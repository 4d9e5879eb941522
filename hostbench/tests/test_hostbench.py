"""Self-tests of the host-clock benchmark (run with
``PYTHONPATH=src python -m pytest hostbench/tests``)."""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

import pytest

import common
import layers
import service

from repro.metrics import baseline
from repro.parallel import CompileCache
from repro.runtimes import get_profile

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = """
class P {
    static int Main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }
}
"""


def _targets():
    """(owner, attribute) -> object for every wrapped name, aliases included."""
    import importlib

    found = {}
    for module_name, path, _span in layers.TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            found[(owner, attr)] = owner.__dict__[attr]
        else:
            original = getattr(module, path)
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        found[(mod, attr)] = value
    return found


@pytest.fixture
def wrapped():
    recorder = layers.SpanRecorder()
    wrappers = layers.Wrappers(recorder)
    wrappers.install()
    try:
        yield recorder
    finally:
        wrappers.uninstall()


# ------------------------------------------------------------------ wrappers


def test_uninstall_restores_every_original_including_from_imports():
    import repro.harness.runner as runner
    import repro.lang as lang
    import repro.lang.compiler as compiler

    before = _targets()
    assert (compiler, "parse") in before
    assert (compiler, "check_program") in before
    assert (lang, "compile_source") in before
    assert (runner, "compile_source") in before
    wrappers = layers.Wrappers(layers.SpanRecorder())
    wrappers.install()
    try:
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original, (owner, attr)
        # a module imported while the wrappers are in place binds a wrapper
        late = types.ModuleType("hostbench_late_import")
        late.parse = compiler.parse
        sys.modules[late.__name__] = late
    finally:
        wrappers.uninstall()
    try:
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is original, (owner, attr)
        assert late.parse is before[(compiler, "parse")]
    finally:
        del sys.modules[late.__name__]


def test_spans_nest_and_self_time_excludes_children(wrapped):
    from repro.lang import compile_source

    compile_source(SOURCE, assembly_name="p")
    by_name = {span[2]: span for span in wrapped.spans}
    root = by_name["lang.compile"]
    stages = ("lang.parse", "lang.typecheck", "lang.codegen", "cil.verify")
    for stage in stages:
        assert by_name[stage][1] == root[0]
    own = layers.self_times(wrapped.spans)
    children = sum(by_name[s][4] - by_name[s][3] for s in stages)
    assert own[root[0]] == pytest.approx(root[4] - root[3] - children)
    assert own[root[0]] >= 0


def test_dump_round_trips_into_layer_totals(tmp_path, wrapped):
    from repro.lang import compile_source

    wrapped.trace_dir = str(tmp_path)
    wrapped.spawn_wall = 1.0
    compile_source(SOURCE, assembly_name="p")
    wrapped.dump()
    totals = layers.LayerTotals(layers.load_dumps(str(tmp_path)))
    assert totals.calls["lang.compile"] == 1
    assert totals.ms("lang.compile") >= totals.ms("lang.parse") > 0


# -------------------------------------------------------- bypass predictions


def _small_suite():
    return baseline.resolve_suite(["micro.arith", "scimark.sor"], 0.01)


def test_warm_cache_classic_collection_compiles_nothing_and_builds_no_ops(
        tmp_path, wrapped):
    cache_dir = str(tmp_path / "cache")
    profiles = [get_profile("clr-1.1")]
    baseline.collect(profiles=profiles, suite=_small_suite(), scale=0.01,
                     git_sha="t", cache=CompileCache(cache_dir))
    wrapped.reset()
    baseline.collect(profiles=profiles, suite=_small_suite(), scale=0.01,
                     git_sha="t", cache=CompileCache(cache_dir))
    names = [span[2] for span in wrapped.spans]
    assert "lang.compile" not in names
    assert "dispatch.build_ops" not in names
    assert names.count("harness.run_on") == 2
    assert wrapped.counts["cache.load.hits"] == 2


def test_threaded_collection_builds_ops(tmp_path, wrapped):
    baseline.collect(profiles=[get_profile("clr-1.1")],
                     suite=_small_suite()[:1], scale=0.01, git_sha="t",
                     cache=CompileCache(str(tmp_path)), dispatch="threaded-nofuse")
    names = [span[2] for span in wrapped.spans]
    assert names.count("dispatch.build_ops") > 0
    assert "baseline.dispatch_probe" in names


def test_store_warm_collection_compiles_and_executes_nothing(tmp_path, wrapped):
    from repro.store import ExperimentStore

    profiles = [get_profile("clr-1.1")]
    with ExperimentStore(str(tmp_path / "s.sqlite")) as store:
        baseline.collect(profiles=profiles, suite=_small_suite(), scale=0.01,
                         git_sha="t", store=store)
        wrapped.reset()
        baseline.collect(profiles=profiles, suite=_small_suite(), scale=0.01,
                         git_sha="t", store=store)
    names = [span[2] for span in wrapped.spans]
    assert "lang.compile" not in names
    assert "vm.run" not in names
    assert wrapped.counts["store.lookup.hits"] == 2
    assert wrapped.counts["pool.cells_memoized"] == 2


# ---------------------------------------------------------- request stream


def test_one_seed_always_gives_the_same_request_stream():
    def stream(seed):
        s = service.Stream(seed)
        return [(r.name, r.scale, r.params) for _ in range(4) for r in s.cycle()]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_requests_are_new_and_resolve_to_their_drawn_size():
    s = service.Stream(3)
    seen = set()
    for _ in range(10):
        cycle = s.cycle()
        assert sorted(r.name for r in cycle) == sorted(
            name for name, _k, _b in service.ROTATION)
        for request in cycle:
            key = (request.name, json.dumps(request.params, sort_keys=True))
            assert key not in seen
            seen.add(key)
            [(name, params)] = baseline.resolve_suite(
                [request.name], request.scale)
            assert params == request.params


def test_sizes_stay_new_when_a_run_outlasts_the_size_range():
    s = service.Stream(1)
    sizes = [r.params["Reps"] for _ in range(60) for r in s.cycle()
             if r.name == "micro.exception"]
    assert len(set(sizes)) == 60
    assert max(sizes) > 220 or min(sizes) < 180


# ----------------------------------------------------------------- statistics


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for q in (10, 25, 50, 75, 90):
        assert common.percentile(values, q) == pytest.approx(cuts[q - 1])
    assert common.percentile(values, 0) == 1.0
    assert common.percentile(values, 100) == 9.0
    assert common.median([4.0]) == 4.0


def test_no_tail_percentile_with_fewer_than_ten_samples_beyond():
    assert common.samples_beyond(100, 90) == 10
    # ranks above the interpolation point 0.9 * (n - 1)
    assert common.samples_beyond(92, 90) == 10
    assert common.samples_beyond(91, 90) == 9
    assert common.tail_percentile(list(range(91)), 90) is None
    assert common.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert common.samples_beyond(80, 80) == 16


def test_geomean_of_medians_takes_each_kinds_own_median():
    # medians 2 and 20: the geometric mean is sqrt(40), not a value at the
    # seam between the two kinds, as the median of the pooled samples is
    groups = [[3.0, 1.0, 2.0], [40.0, 10.0, 20.0]]
    assert common.geomean_of_medians(groups) == pytest.approx(40 ** 0.5)
    assert common.median([v for g in groups for v in g]) == 6.5
    with pytest.raises(ValueError):
        common.geomean_of_medians([])


def test_host_speed_sampler_samples_until_stopped_and_scales():
    import hostspeed

    host = hostspeed.HostSpeed()
    time.sleep(1.0)
    host.stop()
    assert len(host.samples) >= 2 and all(t > 0 for t in host.samples)
    # a run whose samples took twice the reference time ran on a host
    # half as fast: its times are halved
    host.samples = [2 * hostspeed.REFERENCE_SECONDS] * 3
    assert host.factor() == pytest.approx(0.5)


def test_canonical_digest_ignores_only_volatile_keys():
    artifact = {"schema": "s", "benchmarks": {"b": 1}, "git_sha": "a", "seq": 1}
    same = dict(artifact, git_sha="b", seq=2, dispatch={"speedup": 2.0})
    assert common.canonical_digest(artifact) == common.canonical_digest(same)
    other = dict(artifact, benchmarks={"b": 2})
    assert common.canonical_digest(artifact) != common.canonical_digest(other)


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_declares_what_the_runs_report():
    import run

    with open(os.path.join(os.path.dirname(HOSTBENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    setup = [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [max(m["bound"] for m in spec["end_to_end"])]


def test_exits_nonzero_without_a_program_to_measure(tmp_path):
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "suite-classic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
