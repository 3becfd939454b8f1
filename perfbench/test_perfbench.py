"""Checks of the benchmark itself (run: python3 -m pytest perfbench -q).

They run the benchmark's workloads at tiny scale: the simulated-results
digest must repeat for one seed, replay must match live generation,
tracing must neither change results nor leave wrappers behind, and
BENCHMARK.json must list exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import time

import pytest

import run

run._import_repro()

import suite  # noqa: E402
from tracing import LAYER_TARGETS, Tracer, _resolve, patched  # noqa: E402


def _fig6(tmp_path, replay, seed=3):
    wl = suite.Fig6Workload(replay, seed,
                            tmp_path / ("replay" if replay else "live"),
                            scale="tiny")
    wl.prepare()
    wl.setup_rep(0)
    return wl


def _digest(wl, **kwargs):
    results, _ = suite.run_pass(wl.ops(), **kwargs)
    assert [f for r in results for f in r.failures] == []
    return suite.digest(results)


def test_one_seed_always_gives_the_same_digest(tmp_path):
    first = _fig6(tmp_path / "a", replay=False)
    again = _fig6(tmp_path / "b", replay=False)
    digest = _digest(first)
    assert _digest(first) == digest
    assert _digest(again) == digest
    assert _digest(_fig6(tmp_path / "c", replay=False, seed=4)) != digest


def test_replay_digest_matches_live(tmp_path):
    live = _fig6(tmp_path, replay=False)
    replay = _fig6(tmp_path, replay=True)
    try:
        assert _digest(replay) == _digest(live)
    finally:
        replay.close()


def test_serve_digest_repeats_and_nothing_is_shed():
    config = suite.SERVE_CONFIG.replace(tenants=8, queue_depth=8)
    wl = suite.ServeWorkload(5, sessions=2, config=config)
    results, _ = suite.run_pass(wl.ops())
    assert all(r.failed == 0 and not r.failures for r in results)
    assert sum(r.attempted for r in results) == 16
    for r in results:
        drawn = [t["workload"] for t in r.stats["tenants"]]
        assert sorted(drawn) == sorted(config.workload_mix * 2)
    assert suite.digest(suite.run_pass(wl.ops())[0]) == \
        suite.digest(results)


def test_tracing_keeps_results_and_restores_entry_points(tmp_path):
    wl = _fig6(tmp_path, replay=False)
    originals = [_resolve(m, p)[2]
                 for targets in LAYER_TARGETS.values() for m, p in targets]
    digest = _digest(wl)
    tracer = Tracer()
    with tracer.installed():
        assert _digest(wl, tracer=tracer) == digest
    assert originals == [_resolve(m, p)[2] for targets in
                         LAYER_TARGETS.values() for m, p in targets]
    times = tracer.layer_times()
    assert times["uvm.driver.process_wave"]["calls"] == tracer.driver_waves
    assert tracer.waves["workloads.gen"] == tracer.driver_waves
    for layer in times.values():
        assert 0.0 <= layer["self_s"] <= layer["total_s"] + 1e-9


def test_self_times_cover_the_traced_wall_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_outer = tracer.wrap("outer", outer)
    start = time.perf_counter()
    wrapped_outer()
    wall = time.perf_counter() - start
    times = tracer.layer_times()
    assert times["leaf"]["calls"] == 2
    assert times["outer"]["self_s"] == pytest.approx(
        times["outer"]["total_s"] - times["leaf"]["total_s"])
    attributed = sum(t["self_s"] for t in times.values())
    assert 0.0 <= wall - attributed < 0.005


def test_patched_restores_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with patched([(Child, "f", lambda self: "patched")]):
        assert Child().f() == "patched"
    assert "f" not in vars(Child)
    assert Child().f() == "base"


def test_drift_from_the_warm_up_pass_fails_the_operation():
    ref = [suite.OpResult("a", 1, {"x": 1})]
    now = [suite.OpResult("a", 1, {"x": 2})]
    assert run._check_pass(now, ref) == [
        "a: simulated results differ from the warm-up pass"]
    assert now[0].failed == 1


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == {
        k: (v[0], v[2]) for k, v in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
