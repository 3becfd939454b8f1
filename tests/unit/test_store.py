"""Unit tests for the content-addressed run archive (repro.obs.store)."""

import dataclasses
import gzip
import json
import os

import pytest

from repro.analysis.checkpoint import encode_config
from repro.config import MigrationPolicy, SimulationConfig
from repro.obs import JsonlSink, Observability
from repro.obs.store import (
    RunManifest,
    RunStore,
    config_fingerprint,
    derive_sweep_id,
    git_info,
    host_info,
)
from repro.sim.simulator import Simulator
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def run_result():
    cfg = SimulationConfig(seed=3).with_policy(MigrationPolicy.ADAPTIVE)
    return cfg, Simulator(cfg).run(make_workload("ra", scale="tiny"),
                                   oversubscription=1.5)


def _manifest(cfg, seed=3, **overrides):
    kwargs = dict(kind="run", workload="ra", policy="adaptive",
                  scale="tiny", seed=seed, oversubscription=1.5,
                  config=encode_config(cfg))
    kwargs.update(overrides)
    return RunManifest.create(**kwargs)


class TestManifest:
    def test_run_id_is_content_addressed(self, run_result):
        cfg, _ = run_result
        a, b = _manifest(cfg), _manifest(cfg)
        assert a.run_id == b.run_id
        assert len(a.run_id) == 12

    def test_run_id_changes_with_identity(self, run_result):
        cfg, _ = run_result
        assert _manifest(cfg).run_id != _manifest(cfg, seed=4).run_id
        assert (_manifest(cfg).run_id
                != _manifest(cfg, sweep_id="abc").run_id)

    def test_provenance_does_not_perturb_the_id(self, run_result):
        cfg, _ = run_result
        a = _manifest(cfg, host={"machine": "x"})
        b = _manifest(cfg, host={"machine": "y"})
        assert a.run_id == b.run_id

    def test_round_trips_through_dict(self, run_result):
        cfg, _ = run_result
        m = _manifest(cfg)
        again = RunManifest.from_dict(json.loads(json.dumps(m.as_dict())))
        assert again == m

    def test_config_hash_matches_fingerprint(self, run_result):
        cfg, _ = run_result
        m = _manifest(cfg)
        assert m.config_hash == config_fingerprint(encode_config(cfg))


class TestRunStore:
    def test_archive_and_load_round_trip(self, run_result, tmp_path):
        cfg, result = run_result
        store = RunStore(tmp_path)
        manifest = _manifest(cfg)
        run_id = store.open_run(manifest).commit(
            result, metrics={"x": {"value": 1}})
        loaded = store.load(run_id)
        assert loaded.manifest == manifest
        assert loaded.metrics == {"x": {"value": 1}}
        assert loaded.events_path is None
        assert dataclasses.asdict(loaded.result.events) == \
            dataclasses.asdict(result.events)
        assert loaded.result.total_cycles == result.total_cycles

    def test_rearchive_is_idempotent(self, run_result, tmp_path):
        cfg, result = run_result
        store = RunStore(tmp_path)
        a = store.open_run(_manifest(cfg)).commit(result, metrics={"x": 1})
        b = store.open_run(_manifest(cfg)).commit(result)
        assert a == b
        assert len(store.list()) == 1
        # the second archive must not inherit the first one's metrics
        assert store.load(a).metrics is None

    def test_prefix_resolution(self, run_result, tmp_path):
        cfg, result = run_result
        store = RunStore(tmp_path)
        run_id = store.open_run(_manifest(cfg)).commit(result)
        assert store.resolve(run_id[:6]) == run_id
        assert run_id[:4] in store
        with pytest.raises(KeyError, match="no archived run"):
            store.resolve("zzzz")

    def test_ambiguous_prefix_raises(self, run_result, tmp_path):
        cfg, result = run_result
        store = RunStore(tmp_path)
        store.open_run(_manifest(cfg)).commit(result)
        store.open_run(_manifest(cfg, seed=4)).commit(result)
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve("")

    def test_uncommitted_run_is_invisible(self, run_result, tmp_path):
        cfg, result = run_result
        store = RunStore(tmp_path)
        writer = store.open_run(_manifest(cfg))
        # no commit: the directory exists but carries no manifest
        assert os.path.isdir(writer.dir)
        assert store.list() == []
        assert _manifest(cfg).run_id not in store
        writer.commit(result)
        assert len(store.list()) == 1

    def test_event_log_streams_into_the_archive(self, run_result, tmp_path):
        cfg, _ = run_result
        store = RunStore(tmp_path)
        writer = store.open_run(_manifest(cfg))
        assert writer.events_path.endswith("events.jsonl.gz")
        obs = Observability()
        obs.bus.attach(JsonlSink(writer.events_path))
        result = Simulator(cfg).run(make_workload("ra", scale="tiny"),
                                    oversubscription=1.5, obs=obs)
        obs.close()
        run_id = writer.commit(result)
        loaded = store.load(run_id)
        assert loaded.events_path is not None
        with gzip.open(loaded.events_path, "rt") as fh:
            first = json.loads(fh.readline())
        assert first["event"] == "run_meta"

    def test_env_var_names_the_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "alt"))
        assert RunStore().root == str(tmp_path / "alt")
        assert RunStore(tmp_path / "explicit").root == \
            str(tmp_path / "explicit")

    def test_missing_root_lists_empty(self, tmp_path):
        assert RunStore(tmp_path / "nowhere").list() == []


class TestProvenance:
    def test_git_info_in_a_repo(self):
        info = git_info(cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        # the test tree lives in a git checkout
        assert info is not None and len(info["sha"]) == 40
        assert isinstance(info["dirty"], bool)

    def test_git_info_outside_a_repo(self, tmp_path):
        assert git_info(cwd=tmp_path) is None

    def test_host_info_shape(self):
        info = host_info()
        assert set(info) == {"python", "machine", "cpus"}


class TestSweepId:
    def test_order_independent(self):
        from repro.analysis import GridCell
        cells = [GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny"),
                 GridCell("ra", MigrationPolicy.DISABLED, 1.25, "tiny")]
        assert derive_sweep_id(cells) == derive_sweep_id(cells[::-1])
        assert derive_sweep_id(cells) != derive_sweep_id(cells[:1])
