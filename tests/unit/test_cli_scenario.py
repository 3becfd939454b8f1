"""CLI surface of the scenario-config subsystem.

``run --config`` / ``sweep --config`` / ``sweep --config-dir`` /
``serve --config`` / ``config validate`` / ``config show``.
"""

import json

import pytest

from repro.cli import main
from repro.obs.store import RunStore

yaml = pytest.importorskip("yaml")


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def run_cfg(tmp_path):
    return write(tmp_path / "one.yaml",
                 "workload: ra\nscale: tiny\noversubscription: 1.25\n")


@pytest.fixture
def sweep_cfg(tmp_path):
    return write(tmp_path / "grid.yaml", """\
mode: sweep
workload: ra
scale: tiny
sweep:
  policy.variant: [disabled, adaptive]
""")


class TestRunConfig:
    def test_run_config_executes(self, run_cfg, capsys):
        assert main(["run", "--config", run_cfg]) == 0
        out = capsys.readouterr().out
        assert "cycle breakdown" in out

    def test_run_config_honours_flag_overlays(self, run_cfg, capsys):
        assert main(["run", "--config", run_cfg, "--histogram"]) == 0
        assert "access histogram" in capsys.readouterr().out

    def test_knob_flags_override_config(self, tmp_path, capsys):
        """A knob flag given with --config overrides the scenario's key:
        the run equals the all-flags invocation."""
        cfg = write(tmp_path / "tiny.yaml", "workload: ra\nscale: tiny\n"
                                            "oversubscription: 1.5\n")
        assert main(["run", "--config", cfg, "--policy", "disabled",
                     "--ts", "1"]) == 0
        overlaid = capsys.readouterr().out
        assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                     "--policy", "disabled", "--ts", "1"]) == 0
        assert overlaid == capsys.readouterr().out
        assert main(["run", "--config", cfg]) == 0
        assert overlaid != capsys.readouterr().out

    def test_workload_plus_config_rejected(self, run_cfg):
        with pytest.raises(SystemExit, match="not both"):
            main(["run", "ra", "--config", run_cfg])

    def test_neither_workload_nor_config_rejected(self):
        with pytest.raises(SystemExit, match="workload name or --config"):
            main(["run"])

    def test_invalid_config_fails_cleanly(self, tmp_path):
        bad = write(tmp_path / "bad.yaml", "workload: nosuch\n")
        with pytest.raises(SystemExit, match="nosuch"):
            main(["run", "--config", bad])

    def test_swept_config_runs_as_batch(self, sweep_cfg, capsys):
        assert main(["run", "--config", sweep_cfg]) == 0
        out = capsys.readouterr().out
        assert "grid[policy.variant=disabled]" in out
        assert "grid[policy.variant=adaptive]" in out

    def test_run_config_archives_scenario(self, run_cfg, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["run", "--config", run_cfg, "--archive",
                     "--runs", str(runs)]) == 0
        (manifest,) = RunStore(runs).list()
        assert manifest.scenario == "one"
        assert manifest.config["scenario"]["workload"] == "ra"


class TestSweepConfig:
    def test_sweep_config_renders_table(self, sweep_cfg, capsys):
        assert main(["sweep", "--config", sweep_cfg]) == 0
        out = capsys.readouterr().out
        assert "scenario grid" in out
        assert "runtime (ms)" in out

    def test_config_dir_runs_every_scenario(self, tmp_path, capsys):
        write(tmp_path / "_base.yaml", "scale: tiny\nworkload: ra\n")
        write(tmp_path / "a.yaml", "inherits: _base\n")
        write(tmp_path / "b.yaml",
              "inherits: _base\nmode: multigpu\n"
              "multigpu: {gpus: 2, throttle: 0.75}\n")
        assert main(["sweep", "--config-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario a" in out
        assert "scenario b" in out
        assert "makespan" in out

    def test_config_and_config_dir_mutually_exclusive(self, sweep_cfg,
                                                      tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(["sweep", "--config", sweep_cfg,
                  "--config-dir", str(tmp_path)])

    def test_workload_plus_config_rejected(self, sweep_cfg):
        with pytest.raises(SystemExit, match="not both"):
            main(["sweep", "ra", "--config", sweep_cfg])

    def test_sweep_config_archives_resolved_variants(self, sweep_cfg,
                                                     tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["sweep", "--config", sweep_cfg, "--archive",
                     "--runs", str(runs)]) == 0
        manifests = RunStore(runs).list()
        assert len(manifests) == 2
        variants = set()
        for manifest in manifests:
            assert manifest.scenario == "grid"
            variants.add(manifest.config["scenario"]["policy"]["variant"])
        assert variants == {"disabled", "adaptive"}


class TestServeConfig:
    def test_serve_config_executes(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.yaml", """\
mode: serve
scale: tiny
serve:
  tenants: 2
  workload_mix: [ra]
  capacity_mb: 16
""")
        assert main(["serve", "--config", cfg]) == 0
        assert "tenants" in capsys.readouterr().out

    def test_knob_flags_override_config(self, capsys):
        """configs/serve_slo.yaml generates 10 tenants; --tenants wins."""
        assert main(["serve", "--config", "configs/serve_slo.yaml",
                     "--tenants", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["arrivals"] == 3

    def test_flag_errors_name_the_key(self, tmp_path):
        cfg = write(tmp_path / "s.yaml", "mode: serve\nscale: tiny\n")
        with pytest.raises(SystemExit, match="serve.workload_mix: unknown "
                                             "workload 'nosuch'"):
            main(["serve", "--config", cfg, "--mix", "ra,nosuch"])

    def test_non_serve_config_redirected(self, run_cfg):
        with pytest.raises(SystemExit, match="mode"):
            main(["serve", "--config", run_cfg])


#: Per-run obs flags with their arguments (paths land in tmp_path).
RUN_OBS_FLAGS = [["--events", "ev.jsonl"], ["--flush-events", "1"],
                 ["--metrics", "m.json"], ["--prom", "m.prom"],
                 ["--profile"], ["--timeline", "t.json"]]


@pytest.fixture
def swept_serve_cfg(tmp_path):
    return write(tmp_path / "swept.yaml", """\
mode: serve
scale: tiny
serve:
  workload_mix: [ra]
  capacity_mb: 16
sweep:
  serve.tenants: [1, 2]
""")


class TestBatchObservability:
    """A batch has no single run to instrument: per-run obs flags fail
    loudly and point to --archive, which files each serial variant with
    its own event log and metrics."""

    @pytest.mark.parametrize("flag", RUN_OBS_FLAGS, ids=lambda f: f[0])
    def test_run_obs_flag_on_sweep_rejected(self, flag, sweep_cfg, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"{flag[0]} .*--archive"):
            main(["run", "--config", sweep_cfg, *flag])
        assert not list(tmp_path.glob("*.json*"))

    def test_run_obs_flag_on_multigpu_rejected(self, tmp_path):
        cfg = write(tmp_path / "mg.yaml", "mode: multigpu\nworkload: ra\n"
                                          "scale: tiny\nmultigpu: {gpus: 2}\n")
        with pytest.raises(SystemExit, match="--events .*multigpu.*--archive"):
            main(["run", "--config", cfg, "--events",
                  str(tmp_path / "ev.jsonl")])

    def test_run_obs_flag_on_swept_serve_rejected(self, swept_serve_cfg,
                                                  tmp_path):
        with pytest.raises(SystemExit, match="--metrics .*2 variant"):
            main(["serve", "--config", swept_serve_cfg, "--metrics",
                  str(tmp_path / "m.json")])

    def test_sweep_metrics_still_writes_grid_rollup(self, sweep_cfg,
                                                    tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["sweep", "--config", sweep_cfg, "--metrics",
                     str(out)]) == 0
        assert "grid.cells_completed" in out.read_text()

    def test_archive_files_each_serve_variant_with_its_log(
            self, swept_serve_cfg, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["serve", "--config", swept_serve_cfg, "--archive",
                     "--runs", str(runs)]) == 0
        store = RunStore(runs)
        manifests = store.list()
        assert len(manifests) == 2
        for manifest in manifests:
            run = store.load(manifest.run_id)
            assert run.events_path is not None
            assert run.metrics is not None

    def test_serve_table_shows_slo_outcome(self, swept_serve_cfg, capsys):
        assert main(["serve", "--config", swept_serve_cfg]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert "slo viol" in header and "alerts" in header


class TestConfigCommand:
    def test_validate_ok(self, run_cfg, capsys):
        assert main(["config", "validate", run_cfg]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_failures(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.yaml", "workload: ra\nbogus: 1\n")
        assert main(["config", "validate", bad]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_directory(self, tmp_path, capsys):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        write(tmp_path / "a.yaml", "inherits: _base\nworkload: ra\n")
        assert main(["config", "validate", str(tmp_path)]) == 0

    def test_show_prints_resolved_json(self, tmp_path, capsys):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        cfg = write(tmp_path / "a.yaml", "inherits: _base\nworkload: ra\n")
        assert main(["config", "show", cfg]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["scale"] == "tiny"
        assert "inherits" not in payload

    def test_shipped_library_validates(self, capsys):
        assert main(["config", "validate", "configs", "configs/smoke",
                     "configs/section8_throttle"]) == 0
