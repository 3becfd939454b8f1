"""The one route from a compiled scenario variant to a result and an
archive entry.

Each in-process mode has one executor -- :func:`execute_run` (one
simulation, live or trace replay), :func:`execute_serve` and
:func:`execute_multigpu` -- taking an optional
:class:`~repro.obs.Observability` handle and an optional
:class:`~repro.obs.store.Archiver`, and returning the result with its
archived run id.  The CLI's one-variant commands call them directly and
:func:`run_scenarios` calls them for every serial variant of a batch,
so a sweep's variant gives the same result and archive entry as the
same variant run alone.

:func:`run_scenarios` expands resolved scenarios and dispatches each
variant by mode:

* ``run``/``sweep`` variants compile to :class:`GridCell`\\ s, and the
  cells of *every* scenario in the batch are pooled into ONE
  :func:`~repro.analysis.parallel.run_grid` call (one worker pool,
  retry machinery, checkpoint journal and trace cache), in variant
  declaration order, so a config-driven sweep is bit-identical to the
  flag-driven equivalent.
* ``serve`` and ``multigpu`` variants run serially through their
  executors.  When archiving, each serve variant gets its own
  observability handle, so its event log and metrics land in its slot.

Archived manifests embed the resolved variant under
``config["scenario"]`` and name its scenario in ``manifest.scenario``,
so ``repro diff`` explains two variants by their scenario-key deltas.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..analysis.checkpoint import encode_config
from ..analysis.parallel import GridCell, GridOptions, run_grid
from ..analysis.tables import format_table
from .compile import (Variant, build_cell, build_multigpu_spec,
                      build_serve_config, build_sim_config, build_slo_config,
                      expand)
from .schema import ScenarioError

__all__ = ["run_scenarios", "ScenarioOutcome", "VariantOutcome",
           "execute_run", "execute_serve", "execute_multigpu"]


def _commit(writer, result, obs=None) -> str | None:
    """Commit an open archive slot once its event log is flushed."""
    if writer is None:
        return None
    metrics = None
    if obs is not None:
        obs.close()
        if obs.metrics is not None:
            metrics = obs.metrics.as_dict()
    return writer.commit(result, metrics=metrics)


def execute_run(cfg, workload, oversubscription: float | None, *,
                obs=None, archive=None, scale: str = "-",
                scenario: dict | None = None, name: str | None = None):
    """Simulate ``workload`` (live or a trace replay) under ``cfg``.

    Returns ``(RunResult, run_id)``; ``run_id`` is ``None`` unless an
    ``archive`` was given.  ``scenario`` (the resolved scenario of a
    config-driven run) is embedded in the archived manifest.
    """
    from ..sim.simulator import Simulator
    config = encode_config(cfg)
    writer = archive and archive.open(
        "run", workload.name, cfg.policy.policy.value, scale, cfg.seed,
        oversubscription, config if scenario is None else {"sim": config},
        scenario, name, obs)
    result = Simulator(cfg).run(workload, oversubscription=oversubscription,
                                obs=obs)
    return result, _commit(writer, result, obs)


def execute_serve(serve_cfg, sim_cfg, *, slo=None, obs=None, archive=None,
                  scenario: dict | None = None, name: str | None = None):
    """One multi-tenant serve run; returns ``(ServeResult, run_id)``."""
    from ..serve import ServeSession
    writer = archive and archive.open(
        "serve", "+".join(serve_cfg.workload_mix),
        sim_cfg.policy.policy.value, serve_cfg.scale, serve_cfg.seed, None,
        {"serve": serve_cfg.as_dict(), "sim": encode_config(sim_cfg)},
        scenario, name, obs)
    result = ServeSession(serve_cfg, sim_config=sim_cfg, obs=obs,
                          scenario=name, slo=slo).run()
    return result, _commit(writer, result.as_dict(), obs)


def execute_multigpu(spec, *, archive=None, scenario: dict | None = None,
                     name: str | None = None):
    """One collaborative multi-GPU run (no instrumented path); returns
    ``(MultiGpuResult, run_id)``."""
    from ..multigpu import MultiGpuSimulator
    from ..workloads import make_workload
    writer = archive and archive.open(
        "multigpu", spec.workload, spec.config.policy.policy.value,
        spec.scale, spec.config.seed, spec.oversubscription,
        {"sim": encode_config(spec.config),
         "multigpu": {"gpus": spec.gpus, "partition": spec.partition,
                      "throttle": spec.throttle}}, scenario, name)
    result = MultiGpuSimulator(
        spec.config, num_gpus=spec.gpus, throttle=spec.throttle,
        partition=spec.partition).run(
            make_workload(spec.workload, spec.scale),
            oversubscription=spec.oversubscription)
    return result, _commit(writer, dataclasses.asdict(result))


@dataclass(frozen=True)
class VariantOutcome:
    """One executed variant: its label, spec, and raw result."""

    label: str
    #: The resolved post-expansion scenario (what got archived).
    data: dict
    #: ``RunResult`` | ``ServeResult`` | ``MultiGpuResult``.
    result: object
    #: Archived run id, or ``None`` when archiving was off.
    run_id: str | None = None


@dataclass
class ScenarioOutcome:
    """Every variant outcome of one scenario, in expansion order."""

    name: str
    mode: str
    variants: list[VariantOutcome] = field(default_factory=list)

    def render(self) -> str:
        """A compact per-variant comparison table."""
        title = f"== scenario {self.name} ({self.mode}) =="
        if self.mode in ("run", "sweep"):
            rows = [[v.label, f"{v.result.runtime_seconds * 1e3:.2f}",
                     v.result.fault_count, v.result.events.n_remote,
                     v.result.events.thrash_migrations,
                     v.run_id or "-"]
                    for v in self.variants]
            return format_table(
                ["variant", "runtime (ms)", "faults", "remote", "thrash",
                 "run id"], rows, title=title)
        if self.mode == "serve":
            rows = [[v.label, v.result.arrivals, v.result.completed,
                     v.result.shed, f"{v.result.shed_rate:.1%}",
                     f"{v.result.peak_live_oversubscription:.2f}x",
                     "-" if v.result.p99_wave_latency_us is None
                     else f"{v.result.p99_wave_latency_us:.1f}",
                     v.result.slo_violations, v.result.alerts_fired,
                     v.run_id or "-"]
                    for v in self.variants]
            return format_table(
                ["variant", "arrivals", "done", "shed", "shed rate",
                 "peak oversub", "p99 us", "slo viol", "alerts", "run id"],
                rows, title=title)
        rows = [[v.label, v.result.num_gpus, v.result.partition,
                 f"{v.result.makespan_cycles:,.0f}",
                 f"{v.result.load_imbalance:.2f}",
                 v.result.total_thrash, v.run_id or "-"]
                for v in self.variants]
        return format_table(
            ["variant", "gpus", "partition", "makespan (cycles)",
             "imbalance", "thrash", "run id"], rows, title=title)


def run_scenarios(scenarios: list[dict], jobs: int = 1,
                  options: GridOptions | None = None,
                  store=None, slo=None) -> list[ScenarioOutcome]:
    """Execute resolved scenarios; returns outcomes in input order.

    ``options`` configures the pooled grid run (retries, checkpoint,
    trace cache, backend stamping); its ``archive`` store -- or the
    explicit ``store`` argument -- turns on scenario-aware archiving
    for every mode, with the resolved config embedded in each
    manifest.  The grid runner's own per-cell archiving is bypassed so
    cells are not archived twice.  ``slo`` (an
    :class:`~repro.obs.live.slo.SloConfig`) replaces every serve
    variant's ``slo:`` section, as ``--slo-config`` does for one run.
    """
    opts = options or GridOptions()
    if store is None and opts.archive is not None:
        store = opts.archive

    outcomes: list[ScenarioOutcome] = []
    grid_work: list[tuple[ScenarioOutcome, Variant, GridCell]] = []
    serial_work: list[tuple[ScenarioOutcome, Variant]] = []
    for scenario in scenarios:
        mode = scenario.get("mode", "run")
        outcome = ScenarioOutcome(name=scenario.get("name", "scenario"),
                                  mode=mode)
        outcomes.append(outcome)
        for variant in expand(scenario):
            if mode in ("run", "sweep"):
                grid_work.append((outcome, variant,
                                  build_cell(variant.data)))
            else:
                serial_work.append((outcome, variant))

    archive = None
    if store is not None:
        from ..obs.store import Archiver, derive_sweep_id
        cells = [cell for _, _, cell in grid_work]
        archive = Archiver(store, derive_sweep_id(cells) if cells else None)

    if grid_work:
        # Scenario manifests replace the grid runner's plain per-cell
        # archiving (which knows nothing about resolved configs).
        grid_opts = dataclasses.replace(opts, archive=None, sweep_id=None)
        results = run_grid([cell for _, _, cell in grid_work],
                           max_workers=jobs, options=grid_opts)
        for (outcome, variant, cell), result in zip(grid_work, results):
            run_id = None
            if archive is not None:
                run_id = archive.archive_cell(cell, result, variant.data,
                                              outcome.name)
            outcome.variants.append(VariantOutcome(
                label=variant.label, data=variant.data, result=result,
                run_id=run_id))

    for outcome, variant in serial_work:
        data = variant.data
        provenance = dict(archive=archive, scenario=data, name=outcome.name)
        if outcome.mode == "serve":
            obs = None
            if archive is not None:
                from ..obs import Observability
                obs = Observability.create(metrics=True)
            result, run_id = execute_serve(
                build_serve_config(data), build_sim_config(data),
                slo=slo or build_slo_config(data), obs=obs, **provenance)
        elif outcome.mode == "multigpu":
            result, run_id = execute_multigpu(build_multigpu_spec(data),
                                              **provenance)
        else:  # pragma: no cover - validate() rejects unknown modes
            raise ScenarioError(f"unknown mode {outcome.mode!r}")
        outcome.variants.append(VariantOutcome(
            label=variant.label, data=data, result=result, run_id=run_id))
    return outcomes
