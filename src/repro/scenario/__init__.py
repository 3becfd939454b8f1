"""Declarative YAML scenario configs (ROADMAP item 4).

A scenario is a small YAML file describing one experiment -- workload,
policy, faults, tenancy, multi-GPU topology -- with ``inherits:``
deep-merge inheritance and ``sweep:`` axis expansion.  The subsystem
splits into:

* :mod:`~repro.scenario.schema` -- the typed key registry + validation;
* :mod:`~repro.scenario.loader` -- YAML loading and ``inherits:``
  resolution (deep merge, cycle detection);
* :mod:`~repro.scenario.compile` -- sweep expansion and mapping onto
  :class:`~repro.analysis.parallel.GridCell` /
  :class:`~repro.config.ServeConfig` / multi-GPU specs;
* :mod:`~repro.scenario.runner` -- batch execution with scenario-aware
  run archiving.

CLI entry points: ``repro run --config``, ``repro sweep --config-dir``,
``repro serve --config``, and ``repro config <validate|show>``.  The
shipped scenario library lives in ``configs/``; the cookbook is
``docs/scenarios.md``.
"""

from .compile import (MultiGpuSpec, Variant, build_cell,
                      build_multigpu_spec, build_serve_config,
                      build_sim_config, build_slo_config, compile_check,
                      expand, overlay)
from .loader import (deep_merge, is_base, load_directory, load_scenario,
                     scenario_files)
from .runner import ScenarioOutcome, VariantOutcome, run_scenarios
from .schema import SCHEMA, Key, ScenarioError, check, validate

__all__ = [
    "SCHEMA", "Key", "ScenarioError", "check", "validate",
    "deep_merge", "is_base", "load_directory", "load_scenario",
    "scenario_files",
    "MultiGpuSpec", "Variant", "build_cell", "build_multigpu_spec",
    "build_serve_config", "build_sim_config", "build_slo_config",
    "compile_check", "expand", "overlay",
    "ScenarioOutcome", "VariantOutcome", "run_scenarios",
]
