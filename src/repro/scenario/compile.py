"""Compile resolved scenarios into runnable experiment specs.

:func:`expand` turns one scenario into its sweep variants (the cross
product of the ``sweep:`` axes, in declaration order with the first
axis outermost -- the same nesting :func:`repro.analysis.sweeps.
oversubscription_sweep` uses, so a config-driven sweep enumerates
cells in exactly the order the flag-driven one does).  The ``build_*``
functions then map a single variant onto the existing execution
surfaces:

* :func:`build_cell` -> :class:`~repro.analysis.parallel.GridCell`
  (modes ``run`` and ``sweep``);
* :func:`build_sim_config` -> :class:`~repro.config.SimulationConfig`
  through :meth:`GridCell.sim_config`, the one builder the CLI flags
  and the grid use too;
* :func:`build_serve_config` -> :class:`~repro.config.ServeConfig`
  (mode ``serve``);
* :func:`build_multigpu_spec` -> :class:`MultiGpuSpec` (mode
  ``multigpu``), including the Section VIII throttle knob.

Each builder passes its constructor the ``field`` of every schema key
the scenario sets (coerced by the key's declared type), so an omitted
key keeps its dataclass default (``backend`` keeps honouring
``REPRO_BACKEND``).  The CLI's knob flags are schema keys too: a flag
invocation is a scenario (:func:`overlay` puts the flags over the
``--config`` scenario) built by these same functions, so a
config-built cell is *equal* to the flag-built one -- the bit-identity
contract the property tests pin.
"""

from __future__ import annotations

import enum
import inspect
import itertools
from dataclasses import dataclass

from ..analysis.parallel import GridCell
from ..config import ServeConfig, SimulationConfig
from ..multigpu.cluster import MultiGpuSimulator
from ..obs.live.slo import SloConfig
from .schema import OWNERS, SCHEMA, ScenarioError, flatten

__all__ = ["expand", "build_cell", "build_serve_config",
           "build_sim_config", "build_multigpu_spec", "build_slo_config",
           "compile_check", "overlay", "MultiGpuSpec", "Variant"]


@dataclass(frozen=True)
class Variant:
    """One point of a scenario's sweep: a fully concrete scenario."""

    #: Scenario name plus the swept coordinates, e.g.
    #: ``fig1[oversubscription=1.25]`` (just the name when unswept).
    label: str
    #: The resolved scenario with this variant's values substituted and
    #: the ``sweep:`` key removed -- exactly what gets archived.
    data: dict
    #: The swept ``{axis: value}`` coordinates (empty when unswept).
    coords: dict


def _set_path(data: dict, path: str, value) -> None:
    """Deep-set ``a.b.c`` into nested dicts, creating sections."""
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _deep_copy(data):
    if isinstance(data, dict):
        return {k: _deep_copy(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_deep_copy(v) for v in data]
    return data


def expand(scenario: dict) -> list[Variant]:
    """All sweep variants of a resolved scenario, in deterministic order.

    Axes expand in declaration order with the first axis outermost;
    without a ``sweep:`` key the scenario is its own single variant.
    """
    name = scenario.get("name", "scenario")
    axes = scenario.get("sweep") or {}
    base = {k: _deep_copy(v) for k, v in scenario.items() if k != "sweep"}
    if not axes:
        return [Variant(label=name, data=base, coords={})]
    paths = list(axes)
    variants = []
    for values in itertools.product(*(axes[p] for p in paths)):
        coords = dict(zip(paths, values))
        data = _deep_copy(base)
        for path, value in coords.items():
            _set_path(data, path, value)
        coord_str = ",".join(f"{p}={v}" for p, v in coords.items())
        variants.append(Variant(label=f"{name}[{coord_str}]", data=data,
                                coords=coords))
    return variants


def overlay(scenario: dict, flat: dict) -> dict:
    """``scenario`` with every ``{path: value}`` of ``flat`` set.

    A set path overrides the scenario's value and leaves its ``sweep:``
    axes (a swept path pinned this way is no longer swept), so the
    result describes exactly what runs.  The input is not modified.
    """
    data = _deep_copy(scenario)
    axes = data.get("sweep")
    for path, value in flat.items():
        if "." in path:
            data.pop(path, None)  # the path's top-level dotted spelling
        _set_path(data, path, value)
        if isinstance(axes, dict):
            axes.pop(path, None)
    if axes == {}:
        del data["sweep"]
    return data


def _fields(flat: dict, owner) -> dict:
    """Coerced ``{field: value}`` of the keys the scenario sets that
    ``owner`` takes: its sections' keys plus the top-level keys it has a
    field for.  An explicit ``null`` counts as unset, so every omitted
    key keeps the owner's default."""
    params = inspect.signature(owner).parameters
    kwargs = {}
    for path, key in SCHEMA.items():
        value = flat.get(path)
        if value is None or key.field not in params:
            continue
        if key.section and OWNERS[key.section] is not owner:
            continue
        value = key.coerce(value)
        default = params[key.field].default
        if isinstance(default, enum.Enum):
            value = type(default)(value)
        kwargs[key.field] = value
    return kwargs


def build_cell(variant: dict) -> GridCell:
    """Map one concrete scenario onto a :class:`GridCell`.

    Omitted keys keep the :class:`GridCell` defaults, so a scenario
    builds a cell *equal* (and therefore checkpoint-identical) to one
    built from CLI flags that omitted the matching flags.
    """
    flat = flatten(variant)
    if not flat.get("workload"):
        raise ScenarioError(
            f"{variant.get('name', '<scenario>')}: workload is unset after "
            "expansion; set it or add it as a sweep axis")
    return GridCell(**_fields(flat, GridCell))


def build_slo_config(variant: dict):
    """Map a variant's ``slo.*`` keys onto an
    :class:`~repro.obs.live.slo.SloConfig`, or ``None`` when the
    scenario states no objective (tuning keys alone do not enable the
    engine).
    """
    config = SloConfig(**_fields(flatten(variant), SloConfig))
    if not config.enabled:
        return None
    config.validate()
    return config


def build_serve_config(variant: dict) -> ServeConfig:
    """Map one concrete scenario onto a :class:`ServeConfig`.

    Only keys the scenario sets are passed, so omitted ones take the
    :class:`ServeConfig` dataclass defaults (note serving defaults to
    ``scale: tiny``; the top-level ``scale``/``seed`` keys apply here
    too).
    """
    return ServeConfig(**_fields(flatten(variant), ServeConfig)).validate()


def build_sim_config(variant: dict) -> SimulationConfig:
    """Construct the :class:`SimulationConfig` a variant describes.

    Goes through :meth:`GridCell.sim_config`, the same builder the grid
    and the CLI flags use, so the config -- and any simulation run from
    it -- is bit-identical to the equivalent flag-driven invocation.
    ``workload`` may be unset (``mode: serve``).
    """
    kwargs = {"workload": None, **_fields(flatten(variant), GridCell)}
    return GridCell(**kwargs).sim_config().validate()


@dataclass(frozen=True)
class MultiGpuSpec:
    """Everything a ``mode: multigpu`` variant needs to execute."""

    config: SimulationConfig
    workload: str
    scale: str
    oversubscription: float
    gpus: int
    partition: str
    #: Fraction of each device's memory the driver may use (Section
    #: VIII throttle knob).
    throttle: float


def build_multigpu_spec(variant: dict) -> MultiGpuSpec:
    """Map one concrete scenario onto a :class:`MultiGpuSpec`.

    The ``multigpu.*`` keys go through :class:`MultiGpuSimulator`
    itself, so the spec has the simulator's defaults and passes its
    checks.
    """
    cell = build_cell(variant)
    config = cell.sim_config().validate()
    cluster = MultiGpuSimulator(
        config, **_fields(flatten(variant), MultiGpuSimulator))
    return MultiGpuSpec(
        config=config, workload=cell.workload, scale=cell.scale,
        oversubscription=cell.oversubscription, gpus=cluster.num_gpus,
        partition=cluster.partition, throttle=cluster.throttle)


def compile_check(scenario: dict) -> list[str]:
    """Compile every variant to its mode-specific spec without running.

    The dry-run behind ``repro config validate``: catches problems
    schema validation alone cannot see (a workload only unset after
    expansion, cross-field config invariants like watermark ordering or
    fault-rate bounds, the multi-GPU cluster's own checks).  Returns the variant labels in expansion order;
    raises :class:`ScenarioError` on the first variant that fails.
    """
    mode = scenario.get("mode", "run")
    labels = []
    for variant in expand(scenario):
        try:
            if mode in ("run", "sweep"):
                build_cell(variant.data)
                build_sim_config(variant.data)
            elif mode == "serve":
                build_serve_config(variant.data)
                build_sim_config(variant.data)
                build_slo_config(variant.data)
            else:
                build_multigpu_spec(variant.data)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(
                f"{variant.label}: {exc}") from exc
        labels.append(variant.label)
    return labels
