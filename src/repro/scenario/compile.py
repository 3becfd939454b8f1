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

Each builder maps schema paths through one ``path -> (field,
coercion)`` table and passes only the keys a scenario sets, so an
omitted key keeps its dataclass default -- the same default the
matching CLI flag has (``backend`` keeps honouring ``REPRO_BACKEND``).
A config-built cell is therefore *equal* to the flag-built one, the
bit-identity contract the property tests pin.  The same tables stamp
the schema's documented defaults.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from ..analysis.parallel import GridCell
from ..config import MigrationPolicy, ServeConfig, SimulationConfig
from ..obs.live.slo import SloConfig
from .schema import SCHEMA, ScenarioError, flatten

__all__ = ["expand", "build_cell", "build_serve_config",
           "build_sim_config", "build_multigpu_spec", "build_slo_config",
           "compile_check", "MultiGpuSpec", "Variant"]


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


#: Run-surface schema path -> (GridCell field, coercion).  ``workload``
#: is required and handled by :func:`build_cell` itself.
_CELL_FIELDS = {
    "scale": ("scale", str),
    "oversubscription": ("oversubscription", float),
    "seed": ("seed", int),
    "backend": ("backend", str),
    "policy.variant": ("policy", MigrationPolicy),
    "policy.static_threshold": ("ts", int),
    "policy.migration_penalty": ("p", int),
    "policy.threshold_variant": ("threshold_variant", str),
    "policy.historic_counters": ("historic_counters", bool),
    "memory.eviction": ("evict", str),
    "memory.prefetcher": ("prefetcher", str),
    "memory.prefetch_degree": ("prefetch_degree", int),
    "faults.transfer_rate": ("transfer_fault_rate", float),
    "faults.migration_rate": ("migration_fault_rate", float),
    "faults.max_retries": ("fault_retries", int),
    "faults.burst_on": ("fault_burst_on", float),
    "faults.burst_off": ("fault_burst_off", float),
    "faults.burst_multiplier": ("fault_burst_mult", float),
}

#: ``serve.*`` schema path -> (ServeConfig field, coercion).
_SERVE_FIELDS = {
    "serve.arrival_rate": ("arrival_rate", float),
    "serve.tenants": ("tenants", int),
    "serve.duration_ms": ("duration_ms", float),
    "serve.process": ("process", str),
    "serve.burst_factor": ("burst_factor", float),
    "serve.burst_len_ms": ("burst_len_ms", float),
    "serve.calm_len_ms": ("calm_len_ms", float),
    "serve.workload_mix": ("workload_mix", tuple),
    "serve.capacity_mb": ("capacity_mb", int),
    "serve.admit_watermark": ("admit_watermark", float),
    "serve.shed_watermark": ("shed_watermark", float),
    "serve.throttle_watermark": ("throttle_watermark", float),
    "serve.queue_depth": ("queue_depth", int),
    "serve.quantum": ("quantum", int),
    "serve.throttle_rounds": ("throttle_rounds", int),
    "serve.live_admission": ("live_admission", bool),
    "serve.live_thrash_threshold": ("live_thrash_threshold", float),
    "serve.window_ms": ("window_ms", float),
    "serve.scheduler": ("scheduler", str),
    "serve.weights": ("weights", lambda v: tuple(float(w) for w in v)),
    "serve.throttle_decay": ("throttle_decay", float),
}

#: ``slo.*`` schema path -> (SloConfig field, coercion).
_SLO_FIELDS = {
    "slo.p99_latency_us": ("p99_latency_us", float),
    "slo.latency_attainment": ("latency_attainment", float),
    "slo.max_shed_rate": ("max_shed_rate", float),
    "slo.min_throughput": ("min_throughput", float),
    "slo.fast_windows": ("fast_windows", int),
    "slo.slow_windows": ("slow_windows", int),
    "slo.burn_threshold": ("burn_threshold", float),
}

#: ``multigpu.*`` schema path -> (MultiGpuSpec field, coercion).
_MULTIGPU_FIELDS = {
    "multigpu.gpus": ("gpus", int),
    "multigpu.partition": ("partition", str),
    "multigpu.throttle": ("throttle", float),
}


def _set_fields(flat: dict, table: dict) -> dict:
    """Coerced ``{field: value}`` for the keys of ``table`` the scenario
    sets (an explicit ``null`` counts as unset), so every omitted key
    keeps its dataclass default."""
    return {name: coerce(flat[path])
            for path, (name, coerce) in table.items()
            if flat.get(path) is not None}


def build_cell(variant: dict) -> GridCell:
    """Map one concrete scenario onto a :class:`GridCell`.

    Omitted keys keep the :class:`GridCell` defaults, so a scenario
    builds a cell *equal* (and therefore checkpoint-identical) to one
    built from CLI flags that omitted the matching flags.
    """
    flat = flatten(variant)
    workload = flat.get("workload")
    if not workload:
        raise ScenarioError(
            f"{variant.get('name', '<scenario>')}: workload is unset after "
            "expansion; set it or add it as a sweep axis")
    return GridCell(workload, **_set_fields(flat, _CELL_FIELDS))


def build_slo_config(variant: dict):
    """Map a variant's ``slo.*`` keys onto an
    :class:`~repro.obs.live.slo.SloConfig`, or ``None`` when the
    scenario states no objective (tuning keys alone do not enable the
    engine).
    """
    config = SloConfig(**_set_fields(flatten(variant), _SLO_FIELDS))
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
    flat = flatten(variant)
    kwargs = _set_fields(flat, _SERVE_FIELDS)
    if flat.get("scale") is not None:
        kwargs["scale"] = flat["scale"]
    if flat.get("seed") is not None:
        kwargs["seed"] = int(flat["seed"])
    return ServeConfig(**kwargs).validate()


def build_sim_config(variant: dict) -> SimulationConfig:
    """Construct the :class:`SimulationConfig` a variant describes.

    Goes through :meth:`GridCell.sim_config`, the same builder the grid
    and the CLI flags use, so the config -- and any simulation run from
    it -- is bit-identical to the equivalent flag-driven invocation.
    ``workload`` may be unset (``mode: serve``).
    """
    flat = flatten(variant)
    cell = GridCell(flat.get("workload"), **_set_fields(flat, _CELL_FIELDS))
    return cell.sim_config().validate()


@dataclass(frozen=True)
class MultiGpuSpec:
    """Everything a ``mode: multigpu`` variant needs to execute."""

    config: SimulationConfig
    workload: str
    scale: str
    oversubscription: float
    gpus: int = 2
    partition: str = "chunk"
    #: Fraction of each device's memory the driver may use (Section
    #: VIII throttle knob).
    throttle: float = 1.0


def build_multigpu_spec(variant: dict) -> MultiGpuSpec:
    """Map one concrete scenario onto a :class:`MultiGpuSpec`."""
    cell = build_cell(variant)
    return MultiGpuSpec(
        config=cell.sim_config().validate(), workload=cell.workload,
        scale=cell.scale, oversubscription=cell.oversubscription,
        **_set_fields(flatten(variant), _MULTIGPU_FIELDS))


def _document_defaults() -> None:
    """Stamp each compiled key's schema default from its dataclass field.

    The schema documents the value an omitted key takes; reading it off
    the field the key lands on keeps the two from drifting.  ``backend``
    defaults to the environment and keeps its literal description.
    """
    for table, owner in ((_CELL_FIELDS, GridCell),
                         (_SERVE_FIELDS, ServeConfig),
                         (_SLO_FIELDS, SloConfig),
                         (_MULTIGPU_FIELDS, MultiGpuSpec)):
        for path, (name, _) in table.items():
            if path != "backend":
                default = getattr(owner, name)
                SCHEMA[path] = dataclasses.replace(
                    SCHEMA[path], default=getattr(default, "value", default))


_document_defaults()


def compile_check(scenario: dict) -> list[str]:
    """Compile every variant to its mode-specific spec without running.

    The dry-run behind ``repro config validate``: catches problems
    schema validation alone cannot see (a workload only unset after
    expansion, cross-field config invariants like watermark ordering or
    fault-rate bounds).  Returns the variant labels in expansion order;
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
                spec = build_multigpu_spec(variant.data)
                if not 0.0 < spec.throttle <= 1.0:
                    raise ValueError(
                        f"multigpu.throttle must be in (0, 1], got "
                        f"{spec.throttle}")
                if spec.gpus < 1:
                    raise ValueError("multigpu.gpus must be >= 1")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(
                f"{variant.label}: {exc}") from exc
        labels.append(variant.label)
    return labels
