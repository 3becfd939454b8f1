"""The scenario schema: every YAML key, typed and validated.

A *scenario* is a declarative experiment description: one YAML mapping
whose keys cover every knob the simulator exposes -- workload, scale,
policy, memory management, fault injection, kernel backend, tenancy
(``serve:``) and multi-GPU topology (``multigpu:``) -- plus the two
structural keys ``inherits:`` (resolved by :mod:`repro.scenario.loader`)
and ``sweep:`` (expanded by :mod:`repro.scenario.compile`).

The schema is a flat registry of :class:`Key` descriptors keyed by
dotted path (``policy.static_threshold``).  Everything downstream is
derived from this one table:

* :func:`validate` walks a resolved scenario and reports *every*
  problem at once (unknown keys with suggestions, type mismatches,
  out-of-choice values, unsweepable axes) with field-qualified paths;
* ``tools/check_docs.py`` validates the fenced YAML examples in the
  documentation against it, and checks that the key-reference table in
  ``docs/scenarios.md`` covers every path listed here;
* each key names the config field it sets (``field``; the
  constructor that takes it is its section's entry in :data:`OWNERS`)
  and, where the CLI has one, its flag spelling (``flag``): the
  compiler maps keys onto configs and ``repro.cli`` generates its knob
  flags from this table alone;
* defaults are documentation of the *effective* value an omitted key
  takes, read off the field's own default when the table is built, so
  the table cannot drift from the config.  The compiler never
  materializes defaults, so an omitted key really does inherit the
  config default, including ``REPRO_BACKEND``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from ..analysis.parallel import EVICT_GRANULARITIES, GridCell
from ..config import (KNOWN_ARRIVAL_PROCESSES, KNOWN_BACKENDS,
                      KNOWN_SCHEDULERS, KNOWN_THRESHOLD_VARIANTS,
                      MigrationPolicy, PrefetcherKind, ServeConfig)
from ..multigpu.cluster import KNOWN_PARTITIONS, MultiGpuSimulator
from ..obs.live.slo import SloConfig
from ..workloads import SCALES, workload_names

#: Execution modes a scenario can declare.
KNOWN_MODES: tuple[str, ...] = ("run", "sweep", "serve", "multigpu")

#: Eviction granularities by CLI-style name.
KNOWN_EVICT: tuple[str, ...] = tuple(EVICT_GRANULARITIES)

#: Prefetcher kinds by value.
KNOWN_PREFETCHERS: tuple[str, ...] = tuple(k.value for k in PrefetcherKind)

#: Migration policies by value.
KNOWN_POLICIES: tuple[str, ...] = tuple(k.value for k in MigrationPolicy)

#: What each section's keys configure (``""`` = the top level): a key's
#: ``field`` names an argument of its section's constructor.  Top-level
#: keys also set any other constructor that has their field (``scale``
#: and ``seed`` set :class:`~repro.config.ServeConfig` too).
OWNERS: dict[str, type] = {
    "": GridCell, "policy": GridCell, "memory": GridCell, "faults": GridCell,
    "serve": ServeConfig, "slo": SloConfig, "multigpu": MultiGpuSimulator}


class ScenarioError(ValueError):
    """A scenario failed to load, resolve, or validate.

    The message always names the offending file (or doc block) and
    lists every problem found, one per line.
    """


@dataclass(frozen=True)
class Key:
    """One schema entry: a dotted path plus its contract."""

    path: str
    #: Accepted python type(s) of a value (int also satisfies float).
    type: tuple
    description: str
    #: Closed vocabulary, or ``None`` for open values.
    choices: tuple | None = None
    #: Whether ``sweep:`` may use this path as an axis.
    sweepable: bool = True
    #: Effective value when omitted (documentation; never materialized).
    default: object = None
    #: The constructor argument the key sets (see :data:`OWNERS`).
    field: str = ""
    #: The CLI flag setting the key, e.g. ``--ts`` (``None``: no flag).
    flag: str | None = None
    #: The flag's ``--help`` metavar (``None``: argparse's own).
    metavar: str | None = None

    @property
    def section(self) -> str:
        return self.path.rpartition(".")[0]

    def coerce(self, value):
        """A validated ``value`` as its field holds it: numbers where
        float is declared become floats, lists become tuples (numeric
        items as floats)."""
        if list in self.type:
            return tuple(float(v) if isinstance(v, (int, float)) else v
                         for v in value)
        if float in self.type:
            return float(value)
        return value


def _k(path, type_, description, choices=None, sweepable=True,
       default=None, field=None, flag=None, metavar=None) -> Key:
    type_ = type_ if isinstance(type_, tuple) else (type_,)
    section, _, leaf = path.rpartition(".")
    field = field or leaf
    if default is None:
        param = inspect.signature(OWNERS[section]).parameters.get(field)
        if param is not None and param.default is not param.empty:
            default = getattr(param.default, "value", param.default)
    return Key(path, type_, description, choices, sweepable, default,
               field, flag, metavar)


#: The full schema, one entry per legal dotted path.
SCHEMA: dict[str, Key] = {k.path: k for k in (
    # -- structural ------------------------------------------------------
    _k("name", str, "scenario name (defaults to the file stem)",
       sweepable=False, default="<file stem>"),
    _k("description", str, "free-form note shown by `repro config`",
       sweepable=False, default=""),
    _k("inherits", (str, list), "base config(s) to deep-merge under this "
       "file (resolved relative to the file, then the config root)",
       sweepable=False),
    _k("mode", str, "what running the scenario means",
       choices=KNOWN_MODES, sweepable=False, default="run"),
    _k("sweep", dict, "sweep axes: {dotted.key: [values, ...]}; expands "
       "to the cross product in declaration order (first axis outermost)",
       sweepable=False),
    # -- the single-run surface -----------------------------------------
    _k("workload", str, "workload name (see `repro list`)",
       choices=workload_names(extended=True)),
    _k("scale", str, "workload scale preset", choices=tuple(SCALES),
       flag="--scale"),
    _k("oversubscription", (int, float), "working set as a fraction of "
       "device capacity (1.25 = 125% oversubscription)", flag="--oversub"),
    _k("seed", int, "root RNG seed", flag="--seed"),
    _k("backend", str, "hot-loop kernel backend ('numba' falls back to "
       "python, with a warning, when numba is not installed)",
       choices=KNOWN_BACKENDS, default="$REPRO_BACKEND or python",
       flag="--backend"),
    # -- policy ----------------------------------------------------------
    _k("policy.variant", str, "migration policy scheme",
       choices=KNOWN_POLICIES, field="policy", flag="--policy"),
    _k("policy.static_threshold", int, "static access-counter threshold "
       "ts (Table I)", field="ts", flag="--ts"),
    _k("policy.migration_penalty", int, "multiplicative migration "
       "penalty p (Equation 1)", field="p", flag="--penalty",
       metavar="PENALTY"),
    _k("policy.threshold_variant", str, "Equation-1 growth function",
       choices=KNOWN_THRESHOLD_VARIANTS),
    _k("policy.historic_counters", bool, "judge the adaptive threshold "
       "against historic counters (False = Volta ablation)"),
    # -- memory management ----------------------------------------------
    _k("memory.eviction", str, "eviction granularity",
       choices=KNOWN_EVICT, field="evict", flag="--evict"),
    _k("memory.prefetcher", str, "hardware prefetcher strategy",
       choices=KNOWN_PREFETCHERS, flag="--prefetcher"),
    _k("memory.prefetch_degree", int, "blocks pulled per fault by the "
       "sequential/random prefetchers", flag="--prefetch-degree"),
    # -- fault injection -------------------------------------------------
    _k("faults.transfer_rate", (int, float), "per-migration PCIe "
       "transfer-fault probability", field="transfer_fault_rate",
       flag="--fault-rate", metavar="FAULT_RATE"),
    _k("faults.migration_rate", (int, float), "per-migration device "
       "allocation-fault probability", field="migration_fault_rate",
       flag="--migration-fault-rate"),
    _k("faults.max_retries", int, "retries before degrading a faulted "
       "migration to remote access", field="fault_retries",
       flag="--fault-retries"),
    _k("faults.burst_on", (int, float), "calm->storm transition "
       "probability of the correlated fault chain (0 disables)",
       field="fault_burst_on", flag="--fault-burst-on", metavar="PROB"),
    _k("faults.burst_off", (int, float), "storm->calm transition "
       "probability", field="fault_burst_off", flag="--fault-burst-off",
       metavar="PROB"),
    _k("faults.burst_multiplier", (int, float), "fault-rate multiplier "
       "while a storm is active", field="fault_burst_mult",
       flag="--fault-burst-mult", metavar="X"),
    # -- multi-tenant serving (mode: serve) ------------------------------
    _k("serve.arrival_rate", (int, float), "tenant arrivals per second "
       "of simulated time", flag="--arrival-rate", metavar="PER_S"),
    _k("serve.tenants", int, "tenant arrivals to generate",
       flag="--tenants"),
    _k("serve.duration_ms", (int, float), "arrival window in simulated "
       "milliseconds (omit: cut by tenants alone)", flag="--duration",
       metavar="MS"),
    _k("serve.process", str, "arrival process",
       choices=KNOWN_ARRIVAL_PROCESSES, flag="--process"),
    _k("serve.burst_factor", (int, float), "arrival-rate multiplier "
       "inside a burst (bursty process)", flag="--burst-factor"),
    _k("serve.burst_len_ms", (int, float), "mean burst sojourn, "
       "simulated ms", flag="--burst-len", metavar="MS"),
    _k("serve.calm_len_ms", (int, float), "mean calm sojourn, "
       "simulated ms", flag="--calm-len", metavar="MS"),
    _k("serve.workload_mix", list, "workloads tenants are drawn from "
       "(flag: comma-separated)", sweepable=False, flag="--mix"),
    _k("serve.capacity_mb", int, "shared device capacity in MB",
       flag="--capacity-mb"),
    _k("serve.admit_watermark", (int, float), "oversubscription up to "
       "which arrivals are admitted immediately", flag="--admit-watermark"),
    _k("serve.shed_watermark", (int, float), "oversubscription past "
       "which arrivals are shed", flag="--shed-watermark"),
    _k("serve.throttle_watermark", (int, float), "oversubscription at "
       "which the heaviest-thrashing tenant is throttled",
       flag="--throttle-watermark"),
    _k("serve.queue_depth", int, "bounded admission queue depth",
       flag="--queue-depth"),
    _k("serve.quantum", int, "waves per runnable tenant per scheduler "
       "round", flag="--quantum"),
    _k("serve.throttle_rounds", int, "rounds a throttled tenant sits "
       "out", flag="--throttle-rounds"),
    _k("serve.live_admission", bool, "drive the throttle from live "
       "windowed interference telemetry instead of the static "
       "watermark alone", flag="--live-admission"),
    _k("serve.live_thrash_threshold", (int, float), "EWMA thrash "
       "migrations per wave at which live admission throttles",
       flag="--live-thrash-threshold", metavar="RATE"),
    _k("serve.window_ms", (int, float), "live-telemetry tumbling-window "
       "width, simulated ms", flag="--window-ms"),
    _k("serve.scheduler", str, "wave scheduler interleaving live "
       "tenants", choices=KNOWN_SCHEDULERS, flag="--scheduler"),
    _k("serve.weights", list, "per-tenant fair-share weights under drr "
       "(tenant i gets weights[i mod len]; empty = equal shares; flag: "
       "comma-separated)", flag="--weights", metavar="W1,W2,..."),
    _k("serve.throttle_decay", (int, float), "drr weight multiplier "
       "while a tenant is throttled (1.0 = throttle ignored)",
       flag="--throttle-decay", metavar="FACTOR"),
    # -- serving SLOs (mode: serve; enables the SLO engine) --------------
    _k("slo.p99_latency_us", (int, float), "per-tenant wave-latency "
       "target in simulated us (omit: no latency objective)"),
    _k("slo.latency_attainment", (int, float), "required fraction of "
       "waves under the latency target"),
    _k("slo.max_shed_rate", (int, float), "service-level ceiling on the "
       "fraction of arrivals shed (omit: no shed objective)"),
    _k("slo.min_throughput", (int, float), "per-tenant accesses-per-"
       "second floor (omit: no throughput objective)"),
    _k("slo.fast_windows", int, "closed windows merged into the fast "
       "burn-rate horizon"),
    _k("slo.slow_windows", int, "closed windows merged into the slow "
       "burn-rate horizon"),
    _k("slo.burn_threshold", (int, float), "error-budget burn rate both "
       "horizons must exceed to flag a violation"),
    # -- multi-GPU topology (mode: multigpu) -----------------------------
    _k("multigpu.gpus", int, "devices in the collaborative cluster",
       field="num_gpus"),
    _k("multigpu.partition", str, "wave-stream partition strategy",
       choices=KNOWN_PARTITIONS),
    _k("multigpu.throttle", (int, float), "fraction of each device's "
       "memory the driver may use (Section VIII throttle knob)"),
)}

#: Section names (key prefixes) the schema knows about.
SECTIONS: tuple[str, ...] = tuple(sorted(
    {p.split(".")[0] for p in SCHEMA if "." in p}))


def flatten(data: dict, prefix: str = "") -> dict:
    """``{"policy": {"variant": ...}}`` -> ``{"policy.variant": ...}``.

    Only known section prefixes recurse; other dict values (e.g. the
    ``sweep:`` mapping) stay whole so they validate as their own type.
    """
    flat: dict = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and path in SECTIONS:
            flat.update(flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def _type_ok(value, types: tuple) -> bool:
    # bool is an int subclass; only accept it where bool is declared.
    if isinstance(value, bool):
        return bool in types
    if float in types and isinstance(value, int):
        return True
    return isinstance(value, tuple(t for t in types if t is not bool))


def _type_names(types: tuple) -> str:
    return "/".join(t.__name__ for t in types)


def _suggest(path: str) -> str:
    """Closest schema paths to an unknown one (same leaf, prefix, typo)."""
    leaf = path.rsplit(".", 1)[-1]
    hits = [p for p in SCHEMA
            if p.rsplit(".", 1)[-1] == leaf or p.startswith(path)]
    if not hits:
        import difflib
        hits = difflib.get_close_matches(path, SCHEMA, n=3, cutoff=0.8)
    return f" (did you mean {' or '.join(sorted(hits)[:3])}?)" if hits else ""


def _check_value(path: str, value, errors: list[str]) -> None:
    key = SCHEMA[path]
    if value is None:
        return  # explicit null = "unset", always legal
    if not _type_ok(value, key.type):
        errors.append(
            f"{path}: expected {_type_names(key.type)}, got "
            f"{type(value).__name__} ({value!r})")
        return
    if key.choices is not None and value not in key.choices:
        errors.append(f"{path}: unknown value {value!r}; choose from "
                      f"{', '.join(map(str, key.choices))}")
    if path == "serve.workload_mix":
        known = workload_names(extended=True)
        for item in value:
            if item not in known:
                errors.append(f"{path}: unknown workload {item!r}; "
                              f"available: {', '.join(known)}")
    if path == "serve.weights":
        for item in value:
            if not isinstance(item, (int, float)) or isinstance(item, bool) \
                    or item <= 0:
                errors.append(f"{path}: weights must be positive numbers, "
                              f"got {item!r}")


def _check_sweep(sweep, errors: list[str]) -> None:
    if not isinstance(sweep, dict):
        errors.append(f"sweep: expected a mapping of axis -> value list, "
                      f"got {type(sweep).__name__}")
        return
    for axis, values in sweep.items():
        key = SCHEMA.get(axis)
        if key is None:
            errors.append(f"sweep.{axis}: unknown axis{_suggest(axis)}")
            continue
        if not key.sweepable:
            errors.append(f"sweep.{axis}: this key cannot be swept")
            continue
        if not isinstance(values, list) or not values:
            errors.append(f"sweep.{axis}: expected a non-empty list of "
                          f"values, got {values!r}")
            continue
        for v in values:
            _check_value(axis, v, errors)


def check(data: dict) -> list[str]:
    """Every schema violation in ``data`` (resolved scenario mapping)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"scenario must be a YAML mapping, got "
                f"{type(data).__name__}"]
    for path, value in flatten(data).items():
        if path == "sweep":
            _check_sweep(value, errors)
            continue
        if path == "inherits":
            continue  # consumed by the loader before validation
        if path not in SCHEMA:
            errors.append(f"{path}: unknown key{_suggest(path)}")
            continue
        _check_value(path, value, errors)
    errors.extend(_check_mode(data))
    return errors


def _check_mode(data: dict) -> list[str]:
    """Cross-key requirements per execution mode."""
    errors: list[str] = []
    mode = data.get("mode", "run")
    if mode not in KNOWN_MODES:
        return errors  # already reported as a value error
    axes = data.get("sweep") if isinstance(data.get("sweep"), dict) else {}
    if mode in ("run", "sweep", "multigpu"):
        if "workload" not in data and "workload" not in axes:
            errors.append(f"workload: required for mode {mode!r} (set it "
                          "or sweep it)")
    if mode == "run" and axes:
        errors.append("sweep: mode 'run' is a single simulation; use "
                      "mode: sweep to expand axes")
    return errors


def validate(data: dict, source: str = "<scenario>") -> dict:
    """Validate a resolved scenario; returns it, raises on any problem."""
    errors = check(data)
    if errors:
        raise ScenarioError(
            f"invalid scenario {source}:\n  - " + "\n  - ".join(errors))
    return data


def key_reference() -> list[Key]:
    """Schema entries in documentation order (structural keys first)."""
    return list(SCHEMA.values())
