"""The benchmark's workloads: Figure-6 cells and overloaded serve sessions.

A workload is a fixed list of *operations* built from the seed.  One
*pass* runs every operation once, in order, in this process.  Every
pass of one workload and seed gives bit-identical simulated results,
so the simulated metrics come from any pass and each later pass is
checked against the first.

* ``fig6-irregular-*``: an operation is one cell, one application under one
  policy (``disabled`` is the paper's first-touch Baseline) at 125%
  oversubscription, through :func:`repro.analysis.experiments.run_single`
  at paper defaults (ts=8, p=8, tree prefetcher, 2MB LRU/LFU eviction,
  python backend).
* ``serve-overload``: an operation is one :class:`ServeSession` run with
  its own seed derived from the workload seed.  It is counted as one
  operation per tenant arrival.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Callable

import numpy as np

from repro.analysis import paper_data
from repro.analysis.experiments import run_single
from repro.config import MigrationPolicy, ServeConfig, SimulationConfig
from repro.obs.live.slo import SloConfig
from repro.serve.session import ServeSession
from repro.serve.traffic import generate_arrivals
from repro.trace import TraceCache

from metrics import SIM_CYCLES, SIM_EVENTS

OVERSUB = 1.25
BACKEND = "python"
#: Scale of the Figure-6 cells (the fidelity baseline depends on it).
FIG6_SCALE = "small"
IRREGULAR = ("bfs", "nw", "ra", "sssp")
POLICIES = (MigrationPolicy.DISABLED, MigrationPolicy.ADAPTIVE)

#: Serve sessions per pass, each with its own arrival trace.
SERVE_SESSIONS = 3
#: Default mix, arrival rate, scheduler and batching at tiny scale.  At
#: 24 tenants the throttle and the queue engage in every session; the
#: queue holds every tenant, so no arrival is shed (a shed arrival would
#: be a failed operation).
SERVE_CONFIG = ServeConfig(tenants=24, queue_depth=24)
SERVE_SLO = SloConfig(p99_latency_us=300.0, latency_attainment=0.95,
                      max_shed_rate=0.1, min_throughput=100000.0)


@dataclasses.dataclass
class OpResult:
    """One operation's outcome, as the benchmark checks and reports it."""

    label: str
    accesses: int = 0
    #: Every simulated statistic of the operation (the digest input).
    stats: dict = dataclasses.field(default_factory=dict)
    #: Output-check failures; empty when the operation is correct.
    failures: list = dataclasses.field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    #: Per-wave simulated latencies, when captured.
    latencies_us: list | None = None


def _plain(value):
    """JSON encoding of numpy scalars (exact: ints stay ints)."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-encodable: {type(value).__name__}")


def digest(results: list[OpResult]) -> str:
    """SHA-256 over every simulated statistic of a pass."""
    blob = json.dumps([(r.label, r.stats) for r in results],
                      sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def quantile(samples: list[float], q: float) -> float:
    """Exact ``q``-quantile by linear interpolation between order stats."""
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q))


def run_pass(ops, tracer=None, capture=None) -> tuple[list, list]:
    """Run every operation once; returns results and per-op seconds.

    An operation that raises is recorded as failed with its traceback
    on stderr, and the pass goes on.
    """
    results, seconds = [], []
    for i, (label, fn) in enumerate(ops):
        if tracer is not None:
            tracer.run_id = i
        if capture is not None:
            capture.samples = []
        start = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # noqa: BLE001 - reported, pass goes on
            traceback.print_exc(file=sys.stderr)
            res = OpResult(label, failures=[f"{label}: raised {exc!r}"])
        seconds.append(time.perf_counter() - start)
        if res.failures:
            res.failed = res.attempted
        if capture is not None:
            res.latencies_us, capture.samples = capture.samples, None
        results.append(res)
    return results, seconds


class Fig6Workload:
    """Figure-6 cells: each irregular app under Baseline and Adaptive."""

    def __init__(self, replay: bool, seed: int, workdir: pathlib.Path,
                 scale: str = FIG6_SCALE) -> None:
        self.apps = IRREGULAR
        self.replay = replay
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self._traces: dict[str, pathlib.Path] = {}
        self._trace_root: pathlib.Path | None = None

    def prepare(self) -> None:
        """One-time set-up (none for Figure-6 cells)."""

    def setup_rep(self, rep: int) -> dict:
        """Per-repetition set-up: record every trace afresh (replay)."""
        if not self.replay:
            return {}
        root = self.workdir / f"traces-{rep}"
        shutil.rmtree(root, ignore_errors=True)
        cache = TraceCache(root)
        start = time.perf_counter()
        traces = {app: cache.get_or_record(app, self.scale, self.seed)
                  for app in self.apps}
        record_s = time.perf_counter() - start
        if self._trace_root is not None:
            shutil.rmtree(self._trace_root, ignore_errors=True)
        self._trace_root, self._traces = root, traces
        return {"record_s": record_s}

    def close(self) -> None:
        """Delete the recorded traces."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self) -> list[tuple[str, Callable[[], OpResult]]]:
        return [(f"{app}/{pol.value}",
                 lambda app=app, pol=pol: self._cell(app, pol))
                for app in self.apps for pol in POLICIES]

    def _cell(self, app: str, policy: MigrationPolicy) -> OpResult:
        r = run_single(app, policy, OVERSUB, scale=self.scale,
                       seed=self.seed, backend=BACKEND,
                       trace_path=(str(self._traces[app]) if self.replay
                                   else None))
        ev = r.events
        failures = []
        if ev.n_local + ev.n_remote + ev.fault_migrations != ev.n_accesses:
            failures.append(
                f"{app}/{policy.value}: n_local {ev.n_local} + n_remote "
                f"{ev.n_remote} + fault_migrations {ev.fault_migrations}"
                f" != n_accesses {ev.n_accesses}")
        if ev.n_accesses <= 0 or r.total_cycles <= 0:
            failures.append(f"{app}/{policy.value}: empty run")
        stats = {
            "total_cycles": r.total_cycles,
            "events": dataclasses.asdict(ev),
            "timing": dataclasses.asdict(r.timing),
            "unique_thrashed_blocks": r.unique_thrashed_blocks,
            "footprint_bytes": r.footprint_bytes,
            "device_capacity_bytes": r.device_capacity_bytes,
        }
        return OpResult(f"{app}/{policy.value}", ev.n_accesses, stats,
                        failures)

    def sim_metrics(self, results: list[OpResult]) -> dict:
        """Simulated end-to-end metrics of one pass (Adaptive cells)."""
        by_label = {r.label: r for r in results}
        adaptive = [by_label[f"{a}/adaptive"] for a in self.apps]
        cycles = sum(r.stats["total_cycles"] for r in adaptive)
        accesses = sum(r.accesses for r in adaptive)
        latencies = [x for r in adaptive for x in r.latencies_us]
        clock_hz = SimulationConfig().gpu.clock_hz
        return {
            "sim_cycles": cycles,
            "fidelity_err": fidelity_err(
                {a: (by_label[f"{a}/disabled"].stats["total_cycles"],
                     by_label[f"{a}/adaptive"].stats["total_cycles"])
                 for a in self.apps}),
            "sim_wave_latency_us.p50": quantile(latencies, 0.50),
            "sim_wave_latency_us.p99": quantile(latencies, 0.99),
            "sim_wave_latency_samples": len(latencies),
            "sim_accesses_per_sim_s": accesses / (cycles / clock_hz),
        }

    def sim_counts(self, results: list[OpResult]) -> dict:
        """``sim.*`` per-layer counts summed over every cell of a pass."""
        out = {f"sim.{k}": sum(r.stats["events"][f] for r in results)
               for k, f in SIM_EVENTS.items()}
        for f in SIM_CYCLES:
            out[f"sim.cycles.{f}"] = sum(r.stats["timing"][f]
                                         for r in results)
        out["sim.throttle_events"] = 0
        out["sim.queued"] = 0
        return out


def fidelity_err(cycles: dict[str, tuple[float, float]]) -> float:
    """Median over apps of |ln(Adaptive/Baseline / paper Figure-6 bar)|.

    ``cycles`` maps each app to its (Baseline, Adaptive) total cycles.
    """
    paper = paper_data.FIGURE6["adaptive"]
    return statistics.median(
        abs(math.log(adaptive / baseline / paper[app]))
        for app, (baseline, adaptive) in cycles.items())


def balanced_session_seeds(seed: int, sessions: int,
                           config: ServeConfig) -> list[int]:
    """Session seeds whose arrivals draw every mix app equally often.

    Candidates come from one stream seeded by ``seed`` and are kept only
    when their arrival trace holds each app of the mix the same number
    of times.  Arrival times, arrival order and the tenants' inputs
    still vary with the seed; the load's composition does not, which
    keeps a pass's figures comparable across seeds.
    """
    mix = config.workload_mix
    if config.tenants % len(mix):
        raise ValueError("tenants must be a multiple of the mix size")
    share = config.tenants // len(mix)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seeds: list[int] = []
    while len(seeds) < sessions:
        candidate = int(rng.integers(2**31))
        drawn = Counter(a.workload for a in generate_arrivals(
            config.replace(seed=candidate)))
        if all(drawn[app] == share for app in mix):
            seeds.append(candidate)
    return seeds


class ServeWorkload:
    """Overloaded multi-tenant serve sessions with live telemetry."""

    def __init__(self, seed: int, sessions: int = SERVE_SESSIONS,
                 config: ServeConfig = SERVE_CONFIG) -> None:
        self.seed = seed
        self.config = config
        self.session_seeds = balanced_session_seeds(seed, sessions, config)
        self.sim_config = SimulationConfig(backend=BACKEND)
        self._fidelity: float | None = None

    def prepare(self) -> None:
        """Figure-6 fidelity of the mix's apps, run alone at Figure-6 scale.

        The serve path has no paper reference of its own; this pins the
        single-tenant model every tenant runs on.  (At tiny scale a
        single bfs ratio swings too far from seed to seed to compare.)
        """
        self._fidelity = fidelity_err({
            app: tuple(run_single(app, pol, OVERSUB, scale=FIG6_SCALE,
                                  seed=self.seed,
                                  backend=BACKEND).total_cycles
                       for pol in POLICIES)
            for app in self.config.workload_mix})

    def setup_rep(self, rep: int) -> dict:
        return {}

    def close(self) -> None:
        pass

    def ops(self) -> list[tuple[str, Callable[[], OpResult]]]:
        return [(f"session{i}", lambda i=i, s=s: self._session(i, s))
                for i, s in enumerate(self.session_seeds)]

    def _session(self, index: int, seed: int) -> OpResult:
        label = f"session{index}"
        r = ServeSession(self.config.replace(seed=seed),
                         sim_config=self.sim_config, slo=SERVE_SLO).run()
        failures = []
        if r.arrivals != r.admitted + r.shed:
            failures.append(f"{label}: arrivals {r.arrivals} != admitted "
                            f"{r.admitted} + shed {r.shed}")
        unfinished = [t.tenant for t in r.tenants
                      if not t.shed and t.complete_us is None]
        if unfinished or r.completed != r.admitted:
            failures.append(f"{label}: admitted tenants {unfinished} "
                            f"did not complete")
        d = r.driver_totals
        if d["n_local"] + d["n_remote"] + d["fault_migrations"] \
                != d["n_accesses"]:
            failures.append(f"{label}: driver accesses do not add up")
        res = OpResult(label, r.total_accesses, r.as_dict(), failures,
                       attempted=r.arrivals)
        res.failed = r.shed + len(unfinished)
        return res

    def sim_metrics(self, results: list[OpResult]) -> dict:
        clock_mhz = self.sim_config.gpu.clock_mhz
        duration_us = sum(r.stats["duration_us"] for r in results)
        latencies = [x for r in results for x in r.latencies_us]
        return {
            "sim_cycles": duration_us * clock_mhz,
            "fidelity_err": self._fidelity,
            "sim_wave_latency_us.p50": quantile(latencies, 0.50),
            "sim_wave_latency_us.p99": quantile(latencies, 0.99),
            "sim_wave_latency_samples": len(latencies),
            "sim_accesses_per_sim_s": (
                sum(r.accesses for r in results) / (duration_us / 1e6)),
        }

    def sim_counts(self, results: list[OpResult]) -> dict:
        out = {f"sim.{k}": sum(r.stats["driver_totals"][f] for r in results)
               for k, f in SIM_EVENTS.items()}
        # Serve results carry no per-cause cycle breakdown.
        for f in SIM_CYCLES:
            out[f"sim.cycles.{f}"] = 0.0
        out["sim.throttle_events"] = sum(r.stats["throttle_events"]
                                         for r in results)
        out["sim.queued"] = sum(r.stats["queued"] for r in results)
        return out


#: Workload names, in BENCHMARK.json order.
WORKLOADS = ("fig6-irregular-live", "fig6-irregular-replay",
             "serve-overload")


def make_workload(name: str, seed: int, workdir: pathlib.Path):
    """Build one benchmark workload for ``seed``."""
    if name == "fig6-irregular-live":
        return Fig6Workload(False, seed, workdir)
    if name == "fig6-irregular-replay":
        return Fig6Workload(True, seed, workdir)
    if name == "serve-overload":
        return ServeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
