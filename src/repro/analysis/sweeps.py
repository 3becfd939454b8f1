"""Parameter sweeps beyond the paper's fixed 125% operating point.

The paper evaluates at 125% oversubscription because contemporary GPUs
could not handle more (Section VI).  These utilities map the whole
curve: where the baseline starts degrading, and where the adaptive
scheme's advantage appears -- the crossover a practitioner cares about
when sizing working sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MigrationPolicy
from ..sim.results import RunResult
from .parallel import GridCell, GridOptions, run_grid
from .tables import format_table

#: Default oversubscription grid: fits-with-headroom up to 150%.
DEFAULT_LEVELS: tuple[float, ...] = (0.8, 1.0, 1.1, 1.25, 1.4, 1.5)

#: Default transient-fault-rate grid for the degradation sweep.
DEFAULT_FAULT_RATES: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.2)


@dataclass
class SweepResult:
    """Runtime of several policies across oversubscription levels."""

    workload: str
    levels: tuple[float, ...]
    #: ``{policy value: [RunResult per level]}``
    runs: dict[str, list[RunResult]]

    def _series(self, policy: str) -> tuple[str, list[RunResult]]:
        """Resolve a policy name, falling back to the first swept one.

        A sweep does not have to include ``"disabled"`` (or whichever
        policy a caller asks about); rather than raising ``KeyError``,
        comparisons fall back to the first policy actually swept and
        report the substitution.
        """
        if policy in self.runs:
            return policy, self.runs[policy]
        fallback = next(iter(self.runs))
        return fallback, self.runs[fallback]

    def normalized(self, policy: str) -> list[float]:
        """Cycles of ``policy`` relative to its own fits-in-memory run."""
        _, series = self._series(policy)
        base = series[0].total_cycles
        return [r.total_cycles / base for r in series]

    def advantage(self, policy: str = "adaptive",
                  baseline: str = "disabled") -> list[float]:
        """Per-level runtime of ``policy`` relative to ``baseline``."""
        _, pol_series = self._series(policy)
        _, base_series = self._series(baseline)
        return [p.total_cycles / b.total_cycles
                for p, b in zip(pol_series, base_series)]

    def crossover(self, threshold: float = 0.9, policy: str = "adaptive",
                  baseline: str = "disabled") -> float | None:
        """First oversubscription level where ``policy`` is a real win.

        Returns the smallest level whose normalized runtime against the
        baseline drops below ``threshold``, or None if it never does.
        """
        for level, ratio in zip(self.levels, self.advantage(policy,
                                                            baseline)):
            if ratio < threshold:
                return level
        return None

    def render(self, baseline: str = "disabled") -> str:
        """Comparison table across levels."""
        headers = ["policy"] + [f"{int(l * 100)}%" for l in self.levels]
        base_name, base = self._series(baseline)
        rows = []
        for pol, series in self.runs.items():
            rows.append([pol] + [f"{r.total_cycles / b.total_cycles:.3f}"
                                 for r, b in zip(series, base)])
        title = (f"== {self.workload}: runtime vs {base_name} across "
                 "oversubscription levels ==")
        if base_name != baseline:
            title += f" (baseline {baseline!r} not swept)"
        return format_table(headers, rows, title=title)


def oversubscription_sweep(workload: str,
                           policies=(MigrationPolicy.DISABLED,
                                     MigrationPolicy.ADAPTIVE),
                           levels: tuple[float, ...] = DEFAULT_LEVELS,
                           scale: str = GridCell.scale,
                           ts: int = GridCell.ts, p: int = GridCell.p,
                           seed: int = GridCell.seed, jobs: int = 1,
                           grid: GridOptions | None = None) -> SweepResult:
    """Run ``workload`` under each policy at each oversubscription level.

    ``jobs`` > 1 fans the (policy x level) grid out across worker
    processes (0 = one per CPU); cells are independent and individually
    seeded, so the results are identical to a serial run.  ``grid``
    configures retry/checkpoint resilience for long sweeps.
    """
    if not levels:
        raise ValueError("need at least one oversubscription level")
    policies = tuple(policies)
    cells = [GridCell(workload, pol, level, scale, ts=ts, p=p, seed=seed)
             for pol in policies for level in levels]
    results = run_grid(cells, max_workers=jobs, options=grid)
    runs: dict[str, list[RunResult]] = {}
    for i, pol in enumerate(policies):
        runs[pol.value] = results[i * len(levels):(i + 1) * len(levels)]
    return SweepResult(workload=workload, levels=tuple(levels), runs=runs)


@dataclass
class FaultSweepResult:
    """Graceful degradation of one workload across transient-fault rates."""

    workload: str
    policy: str
    oversubscription: float
    rates: tuple[float, ...]
    runs: list[RunResult]

    def slowdown(self) -> list[float]:
        """Runtime at each fault rate relative to the fault-free run."""
        base = self.runs[0].total_cycles
        return [r.total_cycles / base for r in self.runs]

    def render(self) -> str:
        """Table of runtime and fault-handling counters per rate."""
        rows = []
        for rate, run, slow in zip(self.rates, self.runs, self.slowdown()):
            ev = run.events
            rows.append([f"{rate:.3f}", f"{slow:.3f}",
                         ev.retried_transfers, ev.degraded_accesses,
                         f"{run.hit_ratio:.3f}"])
        title = (f"== {self.workload} ({self.policy}, "
                 f"{self.oversubscription:.0%} oversubscription): "
                 "degradation vs transient fault rate ==")
        return format_table(
            ["fault rate", "slowdown", "retried", "degraded", "hit ratio"],
            rows, title=title)


def fault_rate_sweep(workload: str,
                     policy: MigrationPolicy = MigrationPolicy.ADAPTIVE,
                     rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
                     oversubscription: float = GridCell.oversubscription,
                     scale: str = GridCell.scale, ts: int = GridCell.ts,
                     p: int = GridCell.p, seed: int = GridCell.seed,
                     fault_retries: int = GridCell.fault_retries,
                     jobs: int = 1,
                     grid: GridOptions | None = None) -> FaultSweepResult:
    """Map graceful degradation across injected transient-fault rates.

    The first rate (conventionally 0.0) anchors the slowdown curve; the
    fault model is documented in :mod:`repro.uvm.faults`.
    """
    if not rates:
        raise ValueError("need at least one fault rate")
    rates = tuple(rates)
    cells = [GridCell(workload, policy, oversubscription, scale, ts=ts,
                      p=p, seed=seed, transfer_fault_rate=rate,
                      fault_retries=fault_retries)
             for rate in rates]
    results = run_grid(cells, max_workers=jobs, options=grid)
    return FaultSweepResult(workload=workload, policy=policy.value,
                            oversubscription=oversubscription,
                            rates=rates, runs=results)
