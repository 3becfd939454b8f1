"""Metric names, units and directions of the benchmark.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

from tracing import LAYERS

#: ``WaveOutcome`` fields reported as ``sim.<name>`` per-layer counts.
SIM_EVENTS = {
    "fault_migrations": "fault_migrations",
    "mapping_faults": "mapping_faults",
    "prefetched_blocks": "prefetched_blocks",
    "evicted_blocks": "evicted_blocks",
    "writeback_blocks": "writeback_blocks",
    "thrash_migrations": "thrash_migrations",
    "remote_accesses": "n_remote",
}
#: ``WaveTiming`` fields reported as ``sim.cycles.<name>``.
SIM_CYCLES = ("compute", "local", "remote", "fault_handling", "migration",
              "writeback")

#: End-to-end metric -> (unit, clock, better).  Printed with --trace 0.
END_TO_END = {
    "sim_accesses_per_host_s": ("1/s", "simulated accesses per host "
                                "wall second", "higher"),
    "setup_s": ("s", "host wall", "lower"),
    "peak_rss_mb": ("MB", "host memory", "lower"),
    "sim_cycles": ("cycles", "simulated GPU clock", "lower"),
    "fidelity_err": ("ln_ratio", "simulated, vs paper Figure 6", "lower"),
    "sim_wave_latency_us.p50": ("sim_us", "simulated clock", "lower"),
    "sim_wave_latency_us.p99": ("sim_us", "simulated clock", "lower"),
    "sim_accesses_per_sim_s": ("1/sim_s", "simulated accesses per "
                               "simulated second", "higher"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    """Per-layer metric -> (unit, better), in report order."""
    spec = {}
    for layer in LAYERS:
        spec[f"{layer}_s"] = ("s", "lower")
        spec[f"{layer}_calls"] = ("count", "lower")
    spec.update({
        "uvm.driver.self_s": ("s", "lower"),
        "uvm.driver.waves": ("count", "lower"),
        "uvm.driver.fast_path_share": ("ratio", "higher"),
        "workloads.waves": ("count", "lower"),
        "workloads.accesses": ("count", "lower"),
        "trace.replay_waves": ("count", "lower"),
        "trace.record_s": ("s", "lower"),
    })
    for k in SIM_EVENTS:
        spec[f"sim.{k}"] = ("count", "lower")
    for k in SIM_CYCLES:
        spec[f"sim.cycles.{k}"] = ("cycles", "lower")
    spec.update({
        "sim.throttle_events": ("count", "lower"),
        "sim.queued": ("count", "lower"),
        "sim.wave_latency_samples": ("count", "higher"),
        "traced_wall_s": ("s", "lower"),
        "unattributed_s": ("s", "lower"),
        "tracing_overhead_pct": ("%", "lower"),
    })
    return spec


#: Per-layer metric -> (unit, better).  Printed with --trace 1.
PER_LAYER = _per_layer()
