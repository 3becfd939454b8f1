"""Repository benchmark: Figure-6 host throughput and fidelity, and serving.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-irregular-live --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 0

One run, in one process with no worker pool:

1. *Set-up* (``setup_s``): imports, then ``SETUP_REPS`` repetitions of
   the per-run set-up -- trace recording for the replay workload, then
   an untimed warm-up pass that also captures the simulated results,
   including every wave's simulated latency.  ``setup_s`` is the import
   time plus one-time preparation plus the median repetition.
2. *Timed region*: whole passes until ``--seconds`` is used up.  The
   host rate is the pass's simulated accesses over the sum of the
   per-operation median host seconds.
3. With ``--trace 1``, one more pass runs with span tracing around the
   simulator's entry points (``tracing.py``), and the per-layer metrics
   are printed instead of the end-to-end ones.

Every pass is checked: the output checks of each operation, and a
digest of every simulated statistic that must equal the warm-up's.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from metrics import END_TO_END, LAYERS, PER_LAYER  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for recorded traces and span files (git-ignored).
WORKDIR = ROOT / ".bench_build" / "perfbench"

#: Seed used while developing the benchmark, and the held-out seed that
#: later gain claims must also be checked on.
DEV_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_REPS = 3


def _import_repro():
    """Import the simulator from this checkout's ``src`` only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {src}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _check_pass(results, reference) -> list[str]:
    """Failures of one pass: output checks plus drift from the reference."""
    failures = [f for r in results for f in r.failures]
    if reference is not None:
        for r, ref in zip(results, reference):
            if r.stats != ref.stats:
                failures.append(f"{r.label}: simulated results differ "
                                f"from the warm-up pass")
                r.failed = r.attempted
    return failures


class Tally:
    """Operations attempted and failed, and every failure message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, results, failures) -> None:
        self.attempted += sum(r.attempted for r in results)
        self.failed += sum(r.failed for r in results)
        self.failures.extend(failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object to print."""
    import suite
    from tracing import Tracer, WaveLatencyCapture

    import_s = time.perf_counter() - _T0
    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = suite.make_workload(name, seed, WORKDIR / f"{name}-{os.getpid()}")
    tally = Tally()
    try:
        # -- set-up ------------------------------------------------------
        start = time.perf_counter()
        wl.prepare()
        prepare_s = time.perf_counter() - start
        capture = WaveLatencyCapture()
        reference = None
        rep_s, record_s = [], []
        ops = wl.ops()
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            parts = wl.setup_rep(rep)
            with capture.installed():
                results, _ = suite.run_pass(ops, capture=capture)
            rep_s.append(time.perf_counter() - start)
            record_s.append(parts.get("record_s", 0.0))
            tally.add(results, _check_pass(results, reference))
            if reference is None:
                reference = results
        setup_s = import_s + prepare_s + statistics.median(rep_s)
        if any(not r.stats for r in reference):
            sys.exit("perfbench: an operation raised; no metrics:\n"
                     + "\n".join(tally.failures))

        # -- timed region ------------------------------------------------
        op_seconds = [[] for _ in ops]
        pass_walls = []
        region = time.perf_counter()
        while True:
            gc.collect()  # no collector debt from the previous pass
            start = time.perf_counter()
            results, secs = suite.run_pass(ops)
            pass_walls.append(time.perf_counter() - start)
            tally.add(results, _check_pass(results, reference))
            for acc, s in zip(op_seconds, secs):
                acc.append(s)
            elapsed = time.perf_counter() - region
            # Stop once the next pass would end past the budget by more
            # than half a pass.
            if elapsed + statistics.mean(pass_walls) / 2 >= seconds:
                break
        accesses = sum(r.accesses for r in reference)
        host_s = sum(statistics.median(s) for s in op_seconds)
        sim = wl.sim_metrics(reference)
        digest = suite.digest(reference)

        if not trace:
            metrics = {
                "sim_accesses_per_host_s": accesses / host_s,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics.update({k: v for k, v in sim.items()
                            if k in END_TO_END})
            units = {k: v[0] for k, v in END_TO_END.items()}
        else:
            tracer = Tracer()
            with tracer.installed():
                start = time.perf_counter()
                results, _ = suite.run_pass(ops, tracer=tracer)
                traced_wall = time.perf_counter() - start
            tally.add(results, _check_pass(results, reference))
            metrics = layer_metrics(tracer, traced_wall, pass_walls)
            metrics["trace.record_s"] = statistics.median(record_s)
            metrics.update(wl.sim_counts(reference))
            metrics["sim.wave_latency_samples"] = \
                sim["sim_wave_latency_samples"]
            tracer.save(WORKDIR / f"spans-{name}-s{seed}.npz",
                        {"workload": name, "seed": seed,
                         "ops": [label for label, _ in ops]})
            units = {k: v[0] for k, v in PER_LAYER.items()}
    finally:
        wl.close()

    _report(name, seed, digest, sim, metrics, units, tally,
            len(pass_walls))
    return {
        "correct": not tally.failures and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def layer_metrics(tracer, traced_wall: float, pass_walls) -> dict:
    """Per-layer seconds and calls of the traced pass."""
    times = tracer.layer_times()
    out = {}
    attributed = 0.0
    for layer in LAYERS:
        t = times.get(layer, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        # Layers report inclusive time; the driver also reports self.
        out[f"{layer}_s"] = t["total_s"]
        out[f"{layer}_calls"] = t["calls"]
        attributed += t["self_s"]
    driver = times.get("uvm.driver.process_wave", {"self_s": 0.0})
    out["uvm.driver.self_s"] = driver["self_s"]
    out["uvm.driver.waves"] = tracer.driver_waves
    out["uvm.driver.fast_path_share"] = (
        tracer.fast_path_waves / tracer.driver_waves
        if tracer.driver_waves else 0.0)
    out["workloads.waves"] = tracer.waves["workloads.gen"]
    out["workloads.accesses"] = tracer.accesses["workloads.gen"]
    out["trace.replay_waves"] = tracer.waves["trace.replay"]
    out["traced_wall_s"] = traced_wall
    out["unattributed_s"] = traced_wall - attributed
    out["tracing_overhead_pct"] = 100.0 * (
        traced_wall / statistics.median(pass_walls) - 1.0)
    return out


def _report(name, seed, digest, sim, metrics, units, tally, passes):
    """Human-readable lines (before the JSON line)."""
    print(f"# {name} seed={seed} timed_passes={passes} "
          f"sim_digest=sha256:{digest}")
    print(f"#   sim_wave_latency_us samples: "
          f"{sim['sim_wave_latency_samples']}")
    for key, unit in units.items():
        clock = END_TO_END.get(key, (None, ""))[1]
        print(f"#   {key:<34} {metrics[key]:>16.6g} {unit:<8} {clock}")
    for failure in tally.failures:
        print(f"# FAILED {failure}")


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    from suite import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exited with {proc.returncode}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_repro()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
