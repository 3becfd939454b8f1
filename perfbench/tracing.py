"""In-memory span tracing around the simulator's public entry points.

The benchmark never edits the simulator.  For a traced pass it swaps a
timing wrapper in for each layer-boundary callable listed in
:data:`LAYER_TARGETS` (class methods, module functions and generator
methods), runs the pass, and puts the originals back.  Every wrapped
call records one span ``(name, start, end, parent, run)`` in a list
held in memory; :meth:`Tracer.save` writes the list once at the end.

A layer's *self time* is the sum over its spans of the span duration
minus the time covered by the span's direct children.  Spans nest
strictly (they follow the Python call stack), so the children's
coverage is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pathlib
import time
from collections import Counter, defaultdict

import numpy as np

#: Layer name -> ``(module, attribute path)`` of every wrapped callable.
#: Names follow the per-layer metric names (``<name>_s`` / ``_calls``).
LAYER_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "workloads.build": (("repro.workloads.base", "Workload.build"),),
    "uvm.driver.process_wave": (
        ("repro.uvm.driver", "UvmDriver.process_wave"),),
    "core.policy.decision_state": (
        ("repro.core.policy", "FirstTouchPolicy.decision_state"),
        ("repro.core.policy", "StaticAlwaysPolicy.decision_state"),
        ("repro.core.policy", "StaticOversubPolicy.decision_state"),
        ("repro.core.policy", "AdaptivePolicy.decision_state")),
    "accel.group_sorted": (("repro.accel.kernels", "group_sorted"),),
    "uvm.counters": tuple(
        ("repro.uvm.counters", f"AccessCounterFile.{m}")
        for m in ("add_accesses", "add_roundtrip", "add_remote_accesses")),
    "uvm.tree.on_fault": (("repro.uvm.tree", "PrefetchTree.on_fault"),),
    # The driver imports select_victims by name, so the driver module's
    # binding is the one its call sites resolve.
    "uvm.eviction.select_victims": (
        ("repro.uvm.driver", "select_victims"),),
    "gpu.timing.wave_cycles": (
        ("repro.gpu.timing", "TimingModel.wave_cycles"),
        ("repro.gpu.timing", "TimingModel.wave_total_cycles")),
    "serve.scheduler.plan_round": (
        ("repro.serve.scheduler", "RoundRobinScheduler.plan_round"),),
    "serve.admission": tuple(
        ("repro.serve.admission", f"AdmissionController.{m}")
        for m in ("offer", "pop_admittable", "release")),
    "obs.live.telemetry": tuple(
        ("repro.obs.live.telemetry", f"LiveTelemetry.{m}")
        for m in ("on_arrival", "on_admit", "on_complete", "on_wave",
                  "tick", "finish")),
    "uvm.attribution": tuple(
        ("repro.uvm.attribution", f"TenantAttribution.{m}")
        for m in ("on_evict", "on_thrash", "thrash_of")),
}

#: Generator layers: time spent inside ``next()`` of workload kernel
#: streams and their wave streams.  Launches of a replayed trace are
#: charged to ``trace.replay``, every other workload to ``workloads.gen``.
GEN_LAYER = "workloads.gen"
REPLAY_LAYER = "trace.replay"
#: Attribute the kernels() wrapper stamps on each yielded launch.
_LAUNCH_TAG = "_perfbench_layer"

#: Every layer that can appear in a span, in report order.
LAYERS: tuple[str, ...] = (
    "workloads.build", GEN_LAYER, REPLAY_LAYER) + tuple(
        n for n in LAYER_TARGETS if n != "workloads.build")


def _resolve(module: str, path: str):
    """``(owner, attribute name, current value)`` for a dotted path."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(owner, name, value)`` attributes; restore after.

    Values that lived in the owner's own ``__dict__`` are put back;
    inherited ones are deleted so lookup falls through again.
    """
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, name in vars(owner),
                          vars(owner).get(name)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, own, old in reversed(saved):
            if own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class Tracer:
    """Span recorder: wrappers push and pop one shared span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: One ``(name id, start, end, parent index, run id)`` per span,
        #: in the order spans opened; ``parent`` -1 is the root.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = [-1]
        #: Operation id stamped on every span (a cell or a session).
        self.run_id = -1
        #: Waves and accesses yielded per generator layer.
        self.waves: Counter = Counter()
        self.accesses: Counter = Counter()
        self.fast_path_waves = 0
        self.driver_waves = 0

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper recording one ``name`` span around each call."""
        nid = self._nid(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (nid, start, end, parent, self.run_id)

        return traced

    def wrap_process_wave(self, fn):
        """:meth:`wrap` that also counts driver and fast-path waves."""
        inner = self.wrap("uvm.driver.process_wave", fn)

        def process_wave(driver, *args, **kwargs):
            before = driver.stats.fast_path_waves
            waves = driver.stats.waves
            out = inner(driver, *args, **kwargs)
            self.fast_path_waves += driver.stats.fast_path_waves - before
            self.driver_waves += driver.stats.waves - waves
            return out

        return process_wave

    def _traced_iter(self, name: str, it, waves: bool):
        """Re-yield ``it``, recording a ``name`` span around each next()."""
        nid = self._nid(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        while True:
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (nid, start, end, stack[-1], self.run_id)
            if waves:
                self.waves[name] += 1
                self.accesses[name] += int(item.counts.sum())
            yield item

    def wrap_kernels(self, fn, layer: str):
        """Wrap a ``Workload.kernels`` generator method."""
        def kernels(workload, *args, **kwargs):
            for launch in self._traced_iter(
                    layer, fn(workload, *args, **kwargs), waves=False):
                setattr(launch, _LAUNCH_TAG, layer)
                yield launch
        return kernels

    def wrap_waves(self, fn):
        """Wrap ``KernelLaunch.waves`` (layer taken from the launch tag)."""
        def waves(launch, *args, **kwargs):
            layer = getattr(launch, _LAUNCH_TAG, GEN_LAYER)
            yield from self._traced_iter(
                layer, fn(launch, *args, **kwargs), waves=True)
        return waves

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer wrapper in for the duration of the block."""
        from repro.trace.replay import TraceWorkload
        from repro.workloads.base import KernelLaunch, Workload

        replacements = []
        for name, targets in LAYER_TARGETS.items():
            for module, path in targets:
                owner, attr, fn = _resolve(module, path)
                wrapper = (self.wrap_process_wave(fn)
                           if name == "uvm.driver.process_wave"
                           else self.wrap(name, fn))
                replacements.append((owner, attr, wrapper))
        for cls in _subclasses(Workload):
            if "kernels" in vars(cls):
                layer = (REPLAY_LAYER if issubclass(cls, TraceWorkload)
                         else GEN_LAYER)
                replacements.append((cls, "kernels", self.wrap_kernels(
                    vars(cls)["kernels"], layer)))
        replacements.append((KernelLaunch, "waves",
                             self.wrap_waves(KernelLaunch.waves)))
        with patched(replacements):
            yield self

    # -- analysis --------------------------------------------------------

    def layer_times(self) -> dict[str, dict]:
        """Per layer: ``total_s`` (inclusive), ``self_s`` and ``calls``."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
               for name in self.names}
        for sid, span in enumerate(self.spans):
            if span is None:
                raise RuntimeError(f"span {sid} never closed")
            entry = out[self.names[span[0]]]
            duration = span[2] - span[1]
            entry["total_s"] += duration
            entry["self_s"] += duration - child.get(sid, 0.0)
            entry["calls"] += 1
        return out

    def save(self, path: pathlib.Path, meta: dict) -> pathlib.Path:
        """Write every span once, as columns in one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=cols[:, 0].astype(np.int32),
            start=cols[:, 1],
            end=cols[:, 2],
            parent=cols[:, 3].astype(np.int64),
            run=cols[:, 4].astype(np.int32),
            meta=np.array(json.dumps(meta, sort_keys=True)))
        return path


def _subclasses(cls) -> list[type]:
    """Every (transitive) subclass of ``cls`` that is already imported."""
    seen, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class WaveLatencyCapture:
    """Collects every wave's simulated latency (microseconds).

    Wraps both timing-model entry points; the engine charges waves
    through ``wave_cycles`` and the serve loop through
    ``wave_total_cycles``.  Samples go to :attr:`samples` while it is a
    list and are dropped while it is ``None``.
    """

    def __init__(self) -> None:
        self.samples: list[float] | None = None

    @contextlib.contextmanager
    def installed(self):
        from repro.gpu.timing import TimingModel

        wave_cycles = TimingModel.wave_cycles
        wave_total_cycles = TimingModel.wave_total_cycles

        def captured_cycles(model, outcome, compute_cycles=None):
            t = wave_cycles(model, outcome, compute_cycles)
            if self.samples is not None:
                self.samples.append(t.total / model.config.gpu.clock_mhz)
            return t

        def captured_total(model, outcome, compute_cycles=None):
            total = wave_total_cycles(model, outcome, compute_cycles)
            if self.samples is not None:
                self.samples.append(total / model.config.gpu.clock_mhz)
            return total

        with patched([(TimingModel, "wave_cycles", captured_cycles),
                      (TimingModel, "wave_total_cycles", captured_total)]):
            yield self
