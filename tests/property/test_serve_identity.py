"""Determinism and scheduling properties of the serving layer.

The serving contract: a serve run is a *pure function* of
``(ServeConfig, SimulationConfig)``.  Repeats are bit-identical, the
kernel backend is undetectable in results, and admission decisions are
a pure function of ``(seed, arrival trace, capacity)``.  Two more
guarantees pin the scheduler:

* **The legacy path is untouched.**  ``scheduler=round_robin`` replays
  the pre-scheduler serving layer byte-for-byte; the golden fixtures
  under ``tests/data/serve_golden/`` were generated from the
  pre-scheduler code and every shared key must still match.
* **DRR is deficit-bounded.**  The deficit round-robin scheduler never
  banks a carried deficit outside ``[0, 1)`` and never starves a
  runnable tenant, for any weight vector and throttle pattern.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.accel as accel
from repro.config import ServeConfig, SimulationConfig
from repro.serve import AdmissionController, ServeSession, generate_arrivals
from repro.serve.scheduler import DeficitRoundRobinScheduler

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "serve_golden"

#: Small but non-trivial: overlapping tenants, queueing, throttling.
BASE = dict(tenants=5, arrival_rate=1500.0, capacity_mb=24,
            queue_depth=2, throttle_watermark=1.1, admit_watermark=1.6,
            shed_watermark=2.0)


def golden_configs():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        yield pytest.param(path, id=path.stem)


def run_dict(seed, backend="python"):
    cfg = ServeConfig(seed=seed, **BASE)
    sim = SimulationConfig(backend=backend)
    return ServeSession(cfg, sim_config=sim).run().as_dict()


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_repeats_are_bit_identical(self, seed):
        a, b = run_dict(seed), run_dict(seed)
        assert a == b
        # Strictly bit-identical through JSON too (float encoding).
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seeds_differ(self):
        assert run_dict(0) != run_dict(3)

    def test_backend_invariant(self, monkeypatch):
        """python and numba backends produce identical serve results."""
        monkeypatch.setattr(accel, "FORCE_INTERPRETED", True)
        py = run_dict(1, backend="python")
        nb = run_dict(1, backend="numba")
        # The backend label itself necessarily differs.
        py.pop("backend"), nb.pop("backend")
        assert py == nb


class TestArrivalTraceProperties:
    @given(seed=st.integers(0, 2**16), tenants=st.integers(1, 24),
           process=st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=60, deadline=None)
    def test_trace_well_formed_and_deterministic(self, seed, tenants,
                                                 process):
        cfg = ServeConfig(seed=seed, tenants=tenants, process=process)
        trace = generate_arrivals(cfg)
        assert trace == generate_arrivals(cfg)
        assert len(trace) == tenants
        times = [a.at_us for a in trace]
        assert times == sorted(times) and times[0] >= 0.0
        assert all(a.workload in cfg.workload_mix for a in trace)

    @given(seed=st.integers(0, 2**16),
           horizon_ms=st.floats(0.5, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_duration_cut_is_a_prefix(self, seed, horizon_ms):
        full = generate_arrivals(ServeConfig(seed=seed, tenants=24))
        cut = generate_arrivals(ServeConfig(seed=seed, tenants=24,
                                            duration_ms=horizon_ms))
        assert list(cut) == [a for a in full
                             if a.at_us <= horizon_ms * 1e3][:len(cut)]
        assert all(a.at_us <= horizon_ms * 1e3 for a in cut)


class TestDecisionPurity:
    @given(seed=st.integers(0, 2**10),
           capacity=st.integers(100, 1000),
           footprints=st.lists(st.integers(10, 800), min_size=1,
                               max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_controller_is_a_pure_function(self, seed, capacity,
                                           footprints):
        """Replaying one offer sequence reproduces every verdict."""
        def replay():
            c = AdmissionController(capacity, 1.5, 2.5, queue_depth=3)
            for i, blocks in enumerate(footprints):
                c.offer(i, blocks, float(i))
                if i % 3 == 2 and c.live_blocks:
                    c.release(c.live_blocks)
                    while c.pop_admittable():
                        pass
            return [dataclasses.astuple(d) for d in c.decisions]

        assert replay() == replay()

    @pytest.mark.parametrize("seed", [0, 4])
    def test_session_decisions_reproduce(self, seed):
        """Full-session admission decisions are seed-deterministic."""
        cfg = ServeConfig(seed=seed, **BASE)
        a = ServeSession(cfg).run()
        b = ServeSession(cfg).run()
        assert a.decisions == b.decisions
        assert [t.as_dict() for t in a.tenants] == \
               [t.as_dict() for t in b.tenants]


# ---------------------------------------------------------------------------
# round_robin == pre-scheduler golden output, byte for byte
# ---------------------------------------------------------------------------

class TestGoldenRoundRobin:
    @pytest.mark.parametrize("path", golden_configs())
    def test_matches_pre_rework_output(self, path):
        """Every key the pre-rework serving layer produced still holds
        the exact same value (new keys are additive)."""
        golden = json.loads(path.read_text())
        kwargs = dict(golden["config"])
        for key in ("workload_mix", "weights"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        got = ServeSession(ServeConfig(**kwargs)).run().as_dict()
        for key, value in golden.items():
            if key == "tenants":
                assert len(value) == len(got["tenants"])
                for want, have in zip(value, got["tenants"]):
                    for tk, tv in want.items():
                        assert have[tk] == tv, (path.stem, want["tenant"], tk)
            elif key == "config":
                for ck, cv in value.items():
                    assert got["config"][ck] == cv, (path.stem, ck)
            else:
                assert got[key] == value, (path.stem, key)

    def test_goldens_cover_distinct_regimes(self):
        fixtures = list(GOLDEN_DIR.glob("*.json"))
        assert len(fixtures) >= 5


# ---------------------------------------------------------------------------
# DRR fairness invariants
# ---------------------------------------------------------------------------

class _StubTenant:
    def __init__(self, tid, throttle_left=0):
        self.id = tid
        self.throttle_left = throttle_left
        self.complete_us = None


class TestDeficitInvariants:
    @given(seed=st.integers(0, 2**16),
           n_tenants=st.integers(1, 12),
           quantum=st.integers(1, 8),
           weights=st.lists(st.floats(0.1, 8.0), max_size=5),
           decay=st.floats(0.05, 1.0),
           rounds=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_deficit_always_in_unit_interval(self, seed, n_tenants,
                                             quantum, weights, decay,
                                             rounds):
        cfg = ServeConfig(scheduler="drr", weights=tuple(weights),
                          throttle_decay=decay, quantum=quantum)
        sched = DeficitRoundRobinScheduler(cfg)
        rng = np.random.default_rng(seed)
        tenants = [_StubTenant(i) for i in range(n_tenants)]
        planned = {t.id: 0 for t in tenants}
        for _ in range(rounds):
            for t in tenants:  # random throttle pattern
                t.throttle_left = int(rng.integers(0, 3))
            for group in sched.plan_round(tenants):
                for tenant, n in group:
                    assert n >= 1
                    planned[tenant.id] += n
            for t in tenants:
                assert 0.0 <= sched.deficit_of(t.id) < 1.0
        # Progress: accrual is strictly positive, so over enough rounds
        # every tenant gets planned at least floor(accrued) waves.
        for t in tenants:
            accrued = sum(
                sched.weight_of(t.id) * quantum for _ in range(rounds))
            assert planned[t.id] >= int(accrued * (decay if decay < 1
                                                   else 1.0)) - rounds

    def test_weighted_share_converges(self):
        """Over many rounds, planned waves split ~ weight share."""
        cfg = ServeConfig(scheduler="drr", weights=(3.0, 1.0), quantum=1)
        sched = DeficitRoundRobinScheduler(cfg)
        tenants = [_StubTenant(0), _StubTenant(1)]
        planned = {0: 0, 1: 0}
        for _ in range(200):
            for group in sched.plan_round(tenants):
                for tenant, n in group:
                    planned[tenant.id] += n
        assert planned[0] == pytest.approx(3 * planned[1], abs=2)

    def test_throttle_decays_instead_of_suspending(self):
        cfg = ServeConfig(scheduler="drr", throttle_decay=0.5, quantum=2)
        sched = DeficitRoundRobinScheduler(cfg)
        throttled = _StubTenant(0, throttle_left=1)
        free = _StubTenant(1)
        planned = {0: 0, 1: 0}
        for _ in range(50):
            for group in sched.plan_round([throttled, free]):
                for tenant, n in group:
                    planned[tenant.id] += n
        assert 0 < planned[0] < planned[1]
        assert planned[0] == pytest.approx(planned[1] / 2, abs=2)
