"""Unit tests for the multi-GPU collaborative simulator."""

import pytest

from repro.config import MigrationPolicy, SimulationConfig
from repro.multigpu import MultiGpuSimulator
from repro.sim.simulator import Simulator
from repro.workloads import make_workload

from tests.conftest import RandomWorkload, StreamWorkload


def config(policy=MigrationPolicy.DISABLED, seed=0):
    return SimulationConfig(seed=seed).with_policy(policy)


class TestConstruction:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            MultiGpuSimulator(config(), num_gpus=0)

    def test_rejects_bad_throttle(self):
        with pytest.raises(ValueError):
            MultiGpuSimulator(config(), num_gpus=2, throttle=0.0)
        with pytest.raises(ValueError):
            MultiGpuSimulator(config(), num_gpus=2, throttle=1.5)

    def test_rejects_configs_the_simulator_rejects(self):
        """A static threshold a 3-bit counter can never reach is refused
        by the cluster exactly as by the single-GPU simulator."""
        bad = SimulationConfig().with_policy(
            MigrationPolicy.ADAPTIVE, counter_bits=3, roundtrip_bits=29,
            static_threshold=16)
        with pytest.raises(ValueError, match="static_threshold"):
            Simulator(bad)
        with pytest.raises(ValueError, match="static_threshold"):
            MultiGpuSimulator(bad, num_gpus=2)


class TestSingleGpuEquivalence:
    def test_one_gpu_matches_simulator(self):
        """N=1 cluster reproduces the single-GPU simulator exactly."""
        single = Simulator(config(seed=3)).run(
            make_workload("ra", "tiny"), oversubscription=1.25)
        multi = MultiGpuSimulator(config(seed=3), num_gpus=1).run(
            make_workload("ra", "tiny"), oversubscription=1.25)
        assert multi.makespan_cycles == pytest.approx(single.total_cycles)
        assert multi.per_gpu_events[0] == single.events


class TestPartitioning:
    def test_every_access_served_once(self):
        multi = MultiGpuSimulator(config(seed=1), num_gpus=3).run(
            RandomWorkload(size_mb=12), oversubscription=1.25)
        total = sum(ev.n_accesses for ev in multi.per_gpu_events)
        served = sum(ev.n_local + ev.n_remote + ev.fault_migrations
                     for ev in multi.per_gpu_events)
        assert total > 0
        assert served == total

    def test_partitions_are_disjoint(self):
        """No block is ever resident on two devices."""
        cfg = config(seed=1)
        sim = MultiGpuSimulator(cfg, num_gpus=2)
        result = sim.run(RandomWorkload(size_mb=8), oversubscription=1.0)
        assert result.num_gpus == 2
        # Each device saw a nonempty, roughly even share.
        accesses = [ev.n_accesses for ev in result.per_gpu_events]
        assert all(a > 0 for a in accesses)

    def test_scaling_relieves_oversubscription(self):
        one = MultiGpuSimulator(config(seed=1), num_gpus=1).run(
            make_workload("ra", "tiny"), oversubscription=1.25)
        two = MultiGpuSimulator(config(seed=1), num_gpus=2).run(
            make_workload("ra", "tiny"), oversubscription=1.25)
        assert two.total_thrash < one.total_thrash
        assert two.makespan_cycles < one.makespan_cycles

    def test_makespan_at_least_max_busy(self):
        res = MultiGpuSimulator(config(seed=1), num_gpus=2).run(
            StreamWorkload(size_mb=8), oversubscription=1.0)
        assert res.makespan_cycles >= max(res.per_gpu_cycles) - 1e-6
        assert res.makespan_cycles <= sum(res.per_gpu_cycles) + 1e-6


class TestThrottling:
    def test_throttle_reduces_capacity(self):
        full = MultiGpuSimulator(config(seed=1), num_gpus=2, throttle=1.0)
        capped = MultiGpuSimulator(config(seed=1), num_gpus=2, throttle=0.4)
        r_full = full.run(make_workload("ra", "tiny"), oversubscription=1.0)
        r_capped = capped.run(make_workload("ra", "tiny"),
                              oversubscription=1.0)
        assert r_capped.capacity_per_gpu_bytes < r_full.capacity_per_gpu_bytes

    def test_adaptive_absorbs_throttle(self):
        base = MultiGpuSimulator(config(MigrationPolicy.DISABLED, 1),
                                 num_gpus=2, throttle=0.35).run(
            make_workload("ra", "tiny"), oversubscription=1.0)
        adap = MultiGpuSimulator(config(MigrationPolicy.ADAPTIVE, 1),
                                 num_gpus=2, throttle=0.35).run(
            make_workload("ra", "tiny"), oversubscription=1.0)
        assert base.total_thrash > 0
        assert adap.total_thrash < base.total_thrash
        assert adap.makespan_cycles < base.makespan_cycles

    def test_speedup_helper(self):
        a = MultiGpuSimulator(config(seed=1), num_gpus=1).run(
            make_workload("ra", "tiny"), oversubscription=1.25)
        b = MultiGpuSimulator(config(seed=1), num_gpus=2).run(
            make_workload("ra", "tiny"), oversubscription=1.25)
        assert b.speedup_over(a) > 1.0
