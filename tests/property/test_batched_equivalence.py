"""Batched-vs-scalar equivalence: the drain rewrite's correctness contract.

The driver's chunk-grouped migration drain and the tree's bulk
``install_leaves`` are pure performance rewrites of the seed's scalar
paths.  The scalar references live test-side
(:class:`tests.oracle.ScalarDrainDriver` and
``PrefetchTree.mark_resident``).  These properties pin the contract:
identical :class:`WaveOutcome` totals, identical driver state, thrash
set and tenant attribution, and clean ``check_consistency()`` under
randomized traffic, across every policy, replacement policy, eviction
granularity, prefetcher and fault setting.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import (
    EvictionGranularity,
    MigrationPolicy,
    PrefetcherKind,
    ReplacementPolicy,
    SimulationConfig,
)
from repro.memory.layout import MB
from repro.uvm.attribution import TenantAttribution
from repro.uvm.driver import UvmDriver
from repro.uvm.tree import PrefetchTree

from tests.conftest import make_vas
from tests.oracle import ScalarDrainDriver


@st.composite
def configs(draw):
    cfg = (SimulationConfig(seed=draw(st.integers(0, 3)))
           .with_policy(draw(st.sampled_from(list(MigrationPolicy))),
                        static_threshold=8, migration_penalty=8)
           .with_device_capacity(draw(st.sampled_from([2, 6, 64])) * MB)
           .with_eviction_granularity(
               draw(st.sampled_from(list(EvictionGranularity))))
           .with_prefetcher(draw(st.sampled_from(list(PrefetcherKind)))))
    cfg = dataclasses.replace(cfg, memory=dataclasses.replace(
        cfg.memory,
        replacement=draw(st.sampled_from(list(ReplacementPolicy)))))
    if draw(st.booleans()):
        cfg = cfg.with_faults(
            transfer_fault_rate=draw(st.floats(0.0, 0.3)),
            migration_fault_rate=draw(st.floats(0.01, 0.3)))
    return cfg


@st.composite
def traffic(draw):
    seed = draw(st.integers(0, 2**16))
    n_waves = draw(st.integers(1, 10))
    wave_size = draw(st.integers(1, 250))
    return seed, n_waves, wave_size


def _drivers(cfg, attributed):
    """The production driver and the scalar-drain oracle, same config."""
    pair = []
    for cls in (UvmDriver, ScalarDrainDriver):
        drv = cls(make_vas(4, 8, 3), cfg)
        if attributed:
            owner = np.arange(drv.vas.total_blocks) % 3
            owner[::7] = -1  # some blocks belong to no tenant
            drv.attribution = TenantAttribution(owner, 3)
        pair.append(drv)
    return pair


@given(configs(), traffic(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_batched_drain_matches_scalar_reference(cfg, t, attributed):
    seed, n_waves, wave_size = t
    rng = np.random.default_rng(seed)
    batched, scalar = _drivers(cfg, attributed)
    alloc_pages = np.concatenate([
        np.arange(a.first_page, a.last_page)
        for a in batched.vas.allocations])
    for wave in range(n_waves):
        pages = rng.choice(alloc_pages, size=wave_size)
        writes = rng.random(wave_size) < 0.4
        counts = rng.integers(1, 50, size=wave_size)
        if attributed:
            batched.attribution.current = scalar.attribution.current = (
                wave % 3)
        out_b = batched.process_wave(pages, writes, counts)
        out_s = scalar.process_wave(pages.copy(), writes.copy(),
                                    counts.copy())
        assert dataclasses.asdict(out_b) == dataclasses.asdict(out_s)
    # Beyond per-wave totals, the full driver state must agree: any
    # divergence here would split future waves apart.
    assert np.array_equal(batched.residency.resident,
                          scalar.residency.resident)
    assert np.array_equal(batched.residency.dirty, scalar.residency.dirty)
    assert np.array_equal(batched.counters.counts, scalar.counters.counts)
    assert np.array_equal(batched.counters.roundtrips,
                          scalar.counters.roundtrips)
    assert np.array_equal(batched.directory.last_touch,
                          scalar.directory.last_touch)
    assert (batched.stats.thrashed_block_ids
            == scalar.stats.thrashed_block_ids)
    if attributed:
        for name in ("evicted_blocks", "cross_evictions",
                     "thrash_migrations"):
            assert np.array_equal(getattr(batched.attribution, name),
                                  getattr(scalar.attribution, name)), name
    batched.check_consistency()
    scalar.check_consistency()


leaf_counts = st.sampled_from([1, 2, 4, 8, 16, 32])


@st.composite
def leaf_batches(draw):
    n = draw(leaf_counts)
    pre = draw(st.sets(st.integers(0, n - 1)))
    batch = draw(st.sets(st.integers(0, n - 1)))
    return n, sorted(pre), sorted(batch - set(pre))


@given(leaf_batches())
@settings(max_examples=200, deadline=None)
def test_install_leaves_matches_scalar_marks(case):
    n, pre, batch = case
    bulk, ref = PrefetchTree(n), PrefetchTree(n)
    for leaf in pre:
        bulk.mark_resident(leaf)
        ref.mark_resident(leaf)
    bulk.install_leaves(np.array(batch, dtype=np.int64))
    for leaf in batch:
        ref.mark_resident(leaf)
    assert bulk.occupancy == ref.occupancy
    assert np.array_equal(bulk.resident_leaves(), ref.resident_leaves())
    bulk.check_invariants()
    ref.check_invariants()
    # And bulk removal is the inverse, matching scalar remove().
    if batch:
        bulk.remove_leaves(np.array(batch, dtype=np.int64))
        for leaf in batch:
            ref.remove(leaf)
        assert np.array_equal(bulk.resident_leaves(), ref.resident_leaves())
        bulk.check_invariants()
        ref.check_invariants()
