"""Reference drivers: the seed's slow paths, kept as test oracles.

Production :class:`~repro.uvm.driver.UvmDriver` has one migration path
(the chunk-grouped drain) and always takes the resident fast path.
The equivalence properties and ``benchmarks/bench_perf.py`` compare it
against these references, which must agree with it bit for bit:

* :class:`ScalarDrainDriver` drains migrations one block at a time,
  installing each fault block and its prefetch batch immediately;
* :class:`FullPipelineDriver` never takes the resident fast path, so
  every wave walks grouping, the policy decision and room-making.
"""

from __future__ import annotations

import types

import numpy as np

from repro.obs.events import PrefetchExpand
from repro.uvm.driver import UvmDriver, WaveOutcome


class ScalarDrainDriver(UvmDriver):
    """Driver whose migration drain resolves one block at a time."""

    def _drain_migrations(self, mig: np.ndarray, mig_k: np.ndarray,
                          mig_kw: np.ndarray, mig_remote: np.ndarray,
                          pinned: np.ndarray, out: WaveOutcome) -> None:
        for b, kk, kkw, rr in zip(mig.tolist(), mig_k.tolist(),
                                  mig_kw.tolist(), mig_remote.tolist()):
            if self.residency.resident[b]:
                # A prefetch earlier in this loop already pulled it in.
                out.n_local += int(kk - rr)
                if kkw > 0:
                    self._note_dirty(np.array([b]))
                continue
            if self._migrate_block(int(b), pinned, out):
                # One access is the fault itself; the rest hit locally.
                out.n_local += int(kk - rr - 1)
                if kkw > 0:
                    self._note_dirty(np.array([b]))
            else:
                # No room even after eviction attempts: serve remotely.
                out.n_remote += int(kk - rr)
                if not self.host.remote_mapped[b]:
                    out.mapping_faults += 1
                    self.host.map_remote(np.array([b]))

    def _migrate_block(self, block: int, pinned: np.ndarray,
                       out: WaveOutcome) -> bool:
        """Fault-migrate ``block``; runs prefetcher; returns success."""
        cid = int(self.directory.chunk_of_block[block])
        if cid < 0:
            raise RuntimeError(f"block {block} belongs to no chunk")
        never = np.zeros(self.directory.num_chunks, dtype=bool)
        never[cid] = True
        if not self._make_room(1, pinned, never, out):
            return False
        first = int(self.directory.first_block[cid])
        on_fault = self.prefetcher.on_fault
        if self._prof is not None:
            on_fault = self._prof.wrap("prefetch_tree", on_fault)
        pf_leaves = on_fault(self.trees[cid], block - first)

        self._install(np.array([block], dtype=np.int64), cid, out)
        out.fault_migrations += 1
        out.migrated_blocks += 1

        if pf_leaves.size:
            pf_blocks = first + pf_leaves
            if self._make_room(int(pf_blocks.size), pinned, never, out):
                self._install(pf_blocks, cid, out)
                out.prefetched_blocks += int(pf_blocks.size)
                if self._bus is not None and self._bus.enabled:
                    self._bus.emit(PrefetchExpand(
                        wave=self._bus.wave, chunk=cid, fault_block=block,
                        blocks=int(pf_blocks.size)))
            else:
                # Could not hold the prefetch: roll the leaves back out
                # of the tree by re-marking only true residents.
                self._rebuild_tree(cid)
        return True


class FullPipelineDriver(UvmDriver):
    """Driver that never takes the resident fast path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The fast path fires on the kernel namespace's all-resident
        # check; a copy of the namespace whose check never passes sends
        # every wave down the full pipeline.
        kernels = dict(vars(self._kern))
        kernels["resident_all"] = lambda resident, blocks: False
        self._kern = types.SimpleNamespace(**kernels)
