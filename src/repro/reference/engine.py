"""Per-lookup parity oracle of the sharded executor.

:class:`ScalarShardedExecutor` classifies every lookup through the
Section 4.3 remapping tables instead of rank thresholds, and routes
replicas one lookup at a time instead of in closed form.  It shares
the production reduction, so agreement on classification means
bit-identical metrics.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.remap import RemappingTable
from repro.data.batch import JaggedBatch
from repro.engine.executor import ShardedExecutor


class ScalarShardedExecutor(ShardedExecutor):
    """Per-lookup reference of :class:`ShardedExecutor`.

    Overrides :meth:`classify_batch`, so ``run_batch`` and ``run``
    classify per lookup and reduce as production does.
    """

    @cached_property
    def remap_tables(self) -> list[RemappingTable]:
        """Per-table (tier, offset) remapping — the oracle's lookup
        structure, also the production artifact of Section 4.3."""
        return [
            RemappingTable(
                self.profile[p.table_index].cdf.row_order, p.rows_per_tier
            )
            for p in self.plan
        ]

    def classify_batch(self, batch: JaggedBatch) -> tuple[
        np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None
    ]:
        """Per-lookup remap-table classification of one batch (no reduce)."""
        num_tiers = self.topology.num_tiers
        counts, hits, replicas, cuts = self._zero_classification()
        scan_hits = self.cache is not None or self.staging is not None
        for j, feature in enumerate(batch):
            if feature.values.size == 0:
                continue
            cut = int(self._replica_cut[j])
            table_cuts = self._cut_points[j] if cuts is not None else None
            has_cuts = table_cuts is not None and bool(table_cuts.any())
            if scan_hits or cut or has_cuts:
                tiers, offsets = self.remap_tables[j].apply(feature.values)
                counts[j] = np.bincount(tiers, minlength=num_tiers)
                if has_cuts:
                    # A (tier, offset) pair maps back to the global
                    # frequency rank by adding the cumulative rows of
                    # the preceding tiers, so strategy cut lanes are
                    # rank thresholds here too.
                    tier_base = np.concatenate(
                        ([0], self._tier_bounds[j, :-1])
                    )
                    ranks = offsets + tier_base[tiers]
                    for s in range(table_cuts.size):
                        edge = int(table_cuts[s])
                        if edge:
                            cuts[j, s] = int(np.count_nonzero(ranks < edge))
                if cut:
                    # A tier-0 offset *is* the row's frequency rank
                    # (the fastest tier holds the leading ranked rows),
                    # so the replica lane is an offset threshold here.
                    replicas[j] = np.count_nonzero(
                        (tiers == 0) & (offsets < cut)
                    )
                threshold = self._cache_threshold[j]
                if self.cache is not None and threshold > 0:
                    hits[j, 0] = np.count_nonzero(
                        (tiers == 0) & (offsets >= cut) & (offsets < threshold)
                    )
                for t in range(1, num_tiers):
                    staged = self._stage_rows[j, t]
                    if staged > 0:
                        hits[j, t] = np.count_nonzero(
                            (tiers == t) & (offsets < staged)
                        )
            else:
                counts[j] = self.remap_tables[j].tier_counts(feature.values)
        return counts, hits, replicas, cuts

    def _take_replicas(
        self, n: int, w: int, load: list[int], survivors: list[int] | None
    ) -> list[int]:
        """The per-lookup argmin loop :func:`least_loaded_counts`
        summarizes, over the surviving devices when some have failed."""
        taken = [0] * len(load)
        candidates = range(len(load)) if survivors is None else survivors
        for _ in range(n):
            # ``min`` keeps the first minimum: the lowest device id.
            device = min(candidates, key=load.__getitem__)
            taken[device] += 1
            load[device] += w
        return taken
