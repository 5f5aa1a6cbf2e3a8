"""Frequency-rank maps — the executor's view of a hashed index.

Every sharding strategy in this repo splits a table's rows in the same
descending-frequency order (the profile's
:class:`~repro.stats.cdf.FrequencyCDF` ranking); plans differ only in
where they cut that ranking into tier blocks and which device owns the
table.  That makes the *rank* of a hashed index — its position in the
profile's frequency ordering — a plan-independent quantity, and it is
the only per-lookup quantity any tier accounting ever needs:

* the tier serving a lookup is the tier block its rank falls in
  (a count of ranks below the plan's cumulative ``rows_per_tier``);
* a device-cache hit is simply ``rank < cached_rows`` because the
  remapping layer (Section 4.3) packs each table's hottest rows first.

:class:`RankRemapper` holds one rank map per table and performs this
hashed-index → rank translation with one gather, mirroring the paper's
remapping transform that runs in the data-loading pipeline.  The
executor's classifier gathers consecutive features into one block
buffer through these maps and counts every plan's lanes over the block,
so one gather serves any number of plans that share the profile.
"""

from __future__ import annotations

import numpy as np


class RankRemapper:
    """Translates hashed embedding indices to frequency ranks.

    One remapper serves every strategy evaluated against a given
    profile: build it once per (model, profile) pair and pass it to
    each strategy's executor (``ShardedExecutor(..., ranker=...)``).

    Args:
        profile: a :class:`~repro.stats.profiler.ModelProfile`; each
            table's ``cdf.row_order`` defines the ranking.

    Attributes:
        rank_maps: one map per table; ``rank_maps[j][row]`` is the
            frequency rank of hashed row ``row`` (rank 0 is the table's
            expectedly-hottest row), so ``rank_maps[j].take(values)``
            ranks a feature's lookups with one gather.
        dtype: storage dtype of every rank map — ``int32`` whenever all
            tables fit (all paper-scale tables do), which halves the
            memory traffic of every counting pass.
    """

    def __init__(self, profile):
        orders = [np.asarray(stats.cdf.row_order, dtype=np.int64) for stats in profile]
        fits = max((o.size for o in orders), default=0) <= np.iinfo(np.int32).max
        self.dtype = np.dtype(np.int32 if fits else np.int64)
        self.rank_maps: list[np.ndarray] = []
        for order in orders:
            rank = np.empty(order.size, dtype=self.dtype)
            rank[order] = np.arange(order.size, dtype=self.dtype)
            self.rank_maps.append(rank)

    @property
    def num_tables(self) -> int:
        return len(self.rank_maps)

    def same_ranking(self, other: "RankRemapper") -> bool:
        """Whether ``other`` ranks every table's rows identically."""
        return other is self or (
            other.num_tables == self.num_tables
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.rank_maps, other.rank_maps)
            )
        )
