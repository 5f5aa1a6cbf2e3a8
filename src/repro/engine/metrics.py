"""Execution metrics: per-GPU iteration times and per-tier access counts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IterationStats:
    """Summary of per-GPU average iteration times (a Table 3 row).

    All values in simulated milliseconds.  Training throughput is bound
    by the slowest GPU, so ``max`` is the figure of merit; ``std``
    captures load balance.
    """

    min: float
    max: float
    mean: float
    std: float

    def as_row(self) -> str:
        """Format as the paper's ``min/max/mean/std`` table cell."""
        return f"{self.min:.2f}/{self.max:.2f}/{self.mean:.2f}/{self.std:.2f}"


@dataclass
class RunMetrics:
    """Raw measurements of one strategy's execution run.

    Attributes:
        strategy: strategy label.
        times_ms: (iterations, devices) per-iteration per-GPU EMB time.
        tier_accesses: tier name -> (iterations, devices) access counts.
        cache_hits: (iterations, devices) accesses served from the cache
            model, when one was enabled (hits are a subset of the HBM
            tier's counts, never additional traffic).
        staged_hits: (iterations, tiers, devices) accesses served from a
            fast lane when a staging model was enabled — slice ``t >= 1``
            counts tier-``t`` rows served at tier ``t - 1`` bandwidth
            (a subset of the tier's counts, never additional traffic).
        replica_hits: (iterations, devices) accesses served from the
            hot-row replica lane when the plan carried a replica set —
            routed least-loaded, counted on the *serving* device's
            fastest tier (so they are included in, not additional to,
            the fastest tier's access counts).
        browned_out: (iterations, tiers, devices) cold-tier lookups
            *skipped* while the executor ran in brownout degraded mode
            (overload control) — the measured quality cost of degraded
            service; these lookups appear in no tier's access counts.
    """

    strategy: str
    times_ms: np.ndarray
    tier_accesses: dict[str, np.ndarray] = field(default_factory=dict)
    cache_hits: np.ndarray | None = None
    staged_hits: np.ndarray | None = None
    replica_hits: np.ndarray | None = None
    browned_out: np.ndarray | None = None

    @property
    def num_iterations(self) -> int:
        return self.times_ms.shape[0]

    @property
    def num_devices(self) -> int:
        return self.times_ms.shape[1]

    def per_device_avg_times(self) -> np.ndarray:
        """Per-GPU iteration time averaged over iterations (Table 3 basis)."""
        return self.times_ms.mean(axis=0)

    def iteration_stats(self) -> IterationStats:
        """Min/Max/Mean/StdDev across per-GPU averages (a Table 3 row)."""
        per_device = self.per_device_avg_times()
        return IterationStats(
            min=float(per_device.min()),
            max=float(per_device.max()),
            mean=float(per_device.mean()),
            std=float(per_device.std()),
        )

    def bound_time_ms(self) -> float:
        """Training-throughput-relevant time: the slowest GPU's average."""
        return float(self.per_device_avg_times().max())

    def avg_accesses_per_gpu_iteration(self, tier: str) -> float:
        """Average accesses per GPU per iteration on ``tier`` (Table 5)."""
        counts = self.tier_accesses[tier]
        return float(counts.mean())

    def tier_access_fraction(self, tier: str) -> float:
        """Fraction of all accesses served from ``tier``."""
        total = sum(counts.sum() for counts in self.tier_accesses.values())
        if total == 0:
            return 0.0
        return float(self.tier_accesses[tier].sum() / total)

    def cache_hit_fraction(self) -> float:
        """Fraction of all accesses served from cache (0 without a model)."""
        if self.cache_hits is None:
            return 0.0
        total = sum(counts.sum() for counts in self.tier_accesses.values())
        if total == 0:
            return 0.0
        return float(self.cache_hits.sum() / total)

    def staged_fraction(self, tier: str) -> float:
        """Fraction of ``tier``'s accesses served from the staging lane
        (0 without a staging model)."""
        if self.staged_hits is None:
            return 0.0
        tier_index = list(self.tier_accesses).index(tier)
        total = self.tier_accesses[tier].sum()
        if total == 0:
            return 0.0
        return float(self.staged_hits[:, tier_index, :].sum() / total)

    def replica_fraction(self) -> float:
        """Fraction of all accesses served from the replica lane
        (0 without a replicated plan)."""
        if self.replica_hits is None:
            return 0.0
        total = sum(counts.sum() for counts in self.tier_accesses.values())
        if total == 0:
            return 0.0
        return float(self.replica_hits.sum() / total)

    @property
    def browned_out_lookups(self) -> int:
        """Cold-tier lookups skipped under brownout over the whole run."""
        if self.browned_out is None:
            return 0
        return int(self.browned_out.sum())

    def device_access_totals(self) -> np.ndarray:
        """Accesses served per device, summed over tiers and iterations."""
        totals = np.zeros(self.num_devices, dtype=np.int64)
        for counts in self.tier_accesses.values():
            totals += counts.sum(axis=0).astype(np.int64)
        return totals

    def load_imbalance(self) -> float:
        """Max/mean per-device access counts — the skew replication
        attacks (1.0 is perfectly balanced; 0.0 when nothing was
        served)."""
        totals = self.device_access_totals()
        mean = totals.mean()
        if mean <= 0:
            return 0.0
        return float(totals.max() / mean)
