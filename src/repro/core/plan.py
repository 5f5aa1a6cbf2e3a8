"""Sharding plans: the output of every sharding strategy.

A plan records, for every embedding table, which device owns it and how
its rows split across the memory tiers.  Rows are always split in
descending frequency order (the profile's ranking): the first
``rows_per_tier[0]`` hottest rows live on tier 0, the next block on
tier 1, and so on — fine-grained partitioning as in Section 4.2.  A
whole-table placement is simply a split with all rows in one tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.model import ModelSpec
from repro.memory.precision import quantized_row_bytes
from repro.memory.topology import SystemTopology


class PlanError(ValueError):
    """A sharding plan violates a structural or capacity invariant."""


@dataclass(frozen=True)
class TablePlacement:
    """Placement of one table: owning device plus per-tier row counts."""

    table_index: int
    device: int
    rows_per_tier: tuple[int, ...]

    def __post_init__(self):
        if self.device < 0:
            raise PlanError(f"table {self.table_index}: negative device")
        if any(r < 0 for r in self.rows_per_tier):
            raise PlanError(f"table {self.table_index}: negative row count")

    @property
    def total_rows(self) -> int:
        return sum(self.rows_per_tier)

    @property
    def hbm_rows(self) -> int:
        return self.rows_per_tier[0]

    def tier_fraction(self, tier_index: int) -> float:
        """Fraction of this table's rows on the given tier."""
        if self.total_rows == 0:
            return 0.0
        return self.rows_per_tier[tier_index] / self.total_rows

    @property
    def uvm_fraction(self) -> float:
        """Fraction of rows beyond the first tier (Figure 12's bar height)."""
        if self.total_rows == 0:
            return 0.0
        return 1.0 - self.rows_per_tier[0] / self.total_rows


@dataclass
class ShardingPlan:
    """A complete sharding decision for a model on a topology."""

    strategy: str
    placements: list[TablePlacement]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = list(range(len(self.placements)))
        actual = sorted(p.table_index for p in self.placements)
        if actual != expected:
            raise PlanError("placements must cover each table exactly once")
        self.placements = sorted(self.placements, key=lambda p: p.table_index)

    def __len__(self) -> int:
        return len(self.placements)

    def __getitem__(self, table_index: int) -> TablePlacement:
        return self.placements[table_index]

    def __iter__(self):
        return iter(self.placements)

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def tables_on_device(self, device: int) -> list[TablePlacement]:
        return [p for p in self.placements if p.device == device]

    def tier_bytes(
        self,
        model: ModelSpec,
        device: int,
        tier_index: int,
        precision: str = "fp32",
    ) -> int:
        """Bytes this plan stores on one device's tier.

        ``precision`` is the tier's storage precision: quantized tiers
        hold each row at its reduced encoding, so capacity accounting
        charges :func:`~repro.memory.precision.quantized_row_bytes` per
        row (for the default ``fp32`` that is exactly ``row_bytes``).
        """
        return sum(
            p.rows_per_tier[tier_index]
            * quantized_row_bytes(
                model.tables[p.table_index].row_bytes, precision
            )
            for p in self.placements
            if p.device == device
        )

    def tier_rows_total(self, tier_index: int) -> int:
        """Rows placed on one tier across all devices."""
        return sum(p.rows_per_tier[tier_index] for p in self.placements)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, model: ModelSpec, topology: SystemTopology) -> None:
        """Raise :class:`PlanError` on any structural/capacity violation."""
        if len(self.placements) != model.num_tables:
            raise PlanError(
                f"plan has {len(self.placements)} placements for "
                f"{model.num_tables} tables"
            )
        for placement in self.placements:
            table = model.tables[placement.table_index]
            if len(placement.rows_per_tier) != topology.num_tiers:
                raise PlanError(
                    f"table {placement.table_index}: "
                    f"{len(placement.rows_per_tier)} tiers vs topology "
                    f"{topology.num_tiers}"
                )
            if placement.total_rows != table.num_rows:
                raise PlanError(
                    f"table {placement.table_index}: rows_per_tier sums to "
                    f"{placement.total_rows}, table has {table.num_rows}"
                )
            if placement.device >= topology.num_devices:
                raise PlanError(
                    f"table {placement.table_index}: device "
                    f"{placement.device} out of range"
                )
        dead_rows = self.metadata.get("dead_rows")
        reclaim = bool(self.metadata.get("reclaim_dead")) and dead_rows is not None
        last_tier = topology.num_tiers - 1
        for device in range(topology.num_devices):
            for tier_index, tier in enumerate(topology.tiers):
                used = self.tier_bytes(
                    model, device, tier_index, precision=tier.precision
                )
                if reclaim and tier_index == last_tier:
                    # Section 3.4: rows never observed in training need
                    # no physical backing; they sit (logically) at the
                    # cold end of the last tier and are not charged.
                    used -= sum(
                        min(dead_rows[p.table_index], p.rows_per_tier[last_tier])
                        * quantized_row_bytes(
                            model.tables[p.table_index].row_bytes,
                            tier.precision,
                        )
                        for p in self.placements
                        if p.device == device
                    )
                if used > tier.capacity_bytes:
                    raise PlanError(
                        f"device {device} tier {tier.name}: {used} bytes "
                        f"exceeds capacity {tier.capacity_bytes}"
                    )

    # ------------------------------------------------------------------
    # Plan comparison (Table 4)
    # ------------------------------------------------------------------
    def placement_disparity(self, other: "ShardingPlan") -> dict[str, float]:
        """Row-level placement disagreement with another plan (Table 4).

        Because both plans split rows in the same descending-frequency
        order, row-level membership reduces to comparing HBM prefix
        sizes.  Returns the fraction of all rows that ``other`` put in
        UVM but ``self`` puts in HBM (``uvm_to_hbm``) and vice versa.
        """
        if len(other) != len(self):
            raise PlanError("plans cover different table counts")
        total_rows = sum(p.total_rows for p in self.placements)
        uvm_to_hbm = 0
        hbm_to_uvm = 0
        for mine, theirs in zip(self.placements, other.placements):
            uvm_to_hbm += max(0, mine.hbm_rows - theirs.hbm_rows)
            hbm_to_uvm += max(0, theirs.hbm_rows - mine.hbm_rows)
        if total_rows == 0:
            return {"uvm_to_hbm": 0.0, "hbm_to_uvm": 0.0}
        return {
            "uvm_to_hbm": uvm_to_hbm / total_rows,
            "hbm_to_uvm": hbm_to_uvm / total_rows,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, model: ModelSpec, topology: SystemTopology) -> dict:
        """Aggregate placement statistics for reports and Figure 12."""
        total_rows = sum(p.total_rows for p in self.placements)
        uvm_rows = total_rows - self.tier_rows_total(0)
        per_table_uvm = [p.uvm_fraction for p in self.placements]
        tables_per_device = [
            len(self.tables_on_device(m)) for m in range(topology.num_devices)
        ]
        return {
            "strategy": self.strategy,
            "tables": len(self.placements),
            "devices": topology.num_devices,
            "total_rows": total_rows,
            "uvm_row_fraction": uvm_rows / total_rows if total_rows else 0.0,
            "mean_table_uvm_fraction": (
                float(np.mean(per_table_uvm)) if per_table_uvm else 0.0
            ),
            "tables_per_device": tables_per_device,
        }
