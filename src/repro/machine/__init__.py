"""Clustered VLIW machine models: clusters, units, interconnects."""

from .cluster import ClusterSpec
from .interconnect import (
    BusInterconnect,
    Interconnect,
    NoInterconnect,
    PointToPointInterconnect,
    grid_links,
)
from .machine import Machine, ResourceKey
from .presets import (
    STANDARD_PRESETS,
    TABLE3_CONFIGS,
    bused_machine,
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    heterogeneous_gp,
    n_cluster_gp,
    ring_machine,
    two_cluster_fs,
    two_cluster_gp,
    unified_fs,
    unified_gp,
)
from .units import (
    PAPER_FS_MIX,
    PAPER_GP_MIX,
    PAPER_GRID_MIX,
    UnitMix,
    fs_units,
    gp_units,
)
from .validate import validate_machine

__all__ = [
    "BusInterconnect",
    "ClusterSpec",
    "Interconnect",
    "Machine",
    "NoInterconnect",
    "PAPER_FS_MIX",
    "PAPER_GP_MIX",
    "PAPER_GRID_MIX",
    "PointToPointInterconnect",
    "ResourceKey",
    "STANDARD_PRESETS",
    "TABLE3_CONFIGS",
    "UnitMix",
    "bused_machine",
    "four_cluster_fs",
    "four_cluster_gp",
    "four_cluster_grid",
    "fs_units",
    "gp_units",
    "grid_links",
    "heterogeneous_gp",
    "n_cluster_gp",
    "ring_machine",
    "two_cluster_fs",
    "two_cluster_gp",
    "unified_fs",
    "unified_gp",
    "validate_machine",
]
