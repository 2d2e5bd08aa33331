"""Cluster specifications.

A *cluster* pairs a register file with a group of function units
(paper Figure 1).  The register file itself is unbounded — the paper
evaluates II degradation, not register pressure.  The ports that
connect the register file to the inter-cluster communication fabric
are explicit, counted resources:

* ``read_ports`` — how many values the cluster can send per cycle,
* ``write_ports`` — how many values the cluster can receive per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ddg.opcodes import FuClass
from .units import UnitMix


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one cluster."""

    index: int
    units: UnitMix
    read_ports: int = 1
    write_ports: int = 1

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("cluster index must be >= 0")
        if self.read_ports < 0 or self.write_ports < 0:
            raise ValueError("port counts must be >= 0")

    @property
    def width(self) -> int:
        """Issue width of this cluster."""
        return self.units.width

    def issue_capacity(self, fu_class: FuClass) -> int:
        """Units per cycle able to execute ``fu_class`` operations."""
        return self.units.capacity(fu_class)

    @property
    def name(self) -> str:
        """Display name, e.g. ``C0``."""
        return f"C{self.index}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "GP" if self.units.general_purpose else "FS"
        return (
            f"{self.name}[{kind}x{self.width}, "
            f"r{self.read_ports}/w{self.write_ports}]"
        )
