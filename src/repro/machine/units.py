"""Function-unit mixes for clusters.

The paper studies two unit disciplines (Section 2.1):

* **General purpose (GP)** — every unit executes every opcode; a cluster is
  characterized only by its width (4 GP units per cluster in the bused
  configurations).
* **Fully specified (FS)** — units are dedicated: the bused FS clusters have
  one memory, two integer, and one floating-point unit; the grid clusters
  have one of each.

Units are fully pipelined: an operation occupies one issue slot on one unit
in its issue cycle regardless of latency, matching the paper's
``ResMII = ops / width`` accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..ddg.opcodes import FuClass
from .validate import empty_units

#: FU classes that correspond to real units (copies use none).
REAL_FU_CLASSES = (FuClass.MEMORY, FuClass.INTEGER, FuClass.FLOAT)


@dataclass(frozen=True)
class UnitMix:
    """The function units inside one cluster.

    For a GP mix, ``gp_width`` holds the number of interchangeable units
    and ``per_class`` is empty.  For an FS mix, ``gp_width`` is 0 and
    ``per_class`` maps each :class:`FuClass` to its unit count.
    """

    gp_width: int = 0
    per_class: "Dict[FuClass, int]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gp_width < 0:
            raise ValueError("gp_width must be >= 0")
        if self.gp_width and self.per_class:
            raise ValueError("a mix is either GP or FS, not both")
        for fu_class, count in self.per_class.items():
            if fu_class not in REAL_FU_CLASSES:
                raise ValueError(f"{fu_class} is not a real unit class")
            if count < 0:
                raise ValueError(f"negative unit count for {fu_class}")
        error = empty_units(self.width, "unit mix")
        if error is not None:
            raise error

    @property
    def general_purpose(self) -> bool:
        """True for a GP mix."""
        return self.gp_width > 0

    @property
    def width(self) -> int:
        """Total number of units (the cluster's issue width)."""
        if self.general_purpose:
            return self.gp_width
        return sum(self.per_class.values())

    def capacity(self, fu_class: FuClass) -> int:
        """Units per cycle able to execute operations of ``fu_class``."""
        if fu_class is FuClass.NONE:
            return 0
        if self.general_purpose:
            return self.gp_width
        return self.per_class.get(fu_class, 0)

    def merged_with(self, other: "UnitMix") -> "UnitMix":
        """Combine two mixes (used to build the unified equivalent); a
        mix without units (MACH201, left by mutation) adds nothing."""
        if not other.width:
            return self
        if not self.width:
            return other
        if self.general_purpose != other.general_purpose:
            raise ValueError("cannot merge GP and FS unit mixes")
        if self.general_purpose:
            return UnitMix(gp_width=self.gp_width + other.gp_width)
        merged = dict(self.per_class)
        for fu_class, count in other.per_class.items():
            merged[fu_class] = merged.get(fu_class, 0) + count
        return UnitMix(per_class=merged)


def gp_units(width: int) -> UnitMix:
    """A general purpose mix of ``width`` interchangeable units."""
    return UnitMix(gp_width=width)


def fs_units(memory: int, integer: int, floating: int) -> UnitMix:
    """A fully specified mix with the given per-class unit counts."""
    return UnitMix(
        per_class={
            FuClass.MEMORY: memory,
            FuClass.INTEGER: integer,
            FuClass.FLOAT: floating,
        }
    )


#: The paper's bused FS cluster: 1 memory, 2 integer, 1 floating point.
PAPER_FS_MIX = fs_units(memory=1, integer=2, floating=1)

#: The paper's grid FS cluster: 1 memory, 1 integer, 1 floating point.
PAPER_GRID_MIX = fs_units(memory=1, integer=1, floating=1)

#: The paper's GP cluster: 4 general purpose units.
PAPER_GP_MIX = gp_units(4)
