"""II-deviation histograms — the y-axis of every figure in the paper.

Every evaluation figure plots, for one machine/algorithm configuration,
the percentage of loops whose clustered II exceeds the unified-machine II
by x cycles (x = 0 is "all communication hidden").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Last II deviation the figures and tables give a row (the last row
#: also holds every larger deviation).
MAX_DEVIATION = 3


@dataclass
class DeviationHistogram:
    """Distribution of ``II_clustered - II_unified`` over a loop suite."""

    counts: Dict[int, int] = field(default_factory=dict)

    def add(self, deviation: int) -> None:
        """Record one loop's deviation."""
        self.counts[deviation] = self.counts.get(deviation, 0) + 1

    @property
    def n_loops(self) -> int:
        """Number of loops recorded."""
        return sum(self.counts.values())

    def percentage(self, deviation: int) -> float:
        """Percent of loops at exactly this deviation."""
        total = self.n_loops
        if total == 0:
            return 0.0
        return 100.0 * self.counts.get(deviation, 0) / total

    def percentage_at_most(self, deviation: int) -> float:
        """Percent of loops with deviation <= the given value."""
        total = self.n_loops
        if total == 0:
            return 0.0
        within = sum(
            count for dev, count in self.counts.items() if dev <= deviation
        )
        return 100.0 * within / total

    @property
    def match_percentage(self) -> float:
        """Percent of loops matching the unified machine's II (x = 0)."""
        return self.percentage(0)

    @property
    def max_deviation(self) -> int:
        """Largest deviation observed (0 for an empty histogram)."""
        return max(self.counts, default=0)

    @property
    def mean_deviation(self) -> float:
        """Average deviation in cycles."""
        total = self.n_loops
        if total == 0:
            return 0.0
        return sum(dev * count for dev, count in self.counts.items()) / total

    def buckets(self) -> List[Tuple[str, float]]:
        """Figure-style buckets: 0, 1, ..., MAX_DEVIATION-1, and
        ``>= MAX_DEVIATION`` collapsed into one final bucket."""
        rows: List[Tuple[str, float]] = [
            (str(dev), self.percentage(dev)) for dev in range(MAX_DEVIATION)
        ]
        tail = 100.0 - self.percentage_at_most(MAX_DEVIATION - 1)
        rows.append((f"{MAX_DEVIATION}+", tail if self.n_loops else 0.0))
        return rows


def histogram_of(deviations: Iterable[int]) -> DeviationHistogram:
    """Build a histogram from raw deviation values."""
    histogram = DeviationHistogram()
    for deviation in deviations:
        histogram.add(deviation)
    return histogram
