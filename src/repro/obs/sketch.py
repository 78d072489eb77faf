"""Exact per-source accounting at the authoritatives.

:class:`SourceSketch` counts every offered query at a measurement-zone
server by source address, exactly, the way the paper counts sources
(``QueryLog.unique_sources_by_round`` builds Figure 12 the same way).
At the populations simulated here (at most ~15k sources) a dict is
both cheaper per update and exact; a bounded streaming sketch only pays
at line-rate, million-source scale.

``update(src)`` is the hot-path entry (one call per offered query).
``summary()`` and ``heavy_hitters()`` are pull-only: the flight
recorder samples them on its sim-time cadence. Both results depend only
on the multiset of sources, not on their arrival order. The counter is
plain data, so it pickles through ``TestbedSnapshot`` and the disk
cache.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

#: Number of heaviest sources whose combined share is ``topk_share``.
TOPK = 16


class SourceSketch:
    """Queries per source address for one run's offered load."""

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.total = 0

    def update(self, src: str) -> None:
        counts = self.counts
        counts[src] = counts.get(src, 0) + 1
        self.total += 1

    def summary(self) -> Dict[str, float]:
        """Flat numeric series for the timeline's ``sketch`` collector.

        ``entropy_bits`` is the Shannon entropy of the source
        distribution: 0 when one source sends everything, ``log2(n)``
        for ``n`` equally loud sources. ``top1_share`` and
        ``topk_share`` are the fractions of the load sent by the
        heaviest source and the :data:`TOPK` heaviest sources.
        """
        total = self.total or 1  # empty: every share stays 0
        # Sorted, so the float sums do not depend on arrival order.
        ranked = sorted(self.counts.values(), reverse=True)
        entropy = 0.0
        for count in ranked:
            p = count / total
            entropy -= p * math.log2(p)
        return {
            "distinct": len(ranked),
            "entropy_bits": entropy,
            "top1_share": ranked[0] / total if ranked else 0.0,
            "topk_share": sum(ranked[:TOPK]) / total,
        }

    def heavy_hitters(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` heaviest sources as ``(src, count)``, ordered by
        ``(-count, src)``."""
        ranked = sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:n]

    def __repr__(self) -> str:
        return f"<SourceSketch N={self.total} distinct={len(self.counts)}>"
