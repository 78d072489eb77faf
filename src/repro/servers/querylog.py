"""Server-side query logging.

The paper's Figures 10–12 are built from queries observed at the
authoritatives *before* attack drops — we log at delivery (packets that
survived the drop are what the server answers) and separately count
offered load at the transport, matching the paper's tcpdump-at-the-server
vantage combined with its note that it measures queries "before they are
dropped" for offered-load analysis. The log keeps raw rows; analysis code
bins them per round/qtype/source.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType


class QueryLogEntry:
    """One observed query."""

    __slots__ = ("time", "src", "qname", "qtype", "server")

    def __init__(
        self, time: float, src: str, qname: Name, qtype: RRType, server: str
    ) -> None:
        self.time = time
        self.src = src
        self.qname = qname
        self.qtype = qtype
        self.server = server

    def __repr__(self) -> str:
        return (
            f"<Query t={self.time:.3f} {self.src} -> {self.server} "
            f"{self.qname} {self.qtype}>"
        )


class QueryLog:
    """Accumulates query observations across one or more servers."""

    def __init__(self) -> None:
        self.entries: List[QueryLogEntry] = []
        # Running per-server totals, so the offered-load collector reads
        # them without rescanning every entry on each registry read.
        self._server_counts: Dict[str, int] = {}

    def record(
        self, time: float, src: str, qname: Name, qtype: RRType, server: str
    ) -> None:
        self.entries.append(QueryLogEntry(time, src, qname, qtype, server))
        counts = self._server_counts
        counts[server] = counts.get(server, 0) + 1

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Aggregations used by the paper's figures
    # ------------------------------------------------------------------
    def count_by_round(
        self,
        round_seconds: float,
        classify: Callable[[QueryLogEntry], str],
    ) -> Dict[int, Dict[str, int]]:
        """Histogram: round index -> label -> count (Figure 10)."""
        result: Dict[int, Dict[str, int]] = {}
        for entry in self.entries:
            round_index = int(entry.time // round_seconds)
            bucket = result.setdefault(round_index, {})
            label = classify(entry)
            bucket[label] = bucket.get(label, 0) + 1
        return result

    def unique_sources_by_round(
        self, round_seconds: float
    ) -> Dict[int, int]:
        """Unique querying addresses per round (Figure 12)."""
        seen: Dict[int, Set[str]] = {}
        for entry in self.entries:
            round_index = int(entry.time // round_seconds)
            seen.setdefault(round_index, set()).add(entry.src)
        return {index: len(sources) for index, sources in seen.items()}

    def per_server_counts(self) -> Dict[str, int]:
        """Queries per receiving server (offered-load collector)."""
        return dict(self._server_counts)

    def per_source_counts(
        self,
        predicate: Optional[Callable[[QueryLogEntry], bool]] = None,
    ) -> Dict[str, int]:
        """Queries per source address (Figure 5-style counting)."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            if predicate is not None and not predicate(entry):
                continue
            counts[entry.src] = counts.get(entry.src, 0) + 1
        return counts

    def filtered(
        self, predicate: Callable[[QueryLogEntry], bool]
    ) -> Iterable[QueryLogEntry]:
        return (entry for entry in self.entries if predicate(entry))


def classify_query_kind(
    entry: QueryLogEntry,
    target_zone: Name,
    ns_names: Iterable[Name],
) -> str:
    """Label a query the way Figure 10 does.

    Returns one of ``NS``, ``A-for-NS``, ``AAAA-for-NS``, ``AAAA-for-PID``,
    or ``other``; probe-id queries are AAAA lookups for leaf names under
    the target zone that are not nameserver names.
    """
    ns_set = set(ns_names)
    if entry.qtype == RRType.NS and entry.qname == target_zone:
        return "NS"
    if entry.qname in ns_set:
        if entry.qtype == RRType.A:
            return "A-for-NS"
        if entry.qtype == RRType.AAAA:
            return "AAAA-for-NS"
        return "other"
    if entry.qtype == RRType.AAAA and entry.qname.is_subdomain_of(target_zone):
        return "AAAA-for-PID"
    return "other"
