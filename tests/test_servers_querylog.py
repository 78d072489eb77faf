"""Unit tests for server-side query logging and classification."""

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.servers.querylog import QueryLog, classify_query_kind

ZONE = Name.from_text("cachetest.nl.")
NS1 = Name.from_text("ns1.cachetest.nl.")
NS2 = Name.from_text("ns2.cachetest.nl.")


def fill_log() -> QueryLog:
    log = QueryLog()
    log.record(1.0, "r1", Name.from_text("1.cachetest.nl."), RRType.AAAA, "at1")
    log.record(2.0, "r1", NS1, RRType.A, "at1")
    log.record(3.0, "r2", NS1, RRType.AAAA, "at2")
    log.record(601.0, "r2", ZONE, RRType.NS, "at1")
    log.record(602.0, "r3", Name.from_text("2.cachetest.nl."), RRType.AAAA, "at2")
    return log


def test_classify_query_kinds():
    entries = fill_log().entries
    kinds = [classify_query_kind(entry, ZONE, [NS1, NS2]) for entry in entries]
    assert kinds == ["AAAA-for-PID", "A-for-NS", "AAAA-for-NS", "NS", "AAAA-for-PID"]


def test_classify_other_kind():
    log = QueryLog()
    log.record(0.0, "r", Name.from_text("x.example.com."), RRType.AAAA, "at1")
    log.record(0.0, "r", NS1, RRType.TXT, "at1")
    kinds = [classify_query_kind(entry, ZONE, [NS1]) for entry in log.entries]
    assert kinds == ["other", "other"]


def test_count_by_round():
    log = fill_log()
    counted = log.count_by_round(
        600.0, lambda entry: classify_query_kind(entry, ZONE, [NS1, NS2])
    )
    assert counted[0] == {"AAAA-for-PID": 1, "A-for-NS": 1, "AAAA-for-NS": 1}
    assert counted[1] == {"NS": 1, "AAAA-for-PID": 1}


def test_unique_sources_by_round():
    log = fill_log()
    unique = log.unique_sources_by_round(600.0)
    assert unique == {0: 2, 1: 2}


def test_per_source_counts_with_predicate():
    log = fill_log()
    counts = log.per_source_counts()
    assert counts == {"r1": 2, "r2": 2, "r3": 1}
    aaaa_only = log.per_source_counts(
        lambda entry: entry.qtype == RRType.AAAA
    )
    assert aaaa_only == {"r1": 1, "r2": 1, "r3": 1}


def test_filtered_iterates_matching():
    log = fill_log()
    late = list(log.filtered(lambda entry: entry.time > 600.0))
    assert len(late) == 2


def test_per_server_counts_match_a_rescan_and_are_copies():
    log = QueryLog()
    assert log.per_server_counts() == {}
    for index in range(40):
        server = ("at1", "at2", "at3")[index * 7 % 3]
        log.record(float(index), f"r{index % 5}", NS1, RRType.A, server)
        if index % 9 == 0:
            rescan = {}
            for entry in log.entries:
                rescan[entry.server] = rescan.get(entry.server, 0) + 1
            assert list(log.per_server_counts().items()) == list(rescan.items())
    before = log.per_server_counts()
    snapshot = dict(before)
    before["at1"] += 100
    before["elsewhere"] = 1
    assert log.per_server_counts() == snapshot
