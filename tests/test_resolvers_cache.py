"""Unit and property tests for the positive DNS cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnscore.name import Name
from repro.dnscore.records import A, ResourceRecord, RRset
from repro.dnscore.rrtypes import RRType
from repro.resolvers.cache import CacheConfig, DnsCache

OWNER = Name.from_text("www.cachetest.nl.")


def make_rrset(ttl=300, address="192.0.2.1", owner=OWNER) -> RRset:
    return RRset([ResourceRecord(owner, ttl, A(address))])


def test_hit_decrements_ttl():
    cache = DnsCache()
    cache.put(make_rrset(ttl=300), now=100.0)
    hit = cache.get(OWNER, RRType.A, now=150.0)
    assert hit is not None
    assert hit.ttl == 250


def test_expired_entry_misses():
    cache = DnsCache()
    cache.put(make_rrset(ttl=300), now=0.0)
    assert cache.get(OWNER, RRType.A, now=300.0) is None
    assert cache.misses == 1


def test_max_ttl_cap_applies():
    cache = DnsCache(CacheConfig(max_ttl=60))
    entry = cache.put(make_rrset(ttl=86400), now=0.0)
    assert entry.stored_ttl == 60
    hit = cache.get(OWNER, RRType.A, now=0.0)
    assert hit.ttl == 60
    assert cache.get(OWNER, RRType.A, now=61.0) is None


def test_min_ttl_override():
    cache = DnsCache(CacheConfig(min_ttl=120))
    entry = cache.put(make_rrset(ttl=10), now=0.0)
    assert entry.stored_ttl == 120


def test_lru_eviction_order():
    cache = DnsCache(CacheConfig(max_entries=2))
    first = Name.from_text("a.nl.")
    second = Name.from_text("b.nl.")
    third = Name.from_text("c.nl.")
    cache.put(make_rrset(owner=first), 0.0)
    cache.put(make_rrset(owner=second), 0.0)
    cache.get(first, RRType.A, 1.0)  # touch: first becomes most recent
    cache.put(make_rrset(owner=third), 2.0)
    assert cache.get(first, RRType.A, 3.0) is not None
    assert cache.get(second, RRType.A, 3.0) is None  # evicted
    assert cache.evictions == 1


def test_flush_clears_everything():
    cache = DnsCache()
    cache.put(make_rrset(), 0.0)
    cache.flush()
    assert len(cache) == 0
    assert cache.flushes == 1


def test_replacement_updates_entry():
    cache = DnsCache()
    cache.put(make_rrset(address="192.0.2.1"), 0.0)
    cache.put(make_rrset(address="192.0.2.2"), 10.0)
    hit = cache.get(OWNER, RRType.A, 10.0)
    assert hit.records[0].rdata.address == "192.0.2.2"
    assert len(cache) == 1


def test_glue_cannot_overwrite_fresh_authoritative():
    cache = DnsCache()
    cache.put(make_rrset(address="192.0.2.1", ttl=300), 0.0, authoritative=True)
    result = cache.put(
        make_rrset(address="192.0.2.9", ttl=300), 10.0, authoritative=False
    )
    assert result.authoritative
    hit = cache.get(OWNER, RRType.A, 20.0)
    assert hit.records[0].rdata.address == "192.0.2.1"


def test_glue_replaces_expired_authoritative():
    cache = DnsCache(CacheConfig(stale_window=3600))
    cache.put(make_rrset(address="192.0.2.1", ttl=10), 0.0, authoritative=True)
    cache.put(make_rrset(address="192.0.2.9", ttl=300), 20.0, authoritative=False)
    hit = cache.get(OWNER, RRType.A, 25.0)
    assert hit.records[0].rdata.address == "192.0.2.9"


def test_authoritative_overwrites_glue():
    cache = DnsCache()
    cache.put(make_rrset(address="192.0.2.9", ttl=3600), 0.0, authoritative=False)
    cache.put(make_rrset(address="192.0.2.1", ttl=60), 1.0, authoritative=True)
    hit = cache.get(OWNER, RRType.A, 2.0, require_authoritative=True)
    assert hit.records[0].rdata.address == "192.0.2.1"
    assert hit.ttl == 59


def test_require_authoritative_hides_glue():
    cache = DnsCache()
    cache.put(make_rrset(), 0.0, authoritative=False)
    assert cache.get(OWNER, RRType.A, 1.0, require_authoritative=True) is None
    assert cache.get(OWNER, RRType.A, 1.0) is not None


def test_serve_stale_within_window_returns_ttl_zero():
    cache = DnsCache(CacheConfig(stale_window=3600))
    cache.put(make_rrset(ttl=60), 0.0)
    assert cache.get(OWNER, RRType.A, 100.0) is None  # expired
    stale = cache.get_stale(OWNER, RRType.A, 100.0)
    assert stale is not None
    assert stale.ttl == 0
    assert cache.stale_hits == 1


def test_serve_stale_outside_window_fails():
    cache = DnsCache(CacheConfig(stale_window=100))
    cache.put(make_rrset(ttl=60), 0.0)
    assert cache.get_stale(OWNER, RRType.A, 161.0) is None


def test_stale_not_served_while_fresh():
    cache = DnsCache(CacheConfig(stale_window=100))
    cache.put(make_rrset(ttl=60), 0.0)
    assert cache.get_stale(OWNER, RRType.A, 30.0) is None


def test_expired_entry_dropped_without_stale_window():
    cache = DnsCache(CacheConfig(stale_window=0.0))
    cache.put(make_rrset(ttl=10), 0.0)
    cache.get(OWNER, RRType.A, 20.0)
    assert len(cache) == 0


def test_contains_fresh():
    cache = DnsCache()
    cache.put(make_rrset(ttl=10), 0.0)
    assert cache.contains_fresh(OWNER, RRType.A, 5.0)
    assert not cache.contains_fresh(OWNER, RRType.A, 15.0)


def test_dump_lists_fresh_entries():
    cache = DnsCache()
    cache.put(make_rrset(ttl=100), 0.0)
    rows = cache.dump(now=40.0)
    assert rows == [(OWNER, RRType.A, 60, True)]


def test_stats_shape():
    cache = DnsCache()
    cache.put(make_rrset(), 0.0)
    cache.get(OWNER, RRType.A, 1.0)
    cache.get(Name.from_text("other.nl."), RRType.A, 1.0)
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 1


@given(
    ttl=st.integers(min_value=0, max_value=86400),
    cap=st.integers(min_value=0, max_value=86400),
    elapsed=st.floats(min_value=0, max_value=90000, allow_nan=False),
)
def test_property_remaining_ttl_never_exceeds_cap(ttl, cap, elapsed):
    cache = DnsCache(CacheConfig(max_ttl=cap))
    cache.put(make_rrset(ttl=ttl), 0.0)
    hit = cache.get(OWNER, RRType.A, elapsed)
    if hit is not None:
        assert 0 <= hit.ttl <= min(ttl, cap)
        assert hit.ttl <= ttl - int(elapsed) + 1


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
def test_property_size_never_exceeds_limit(name_indices):
    cache = DnsCache(CacheConfig(max_entries=10))
    for step, index in enumerate(name_indices):
        owner = Name.from_text(f"n{index}.nl.")
        cache.put(make_rrset(owner=owner), float(step))
        assert len(cache) <= 10


def test_get_shared_returns_stored_rrset_and_get_still_copies():
    cache = DnsCache()
    stored = make_rrset(ttl=300)
    cache.put(stored, now=100.0)
    assert cache.get_shared(OWNER, RRType.A, now=150.0) is stored
    assert stored.ttl == 300  # never decremented in place
    hit = cache.get(OWNER, RRType.A, now=150.0)
    assert hit is not stored
    assert hit.ttl == 250
    assert cache.get_shared(OWNER, RRType.A, now=400.0) is None  # expired
    assert cache.stats()["hits"] == 2
    assert cache.stats()["misses"] == 1


# Operations: (kind, name index, time step, ttl) with kind 0 = put,
# 1 = read, 2 = read requiring authoritative data (``get`` only), 3 = glue put.
CACHE_OPS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 4),
        st.integers(0, 40),
        st.integers(1, 60),
    ),
    min_size=1,
    max_size=40,
)


@given(CACHE_OPS, st.sampled_from([0.0, 30.0]))
def test_property_get_shared_moves_statistics_exactly_as_get(ops, stale_window):
    # Twin caches see the same script; one reads with get, the other with
    # get_shared. Hits, misses, LRU order, evictions and stale drops must
    # stay identical, and get_shared must hand out the stored object.
    config = CacheConfig(max_entries=3, stale_window=stale_window)
    copying, sharing = DnsCache(config), DnsCache(config)
    now = 0.0
    for kind, index, step, ttl in ops:
        now += step
        owner = Name.from_text(f"n{index}.nl.")
        if kind in (0, 3):
            rrset = make_rrset(ttl=ttl, owner=owner)
            copying.put(rrset, now, authoritative=kind == 0)
            sharing.put(rrset, now, authoritative=kind == 0)
        elif kind == 1:
            copied = copying.get(owner, RRType.A, now)
            shared = sharing.get_shared(owner, RRType.A, now)
            assert (copied is None) == (shared is None)
            if shared is not None:
                entry = sharing.peek(owner, RRType.A)
                assert shared is entry.rrset
                assert copied.ttl == entry.remaining_ttl(now)
                assert copied.rdatas() == shared.rdatas()
        else:
            copying.get(owner, RRType.A, now, require_authoritative=True)
            sharing.get(owner, RRType.A, now, require_authoritative=True)
        assert copying.stats() == sharing.stats()
        assert list(copying._entries) == list(sharing._entries)
