"""Unit and property tests for rdata, resource records, and RRsets."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnscore.name import Name
from repro.dnscore.records import (
    AAAA,
    CNAME,
    DS,
    NS,
    SOA,
    TXT,
    A,
    ResourceRecord,
    RRset,
    first_address,
)
from repro.dnscore.rrtypes import RRType

OWNER = Name.from_text("example.nl.")


def test_a_record_accepts_valid_address():
    assert A("192.0.2.1").address == "192.0.2.1"


def test_a_record_rejects_garbage():
    with pytest.raises(ValueError):
        A("not-an-address")


def test_aaaa_normalizes():
    assert AAAA("2001:DB8::1").address == "2001:db8::1"


def test_rdata_equality_and_hash():
    assert A("192.0.2.1") == A("192.0.2.1")
    assert A("192.0.2.1") != A("192.0.2.2")
    assert hash(NS(OWNER)) == hash(NS(Name.from_text("EXAMPLE.nl.")))
    assert A("192.0.2.1") != AAAA("2001:db8::1")


def test_instrumented_aaaa_roundtrip():
    rdata = AAAA.from_fields("fd0f:3897:faf7:a375::", 7, 28477, 3600)
    assert rdata.fields() == (7, 28477, 3600)


def test_instrumented_aaaa_range_checks():
    prefix = "fd0f:3897:faf7:a375::"
    with pytest.raises(ValueError):
        AAAA.from_fields(prefix, -1, 1, 60)
    with pytest.raises(ValueError):
        AAAA.from_fields(prefix, 1, 2**20, 60)
    with pytest.raises(ValueError):
        AAAA.from_fields(prefix, 1, 1, 2**32)


@given(
    serial=st.integers(min_value=0, max_value=0xFFF),
    probe_id=st.integers(min_value=0, max_value=0xFFFFF),
    ttl=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_property_instrumented_aaaa_roundtrip(serial, probe_id, ttl):
    rdata = AAAA.from_fields("fd0f:3897:faf7:a375::", serial, probe_id, ttl)
    assert rdata.fields() == (serial, probe_id, ttl)


IPV6_VALUES = st.integers(min_value=0, max_value=(1 << 128) - 1)


@given(IPV6_VALUES)
def test_property_aaaa_from_int_formats_like_ipaddress(value):
    rdata = AAAA.from_int(value)
    assert rdata.value == value
    assert rdata.address == str(ipaddress.IPv6Address(value))
    assert rdata.packed() == ipaddress.IPv6Address(value).packed


@given(IPV6_VALUES)
def test_property_aaaa_text_and_int_forms_equal(value):
    text = ipaddress.IPv6Address(value).exploded.upper()
    from_text = AAAA(text)
    from_int = AAAA.from_int(int(ipaddress.IPv6Address(text)))
    assert from_text == from_int
    assert hash(from_text) == hash(from_int)


@pytest.mark.parametrize("value", [-1, 1 << 128])
def test_aaaa_from_int_rejects_out_of_range(value):
    with pytest.raises(ValueError):
        AAAA.from_int(value)


@pytest.mark.parametrize("text", ["not-an-address", "2001:db8::1::2", "192.0.2.1"])
def test_aaaa_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        AAAA(text)


def test_instrumented_aaaa_integer_prefix_matches_text_prefix():
    prefix = "fd0f:3897:faf7:a375::"
    by_text = AAAA.from_fields(prefix, 7, 28477, 3600)
    by_int = AAAA.from_fields(int(ipaddress.IPv6Address(prefix)), 7, 28477, 3600)
    assert by_text == by_int
    assert by_text.address == "fd0f:3897:faf7:a375:70:6f3d:0:e10"


def test_with_ttl_returns_self_when_unchanged():
    record = ResourceRecord(OWNER, 60, A("192.0.2.1"))
    assert record.with_ttl(60) is record
    changed = record.with_ttl(30)
    assert changed is not record
    assert (changed.ttl, record.ttl) == (30, 60)
    assert changed.rdata is record.rdata


def test_soa_key_includes_all_fields():
    base = SOA(OWNER, OWNER, 1)
    bumped = SOA(OWNER, OWNER, 2)
    assert base != bumped


def test_txt_chunk_length_limit():
    TXT(["x" * 255])
    with pytest.raises(ValueError):
        TXT(["x" * 256])


def test_ds_equality():
    assert DS(1, 8, 2, b"\x01\x02") == DS(1, 8, 2, b"\x01\x02")
    assert DS(1, 8, 2, b"\x01\x02") != DS(1, 8, 2, b"\x01\x03")


def test_resource_record_ttl_validation():
    with pytest.raises(ValueError):
        ResourceRecord(OWNER, -1, A("192.0.2.1"))
    with pytest.raises(ValueError):
        ResourceRecord(OWNER, 2**31, A("192.0.2.1"))


def test_with_ttl_copies():
    record = ResourceRecord(OWNER, 300, A("192.0.2.1"))
    copy = record.with_ttl(60)
    assert copy.ttl == 60
    assert record.ttl == 300
    assert copy.rdata is record.rdata


def test_record_rtype_derived_from_rdata():
    assert ResourceRecord(OWNER, 60, NS(OWNER)).rtype == RRType.NS
    assert ResourceRecord(OWNER, 60, CNAME(OWNER)).rtype == RRType.CNAME


def test_rrset_requires_uniform_key():
    a1 = ResourceRecord(OWNER, 60, A("192.0.2.1"))
    a2 = ResourceRecord(OWNER, 60, A("192.0.2.2"))
    RRset([a1, a2])
    other_name = ResourceRecord(Name.from_text("x.nl."), 60, A("192.0.2.3"))
    with pytest.raises(ValueError):
        RRset([a1, other_name])
    other_type = ResourceRecord(OWNER, 60, AAAA("2001:db8::1"))
    with pytest.raises(ValueError):
        RRset([a1, other_type])


def test_rrset_rejects_empty():
    with pytest.raises(ValueError):
        RRset([])


def test_rrset_ttl_is_minimum():
    records = [
        ResourceRecord(OWNER, 300, A("192.0.2.1")),
        ResourceRecord(OWNER, 60, A("192.0.2.2")),
    ]
    assert RRset(records).ttl == 60


def test_rrset_with_ttl_rewrites_all():
    records = [
        ResourceRecord(OWNER, 300, A("192.0.2.1")),
        ResourceRecord(OWNER, 60, A("192.0.2.2")),
    ]
    rewritten = RRset(records).with_ttl(10)
    assert all(record.ttl == 10 for record in rewritten)


def test_first_address_finds_a_and_aaaa():
    records = [
        ResourceRecord(OWNER, 60, NS(OWNER)),
        ResourceRecord(OWNER, 60, A("192.0.2.9")),
    ]
    assert first_address(records) == "192.0.2.9"
    assert first_address([records[0]]) is None
