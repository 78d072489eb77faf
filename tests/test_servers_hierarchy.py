"""Unit tests for zone-tree construction and the probe synthesizer."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rrtypes import RRType
from repro.dnscore.zone import LookupStatus
from repro.servers.hierarchy import (
    PROBE_ANSWER_PREFIX,
    ZoneSpec,
    attach_probe_synthesizer,
    build_hierarchy,
)


def build_tree():
    return build_hierarchy(
        [
            ZoneSpec(".", {"a.root-servers.test.": "193.0.0.1"}),
            ZoneSpec("nl.", {"ns1.dns.nl.": "193.0.1.1"}),
            ZoneSpec(
                "cachetest.nl.",
                {"ns1.cachetest.nl.": "192.0.2.1"},
                ns_ttl=60,
                a_ttl=60,
                delegation_ttl=3600,
                negative_ttl=60,
            ),
        ]
    )


def test_all_zones_built():
    zones = build_tree()
    assert set(zones) == {
        Name(()),
        Name.from_text("nl."),
        Name.from_text("cachetest.nl."),
    }


def test_parent_delegates_child_with_glue():
    zones = build_tree()
    nl = zones[Name.from_text("nl.")]
    result = nl.lookup(Name.from_text("x.cachetest.nl."), RRType.A)
    assert result.status == LookupStatus.REFERRAL
    assert result.authority[0].rtype == RRType.NS
    assert result.authority[0].ttl == 3600  # delegation TTL, not child's
    glue = [record for record in result.additional if record.rtype == RRType.A]
    assert glue and glue[0].ttl == 3600


def test_child_publishes_its_own_ttl():
    zones = build_tree()
    child = zones[Name.from_text("cachetest.nl.")]
    result = child.lookup(Name.from_text("cachetest.nl."), RRType.NS)
    assert result.status == LookupStatus.ANSWER
    assert result.answers[0].ttl == 60


def test_root_zone_has_no_parent_delegation_for_itself():
    zones = build_tree()
    root = zones[Name(())]
    result = root.lookup(Name.from_text("nl."), RRType.NS)
    assert result.status == LookupStatus.REFERRAL


def test_grandparent_fallback_when_intermediate_missing():
    zones = build_hierarchy(
        [
            ZoneSpec(".", {"a.root-servers.test.": "193.0.0.1"}),
            # No nl. zone: cachetest.nl delegated directly from the root.
            ZoneSpec("cachetest.nl.", {"ns1.cachetest.nl.": "192.0.2.1"}),
        ]
    )
    root = zones[Name(())]
    result = root.lookup(Name.from_text("x.cachetest.nl."), RRType.A)
    assert result.status == LookupStatus.REFERRAL


def test_duplicate_zone_rejected():
    with pytest.raises(ValueError):
        build_hierarchy([ZoneSpec("nl.", {}), ZoneSpec("nl.", {})])


def test_negative_ttl_flows_into_soa_minimum():
    zones = build_tree()
    child = zones[Name.from_text("cachetest.nl.")]
    assert child.soa_record.rdata.minimum == 60


def test_probe_synthesizer_encodes_serial_probe_ttl():
    zones = build_tree()
    child = zones[Name.from_text("cachetest.nl.")]
    attach_probe_synthesizer(child, PROBE_ANSWER_PREFIX, 3600)
    child.set_serial(5)
    result = child.lookup(Name.from_text("1414.cachetest.nl."), RRType.AAAA)
    assert result.status == LookupStatus.ANSWER
    serial, probe_id, ttl = result.answers[0].rdata.fields()
    assert (serial, probe_id, ttl) == (5, 1414, 3600)
    assert result.answers[0].ttl == 3600


def test_probe_synthesizer_negative_cases():
    zones = build_tree()
    child = zones[Name.from_text("cachetest.nl.")]
    attach_probe_synthesizer(child, PROBE_ANSWER_PREFIX, 3600)
    # Existing probe name, wrong type: NODATA.
    nodata = child.lookup(Name.from_text("1414.cachetest.nl."), RRType.A)
    assert nodata.status == LookupStatus.NODATA
    # Non-numeric label: NXDOMAIN.
    nxdomain = child.lookup(Name.from_text("bogus.cachetest.nl."), RRType.AAAA)
    assert nxdomain.status == LookupStatus.NXDOMAIN
    # Two labels deep: NXDOMAIN.
    deep = child.lookup(Name.from_text("a.1414.cachetest.nl."), RRType.AAAA)
    assert deep.status == LookupStatus.NXDOMAIN


@pytest.mark.parametrize("label", ["-5", "1048576", "1_000", "+3", " 9"])
def test_probe_synthesizer_rejects_malformed_probe_labels(label):
    # Only ASCII-decimal labels within the 20-bit probe-id field are probe
    # names: the others must neither crash the lookup (out-of-range ids)
    # nor alias a real probe (int() also accepts "1_000", "+3" and " 9").
    zones = build_tree()
    child = zones[Name.from_text("cachetest.nl.")]
    attach_probe_synthesizer(child, PROBE_ANSWER_PREFIX, 3600)
    try:
        qname = Name((label,) + child.origin.labels)
    except ValueError:
        return  # not even a valid name
    for qtype in (RRType.AAAA, RRType.A):
        result = child.lookup(qname, qtype)
        assert result.status == LookupStatus.NXDOMAIN


@pytest.mark.parametrize("label, probe_id", [("0", 0), ("1048575", 0xFFFFF)])
def test_probe_synthesizer_accepts_probe_id_range_ends(label, probe_id):
    zones = build_tree()
    child = zones[Name.from_text("cachetest.nl.")]
    attach_probe_synthesizer(child, PROBE_ANSWER_PREFIX, 60)
    result = child.lookup(Name.from_text(f"{label}.cachetest.nl."), RRType.AAAA)
    assert result.status == LookupStatus.ANSWER
    assert result.answers[0].rdata.fields()[1] == probe_id
