"""Unit tests for the RFC 1035 master-file parser/serializer."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.records import AAAA, CNAME, DS, NS, TXT, A
from repro.dnscore.rrtypes import RRType
from repro.dnscore.zone import LookupStatus
from repro.dnscore.zonefile import (
    ZoneFileError,
    parse_zone_text,
    zone_to_text,
)

SAMPLE = """
$ORIGIN cachetest.nl.
$TTL 3600
@       IN SOA ns1 hostmaster ( 2018052201 7200 3600 1209600 60 )
        IN NS  ns1
        IN NS  ns2
ns1     IN A   192.0.2.1
ns2     IN A   192.0.2.2
www 300 IN CNAME web
web     IN AAAA 2001:db8::80
text    IN TXT "hello world" "second"
sub     IN NS  ns1.sub
ns1.sub IN A   192.0.2.53
"""


@pytest.fixture
def zone():
    return parse_zone_text(SAMPLE)


def test_origin_and_soa(zone):
    assert zone.origin == Name.from_text("cachetest.nl.")
    assert zone.serial == 2018052201
    assert zone.soa_record.rdata.minimum == 60


def test_apex_ns_records(zone):
    result = zone.lookup(zone.origin, RRType.NS)
    assert result.status == LookupStatus.ANSWER
    targets = {str(record.rdata.target) for record in result.answers}
    assert targets == {"ns1.cachetest.nl.", "ns2.cachetest.nl."}
    assert all(record.ttl == 3600 for record in result.answers)


def test_relative_and_absolute_names(zone):
    result = zone.lookup(Name.from_text("ns1.cachetest.nl."), RRType.A)
    assert result.answers[0].rdata.address == "192.0.2.1"


def test_per_record_ttl_override(zone):
    result = zone.lookup(Name.from_text("www.cachetest.nl."), RRType.CNAME)
    assert result.answers[0].ttl == 300
    assert isinstance(result.answers[0].rdata, CNAME)


def test_aaaa_record(zone):
    result = zone.lookup(Name.from_text("web.cachetest.nl."), RRType.AAAA)
    assert result.answers[0].rdata.address == "2001:db8::80"


def test_txt_quoted_strings(zone):
    result = zone.lookup(Name.from_text("text.cachetest.nl."), RRType.TXT)
    assert result.answers[0].rdata.strings == ("hello world", "second")


def test_delegation_parsed(zone):
    result = zone.lookup(Name.from_text("x.sub.cachetest.nl."), RRType.A)
    assert result.status == LookupStatus.REFERRAL


def test_owner_inheritance_for_blank_fields(zone):
    # The two NS lines inherit "@".
    assert Name.from_text("cachetest.nl.") == zone.origin


def test_ttl_unit_suffixes():
    zone = parse_zone_text(
        """
$ORIGIN t.
@ 1d IN SOA ns hostmaster ( 1 2h 30m 1w 60s )
ns 1h IN A 192.0.2.1
"""
    )
    assert zone.soa_record.ttl == 86400
    assert zone.soa_record.rdata.refresh == 7200
    assert zone.soa_record.rdata.retry == 1800
    assert zone.soa_record.rdata.expire == 604800
    record = zone.get(Name.from_text("ns.t."), RRType.A)[0]
    assert record.ttl == 3600


def test_ds_record_hex():
    zone = parse_zone_text(
        """
$ORIGIN t.
$TTL 60
@ IN SOA ns hostmaster ( 1 2 3 4 5 )
child IN NS ns.child
child IN DS 12345 8 2 0123456789abcdef
"""
    )
    result = zone.lookup(Name.from_text("child.t."), RRType.DS)
    ds = result.answers[0].rdata
    assert isinstance(ds, DS)
    assert ds.key_tag == 12345
    assert ds.digest == bytes.fromhex("0123456789abcdef")


def test_comments_ignored():
    zone = parse_zone_text(
        """
; leading comment
$ORIGIN t.   ; trailing comment
$TTL 60
@ IN SOA ns hostmaster ( 1 2 3 4 5 ) ; comment inside
ns IN A 192.0.2.1 ; another
"""
    )
    assert zone.get(Name.from_text("ns.t."), RRType.A)


def test_errors_carry_line_numbers():
    with pytest.raises(ZoneFileError) as error:
        parse_zone_text("$ORIGIN t.\n$TTL 60\nbad IN A not-an-ip\n")
    assert error.value.line_number == 3


@pytest.mark.parametrize(
    "text, line",
    [
        ("$ORIGIN t.\n$TTL 60\nexämple IN A 192.0.2.1\n", 3),
        ("$ORIGIN t.\n$TTL 60\nwww IN CNAME wéb\n", 3),
        ("$ORIGIN tëst.\n", 1),
        ("$ORIGIN t.\n$TTL 60\na..b IN A 192.0.2.1\n", 3),
    ],
)
def test_bad_names_raise_zone_file_error_with_line(text, line):
    with pytest.raises(ZoneFileError) as error:
        parse_zone_text(text)
    assert error.value.line_number == line


def test_missing_soa_rejected():
    with pytest.raises(ZoneFileError, match="no SOA"):
        parse_zone_text("$ORIGIN t.\n$TTL 60\nns IN A 192.0.2.1\n")


def test_duplicate_soa_rejected():
    with pytest.raises(ZoneFileError, match="duplicate SOA"):
        parse_zone_text(
            "$ORIGIN t.\n$TTL 60\n"
            "@ IN SOA ns h ( 1 2 3 4 5 )\n"
            "@ IN SOA ns h ( 2 2 3 4 5 )\n"
        )


def test_relative_name_without_origin_rejected():
    with pytest.raises(ZoneFileError, match="without \\$ORIGIN"):
        parse_zone_text("www IN A 192.0.2.1\n")


def test_missing_ttl_rejected():
    with pytest.raises(ZoneFileError, match="no TTL"):
        parse_zone_text("$ORIGIN t.\n@ IN SOA ns h ( 1 2 3 4 5 )\nns IN A 192.0.2.1\n")


def test_unterminated_quote_rejected():
    with pytest.raises(ZoneFileError, match="unterminated"):
        parse_zone_text('$ORIGIN t.\n$TTL 60\n@ IN TXT "oops\n')


def test_unbalanced_parens_rejected():
    with pytest.raises(ZoneFileError, match="unbalanced"):
        parse_zone_text("$ORIGIN t.\n$TTL 60\n@ IN SOA ns h ( 1 2 3 4 5\n")


def test_unsupported_type_rejected():
    with pytest.raises(ZoneFileError, match="unsupported record type"):
        parse_zone_text("$ORIGIN t.\n$TTL 60\n@ IN SOA ns h (1 2 3 4 5)\nx IN MX 10 m\n")


def test_roundtrip_through_text(zone):
    text = zone_to_text(zone)
    reparsed = parse_zone_text(text)
    assert reparsed.origin == zone.origin
    assert reparsed.serial == zone.serial
    assert {
        (str(rrset.name), str(rrset.rtype), rrset.ttl)
        for rrset in reparsed.rrsets()
    } == {
        (str(rrset.name), str(rrset.rtype), rrset.ttl)
        for rrset in zone.rrsets()
    }


def test_parsed_zone_servable(zone, world):
    """A parsed zone drops straight into an authoritative server."""
    from repro.dnscore.message import make_query
    from repro.servers.authoritative import AuthoritativeServer

    server = AuthoritativeServer(
        world.sim, world.network, "193.0.9.9", [zone], name="from-file"
    )
    received = []
    world.network.register("10.0.0.99", received.append)
    world.network.send(
        "10.0.0.99",
        "193.0.9.9",
        make_query(Name.from_text("web.cachetest.nl."), RRType.AAAA),
    )
    world.sim.run(until=1.0)
    assert received[0].message.answers[0].rdata.address == "2001:db8::80"
