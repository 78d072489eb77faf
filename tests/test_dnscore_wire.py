"""Unit, roundtrip, and fuzz tests for the RFC 1035 wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.message import Message, Question, make_query, make_response
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
)
from repro.dnscore.rrtypes import Rcode, RRType
from repro.dnscore.wire import WireError, from_wire, to_wire

ZONE = Name.from_text("cachetest.nl.")
QNAME = Name.from_text("1414.cachetest.nl.")
PREFIX = "fd0f:3897:faf7:a375::"


def roundtrip(message: Message) -> Message:
    return from_wire(to_wire(message))


def assert_messages_equal(a: Message, b: Message) -> None:
    assert a.msg_id == b.msg_id
    assert (a.qr, a.aa, a.tc, a.rd, a.ra) == (b.qr, b.aa, b.tc, b.rd, b.ra)
    assert a.rcode == b.rcode
    assert a.opcode == b.opcode
    assert a.question == b.question
    for section in ("answers", "authority", "additional"):
        assert getattr(a, section) == getattr(b, section)


def test_query_roundtrip():
    query = make_query(QNAME, RRType.AAAA)
    assert_messages_equal(query, roundtrip(query))


def test_response_with_all_rdata_types_roundtrips():
    query = make_query(QNAME, RRType.AAAA)
    response = make_response(
        query,
        aa=True,
        ra=True,
        answers=[
            ResourceRecord(QNAME, 3600, AAAA("fd0f:3897:faf7:a375::1")),
            ResourceRecord(QNAME, 60, A("192.0.2.7")),
            ResourceRecord(QNAME, 60, TXT(["hello", "world"])),
        ],
        authority=[
            ResourceRecord(ZONE, 3600, NS(Name.from_text("ns1.cachetest.nl."))),
            ResourceRecord(
                ZONE,
                86400,
                SOA(
                    Name.from_text("ns1.cachetest.nl."),
                    Name.from_text("hostmaster.cachetest.nl."),
                    2018052201,
                    7200,
                    3600,
                    1209600,
                    60,
                ),
            ),
        ],
        additional=[
            ResourceRecord(
                Name.from_text("www.cachetest.nl."),
                300,
                CNAME(Name.from_text("target.cachetest.nl.")),
            ),
            ResourceRecord(Name.from_text("nl."), 86400, DS(1, 8, 2, b"\x00" * 32)),
        ],
    )
    assert_messages_equal(response, roundtrip(response))


def test_compression_shrinks_repeated_names():
    query = make_query(QNAME, RRType.NS)
    many_ns = [
        ResourceRecord(ZONE, 3600, NS(Name.from_text(f"ns{i}.cachetest.nl.")))
        for i in range(1, 6)
    ]
    response = make_response(query, aa=True, answers=many_ns)
    wire = to_wire(response)
    # Without compression each cachetest.nl suffix costs 14 bytes; with
    # compression all but the first are 2-byte pointers.
    uncompressed_estimate = sum(
        len(str(record.name)) + len(str(record.rdata.target)) for record in many_ns
    )
    assert len(wire) < uncompressed_estimate + 40
    assert_messages_equal(response, roundtrip(response))


def test_root_name_encodes_as_single_zero():
    query = make_query(Name(()), RRType.NS)
    decoded = roundtrip(query)
    assert decoded.question.qname.is_root


def test_header_flags_roundtrip_all_combinations():
    for qr in (False, True):
        for aa in (False, True):
            for rd in (False, True):
                for ra in (False, True):
                    message = Message(
                        99,
                        Question(QNAME, RRType.A),
                        qr=qr,
                        aa=aa,
                        rd=rd,
                        ra=ra,
                        rcode=Rcode.NOERROR,
                    )
                    decoded = roundtrip(message)
                    assert (decoded.qr, decoded.aa, decoded.rd, decoded.ra) == (
                        qr,
                        aa,
                        rd,
                        ra,
                    )


def test_rcodes_roundtrip():
    query = make_query(QNAME, RRType.A)
    for rcode in Rcode:
        response = make_response(query, rcode=rcode)
        assert roundtrip(response).rcode == rcode


def test_truncated_header_rejected():
    with pytest.raises(WireError):
        from_wire(b"\x00\x01\x00")


def test_truncated_question_rejected():
    wire = to_wire(make_query(QNAME, RRType.A))
    with pytest.raises(WireError):
        from_wire(wire[:-3])


def test_forward_pointer_rejected():
    # Header + a name that points forward to itself.
    header = bytes.fromhex("000100000001000000000000")
    bogus = header + b"\xc0\x0c" + b"\x00\x01\x00\x01"
    with pytest.raises(WireError):
        from_wire(bogus)


def test_fuzz_decoder_never_hangs_or_crashes_uncontrolled():
    import random

    rng = random.Random(7)
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            from_wire(blob)
        except WireError:
            pass  # controlled rejection is the contract


def _reference_response() -> Message:
    owner = QNAME
    return make_response(
        make_query(owner, RRType.AAAA, msg_id=5),
        aa=True,
        answers=[
            ResourceRecord(owner, 60, AAAA.from_fields(PREFIX, 3, 1414, 60)),
            ResourceRecord(owner, 60, AAAA("2001:db8::2")),
        ],
        authority=[
            ResourceRecord(ZONE, 60, NS(Name.from_text("ns1.cachetest.nl."))),
            ResourceRecord(ZONE, 60, SOA(ZONE, ZONE, 3)),
        ],
        additional=[
            ResourceRecord(Name.from_text("ns1.cachetest.nl."), 60, A("192.0.2.1")),
            ResourceRecord(owner, 60, TXT(["hello"])),
            ResourceRecord(owner, 60, DS(1, 8, 2, b"\x01\x02\x03\x04")),
        ],
    )


def test_fuzz_mutated_packets_raise_only_wire_error():
    # Byte flips and truncations of a valid packet reach the decoder's
    # deeper paths (unknown types and classes, TTLs with the top bit set,
    # non-ASCII labels, non-UTF-8 TXT) that random blobs rarely do.
    import random

    rng = random.Random(11)
    base = to_wire(_reference_response())
    for _ in range(3000):
        blob = bytearray(base)
        for _ in range(rng.randrange(1, 4)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        if rng.random() < 0.3:
            blob = blob[: rng.randrange(len(blob))]
        try:
            from_wire(bytes(blob))
        except WireError:
            pass


def _question_packet(name_bytes: bytes, qtype: int = 1, qclass: int = 1) -> bytes:
    header = bytes.fromhex("000100000001000000000000")
    return header + name_bytes + qtype.to_bytes(2, "big") + qclass.to_bytes(2, "big")


def test_non_ascii_label_byte_rejected_as_wire_error():
    with pytest.raises(WireError, match="non-ASCII"):
        from_wire(_question_packet(b"\x04caf\xe9\x02nl\x00"))


def test_overlong_name_rejected_as_wire_error():
    name_bytes = (b"\x3f" + b"a" * 63) * 5 + b"\x00"  # 321 octets
    with pytest.raises(WireError, match="bad name"):
        from_wire(_question_packet(name_bytes))


def test_unknown_type_and_class_rejected_as_wire_error():
    with pytest.raises(WireError, match="RRType"):
        from_wire(_question_packet(b"\x00", qtype=60))
    with pytest.raises(WireError, match="RRClass"):
        from_wire(_question_packet(b"\x00", qclass=7))


def test_ttl_with_top_bit_rejected_as_wire_error():
    wire = bytearray(to_wire(make_response(
        make_query(QNAME, RRType.A),
        answers=[ResourceRecord(QNAME, 60, A("192.0.2.1"))],
    )))
    ttl_at = len(wire) - 4 - 2 - 4  # rdata, rdlength, then the TTL
    assert wire[ttl_at:ttl_at + 4] == (60).to_bytes(4, "big")
    wire[ttl_at] = 0x80
    with pytest.raises(WireError, match="TTL"):
        from_wire(bytes(wire))


def test_non_utf8_txt_rejected_as_wire_error():
    wire = bytearray(to_wire(make_response(
        make_query(QNAME, RRType.TXT),
        answers=[ResourceRecord(QNAME, 60, TXT(["ab"]))],
    )))
    wire[-1] = 0xFF
    with pytest.raises(WireError, match="UTF-8"):
        from_wire(bytes(wire))


@pytest.mark.parametrize("value", [0, 1, (1 << 128) - 1, 0x20010DB8 << 96])
def test_aaaa_decodes_all_128_bits(value):
    response = make_response(
        make_query(QNAME, RRType.AAAA),
        answers=[ResourceRecord(QNAME, 60, AAAA.from_int(value))],
    )
    decoded = roundtrip(response).answers[0].rdata
    assert isinstance(decoded, AAAA)
    assert decoded.value == value


@st.composite
def messages(draw):
    label = st.text(
        alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
        min_size=1,
        max_size=10,
    )
    name = draw(st.lists(label, min_size=0, max_size=4).map(Name))
    qtype = draw(st.sampled_from([RRType.A, RRType.AAAA, RRType.NS, RRType.TXT]))
    message = make_query(name, qtype, msg_id=draw(st.integers(0, 0xFFFF)))
    if draw(st.booleans()):
        owner = name if len(name) else Name.from_text("x.test.")
        rdatas = draw(
            st.lists(
                st.one_of(
                    st.integers(0, 0xFFFFFFFF).map(
                        lambda v: A(f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}")
                    ),
                    st.text(
                        alphabet=st.sampled_from("abc "), max_size=20
                    ).map(lambda text: TXT([text])),
                    st.integers(0, (1 << 128) - 1).map(AAAA.from_int),
                    st.builds(
                        AAAA.from_fields,
                        st.just(PREFIX),
                        st.integers(0, 0xFFF),
                        st.integers(0, 0xFFFFF),
                        st.integers(0, 0xFFFFFFFF),
                    ),
                ),
                min_size=1,
                max_size=3,
            )
        )
        message = make_response(
            message,
            aa=draw(st.booleans()),
            answers=[ResourceRecord(owner, draw(st.integers(0, 3600)), r) for r in rdatas],
        )
    return message


@given(messages())
@settings(max_examples=100)
def test_property_roundtrip_random_messages(message):
    assert_messages_equal(message, roundtrip(message))


@given(messages())
@settings(max_examples=100)
def test_property_upper_bound_dominates_actual_size(message):
    from repro.dnscore.wire import upper_bound_size

    assert upper_bound_size(message) >= len(to_wire(message))
