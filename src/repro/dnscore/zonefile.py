"""RFC 1035 master-file (zone file) parsing and serialization.

Supports the subset real operational zones use: ``$ORIGIN`` and ``$TTL``
directives, ``@`` for the origin, relative and absolute names, blank
owner fields (inherit the previous owner), comments, parenthesized
multi-line records (SOA), quoted TXT strings, and the record types the
library implements (SOA, NS, A, AAAA, CNAME, TXT, DS).

Example::

    $ORIGIN cachetest.nl.
    $TTL 3600
    @       IN SOA ns1 hostmaster ( 2018052201 7200 3600 1209600 60 )
            IN NS  ns1
            IN NS  ns2
    ns1     IN A   192.0.2.1
    ns2     IN A   192.0.2.2
    www 300 IN CNAME web
    web     IN AAAA 2001:db8::80
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.dnscore.name import Name, NameError_
from repro.dnscore.records import AAAA, CNAME, DS, NS, SOA, TXT, A, Rdata
from repro.dnscore.rrtypes import RRType
from repro.dnscore.zone import Zone


class ZoneFileError(ValueError):
    """Raised with a line number for malformed zone-file input."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------
def _tokenize_line(line: str, line_number: int) -> Tuple[List[str], bool]:
    """Split one physical line into tokens.

    Returns (tokens, owner_blank): ``owner_blank`` is True when the line
    starts with whitespace (the record inherits the previous owner).
    Quoted strings become single tokens retaining a quote marker prefix
    so TXT data survives intact. Comments (;) are stripped.
    """
    owner_blank = line[:1] in (" ", "\t")
    tokens: List[str] = []
    index = 0
    length = len(line)
    while index < length:
        char = line[index]
        if char in " \t":
            index += 1
            continue
        if char == ";":
            break
        if char == '"':
            end = index + 1
            chunk = []
            while end < length and line[end] != '"':
                chunk.append(line[end])
                end += 1
            if end >= length:
                raise ZoneFileError(line_number, "unterminated quoted string")
            tokens.append('"' + "".join(chunk))
            index = end + 1
            continue
        if char in "()":
            tokens.append(char)
            index += 1
            continue
        end = index
        while end < length and line[end] not in ' \t;()"':
            end += 1
        tokens.append(line[index:end])
        index = end
    return tokens, owner_blank


def _logical_lines(text: str) -> Iterator[Tuple[int, List[str], bool]]:
    """Yield (line_number, tokens, owner_blank) joining ( ... ) groups."""
    pending: List[str] = []
    pending_line = 0
    pending_blank = False
    depth = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        tokens, owner_blank = _tokenize_line(raw, line_number)
        if not tokens and depth == 0:
            continue
        if depth == 0:
            pending = []
            pending_line = line_number
            pending_blank = owner_blank
        for token in tokens:
            if token == "(":
                depth += 1
            elif token == ")":
                depth -= 1
                if depth < 0:
                    raise ZoneFileError(line_number, "unbalanced ')'")
            else:
                pending.append(token)
        if depth == 0 and pending:
            yield pending_line, pending, pending_blank
    if depth != 0:
        raise ZoneFileError(pending_line, "unbalanced '(' at end of file")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
def _parse_ttl(token: str, line_number: int) -> int:
    """TTL in seconds, accepting 1h/30m/2d/1w suffixes."""
    unit = 1
    text = token.lower()
    suffixes = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
    if text and text[-1] in suffixes:
        unit = suffixes[text[-1]]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError as exc:
        raise ZoneFileError(line_number, f"bad TTL {token!r}") from exc
    return value * unit


def _parse_name(token: str, origin: Optional[Name], line_number: int) -> Name:
    if token == "@":
        if origin is None:
            raise ZoneFileError(line_number, "@ used without $ORIGIN")
        return origin
    absolute = token.endswith(".")
    if not absolute and origin is None:
        raise ZoneFileError(
            line_number, f"relative name {token!r} without $ORIGIN"
        )
    try:
        name = Name.from_text(token)
        return name if absolute else Name(name.labels + origin.labels)
    except NameError_ as exc:
        raise ZoneFileError(line_number, f"bad name {token!r}: {exc}") from exc


def _parse_rdata(
    rtype: str,
    fields: List[str],
    origin: Optional[Name],
    line_number: int,
) -> Rdata:
    def need(count: int) -> None:
        if len(fields) < count:
            raise ZoneFileError(
                line_number, f"{rtype} needs {count} fields, got {len(fields)}"
            )

    try:
        if rtype == "A":
            need(1)
            return A(fields[0])
        if rtype == "AAAA":
            need(1)
            return AAAA(fields[0])
        if rtype == "NS":
            need(1)
            return NS(_parse_name(fields[0], origin, line_number))
        if rtype == "CNAME":
            need(1)
            return CNAME(_parse_name(fields[0], origin, line_number))
        if rtype == "TXT":
            need(1)
            strings = [
                field[1:] if field.startswith('"') else field
                for field in fields
            ]
            return TXT(strings)
        if rtype == "SOA":
            need(7)
            return SOA(
                _parse_name(fields[0], origin, line_number),
                _parse_name(fields[1], origin, line_number),
                int(fields[2]),
                _parse_ttl(fields[3], line_number),
                _parse_ttl(fields[4], line_number),
                _parse_ttl(fields[5], line_number),
                _parse_ttl(fields[6], line_number),
            )
        if rtype == "DS":
            need(4)
            return DS(
                int(fields[0]),
                int(fields[1]),
                int(fields[2]),
                bytes.fromhex("".join(fields[3:])),
            )
    except ZoneFileError:
        raise
    except (ValueError, TypeError) as exc:
        raise ZoneFileError(line_number, f"bad {rtype} rdata: {exc}") from exc
    raise ZoneFileError(line_number, f"unsupported record type {rtype!r}")


SUPPORTED_TYPES = {"SOA", "NS", "A", "AAAA", "CNAME", "TXT", "DS"}


def parse_zone_text(
    text: str,
    origin: Optional[str] = None,
    default_ttl: Optional[int] = None,
) -> Zone:
    """Parse a master file into a :class:`~repro.dnscore.zone.Zone`.

    The zone must contain exactly one SOA at its apex (the first SOA's
    owner defines the zone origin when ``origin`` is not given).
    """
    current_origin = Name.from_text(origin) if origin else None
    current_ttl = default_ttl
    previous_owner: Optional[Name] = None
    rows: List[Tuple[Name, int, Rdata]] = []
    soa: Optional[Tuple[Name, int, SOA]] = None

    for line_number, tokens, owner_blank in _logical_lines(text):
        if tokens[0] == "$ORIGIN":
            if len(tokens) != 2:
                raise ZoneFileError(line_number, "$ORIGIN needs one argument")
            try:
                current_origin = Name.from_text(tokens[1])
            except NameError_ as exc:
                raise ZoneFileError(line_number, f"bad $ORIGIN: {exc}") from exc
            continue
        if tokens[0] == "$TTL":
            if len(tokens) != 2:
                raise ZoneFileError(line_number, "$TTL needs one argument")
            current_ttl = _parse_ttl(tokens[1], line_number)
            continue
        if tokens[0].startswith("$"):
            raise ZoneFileError(line_number, f"unsupported directive {tokens[0]}")

        remaining = list(tokens)
        if owner_blank:
            if previous_owner is None:
                raise ZoneFileError(line_number, "no previous owner to inherit")
            owner = previous_owner
        else:
            owner = _parse_name(remaining.pop(0), current_origin, line_number)
            previous_owner = owner

        # Optional [TTL] [class] in either order, then the type.
        ttl = current_ttl
        while remaining:
            token = remaining[0].upper()
            if token in ("IN", "CH"):
                remaining.pop(0)
                continue
            if token in SUPPORTED_TYPES:
                break
            if token.isalpha():
                raise ZoneFileError(
                    line_number, f"unsupported record type {remaining[0]!r}"
                )
            ttl = _parse_ttl(remaining.pop(0), line_number)
        if not remaining:
            raise ZoneFileError(line_number, "missing record type")
        rtype = remaining.pop(0).upper()
        if ttl is None:
            raise ZoneFileError(
                line_number, "no TTL (set $TTL or a per-record TTL)"
            )
        rdata = _parse_rdata(rtype, remaining, current_origin, line_number)
        if isinstance(rdata, SOA):
            if soa is not None:
                raise ZoneFileError(line_number, "duplicate SOA")
            soa = (owner, ttl, rdata)
        else:
            rows.append((owner, ttl, rdata))

    if soa is None:
        raise ZoneFileError(0, "zone has no SOA record")
    apex, soa_ttl, soa_rdata = soa
    zone = Zone(apex, soa_rdata, soa_ttl=soa_ttl)
    for owner, ttl, rdata in rows:
        zone.add(owner, ttl, rdata)
    return zone


def zone_to_text(zone: Zone) -> str:
    """Serialize a zone back to master-file format (round-trippable)."""
    lines = [f"$ORIGIN {zone.origin}"]
    soa = zone.soa_record.rdata
    lines.append(
        f"@ {zone.soa_record.ttl} IN SOA {soa.mname} {soa.rname} "
        f"( {soa.serial} {soa.refresh} {soa.retry} {soa.expire} {soa.minimum} )"
    )
    for rrset in sorted(
        zone.rrsets(), key=lambda item: (item.name, int(item.rtype))
    ):
        if rrset.rtype == RRType.SOA:
            continue
        for record in rrset:
            lines.append(
                f"{record.name} {record.ttl} IN {record.rtype} "
                f"{_rdata_to_text(record.rdata)}"
            )
    return "\n".join(lines) + "\n"


def _rdata_to_text(rdata: Rdata) -> str:
    if isinstance(rdata, (A, AAAA)):
        return rdata.address
    if isinstance(rdata, (NS, CNAME)):
        return str(rdata.target)
    if isinstance(rdata, TXT):
        return " ".join(f'"{chunk}"' for chunk in rdata.strings)
    if isinstance(rdata, DS):
        return (
            f"{rdata.key_tag} {rdata.algorithm} {rdata.digest_type} "
            f"{rdata.digest.hex()}"
        )
    raise ValueError(f"cannot serialize {rdata!r}")
