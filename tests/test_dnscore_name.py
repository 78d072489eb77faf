"""Unit and property tests for domain names."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnscore.name import Name, NameError_, root_name

LABEL = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1,
    max_size=20,
)
NAMES = st.lists(LABEL, min_size=0, max_size=5).map(Name)
MIXED_CASE_LABEL = st.text(
    alphabet=st.sampled_from("abcXYZ019-"), min_size=1, max_size=20
)


def test_root_renders_as_dot():
    assert root_name().to_text() == "."
    assert str(Name(())) == "."


def test_from_text_absolute_and_relative_equal():
    assert Name.from_text("www.example.nl") == Name.from_text("www.example.nl.")


def test_case_insensitive_equality_and_hash():
    lower = Name.from_text("www.example.nl.")
    mixed = Name.from_text("WWW.Example.NL.")
    assert lower == mixed
    assert hash(lower) == hash(mixed)


def test_original_spelling_preserved():
    assert Name.from_text("WWW.Example.NL.").to_text() == "WWW.Example.NL."


def test_parent_and_child():
    name = Name.from_text("a.b.c.")
    assert name.parent() == Name.from_text("b.c.")
    assert Name.from_text("b.c.").child("a") == name


def test_root_has_no_parent():
    with pytest.raises(NameError_):
        root_name().parent()


def test_subdomain_relationships():
    zone = Name.from_text("cachetest.nl.")
    assert Name.from_text("1414.cachetest.nl.").is_subdomain_of(zone)
    assert zone.is_subdomain_of(zone)
    assert zone.is_subdomain_of(root_name())
    assert not Name.from_text("cachetest.net.").is_subdomain_of(zone)
    assert not Name.from_text("nl.").is_subdomain_of(zone)


def test_subdomain_does_not_match_partial_label():
    # evilcachetest.nl is NOT under cachetest.nl
    assert not Name.from_text("evilcachetest.nl.").is_subdomain_of(
        Name.from_text("cachetest.nl.")
    )


def test_relativize():
    zone = Name.from_text("cachetest.nl.")
    assert Name.from_text("a.b.cachetest.nl.").relativize(zone) == ("a", "b")
    with pytest.raises(NameError_):
        Name.from_text("a.example.com.").relativize(zone)


def test_ancestors_order():
    name = Name.from_text("a.b.nl.")
    chain = [str(ancestor) for ancestor in name.ancestors()]
    assert chain == ["a.b.nl.", "b.nl.", "nl.", "."]


def test_empty_label_rejected():
    with pytest.raises(NameError_):
        Name.from_text("a..b.")
    with pytest.raises(NameError_):
        Name(("a", "", "b"))


def test_label_length_limit():
    Name(("a" * 63,))
    with pytest.raises(NameError_):
        Name(("a" * 64,))


def test_total_length_limit():
    # 5 labels of 63 bytes = 320 octets on the wire: too long.
    with pytest.raises(NameError_):
        Name(tuple("a" * 63 for _ in range(5)))


def test_canonical_ordering_compares_from_rightmost_label():
    assert Name.from_text("a.nl.") < Name.from_text("b.nl.")
    assert Name.from_text("z.aa.") < Name.from_text("a.bb.")


def test_len_counts_labels():
    assert len(root_name()) == 0
    assert len(Name.from_text("a.b.c.")) == 3


@given(NAMES)
def test_property_text_roundtrip(name):
    assert Name.from_text(name.to_text()) == name


@given(NAMES, LABEL)
def test_property_child_parent_inverse(name, label):
    try:
        child = name.child(label)
    except NameError_:
        return  # exceeded length limits
    assert child.parent() == name
    assert child.is_subdomain_of(name)


@given(NAMES, NAMES)
def test_property_subdomain_antisymmetry(a, b):
    if a.is_subdomain_of(b) and b.is_subdomain_of(a):
        assert a == b


@given(NAMES)
def test_property_ancestors_end_at_root(name):
    chain = list(name.ancestors())
    assert chain[0] == name
    assert chain[-1].is_root
    assert len(chain) == len(name) + 1


@pytest.mark.parametrize("text", ["exämple.nl", "www.日本.jp.", "caf\u00e9."])
def test_non_ascii_label_rejected_as_name_error(text):
    with pytest.raises(NameError_, match="non-ASCII"):
        Name.from_text(text)


@given(st.lists(MIXED_CASE_LABEL, min_size=1, max_size=6))
def test_property_parent_equals_constructed_suffix(labels):
    name = Name(labels)
    parent = name.parent()
    expected = Name(labels[1:])
    assert parent == expected
    assert parent.labels == expected.labels  # spelling preserved
    assert parent._key == expected._key
    assert hash(parent) == hash(expected)
    assert str(parent) == str(expected)
