import pytest

from finposet import (
    CubeEmbedding,
    FormatError,
    Poset,
    antichain,
    build_poset,
    canonical_embedding,
    chain,
    cone,
    core,
    format_certificate,
    format_core_trace,
    format_embedding,
    format_poset,
    hypercube,
    parse_embedding,
    parse_poset,
    suspension,
    to_dot,
    two_dimension,
)
from finposet.census import enumerate_posets
from finposet.core import disjoint_union, product
from oracles import fence


def test_poset_round_trip():
    for P in [
        fence(),
        chain(4),
        antichain(3),
        hypercube(2),
        cone(suspension(fence(), 2)),
        product(chain(2), antichain(2)),
        disjoint_union(chain(2), chain(2)),
        Poset([], []),
    ]:
        assert parse_poset(format_poset(P)) == P


def test_poset_round_trip_census():
    for P in enumerate_posets(4):
        assert parse_poset(format_poset(P)) == P


def test_format_poset_is_canonical():
    text = format_poset(fence())
    assert text == "elem a\nelem b\nelem c\nelem d\nc < a\nd < b\nd < c\n"
    # formatting a reparse is byte-identical
    assert format_poset(parse_poset(text)) == text


def test_parse_poset_auto_declaration_and_comments():
    text = """
    # a comment line
    b < a   # trailing comment
    elem z

    c < a
    """
    P = parse_poset(text)
    assert P.elements == ("b", "a", "z", "c")
    assert P.leq("b", "a") and P.leq("c", "a")
    assert not P.leq("z", "a")


def test_parse_poset_closure_and_isolated():
    P = parse_poset("a < b\nb < c\nelem lonely\n")
    assert P.leq("a", "c")
    assert "lonely" in P


def test_parse_poset_rejects_garbage():
    with pytest.raises(FormatError):
        parse_poset("elem a\nelem a\n")
    with pytest.raises(FormatError):
        parse_poset("a b c d\n")
    with pytest.raises(FormatError):
        parse_poset("a > b\n")


def test_format_poset_rejects_unwritable_names():
    with pytest.raises(FormatError):
        format_poset(build_poset(["a b"], []))


def test_embedding_round_trip():
    P = fence()
    cert = two_dimension(P)
    text = format_embedding(cert.witness)
    back = parse_embedding(text, P)
    assert back.width == cert.witness.width
    assert back.masks == cert.witness.masks


def test_embedding_format_shape():
    C = build_poset("ab", [("a", "b")])
    E = canonical_embedding(C)
    assert format_embedding(E) == "width 2\na 00\nb 10\n"


def test_certificate_parses_as_embedding():
    P = fence()
    cert = two_dimension(P)
    text = format_certificate(cert)
    assert text.startswith(f"value {cert.value}\nexhausted_below true\nwidth ")
    back = parse_embedding(text, P)
    assert back.masks == cert.witness.masks


def test_zero_width_embedding_round_trip():
    single = build_poset(["x"], [])
    E = CubeEmbedding(single, 0, {"x": 0})
    text = format_embedding(E)
    assert text == "width 0\nx\n"
    back = parse_embedding(text, single)
    assert back.width == 0 and back.masks == {"x": 0}


@pytest.mark.parametrize("name", ["value", "exhausted_below", "width"])
def test_header_words_as_element_names_round_trip(name):
    # after the width line every line is a mask line, header word or not
    for P in [build_poset([name], []), build_poset([name, "x", "y"], [(name, "x"), (name, "y")])]:
        cert = two_dimension(P)
        for text in [format_embedding(cert.witness), format_certificate(cert)]:
            back = parse_embedding(text, P)
            assert back.width == cert.witness.width
            assert back.masks == cert.witness.masks


def test_parse_embedding_rejects_garbage():
    P = fence()
    good = format_embedding(two_dimension(P).witness)
    with pytest.raises(FormatError):
        parse_embedding(good.replace("width 3", "width x"), P)
    with pytest.raises(FormatError, match="width must be >= 0"):
        parse_embedding(good.replace("width 3", "width -1"), P)
    with pytest.raises(FormatError, match="unparseable line"):
        parse_embedding(good.replace("a ", "a 000 "), P)  # three tokens
    with pytest.raises(FormatError):
        parse_embedding(good + "a 000\n", P)  # duplicate assignment
    with pytest.raises(FormatError):
        parse_embedding(good + "zz 000\n", P)  # unknown element
    with pytest.raises(FormatError):
        parse_embedding(good.replace("a ", "a 1"), P)  # wrong bit count
    with pytest.raises(FormatError):
        parse_embedding("a 000\nwidth 3\n", P)  # width after masks
    with pytest.raises(FormatError):
        parse_embedding("width 3\na 000\n", P)  # missing elements
    with pytest.raises(FormatError):
        parse_embedding("", P)


def test_to_dot():
    text = to_dot(fence())
    assert text.splitlines()[0] == "digraph poset {"
    assert "  rankdir=BT;" in text
    assert '  "d" -> "c";' in text
    assert '  "a";' in text
    assert text.count("->") == 3


def test_core_trace_format():
    t = core(chain(3))
    text = format_core_trace(t)
    lines = text.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("REMOVE ") for line in lines[:2])
    assert lines[-1] == "CORE 1"
    minimal = suspension(antichain(2), 1)
    assert format_core_trace(core(minimal)) == "CORE 4\n"
