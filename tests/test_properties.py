"""Property tests on random posets.

The deflation laws, isomorphism under relabeling and the text round trip
run on 8-14 points, beyond the census sizes; the 2-dimension laws run on
4-7 points (4-6 for suspension, whose exact search is on two more
points), where the exact search stays fast, and the product law on
factors of 1-4 points.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finposet import (
    CubeEmbedding,
    build_poset,
    cone,
    contractible_embedding,
    core,
    covers,
    format_poset,
    is_isomorphic,
    parse_poset,
    random_poset,
    suspension,
    two_dimension,
    verify_embedding,
)
from finposet.cli import dispatch
from finposet.core import opposite, product, remove_element

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def posets(draw, min_size=8, max_size=14):
    n = draw(st.integers(min_size, max_size))
    # from forest-like through dense
    p = draw(st.sampled_from([min(1.5 / n, 1.0), 0.15, 0.3, 0.5]))
    return random_poset(n, p, seed=draw(st.integers(0, 2**32 - 1)))


@pytest.fixture(scope="module")
def poset_file(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "p.poset"


def dim(P):
    return two_dimension(P).value


def cli_lines(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(list(argv)) == 0
    return out.getvalue().splitlines()


@PROPERTY_SETTINGS
@given(posets(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
def test_core_unique_up_to_isomorphism(P, seeds):
    base = core(P).core
    for seed in seeds:
        other = core(P, random.Random(seed)).core
        assert is_isomorphic(base, other, guard=len(P))


@PROPERTY_SETTINGS
@given(P=posets())
def test_info_contractible_line_agrees_with_core(P, poset_file):
    poset_file.write_text(format_poset(P))
    info = cli_lines("info", str(poset_file))
    trace = cli_lines("core", str(poset_file))
    assert ("contractible true" in info) == (trace[-1] == "CORE 1")
    assert ("contractible false" in info) == (trace[-1] != "CORE 1")


@PROPERTY_SETTINGS
@given(posets(min_size=7, max_size=13))
def test_contractible_embedding_has_width_n_minus_1(P):
    X = P if core(P).contractible else cone(P)
    E = contractible_embedding(X)
    assert E.poset == X
    assert E.width == len(X) - 1
    assert verify_embedding(E)


@PROPERTY_SETTINGS
@given(posets(), st.data())
def test_isomorphic_to_every_relabeling(P, data):
    order = data.draw(st.permutations(P.elements))
    assert is_isomorphic(P, build_poset(order, covers(P)), guard=len(P))


@PROPERTY_SETTINGS
@given(posets())
def test_parse_format_round_trip(P):
    assert parse_poset(format_poset(P)) == P


@PROPERTY_SETTINGS
@given(posets(min_size=4, max_size=7))
def test_dimension_invariant_under_opposite(P):
    assert dim(opposite(P)) == dim(P)


@PROPERTY_SETTINGS
@given(posets(min_size=4, max_size=6))
def test_suspension_adds_two(P):
    assert dim(suspension(P)) == dim(P) + 2


@PROPERTY_SETTINGS
@given(posets(min_size=4, max_size=7))
def test_dimension_monotone_under_point_removal(P):
    d = dim(P)
    assert all(dim(remove_element(P, x)) <= d for x in P.elements)


@PROPERTY_SETTINGS
@given(posets(min_size=1, max_size=4), posets(min_size=1, max_size=4))
def test_product_embeds_at_summed_width(P, Q):
    # d(P x Q) <= d(P) + d(Q): P's masks on the low coordinates, Q's above them
    EP, EQ = two_dimension(P).witness, two_dimension(Q).witness
    masks = {f"({p},{q})": EP.masks[p] | EQ.masks[q] << EP.width for p in P for q in Q}
    E = CubeEmbedding(product(P, Q), EP.width + EQ.width, masks)
    assert verify_embedding(E)
