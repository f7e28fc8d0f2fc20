"""Property tests of the deflation laws on random posets of 8-14 points."""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finposet import (
    cone,
    contractible_embedding,
    core,
    format_poset,
    is_isomorphic,
    random_poset,
    verify_embedding,
)
from finposet.cli import dispatch

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def posets(draw, min_size=8, max_size=14):
    n = draw(st.integers(min_size, max_size))
    # from forest-like through dense
    p = draw(st.sampled_from([1.5 / n, 0.15, 0.3, 0.5]))
    return random_poset(n, p, seed=draw(st.integers(0, 2**32 - 1)))


@pytest.fixture(scope="module")
def poset_file(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "p.poset"


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
