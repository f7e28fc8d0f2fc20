"""Reading posets: parse_poset, build_poset and random_poset against the fixpoint closure oracle."""

import random
import re

import pytest

from finposet import CycleError, Poset, build_poset, covers, parse_poset, random_poset
from finposet.census import enumerate_posets
from oracles import close_rows_fixpoint


def strict_pairs(P):
    return [(x, y) for x in P.elements for y in P.elements if P.lt(x, y)]


def poset_text(rng, declared, pairs):
    """The line format for the given pairs, shuffled, with comments and blank lines.

    The elements in declared get elem lines first, in that order; the
    others are declared by their first relation line.  Returns the text
    and the declared order that parsing it must give.
    """
    rels = [f"{x} < {y}" for x, y in pairs]
    rng.shuffle(rels)
    out = []
    for line in [f"elem {x}" for x in declared] + rels:
        r = rng.random()
        if r < 0.1:
            out.append("")
        elif r < 0.2:
            out.append("# a comment < line")
        out.append(line + ("   # trailing" if rng.random() < 0.1 else ""))
    order = list(declared)
    for line in rels:
        x, _, y = line.split()
        order += [e for e in (x, y) if e not in order]
    return "\n".join(out) + "\n", order


def random_declaration(rng, P, pairs):
    """A shuffled subset of P's elements to declare by elem lines; isolated points always."""
    related = {e for pair in pairs for e in pair}
    names = [x for x in P.elements if x not in related or rng.random() < 0.5]
    rng.shuffle(names)
    return names


def assert_reads_like_oracle(rng, P):
    for pairs in (covers(P), strict_pairs(P)):
        declared = random_declaration(rng, P, pairs)
        text, order = poset_text(rng, declared, pairs)
        expected = close_rows_fixpoint(order, pairs)
        assert parse_poset(text) == expected
        assert build_poset(order, pairs) == expected
        assert is_same_order(expected, P)


def is_same_order(Q, P):
    return set(Q.elements) == set(P.elements) and all(
        Q.leq(x, y) == P.leq(x, y) for x in P.elements for y in P.elements
    )


def test_every_small_labeled_poset_reads_like_the_oracle():
    rng = random.Random(0)
    for n in range(6):
        for P in enumerate_posets(n):
            assert_reads_like_oracle(rng, P)


def test_random_posets_read_like_the_oracle():
    rng = random.Random(1)
    for seed in range(50):
        n = rng.randint(20, 200)
        # 0.2 to 6 expected predecessors per point
        p = rng.choice([0.01, 0.03, 0.1, 0.3]) * 20 / n
        P = random_poset(n, p, seed=seed)
        # random_poset draws edge i <= j for i < j in the order (j, i)
        # ascending, then renames label i to perm[i]
        draw = random.Random(seed)
        edges = [(i, j) for j in range(n) for i in range(j) if draw.random() < p]
        perm = list(range(n))
        draw.shuffle(perm)
        names = [str(k) for k in range(n)]
        assert P == close_rows_fixpoint(names, [(str(perm[i]), str(perm[j])) for i, j in edges])
        assert_reads_like_oracle(rng, P)


def top_first_chain(n):
    names = [f"x{k}" for k in reversed(range(n))]
    pairs = [(f"x{k}", f"x{k + 1}") for k in range(n - 1)]
    return names, pairs


def test_chain_declared_top_first():
    # the fixpoint oracle needs one sweep per point here, so it checks a
    # short chain and the long one is checked against its known rows
    names, pairs = top_first_chain(150)
    text = "".join(f"elem {x}\n" for x in names) + "".join(f"{x} < {y}\n" for x, y in pairs)
    assert parse_poset(text) == close_rows_fixpoint(names, pairs)
    n = 2000
    names, pairs = top_first_chain(n)
    text = "".join(f"elem {x}\n" for x in names) + "".join(f"{x} < {y}\n" for x, y in pairs)
    # index k is x(n-1-k), whose down-set is every index from k on
    expected = Poset(names, [(1 << n) - (1 << k) for k in range(n)])
    assert parse_poset(text) == expected
    assert build_poset(names, pairs) == expected
    assert build_poset(names, reversed(pairs)) == expected


def cycle_names(message):
    found = re.fullmatch(r"cycle through '(.+)' and '(.+)'", message)
    assert found, message
    return found.groups()


@pytest.mark.parametrize("length", [2, 3])
def test_cycles_raise_and_name_two_points_on_one_cycle(length):
    # a back edge from the top to the bottom of a chain of covers
    # x0 < .. < x(length-1) closes every cycle of the input, and each
    # such cycle is a chain from x0 up to the top plus the back edge
    rng = random.Random(length)
    tried = 0
    for seed in range(200):
        P = random_poset(rng.randint(4, 30), rng.choice([0.1, 0.2, 0.4]), seed=seed)
        cover_pairs = covers(P)
        chains = [[x, y] for x, y in cover_pairs]
        if length == 3:
            chains = [[x, y, z] for x, y in cover_pairs for y2, z in cover_pairs if y2 == y]
        if not chains:
            continue
        picked = rng.choice(chains)
        bottom, top = picked[0], picked[-1]
        for pairs in (cover_pairs, strict_pairs(P)):
            pairs = pairs + [(top, bottom)]
            declared = random_declaration(rng, P, pairs)
            text, order = poset_text(rng, declared, pairs)
            with pytest.raises(CycleError):
                close_rows_fixpoint(order, pairs)
            for read in (lambda: parse_poset(text), lambda: build_poset(order, pairs)):
                with pytest.raises(CycleError) as info:
                    read()
                a, b = cycle_names(str(info.value))
                assert a != b and order.index(a) < order.index(b)
                if length == 2:
                    assert {a, b} == {bottom, top}
                # on one cycle: comparable, and both between bottom and top
                assert P.leq(a, b) or P.leq(b, a)
                assert all(P.leq(bottom, e) and P.leq(e, top) for e in (a, b))
        tried += 1
    assert tried > 100


def test_self_relation_is_no_cycle():
    P = parse_poset("a < a\na < b\n")
    assert P == build_poset("ab", [("a", "a"), ("a", "b")]) == close_rows_fixpoint("ab", [("a", "b")])
