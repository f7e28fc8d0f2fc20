"""The benchmark's own poset arithmetic, independent of finposet.

Inputs are generated and outputs are checked with this module only, so a
change to the library can change neither the inputs nor the verdicts.  A
poset is a list ``rows`` of down-set bit masks over its points 0..n-1:
bit j of rows[i] is set iff point j <= point i.  ``names[i]`` is the id
that point i carries in the ``.poset`` file.
"""

from __future__ import annotations

import random


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close(rows: list[int]) -> list[int]:
    """Transitive closure of reflexive down rows whose relations all point
    from lower to higher index (a naturally labeled DAG)."""
    for j, row in enumerate(rows):
        acc = row
        for i in bits(row & ((1 << j) - 1)):
            acc |= rows[i]
        rows[j] = acc
    return rows


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Rows after point i is renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        r = 0
        for j in bits(row):
            r |= 1 << perm[j]
        out[perm[i]] = r
    return out


def random_dag(rng: random.Random, n: int, p: float) -> list[int]:
    """Edge i < j with probability p for every i < j, closed, then shuffled."""
    rows = [1 << i for i in range(n)]
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                rows[j] |= 1 << i
    close(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(rows, perm)


def up_rows(rows: list[int]) -> list[int]:
    up = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            up[j] |= 1 << i
    return up


def height(rows: list[int]) -> int:
    """Longest chain minus one."""
    depth: dict[int, int] = {}

    def d(i: int) -> int:
        if i not in depth:
            depth[i] = 1 + max((d(j) for j in bits(rows[i] & ~(1 << i))), default=-1)
        return depth[i]

    return max((d(i) for i in range(len(rows))), default=0)


def count_down_sets(rows: list[int]) -> int:
    """Number of open sets (down-closed subsets), by direct enumeration."""
    n = len(rows)
    count = 0
    for s in range(1 << n):
        if all(not rows[i] & ~s for i in bits(s)):
            count += 1
    return count


def beat_points(rows: list[int], alive: int) -> list[tuple[int, str, int]]:
    """(point, kind, witness) for every beat point of the subposet on alive."""
    out = []
    up = up_rows(rows)
    for i in bits(alive):
        strict_up = up[i] & alive & ~(1 << i)
        if strict_up:
            for j in bits(strict_up):
                if strict_up & ~up[j] == 0:
                    out.append((i, "up", j))
        strict_down = rows[i] & alive & ~(1 << i)
        if strict_down:
            for j in bits(strict_down):
                if strict_down & ~rows[j] == 0:
                    out.append((i, "down", j))
    return out


def core_size(rows: list[int]) -> int:
    """Size of the core: remove any beat point until none is left."""
    alive = (1 << len(rows)) - 1
    while True:
        found = beat_points(rows, alive)
        if not found:
            return alive.bit_count()
        alive &= ~(1 << found[0][0])


def lower_bound(rows: list[int]) -> int:
    return max((len(rows) - 1).bit_length(), height(rows))


def upper_bound(rows: list[int]) -> int:
    n = len(rows)
    if n == 1:
        return 0
    return n - 1 if core_size(rows) == 1 else n


def is_embedding(rows: list[int], masks: list[int], width: int) -> bool:
    """mask(x) is a subset of mask(y) exactly when x <= y, masks in range."""
    limit = 1 << width
    if any(m < 0 or m >= limit for m in masks):
        return False
    n = len(rows)
    for y in range(n):
        my = masks[y]
        for x in range(n):
            if (masks[x] | my == my) != bool(rows[y] >> x & 1):
                return False
    return True


def cone(rows: list[int]) -> list[int]:
    n = len(rows)
    return rows + [(1 << (n + 1)) - 1]


def suspension(rows: list[int], folds: int) -> list[int]:
    out = list(rows)
    for _ in range(folds):
        below = (1 << len(out)) - 1
        out += [below | 1 << len(out), below | 1 << (len(out) + 1)]
    return out


def chain(n: int) -> list[int]:
    return [(2 << i) - 1 for i in range(n)]


def hypercube(k: int) -> list[int]:
    rows = []
    for mask in range(1 << k):
        row = 0
        for sub in range(1 << k):
            if sub & mask == sub:
                row |= 1 << sub
        rows.append(row)
    return rows


def format_poset(rows: list[int], names: list[str]) -> str:
    """Every element, then every strict relation (the parser closes them)."""
    lines = [f"elem {x}" for x in names]
    for i, row in enumerate(rows):
        lines += [f"{names[j]} < {names[i]}" for j in bits(row) if j != i]
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> tuple[list[int], list[str]]:
    """Read the line format (the subset this benchmark and the CLI emit)."""
    names: list[str] = []
    index: dict[str, int] = {}
    pairs = []

    def ident(x: str) -> int:
        if x not in index:
            index[x] = len(names)
            names.append(x)
        return index[x]

    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) == 2 and tokens[0] == "elem":
            ident(tokens[1])
        elif len(tokens) == 3 and tokens[1] == "<":
            pairs.append((ident(tokens[0]), ident(tokens[2])))
        else:
            raise ValueError(f"unparseable poset line {raw!r}")
    rows = [1 << i for i in range(len(names))]
    for a, b in pairs:
        rows[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            for j in bits(row):
                acc |= rows[j]
            if acc != row:
                rows[i] = acc
                changed = True
    for i, row in enumerate(rows):
        for j in bits(row):
            if j != i and rows[j] >> i & 1:
                raise ValueError("cycle in poset output")
    return rows, names
