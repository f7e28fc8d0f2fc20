"""The three workloads: their inputs, made from a seed, and their requests.

A request is one argv for ``finposet.cli.dispatch`` plus what the output
checks need to judge it.  ``build(workload, seed, workdir)`` writes the
input files and returns the requests of one pass, in the order the pass
sends them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import posets

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
DEFAULT_SEED = 0

# Fixed dim-exact instances: the ROADMAP baseline rows that finish in
# seconds, committed as files.
BASELINE_FILES = ("susp_S0_5", "susp_A3_3", "random_12_0.3_1")
FAMILY_N = 10
POOL_BIN = 3

# deflate inputs: (label, rows, commands).  Sizes are fixed; the seed
# picks the random structures and the declared order of every input.
# embed --method contractible only goes to contractible inputs: on the
# others it needs an exact search on a core larger than --max-size.
ALL_COMMANDS = ("info", "core", "dim", "embed")
NO_EMBED = ("info", "core", "dim")

# OEIS A001035 (labeled posets) and A000112 (unlabeled), indexed by n.
LABELED_COUNTS = (1, 1, 3, 19, 219, 4231, 130023)
UNLABELED_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045)
CHECK_NAMES = ("bounds", "beat-continuity", "contractible-bound", "suspension",
               "monotony", "antichain-bijection", "core-uniqueness")
LABELED_MAX, UNLABELED_MAX = 5, 6
# The suspension check on the 4231 labeled 5-point and the 318 unlabeled
# 6-point posets alone takes about 47 s at the seed commit, more than a
# run; it runs up to 4 labeled and 5 unlabeled points.
SUSPENSION_MAX = {False: 4, True: 5}
# The 2045 unlabeled 7-point posets, with the cheapest check, so that
# enumeration and canonical forms dominate.
SEVEN_POINT_CHECK = "antichain-bijection"


@dataclass
class Request:
    label: str
    argv: list[str]
    kind: str
    rows: list[int] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


def _write(workdir: Path, label: str, rows: list[int], names: list[str]) -> str:
    path = workdir / f"{label}.poset"
    path.write_text(posets.format_poset(rows, names))
    return str(path)


def _load_fixture(name: str) -> tuple[list[int], list[str]]:
    return posets.parse_poset((FIXTURES / f"{name}.poset").read_text())


def dim_pool() -> dict:
    return json.loads((FIXTURES / "dim_pool.json").read_text())


def expected() -> dict:
    return json.loads((FIXTURES / "expected.json").read_text())


def _dim_exact(rng: random.Random, workdir: Path, tiny: bool) -> list[Request]:
    exp = expected()
    reqs = []
    for name in BASELINE_FILES[: 1 if tiny else None]:
        rows, names = _load_fixture(name)
        path = str(FIXTURES / f"{name}.poset")
        reqs.append(Request(name, ["dim", path], "dim", rows, names, {"value": exp["dim"][name]}))
    low = (FAMILY_N - 1).bit_length()
    for m in range(low, FAMILY_N + 1)[: 2 if tiny else None]:
        argv = ["make", "family", "--n", str(FAMILY_N), "--m", str(m)]
        reqs.append(Request(f"family_{FAMILY_N}_{m}", argv, "family", expect={"value": m, "n": FAMILY_N}))
    # One pool entry per bin of POOL_BIN consecutive entries (the pool is
    # sorted by solve time), so every seed draws the same spread of
    # difficulty from each open-set stratum.
    for stratum, entries in dim_pool()["strata"].items():
        for b in range(0, POOL_BIN if tiny else len(entries), POOL_BIN):
            e = rng.choice(entries[b : b + POOL_BIN])
            rows = posets.random_dag(random.Random(e["seed"]), e["n"], e["p"])
            names = [f"e{i}" for i in range(e["n"])]
            label = f"{stratum}_{e['seed']}"
            path = _write(workdir, label, rows, names)
            reqs.append(Request(label, ["dim", path], "dim", rows, names, {"value": e["dim"]}))
    return reqs


def _tower(base: list[int], size: int) -> list[int]:
    rows = base
    while len(rows) < size:
        rows = posets.cone(rows)
    return rows


def _deflate_inputs(rng: random.Random) -> list[tuple[str, list[int], tuple[str, ...]]]:
    sparse = posets.random_dag(rng, 150, 1.5 / 150)
    return [
        ("chain_60", posets.chain(60), ALL_COMMANDS),
        ("chain_110", posets.chain(110), ALL_COMMANDS),
        ("cone_tower_80", _tower(posets.random_dag(rng, 6, 0.3), 80), ALL_COMMANDS),
        ("hypercube_6", posets.hypercube(6), ALL_COMMANDS),
        ("susp_tower_60", posets.suspension([1, 2], 29), NO_EMBED),
        ("susp_tower_200", posets.suspension([1, 2], 99), NO_EMBED),
        ("sparse_150", sparse, NO_EMBED),
        ("dense_100", posets.random_dag(rng, 100, 0.3), NO_EMBED),
        ("cone_sparse_100", posets.cone(posets.random_dag(rng, 99, 1.5 / 99)), ALL_COMMANDS),
    ]


def _deflate(rng: random.Random, workdir: Path, tiny: bool, seed: int) -> list[Request]:
    committed = expected()["deflate"] if seed == DEFAULT_SEED and not tiny else {}
    reqs = []
    for label, rows, commands in _deflate_inputs(rng)[: 2 if tiny else None]:
        if tiny:
            rows = rows[:20]
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = posets.relabel(rows, perm)
        names = [f"v{k}" for k in rng.sample(range(10 * n), n)]
        path = _write(workdir, label, rows, names)
        for cmd in commands:
            argv = [cmd, path] + (["--method", "contractible"] if cmd == "embed" else [])
            expect = {"committed": committed[f"{label}:{cmd}"]} if f"{label}:{cmd}" in committed else {}
            reqs.append(Request(f"{label}:{cmd}", argv, cmd, rows, names, expect))
    return reqs


def _census(tiny: bool) -> list[Request]:
    reqs = []
    for unlabeled, top, counts in ((False, LABELED_MAX, LABELED_COUNTS), (True, UNLABELED_MAX, UNLABELED_COUNTS)):
        for n in range(1, (3 if tiny else top) + 1):
            for check in CHECK_NAMES:
                if check == "suspension" and n > SUSPENSION_MAX[unlabeled]:
                    continue
                argv = ["census", "--size", str(n), "--check", check] + (["--unlabeled"] if unlabeled else [])
                label = f"{'unlabeled' if unlabeled else 'labeled'}_{n}_{check}"
                reqs.append(Request(label, argv, "census", expect={"check": check, "posets": counts[n]}))
    if not tiny:
        argv = ["census", "--size", "7", "--check", SEVEN_POINT_CHECK, "--unlabeled"]
        reqs.append(Request(f"unlabeled_7_{SEVEN_POINT_CHECK}", argv, "census",
                            expect={"check": SEVEN_POINT_CHECK, "posets": UNLABELED_COUNTS[7]}))
    return reqs


WORKLOADS = ("dim-exact", "deflate", "census")


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Request]:
    """Write the inputs of one workload under workdir and return a pass."""
    rng = random.Random(f"{workload}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "dim-exact":
        reqs = _dim_exact(rng, workdir, tiny)
    elif workload == "deflate":
        reqs = _deflate(rng, workdir, tiny, seed)
    else:
        reqs = _census(tiny)
    rng.shuffle(reqs)
    return reqs
