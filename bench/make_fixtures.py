"""Build the committed fixtures from the library at the current commit.

Run from the repository root:

    python3 bench/make_fixtures.py pool       # fixtures/dim_pool.json
    python3 bench/make_fixtures.py expected   # fixtures/expected.json

pool: the random posets the dim-exact workload draws from.  Candidates
come from the benchmark's own generator (posets.random_dag, 9-12
points, edge probability 0.2-0.5) and are sorted into three strata by
open-set count: few (< 50), mid (50-300) and many (> 300).  Each
stratum keeps the first candidates whose exact 2-dimension takes at
most CAP_S at this commit.  Unfiltered draws include single instances
that take 20 s to minutes, which would make one pass longer than a run
and the spread between seeds far wider than any bound; the slow tail
stays in the workload as the fixed instance random_poset(12, 0.3,
seed=1).  The file records each entry's value, open-set count and the
median scaled time of its dim request, by which each stratum is sorted.

expected: the 2-dimension of each committed baseline file, and the info
and core outputs of the deflate inputs for the default seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from posets import count_down_sets, format_poset, random_dag  # noqa: E402

import workloads  # noqa: E402
from finposet.cli import dispatch  # noqa: E402
from finposet.core import Poset  # noqa: E402
from finposet.dimension import two_dimension  # noqa: E402
from finposet.io import parse_poset  # noqa: E402

MASTER_SEED = 20070
CAP_S = 0.25
# stratum: (size, n range, p range); "many" draws sparse posets, where
# large open-set counts occur.
STRATA = {
    "few": (120, (9, 12), (0.2, 0.5)),
    "mid": (120, (9, 12), (0.2, 0.5)),
    "many": (90, (11, 12), (0.2, 0.25)),
}


def stratum_of(open_sets: int) -> str:
    if open_sets < 50:
        return "few"
    if open_sets > 300:
        return "many"
    return "mid"


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def build_pool() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    pool: dict[str, list[dict]] = {}
    stats = {}
    gseed = MASTER_SEED * 100_000
    for name, (size, (n_lo, n_hi), (p_lo, p_hi)) in STRATA.items():
        kept: list[dict] = []
        tried = slow = 0
        while len(kept) < size:
            gseed += 1
            rng = random.Random(gseed)
            n = rng.randint(n_lo, n_hi)
            p = round(rng.uniform(p_lo, p_hi), 3)
            rows = random_dag(random.Random(gseed), n, p)
            opens = count_down_sets(rows)
            if stratum_of(opens) != name:
                continue
            tried += 1
            P = Poset([str(i) for i in range(n)], rows)
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            start = time.perf_counter()
            try:
                value = two_dimension(P).value
            except _Timeout:
                slow += 1
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (time.perf_counter() - start) * 1e3
            kept.append({"seed": gseed, "n": n, "p": p, "open_sets": opens, "dim": value, "ms": round(ms, 2)})
        pool[name] = kept
        stats[name] = {"tried": tried, "over_cap": slow}
        print(f"{name}: kept {len(kept)} of {tried}, {slow} over {CAP_S} s", file=sys.stderr)
    retime(pool)
    out = {"master_seed": MASTER_SEED, "cap_s": CAP_S, "screened": stats, "strata": pool}
    (HERE / "fixtures" / "dim_pool.json").write_text(json.dumps(out, indent=1) + "\n")


def retime(pool: dict[str, list[dict]], reps: int = 7) -> None:
    """Set each entry's ms to the median scaled time of its dim request, and
    sort every stratum by it, so that the workload's bins hold alike costs."""
    workdir = HERE / "_work" / "fixtures"
    workdir.mkdir(parents=True, exist_ok=True)
    with Clock() as clock:
        for entries in pool.values():
            for e in entries:
                rows = random_dag(random.Random(e["seed"]), e["n"], e["p"])
                path = workdir / "pool.poset"
                path.write_text(format_poset(rows, [f"e{i}" for i in range(e["n"])]))
                times = []
                for _ in range(reps):
                    with contextlib.redirect_stdout(io.StringIO()):
                        _, took = clock.time(dispatch, ["dim", str(path)])
                    times.append(took)
                e["ms"] = round(statistics.median(times) * 1e3, 2)
            entries.sort(key=lambda e: e["ms"])


def build_expected() -> None:
    dims = {}
    for name in workloads.BASELINE_FILES:
        P = parse_poset((workloads.FIXTURES / f"{name}.poset").read_text())
        dims[name] = two_dimension(P).value
    deflate = {}
    workdir = HERE / "_work" / "fixtures"
    for req in workloads.build("deflate", workloads.DEFAULT_SEED, workdir):
        if req.kind in ("info", "core"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                dispatch(req.argv)
            text = out.getvalue()
            deflate[req.label] = text if req.kind == "info" else text.splitlines()[-1]
    out = {"seed": workloads.DEFAULT_SEED, "dim": dims, "deflate": dict(sorted(deflate.items()))}
    (workloads.FIXTURES / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    {"pool": build_pool, "expected": build_expected}[sys.argv[1]]()
