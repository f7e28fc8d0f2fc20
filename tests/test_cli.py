import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finposet import (
    antichain,
    beat_points,
    chain,
    core,
    format_poset,
    hypercube,
    lower_bound,
    parse_poset,
    structure_stats,
    suspension,
    upper_bound,
)
from finposet import cli, dimension, homotopy
from finposet.cli import dispatch
from finposet.core import disjoint_union


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_chain(tmp_path, n, name="chain.poset"):
    path = tmp_path / name
    path.write_text(format_poset(chain(n)))
    return str(path)


def test_make_and_dim_chain(tmp_path, capsys):
    path = str(tmp_path / "c5.poset")
    code, out, err = run(capsys, "make", "chain", "5", "-o", path)
    assert code == 0 and out == ""
    code, out, err = run(capsys, "dim", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 4"
    assert lines[1] == "exhausted_below true"
    assert lines[2] == "width 4"


def test_make_to_stdout(capsys):
    code, out, err = run(capsys, "make", "antichain", "2")
    assert code == 0
    assert out == "elem 0\nelem 1\n"


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "dim", "nosuch.poset")
    assert code == 2
    assert "nosuch.poset" in err


def test_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_text("this is not a poset line\n")
    code, out, err = run(capsys, "dim", str(path))
    assert code == 2 and "error" in err


def test_cycle_is_domain_error(tmp_path, capsys):
    path = tmp_path / "cyc.poset"
    path.write_text("a < b\nb < a\n")
    code, out, err = run(capsys, "info", str(path))
    assert code == 1 and "error" in err


def test_dim_oversize_prints_bounds(tmp_path, capsys):
    path = str(tmp_path / "cube4.poset")
    run(capsys, "make", "cube", "4", "-o", path)
    code, out, err = run(capsys, "dim", path)
    assert code == 0
    assert out == "bounds 4..15\n"
    code, out, err = run(capsys, "dim", path, "--max-size", "16")
    assert code == 0
    assert out.splitlines()[0] == "value 4"


def test_info(tmp_path, capsys):
    path = write_chain(tmp_path, 3)
    code, out, err = run(capsys, "info", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 3"
    assert lines[1] == "height 2"
    assert lines[2] == "bounds 2..2"
    assert "beat_point 1 up 2" in lines
    assert lines[-1] == "contractible true"


def test_info_computes_stats_and_deflation_once(tmp_path, capsys, monkeypatch):
    # one structure_stats and one deflation per info, with the output of
    # the composition that computed each of them apart
    posets = [
        chain(7),
        suspension(antichain(2), 30),
        hypercube(4),
        disjoint_union(chain(3), suspension(antichain(2))),
    ]
    expected = []
    for P in posets:
        stats = structure_stats(P)
        trace = core(P)
        lines = [f"size {len(P)}", f"height {stats.height}", f"bounds {lower_bound(P)}..{upper_bound(P, trace)}"]
        lines += [f"beat_point {w.point} {w.kind} {w.witness}" for w in beat_points(P)]
        lines.append(f"contractible {'true' if trace.contractible else 'false'}")
        expected.append("\n".join(lines) + "\n")
    assert [e.endswith("contractible false\n") for e in expected] == [False, True, False, True]

    calls = {"stats": 0, "deflations": 0}

    def counted_stats(P):
        calls["stats"] += 1
        return structure_stats(P)

    class CountedDeflation(homotopy._Deflation):
        def __init__(self, P):
            calls["deflations"] += 1
            super().__init__(P)

    for module in (cli, dimension):
        monkeypatch.setattr(module, "structure_stats", counted_stats)
    monkeypatch.setattr(homotopy, "_Deflation", CountedDeflation)
    for k, (P, want) in enumerate(zip(posets, expected)):
        path = tmp_path / f"p{k}.poset"
        path.write_text(format_poset(P))
        calls.update(stats=0, deflations=0)
        code, out, err = run(capsys, "info", str(path))
        assert (code, out, err) == (0, want, "")
        assert calls == {"stats": 1, "deflations": 1}


def test_info_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.poset"
    path.write_text("")
    code, out, err = run(capsys, "info", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: the empty space has no embedding width bounds\n"


def test_embed_verify_round_trip(tmp_path, capsys):
    poset_path = write_chain(tmp_path, 4)
    for method in ["exact", "canonical", "contractible"]:
        code, out, err = run(capsys, "embed", poset_path, "--method", method)
        assert code == 0
        emb_path = tmp_path / f"{method}.emb"
        emb_path.write_text(out)
        code, out, err = run(capsys, "verify", poset_path, str(emb_path))
        assert code == 0
        assert out == "valid true\n"


@pytest.mark.parametrize("name", ["value", "exhausted_below", "width"])
def test_header_words_as_element_names_verify(tmp_path, capsys, name):
    poset_path = tmp_path / "named.poset"
    poset_path.write_text(f"elem {name}\n{name} < x\n{name} < y\n")
    for cmd in [["embed"], ["embed", "--method", "canonical"], ["dim"]]:
        code, out, err = run(capsys, cmd[0], str(poset_path), *cmd[1:])
        assert code == 0
        emb_path = tmp_path / "named.emb"
        emb_path.write_text(out)
        code, out, err = run(capsys, "verify", str(poset_path), str(emb_path))
        assert (code, out, err) == (0, "valid true\n", "")


def test_embed_contractible_honours_max_size(tmp_path, capsys):
    # suspension(antichain(2), 6) is its own 14-point core, embedded exactly
    poset_path = tmp_path / "s14.poset"
    poset_path.write_text(format_poset(suspension(antichain(2), 6)))
    embed = ["embed", str(poset_path), "--method", "contractible", "--max-size"]
    code, out, err = run(capsys, *embed, "12")
    assert (code, out) == (1, "")
    assert "capped at 12" in err
    code, out, err = run(capsys, *embed, "14")
    assert code == 0 and out.startswith("width 14\n")
    emb_path = tmp_path / "s14.emb"
    emb_path.write_text(out)
    assert run(capsys, "verify", str(poset_path), str(emb_path)) == (0, "valid true\n", "")


def test_verify_rejects_tampered_embedding(tmp_path, capsys):
    poset_path = write_chain(tmp_path, 3)
    code, out, err = run(capsys, "embed", poset_path)
    emb = tmp_path / "bad.emb"
    emb.write_text(out.replace("0 00\n", "0 11\n"))
    code, out, err = run(capsys, "verify", poset_path, str(emb))
    assert code == 1
    assert out == "valid false\n"


def test_dim_output_verifies(tmp_path, capsys):
    # certificates are accepted by verify directly
    poset_path = write_chain(tmp_path, 4)
    code, out, err = run(capsys, "dim", poset_path)
    cert = tmp_path / "c.cert"
    cert.write_text(out)
    code, out, err = run(capsys, "verify", poset_path, str(cert))
    assert code == 0 and out == "valid true\n"


def test_core(tmp_path, capsys):
    path = write_chain(tmp_path, 4)
    code, out, err = run(capsys, "core", path)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[-1] == "CORE 1"


def test_make_cone_and_susp(tmp_path, capsys):
    path = write_chain(tmp_path, 2)
    code, out, err = run(capsys, "make", "cone", path)
    assert code == 0
    P = parse_poset(out)
    assert P.maximum() == "*1" and len(P) == 3
    code, out, err = run(capsys, "make", "susp", path, "--folds", "2")
    assert code == 0
    P = parse_poset(out)
    assert len(P) == 6 and sorted(P.maximal_elements()) == ["+2", "-2"]


def test_make_family(tmp_path, capsys):
    out_path = str(tmp_path / "fam.poset")
    code, out, err = run(capsys, "make", "family", "--n", "5", "--m", "3", "-o", out_path)
    assert code == 0
    assert out.splitlines()[0] == "value 3"
    code, out, err = run(capsys, "dim", out_path)
    assert code == 0
    assert out.splitlines()[0] == "value 3"


def test_make_family_certifies_up_to_the_cap(tmp_path, capsys):
    poset_path, cert_path = str(tmp_path / "fam.poset"), tmp_path / "fam.cert"
    for m in (4, 12):
        code, out, err = run(capsys, "make", "family", "--n", "12", "--m", str(m), "-o", poset_path)
        assert code == 0 and out.splitlines()[0] == f"value {m}"
        cert_path.write_text(out)
        code, out, err = run(capsys, "verify", poset_path, str(cert_path))
        assert code == 0 and out == "valid true\n"


def test_make_family_above_the_cap(capsys):
    # the construction is uncapped, but its certificate takes the exact-dimension cap;
    # make family has no size option, so the message must not point to one
    code, out, err = run(capsys, "make", "family", "--n", "13", "--m", "4")
    assert code == 1 and out == ""
    assert err == "error: make family certifies its poset by an exact 2-dimension, capped at 12 points\n"
    assert "max_size" not in err and "max-size" not in err


def test_make_family_out_of_range(capsys):
    code, out, err = run(capsys, "make", "family", "--n", "8", "--m", "2")
    assert code == 1
    assert "error" in err


def test_census_command(capsys):
    code, out, err = run(capsys, "census", "--size", "3", "--check", "bounds,antichain-bijection")
    assert code == 0
    assert out.splitlines() == [
        "CHECK bounds posets=19 counterexamples=0",
        "CHECK antichain-bijection posets=19 counterexamples=0",
    ]
    code, out, err = run(capsys, "census", "--size", "3", "--unlabeled", "--check", "bounds")
    assert code == 0
    assert out == "CHECK bounds posets=5 counterexamples=0\n"


def test_census_repeated_check_runs_once(capsys):
    code, out, err = run(capsys, "census", "--size", "2", "--check", "bounds,bounds")
    assert (code, out) == (0, "CHECK bounds posets=3 counterexamples=0\n")
    code, out, err = run(capsys, "census", "--size", "2", "--check", "monotony,bounds,monotony")
    assert out.splitlines() == [
        "CHECK monotony posets=3 counterexamples=0",
        "CHECK bounds posets=3 counterexamples=0",
    ]


def test_census_stats_go_to_stderr(capsys):
    argv = ["census", "--size", "4", "--unlabeled", "--check", "monotony,bounds"]
    code, plain, err = run(capsys, *argv)
    assert err == ""
    code, out, err = run(capsys, *argv, "--stats")
    assert (code, out) == (0, plain)
    *levels, enum, monotony, bounds = err.splitlines()
    # one line per enumeration level as it finishes, then the enumeration's total
    assert [line.split()[:4] for line in levels] == [
        ["STATS", "level", "1", "classes=1"],
        ["STATS", "level", "2", "classes=2"],
        ["STATS", "level", "3", "classes=5"],
        ["STATS", "level", "4", "classes=16"],
    ]
    assert levels[-1].split()[4:7] == ["heaviest_tops=21", "orbit_pruned=5", "canonical_forms=16"]
    # 30 canonical forms before the orbit pruning
    assert enum.startswith("STATS enumerate classes=16 canonical_forms=24 seconds=")
    assert monotony.startswith("STATS check monotony classes=16 seconds=")
    assert monotony.endswith(" dims_computed=23 dims_asked=80")
    # bounds asks only for the 16 classes, whose values monotony computed
    assert bounds.endswith(" dims_computed=0 dims_asked=16")


def test_census_unknown_check(capsys):
    code, out, err = run(capsys, "census", "--size", "3", "--check", "mystery")
    assert code == 1
    assert "mystery" in err


def test_census_empty_check_list_is_usage_error(capsys):
    for check in ["", ","]:
        code, out, err = run(capsys, "census", "--size", "3", "--check", check)
        assert code == 2
        assert out == ""
        assert "--check" in err


def test_census_counterexample_files(tmp_path, capsys, monkeypatch):
    from finposet.census import CHECKS

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(CHECKS, "never", lambda P, dim: False)
    code, out, err = run(capsys, "census", "--size", "2", "--unlabeled", "--check", "never")
    assert code == 1
    assert out == "CHECK never posets=2 counterexamples=2\n"
    dumped = sorted(p.name for p in tmp_path.glob("counterexample-*.poset"))
    assert dumped == ["counterexample-never-0.poset", "counterexample-never-1.poset"]
    parse_poset((tmp_path / dumped[0]).read_text()).check()


def test_dot(tmp_path, capsys):
    path = write_chain(tmp_path, 3)
    code, out, err = run(capsys, "dot", path)
    assert code == 0
    assert out.startswith("digraph poset {")
    assert out.count("->") == 2


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "make")[0] == 2
    assert run(capsys, "dim")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_deterministic_stdout(tmp_path, capsys):
    path = write_chain(tmp_path, 5)
    _, first, _ = run(capsys, "dim", path)
    _, second, _ = run(capsys, "dim", path)
    assert first == second


def test_dispatch_calls_share_no_options(tmp_path, capsys):
    path = write_chain(tmp_path, 5)
    capped, full = ["dim", path, "--max-size", "3"], ["dim", path]
    outputs = [run(capsys, *argv) for argv in (capped, full, capped, full)]
    assert outputs[0] == outputs[2] == (0, "bounds 4..4\n", "")
    assert outputs[1] == outputs[3]
    assert outputs[1][1].startswith("value 4\nexhausted_below true\nwidth 4\n")
    code, out, err = run(capsys, "dim", path, "--max-size", "x")
    assert code == 2 and "invalid int value" in err
    assert run(capsys, *full) == outputs[1]


def test_parser_built_at_first_dispatch_and_reused():
    # importing the CLI builds no parser, so start-up stays cheap; the
    # first dispatch builds it and every later one reuses it
    script = """
import argparse, json
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kw):
    built.append(self)
    init(self, *args, **kw)
argparse.ArgumentParser.__init__ = counted
from finposet import cli
counts = [len(built)]
for argv in (["make", "chain", "2"], ["frobnicate"], ["make", "antichain", "2"]):
    cli.dispatch(argv)
    counts.append(len(built))
print(json.dumps(counts))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    assert counts[0] == 0 and counts[1] > 0
    assert counts[1:] == [counts[1]] * 3


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cli_as_a_process(tmp_path, flags):
    # python -O strips assert statements, so these exits must come from raised errors
    files = {
        "cyc.poset": "a < b\nb < c\nc < a\n",
        "bad.poset": "this is not a poset line\n",
        "ab.poset": "a < b\n",
        "ab.emb": "width 1\na 1\nb 0\n",  # a's mask above b's
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])

    def finposet(*argv):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "finposet.cli", *argv], capture_output=True, text=True,
            timeout=60, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        )
        return done.returncode, done.stdout, done.stderr

    code, out, err = finposet("dim", "cyc.poset")
    assert (code, out) == (1, "") and "cycle" in err
    code, out, err = finposet("dim", "bad.poset")
    assert (code, out) == (2, "") and "unparseable line" in err
    assert finposet("verify", "ab.poset", "ab.emb") == (1, "valid false\n", "")
