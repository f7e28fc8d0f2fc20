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
    assert out == "size 0\nheight 0\n"
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
    monkeypatch.setitem(CHECKS, "never", lambda P: False)
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
