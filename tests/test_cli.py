import json
import random

import pytest

from dynred import limits
from dynred.cli import REDUCTIONS, main
from dynred.generators import random_graph
from dynred.model import Graph
from dynred.pair_listing import dump_instance, gen_tripartite_instance


def k3_text():
    return "3 3 undirected\n0 1\n1 2\n0 2\n"


def weighted_k3_text():
    return "3 3 undirected weighted\n0 1 1\n1 2 2\n0 2 3\n"


UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"
SAT_CNF = "p cnf 2 2\n1 2 0\n-1 2 0\n"


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.graph"
    p.write_text(k3_text())
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_run_triangle_with_oracle(capsys, k3_file):
    code, rep = run_cli(capsys, "run", "--reduction", "tri-streach",
                        "--input", k3_file, "--oracle-check")
    assert code == 0
    assert rep["answer"] == 0
    assert rep["oracle_answer"] == 0
    assert rep["mode"] == "full"
    assert rep["seed"] == 0
    assert list(rep["counters"]) == ["preprocess_units", "updates",
                                     "queries", "rollback_ops"]


def test_run_sat_unsat_formula(capsys, tmp_path):
    p = tmp_path / "unsat.cnf"
    p.write_text(UNSAT_CNF)
    code, rep = run_cli(capsys, "run", "--reduction", "ssr",
                        "--input", str(p), "--delta", "1/2",
                        "--oracle-check")
    assert code == 0
    assert rep["answer"] is False
    assert rep["oracle_answer"] is False


def test_unknown_reduction_exits_64(capsys, k3_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--reduction", "nosuch", "--input", k3_file])
    assert err.value.code == 64


def test_missing_file_exits_1(capsys):
    code, _ = run_cli(capsys, "run", "--reduction", "tri-streach",
                      "--input", "/nonexistent.graph")
    assert code == 1


def test_malformed_input_exits_1(capsys, tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("not a header\n")
    code, _ = run_cli(capsys, "run", "--reduction", "tri-streach",
                      "--input", str(p))
    assert code == 1


def test_unsupported_mode_exits_1(capsys, k3_file):
    code, _ = run_cli(capsys, "run", "--reduction", "tri-streach",
                      "--input", k3_file, "--mode", "dec")
    assert code == 1


def test_every_reduction_runs_clean(capsys, tmp_path):
    rng = random.Random(5)
    g = random_graph(rng, 6, 0.5)
    wg = random_graph(rng, 6, 0.5, weighted=True, max_weight=5)
    inst = gen_tripartite_instance(4, 2, 0.5, seed=9)
    paths = {
        "cnf": tmp_path / "f.cnf",
        "graph": tmp_path / "g.graph",
        "tripartite": tmp_path / "t.inst",
    }
    paths["cnf"].write_text(SAT_CNF)
    paths["tripartite"].write_text(dump_instance(inst))
    for name, entry in sorted(REDUCTIONS.items()):
        if entry.loader == "graph":
            needs_weights = name.startswith("mwt")
            paths["graph"].write_text(
                wg.to_text() if needs_weights else g.to_text())
        for mode in entry.modes:
            code, rep = run_cli(
                capsys, "run", "--reduction", name,
                "--input", str(paths[entry.loader]),
                "--mode", mode, "--oracle-check")
            assert code == 0, (name, mode)
            assert rep["reduction"] == name
            assert rep["mode"] == mode


def test_mismatch_exit_code_is_2(capsys, k3_file, monkeypatch):
    import dataclasses

    entry = dataclasses.replace(REDUCTIONS["tri-streach"],
                                oracle=lambda g, ctx: 999)
    monkeypatch.setitem(REDUCTIONS, "tri-streach", entry)
    code, rep = run_cli(capsys, "run", "--reduction", "tri-streach",
                        "--input", k3_file, "--oracle-check")
    assert code == 2
    assert rep["answer"] == 0
    assert rep["oracle_answer"] == 999


def test_reports_are_deterministic_modulo_elapsed(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(random_graph(random.Random(3), 8, 0.4).to_text())
    reps = []
    for _ in range(2):
        code, rep = run_cli(capsys, "run", "--reduction", "tri-pp",
                            "--input", str(p), "--seed", "42",
                            "--oracle-check")
        assert code == 0
        rep.pop("elapsed_ms")
        reps.append(rep)
    assert reps[0] == reps[1]


def test_pair_cap_overflow_is_reported(capsys, tmp_path):
    inst = gen_tripartite_instance(4, 2, 0.9, seed=1)
    p = tmp_path / "t.inst"
    p.write_text(dump_instance(inst))
    code, rep = run_cli(capsys, "run", "--reduction", "3sum-listpairs",
                        "--input", str(p), "--delta", "0", "--oracle-check")
    assert rep["answer"] == "overflow"
    assert code == 0  # overflow is the correct answer above the cap


def test_listing_decremental_backend(capsys, tmp_path):
    inst = gen_tripartite_instance(4, 2, 0.5, seed=3)
    p = tmp_path / "t.inst"
    p.write_text(dump_instance(inst))
    a = run_cli(capsys, "run", "--reduction", "3sum-listpairs",
                "--input", str(p), "--mode", "full", "--oracle-check")
    b = run_cli(capsys, "run", "--reduction", "3sum-listpairs",
                "--input", str(p), "--mode", "dec", "--oracle-check")
    assert a[0] == b[0] == 0
    assert a[1]["answer"] == b[1]["answer"]


def test_fractional_pair_cap_exits_1(capsys, tmp_path):
    inst = gen_tripartite_instance(2, 1, 0.5, seed=0)
    p = tmp_path / "t.inst"
    p.write_text(dump_instance(inst))
    code, _ = run_cli(capsys, "run", "--reduction", "3sum-listpairs",
                      "--input", str(p), "--delta", "1/2")
    assert code == 1


def test_verify_subcommand_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "triangle",
                        "--trials", "2", "--seed", "4", "--max-n", "7")
    assert code == 0
    assert out["ok"]
    assert out["suite"] == "triangle"


def test_verify_zero_trials_warns(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "seth", "--trials", "0")
    assert code == 0
    assert "warning" in out


def test_verify_bad_suite_exits_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "bogus"])
    assert err.value.code == 64


def test_verify_negative_trials_exits_64(capsys):
    code = main(["verify", "--suite", "seth", "--trials", "-3"])
    assert code == 64


def test_verify_guard_trip_exits_1_as_bad_input(capsys, monkeypatch):
    # a verify instance past the dense-buffer cap is bad input, as in `run`
    monkeypatch.setattr(limits, "MAX_DENSE_CELLS", 16)
    code = main(["verify", "--suite", "engines", "--trials", "1", "--max-n", "12"])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeds the dense-buffer cap" in err
    assert "internal error" not in err


def test_non_utf8_input_exits_1_as_unreadable(capsys, tmp_path):
    p = tmp_path / "bad.graph"
    p.write_bytes(b"\xff\xfe3 3 undirected\n")
    code = main(["run", "--reduction", "tri-streach", "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"cannot read {p}" in err
    assert "internal error" not in err


@pytest.mark.parametrize("name,text,message", [
    ("3sum-listpairs", "parts 513 1 1\n", "side 513 exceeds 512"),
    ("tri-streach", "11 0 undirected\n", "header declares 11 nodes"),
], ids=["tripartite-side", "graph-header"])
def test_declared_sizes_over_their_caps_exit_1(capsys, tmp_path, monkeypatch,
                                              name, text, message):
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "10")
    p = tmp_path / "in.txt"
    p.write_text(text)
    code = main(["run", "--reduction", name, "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert "Traceback" not in err


def test_weighted_graph_required_for_mwt(capsys, k3_file):
    code, _ = run_cli(capsys, "run", "--reduction", "mwt-stsp",
                      "--input", k3_file)
    assert code == 1


@pytest.mark.parametrize("name,text,extra,message", [
    ("ssr", SAT_CNF, ["--delta", "abc"], "--delta 'abc' is not a fraction"),
    ("ssr", SAT_CNF, ["--delta", "1/0"], "--delta '1/0' is not a fraction"),
    ("3sum-listpairs", "parts 2 1 0\n", [], "needs n_c and r >= 1"),
], ids=["delta-text", "delta-zero-denominator", "parts-r-zero"])
def test_bad_delta_and_header_exit_1_as_domain_errors(capsys, tmp_path, name,
                                                     text, extra, message):
    p = tmp_path / "in.txt"
    p.write_text(text)
    code = main(["run", "--reduction", name, "--input", str(p)] + extra)
    err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(n for n, e in REDUCTIONS.items()
                                         if e.loader == "graph"))
def test_graph_reductions_reject_delta(capsys, tmp_path, name):
    p = tmp_path / "in.graph"
    p.write_text(weighted_k3_text() if name.startswith("mwt") else k3_text())
    code = main(["run", "--reduction", name, "--input", str(p),
                 "--delta", "1/3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"--delta does not apply to {name}" in captured.err
    assert "Traceback" not in captured.err


def test_delta_is_rejected_exactly_by_tri_and_mwt():
    graph = {n for n, e in REDUCTIONS.items() if e.loader == "graph"}
    assert graph == {n for n in REDUCTIONS if n.startswith(("tri-", "mwt-"))}


def test_internal_error_exits_3_with_traceback(capsys, tmp_path, monkeypatch):
    import dataclasses

    from dynred.model import ConstructionError

    def broken(f, mode, ctx):
        raise ConstructionError("gadget broke its own invariant")

    entry = dataclasses.replace(REDUCTIONS["ssr"], run=broken)
    monkeypatch.setitem(REDUCTIONS, "ssr", entry)
    p = tmp_path / "f.cnf"
    p.write_text(SAT_CNF)
    code = main(["run", "--reduction", "ssr", "--input", str(p)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "ConstructionError: gadget broke its own invariant" in captured.err


def test_state_error_inside_a_run_exits_3(capsys, k3_file, monkeypatch):
    """Loaders turn their own StateError into ParseError, so one raised
    inside a run is a fault of the program, not of the input."""
    from dynred import triangle_reductions

    build = triangle_reductions.build_5bpm_gadget

    def broken(g, **kw):
        h = build(g, **kw)
        h.add_edge(g.node_count, 0)  # a second copy of a pair edge
        return h

    monkeypatch.setattr(triangle_reductions, "build_5bpm_gadget", broken)
    code = main(["run", "--reduction", "tri-5bpm", "--input", k3_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "StateError: duplicate edge" in captured.err


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["run", "--help"], 0),
    (["run", "--reduction", "nosuch", "--input", "x.cnf"], 64),
    (["verify", "--trials", "many"], 64),
])
def test_parser_reused_across_calls_answers_alike(capsys, argv, code):
    """The parser is built once per process; a second call must print the
    same help or usage error and exit with the same code."""
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        seen.append((err.value.code, capsys.readouterr()))
    assert seen[0][0] == seen[1][0] == code
    assert seen[0][1] == seen[1][1]
    assert (seen[0][1].out if code == 0 else seen[0][1].err).startswith("usage: dynred")
