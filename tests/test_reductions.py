import dataclasses
import json
import random

import pytest

from dynred import cli, reductions, verify
from dynred.cli import main
from dynred.model import Graph, GuardError
from dynred.reductions import REDUCTIONS, anchor_oracle


def test_cli_reads_the_shared_table():
    assert cli.REDUCTIONS is reductions.REDUCTIONS


def test_default_mode_is_full_where_supported_else_dec(capsys, tmp_path):
    plain, weighted = tmp_path / "k3.graph", tmp_path / "wk3.graph"
    plain.write_text("3 3 undirected\n0 1\n1 2\n0 2\n")
    weighted.write_text("3 3 undirected weighted\n0 1 1\n1 2 2\n0 2 3\n")
    for name, entry in REDUCTIONS.items():
        if entry.loader != "graph":
            continue
        path = weighted if name.startswith("mwt-") else plain
        assert main(["run", "--reduction", name, "--input", str(path)]) == 0
        mode = json.loads(capsys.readouterr().out)["mode"]
        want = "dec" if name in ("mwt-stsp", "mwt-bwm", "tri-streach-dec") else "full"
        assert mode == want, name


def _properties(trial, seeds):
    return {prop for s in seeds
            for prop, _, _ in trial(random.Random(s), 12)}


def test_every_cnf_entry_is_checked_by_the_seth_suite():
    # union over a few seeds: two-block reductions need a formula with n >= 2
    props = _properties(verify.seth_trial, range(4))
    cnf = {n for n, e in REDUCTIONS.items() if e.loader == "cnf"}
    assert len(cnf) == 9
    assert {f"answer:{n}" for n in cnf} <= props


def test_every_anchor_entry_is_checked_by_the_triangle_suite():
    props = _properties(verify.triangle_trial, range(2))
    anchors = {n for n, e in REDUCTIONS.items() if e.oracle is anchor_oracle}
    assert anchors == {"tri-streach", "tri-streach-dec", "tri-subconn",
                       "tri-5bpm", "tri-17bpm"}
    assert {f"anchor:{n}" for n in anchors} <= props


def test_suites_call_the_entry_in_the_table_at_call_time(monkeypatch):
    calls = []

    def fake(f, mode, ctx):
        calls.append(mode)
        return "swapped", None

    monkeypatch.setitem(REDUCTIONS, "ssr",
                        dataclasses.replace(REDUCTIONS["ssr"], run=fake))
    checks = verify.seth_trial(random.Random(0), 12)
    assert calls == ["full", "inc", "dec"]
    ssr = [(ok, detail) for prop, ok, detail in checks if prop == "answer:ssr"]
    assert len(ssr) == 3
    assert all(not ok and "got=swapped" in detail for ok, detail in ssr)


GRAPH_RUNS = [(name, mode) for name, entry in sorted(REDUCTIONS.items())
              if entry.loader == "graph" for mode in entry.modes]


def test_no_graph_is_built_past_the_state_cap(capsys, tmp_path, monkeypatch):
    """Every Graph, gadget hosts included, is refused before it allocates."""
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "40")
    built = []
    init = Graph.__init__

    def recording(self, node_count, **kw):
        init(self, node_count, **kw)
        built.append(node_count)

    monkeypatch.setattr(Graph, "__init__", recording)
    plain, weighted = tmp_path / "plain.graph", tmp_path / "weighted.graph"
    plain.write_text("12 0 undirected\n")
    weighted.write_text("12 0 undirected weighted\n")
    capped = set()
    for name, mode in GRAPH_RUNS:
        path = weighted if name.startswith("mwt-") else plain
        code = main(["run", "--reduction", name, "--input", str(path),
                     "--mode", mode])
        err = capsys.readouterr().err
        assert code in (0, 1), (name, mode, err)
        assert "Traceback" not in err
        if "exceed the state cap" in err:
            capped.add(name)
    assert built and max(built) <= 40
    assert {"tri-5bpm", "tri-17bpm", "tri-streach", "mwt-stsp"} <= capped


def test_graph_over_the_cap_raises_guard_error(monkeypatch):
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "40")
    Graph(40)
    with pytest.raises(GuardError, match="41 nodes exceed the state cap"):
        Graph(41)
