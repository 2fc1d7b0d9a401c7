"""The dense query buffers are capped.

The diameter query fills an n x n matrix and the max-weight perfect
matching query a left x right cost matrix. Past limits.MAX_DENSE_CELLS
cells either query raises GuardError before allocating, is not counted,
and the CLI reports it as bad input (exit 1).
"""

import pytest

from dynred import limits
from dynred.cli import main
from dynred.engines import EngineState, Mode, ProblemKind
from dynred.model import Diameter, Graph, GuardError, MaxWeightPmWeight


def _cycle(n, **kw):
    g = Graph(n, **kw)
    for v in range(n):
        g.add_edge(v, (v + 1) % n, 1 if kw.get("weighted") else None)
    return g


@pytest.mark.parametrize("kind,query,g,cells", [
    (ProblemKind.DIAMETER, Diameter(), _cycle(6), 36),
    (ProblemKind.BWMATCH, MaxWeightPmWeight(),
     _cycle(6, weighted=True, max_weight=3), 9),
], ids=["diameter", "bwmatch"])
def test_query_past_the_cap_raises_and_is_not_counted(monkeypatch, kind, query,
                                                      g, cells):
    state = EngineState(kind, Mode.FULL, g)
    monkeypatch.setattr(limits, "MAX_DENSE_CELLS", cells - 1)
    with pytest.raises(GuardError, match="dense-buffer cap"):
        state.query(query)
    assert state.counters.queries == 0
    monkeypatch.setattr(limits, "MAX_DENSE_CELLS", cells)
    assert state.query(query) == 3
    assert state.counters.queries == 1


@pytest.mark.parametrize("name,text", [
    ("diam", "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"),
    ("mwt-bwm", "3 3 undirected weighted\n0 1 1\n1 2 2\n0 2 3\n"),
], ids=["diam", "mwt-bwm"])
def test_cli_exits_1_on_a_capped_buffer(capsys, tmp_path, monkeypatch, name,
                                        text):
    p = tmp_path / "instance.txt"
    p.write_text(text)
    monkeypatch.setattr(limits, "MAX_DENSE_CELLS", 1)
    assert main(["run", "--reduction", name, "--input", str(p)]) == 1
    assert "dense-buffer cap" in capsys.readouterr().err
