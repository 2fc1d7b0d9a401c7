"""scipy stays out of processes that do not need it.

Importing the CLI and verify must load no scipy module, a `dynred run` of
a matching reduction must load none either, and a short `dynred run` of an
SCC reduction, whose queries scan fewer edges than the csgraph import
budget, must not import scipy.sparse.csgraph. Each check runs in a fresh
interpreter, since the test process itself may have imported scipy already.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import dynred
from dynred import engines
from dynred.generators import random_bipartite, random_cnf

SRC = str(Path(dynred.__file__).resolve().parent.parent)


def _fresh(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_importing_cli_and_verify_loads_no_scipy():
    got = _fresh("import sys, json\n"
                 "import dynred.cli, dynred.verify\n"
                 "print(json.dumps(sorted(m for m in sys.modules"
                 " if m.startswith('scipy'))))")
    assert got == []


def test_short_scc_run_stays_under_the_import_budget(tmp_path):
    formula = random_cnf(random.Random(8), 13, 48)
    path = tmp_path / "f.cnf"
    path.write_text(formula.to_text())
    got = _fresh(
        "import sys, json, io, contextlib\n"
        "from dynred import cli, engines\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main(['run', '--reduction', 'appx-scc', '--input', {str(path)!r},"
        " '--mode', 'full'])\n"
        "print(json.dumps({'code': code,"
        " 'queries': json.loads(out.getvalue())['counters']['queries'],"
        " 'spent': engines.SCC_IMPORT_BUDGET_EDGES - engines._scc_budget_left,"
        " 'csgraph': 'scipy.sparse.csgraph' in sys.modules}))")
    assert got["code"] == 0
    assert got["queries"] > 1
    # the gadget is above the cutoff, so the run spent part of the budget
    assert 0 < got["spent"] < engines.SCC_IMPORT_BUDGET_EDGES
    assert got["csgraph"] is False


def test_matching_run_loads_no_scipy(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(random_bipartite(random.Random(5), 8, 8, 0.3).to_text())
    got = _fresh(
        "import sys, json, io, contextlib\n"
        "from dynred import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main(['run', '--reduction', 'tri-17bpm', '--input', {str(path)!r},"
        " '--mode', 'full'])\n"
        "print(json.dumps({'code': code,"
        " 'queries': json.loads(out.getvalue())['counters']['queries'],"
        " 'scipy': sorted(m for m in sys.modules if m.startswith('scipy'))}))")
    assert got == {"code": 0, "queries": 16, "scipy": []}
