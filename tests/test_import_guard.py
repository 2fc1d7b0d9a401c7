"""numpy and scipy stay out of processes that do not need them.

Importing the CLI and verify must load neither, a `dynred run` of a
matching reduction must load no scipy, and a short `dynred run` of an SCC
reduction, whose queries scan fewer edges than the csgraph import budget,
must not import scipy.sparse.csgraph. Runs whose queries call no numpy
kernel (`ssr`, `tri-pp`, `3sum-listpairs`) load neither; a `diam` run,
whose query is a numpy kernel, loads numpy but no scipy. Nor does a run or
a verify suite that needs no scipy load OpenSSL's `_hashlib`: digests come
from the builtin SHA-256, which must agree with hashlib's. Each check runs
in a fresh interpreter, since the test process itself may have imported
numpy and scipy already.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dynred
from dynred import engines
from dynred.generators import random_bipartite, random_cnf
from dynred.pair_listing import dump_instance, gen_tripartite_instance

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


def test_importing_cli_and_verify_loads_no_numpy():
    got = _fresh("import sys, json\n"
                 "import dynred.cli, dynred.verify\n"
                 "print(json.dumps(sorted(m for m in sys.modules"
                 " if m.startswith('numpy'))))")
    assert got == []


def _run_loads(path, reduction: str) -> dict:
    """A fresh `dynred run` of reduction on path: its exit code, query
    count, and whether numpy and scipy were loaded."""
    return _fresh(
        "import sys, json, io, contextlib\n"
        "from dynred import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main(['run', '--reduction', {reduction!r},"
        f" '--input', {str(path)!r}, '--mode', 'full'])\n"
        "print(json.dumps({'code': code,"
        " 'queries': json.loads(out.getvalue())['counters']['queries'],"
        " 'numpy': 'numpy' in sys.modules,"
        " 'scipy': any(m.startswith('scipy') for m in sys.modules)}))")


def _instance(tmp_path, reduction: str):
    if reduction in ("ssr", "diam"):
        path, text = tmp_path / "f.cnf", random_cnf(random.Random(3), 6, 12).to_text()
    elif reduction == "tri-pp":
        path = tmp_path / "g.graph"
        text = random_bipartite(random.Random(4), 10, 10, 0.3).to_text()
    else:
        path = tmp_path / "t.inst"
        text = dump_instance(gen_tripartite_instance(4, 2, 0.5, seed=9))
    path.write_text(text)
    return path


@pytest.mark.parametrize("reduction", ["ssr", "tri-pp", "3sum-listpairs"])
def test_runs_without_numpy_kernels_load_neither(tmp_path, reduction):
    got = _run_loads(_instance(tmp_path, reduction), reduction)
    assert got["code"] == 0
    assert got["queries"] > 0
    assert (got["numpy"], got["scipy"]) == (False, False)


def test_diameter_run_loads_numpy_but_no_scipy(tmp_path):
    got = _run_loads(_instance(tmp_path, "diam"), "diam")
    assert got["code"] == 0
    assert got["queries"] > 0
    assert (got["numpy"], got["scipy"]) == (True, False)


def _hashlib_loaded(argv) -> dict:
    """A fresh `dynred` CLI call of argv: its exit code, and whether OpenSSL's
    hashing module was loaded."""
    return _fresh(
        "import sys, json, io, contextlib\n"
        "from dynred import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, '_hashlib': '_hashlib' in sys.modules}))")


@pytest.mark.parametrize("reduction", ["ssr", "tri-pp", "3sum-listpairs"])
def test_runs_load_no_openssl(tmp_path, reduction):
    path = _instance(tmp_path, reduction)
    got = _hashlib_loaded(["run", "--reduction", reduction, "--input", str(path),
                           "--mode", "full"])
    assert got == {"code": 0, "_hashlib": False}


def test_verify_loads_no_openssl():
    got = _hashlib_loaded(["verify", "--suite", "seth", "--trials", "2", "--max-n", "6"])
    assert got == {"code": 0, "_hashlib": False}


@pytest.mark.parametrize("size", [0, 3, 64 * 1024 + 7])
def test_lean_sha256_matches_hashlib(size):
    import hashlib

    from dynred import model

    data = bytes(random.Random(size).getrandbits(8) for _ in range(size))
    assert model.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
