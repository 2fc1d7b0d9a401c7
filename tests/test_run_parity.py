"""Byte-level parity of every CLI run on a seeded instance corpus.

`tests/data/run_parity.json` pins:
  - "runs": for every reduction x mode, `dynred run --oracle-check --seed 3`
    on seeded instances (CNF with n 2-10, two per n; graphs with n 3-14;
    weighted graphs with n 3-10; tripartite instances with n_c 1-8), with
    `--delta` unset and, where it applies, set (1/3 and 3/4 for CNF, 0 and
    3 for tripartite inputs);
  - "verify": `dynred verify --suite all --trials 3 --max-n 8` for seeds 0
    and 1.
Each entry is the sha256 of the exit code, the report without its
`elapsed_ms` and stderr with the input path masked. Of an exit-3
traceback only the last line is kept, as its line numbers move with any
edit. The golden counters and op sequences pin what a run spends; this
pins every byte it prints, on far more inputs. Regenerate the file only on
purpose:

    PYTHONPATH=src python tests/test_run_parity.py > tests/data/run_parity.json
"""

import hashlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dynred.cli import REDUCTIONS, main

RECORD = Path(__file__).with_name("data") / "run_parity.json"

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _cnf(seed: int, n: int, m: int) -> str:
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs))
    return f"p cnf {n} {m}\n" + "".join(c + " 0\n" for c in clauses)


def _graph(seed: int, n: int, p: float, *, weighted=False) -> str:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    head = f"{n} {len(edges)} undirected" + (" weighted" if weighted else "")
    body = "".join(f"{u} {v}" + (f" {rng.randint(1, 9)}" if weighted else "") + "\n"
                   for u, v in edges)
    return head + "\n" + body


def _parts(seed: int, n_c: int, side: int = 6, r: int = 2) -> str:
    rng = random.Random(seed)
    cap = -(-2 * n_c // r)  # the loader's degree cap
    cells = [(a, b) for a in range(side) for b in range(side)]
    lines = [f"parts {side} {n_c} {r}"]
    lines += [f"ab {a} {b}" for a, b in
              sorted(rng.sample(cells, rng.randint(1, 2 * n_c * r)))]
    for tag in ("ac", "bc"):
        for u in range(side):
            cs = rng.sample(range(n_c), rng.randint(0, min(cap, n_c)))
            lines += [f"{tag} {u} {c}" for c in sorted(cs)]
    return "\n".join(lines) + "\n"


def _instances() -> dict:
    """label -> (loader, text, the --delta values to run it with)."""
    out = {}
    for n in range(2, 11):
        for tag, m in (("a", n + 1), ("b", 4 * n)):
            out[f"cnf{n}{tag}"] = ("cnf", _cnf(100 * n + m, n, m),
                                   (None, "1/3", "3/4"))
    for n in range(3, 15):
        out[f"graph{n}"] = ("graph", _graph(200 + n, n, 0.35), (None,))
    for n in range(3, 11):
        out[f"wgraph{n}"] = ("wgraph", _graph(300 + n, n, 0.5, weighted=True),
                             (None,))
    for n_c in range(1, 9):
        out[f"parts{n_c}"] = ("tripartite", _parts(400 + n_c, n_c), (None, "0", "3"))
    return out


def _loader(name: str) -> str:
    return "wgraph" if name.startswith("mwt-") else REDUCTIONS[name].loader


def cases() -> list:
    """(key, reduction, mode, instance label, delta) for every run."""
    insts = _instances()
    return [(f"{name} {mode} {label} delta={delta}", name, mode, label, delta)
            for name in sorted(REDUCTIONS)
            for mode in REDUCTIONS[name].modes
            for label, (loader, _, deltas) in insts.items()
            if loader == _loader(name)
            for delta in deltas]


def _digest(code: int, out: str, err: str) -> str:
    if code == 3:  # the traceback's last line, then the CLI's own line
        err = "\n".join(err.splitlines()[-2:])
    text = f"{code}\n{_ELAPSED.sub('', out)}\n{err}"
    return hashlib.sha256(text.encode()).hexdigest()


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record_runs(tmp: Path) -> dict:
    insts = _instances()
    paths = {}
    for label, (_, text, _) in insts.items():
        paths[label] = tmp / label
        paths[label].write_text(text)
    runs = {}
    for key, name, mode, label, delta in cases():
        path = str(paths[label])
        argv = ["run", "--reduction", name, "--input", path, "--mode", mode,
                "--seed", "3", "--oracle-check"]
        if delta is not None:
            argv += ["--delta", delta]
        code, out, err = _main(argv)
        runs[key] = _digest(code, out, err.replace(path, "<input>"))
    return runs


def record_verify() -> dict:
    return {str(seed): _digest(*_main(["verify", "--suite", "all", "--trials", "3",
                                       "--max-n", "8", "--seed", str(seed)]))
            for seed in (0, 1)}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_record_covers_every_reduction_and_mode(recorded):
    assert sorted(recorded["runs"]) == sorted(c[0] for c in cases())
    pairs = {tuple(key.split()[:2]) for key in recorded["runs"]}
    assert pairs == {(name, mode) for name, entry in REDUCTIONS.items()
                     for mode in entry.modes}


def test_every_run_prints_the_recorded_bytes(tmp_path, recorded):
    now = record_runs(tmp_path)
    diff = sorted(k for k, v in now.items() if recorded["runs"].get(k) != v)
    assert not diff, f"{len(diff)} of {len(now)} runs differ, e.g. {diff[:5]}"


def test_verify_prints_the_recorded_bytes(recorded):
    assert record_verify() == recorded["verify"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        out = {"runs": record_runs(Path(d)), "verify": record_verify()}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
