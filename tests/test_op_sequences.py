"""The exact sequence of calls every CLI reduction makes on its engines.

`tests/data/op_sequences.json` pins, for every reduction x mode on two
seeded instances each, a digest of every call the engine handles receive:
each update and query with its type and fields in order, and each
checkpoint and rollback (restores included), tagged with the handle that
received it. Direct engines and wrappers are both recorded, so a wrapper's
translation shows too. The golden counters pin how many updates a run makes;
this pins which ones, and in what order (the KBPM answer depends on the
order, see ROADMAP item 4). Regenerate the file only on purpose:

    PYTHONPATH=src python tests/test_op_sequences.py > tests/data/op_sequences.json
"""

import dataclasses
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dynred import engines, wrappers
from dynred.cli import REDUCTIONS, main

DIGESTS = Path(__file__).with_name("data") / "op_sequences.json"


def _cnf(seed: int, n: int, m: int) -> str:
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), rng.randint(1, 3))
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs))
    return f"p cnf {n} {m}\n" + "".join(c + " 0\n" for c in clauses)


def _graph(seed: int, n: int, p: float, *, bipartite=False, weighted=False) -> str:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (not bipartite or (u < n // 2) != (v < n // 2)) and rng.random() < p]
    head = f"{n} {len(edges)} undirected" + (" weighted" if weighted else "")
    body = "".join(f"{u} {v}" + (f" {rng.randint(1, 9)}" if weighted else "") + "\n"
                   for u, v in edges)
    return head + "\n" + body


def _parts(seed: int, side: int, n_c: int, r: int) -> str:
    rng = random.Random(seed)
    cap = -(-2 * n_c // r)
    lines = [f"parts {side} {n_c} {r}"]
    ab = sorted(rng.sample([(a, b) for a in range(side) for b in range(side)],
                           2 * n_c * r))
    lines += [f"ab {a} {b}" for a, b in ab]
    for tag in ("ac", "bc"):
        for u in range(side):
            lines += [f"{tag} {u} {c}" for c in sorted(rng.sample(range(n_c), cap))]
    return "\n".join(lines) + "\n"


# two instances per loader: one that stops early, one that scans every stage
INSTANCES = {
    "cnf": {"a": _cnf(18, 8, 12), "b": _cnf(11, 8, 20)},
    "graph": {"a": _graph(48, 14, 0.16), "b": _graph(22, 14, 0.4, bipartite=True)},
    "wgraph": {"a": _graph(31, 9, 0.5, weighted=True),
               "b": _graph(32, 9, 0.6, weighted=True)},
    "tripartite": {"a": _parts(41, 8, 4, 2), "b": _parts(42, 8, 4, 2)},
}


def _loader(name: str, entry) -> str:
    return "wgraph" if name.startswith("mwt-") else entry.loader


CASES = [(name, mode, tag) for name, entry in sorted(REDUCTIONS.items())
         for mode in entry.modes for tag in ("a", "b")]


class _Recorder:
    """Replaces the call methods of direct engines and wrappers with ones
    that feed each call into a running digest before making it."""

    def __init__(self, monkeypatch):
        self.hash = hashlib.sha256()
        self.events = 0
        self._handles: dict[int, int] = {}
        self._cps: dict[int, int] = {}
        self._keep: list = []  # keeps recorded objects alive, so ids stay unique
        for cls in (engines.DirectEngine, wrappers._WrapperBase):
            for name in ("update", "query", "checkpoint", "rollback"):
                monkeypatch.setattr(cls, name, self._recording(name, getattr(cls, name)))

    def _id(self, table: dict, obj) -> int:
        if id(obj) not in table:
            table[id(obj)] = len(table)
            self._keep.append(obj)
        return table[id(obj)]

    def _recording(self, name, method):
        rec = self

        def call(handle, *args):
            event = [rec._id(rec._handles, handle), name]
            for arg in args:
                if dataclasses.is_dataclass(arg) and name != "rollback":
                    event += [type(arg).__name__] + [
                        getattr(arg, f.name) for f in dataclasses.fields(arg)]
                else:
                    event.append(rec._id(rec._cps, arg))
            result = method(handle, *args)
            if name == "checkpoint":
                event.append(rec._id(rec._cps, result))
            rec.hash.update(repr(event).encode())
            rec.events += 1
            return result
        return call


def _run(tmp_path, name: str, mode: str, tag: str) -> int:
    path = tmp_path / f"{name}-{mode}-{tag}"
    path.write_text(INSTANCES[_loader(name, REDUCTIONS[name])][tag])
    with redirect_stdout(io.StringIO()):
        return main(["run", "--reduction", name, "--input", str(path),
                     "--mode", mode])


def _record(tmp_path, monkeypatch, name, mode, tag) -> dict:
    rec = _Recorder(monkeypatch)
    code = _run(tmp_path, name, mode, tag)
    return {"exit": code, "events": rec.events, "sha256": rec.hash.hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_cases_cover_every_reduction_and_mode(recorded):
    assert sorted(recorded) == sorted(f"{n} {m} {t}" for n, m, t in CASES)


@pytest.mark.parametrize("name,mode,tag", CASES,
                         ids=[f"{n}-{m}-{t}" for n, m, t in CASES])
def test_engine_calls_match_the_recorded_sequence(tmp_path, monkeypatch, recorded,
                                                  name, mode, tag):
    assert _record(tmp_path, monkeypatch, name, mode, tag) == \
        recorded[f"{name} {mode} {tag}"]


if __name__ == "__main__":
    import tempfile

    out = {}
    with tempfile.TemporaryDirectory() as d:
        for name, mode, tag in CASES:
            mp = pytest.MonkeyPatch()
            try:
                out[f"{name} {mode} {tag}"] = _record(Path(d), mp, name, mode, tag)
            finally:
                mp.undo()
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
