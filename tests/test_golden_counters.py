"""Golden answers and counters for every CLI reduction in every mode it
supports, on small fixed instances.

The counters are the paper"s cost model: a change to how an engine computes
a query may make it faster but must leave every answer and every count of
updates, queries, preprocess units and rollback ops exactly as recorded
here. A reduction or mode added to the CLI must add its rows.
"""

import json

import pytest

from dynred.cli import REDUCTIONS, main

INSTANCES = {
    "unsat5": (
        "p cnf 5 10\n1 3 5 0\n1 3 -5 0\n1 -3 5 0\n1 -3 -5 0\n-1 3 5 0\n"
        "-1 3 -5 0\n-1 -3 5 0\n-1 -3 -5 0\n1 2 0\n-2 4 0\n"
    ),
    "sat6": (
        "p cnf 6 8\n1 -2 0\n2 3 -4 0\n-1 5 0\n4 -6 0\n-3 6 0\n"
        "2 -5 6 0\n-1 -4 0\n3 4 0\n"
    ),
    "tri8": (
        "8 10 undirected\n0 4\n0 5\n1 4\n1 6\n2 5\n"
        "2 7\n3 6\n3 7\n5 7\n1 5\n"
    ),
    "bip8": (
        "8 10 undirected\n0 4\n0 5\n1 5\n1 6\n2 6\n"
        "2 7\n3 7\n3 4\n0 6\n1 7\n"
    ),
    "w6": (
        "6 9 undirected weighted\n0 1 3\n1 2 2\n0 2 4\n2 3 1\n3 4 5\n"
        "2 4 2\n4 5 1\n3 5 3\n0 5 7\n"
    ),
    "parts4": (
        "parts 4 4 2\nab 0 0\nab 0 2\nab 0 3\nab 1 3\nab 2 2\n"
        "ac 0 0\nac 0 3\nac 2 0\nac 2 1\nac 3 1\nbc 0 0\n"
        "bc 0 3\nbc 1 0\nbc 2 0\nbc 2 2\nbc 2 3\nbc 3 2\n"
        "bc 3 3\n"
    ),
}

# (reduction, mode, instance, answer, (preprocess_units, updates, queries,
#  rollback_ops))
GOLDEN = [
    ("ssr", "full", "unsat5", False, (41, 44, 4, 0)),
    ("ssr", "inc", "unsat5", False, (41, 22, 4, 22)),
    ("ssr", "dec", "unsat5", False, (51, 18, 4, 18)),
    ("ssr", "full", "sat6", True, (49, 52, 6, 0)),
    ("ssr", "inc", "sat6", True, (49, 26, 6, 26)),
    ("ssr", "dec", "sat6", True, (57, 22, 6, 22)),
    ("sc2", "full", "unsat5", False, (50, 116, 4, 0)),
    ("sc2", "inc", "unsat5", False, (50, 58, 4, 58)),
    ("sc2", "dec", "unsat5", False, (80, 62, 4, 62)),
    ("sc2", "full", "sat6", True, (58, 140, 6, 0)),
    ("sc2", "inc", "sat6", True, (58, 70, 6, 70)),
    ("sc2", "dec", "sat6", True, (82, 74, 6, 74)),
    ("appx-scc", "full", "unsat5", False, (126, 116, 4, 0)),
    ("appx-scc", "inc", "unsat5", False, (126, 58, 4, 58)),
    ("appx-scc", "dec", "unsat5", False, (156, 62, 4, 62)),
    ("appx-scc", "full", "sat6", True, (154, 140, 6, 0)),
    ("appx-scc", "inc", "sat6", True, (154, 70, 6, 70)),
    ("appx-scc", "dec", "sat6", True, (178, 74, 6, 74)),
    ("max-scc", "full", "unsat5", False, (49, 44, 4, 0)),
    ("max-scc", "inc", "unsat5", False, (49, 22, 4, 22)),
    ("max-scc", "dec", "unsat5", False, (59, 18, 4, 18)),
    ("max-scc", "full", "sat6", True, (57, 52, 6, 0)),
    ("max-scc", "inc", "sat6", True, (57, 26, 6, 26)),
    ("max-scc", "dec", "sat6", True, (65, 22, 6, 22)),
    ("st-reach", "full", "unsat5", False, (69, 24, 2, 0)),
    ("st-reach", "inc", "unsat5", False, (69, 12, 2, 12)),
    ("st-reach", "dec", "unsat5", False, (79, 8, 2, 8)),
    ("st-reach", "full", "sat6", True, (65, 36, 3, 0)),
    ("st-reach", "inc", "sat6", True, (65, 18, 3, 18)),
    ("st-reach", "dec", "sat6", True, (73, 6, 3, 6)),
    ("diam", "full", "unsat5", False, (102, 24, 2, 0)),
    ("diam", "inc", "unsat5", False, (102, 12, 2, 12)),
    ("diam", "dec", "unsat5", False, (112, 8, 2, 8)),
    ("diam", "full", "sat6", True, (94, 36, 3, 0)),
    ("diam", "inc", "sat6", True, (94, 18, 3, 18)),
    ("diam", "dec", "sat6", True, (102, 6, 3, 6)),
    ("subunion", "full", "unsat5", False, (30, 44, 4, 0)),
    ("subunion", "inc", "unsat5", False, (30, 22, 4, 22)),
    ("subunion", "dec", "unsat5", False, (30, 18, 4, 18)),
    ("subunion", "full", "sat6", True, (40, 52, 6, 0)),
    ("subunion", "inc", "sat6", True, (40, 26, 6, 26)),
    ("subunion", "dec", "sat6", True, (40, 22, 6, 22)),
    ("connsub", "full", "unsat5", False, (30, 44, 4, 0)),
    ("connsub", "inc", "unsat5", False, (30, 22, 4, 22)),
    ("connsub", "dec", "unsat5", False, (30, 18, 4, 18)),
    ("connsub", "full", "sat6", True, (40, 52, 6, 0)),
    ("connsub", "inc", "sat6", True, (40, 26, 6, 26)),
    ("connsub", "dec", "sat6", True, (40, 22, 6, 22)),
    ("empty-pp", "full", "unsat5", False, (74, 22, 4, 0)),
    ("empty-pp", "full", "sat6", True, (48, 26, 6, 0)),
    ("tri-streach", "full", "tri8", 2, (94, 10, 3, 0)),
    ("tri-streach", "inc", "tri8", 2, (94, 6, 3, 4)),
    ("tri-streach", "full", "bip8", None, (94, 32, 8, 0)),
    ("tri-streach", "inc", "bip8", None, (94, 16, 8, 16)),
    ("tri-streach-dec", "dec", "tri8", 2, (134, 12, 3, 6)),
    ("tri-streach-dec", "dec", "bip8", None, (134, 28, 8, 28)),
    ("tri-subconn", "full", "tri8", 2, (44, 24, 3, 0)),
    ("tri-subconn", "inc", "tri8", 2, (44, 14, 3, 10)),
    ("tri-subconn", "dec", "tri8", 2, (44, 34, 3, 22)),
    ("tri-subconn", "full", "bip8", None, (44, 80, 8, 0)),
    ("tri-subconn", "inc", "bip8", None, (44, 40, 8, 40)),
    ("tri-subconn", "dec", "bip8", None, (44, 88, 8, 88)),
    ("tri-5bpm", "full", "tri8", 2, (68, 24, 3, 0)),
    ("tri-5bpm", "inc", "tri8", 2, (52, 34, 3, 22)),
    ("tri-5bpm", "dec", "tri8", 2, (68, 14, 3, 10)),
    ("tri-5bpm", "full", "bip8", None, (68, 80, 8, 0)),
    ("tri-5bpm", "inc", "bip8", None, (52, 88, 8, 88)),
    ("tri-5bpm", "dec", "bip8", None, (68, 40, 8, 40)),
    ("tri-17bpm", "full", "tri8", 2, (156, 10, 3, 0)),
    ("tri-17bpm", "inc", "tri8", 2, (140, 42, 3, 28)),
    ("tri-17bpm", "dec", "tri8", 2, (156, 6, 3, 4)),
    ("tri-17bpm", "full", "bip8", None, (156, 32, 8, 0)),
    ("tri-17bpm", "inc", "bip8", None, (140, 112, 8, 112)),
    ("tri-17bpm", "dec", "bip8", None, (156, 16, 8, 16)),
    ("tri-empty-pp", "full", "tri8", True, (28, 6, 6, 0)),
    ("tri-empty-pp", "full", "bip8", False, (28, 10, 10, 0)),
    ("tri-pp", "full", "tri8", True, (22, 2, 6, 0)),
    ("tri-pp", "full", "bip8", False, (528, 16, 11, 0)),
    ("tri-split", "full", "tri8", [2, 5, 7], (0, 0, 0, 0)),
    ("tri-split", "full", "bip8", None, (0, 0, 0, 0)),
    ("mwt-stsp", "inc", "w6", 8, (80, 12, 6, 0)),
    ("mwt-stsp", "dec", "w6", 8, (92, 12, 6, 0)),
    ("mwt-bwm", "inc", "w6", 8, (80, 12, 6, 0)),
    ("mwt-bwm", "dec", "w6", 8, (92, 12, 6, 0)),
    ("3sum-listpairs", "full", "parts4",
     [[0, 0], [0, 2], [0, 3], [2, 2]],
     (35, 23, 14, 23)),
    ("3sum-listpairs", "dec", "parts4",
     [[0, 0], [0, 2], [0, 3], [2, 2]],
     (43, 46, 14, 46)),
    ("3sum-triangles", "full", "parts4",
     [[0, 0, 0], [0, 0, 3], [0, 2, 0], [0, 2, 3], [0, 3, 3], [2, 2, 0]],
     (35, 23, 14, 23)),
    ("3sum-triangles", "dec", "parts4",
     [[0, 0, 0], [0, 0, 3], [0, 2, 0], [0, 2, 3], [0, 3, 3], [2, 2, 0]],
     (43, 46, 14, 46)),
]


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    paths = {}
    for tag, text in INSTANCES.items():
        paths[tag] = d / tag
        paths[tag].write_text(text)
    return paths


def test_golden_table_covers_every_reduction_and_mode():
    covered = {(name, mode) for name, mode, *_ in GOLDEN}
    supported = {(name, mode) for name, entry in REDUCTIONS.items()
                 for mode in entry.modes}
    assert covered == supported


@pytest.mark.parametrize("name,mode,tag,answer,counters", GOLDEN,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in GOLDEN])
def test_golden_answer_and_counters(capsys, instance_files, name, mode, tag,
                                    answer, counters):
    code = main(["run", "--reduction", name, "--input",
                 str(instance_files[tag]), "--mode", mode, "--oracle-check"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["answer"] == answer
    assert tuple(report["counters"].values()) == counters
