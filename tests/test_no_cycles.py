"""No run leaves cyclic garbage: each is freed by reference counting.

A run that keeps its engine, graph or op lists in a reference cycle (a
closure that calls itself, say) holds them until the cyclic collector
happens to run. Every reduction in each of its modes, run in-process
through `cli.main` on a small seeded instance, and one trial of each
verify suite must leave `gc.garbage` empty under `gc.DEBUG_SAVEALL`. Each
case runs once unmeasured first, so that imports and per-process caches
are not counted.
"""

import contextlib
import gc
import io
import random

import pytest

from dynred import cli
from dynred.generators import random_cnf, random_graph
from dynred.pair_listing import dump_instance, gen_tripartite_instance
from dynred.reductions import REDUCTIONS
from dynred.verify import SUITE_NAMES, run_suite


def _instance_text(name: str) -> str:
    loader = REDUCTIONS[name].loader
    if loader == "cnf":
        return random_cnf(random.Random(3), 6, 14).to_text()
    if loader == "tripartite":
        return dump_instance(gen_tripartite_instance(4, 2, 0.5, seed=9))
    weighted = name.startswith("mwt-")
    return random_graph(random.Random(4), 8, 0.4, weighted=weighted).to_text()


def _garbage_after(fn) -> list:
    """What fn leaves for the cyclic collector, fn having run once before."""
    fn()
    flags = gc.get_debug()
    gc.collect()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        fn()
        gc.collect()
        return [type(o).__qualname__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("name,mode", [(name, mode)
                                       for name in sorted(REDUCTIONS)
                                       for mode in REDUCTIONS[name].modes])
def test_run_leaves_no_cyclic_garbage(tmp_path, name, mode):
    path = tmp_path / "instance"
    path.write_text(_instance_text(name))
    argv = ["run", "--reduction", name, "--input", str(path), "--mode", mode,
            "--oracle-check"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    assert _garbage_after(run) == []


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_trial_leaves_no_cyclic_garbage(suite):
    def trial():
        assert run_suite(suite, trials=1, seed=5, max_n=8)["ok"]

    assert _garbage_after(trial) == []
