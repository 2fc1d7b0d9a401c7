import random

import pytest

from dynred import verify, wrappers
from dynred.engines import ProblemKind
from dynred.verify import (
    SUITE_NAMES,
    rollback_trace,
    run_suite,
    wrapper_trace,
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes(suite):
    trials = 2 if suite == "engines" else 4
    out = run_suite(suite, trials=trials, seed=1, max_n=8)
    assert out["ok"], out["violations"]
    assert out["violations"] == []
    assert out["properties"]
    assert out["suite"] == suite
    assert out["trials"] == trials
    for tally in out["properties"].values():
        assert tally["fail"] == 0
        assert tally["pass"] >= 1


def test_all_aggregates_subsuites():
    out = run_suite("all", trials=1, seed=3, max_n=6)
    assert set(out["suites"]) == set(SUITE_NAMES)
    assert out["ok"]
    assert all(s["ok"] for s in out["suites"].values())


def test_zero_trials_vacuous_with_warning():
    out = run_suite("seth", trials=0, seed=0, max_n=8)
    assert out["ok"]
    assert out["properties"] == {}
    assert "warning" in out
    assert "warning" in run_suite("all", trials=0, seed=0, max_n=8)


def test_summary_is_deterministic():
    a = run_suite("triangle", trials=3, seed=9, max_n=7)
    b = run_suite("triangle", trials=3, seed=9, max_n=7)
    assert a == b


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_suite("nope", trials=1, seed=0, max_n=8)
    with pytest.raises(ValueError):
        run_suite("seth", trials=-1, seed=0, max_n=8)


def test_failures_are_tallied_and_detailed(monkeypatch):
    def broken(rng, max_n):
        return [("always-bad", False, "boom"), ("fine", True, "")]

    monkeypatch.setitem(verify._TRIAL_FN, "seth", broken)
    out = run_suite("seth", trials=2, seed=0, max_n=8)
    assert not out["ok"]
    assert out["properties"]["always-bad"] == {"pass": 0, "fail": 2}
    assert out["properties"]["fine"] == {"pass": 2, "fail": 0}
    assert out["violations"][0] == "trial 0: always-bad: boom"


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_rollback_trace_restores_digest(kind):
    rng = random.Random(7)
    for _ in range(3):
        ok, detail = rollback_trace(kind, rng, 10)
        assert ok, detail


@pytest.mark.parametrize("name", [w.name for w in wrappers.WRAPPERS])
def test_wrapper_trace_agrees(name):
    rng = random.Random(11)
    for _ in range(3):
        ok, detail = wrapper_trace(name, rng, 9)
        assert ok, detail
