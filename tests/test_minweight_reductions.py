"""Tests for the staged minimum-weight-triangle reductions."""

import random

import pytest

from dynred.generators import random_graph
from dynred.minweight_reductions import (
    build_stsp_gadget,
    min_weight_triangle_via_bwm,
    min_weight_triangle_via_stsp,
)
from dynred.model import DomainError, Graph, GuardError
from dynred.oracles import oracle_min_weight_triangle


def weighted_k3():
    g = Graph(3, weighted=True, max_weight=3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 2)
    g.add_edge(0, 2, 3)
    return g


def weighted_path(weights, max_weight=None):
    g = Graph(len(weights) + 1, weighted=True,
              max_weight=max_weight or max(weights))
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, w)
    return g


def _corpus():
    graphs = [weighted_k3(), weighted_path([1, 3, 2]), Graph(0, weighted=True),
              Graph(2, weighted=True, max_weight=5)]
    for seed in range(20):
        rng = random.Random(seed)
        graphs.append(random_graph(rng, rng.randint(2, 9),
                                   rng.choice([0.2, 0.4, 0.7]),
                                   weighted=True, max_weight=rng.randint(1, 10)))
    return graphs


CORPUS = _corpus()


def test_gadget_shape():
    h = build_stsp_gadget(weighted_k3())
    assert h.node_count == 14 and h.directed and h.weighted
    assert len(h.edges()) == 6 * 3 + 6
    assert h.weight(12, 0) == 9 and h.weight(12, 1) == 18 and h.weight(12, 2) == 27
    assert h.weight(0, 4) == 1 + 6
    assert len(build_stsp_gadget(weighted_k3(), anchors=False).edges()) == 18


def test_k3_worked_example():
    g = weighted_k3()
    stages = []
    best, c = min_weight_triangle_via_stsp(g, mode="dec", record_stages=stages)
    assert best == 6
    assert stages == [(1, 6), (2, 6), (3, 6)]  # stage-1 distance is 42
    assert (c.queries, c.updates) == (3, 6)
    stages = []
    best, c = min_weight_triangle_via_stsp(g, mode="inc", record_stages=stages)
    assert best == 6
    assert stages == [(3, 6), (2, 6), (1, 6)]
    assert (c.queries, c.updates) == (3, 6)


def test_triangle_free_path_returns_none():
    g = weighted_path([1, 3, 2])
    for mode in ("inc", "dec"):
        stages = []
        best, c = min_weight_triangle_via_stsp(g, mode=mode, record_stages=stages)
        assert best is None
        assert c.queries == g.node_count and c.updates == 2 * g.node_count
        for _, z in stages:
            assert z is None or z > 3 * g.max_weight


def test_mode_and_input_guards():
    g = weighted_k3()
    with pytest.raises(DomainError):
        min_weight_triangle_via_stsp(g, mode="full")
    with pytest.raises(DomainError):
        min_weight_triangle_via_stsp(Graph(3))
    with pytest.raises(DomainError):
        min_weight_triangle_via_stsp(Graph(3, directed=True, weighted=True))
    big = Graph(4, weighted=True, max_weight=1 << 61)
    with pytest.raises(GuardError):
        min_weight_triangle_via_stsp(big)


def test_matches_oracle_both_modes():
    for g in CORPUS:
        ref = oracle_min_weight_triangle(g)
        expected = None if ref is None else ref.weight
        for mode in ("inc", "dec"):
            best, c = min_weight_triangle_via_stsp(g, mode=mode)
            assert best == expected, (g.to_text(), mode)
            assert c.queries == g.node_count
            assert c.updates <= 2 * g.node_count


def test_stage_values_match_per_vertex_brute_force():
    for g in CORPUS[:10]:
        stages = []
        min_weight_triangle_via_stsp(g, mode="dec", record_stages=stages)
        cap = 3 * (g.max_weight or 1)
        for i, z in stages:
            v = i - 1
            nv = g.out_neighbors(v)
            per_vertex = [
                g.weight(v, a) + g.weight(v, b) + g.weight(a, b)
                for a in sorted(nv) for b in sorted(nv)
                if a < b and g.has_edge(a, b)
            ]
            if per_vertex:
                assert z == min(per_vertex), (g.to_text(), i)
            else:
                assert z is None or z > cap


def test_bwm_variant_agrees_with_direct():
    for g in CORPUS:
        for mode in ("inc", "dec"):
            direct, dc = min_weight_triangle_via_stsp(g, mode=mode)
            viabwm, wc = min_weight_triangle_via_bwm(g, mode=mode)
            assert viabwm == direct, (g.to_text(), mode)
            assert (wc.preprocess_units, wc.updates, wc.queries, wc.rollback_ops) == (
                dc.preprocess_units, dc.updates, dc.queries, dc.rollback_ops)
