"""Tests for tripartite pair listing, probes, and the decremental adapter."""

import random

import pytest

from dynred.model import ConstructionError, DeleteEdge, DomainError, GuardError
from dynred.pair_listing import (
    OVERFLOW,
    DecrementalTraceAdapter,
    SubconnProbe,
    TripartiteInstance,
    brute_force_pairs,
    brute_force_triangles,
    dump_instance,
    gen_tripartite_instance,
    list_pairs,
    pairs_to_triangles,
    _ceil_log2,
    _derived_side,
)


def tiny_instance():
    # one C-node closes (a0, b0) but not (a0, b1)
    return TripartiteInstance(
        n_c=1, r=1, side=2,
        e_ab=frozenset({(0, 0), (0, 1)}),
        e_ac=frozenset({(0, 0)}),
        e_bc=frozenset({(0, 0)}),
        degree_cap=2, delta=4)


def _instances():
    out = []
    for seed in range(18):
        rng = random.Random(seed)
        out.append(gen_tripartite_instance(
            rng.choice([2, 4, 9, 16, 25]), rng.choice([1, 2, 3]),
            rng.choice([0.15, 0.4, 0.8]), seed))
    return out


INSTANCES = _instances()


def test_derived_side():
    assert _derived_side(16, 8) == 32
    assert _derived_side(2, 1) == 2
    assert _derived_side(4, 3) == 6


def test_generator_shape():
    inst = gen_tripartite_instance(16, 8, 0.5, 1)
    assert inst.side == 32
    assert inst.degree_cap == 4
    inst.validate()
    assert gen_tripartite_instance(16, 8, 0.5, 1) == inst  # reproducible


def test_generator_density_extremes():
    empty = gen_tripartite_instance(9, 2, 0.0, 3)
    assert not empty.e_ab and not empty.e_ac and not empty.e_bc
    full = gen_tripartite_instance(9, 2, 1.0, 3)
    probe = SubconnProbe(full)
    assert list_pairs(full, probe, delta=10 ** 6)[0] == brute_force_pairs(full)


def test_generator_guards():
    with pytest.raises(DomainError):
        gen_tripartite_instance(0, 1, 0.5, 0)
    with pytest.raises(DomainError):
        gen_tripartite_instance(4, 1, 1.5, 0)
    with pytest.raises(GuardError):
        gen_tripartite_instance(10 ** 4, 100, 0.5, 0)


def test_validate_rejects_cap_violations():
    bad = TripartiteInstance(n_c=4, r=4, side=2,
                             e_ac=frozenset({(0, 0), (0, 1), (0, 2)}),
                             degree_cap=2, delta=1)
    with pytest.raises(DomainError):
        bad.validate()
    out_of_range = TripartiteInstance(n_c=2, r=1, side=2,
                                      e_ab=frozenset({(0, 5)}),
                                      degree_cap=4, delta=1)
    with pytest.raises(DomainError):
        out_of_range.validate()


def test_loaded_side_is_checked_against_its_cap():
    from dynred.pair_listing import load_instance

    assert load_instance("parts 512 1 1\n").side == 512
    with pytest.raises(GuardError, match="side 513 exceeds 512"):
        load_instance("parts 513 1 1\n")


def test_dump_load_roundtrip():
    for inst in INSTANCES[:6]:
        assert load_instance_roundtrip(inst) == inst
    with pytest.raises(DomainError):
        from dynred.pair_listing import load_instance
        load_instance("ab 0 0\n")


def load_instance_roundtrip(inst):
    from dynred.pair_listing import load_instance
    text = dump_instance(inst)
    assert text.startswith(f"parts {inst.side} {inst.n_c} {inst.r}\n")
    return load_instance(text)


def test_probe_worked_example():
    inst = tiny_instance()
    probe = SubconnProbe(inst)
    assert probe.eng.query(StConnectedImport()) is False
    leaf = probe.levels
    assert probe.probe(0, leaf, 1) is True   # b0 shares c0
    assert probe.probe(0, leaf, 2) is False  # b1 has no C edge
    assert probe.probe(1, 0, 1) is False     # a1 has no neighbors


def StConnectedImport():
    from dynred.model import StConnected
    return StConnected()


def test_probe_costs():
    inst = tiny_instance()
    probe = SubconnProbe(inst)
    c = probe.counters
    before = (c.updates, c.queries, c.rollback_ops)
    probe.probe(1, 0, 1)  # no members: 1 query, no activations
    assert (c.updates, c.queries, c.rollback_ops) == (
        before[0], before[1] + 1, before[2])
    probe.probe(0, 0, 1)  # a plus two neighbors, rolled back
    assert (c.updates, c.queries, c.rollback_ops) == (
        before[0] + 3, before[1] + 2, before[2] + 3)


def test_block_sum_identity():
    inst = INSTANCES[0]
    probe = SubconnProbe(inst)
    deg = {}
    for a, b in inst.e_ab:
        deg[a] = deg.get(a, 0) + 1
    for a in range(inst.side):
        for i in range(probe.levels + 1):
            total = sum(len(probe.block_members(a, i, j))
                        for j in range(1, (1 << i) + 1))
            assert total == deg.get(a, 0)


def test_probe_domain_checks():
    probe = SubconnProbe(tiny_instance())
    with pytest.raises(DomainError):
        probe.probe(5, 0, 1)
    with pytest.raises(DomainError):
        probe.probe(0, probe.levels + 1, 1)
    with pytest.raises(DomainError):
        probe.probe(0, 0, 2)


def test_list_pairs_matches_brute_force():
    for inst in INSTANCES:
        probe = SubconnProbe(inst)
        got, _ = list_pairs(inst, probe, delta=10 ** 6)
        assert got == brute_force_pairs(inst)


def test_list_pairs_no_triangles_probe_count():
    inst = TripartiteInstance(
        n_c=2, r=2, side=3,
        e_ab=frozenset({(0, 1), (2, 2), (1, 0)}),
        e_ac=frozenset(), e_bc=frozenset({(0, 0), (1, 1)}),
        degree_cap=2, delta=5)
    probe = SubconnProbe(inst)
    got, c = list_pairs(inst, probe)
    assert got == []
    assert c.queries == inst.side  # one level-0 probe per a, nothing deeper


def test_list_pairs_overflow():
    inst = tiny_instance()
    probe = SubconnProbe(inst)
    got, _ = list_pairs(inst, probe, delta=0)
    assert got == OVERFLOW
    # fresh probe: delta 1 holds the single pair without overflow
    got, _ = list_pairs(inst, SubconnProbe(inst), delta=1)
    assert got == [(0, 0)]


def test_probe_call_bound():
    for inst in INSTANCES:
        probe = SubconnProbe(inst)
        got, c = list_pairs(inst, probe, delta=10 ** 6)
        assert got != OVERFLOW
        levels = _ceil_log2(inst.side)
        assert c.queries <= inst.side + 2 * len(got) * (levels + 1)


def test_activation_bound():
    for inst in INSTANCES:
        probe = SubconnProbe(inst)
        got, c = list_pairs(inst, probe, delta=10 ** 6)
        levels = _ceil_log2(inst.side)
        assert c.updates <= 2 * (levels + 1) * max(1, len(inst.e_ab))
        assert c.updates == c.rollback_ops  # every activation undone


def test_pairs_to_triangles():
    inst = tiny_instance()
    assert pairs_to_triangles(inst, [(0, 0)]) == [(0, 0, 0)]
    assert pairs_to_triangles(inst, []) == []
    two_c = TripartiteInstance(
        n_c=2, r=1, side=1,
        e_ab=frozenset({(0, 0)}),
        e_ac=frozenset({(0, 0), (0, 1)}),
        e_bc=frozenset({(0, 0), (0, 1)}),
        degree_cap=4, delta=4)
    assert pairs_to_triangles(two_c, [(0, 0)]) == [(0, 0, 0), (0, 0, 1)]
    for inst in INSTANCES[:8]:
        assert pairs_to_triangles(inst, brute_force_pairs(inst)) == \
            brute_force_triangles(inst)


def test_adapter_agrees_with_subconn_probe():
    rng = random.Random(11)
    checked = 0
    for inst in INSTANCES[:8]:
        sub = SubconnProbe(inst)
        adapter = DecrementalTraceAdapter(inst)
        levels = sub.levels
        for _ in range(15):
            a = rng.randrange(inst.side)
            i = rng.randint(0, levels)
            j = rng.randint(1, 1 << i)
            assert adapter.probe(a, i, j) == sub.probe(a, i, j), (a, i, j)
            checked += 1
    assert checked >= 100


def test_adapter_drives_list_pairs():
    for inst in INSTANCES[:8]:
        adapter = DecrementalTraceAdapter(inst)
        got, c = list_pairs(inst, adapter, delta=10 ** 6)
        assert got == brute_force_pairs(inst)
        assert c.updates == c.rollback_ops  # every deletion undone


def test_adapter_singleton_block_cost():
    inst = tiny_instance()
    adapter = DecrementalTraceAdapter(inst)
    c = adapter.counters
    before = c.updates
    adapter.probe(0, adapter.levels, 1)
    log = max(1, adapter.levels)
    assert c.updates - before <= 2 * 1 * log + 2 * log


def _reference_prune(adapter, nodes, kept_leaves, toward_root):
    """The O(leaves) walk the adapter used before it walked root paths: mark
    every slot above a kept leaf, then cut each edge from the root or a
    marked slot to an unmarked, non-dummy child, by parent slot."""
    leaves = adapter._tree_leaves
    kept = [False] * (2 * leaves)
    for x in kept_leaves:
        kept[leaves + x] = True
    for hh in range(leaves - 1, 0, -1):
        kept[hh] = kept[2 * hh] or kept[2 * hh + 1]
    deletions = []
    for hh in range(1, leaves):
        if not kept[hh] and hh != 1:
            continue
        for child in (2 * hh, 2 * hh + 1):
            dummy = child >= leaves and child - leaves >= adapter.inst.side
            if kept[child] or dummy:
                continue
            if kept[hh] or hh == 1:
                u, v = ((nodes[child], nodes[hh]) if toward_root
                        else (nodes[hh], nodes[child]))
                deletions.append(DeleteEdge(u, v))
    return deletions


@pytest.mark.parametrize("side", range(1, 65))
def test_prune_matches_the_full_tree_walk(side):
    rng = random.Random(f"prune/{side}")
    adapter = DecrementalTraceAdapter(TripartiteInstance(n_c=1, r=1, side=side))
    lay = adapter._layout
    for _ in range(40):
        kept = sorted(rng.sample(range(side), rng.randint(0, side)))
        for cuts, nodes, toward_root in ((adapter._s_cuts, lay.s_nodes, False),
                                         (adapter._t_cuts, lay.t_nodes, True)):
            assert adapter._prune(cuts, kept) == \
                _reference_prune(adapter, nodes, kept, toward_root)
