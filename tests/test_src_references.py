"""No code that nothing in src/ calls.

Every public top-level function, class or assignment of a dynred module
must be referenced somewhere else in src/dynred: by a name, an attribute or
an import, outside its own definition. Every public method or property of a
top-level class must be referenced as an attribute, outside its own
definition. Mentions in docstrings or comments do not count. A name that
only tests or the benchmark use belongs on ALLOWED, with the reason it
stays; a method is listed as "Class.method".
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dynred"

ALLOWED = {
    # the handwritten oracles that the tests check the engines against; the
    # verify suites use other oracles of the same module
    ("oracles", "all_st_reachable"),
    ("oracles", "diameter"),
    ("oracles", "has_short_augpath"),
    ("oracles", "induced_connected"),
    ("oracles", "max_scc_size"),
    ("oracles", "oracle_matching"),
    ("oracles", "reach_count"),
    ("oracles", "st_connected"),
    ("oracles", "st_distance"),
    ("oracles", "strongly_connected"),
    # bench/workloads.py draws its triangle-free graphs from it
    ("generators", "random_bipartite"),
    # the dict form of the kernel behind KAugFreeMatchingSize, which the
    # kernel tests compare with the oracle matching
    ("engines", "compute_kaug_free_matching"),
    # tests and bench/workloads.py write instance files with them
    ("model", "Graph.to_text"),
    ("model", "CnfFormula.to_text"),
    # argparse calls it on a usage error
    ("cli", "_Parser.error"),
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(name, node) for every top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target


def _methods(tree: ast.Module):
    """(class name, node) for every method and property of a top-level
    class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield cls.name, node


def _references(modules) -> dict[str, list[ast.AST]]:
    """Every Name, Attribute and imported alias in src, by the name it uses."""
    out: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                out.setdefault(node.name, []).append(node)
    return out


def _only_inside(node: ast.AST, uses) -> bool:
    own = {id(n) for n in ast.walk(node)}
    return all(id(r) in own for r in uses)


def _unreferenced(modules) -> set[tuple[str, str]]:
    refs = _references(modules)
    found = set()
    for mod, tree in modules.items():
        for name, node in _definitions(tree):
            if not name.startswith("_") and _only_inside(node, refs.get(name, ())):
                found.add((mod, name))
        for cls, node in _methods(tree):
            uses = [r for r in refs.get(node.name, ()) if isinstance(r, ast.Attribute)]
            if not node.name.startswith("_") and _only_inside(node, uses):
                found.add((mod, f"{cls}.{node.name}"))
    return found


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced(_modules())
    assert unreferenced <= ALLOWED, sorted(unreferenced - ALLOWED)


def test_allow_list_is_current():
    """An allowed name that src/ now uses, or that is gone, leaves the list."""
    unreferenced = _unreferenced(_modules())
    assert ALLOWED <= unreferenced, sorted(ALLOWED - unreferenced)
