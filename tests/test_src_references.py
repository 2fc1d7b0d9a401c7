"""No code that nothing in src/ calls.

Every public top-level function, class or assignment of a dynred module
must be referenced somewhere else in src/dynred: by a name, an attribute or
an import, outside its own definition. Every public method or property of a
top-level class must be referenced as an attribute, outside its own
definition. Mentions in docstrings or comments do not count. A name that
only tests or the benchmark use belongs on ALLOWED, with the reason it
stays; a method is listed as "Class.method".

A method named like a public attribute of a builtin type (get, copy,
update) cannot be told from the builtin's by its reads, which dict.get and
set.update make everywhere. It counts as referenced only when BUILTIN_NAMED
names a src/ function that calls it on an instance of its class.
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

BUILTIN_ATTRS = {name for t in (dict, list, set, frozenset, str, tuple, bytes, int)
                 for name in dir(t) if not name.startswith("_")}

# (module, "Class.method") -> (module, function) that calls it
BUILTIN_NAMED = {
    ("engines", "EngineState.update"): ("engines", "run_stage"),
    ("wrappers", "_WrapperBase.update"): ("verify", "wrapper_trace"),
    ("model", "Graph.copy"): ("engines", "EngineState.__init__"),
    ("model", "SetSystem.copy"): ("engines", "EngineState.__init__"),
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


def _function(tree: ast.Module, qualname: str) -> ast.AST | None:
    """The top-level function or "Class.method" of that name."""
    node = tree
    for part in qualname.split("."):
        node = next((n for n in node.body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n.name == part), None)
        if node is None:
            return None
    return node


def _calls(node: ast.AST, attr: str) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == attr for n in ast.walk(node))


def _named_reader_calls(modules, key: tuple[str, str]) -> bool:
    if key not in BUILTIN_NAMED:
        return False
    mod, qualname = BUILTIN_NAMED[key]
    reader = _function(modules[mod], qualname)
    return reader is not None and _calls(reader, key[1].split(".")[-1])


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
            if node.name.startswith("_"):
                continue
            key = (mod, f"{cls}.{node.name}")
            if node.name in BUILTIN_ATTRS:
                referenced = _named_reader_calls(modules, key)
            else:
                uses = [r for r in refs.get(node.name, ()) if isinstance(r, ast.Attribute)]
                referenced = not _only_inside(node, uses)
            if not referenced:
                found.add(key)
    return found


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced(_modules())
    assert unreferenced <= ALLOWED, sorted(unreferenced - ALLOWED)


def test_allow_list_is_current():
    """An allowed name that src/ now uses, or that is gone, leaves the list."""
    unreferenced = _unreferenced(_modules())
    assert ALLOWED <= unreferenced, sorted(ALLOWED - unreferenced)


def test_builtin_named_table_is_current():
    """Each entry names a method of src/ that shares a builtin attribute
    name."""
    methods = {(mod, f"{cls}.{node.name}")
               for mod, tree in _modules().items() for cls, node in _methods(tree)
               if node.name in BUILTIN_ATTRS}
    assert set(BUILTIN_NAMED) == methods, sorted(set(BUILTIN_NAMED) ^ methods)
