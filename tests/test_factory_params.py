"""Where an engine factory is taken.

A reduction builds the DirectEngine it drives. A parameter that takes an
engine factory (named `factory` or ending in `_factory`) stays only where a
caller substitutes an engine, and each such place is listed here with its
caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dynred"

TAKES_A_FACTORY = {
    # the connsub reduction runs it over SubunionViaConnsub
    "sat_via_subunion",
    # min_weight_triangle_via_bwm runs it over StspViaBwm
    "min_weight_triangle_via_stsp",
    # tests record the deletions of a run through a substitute handle
    "triangle_via_streach_decremental",
    # inner_factory stacks one wrapper over another
    "_WrapperBase.__init__",
}


def _functions(body, prefix=""):
    """(qualified name, node) for every function, methods included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _factory_takers() -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text()).body):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            if any(p.arg == "factory" or p.arg.endswith("_factory") for p in params):
                found.add(name)
    return found


def test_factories_are_taken_only_where_a_caller_substitutes_an_engine():
    assert _factory_takers() == TAKES_A_FACTORY
