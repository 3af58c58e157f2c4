"""Every public top-level name in `src/boxgas` has a user outside the tests.

A public function or class (no leading underscore) must be named, as a
variable or an attribute, somewhere in `src/` or `bench/` outside its own
definition, or be a name that `perfbench/tracer.py` traces (`TARGETS`).
Reference implementations and test-only helpers live under `tests/`.  The
names kept for a planned use are in `ALLOWED`, each with the ROADMAP item
that will use it; an allowed name must still exist and still have no other
user, so the list shrinks as those items land.
"""
import ast
from pathlib import Path

from test_benchmark_names import load_tracer

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "boxgas").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

# name -> the ROADMAP item that will use it
ALLOWED = {
    "coarse_window": "items 5 and 14: the dense-spectrum scan in bench/",
    "coarse_grained_check": "items 5 and 14: the dense-spectrum scan in bench/",
    "scaling_exponent": "item 5: the dense-spectrum scan in bench/",
    "default_delta": "item 5: the scan lays its times in units of hbar/delta",
    "potential_tensor_error": "item 1: the quadrature error estimate in the trace side file",
    "quadrature_gram_defect": "item 1: the quadrature error estimate in the trace side file",
}


def definitions():
    """{name: defining module} for every public top-level def or class under src/boxgas."""
    found = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def named_outside_own_definition():
    """Every variable and attribute name in `src/` and `bench/`, leaving out the
    names inside the top-level definition that bears the same name."""
    named = set()
    for path in USERS:
        tree = ast.parse(path.read_text())
        own = {top.name: set(map(id, ast.walk(top))) for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if id(node) not in own.get(name, ()):
                named.add(name)
    return named


DEFINED = definitions()
NAMED = named_outside_own_definition()
TRACED = {target.split(".")[1] for target in load_tracer().TARGETS}


def test_every_public_name_has_a_user_outside_the_tests():
    unreached = sorted(f"{DEFINED[name]}.{name}" for name in DEFINED
                       if name not in NAMED | TRACED | set(ALLOWED))
    assert not unreached, f"reached only from tests (move into tests/ or delete): {unreached}"


def test_allowed_names_exist_and_have_no_other_user():
    assert set(ALLOWED) <= set(DEFINED), set(ALLOWED) - set(DEFINED)
    used = sorted(set(ALLOWED) & (NAMED | TRACED))
    assert not used, f"now used, so take them off ALLOWED: {used}"
