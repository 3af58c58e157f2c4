"""Every public top-level name and method in `src/boxgas` is reached from an entry point.

The walk starts at the code that runs when a module is imported and is not a
definition: `cli`'s command registrations and `__main__` block, and the
`__main__` blocks of the `bench/` scripts.  The names that
`perfbench/tracer.py` traces (`TARGETS`) are roots too, because the
benchmark patches them by name: the function or class of each target, and
the method of a `<module>.<Class>.<method>` target.  From each reached top-level definition
(function, class, or module-level assignment) the walk follows every
variable and attribute name inside it to the top-level definitions of that
name in `src/` and `bench/`.  Imports are not followed: a name is reached
only where code uses it.  A public function or class that the walk misses
is reached only from the tests; reference implementations and test-only
helpers live under `tests/`.

The public methods (and properties) of the classes in `src/` are walked the
same way, by bare name: a method is its own definition, its body is not
part of its class, and it is reached when its name is, through any
attribute access in reached code.  A reached class whose public method is
unreached carries code that only the tests run.

The names kept for a planned use are in `ALLOWED`, each with the ROADMAP
item that will use it.  They are not roots, so a name that only an allowed
one uses is listed as well.  An allowed name must still exist and still be
unreached, so the list shrinks as those items land.
"""
import ast
from pathlib import Path

from test_benchmark_names import load_tracer

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "boxgas").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

# name -> the ROADMAP item that will use it
ALLOWED = {
    "potential_tensor_error": "item 1: the quadrature error estimate in the trace side file",
    "quadrature_gram_defect": "item 1: the quadrature error estimate in the trace side file",
}


def defined_names(node):
    """Names that a top-level statement binds: a def or class, or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def used_names(node):
    """Every variable and attribute name inside a statement."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def public_methods(node):
    """The public functions defined directly in a class body."""
    return [item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def scan(modules):
    """Public top-level defs and classes of the `src` modules ({name: module}),
    the public methods of their classes ({"Class.method": (class, method)}),
    the names each top-level definition and each such method uses, and the
    names that module-level statements which bind nothing (command
    registrations, `__main__` blocks) use.  `modules` holds (name, source
    text, whether it is a `src` module) per file."""
    public, methods, uses, roots = {}, {}, {}, set()
    for stem, text, in_src in modules:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = defined_names(node)
            if not names:
                roots |= used_names(node)
            split = public_methods(node) if in_src and isinstance(node, ast.ClassDef) else []
            own = used_names(node)
            if split:
                own = set().union(*(used_names(item) for item in
                                    (*node.decorator_list, *node.bases, *node.body)
                                    if item not in split))
            for item in split:
                uses.setdefault(item.name, set()).update(used_names(item))
                methods[f"{node.name}.{item.name}"] = (node.name, item.name)
            for name in names:
                uses.setdefault(name, set()).update(own)
                if (in_src and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not name.startswith("_")):
                    public[name] = stem
    return public, methods, uses, roots


def reached(uses, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(uses.get(name, ()))
    return seen


PUBLIC, METHODS, USES, ENTRY = scan((path.stem, path.read_text(), path in SOURCES)
                                    for path in USERS)
TRACED = {name for target in load_tracer().TARGETS for name in target.split(".")[1:]}
REACHED = reached(USES, ENTRY | TRACED)


def test_every_public_name_has_a_user_outside_the_tests():
    unreached = sorted(f"{PUBLIC[name]}.{name}" for name in PUBLIC
                       if name not in REACHED | set(ALLOWED))
    assert not unreached, f"reached only from tests (move into tests/ or delete): {unreached}"


def test_every_public_method_of_a_reached_class_has_a_user_outside_the_tests():
    unreached = sorted(f"{PUBLIC[cls]}.{qualified}" for qualified, (cls, method)
                       in METHODS.items() if cls in REACHED and method not in REACHED)
    assert not unreached, f"reached only from tests (move into tests/ or delete): {unreached}"


def test_allowed_names_exist_and_have_no_other_user():
    assert set(ALLOWED) <= set(PUBLIC), set(ALLOWED) - set(PUBLIC)
    used = sorted(set(ALLOWED) & REACHED)
    assert not used, f"now reached, so take them off ALLOWED: {used}"


# a module in which `planned` waits for a later user, as an ALLOWED name does
PLANNED = """
class PlannedError(ValueError):
    pass


def planned(x):
    if x < 0:
        raise PlannedError(x)
    return shared(x)


def shared(x):
    return x


def run(x):
    return shared(x)


run(1)
"""


def test_the_walk_skips_code_that_only_an_allowed_name_uses():
    # planned is not a root, so the error type only it raises is unreached,
    # while the helper that a root shares with it is reached
    public, _, uses, roots = scan([("planned", PLANNED, True)])
    seen = reached(uses, roots)
    assert set(public) == {"PlannedError", "planned", "shared", "run"}
    assert "PlannedError" in uses["planned"] and "shared" in uses["planned"]
    assert {"run", "shared"} <= seen
    assert "planned" not in seen and "PlannedError" not in seen
    assert "onshell_tmatrix" in REACHED
    # a method is walked as its own definition, apart from its class
    assert METHODS["FockBasis.creators"] == ("FockBasis", "creators")
    assert "creators" in REACHED and "searchsorted" in USES["creators"]
