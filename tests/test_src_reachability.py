"""Every public top-level name in `src/boxgas` is reached from an entry point.

The walk starts at the code that runs when a module is imported and is not a
definition: `cli`'s command registrations and `__main__` block, and the
`__main__` blocks of the `bench/` scripts.  The names that
`perfbench/tracer.py` traces (`TARGETS`) are roots too, because the
benchmark patches them by name.  From each reached top-level definition
(function, class, or module-level assignment) the walk follows every
variable and attribute name inside it to the top-level definitions of that
name in `src/` and `bench/`.  Imports are not followed: a name is reached
only where code uses it.  A public function or class that the walk misses
is reached only from the tests; reference implementations and test-only
helpers live under `tests/`.

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
    "coarse_window": "items 5 and 14: the dense-spectrum scan in bench/",
    "coarse_grained_check": "items 5 and 14: the dense-spectrum scan in bench/",
    "CoarseWindow": "items 5 and 14: the window that coarse_window returns",
    "CoarseReport": "items 5 and 14: the result of coarse_grained_check",
    "WindowError": "items 5 and 14: raised by coarse_window",
    "heisenberg_evolve": "items 5 and 14: the exact motion in coarse_grained_check",
    "spectral_decomposition": "items 5 and 14: the eigenbasis of coarse_grained_check",
    "SpectralDecomposition": "items 5 and 14: returned by spectral_decomposition",
    "scaling_exponent": "item 5: the dense-spectrum scan in bench/",
    "default_delta": "item 5: the scan lays its times in units of hbar/delta",
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


def scan():
    """Public top-level defs and classes of src/boxgas ({name: module}), the
    names each top-level definition uses, and the names that module-level
    statements which bind nothing (command registrations, `__main__` blocks)
    use."""
    public, uses, roots = {}, {}, set()
    for path in USERS:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = defined_names(node)
            if not names:
                roots |= used_names(node)
            for name in names:
                uses.setdefault(name, set()).update(used_names(node))
                if (path in SOURCES and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not name.startswith("_")):
                    public[name] = path.stem
    return public, uses, roots


def reached(uses, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(uses.get(name, ()))
    return seen


PUBLIC, USES, ENTRY = scan()
TRACED = {target.split(".")[1] for target in load_tracer().TARGETS}
REACHED = reached(USES, ENTRY | TRACED)


def test_every_public_name_has_a_user_outside_the_tests():
    unreached = sorted(f"{PUBLIC[name]}.{name}" for name in PUBLIC
                       if name not in REACHED | set(ALLOWED))
    assert not unreached, f"reached only from tests (move into tests/ or delete): {unreached}"


def test_allowed_names_exist_and_have_no_other_user():
    assert set(ALLOWED) <= set(PUBLIC), set(ALLOWED) - set(PUBLIC)
    used = sorted(set(ALLOWED) & REACHED)
    assert not used, f"now reached, so take them off ALLOWED: {used}"


def test_the_walk_skips_code_that_only_an_allowed_name_uses():
    # coarse_window is not a root, so the error type only it raises is unreached
    assert "coarse_window" in USES and "WindowError" in USES["coarse_window"]
    assert "WindowError" not in REACHED
    assert "onshell_tmatrix" in REACHED
