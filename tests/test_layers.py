"""The module graph: the geometric and the combinatorial pipelines share only
the base layer; every public name has a caller in the package, or a reason;
and every private name is read in the package.

Each module is read with `ast`, without importing anything, so a pipeline that
loads the other fails here even when every other test passes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chainorder"

LAYER = {
    "errors": "base",
    "cliques": "base",
    "posets": "base",
    "polytopes": "geometric",
    "facelattice": "geometric",
    "normalform": "combinatorial",
    "cli": "top",
    "__init__": "top",
}
ALLOWED = {
    "base": {"base"},
    "geometric": {"base", "geometric"},
    "combinatorial": {"base", "combinatorial"},
    "top": {"base", "geometric", "combinatorial"},
}


def package_imports(module: str) -> set[str]:
    """The modules of the package that `module` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("chainorder."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "chainorder":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import m
                found.update(a.name for a in node.names)
    return found


def test_every_module_is_placed_in_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_module_imports_only_what_its_layer_allows(module):
    imported = package_imports(module)
    assert imported <= set(LAYER), f"{module} imports unplaced modules {imported - set(LAYER)}"
    wrong = {m for m in imported if LAYER[m] not in ALLOWED[LAYER[module]]}
    assert not wrong, f"{module} ({LAYER[module]}) imports {sorted(wrong)}"


def test_normalform_reads_only_errors_and_posets():
    assert package_imports("normalform") == {"errors", "posets"}


# Public names that nothing in the package calls, each with the ROADMAP item
# that gives it a caller or removes it.  A name leaves this list when it
# gains a caller; a name with no caller joins it only with such a reason.
NO_CALLER = {
    "HRep.eqs": "always (); perfbench's hooks read it until item 1, and item 2 deletes it",
    "order_polytope_dd": "a one-line wrapper that perfbench traces (item 1); item 2 decides its fate",
    "chain_polytope_dd": "a one-line wrapper that perfbench traces (item 1); item 2 decides its fate",
    "chain_order_hrep": "perfbench traces it at cli and polytopes (item 1); item 2 deletes it",
    "zero_one_vertices": "perfbench traces it (item 1); item 2 moves the 0/1 search to the tests",
    "maximal_antichains": "perfbench traces it at polytopes (item 1); item 2 moves it to the tests",
    "validate_face_partition": "perfbench traces it at normalform (item 1); item 2 deletes it",
    "is_valid_normal_form": "perfbench traces it (item 1); item 2 decides its fate",
    "enumerate_normal_forms": "perfbench traces it (item 1); item 2 decides its fate",
    "vertex_enum_exact": "the exact vertex oracle the tests and perfbench check the builder against (item 2)",
    "lattice_point_count": "the lattice-point count the tests check against ideal multichains; item 13 calls it",
    "has_hl_pattern": "the Hibi-Li X criterion; item 10's sweep calls it",
    "as_tau_shape": "reads tau off a maximal ranked poset; item 10's sweep calls it",
    "FaceNormalForm.sort_key": "states the canonical order the form stream promises (item 2)",
}


def _references(node) -> Counter:
    """How often each name is read in ``node``, bare or as an attribute.
    Import lines bind names and read none."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """(qualified name, name, node, public class or None) of each module-level
    function, class and assigned name, and of each method, with its class's
    publicness."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, None
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        yield f"{node.name}.{m.name}", m.name, m, not node.name.startswith("_")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id, node, None) for t in targets if isinstance(t, ast.Name))


def _unread(keep, skip_init: bool) -> set[str]:
    """The qualified names that ``keep(name, node, public class)`` selects and
    that no module of the package (but `__init__` when ``skip_init``) reads
    outside their own definition."""
    defined, read = [], Counter()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not (skip_init and path.stem == "__init__"):
            read += _references(tree)
        defined += [(q, name, node) for q, name, node, cls in _definitions(tree) if keep(name, node, cls)]
    return {qualified for qualified, name, node in defined if read[name] == _references(node)[name]}


def _is_public(name, node, public_class) -> bool:
    if name.startswith("_") or public_class is False:
        return False
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) or name.isupper()


def _is_private(name, node, public_class) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def uncalled_public_names() -> set[str]:
    """The public module-level functions and classes, UPPER_CASE constants,
    and public methods and properties of public classes, that no module of
    the package but `__init__` reads outside their own definition."""
    return _unread(_is_public, skip_init=True)


def unread_private_names() -> set[str]:
    """The private (underscored, not dunder) module-level functions, classes
    and assigned names, and private methods of any class, that no module of
    the package reads outside their own definition."""
    return _unread(_is_private, skip_init=False)


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = uncalled_public_names()
    assert not uncalled - set(NO_CALLER), f"public names with no caller in the package: {sorted(uncalled - set(NO_CALLER))}"
    assert not set(NO_CALLER) - uncalled, f"NO_CALLER names that have a caller, or are gone: {sorted(set(NO_CALLER) - uncalled)}"
    assert all(re.search(r"\bitem \d+\b", reason) for reason in NO_CALLER.values())


def test_every_private_name_is_read_in_the_package():
    # a private helper kept only for the tests, or left behind by a refactor, fails here
    unread = unread_private_names()
    assert not unread, f"private names that nothing in the package reads: {sorted(unread)}"
