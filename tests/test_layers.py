"""The module graph: the geometric and the combinatorial pipelines share only the base layer.

Each module's imports are read with `ast`, without importing anything, so a
pipeline that loads the other fails here even when every other test passes.
"""

import ast
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
