"""Each job has one path: the package holds no public function that nothing
exports or calls, such as a second evaluator for a job another path does."""

import ast
from pathlib import Path
from types import ModuleType

import shearmaps

SRC = Path(shearmaps.__file__).parent


def _public_functions_and_references():
    """(module, name) of every public module-level function in the package,
    and the (name, owner) of every name or attribute read, where owner is
    the (module, function) whose top-level definition holds the read."""
    functions, references = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, ast.FunctionDef):
                owner = (path.stem, stmt.name)
                if not stmt.name.startswith("_"):
                    functions.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    references.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    references.add((node.attr, owner))
    return functions, references


def test_every_public_function_is_exported_or_used():
    functions, references = _public_functions_and_references()
    assert functions  # the walk found the package's modules
    unused = sorted(
        f"{module}.{name}"
        for module, name in functions
        if name not in shearmaps.__all__
        and not any(ref == name and owner != (module, name) for ref, owner in references)
    )
    assert unused == []


def test_every_export_is_bound_in_its_submodule():
    """__all__ is derived from the package's imports: each name appears once,
    none is a module, and each is the same object as in some submodule."""
    exports = shearmaps.__all__
    submodules = [m for m in vars(shearmaps).values() if isinstance(m, ModuleType)]
    assert exports and submodules
    assert len(set(exports)) == len(exports)
    for name in exports:
        value = getattr(shearmaps, name)
        assert not isinstance(value, ModuleType), name
        assert any(vars(m).get(name, None) is value for m in submodules), name
