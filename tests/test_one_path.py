"""Each job has one path: the package holds no public function or class
that nothing calls, such as a second evaluator for a job another path does."""

import ast
from pathlib import Path
from types import ModuleType

import shearmaps

SRC = Path(shearmaps.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Printed by no report yet; ROADMAP item 4 plans to print both.
UNREAD_ON_PURPOSE = {"unit_modulus_check", "radial_image_bound"}


def _public_definitions_and_references():
    """(module, name) of every public top-level function or class in the
    package, and the (name, owner) of every name or attribute read in the
    package, bench/*.py and tools/*.py, where owner is the (file, top-level
    statement) that holds the read.  An import binds a name but reads none."""
    definitions, references = set(), set()
    files = [*sorted(SRC.glob("*.py")), *sorted(ROOT.glob("bench/*.py")),
             *sorted(ROOT.glob("tools/*.py"))]
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path, stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = (path, stmt.name)
                if path.parent == SRC and not stmt.name.startswith("_"):
                    definitions.add((path.stem, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    references.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    references.add((node.attr, owner))
    return definitions, references


def test_every_public_function_is_exported_or_used():
    """Exporting a name is no use by itself: each public function or class
    is read by another top-level definition of the package, the benchmark
    or the tools, except the two that ROADMAP item 4 will print."""
    definitions, references = _public_definitions_and_references()
    assert definitions  # the walk found the package's modules
    unread = sorted(
        f"{module}.{name}"
        for module, name in definitions
        if name not in UNREAD_ON_PURPOSE
        and not any(ref == name and owner != (SRC / f"{module}.py", name)
                    for ref, owner in references)
    )
    assert unread == []
    assert UNREAD_ON_PURPOSE <= {name for _, name in definitions}


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
