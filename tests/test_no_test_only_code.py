"""The package keeps no test-only code: every top-level function, class or
assigned name in ``src/qgvertex`` is public or referenced by name elsewhere in
``src``, so that neither a helper nor a table or constant outlives its use."""

import ast
from pathlib import Path

import qgvertex

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgvertex"

#: (module, name) of definitions used only from outside src: the console script
ENTRY_POINTS = {("cli", "entry_point")}


def test_entry_points_are_the_console_scripts():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for module, name in ENTRY_POINTS:
        assert f'"qgvertex.{module}:{name}"' in pyproject


def defined_names(node):
    """Names that a top-level statement binds, other than dunders such as ``__all__``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    names = [leaf.id for target in targets if isinstance(target, ast.AST)
             for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_public_or_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    definitions = [(module, name) for module, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                        ast.Assign, ast.AnnAssign))
                   for name in defined_names(node)]
    assert ("documents", "CSV_SLICE_ROWS") in definitions
    unused = [(module, name) for module, name in definitions
              if name not in qgvertex.__all__ and name not in referenced
              and (module, name) not in ENTRY_POINTS]
    assert unused == []
