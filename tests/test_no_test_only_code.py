"""The package keeps no test-only code: every top-level function, class or
assigned name in ``src/qgvertex`` is public or referenced by name elsewhere in
``src``, so that neither a helper nor a table or constant outlives its use;
every method, property and class attribute is read in ``src`` or ``bench``; and
some call there passes each defaulted parameter, or the parameter would have
one value in use and be a constant, and some call leaves it out, or the default
would be a value that no call uses."""

import ast
import math
from collections import defaultdict
from pathlib import Path

import qgvertex

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgvertex"
BENCH = ROOT / "bench"

#: (module, function, parameter) -> why no call in src or bench passes it
DEFAULTS_ONLY_TESTS_SET = {
    ("sampling", "random_coupling", "margin"): "the test corpus draws with its own phase margin",
}

#: (module, function, parameter) -> why every call in src or bench passes it
DEFAULTS_ALWAYS_PASSED = {
    ("sampling", "random_coupling", "r_a"): "the test corpus draws its rank pairs through it",
    ("sampling", "random_coupling", "r_b"): "the test corpus draws its rank pairs through it",
    ("sampling", "random_coupling", "rng"): "it follows r_a and r_b, and the benchmark passes "
                                            "it by position",
}

#: (module, name) of definitions used only from outside src: the console script
ENTRY_POINTS = {("cli", "entry_point")}


def test_entry_points_are_the_console_scripts():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for module, name in ENTRY_POINTS:
        assert f'"qgvertex.{module}:{name}"' in pyproject


def defined_names(node):
    """Names that a statement binds, other than dunders such as ``__all__``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    else:
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


def library_trees() -> dict:
    """Path -> syntax tree of each module in src/qgvertex and bench (not their tests)."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for folder in (PACKAGE, BENCH) for path in sorted(folder.glob("*.py"))}


def module_names(tree) -> set:
    """Names an import in ``tree`` binds to a module: ``import x`` and, from the
    package, ``from . import x`` or ``from qgvertex import x``."""
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "qgvertex"):
            names |= {alias.asname or alias.name for alias in node.names if alias.name in stems}
    return names


def test_every_class_member_is_read():
    """Methods, properties and class attributes other than fields (annotated names)
    are read as ``obj.name`` in src or bench, on something other than a module, so
    that ``reference.limit`` does not count as a read of a member named ``limit``."""
    trees = library_trees()
    read = set()
    for tree in trees.values():
        modules = module_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and not (isinstance(node.value, ast.Name) and node.value.id in modules)}
    members = [(path.stem, cls.name, name) for path, tree in trees.items()
               if path.parent == PACKAGE for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.Assign))
               for name in defined_names(node)]
    assert ("forms", "PQRSForm", "split") in members and ("forms", "STForm", "layout") in members
    assert [member for member in members if member[2] not in read] == []


def default_passes() -> dict:
    """(module, function, parameter) of each defaulted parameter of a function or
    method in src -> whether each call in src or bench of a function of that name
    passes it, by keyword or by position; a call with ``*args`` passes every
    positional parameter, one with ``**kwargs`` every one."""
    trees = library_trees()
    calls = defaultdict(list)  # called name -> (positional count, keywords) per call
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls[name].append((math.inf if starred else len(node.args),
                                    {keyword.arg for keyword in node.keywords}))
    passes = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        functions = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(node, not any(getattr(d, "id", None) == "staticmethod"
                                     for d in node.decorator_list))
                      for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        for function, bound in functions:  # bound: the first parameter is self
            args = function.args
            positional = (args.posonlyargs + args.args)[bound:]
            defaulted = list(enumerate(positional))[len(positional) - len(args.defaults):]
            defaulted += [(math.inf, arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for index, arg in defaulted:
                passes[path.stem, function.name, arg.arg] = [
                    count > index or arg.arg in keywords or None in keywords
                    for count, keywords in calls[function.name]]
    return passes


def test_every_default_is_passed_by_a_call():
    """Some call passes each defaulted parameter, or it would have one value in use."""
    unpassed = [key for key, passed in default_passes().items() if not any(passed)]
    assert sorted(unpassed) == sorted(DEFAULTS_ONLY_TESTS_SET)


def test_every_default_is_relied_on():
    """Some call leaves out each defaulted parameter, or no call uses its default."""
    always_passed = [key for key, passed in default_passes().items() if all(passed)]
    assert sorted(always_passed) == sorted(DEFAULTS_ALWAYS_PASSED)
