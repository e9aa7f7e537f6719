"""The package depends on numpy only: importing it loads no test or SciPy tooling.
``pip install .[test]`` installs every module the tests import."""

import ast
import importlib.metadata
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"
FORBIDDEN = ("scipy", "hypothesis", "mpmath", "pytest")


def test_package_imports_no_optional_tooling():
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import qgvertex, qgvertex.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    loaded = json.loads(done.stdout)
    assert "qgvertex.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in FORBIDDEN] == []


def installed_by_the_test_extra() -> set[str]:
    """Normalised names of the distributions ``pip install .[test]`` installs: the
    project's dependencies and its ``test`` extra.  pyproject.toml is read by pattern,
    since Python 3.10, which ``requires-python`` allows, has no ``tomllib``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lists = [re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S).group(1)
             for key in ("dependencies", "test")]
    return {normalised(re.match(r"[\w.-]+", requirement).group())
            for requirement in re.findall(r'"([^"]+)"', "".join(lists))}


def normalised(distribution: str) -> str:
    return re.sub(r"[-_.]+", "-", distribution).lower()


def imported_by_the_tests() -> set[str]:
    """Top-level names of the modules the files under tests/ import, but the package's
    and the tests' own."""
    names = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - {path.stem for path in TESTS.glob("*.py")} - {"qgvertex"}


def test_test_extra_installs_every_module_the_tests_import():
    third_party = imported_by_the_tests() - set(sys.stdlib_module_names)
    assert {"numpy", "pytest", "hypothesis", "mpmath"} <= third_party
    distributions = importlib.metadata.packages_distributions()
    installed = installed_by_the_test_extra()
    missing = {module for module in third_party
               if not {normalised(d) for d in distributions.get(module, [module])} & installed}
    assert missing == set()
