"""The package depends on numpy only: importing it loads no test or SciPy tooling."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
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
