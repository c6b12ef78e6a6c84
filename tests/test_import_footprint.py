"""Importing the package, the CLI and the service loads no scipy or networkx.

Both are imported inside the functions that use them (embedding
training, graph clustering), so a process that only serves or parses
arguments never pays their import time or memory.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_leaves_scipy_and_networkx_unloaded():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import repro, repro.cli, repro.serve.server\n"
        "print(sorted({'scipy', 'networkx'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "[]"
