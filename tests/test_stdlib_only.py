"""The package runs on the Python standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = """
import sys
before = set(sys.modules)
import repro.api, repro.cli, repro.serve, repro.experiments
import repro.analysis.lint
print(" ".join(sorted({name.partition(".")[0]
                       for name in set(sys.modules) - before})))
"""


def test_package_imports_only_the_standard_library():
    # A fresh interpreter, so nothing the test runner imported hides a
    # third-party module the package pulls in.
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "repro" in added
    # multiprocessing registers __mp_main__ as an alias of __main__.
    foreign = [name for name in added
               if name not in ("repro", "__mp_main__")
               and name not in sys.stdlib_module_names]
    assert foreign == [], f"third-party imports: {foreign}"
