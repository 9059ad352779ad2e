"""The library depends on numpy alone."""

import json
import subprocess
import sys

_IMPORT_CLI = """
import json, sys
before = set(sys.modules)
import infogeo.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_only_stdlib_numpy_and_infogeo():
    # A fresh interpreter, so modules the test runner or site start-up
    # (e.g. a .pth hook) has loaded are not counted as the import's.
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "numpy" in added and "infogeo.cli" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "infogeo"}
    assert sorted({name.split(".")[0] for name in added} - allowed) == []
