"""The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
by name, so deleting or renaming one of them breaks traced runs."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import tracer
main = tracer.Tracer().install()
assert callable(main)
"""


def test_the_tracer_installs_on_the_library():
    # A fresh interpreter: installing patches the infogeo modules for good.
    proc = subprocess.run([sys.executable, "-c", _INSTALL, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
