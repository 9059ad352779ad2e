"""Shared helpers for the test suite."""

import json
import subprocess
import sys


def run_cli(*args, timeout=300):
    """Run the installed CLI in a subprocess; returns CompletedProcess."""
    return subprocess.run([sys.executable, "-m", "infogeo.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """Parse JSON text, rejecting the NaN and Infinity that ``json.loads``
    accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def envelope(proc):
    """Parse the JSON result envelope from a CLI run, as strict JSON."""
    return strict_json(proc.stdout)


def write_state(path, coeff):
    """Write a state file as ``--x-file`` reads it: the basis cutoff, then
    one "re im" line per coefficient."""
    lines = [str(len(coeff) - 1)] + [f"{c.real:.17g} {c.imag:.17g}" for c in coeff]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def close7(got, want):
    """True when ``got`` matches ``want`` to 7 significant digits."""
    return abs(got - want) <= 5e-7 * max(1.0, abs(want))
