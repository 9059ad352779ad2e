"""The library depends on numpy alone, and a command loads only the
modules it runs."""

import json
import subprocess
import sys

import pytest

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
    # of the package, only the command line, the registry and the engine
    assert sorted(name for name in added if name.startswith("infogeo")) == [
        "infogeo", "infogeo.cli", "infogeo.core", "infogeo.errors", "infogeo.numerics",
        "infogeo.registry"]
    assert "argparse" not in added and "configparser" not in added


_LOAD_ON_DEMAND = """
import contextlib, io, json, sys
import infogeo, infogeo.cli
on_demand = ("infogeo.verify", "infogeo.regression", "csv")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return infogeo.cli.main(list(argv))

def loaded():
    return [name for name in on_demand if name in sys.modules]

out = {"plain": [run("massieu", "--model", "qubit", "--theta", "1,0,0"),
                 run("maxent", "--model", "discrete3", "--u", "1.2"),
                 run("divergence", "--model", "qubit", "--x", "0,0,0.5", "--theta", "1,0,0"),
                 run("pythagoras", "--model", "discrete3", "--theta", "0.1", "--zeta", "0.5",
                     "--xi", "-0.3"),
                 run("sweep", "--model", "qubit", "--grid", "1=0:1:3", "--quantities", "phi")],
       "after_plain": loaded()}
try:
    infogeo.no_such_name
except AttributeError:
    out["unknown"] = "AttributeError"
out["after_unknown"] = loaded()
out["data"] = run("maxent", "--model", "regression", "--data", sys.argv[1])
out["after_data"] = loaded()
out["verify"] = run("verify", "numerics")
out["after_verify"] = loaded()
out["same"] = [getattr(infogeo, name) is getattr(infogeo.verify, name)
               for name in ("PropertyResult", "verify_handle", "verify_numerics")]
print(json.dumps(out))
"""


def test_a_plain_command_loads_neither_the_verify_suites_nor_the_regression_reader(tmp_path):
    # The suites, the regression module and its csv reader load with the
    # first command that uses them, and the package's verify names with them.
    points = tmp_path / "points.csv"
    points.write_text("x,y\n0,1\n1,3\n2,4\n")
    proc = subprocess.run([sys.executable, "-c", _LOAD_ON_DEMAND, str(points)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["plain"] == [0] * 5
    assert out["after_plain"] == []
    assert out["unknown"] == "AttributeError" and out["after_unknown"] == []
    assert out["data"] == 0
    assert out["after_data"] == ["infogeo.regression", "csv"]
    assert out["verify"] == 0
    assert out["after_verify"] == ["infogeo.verify", "infogeo.regression", "csv"]
    assert out["same"] == [True] * 3


_FAMILIES_ON_DEMAND = """
import contextlib, io, json, sys
import infogeo.cli
from infogeo.registry import get_model
on_demand = ("infogeo.coherent", "infogeo.discrete", "infogeo.sphere", "argparse",
             "configparser")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return infogeo.cli.main(list(argv))
        except SystemExit as exc:  # --help prints its text and exits
            return exc.code

def loaded():
    return [name for name in on_demand if name in sys.modules]

get_model("qubit")
out = {"qubit": [run("massieu", "--model", "qubit", "--theta", "1,0,0"),
                 run("sweep", "--model", "qubit", "--grid", "1=0:1:3", "--quantities", "phi")],
       "after_qubit": loaded()}
for step, argv in (("coherent", ["massieu", "--model", "coherent", "--theta", "0.1,0.2"]),
                   ("discrete", ["maxent", "--model", "discrete3", "--u", "1.2"]),
                   ("sphere", ["maxent", "--model", "sphere", "--x", "0,0,2"]),
                   ("parser", ["massieu", "--model", "qubit", sys.argv[2]]),
                   ("config", ["massieu", "--config", sys.argv[1], "--theta", "0.5"])):
    out[step] = run(*argv)
    out["after_" + step] = loaded()
print(json.dumps(out))
"""


@pytest.mark.parametrize("flag, code", [("--help", 0), ("--bogus", 2)])
def test_each_family_argparse_and_configparser_load_with_their_first_user(tmp_path, flag,
                                                                         code):
    # A qubit command loads no other family, nor argparse or configparser;
    # each loads with the first command that needs it: a coherent, discrete
    # or sphere model, an argv the flag table does not read (help or a flag
    # error) and a config file.
    config = tmp_path / "discrete.ini"
    config.write_text("[model]\ntype = discrete\n\n[discrete]\nprior = 1, 1, 1\n"
                      "hamiltonians = 0, 1, 2\n")
    proc = subprocess.run([sys.executable, "-c", _FAMILIES_ON_DEMAND, str(config), flag],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["qubit"] == [0, 0] and out["after_qubit"] == []
    loads = ["infogeo.coherent", "infogeo.discrete", "infogeo.sphere", "argparse",
             "configparser"]
    for i, step in enumerate(("coherent", "discrete", "sphere", "parser", "config")):
        assert out[step] == (code if step == "parser" else 0), step
        assert out["after_" + step] == loads[:i + 1], step
