"""Argv fuzzing of ``cli.main``: every argv gets exactly one envelope, and
a command's own parser reads its argv as the top-level parser would.

The argvs are drawn from the command and flag tables, with unknown flags,
flags of other commands, and values that are empty, negative, huge or
not finite.  Left out, as the ``cli`` module documents: ``--help`` and
``--version``, which print text, and CSV sweeps, which print a table.
``verify`` runs only its quick suites, and sweep grids stay small.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import strict_json

from infogeo import BUILTIN_NAMES, cli

KEYS = {"command", "inputs", "outputs", "diagnostics", "status"}
QUICK_SUITES = ("numerics", "regression", "sphere")

SMALL = st.floats(-3.0, 3.0).map(repr)
NUMBER = st.one_of(
    SMALL, SMALL, SMALL, SMALL, SMALL, SMALL,
    st.sampled_from(["", "-1", "0", "nan", "-nan", "inf", "-inf", "1e400", "1e-320",
                     "abc"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
VECTOR = st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
PATH = st.sampled_from(["missing.ini", ".", ""])
VALUES = {
    "--model": st.sampled_from(BUILTIN_NAMES + ("nope", "numerics", "")),
    "--config": PATH, "--x-file": PATH, "--data": PATH,
    "--grid": st.sampled_from(["1=-1:1:3", "2=0:1:2", "3=-2:2:4", "1=0:1:0",
                               "1=nan:1:2", "1=0:1", "9=0:1:2", ""]),
    "--quantities": st.sampled_from(["phi", "entropy,u1", "residual,unorm,u2", "u4",
                                     ""]),
    "--format": st.sampled_from(["csv", "object", "xml"]),
    "--tol": NUMBER,
}
ANY_FLAG = st.sampled_from([f for f in cli._FLAGS if f.startswith("--")]
                           + ["--bogus", "-q"])
#: an unknown flag or one of another command, with or without a value
NOISE = st.one_of(st.tuples(ANY_FLAG, st.one_of(NUMBER, VALUES["--model"], PATH)),
                  st.tuples(ANY_FLAG)).map(list)
#: parameter count and data vector size of each built-in model
SIZES = {"qubit": (3, 3), "coherent": (2, 2), "coherent2": (2, 2), "discrete2": (1, 2),
         "discrete3": (1, 3), "regression": (1, 2), "sphere": (1, 3)}


def vectors(size):
    """Mostly ``size`` numbers, sometimes a wrong count."""
    count = st.sampled_from([size, size, size, 1, 2, 3])
    return count.flatmap(lambda k: st.lists(NUMBER, min_size=k, max_size=k)).map(",".join)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS) + ["frobnicate", None]))
    model = draw(st.sampled_from(BUILTIN_NAMES))
    n, x_size = SIZES[model]
    argv = [] if command is None else [command]
    argv += draw(st.sampled_from([["--model", model]] * 4 + [[], ["--config", "."]]))
    own = [f for f in cli._COMMANDS.get(command, (None, None, ()))[2]
           if f.startswith("--") and f not in ("--model", "--config")]
    for flag in [f for f in own if draw(st.booleans())]:
        size = {"--x": x_size, "--z": 2}.get(flag, n)
        argv += [flag, draw(VALUES.get(flag, vectors(size)))]
    for noise in draw(st.one_of(st.just([]), st.lists(NOISE, max_size=2))):
        argv += noise
    if command == "sweep":
        argv += ["--format", "object"]  # the last --format wins
    if command == "verify":
        # always one quick target, so verify all never runs; a second
        # target is a usage error
        argv = ["verify", draw(st.sampled_from(QUICK_SUITES))] + [
            draw(st.sampled_from(QUICK_SUITES)) if tok in ("all", *BUILTIN_NAMES)
            else tok for tok in argv[1:]]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_gets_one_strict_json_envelope(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    [line] = out.getvalue().splitlines()
    env = strict_json(line)
    assert set(env) == KEYS
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (env["status"] == "ok")


# ------------------------------------------------------------ dispatch
#
# main hands an argv that starts with a command to that command's own
# parser, and any other argv to the top-level parser.  Both must read an
# argv the way the top-level parser alone would.

def _parse(parser, argv):
    """``parser``'s flags for ``argv`` without ``command``, or its usage
    error message."""
    try:
        args = vars(parser.parse_args(cli._normalize_argv(argv)))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    args.pop("command", None)
    return "flags", args


def assert_dispatch_equivalent(argv):
    own = _parse(cli._COMMAND_PARSERS[argv[0]], argv[1:])
    assert own == _parse(cli._PARSER, argv)


@pytest.mark.parametrize("argv", [
    ["massieu", "--", "--model", "qubit"],
    ["massieu", "--model", "qubit", "--theta", "1,0,0", "--"],
    ["verify", "--", "numerics"],
    ["massieu", "--mod", "qubit", "--theta", "1,0,0"],       # an abbreviation
    ["massieu", "--model", "qubit", "--versio"],
    ["massieu", "--model", "qubit", "--u", "1"],             # a maxent flag
    ["sweep", "--model", "qubit", "--theta", "0,0,0"],
    ["divergence", "--model", "qubit", "--theta", "-1,0,0", "--zeta", "-0.5,0,0"],
    ["pythagoras", "--model", "discrete2", "--x", "-0.5,1.5", "--theta", "-1",
     "--zeta", "-2", "--tol", "-1"],
    ["maxent", "--model", "discrete3", "--u", "-1", "--x"],
    ["massieu"],
])
def test_a_command_parses_on_its_parser_as_on_the_top_level(argv):
    assert_dispatch_equivalent(argv)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(argvs().filter(lambda argv: argv[:1] and argv[0] in cli._COMMANDS))
def test_generated_commands_parse_on_their_parser_as_on_the_top_level(argv):
    assert_dispatch_equivalent(argv)


@st.composite
def argvs_without_a_leading_command(draw):
    argv = draw(argvs())
    if argv and argv[0] in cli._COMMANDS:
        argv = draw(st.sampled_from([["--"], ["-q"], ["--model", "qubit"], ["--bogus"],
                                     ["--versio"], ["--version"]])) + argv
    return argv


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs_without_a_leading_command())
def test_an_argv_not_led_by_a_command_never_parses_on_the_top_level(argv):
    # the top-level parser only prints help or the version, or reports
    # the usage error
    with contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises((cli.UsageError, SystemExit)):
            cli._PARSER.parse_args(cli._normalize_argv(argv))
