"""Argv fuzzing of ``cli.main``: every argv gets exactly one envelope, and
the flag-table read of a command's argv agrees with the argparse parser.

The argvs are drawn from the command and flag tables, with unknown flags,
flags of other commands, and values that are empty, negative, huge or
not finite.  Left out of the envelope property, as the ``cli`` module
documents: ``--help`` and ``--version``, which print text, and sweeps
that succeed, which print a CSV table.  ``verify`` runs only its quick
suites, and sweep grids stay small.  The parse properties add
abbreviations, help, ``--``, bare negative numbers and values joined to
their flag.
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


#: what the flag-table read leaves to argparse, and negative numbers that
#: the join of :func:`cli._normalize_argv` may or may not reach
PARSE_NOISE = st.one_of(
    NOISE,
    st.sampled_from([["--mod", "qubit"], ["--t", "1"], ["--th", "1,0,0"], ["--x-f", "."],
                     ["--qua=phi"], ["--versio"], ["-h"],
                     ["--help"], ["--"], ["-1"], ["-1e-9"], ["-0.5,1"], ["--", "-1"]]),
    st.tuples(ANY_FLAG, st.one_of(NUMBER, st.just("--"))).map(lambda t: ["=".join(t)]))


@st.composite
def argvs(draw, noise=NOISE):
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
    for extra in draw(st.one_of(st.just([]), st.lists(noise, max_size=2))):
        argv += extra
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
    if argv[:1] == ["sweep"] and code == 0:
        header, *rows = out.getvalue().splitlines()
        assert header.startswith("theta1,") and rows
        assert all(row.count(",") == header.count(",") for row in rows)
        return
    [line] = out.getvalue().splitlines()
    env = strict_json(line)
    assert set(env) == KEYS
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (env["status"] == "ok")


# ------------------------------------------------------------ flag read
#
# main reads a command-led argv from the flag table, and leaves it to the
# argparse parser when some token is not a plain flag of the command.
# Where the table read gives flags or raises, it must agree with argparse.

def _parse(argv):
    """The parser's flags for ``argv``, its usage error message, or the
    exit code of its help or version."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "flags", vars(cli._parser().parse_args(cli._normalize_argv(argv)))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


def assert_table_read_agrees(argv):
    """The table read of ``argv`` gives the parser's flags, raises its usage
    error, or leaves the argv to it."""
    try:
        args = cli._read_flags(argv[0], cli._normalize_argv(argv)[1:])
    except cli.UsageError as exc:
        assert _parse(argv) == ("usage error", str(exc))
        return
    if args is not None:
        assert _parse(argv) == ("flags", vars(args))


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
     "--zeta", "-2"],
    ["maxent", "--model", "discrete3", "--u", "-1", "--x"],
    ["massieu"],
])
def test_a_command_parses_on_its_parser_as_on_the_top_level(argv):
    assert_table_read_agrees(argv)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(argvs(PARSE_NOISE).filter(lambda argv: argv[:1] and argv[0] in cli._COMMANDS))
def test_generated_commands_parse_on_their_parser_as_on_the_top_level(argv):
    assert_table_read_agrees(argv)


@pytest.mark.parametrize("argv", [
    ["massieu", "--model", "qubit", "--theta", "-1,0,0"],
    ["maxent", "--model", "discrete3", "--u=1.2"],
    ["divergence", "--model", "qubit", "--x", "-0.5,0,0", "--theta", "1,0,0"],
    ["pythagoras", "--model", "discrete2", "--x", "0.5,0.5", "--theta", "0",
     "--zeta", "-1e-1"],
    ["sweep", "--model", "qubit", "--grid", "1=-1:1:3", "--grid=2=0:1:2",
     "--quantities", "phi"],
    ["verify", "--model", "sphere"],
])
def test_a_plain_argv_runs_without_argparse(argv, monkeypatch, capsys):
    def parse_args(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    # every parser of the CLI has the class of the one the cached builder gives
    monkeypatch.setattr(type(cli._parser()), "parse_args", parse_args)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "sweep":
        assert out.startswith("theta1,theta2,theta3,phi\n")
    else:
        assert strict_json(out)["status"] == "ok"


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
            cli._parser().parse_args(cli._normalize_argv(argv))
