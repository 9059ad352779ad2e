"""Command-line interface.

Every argv gets exactly one JSON object (the result envelope) on stdout:
``{"command", "inputs", "outputs", "diagnostics", "status"}`` with
``status`` either ``"ok"`` or ``"error:<category>"``.  ``main`` writes
every envelope.  A command handler records each input in ``inputs`` as
it parses it, so an error envelope keeps the inputs parsed before the
error.  Flag errors (an unknown flag or command, a bad flag value, a
number that is not finite, no command) end as ``"error:usage"``, with
``command`` null unless the first non-option token of argv names a known
command.  An argv of a command and its own flags (``--name value``,
``--name=value``) is read from ``_FLAGS``; argparse reads any other
argv, and words all help and flag errors.  The exceptions to the one
envelope are ``--help`` and ``--version``, which print text, and
``sweep``, which streams a CSV table instead: its rows are evaluated
one chunk of grid points at a time and written one row per ``write``,
so each row leaves as soon as it is formatted.  The header follows the
first chunk's evaluation, so a sweep that fails there prints only the
error envelope; a failure in a later chunk ends a truncated table with
it.  Progress, warnings and error messages go to stderr.

``verify`` takes one target: the positional ``TARGET`` (``all``, the
default, ``numerics`` or a model name), ``--model NAME`` or ``--config
FILE``; giving two of them is a usage error.  Each check's line goes to
stderr as soon as that check completes, with the time since the previous
line; the time is on stderr only, so stdout is the same on every run.  A
check that failed without a finite measure reports ``worst`` as null.
When a check raises, the error envelope's ``outputs`` keep the rows of
the checks reported before it.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags,
unknown model, malformed grid), 3 numeric or domain error (infeasible
moments, points outside a chart, truncation overflow).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time

import numpy as np

from . import __version__, coherent, core
from .errors import EvaluationError, InfoGeoError
from .numerics import row_norm
from .registry import BUILTIN_NAMES, ModelHandle, get_model, load_config

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or flag values; reported with exit code 2."""

    category = "usage"


def _envelope(command: str | None, inputs: dict, outputs: dict, diagnostics: dict,
              status: str) -> str:
    """The envelope's JSON line; an output that overflowed to inf or NaN,
    which JSON cannot carry, raises :class:`EvaluationError`."""
    envelope = {"command": command, "inputs": inputs, "outputs": outputs,
                "diagnostics": diagnostics, "status": status}
    try:
        return json.dumps(envelope, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise EvaluationError("an output is not finite: the result overflows"
                              " double precision") from None


def _parse_floats(text: str, flag: str, expect: int | None = None) -> np.ndarray:
    tokens = text.replace(",", " ").split()
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag} expects finite numbers, got {text!r}")
    if expect is not None and len(values) != expect:
        raise UsageError(f"{flag} expects {expect} numbers, got {len(values)}")
    if not values:
        raise UsageError(f"{flag} is empty")
    return np.array(values)


def _point(args, name: str, inputs: dict, n: int) -> np.ndarray:
    """The point of flag ``--name``, recorded as ``inputs[name]``."""
    point = _parse_floats(getattr(args, name), "--" + name, n)
    inputs[name] = list(point)
    return point


def _read_file(path: str, what: str, load):
    """``load(path)``; an unreadable or malformed file is a usage error."""
    try:
        return load(path)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except (OSError, ValueError, configparser.Error) as exc:
        raise UsageError(f"bad {what} file: {exc}") from None


def _resolve_model(args, inputs: dict) -> ModelHandle:
    """The model of ``--model`` or ``--config``, recorded in ``inputs``."""
    if args.config and args.model:
        raise UsageError("pass either --model or --config, not both")
    if args.config:
        handle = _read_file(args.config, "config", load_config)
        inputs["config"] = args.config
    elif not args.model:
        raise UsageError("a model is required (--model NAME or --config FILE)")
    else:
        try:
            handle = get_model(args.model)
        except KeyError:
            known = ", ".join(BUILTIN_NAMES)
            raise UsageError(f"unknown model {args.model!r}; known models: {known}") from None
    inputs["model"] = handle.name
    return handle


def _canonical_model(args, inputs: dict, command: str):
    """``(handle, descriptor)`` of the model of :func:`_resolve_model`,
    which ``command`` needs to have canonical coordinates."""
    handle = _resolve_model(args, inputs)
    if handle.descriptor is None:
        raise UsageError(
            f"{command} needs a model with canonical coordinates;"
            f" {handle.name!r} has none")
    return handle, handle.descriptor


def _load_pairs(path: str) -> np.ndarray:
    from .regression import load_pairs  # with csv, on the first --data file only
    return load_pairs(path)


# flag -> (what the file holds, its reader)
_DATA_FILES = {"x_file": ("state", coherent.load_state),
               "data": ("data", _load_pairs)}


def _parse_dataset(args, handle: ModelHandle, inputs: dict):
    """A function of no arguments that gives the data set; its flag is
    parsed now and recorded in ``inputs``.

    The handle names the flags that can carry its data sets; exactly one
    of them must be given.  No value meets the model here: the family's
    data-set layer checks an ``--x`` vector, and an ``--z`` state is built
    when the caller, its other flags parsed, asks for the data set.
    """
    given = [f for f in handle.data_flags if getattr(args, f) is not None]
    if len(given) != 1:
        flags = " or ".join("--" + f.replace("_", "-") for f in handle.data_flags)
        need = "exactly one of " if len(handle.data_flags) > 1 else ""
        raise UsageError(f"{handle.name} data needs {need}{flags}")
    flag = given[0]
    text = getattr(args, flag)
    if flag == "x":
        x = _point(args, "x", inputs, handle.x_size)
    elif flag == "z":
        inputs["z"] = text
        parts = _parse_floats(text, "--z")
        if parts.size > 2:
            raise UsageError(f"--z expects 're,im', got {text!r}")
        z = complex(*parts)
        return lambda: handle.state(z)
    else:
        what, load = _DATA_FILES[flag]
        inputs[flag] = text
        x = _read_file(text, what, load)
    return lambda: x


def _model_point(args, model: core.ModelDescriptor, inputs: dict) -> np.ndarray:
    """Model coordinates from --theta, or from --u through the chart."""
    if (args.theta is None) == (args.u is None):
        raise UsageError("give the model point as exactly one of --theta or --u")
    if args.theta is not None:
        return _point(args, "theta", inputs, model.n)
    return core.u_to_theta(model, _point(args, "u", inputs, model.n))


# ------------------------------------------------------------- commands
#
# A handler takes the parsed flags and the ``inputs`` dict it fills, and
# returns ``(outputs, diagnostics, status)`` for ``main`` to write, or
# None when it wrote its output itself (``sweep``).

def _cmd_massieu(args, inputs: dict):
    handle, model = _canonical_model(args, inputs, "massieu")
    if args.theta is None:
        raise UsageError("massieu needs --theta")
    theta = _point(args, "theta", inputs, model.n)
    pair = core.canonical_check(model, theta)
    outputs = {
        "massieu": pair.massieu,
        "u": list(pair.u),
        "entropy": pair.entropy,
        "canonical_residual": pair.residual,
    }
    outputs.update(handle.member_outputs(theta))
    diagnostics = {"roundtrip_error": pair.roundtrip_error}
    if pair.roundtrip_error is None:
        diagnostics["note"] = "chart saturated"
    return outputs, diagnostics, "ok"


def _cmd_maxent(args, inputs: dict):
    handle = _resolve_model(args, inputs)
    if handle.descriptor is None:
        outputs, diagnostics = handle.best_fit(_parse_dataset(args, handle, inputs)())
        return outputs, diagnostics, "ok"

    if args.u is None:
        raise UsageError("maxent needs the moment targets --u")
    u = _point(args, "u", inputs, handle.descriptor.n)
    theta, achieved, iterations, note = handle.match_moments(u)
    outputs = {"theta": list(theta), "achieved": list(achieved),
               "iterations": iterations}
    diagnostics = {"residual": float(np.max(np.abs(achieved - u))), "note": note}
    return outputs, diagnostics, "ok"


def _cmd_divergence(args, inputs: dict):
    handle, model = _canonical_model(args, inputs, "divergence")

    if any(v is not None for v in (args.x, args.z, args.x_file)):
        if args.zeta is not None:
            raise UsageError("give either data or --zeta, not both")
        dataset = _parse_dataset(args, handle, inputs)
        theta = _model_point(args, model, inputs)
        report = core.divergence_from_data(model, dataset(), theta)
        outputs = {
            "mode": "data",
            "value": report.value,
            "massieu_term": report.massieu_at,
            "entropy_term": report.entropy_of_x,
            "linear_term": report.linear_term,
            "answers": list(report.answers),
            "theta": list(theta),
        }
        return outputs, {}, "ok"

    if args.theta is None or args.zeta is None:
        raise UsageError("divergence needs data (--x/--z/--x-file) plus a model"
                         " point, or two model points --theta and --zeta")
    if args.u is not None:
        raise UsageError("give either --u or --theta and --zeta, not both")
    theta = _point(args, "theta", inputs, model.n)
    zeta = _point(args, "zeta", inputs, model.n)
    report = core.bregman_divergence(model, theta, zeta)
    outputs = {
        "mode": "model",
        "value": report.value,
        "massieu_at_first": report.massieu_first,
        "massieu_at_second": report.massieu_second,
        "linear_term": report.linear_term,
        "u_first": list(report.u_first),
    }
    return outputs, {}, "ok"


def _cmd_pythagoras(args, inputs: dict):
    handle, model = _canonical_model(args, inputs, "pythagoras")
    if args.theta is None or args.zeta is None:
        raise UsageError("pythagoras needs --theta and --zeta")
    theta = _point(args, "theta", inputs, model.n)
    zeta = _point(args, "zeta", inputs, model.n)

    if any(v is not None for v in (args.x, args.z, args.x_file)):
        if args.xi is not None:
            raise UsageError("give either data or --xi, not both")
        x = _parse_dataset(args, handle, inputs)()
        report = core.pythagoras_data(model, x, theta, zeta)
        outputs = {
            "mode": "data",
            "divergence_data_first": report.first,
            "divergence_first_second": report.second,
            "divergence_data_second": report.third,
            "residual": report.residual,
        }
        return outputs, {}, "ok"

    if args.xi is None:
        raise UsageError("pythagoras needs either data (--x/--z/--x-file)"
                         " or a third model point --xi")
    xi = _point(args, "xi", inputs, model.n)
    report = core.pythagoras_models(model, theta, zeta, xi)
    outputs = {
        "mode": "model",
        "divergence_first_second": report.first,
        "divergence_second_third": report.second,
        "divergence_first_third": report.third,
        "orthogonality": report.orthogonality,
        "residual": report.residual,
    }
    return outputs, {}, "ok"


_SWEEP_LIMIT = 1_000_000
#: Grid rows evaluated per call of ``core.dual_points``.  A chunk's CSV
#: rows are written, one ``write`` per row, before the next chunk is
#: evaluated, and each grid-axis value is formatted once per chunk.
_SWEEP_CHUNK = 4096


def _parse_grid(specs, n: int) -> list[np.ndarray]:
    if not specs:
        raise UsageError("sweep needs at least one --grid AXIS=START:STOP:COUNT")
    grids = {}  # axis -> (start, stop, count)
    for spec in specs:
        head, sep, tail = spec.partition("=")
        parts = tail.split(":")
        if not sep or len(parts) != 3:
            raise UsageError(f"bad grid spec {spec!r}; expected AXIS=START:STOP:COUNT")
        try:
            axis = int(head)
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"bad grid spec {spec!r}") from None
        # one test for an infinite bound and for a span that overflows,
        # which np.linspace would turn into inf and NaN points
        if not math.isfinite(stop - start):
            raise UsageError(f"grid bounds and their span must be finite in {spec!r}")
        if not 1 <= axis <= n:
            raise UsageError(f"grid axis {axis} out of range 1..{n}")
        if axis in grids:
            raise UsageError(f"grid axis {axis} listed twice")
        if count < 1:
            raise UsageError("grid COUNT must be at least 1")
        grids[axis] = (start, stop, count)
    # the cap is checked on the counts, before any axis is allocated
    total = math.prod(count for _, _, count in grids.values())
    if total > _SWEEP_LIMIT:
        raise UsageError(f"grid has {total} points; the limit is {_SWEEP_LIMIT}")
    axes = [np.zeros(1) for _ in range(n)]
    for axis, (start, stop, count) in grids.items():
        axes[axis - 1] = np.linspace(start, stop, count)
    return axes


def _sweep_columns(model, thetas: np.ndarray, quantities: list[str]) -> list[np.ndarray]:
    """The ``quantities`` columns at a chunk of grid points ``thetas``;
    a column no quantity names is not computed."""
    phi, u, s = core.dual_points(model, thetas)
    columns = {"phi": lambda: phi, "entropy": lambda: s,
               "residual": lambda: core.canonical_residuals(thetas, phi, u, s),
               "unorm": lambda: row_norm(u)}
    # the other names are the moments u1..un
    return [columns[q]() if q in columns else u[:, int(q[1:]) - 1] for q in quantities]


def _axis_labels(ax: np.ndarray, runs: np.ndarray) -> list[str]:
    """The CSV labels of ``ax[runs % ax.size]`` for a chunk's ascending,
    consecutive run indices ``runs``.  Each distinct value of the chunk is
    formatted once, so the labels take O(min(chunk, axis)) memory."""
    first = int(runs[0])
    width = min(int(runs[-1]) - first + 1, ax.size)
    values = ax[np.arange(first, first + width) % ax.size].tolist()
    labels = np.array(["%.12g" % v for v in values], dtype=object)
    return labels[(runs - first) % width].tolist()


def _cmd_sweep(args, inputs: dict):
    """Streams the CSV table and returns None."""
    _, model = _canonical_model(args, inputs, "sweep")
    axes = _parse_grid(args.grid, model.n)
    inputs["grid"] = list(args.grid)

    wanted = [q.strip() for q in (args.quantities or "").split(",") if q.strip()]
    if not wanted:
        raise UsageError("sweep needs --quantities (comma-separated names)")
    known = {"phi", "entropy", "residual", "unorm"}
    known.update(f"u{j + 1}" for j in range(model.n))
    for q in wanted:
        if q not in known:
            raise UsageError(f"unknown quantity {q!r}; known: {sorted(known)}")
    quantities = sorted(set(wanted))
    inputs["quantities"] = quantities

    header = [f"theta{j + 1}" for j in range(model.n)] + quantities
    write = sys.stdout.write
    # "%.12g" % x has the bytes of format(x, ".12g"); the axis labels come
    # formatted, so they go in as strings
    line = "%s," * model.n + ",".join(["%.12g"] * len(quantities)) + "\n"
    shape = [ax.size for ax in axes]
    total = math.prod(shape)
    # Row-major order: the first axis varies slowest, so row r sits at run
    # r // stride of each axis, taken cyclically.
    strides = [math.prod(shape[k + 1:]) for k in range(model.n)]
    for start in range(0, total, _SWEEP_CHUNK):
        flat = np.arange(start, min(start + _SWEEP_CHUNK, total))
        runs = [flat // stride for stride in strides]
        thetas = np.column_stack([ax[r % ax.size] for ax, r in zip(axes, runs)])
        columns = _sweep_columns(model, thetas, quantities)
        labels = [_axis_labels(ax, r) for ax, r in zip(axes, runs)]
        if start == 0:  # after the first chunk, so a failure there prints no header
            write(",".join(header) + "\n")
        for values in zip(*labels, *(c.tolist() for c in columns)):
            write(line % values)  # one write per row, so each row leaves at once

    print(f"sweep: {total} rows", file=sys.stderr)
    return None


def _cmd_verify(args, inputs: dict):
    from . import verify  # the suites load with the first verify command only

    given = [flag for flag, value in (("TARGET", args.target), ("--model", args.model),
                                      ("--config", args.config)) if value is not None]
    if len(given) > 1:
        raise UsageError("verify takes one target (TARGET, --model or --config),"
                         f" got {' and '.join(given)}")
    if args.config is not None:
        handle = _read_file(args.config, "config", load_config)
        target, names = handle.name, (handle.name,)
    else:
        target = next((t for t in (args.target, args.model) if t is not None), "all")
        names = verify.SUITES if target == "all" else (target,)
        if names[0] not in verify.SUITES:
            raise UsageError(f"unknown verify target {target!r}; known: all,"
                             f" {', '.join(verify.SUITES)}")
    inputs["target"] = target

    report, failing = {}, []
    last = time.perf_counter()

    def write(suite, r):  # one check's stderr line and envelope row, as it completes
        nonlocal last
        now = time.perf_counter()
        print(f"[{suite}] {r.name}: {'ok' if r.passed else 'FAIL'} (worst {r.worst:.3e},"
              f" tol {r.tol:.1e}) {1e3 * (now - last):.1f} ms", file=sys.stderr)
        last = now
        if not r.passed:
            failing.append(f"{suite}:{r.name}")
        # a check that failed without a finite measure reports null
        report[suite].append({"name": r.name, "passed": r.passed,
                              "worst": r.worst if math.isfinite(r.worst) else None,
                              "tol": r.tol, "note": r.note})

    def outputs():
        return {"suites": report, "failures": failing,
                "checks": sum(len(rows) for rows in report.values()),
                "failed": len(failing)}

    try:
        for suite in names:
            report[suite] = []
            with verify.reporting(lambda r: write(suite, r)):
                results = (verify.verify_numerics() if suite == "numerics" else
                           verify.verify_handle(handle if args.config else get_model(suite)))
            # the rows of a suite that returned its list without streaming it
            for r in results[len(report[suite]):]:
                write(suite, r)
    except InfoGeoError as exc:
        exc.outputs = outputs()  # main's error envelope keeps the rows reported
        raise
    return outputs(), {}, "error:verify" if failing else "ok"


# --------------------------------------------------------------- parser

#: ``add_argument`` keywords of every flag, and of verify's positional
#: ``target``; each command lists the names it takes in ``_COMMANDS``.
_FLAGS = {
    "--model": {"help": "built-in model name"},
    "--config": {"help": "INI file describing a model"},
    "--theta": {"help": "model parameters, comma-separated"},
    "--u": {"help": "moment coordinates, comma-separated"},
    "--zeta": {"help": "second model point"},
    "--xi": {"help": "third model point (model-triple mode)"},
    "--x": {"help": "data vector: polarization vector, distribution, or"
                    " sphere data"},
    "--z": {"help": "data: coherent amplitude 're,im'"},
    "--x-file": {"help": "data: oscillator state file"},
    "--data": {"help": "CSV file of x,y pairs (regression)"},
    "--grid": {"action": "append", "default": [], "metavar": "AXIS=START:STOP:COUNT",
               "help": "grid for one theta axis (repeatable); unlisted axes"
                       " are pinned at 0"},
    "--quantities": {"help": "comma-separated: phi, entropy, residual, unorm,"
                             " u1..un"},
    "target": {"nargs": "?", "help": "'all' (default), 'numerics' or a model name"},
}

#: command -> (handler, help text, the names in ``_FLAGS`` it takes)
_COMMANDS = {
    "massieu": (_cmd_massieu, "log-normalizer, moments, entropy, and the"
                              " canonical residual at theta",
                ("--model", "--config", "--theta")),
    "maxent": (_cmd_maxent, "model point matching moment targets (or the best"
                            " fit for summary models)",
               ("--model", "--config", "--u", "--x", "--data")),
    "divergence": (_cmd_divergence, "divergence of data or a model point from a"
                                    " model point",
                   ("--model", "--config", "--theta", "--u", "--zeta", "--x", "--z",
                    "--x-file")),
    "pythagoras": (_cmd_pythagoras, "three-point divergence identity (data or"
                                    " model triple)",
                   ("--model", "--config", "--theta", "--zeta", "--xi", "--x", "--z",
                    "--x-file")),
    "sweep": (_cmd_sweep, "tabulate quantities over a parameter grid",
              ("--model", "--config", "--grid", "--quantities")),
    "verify": (_cmd_verify, "run the property suites",
               ("target", "--model", "--config")),
}


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` on a flag error instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for each command."""
    parser = _Parser(
        prog="infogeo",
        description="Dual coordinates, entropy transforms, and divergences"
                    " for a small zoo of statistical models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# Parsing leaves the parser unchanged, so one serves every call of main.
_PARSER = _build_parser()

#: command -> the flags ``_PARSER`` reads from the command alone
_DEFAULTS = {command: vars(_PARSER.parse_args([command])) for command in _COMMANDS}


_NEGATIVE_OK = ("--theta", "--u", "--zeta", "--xi", "--x", "--z")


def _normalize_argv(argv: list[str]) -> list[str]:
    # join the flags that take numbers with values that begin with a minus
    # sign, which argparse would otherwise read as option strings (its
    # negative-number test rejects exponent forms such as -1e-9)
    out = []
    for tok in argv:
        if out and out[-1] in _NEGATIVE_OK and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _read_flags(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """``_PARSER``'s flags for ``[command] + tokens`` (normalized), read from
    ``_FLAGS`` in one pass, if each token is ``--name value`` or
    ``--name=value`` for one of the command's flags, with a plain value;
    else None.  Every flag value is the string argv gives, which the
    command's handler parses."""
    own, flags, rest = _COMMANDS[command][2], dict(_DEFAULTS[command]), iter(tokens)
    for token in rest:
        name, joined, value = token.partition("=")
        value = value if joined else next(rest, "-")  # "-" when none is left
        if (not name.startswith("--") or name not in own or value.startswith("--")
                or not joined and value.startswith("-")):
            return None
        dest = name[2:].replace("-", "_")
        append = _FLAGS[name].get("action") == "append"
        flags[dest] = flags[dest] + [value] if append else value
    return argparse.Namespace(**flags)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The envelope's command is the first non-option token, the one the
    # top-level parser dispatches on (it has no flags that take values).
    first = next((tok for tok in argv if not tok.startswith("-")), None)
    command = first if first in _COMMANDS else None
    inputs = {}
    try:
        tokens = _normalize_argv(argv)
        # A plain argv led by its command is read from the flag table; on
        # any other argv argparse reads the flags, prints help or the
        # version, or raises UsageError before any handler runs.
        args = _read_flags(command, tokens[1:]) if command and argv[0] == command else None
        if args is None:
            args = _PARSER.parse_args(tokens)
        result = _COMMANDS[command][0](args, inputs)
        if result is None:  # a sweep, its CSV already written
            return EXIT_OK
        outputs, diagnostics, status = result
        sys.stdout.write(_envelope(command, inputs, outputs, diagnostics, status))
        return EXIT_OK if status == "ok" else EXIT_VERIFY
    except (UsageError, InfoGeoError) as exc:
        sys.stdout.write(_envelope(command, inputs, getattr(exc, "outputs", {}),
                                   {"message": str(exc)}, f"error:{exc.category}"))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
