"""Command-line contract: JSON result envelopes, exit codes, sweep
output, configuration files, and the model registry behind them."""

import argparse
import json
import math

import numpy as np
import pytest

from conftest import close7, envelope, run_cli, strict_json

from infogeo import (BUILTIN_NAMES, __version__, canonical_instances, cli, errors,
                     get_model, verify)
from infogeo.discrete import boltzmann_gibbs
from infogeo.registry import CoherentHandle, DiscreteHandle, load_config

LN2 = math.log(2.0)


# -------------------------------------------------------------- registry


def test_builtin_names_cover_models_and_summaries():
    for name in ("qubit", "coherent", "coherent2", "discrete2", "discrete3",
                 "regression", "sphere"):
        assert name in BUILTIN_NAMES
    instances = canonical_instances()
    assert set(instances) == {"qubit", "coherent", "coherent2",
                              "discrete2", "discrete3"}
    for handle in instances.values():
        assert handle.descriptor is not None


def test_get_model_unknown_name():
    with pytest.raises(KeyError):
        get_model("no-such-model")


def test_load_config_variants(tmp_path):
    path = tmp_path / "model.ini"
    path.write_text("[model]\ntype = coherent\n\n[coherent]\nr = 2\nhbar = 1\n")
    handle = load_config(str(path))
    assert isinstance(handle, CoherentHandle)
    assert handle.constants.r == 2.0

    discrete = tmp_path / "discrete.ini"
    discrete.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                        "prior = 1, 1, 1\nhamiltonians = 0, 1, 2\n")
    dh = load_config(str(discrete))
    assert isinstance(dh, DiscreteHandle)
    assert dh.family.alphabet_size == 3

    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "missing.ini"))
    broken = tmp_path / "broken.ini"
    broken.write_text("[model]\nname = x\n")
    with pytest.raises(ValueError):
        load_config(str(broken))
    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[model]\ntype = tesseract\n")
    with pytest.raises(ValueError):
        load_config(str(unknown))


# ------------------------------------------------------------- envelopes


def test_massieu_envelope_structure_and_roundtrip():
    proc = run_cli("massieu", "--model", "qubit", "--theta", "1,0,0")
    assert proc.returncode == 0
    env = envelope(proc)
    assert set(env) == {"command", "inputs", "outputs", "diagnostics", "status"}
    assert env["command"] == "massieu"
    assert env["status"] == "ok"
    assert close7(env["outputs"]["massieu"], 1.1269280110429725)
    assert close7(env["outputs"]["entropy"], 0.3653338550872076)
    assert np.allclose(env["outputs"]["u"], [-math.tanh(1.0), 0.0, 0.0],
                       atol=1e-9)
    assert env["outputs"]["canonical_residual"] <= 1e-9
    # The output is a single JSON object that survives a round trip.
    assert json.loads(json.dumps(env)) == env


def test_massieu_saturated_chart_is_a_diagnostic():
    """Far out, U rounds onto the chart boundary: Phi is still finite and
    the refused round trip is reported, not raised."""
    for args, want in ((("--model", "qubit", "--theta", "30,0,0"), 30.0),
                       (("--model", "discrete3", "--theta", "40"),
                        math.log1p(math.exp(-40.0) + math.exp(-80.0)))):
        proc = run_cli("massieu", *args)
        assert proc.returncode == 0, proc.stderr
        env = envelope(proc)
        assert abs(env["outputs"]["massieu"] - want) <= 1e-12
        assert env["outputs"]["canonical_residual"] <= 1e-9
        assert env["diagnostics"] == {"roundtrip_error": None,
                                      "note": "chart saturated"}


def test_coherent_names_agree_across_entry_points():
    env = envelope(run_cli("massieu", "--model", "coherent", "--theta", "1,0"))
    assert env["inputs"]["model"] == "coherent"
    proc = run_cli("verify", "--model", "coherent2")
    assert proc.returncode == 0, proc.stderr
    assert list(envelope(proc)["outputs"]["suites"]) == ["coherent2"]


def test_massieu_discrete_reports_member_distribution():
    proc = run_cli("massieu", "--model", "discrete2", "--theta", str(LN2))
    env = envelope(proc)
    assert close7(env["outputs"]["massieu"], 0.4054651081081644)
    assert np.allclose(env["outputs"]["member_distribution"],
                       [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_massieu_from_config_file(tmp_path):
    path = tmp_path / "wide.ini"
    path.write_text("[model]\ntype = coherent\n\n[coherent]\nr = 2\nhbar = 1\n")
    proc = run_cli("massieu", "--config", str(path), "--theta", "1,0")
    env = envelope(proc)
    assert proc.returncode == 0
    assert close7(env["outputs"]["massieu"], 2.0)
    assert close7(env["outputs"]["entropy"], -2.0)
    assert np.allclose(env["outputs"]["u"], [-4.0, 0.0], atol=1e-9)


def test_config_models_match_builtins(tmp_path):
    """Config-built discrete and coherent models read data sets and run
    the verify suite exactly like their built-in twins."""
    discrete = tmp_path / "discrete.ini"
    discrete.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                        "prior = 1, 1, 1\nhamiltonians = 0, 1, 2\n")
    coherent = tmp_path / "coherent.ini"
    coherent.write_text("[model]\ntype = coherent\n\n[coherent]\nr = 2\nhbar = 0.5\n")
    pairs = (
        (("--config", str(discrete)), ("--model", "discrete3"),
         ("--x", "0.2,0.5,0.3", "--theta", "0.4")),
        (("--config", str(coherent)), ("--model", "coherent2"),
         ("--z", "0.6,-0.3", "--u", "1,0.5")),
    )
    for config, builtin, data in pairs:
        via_config = run_cli("divergence", *config, *data)
        via_builtin = run_cli("divergence", *builtin, *data)
        assert via_config.returncode == 0, via_config.stderr
        assert envelope(via_config)["outputs"] == envelope(via_builtin)["outputs"]

    def check_names(proc):
        assert proc.returncode == 0, proc.stderr
        (rows,) = envelope(proc)["outputs"]["suites"].values()
        return [row["name"] for row in rows]

    assert (check_names(run_cli("verify", "--config", str(discrete)))
            == check_names(run_cli("verify", "--model", "discrete3")))


def test_maxent_discrete_newton_diagnostics():
    proc = run_cli("maxent", "--model", "discrete2", "--u",
                   repr(1.0 / 3.0))
    env = envelope(proc)
    assert close7(env["outputs"]["theta"][0], LN2)
    assert env["outputs"]["iterations"] > 0
    assert env["diagnostics"]["residual"] <= 1e-10


def test_maxent_closed_chart_kinds():
    proc = run_cli("maxent", "--model", "qubit", "--u", "0.5,0,0")
    env = envelope(proc)
    assert close7(env["outputs"]["theta"][0], -0.5493061443340548)
    assert env["outputs"]["iterations"] == 0
    proc = run_cli("maxent", "--model", "coherent", "--u", "2,0")
    env = envelope(proc)
    assert np.allclose(env["outputs"]["theta"], [-2.0, 0.0], atol=1e-12)


def test_maxent_sphere_and_regression(tmp_path):
    proc = run_cli("maxent", "--model", "sphere", "--x", "0,0,2")
    env = envelope(proc)
    assert np.allclose(env["outputs"]["direction"], [0.0, 0.0, 1.0], atol=1e-12)
    assert close7(env["outputs"]["entropy"], -0.3862943611198906)

    data = tmp_path / "line.csv"
    data.write_text("x,y\n0,1\n1,3\n2,5\n")
    proc = run_cli("maxent", "--model", "regression", "--data", str(data))
    env = envelope(proc)
    assert np.allclose(env["outputs"]["questions"], [2.0, 1.0], atol=1e-10)
    assert close7(env["outputs"]["entropy"], -5.0)
    assert env["outputs"]["perfect"] is True


def test_divergence_dash_leading_vectors():
    proc = run_cli("divergence", "--model", "qubit",
                   "--x", "-0.5,0,0", "--theta", "1,0,0")
    assert proc.returncode == 0
    env = envelope(proc)
    assert close7(env["outputs"]["value"], 0.06459286642416417)
    assert env["outputs"]["mode"] == "data"


def test_divergence_coherent_state_inputs(tmp_path):
    proc = run_cli("divergence", "--model", "coherent",
                   "--z", "1,0", "--u", "0,0")
    env = envelope(proc)
    assert close7(env["outputs"]["value"], 0.5)
    assert np.allclose(env["outputs"]["answers"], [1.0, 0.0], atol=1e-9)
    assert close7(env["outputs"]["entropy_term"], -0.5)

    # A saved first-excited state read back through --x-file.
    from infogeo.coherent import FockVector, save_state

    c = np.zeros(65, dtype=complex)
    c[1] = 1.0
    path = tmp_path / "excited.txt"
    save_state(str(path), FockVector(c))
    proc = run_cli("divergence", "--model", "coherent",
                   "--x-file", str(path), "--u", "0,0")
    env = envelope(proc)
    assert close7(env["outputs"]["value"], 1.0)


def test_divergence_model_mode():
    proc = run_cli("divergence", "--model", "qubit",
                   "--theta", "0,0,0", "--zeta", "1,0,0")
    env = envelope(proc)
    assert env["outputs"]["mode"] == "model"
    assert close7(env["outputs"]["value"], 0.4337808304830272)


def test_pythagoras_model_mode_residual_tracks_orthogonality():
    proc = run_cli("pythagoras", "--model", "qubit", "--theta", "0.7,-0.2,0.4",
                   "--zeta", "-0.3,0.5,0.1", "--xi", "0.2,0.2,-0.6")
    env = envelope(proc)
    out = env["outputs"]
    assert out["residual"] == pytest.approx(abs(out["orthogonality"]),
                                            abs=1e-10)


def test_pythagoras_data_mode_compliant_triple():
    u = -math.tanh(1.0)
    proc = run_cli("pythagoras", "--model", "qubit",
                   "--x", f"{u!r},0,0", "--theta", "1,0,0",
                   "--zeta", "0.2,-0.4,0.3")
    env = envelope(proc)
    assert proc.returncode == 0
    assert env["outputs"]["residual"] <= 1e-9

    # The README triple misses the projection by ~6e-12: within the
    # default 1e-9, but --tol 0 demands an exact match.
    triple = ("--x", "-0.76159415595,0,0", "--theta", "1,0,0",
              "--zeta", "0.2,-0.4,0.3")
    assert run_cli("pythagoras", "--model", "qubit", *triple).returncode == 0
    proc = run_cli("pythagoras", "--model", "qubit", *triple, "--tol", "0")
    assert proc.returncode == 3
    assert envelope(proc)["status"] == "error:constraint"


# ----------------------------------------------------------------- sweep


def test_sweep_csv_contract():
    proc = run_cli("sweep", "--model", "qubit", "--grid", "1=-2:2:41",
                   "--quantities", "phi,unorm")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "theta1,theta2,theta3,phi,unorm"
    assert len(lines) == 42
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -2.0 and first[1] == 0.0 and first[2] == 0.0
    assert close7(first[3], math.log(2.0 * math.cosh(2.0)))
    assert close7(first[4], math.tanh(2.0))
    assert "sweep: 41 rows" in proc.stderr


def test_sweep_object_format_and_row_order():
    proc = run_cli("sweep", "--model", "coherent", "--grid", "1=0:1:3",
                   "--grid", "2=0:1:2", "--quantities", "phi",
                   "--format", "object")
    env = envelope(proc)
    out = env["outputs"]
    assert out["count"] == 6
    assert out["header"] == ["theta1", "theta2", "phi"]
    # Row-major: the first axis varies slowest.
    firsts = [row[0] for row in out["rows"]]
    assert firsts == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    seconds = [row[1] for row in out["rows"]]
    assert seconds == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def _sweep(capsys, *args):
    code = cli.main(["sweep", *args])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_sweep_csv_streams_object_rows_across_chunks(capsys, offset):
    count = 1 if offset is None else cli._SWEEP_CHUNK + offset
    args = ("--model", "discrete3", "--grid", f"1=-3:2:{count}",
            "--quantities", "u1,residual,phi,entropy")
    code, out, err = _sweep(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta1,entropy,phi,residual,u1"
    assert err.strip() == f"sweep: {count} rows"
    code, out, _ = _sweep(capsys, *args, "--format", "object")
    env = strict_json(out)
    assert code == 0 and env["outputs"]["count"] == count
    assert lines[1:] == [",".join(f"{v:.12g}" for v in row)
                         for row in env["outputs"]["rows"]]


def test_sweep_member_entropy_at_saturated_points(capsys):
    code, out, _ = _sweep(capsys, "--model", "discrete2", "--grid", "1=-40:40:9",
                          "--quantities", "phi,entropy,residual", "--format", "object")
    assert code == 0
    family = get_model("discrete2").family
    for theta, entropy, phi, residual in strict_json(out)["outputs"]["rows"]:
        p = boltzmann_gibbs(family, [theta])
        p = p[p > 0.0]
        assert residual <= 1e-12
        assert entropy == pytest.approx(-float(np.sum(p * np.log(p))), abs=1e-15)


def test_massieu_and_sweep_agree_at_saturated_point(capsys):
    """Both commands take Phi, U and S from the same dual point, so the
    member entropy and the residual agree where the chart saturates."""
    env = envelope(run_cli("massieu", "--model", "discrete3", "--theta", "40"))
    code, out, _ = _sweep(capsys, "--model", "discrete3", "--grid", "1=40:40:1",
                          "--quantities", "entropy,residual", "--format", "object")
    assert code == 0
    [[theta, entropy, residual]] = strict_json(out)["outputs"]["rows"]
    assert theta == 40.0
    assert env["outputs"]["entropy"] == entropy
    assert env["outputs"]["canonical_residual"] == residual


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_two():
    cases = (
        ("massieu", "--model", "qubit"),                        # missing theta
        ("massieu", "--model", "qubit", "--theta", "1,0"),      # wrong length
        ("massieu", "--model", "nope", "--theta", "1"),         # unknown model
        ("divergence", "--model", "qubit", "--x", "0,0,0.5"),   # no model point
        ("sweep", "--model", "qubit", "--grid", "1=0:1:3",
         "--quantities", ""),                                   # empty list
        ("sweep", "--model", "qubit", "--grid", "1=0:1:3",
         "--quantities", "phi,bogus"),                          # unknown name
        ("sweep", "--model", "qubit", "--grid", "1=0:1:2000",
         "--grid", "2=0:1:2000", "--quantities", "phi"),        # too large
        ("sweep", "--model", "qubit", "--grid", "1=0:inf:3",
         "--quantities", "phi"),                                # not finite
        ("massieu", "--model", "qubit", "--theta", "nan,0,0"),  # not finite
        ("massieu", "--model", "qubit", "--theta", "1e400,0,0"),
        ("pythagoras", "--model", "qubit", "--theta", "0,0,0", "--zeta", "1,0,0",
         "--xi", "inf,0,0"),
        ("divergence", "--model", "discrete2", "--x", "nan,0.5", "--theta", "0"),
        ("divergence", "--model", "coherent", "--z", "1,0", "--u", "0,0",
         "--nmax", "0"),                                        # empty basis
        ("massieu", "--config", ".", "--theta", "0,0,0"),       # a directory
        ("verify", "numerics", "--model", "regression"),        # two targets
        ("verify", "all", "--config", "model.ini"),
        ("verify", "no-such-suite"),
    )
    for args in cases:
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        env = envelope(proc)
        assert env["status"] == "error:usage"
        assert proc.stderr.strip()


@pytest.mark.parametrize("args, command", [
    (("massieu", "--model", "qubit", "--theta", "0,0,0", "--bogus", "1"), "massieu"),
    (("massieu", "--model", "qubit", "--u", "1"), "massieu"),  # a maxent flag
    (("divergence", "--model", "coherent", "--z", "1,0", "--u", "0,0",
      "--nmax", "abc"), "divergence"),
    (("sweep", "--model", "qubit", "--grid", "1=0:1:3", "--quantities", "phi",
      "--format", "xml"), "sweep"),
    (("frobnicate", "--model", "qubit"), None),
    (("frobnicate", "--model", "massieu"), None),
    ((), None),
])
def test_flag_errors_give_one_usage_envelope(args, command):
    proc = run_cli(*args)
    assert proc.returncode == 2
    [line] = proc.stdout.splitlines()
    env = strict_json(line)
    assert env["status"] == "error:usage"
    assert env["command"] == command
    assert env["diagnostics"]["message"]
    assert proc.stderr.startswith("error: ")


def test_help_and_version_print_text():
    proc = run_cli("--version")
    assert (proc.returncode, proc.stdout.strip()) == (0, __version__)
    proc = run_cli("massieu", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: infogeo massieu")


def test_subcommands_take_the_same_flags():
    subparsers = next(a for a in cli._PARSER._actions
                      if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--model", "--config"}
    data = {"--x", "--z", "--x-file", "--nmax"}
    expected = {
        "massieu": common | {"--tol", "--theta"},
        "maxent": common | {"--tol", "--u", "--x", "--data"},
        "divergence": common | data | {"--theta", "--u", "--zeta"},
        "pythagoras": common | data | {"--tol", "--theta", "--zeta", "--xi"},
        "sweep": common | {"--grid", "--quantities", "--format"},
        "verify": common,
    }
    got = {name: {s for action in parser._actions for s in action.option_strings}
           for name, parser in subparsers.choices.items()}
    assert got == expected


def test_main_calls_in_one_process_match_separate_runs(capsys, monkeypatch):
    """The parser is built once, at import, and shared by every call."""
    def no_rebuild():
        raise AssertionError("main must reuse the parser built at import")

    monkeypatch.setattr(cli, "_build_parser", no_rebuild)
    argvs = (
        ("massieu", "--model", "qubit", "--bogus", "1"),
        ("massieu", "--model", "qubit", "--theta", "1,0,0"),
        ("sweep", "--model", "qubit", "--grid", "1=-1:1:3", "--grid", "2=0:1:2",
         "--quantities", "phi"),
        ("sweep", "--model", "discrete2", "--grid", "1=0:1:2", "--quantities", "u1"),
        ("divergence", "--model", "qubit", "--x", "-0.5,0,0", "--theta", "1,0,0"),
        ("divergence", "--model", "coherent", "--z", "1,0", "--u", "0,0"),
        ("massieu", "--model", "qubit", "--theta", "30,0,0"),
    )
    for args in argvs:
        code = cli.main(list(args))
        out, _ = capsys.readouterr()
        proc = run_cli(*args)
        assert (code, out) == (proc.returncode, proc.stdout), args


def test_error_classes_carry_their_status_category():
    categories = {
        errors.InfoGeoError: "numeric",
        errors.DomainError: "domain",
        errors.EvaluationError: "evaluation",
        errors.ConvergenceError: "convergence",
        errors.DegeneracyError: "degenerate",
        errors.CanonicalityError: "canonicality",
        errors.UnsupportedOperationError: "unsupported",
        errors.ConstraintError: "constraint",
        errors.SupportError: "support",
        errors.InfeasibleError: "infeasible",
        errors.TruncationError: "truncation",
    }
    defined = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.InfoGeoError)}
    assert defined == set(categories)
    for cls, category in categories.items():
        assert cls.category == category


def test_numeric_domain_errors_exit_three(tmp_path):
    """Error envelopes keep the inputs parsed before the error, and their
    messages print vectors as lists."""
    proc = run_cli("maxent", "--model", "qubit", "--u", "1.5,0,0")
    assert proc.returncode == 3
    assert envelope(proc)["status"] == "error:domain"
    proc = run_cli("divergence", "--model", "qubit", "--x", "0,0,0.5", "--u", "2,0,0")
    assert proc.returncode == 3
    env = envelope(proc)
    assert env["status"] == "error:domain"
    assert env["inputs"] == {"model": "qubit", "x": [0.0, 0.0, 0.5], "u": [2.0, 0.0, 0.0]}
    for model, target in (("discrete2", "1.5"), ("discrete3", "2.5"),
                          ("discrete3", "-0.5")):
        proc = run_cli("maxent", "--model", model, "--u", target)
        assert proc.returncode == 3
        env = envelope(proc)
        assert env["status"] == "error:infeasible"
        assert env["inputs"] == {"model": model, "u": [float(target)]}
        assert f"[{float(target)}]" in env["diagnostics"]["message"]
    proc = run_cli("divergence", "--model", "coherent", "--z", "9,0",
                   "--u", "0,0")
    assert proc.returncode == 3
    env = envelope(proc)
    assert env["status"] == "error:truncation"
    assert env["inputs"] == {"model": "coherent", "z": "9,0"}
    # Results that overflow double precision are typed errors, not a bare
    # Infinity in the envelope or an OverflowError traceback.
    huge = tmp_path / "huge.csv"
    huge.write_text("x,y\n0,1e300\n1,-1e300\n2,3\n")
    for args, status in (
            (("maxent", "--model", "regression", "--data", str(huge)), "evaluation"),
            (("massieu", "--model", "coherent", "--theta", "1e200,0"), "evaluation"),
            (("maxent", "--model", "coherent2", "--u", "0,1e308"), "evaluation"),
            (("divergence", "--model", "coherent", "--z", "1e300,0", "--u", "0,0"),
             "truncation")):
        proc = run_cli(*args)
        assert proc.returncode == 3, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        env = envelope(proc)
        assert env["status"] == f"error:{status}"
        assert env["inputs"]["model"] == args[2]
    # a sweep row that overflows ends the sweep with the same typed error
    proc = run_cli("sweep", "--model", "coherent", "--grid", "1=1e200:1e200:1",
                   "--quantities", "phi,residual")
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    header, rest = proc.stdout.split("\n", 1)
    assert header == "theta1,theta2,phi,residual"
    assert strict_json(rest)["status"] == "error:evaluation"
    assert "inf" not in proc.stdout and "nan" not in proc.stdout


def test_verify_single_model_exits_zero():
    proc = run_cli("verify", "--model", "regression")
    assert proc.returncode == 0, proc.stderr
    env = envelope(proc)
    assert env["status"] == "ok"
    assert env["outputs"]["failed"] == 0
    assert env["outputs"]["checks"] > 0
    suites = env["outputs"]["suites"]
    names = {row["name"] for rows in suites.values() for row in rows}
    assert "least-squares-agreement" in names


def test_verify_detects_corrupted_configuration(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\ntype = qubit\n\n[qubit]\n"
                    "membership_margin = 0\n")
    proc = run_cli("verify", "--config", str(path))
    assert proc.returncode == 1
    env = envelope(proc)
    assert env["status"] == "error:verify"
    assert "qubit:domain-boundary-margin" in env["outputs"]["failures"]


def test_verify_takes_one_target(capsys):
    for args, conflict in ((("numerics", "--model", "regression"), "TARGET and --model"),
                           (("all", "--config", "model.ini"), "TARGET and --config"),
                           (("--model", "qubit", "--config", "model.ini"),
                            "--model and --config")):
        assert cli.main(["verify", *args]) == 2
        out, err = capsys.readouterr()
        env = strict_json(out)
        assert env["status"] == "error:usage" and env["inputs"] == {}
        assert conflict in env["diagnostics"]["message"]
        assert conflict in err


def test_verify_writes_each_suite_before_the_next_starts(capsys, monkeypatch):
    """verify all looks each suite up when it runs it and writes the
    suite's check lines to stderr as soon as the suite returns."""
    started = []

    def suite(name):
        started.append((name, capsys.readouterr().err))
        return [verify.PropertyResult(f"{name}-check", True, 0.0, 1.0)]

    monkeypatch.setattr(verify, "verify_numerics", lambda: suite("numerics"))
    monkeypatch.setattr(verify, "verify_handle", lambda handle: suite(handle.name))
    assert cli.main(["verify", "all"]) == 0
    out, _ = capsys.readouterr()
    assert [name for name, _ in started] == list(verify.SUITES)
    previous = [""] + [f"[{name}] {name}-check: ok (worst 0.000e+00, tol 1.0e+00)\n"
                       for name in verify.SUITES[:-1]]
    assert [err for _, err in started] == previous
    env = strict_json(out)
    assert env["inputs"] == {"target": "all"}
    assert env["outputs"]["checks"] == len(verify.SUITES)


def test_verify_reports_a_check_without_a_finite_measure(capsys, monkeypatch):
    """A check marks a failure it cannot measure with an infinite or NaN
    worst; the report keeps it, with worst null, and stays strict JSON."""
    monkeypatch.setattr(verify, "verify_handle", lambda handle: [
        verify.PropertyResult("unmeasured", False, math.inf, 1.0),
        verify.PropertyResult("undefined", False, math.nan, 1.0),
        verify.PropertyResult("measured", True, 0.0, 1.0)])
    assert cli.main(["verify", "--model", "qubit"]) == 1
    out, err = capsys.readouterr()
    env = strict_json(out)
    assert env["status"] == "error:verify"
    assert env["outputs"]["failures"] == ["qubit:unmeasured", "qubit:undefined"]
    assert [row["worst"] for row in env["outputs"]["suites"]["qubit"]] == [None, None, 0.0]
    assert "[qubit] unmeasured: FAIL (worst inf, tol 1.0e+00)" in err


def test_massieu_at_huge_qubit_parameters(capsys):
    # |theta|^2 overflows here, |theta| and Phi = ln 2cosh|theta| do not
    code = cli.main(["massieu", "--model", "qubit", "--theta", "1e160,0,0"])
    env = strict_json(capsys.readouterr().out)
    assert code == 0 and env["status"] == "ok"
    assert env["outputs"]["massieu"] == 1e160
    assert env["outputs"]["u"] == [-1.0, 0.0, 0.0]
    assert env["diagnostics"]["note"] == "chart saturated"
