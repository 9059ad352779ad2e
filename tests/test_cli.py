"""Command-line contract: JSON result envelopes, exit codes, sweep
output, configuration files, and the model registry behind them."""

import argparse
import dataclasses
import importlib
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import close7, envelope, run_cli, strict_json, write_state

from infogeo import (BUILTIN_NAMES, __version__, canonical_instances, cli, core, errors,
                     get_model, numerics, verify)
from infogeo.discrete import boltzmann_gibbs
from infogeo.registry import (CoherentHandle, DiscreteHandle, QubitHandle, discrete_instance,
                              load_config)

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


def test_get_model_shares_one_read_only_handle_per_name():
    for name in BUILTIN_NAMES:
        assert get_model(name) is get_model(name)
    assert canonical_instances()["qubit"] is get_model("qubit")
    family = get_model("discrete3").family
    domain = get_model("coherent").descriptor.energy_domain
    for array in (family.prior, family.hamiltonians, domain.bounding_box,
                  domain.interior_point,
                  get_model("discrete2").descriptor.energy_domain.interior_point):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    # the handle keeps its own copy of the arrays it was built from
    prior = np.ones(3)
    handle = discrete_instance(prior, [[0.0, 1.0, 2.0]])
    prior[0] = 5.0
    assert handle.family.prior.tolist() == [1.0, 1.0, 1.0]


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


def test_a_config_key_its_type_does_not_read_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "typo.ini"
    for text, key, known in (
            ("[model]\ntype = coherent\n\n[coherent]\nnmx = 8\n", "nmx",
             "['hbar', 'nmax', 'r']"),
            # retired settings: the margins and the search box are constants
            ("[model]\ntype = qubit\n\n[qubit]\nmembership_margin = 0\n",
             "membership_margin", "[]"),
            ("[model]\ntype = qubit\n\n[qubit]\nchart_margin = 1e-6\n",
             "chart_margin", "[]"),
            ("[model]\ntype = coherent\n\n[coherent]\nbox = 40\n", "box",
             "['hbar', 'nmax', 'r']"),
            ("[model]\ntype = sphere\n\n[sphere]\nfoo = 1\n", "foo", "[]"),
            # a setting in the wrong section is not silently left out
            ("[model]\ntype = coherent\nnmax = 8\n", "nmax", "['type']")):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"setting '{key}'"):
            load_config(str(path))
        assert cli.main(["verify", "--config", str(path)]) == 2
        env = strict_json(capsys.readouterr().out)
        assert env["status"] == "error:usage"
        assert f"'{key}'" in env["diagnostics"]["message"]
        assert env["diagnostics"]["message"].endswith(f"known: {known}")
    # [DEFAULT] keys reach every section: they fill in settings, unchecked
    path.write_text("[DEFAULT]\nr = 2\nnote = any\n\n[model]\ntype = coherent\n\n"
                    "[coherent]\nnmax = 8\n")
    handle = load_config(str(path))
    assert (handle.nmax, handle.constants.r) == (8, 2.0)


@pytest.mark.parametrize("line, field", [
    ("prior = 1, 1, 1\nhamiltonians = 0, inf, 2", "hamiltonians"),
    ("prior = 1, 1, 1\nhamiltonians = 0, nan, 2", "hamiltonians"),
    ("prior = 1, inf, 1\nhamiltonians = 0, 1, 2", "prior")])
def test_a_discrete_config_with_a_non_finite_entry_is_a_usage_error(tmp_path, capsys,
                                                                    line, field):
    path = tmp_path / "nonfinite.ini"
    path.write_text(f"[model]\ntype = discrete\n\n[discrete]\n{line}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["massieu", "--config", str(path), "--theta", "0.5"]) == 2
    env = strict_json(capsys.readouterr().out)
    assert env["status"] == "error:usage"
    assert env["diagnostics"]["message"] == f"bad config file: {field} must have finite entries"


@pytest.mark.parametrize("module, name, argv, code, count", [
    ("qubit", "ball_radius",
     ["divergence", "--model", "qubit", "--x", "0.1,0.2,0.3", "--theta", "1,0,0"], 0, 1),
    ("qubit", "ball_radius",
     ["pythagoras", "--model", "qubit", "--x", "-0.76159415595,0,0", "--theta", "1,0,0",
      "--zeta", "0.5,0,0"], 0, 1),
    ("discrete", "check_probability",
     ["divergence", "--model", "discrete3", "--x", "0.2,0.3,0.5", "--theta", "0.4"], 0, 1),
    # |U| = tanh 12 and 1 - 1e-10 lie inside the open unit ball, the domain
    ("qubit", "bloch_to_theta", ["massieu", "--model", "qubit", "--theta", "12,0,0"], 0, 1),
    ("qubit", "bloch_to_theta", ["maxent", "--model", "qubit", "--u", "0.9999999999,0,0"],
     0, 1),
    # |U| = 1 is on its boundary: no chart call
    ("qubit", "bloch_to_theta", ["maxent", "--model", "qubit", "--u", "1,0,0"], 3, 0),
    ("qubit", "bloch_to_theta", ["massieu", "--model", "qubit", "--theta", "10,0,0"], 0, 1)])
def test_a_command_checks_its_data_set_and_inverts_its_chart_once(monkeypatch, capsys, module,
                                                                  name, argv, code, count):
    # the data-set layer is the one check of --x, and the chart is asked
    # once, only for a point inside the domain
    target = importlib.import_module(f"infogeo.{module}")
    original, calls = getattr(target, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    assert cli.main(argv) == code
    capsys.readouterr()
    assert len(calls) == count


@pytest.mark.parametrize("argv, inputs, status", [
    (["divergence", "--model", "qubit", "--x", "0.8,0.7,0", "--theta", "1,0,0"],
     {"model": "qubit", "x": [0.8, 0.7, 0.0], "theta": [1.0, 0.0, 0.0]}, "error:domain"),
    (["divergence", "--model", "qubit", "--x", "0.8,0.7,0", "--theta", "1,0"],
     {"model": "qubit", "x": [0.8, 0.7, 0.0]}, "error:usage"),
    (["divergence", "--model", "discrete3", "--x", "0.5,-1e-13,0.5", "--theta", "0.1"],
     {"model": "discrete3", "x": [0.5, -1e-13, 0.5], "theta": [0.1]}, "ok"),
    (["divergence", "--model", "coherent", "--z", "9,0", "--theta", "1,2,3"],
     {"model": "coherent", "z": "9,0"}, "error:usage"),
    (["divergence", "--model", "coherent", "--z", "9,0", "--theta", "1,2"],
     {"model": "coherent", "z": "9,0", "theta": [1.0, 2.0]}, "error:truncation")])
def test_a_data_vector_is_checked_after_every_flag_is_parsed(capsys, argv, inputs, status):
    # an error envelope keeps the model point, a malformed model point is
    # the error reported, and --x is echoed as given; an --z state is built
    # (and its truncation checked) after the model point is parsed
    assert cli.main(argv) == {"ok": 0, "error:usage": 2}.get(status, 3)
    env = strict_json(capsys.readouterr().out)
    assert (env["inputs"], env["status"]) == (inputs, status)


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


def test_config_handles_are_named_by_the_registry(tmp_path):
    coherent = tmp_path / "coherent.ini"
    coherent.write_text("[model]\ntype = coherent\n\n[coherent]\nr = 3\nhbar = 0.2\n")
    discrete = tmp_path / "discrete.ini"
    discrete.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                        "prior = 1, 1, 1, 1\nhamiltonians = 0, 1, 2, 3\n")
    assert load_config(str(coherent)).name == "coherent(r=3,hbar=0.2)"
    assert load_config(str(discrete)).name == "discrete-4letter"


def test_divergence_data_mode_reads_the_answers_once(capsys, monkeypatch):
    handle = get_model("qubit")
    calls = []

    def answers(x):
        calls.append(x)
        return handle.descriptor.dataset_answers(x)

    counted = dataclasses.replace(handle, descriptor=dataclasses.replace(
        handle.descriptor, dataset_answers=answers))
    monkeypatch.setattr(cli, "get_model", lambda name: counted)
    assert cli.main(["divergence", "--model", "qubit", "--x", "-0.5,0,0",
                     "--theta", "1,0,0"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert len(calls) == 1
    assert outputs["answers"] == [-0.5, 0.0, 0.0]
    assert close7(outputs["value"], 0.06459286642416417)


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
    c = np.zeros(65, dtype=complex)
    c[1] = 1.0
    path = tmp_path / "excited.txt"
    write_state(path, c)
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

    # The README triple misses the projection by ~6e-12, within 1e-9.
    triple = ("--x", "-0.76159415595,0,0", "--theta", "1,0,0",
              "--zeta", "0.2,-0.4,0.3")
    assert run_cli("pythagoras", "--model", "qubit", *triple).returncode == 0


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


def _sweep(capsys, *args):
    code = cli.main(["sweep", *args])
    out, err = capsys.readouterr()
    return code, out, err


def _grid_rows(model, grid, quantities):
    """The rows ``(theta, quantities)`` of a sweep of ``model`` over the
    ``--grid`` specs, in row-major order, from one ``core.dual_points``
    call on the whole grid."""
    desc = get_model(model).descriptor
    axes = [np.zeros(1)] * desc.n
    for spec in grid:
        axis, bounds = spec.split("=")
        start, stop, count = bounds.split(":")
        axes[int(axis) - 1] = np.linspace(float(start), float(stop), int(count))
    thetas = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, desc.n)
    phi, u, s = core.dual_points(desc, thetas)
    columns = {"phi": phi, "entropy": s, "unorm": numerics.row_norm(u),
               "residual": core.canonical_residuals(thetas, phi, u, s)}
    columns.update((f"u{j + 1}", u[:, j]) for j in range(desc.n))
    return np.column_stack([thetas] + [columns[q] for q in quantities]).tolist()


def _csv_lines(rows):
    return [",".join(f"{v:.12g}" for v in row) for row in rows]


def test_sweep_object_format_and_row_order(capsys):
    grid = ["1=0:1:3", "2=0:1:2"]
    code, out, _ = _sweep(capsys, "--model", "coherent", "--grid", grid[0],
                          "--grid", grid[1], "--quantities", "phi")
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "theta1,theta2,phi"
    rows = [[float(v) for v in line.split(",")] for line in lines]
    # Row-major: the first axis varies slowest.
    assert [row[0] for row in rows] == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    assert [row[1] for row in rows] == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert lines == _csv_lines(_grid_rows("coherent", grid, ["phi"]))


_CHUNK_ROWS = [pytest.param("discrete3", [f"1=-3:2:{count}"], "u1,residual,phi,entropy",
                             id=str(offset))
               for offset, count in ((None, 1), (-1, cli._SWEEP_CHUNK - 1),
                                     (0, cli._SWEEP_CHUNK), (1, cli._SWEEP_CHUNK + 1))]


@pytest.mark.parametrize("model, grid, quantities", _CHUNK_ROWS + [
    # three axes over two chunks, with bounds at -0, a subnormal and 1.5e154
    pytest.param("qubit", ["1=-2:2:17", "2=-0:1e-320:16", "3=-1.5e154:1.5e154:16"],
                 "phi,entropy,residual,unorm,u1,u2,u3", id="qubit-3axis"),
    # theta2 pinned at 0; a chunk's theta3 values wrap past the axis end
    pytest.param("qubit", ["1=-1:1:2", "3=-0:1.5e154:5000"], "u3,phi",
                 id="qubit-pinned-axis"),
])
def test_sweep_csv_streams_object_rows_across_chunks(capsys, model, grid, quantities):
    args = ["--model", model, "--quantities", quantities]
    for spec in grid:
        args += ["--grid", spec]
    code, out, err = _sweep(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    n = get_model(model).descriptor.n
    names = sorted(quantities.split(","))
    assert lines[0] == ",".join([f"theta{j + 1}" for j in range(n)] + names)
    # chunk by chunk, the rows of one dual_points call on the whole grid
    rows = _grid_rows(model, grid, names)
    assert err.strip() == f"sweep: {len(rows)} rows"
    assert lines[1:] == _csv_lines(rows)


class _CountingStream(io.StringIO):
    """Text stream that keeps each ``write`` call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_sweep_writes_each_csv_row_in_one_call(monkeypatch):
    stream = _CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    code = cli.main(["sweep", "--model", "qubit", "--grid", "1=-1:1:5", "--grid",
                     f"2=-1:1:{cli._SWEEP_CHUNK // 5 + 1}", "--quantities", "phi,u1"])
    assert code == 0
    lines = stream.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 + 5 * (cli._SWEEP_CHUNK // 5 + 1) > cli._SWEEP_CHUNK
    assert stream.writes == lines


def test_sweep_member_entropy_at_saturated_points(capsys):
    code, out, _ = _sweep(capsys, "--model", "discrete2", "--grid", "1=-40:40:9",
                          "--quantities", "phi,entropy,residual")
    assert code == 0
    rows = _grid_rows("discrete2", ["1=-40:40:9"], ["entropy", "phi", "residual"])
    assert out.splitlines()[1:] == _csv_lines(rows)
    family = get_model("discrete2").family
    for theta, entropy, phi, residual in rows:
        p = boltzmann_gibbs(family, [theta])
        p = p[p > 0.0]
        assert residual <= 1e-12
        assert entropy == pytest.approx(-float(np.sum(p * np.log(p))), abs=1e-15)


def test_massieu_and_sweep_agree_at_saturated_point(capsys):
    """Both commands take Phi, U and S from the same dual point, so the
    member entropy and the residual agree where the chart saturates."""
    env = envelope(run_cli("massieu", "--model", "discrete3", "--theta", "40"))
    code, out, _ = _sweep(capsys, "--model", "discrete3", "--grid", "1=40:40:1",
                          "--quantities", "entropy,residual")
    assert code == 0
    rows = _grid_rows("discrete3", ["1=40:40:1"], ["entropy", "residual"])
    [[theta, entropy, residual]] = rows
    assert theta == 40.0
    assert env["outputs"]["entropy"] == entropy
    assert env["outputs"]["canonical_residual"] == residual
    assert out.splitlines()[1:] == _csv_lines(rows)


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_two(capsys):
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
        ("sweep", "--model", "discrete3", "--grid", "1=-1e308:1e308:3",
         "--quantities", "phi"),                                # span overflows
        ("massieu", "--model", "qubit", "--theta", "nan,0,0"),  # not finite
        ("massieu", "--model", "qubit", "--theta", "1e400,0,0"),
        ("pythagoras", "--model", "qubit", "--theta", "0,0,0", "--zeta", "1,0,0",
         "--xi", "inf,0,0"),
        ("divergence", "--model", "discrete2", "--x", "nan,0.5", "--theta", "0"),
        # --nmax is retired: the state is built on the model's own basis
        ("divergence", "--model", "coherent", "--z", "0.3,0", "--nmax", "8",
         "--theta", "1,2"),
        ("divergence", "--model", "qubit", "--x", "0,0,0.5", "--nmax", "8",
         "--theta", "1,2,3"),
        ("pythagoras", "--model", "coherent", "--z", "0.3,0", "--nmax", "8",
         "--theta", "1,2", "--zeta", "0,0"),
        # a flag that the command's mode never reads
        ("divergence", "--model", "qubit", "--x", "0,0,0.5", "--theta", "1,2,3",
         "--zeta", "0,0,0"),
        ("divergence", "--model", "qubit", "--theta", "1,2,3", "--zeta", "0,0,0",
         "--u", "0.1,0,0"),
        ("massieu", "--config", ".", "--theta", "0,0,0"),       # a directory
        ("verify", "numerics", "--model", "regression"),        # two targets
        ("verify", "all", "--config", "model.ini"),
        ("verify", "no-such-suite"),
    )
    # in process; the first case also through python -m, for its exit path
    proc = run_cli(*cases[0])
    assert proc.returncode == 2, proc.stderr
    assert envelope(proc)["status"] == "error:usage"
    assert proc.stderr.strip()
    for args in cases:
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        assert code == 2, err
        assert strict_json(out)["status"] == "error:usage"
        assert err.strip()
    # no command takes --tol, and sweep takes no --format
    retired = (
        ("massieu", "--model", "qubit", "--theta", "1,0,0", "--tol", "1e-9"),
        ("maxent", "--model", "discrete3", "--u", "1.2", "--tol", "1e-9"),
        ("maxent", "--model", "qubit", "--u", "0.1,0,0", "--tol", "1"),
        ("maxent", "--model", "sphere", "--x", "1,2,3", "--tol", "1"),
        ("pythagoras", "--model", "qubit", "--x", "0,0,0", "--theta", "0,0,0",
         "--zeta", "1,0,0", "--tol", "1e-9"),
        ("pythagoras", "--model", "qubit", "--theta", "0.1,0,0", "--zeta", "0,0.2,0",
         "--xi", "0,0,0.3", "--tol", "1e-300"),
        ("sweep", "--model", "qubit", "--grid", "1=0:1:3", "--quantities", "phi",
         "--format", "object"),
    )
    for args in retired:
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        [line] = out.splitlines()
        env = strict_json(line)
        assert (code, env["status"], env["command"]) == (2, "error:usage", args[0])
        message = env["diagnostics"]["message"]
        assert message == "unrecognized arguments: " + " ".join(args[-2:])


def test_a_discrete_family_with_no_observables_is_a_usage_error(tmp_path):
    # n = 0 is refused when the family is built, so no command reaches the
    # numeric kernels with an empty spectrum
    config = tmp_path / "empty.ini"
    config.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                      "prior = 1, 2, 3\nhamiltonians =\n")
    for args in (("verify", "--config", str(config)),
                 ("maxent", "--config", str(config), "--u", "1")):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "infogeo.cli", *args],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        env = envelope(proc)
        assert (env["status"], env["command"]) == ("error:usage", args[0])
        assert "(n, alphabet) matrix" in env["diagnostics"]["message"]
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")


def test_sweep_grid_cap_is_checked_before_the_axes_are_built(capsys):
    # an axis of 10**15 points would not fit in memory
    code = cli.main(["sweep", "--model", "qubit", "--grid", "1=0:1:1000000000000000",
                     "--quantities", "phi"])
    out, err = capsys.readouterr()
    assert code == 2
    env = strict_json(out)
    assert env["status"] == "error:usage"
    assert "grid has 1000000000000000 points" in env["diagnostics"]["message"]
    assert "Traceback" not in err and err.strip()


@pytest.mark.parametrize("grid, rows", [("1=0:1e200:5000", 0),
                                        ("1=0:2e155:50000", cli._SWEEP_CHUNK)])
def test_a_failing_sweep_ends_its_output_with_the_envelope(capsys, grid, rows):
    # the header follows the first chunk's evaluation: a sweep that
    # overflows there prints only the envelope, one that overflows in a
    # later chunk ends the rows written before it with the envelope
    code, out, _ = _sweep(capsys, "--model", "coherent", "--grid", grid,
                          "--quantities", "residual")
    assert code == 3
    *table, line = out.splitlines()
    header = ["theta1,theta2,residual"] if rows else []
    assert table[:1] == header and len(table) == len(header) + rows
    assert strict_json(line)["status"] == "error:evaluation"


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
    common = {"-h", "--help", "--model", "--config"}
    data = {"--x", "--z", "--x-file"}
    expected = {
        "massieu": common | {"--theta"},
        "maxent": common | {"--u", "--x", "--data"},
        "divergence": common | data | {"--theta", "--u", "--zeta"},
        "pythagoras": common | data | {"--theta", "--zeta", "--xi"},
        "sweep": common | {"--grid", "--quantities"},
        "verify": common,
    }
    [commands] = [action.choices for action in cli._PARSER._actions
                  if isinstance(action, argparse._SubParsersAction)]
    got = {name: {s for action in parser._actions for s in action.option_strings}
           for name, parser in commands.items()}
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
        assert env["status"] == "error:domain"
        assert env["inputs"] == {"model": model, "u": [float(target)]}
        assert f"[{float(target)}]" in env["diagnostics"]["message"]
    proc = run_cli("divergence", "--model", "coherent", "--z", "9,0",
                   "--u", "0,0")
    assert proc.returncode == 3
    env = envelope(proc)
    assert env["status"] == "error:truncation"
    # the --z state is built after the model point is parsed
    assert env["inputs"] == {"model": "coherent", "z": "9,0", "u": [0.0, 0.0]}
    # Results that overflow double precision are typed errors, not a bare
    # Infinity in the envelope or an OverflowError traceback.
    huge = tmp_path / "huge.csv"
    huge.write_text("x,y\n0,1e300\n1,-1e300\n2,3\n")
    for args, status in (
            (("maxent", "--model", "regression", "--data", str(huge)), "evaluation"),
            (("massieu", "--model", "coherent", "--theta", "1e200,0"), "evaluation"),
            (("maxent", "--model", "coherent2", "--u", "0,1e308"), "evaluation"),
            (("divergence", "--model", "coherent", "--z", "1e300,0", "--u", "0,0"),
             "truncation"),
            # the qubit's ball tests take |u| without overflowing
            (("maxent", "--model", "qubit", "--u", "1e200,0,0"), "domain"),
            (("divergence", "--model", "qubit", "--x", "1e200,0,0", "--theta", "0,0,0"),
             "domain")):
        proc = run_cli(*args)
        assert proc.returncode == 3, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        env = envelope(proc)
        assert env["status"] == f"error:{status}"
        assert env["inputs"]["model"] == args[2]
    assert env["diagnostics"]["message"] == "polarization vector is longer than 1"
    # a sweep row that overflows ends the sweep with the same typed error,
    # before the header when it is in the first chunk
    proc = run_cli("sweep", "--model", "coherent", "--grid", "1=1e200:1e200:1",
                   "--quantities", "phi,residual")
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stdout.splitlines()
    assert strict_json(line)["status"] == "error:evaluation"
    assert "inf" not in proc.stdout and "nan" not in proc.stdout


def test_points_outside_the_chart_end_in_its_domain_error(tmp_path, capsys):
    # The chart inversion is the one membership test of a --u point: its
    # DomainError names the point.
    for args, point in (
            (("maxent", "--model", "qubit", "--u", "0.9,0.9,0"), "[0.9, 0.9, 0.0]"),
            (("divergence", "--model", "discrete3", "--x", "0.2,0.3,0.5", "--u", "2.5"),
             "[2.5]")):
        proc = run_cli(*args)
        assert proc.returncode == 3, proc.stderr
        env = envelope(proc)
        assert env["status"] == "error:domain"
        assert env["diagnostics"]["message"] == (
            f"energy point {point} is outside the model domain")
    # A moment target outside the open moment region is a domain error on
    # every command that takes --u, and so is a target on its edge, which
    # has no finite theta.
    path = tmp_path / "triangle.ini"
    path.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                    "prior = 1, 2, 3\nhamiltonians = 0, 1, 2; 1, 0, 0\n")
    for model, targets in ((("--model", "discrete3"), ("2.5", "-0.5")),
                           (("--config", str(path)),
                            ("0.2,0.2", "1.5,0.6", "0.9,0.0999"))):
        for u in targets:
            for command in (["maxent"], ["divergence", "--x", "0.2,0.3,0.5"]):
                assert cli.main([*command, *model, "--u", u]) == 3
                env = strict_json(capsys.readouterr().out)
                assert env["status"] == "error:domain", (command, u)
    for u in ("0", "2"):
        for command in (["maxent"], ["divergence", "--x", "0.2,0.3,0.5"]):
            assert cli.main([*command, "--model", "discrete3", "--u", u]) == 3
            assert strict_json(capsys.readouterr().out)["status"] == "error:domain"



def test_a_target_of_a_narrow_moment_region_fits(tmp_path, capsys):
    # observables of range 0.01 put the member of u = 1e-8, inside the open
    # moment interval (0, 0.01), at theta of about 1,380: infeasibility is
    # the facets' call, not a bound on |theta|
    path = tmp_path / "narrow.ini"
    path.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                    "prior = 1, 1\nhamiltonians = 0, 0.01\n")
    assert cli.main(["maxent", "--config", str(path), "--u", "1e-8"]) == 0
    env = strict_json(capsys.readouterr().out)
    assert env["status"] == "ok"
    assert env["outputs"]["theta"][0] == pytest.approx(1381.55, rel=1e-5)
    assert cli.main(["divergence", "--config", str(path), "--u", "1e-8",
                     "--x", "0.5,0.5"]) == 0
    env = strict_json(capsys.readouterr().out)
    assert env["status"] == "ok"
    assert env["outputs"]["value"] == pytest.approx(6.2146, abs=1e-4)

def test_coherent_values_near_the_overflow_edge_stay_finite():
    # theta_1^2 = 2.25e308 overflows, but Phi = theta_1^2 / 2 does not
    proc = run_cli("massieu", "--model", "coherent", "--theta", "1.5e154,0")
    assert proc.returncode == 0, proc.stdout
    assert "RuntimeWarning" not in proc.stderr
    out = envelope(proc)["outputs"]
    assert out["massieu"] == pytest.approx(1.125e308, rel=1e-15)
    assert out["entropy"] == -out["massieu"]
    assert out["canonical_residual"] == 0.0
    assert out["u"] == [-1.5e154, 0.0]
    proc = run_cli("sweep", "--model", "coherent", "--grid", "1=1.5e154:1.5e154:1",
                   "--grid", "2=-1:1:2", "--quantities", "phi,residual,unorm")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [row[2:] for row in rows] == [["1.125e+308", "0", "1.5e+154"]] * 2
    # Phi = 2e308 itself overflows
    proc = run_cli("massieu", "--model", "coherent", "--theta", "2e154,0")
    assert proc.returncode == 3
    assert envelope(proc)["status"] == "error:evaluation"


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


def test_verify_detects_corrupted_configuration():
    # a qubit whose domain stops short of the pure-state boundary, at the
    # shell 1 - 1e-9 that it once left out
    handle = QubitHandle()
    domain = dataclasses.replace(
        handle.descriptor.energy_domain,
        membership=lambda u: numerics.row_norm(np.asarray(u)) < 1.0 - 1e-9)
    corrupted = dataclasses.replace(
        handle, descriptor=dataclasses.replace(handle.descriptor, energy_domain=domain))
    rows = {r.name: r for r in verify.verify_handle(corrupted)}
    assert not rows["domain-boundary"].passed
    assert rows["domain-boundary"].worst == 1.0
    assert {r.name: r for r in verify.verify_handle(handle)}["domain-boundary"].passed


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


def test_verify_writes_each_check_before_the_next_starts(capsys, monkeypatch):
    """verify writes each check's stderr line, with its time, as soon as
    the check completes: the first kernel call of a numerics check comes
    after the lines of every check before it."""
    err, lines_before = [], {}

    def spy(name):
        kernel = getattr(numerics, name)

        def wrapped(*args, **kwargs):
            err.append(capsys.readouterr().err)
            lines_before.setdefault(name, "".join(err).count("\n"))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(numerics, name, wrapped)

    for name in ("hess_fd", "maximize_concave", "grid_sup", "eig_h2", "func_h2"):
        spy(name)
    assert cli.main(["verify", "numerics"]) == 0
    out, rest = capsys.readouterr()
    # fd-gradient | fd-hessian | three newton-quadratic checks | two grid
    # checks | two eigh2 checks | spectral-calculus
    assert lines_before == {"hess_fd": 1, "maximize_concave": 2, "grid_sup": 5,
                            "eig_h2": 7, "func_h2": 9}
    rows = strict_json(out)["outputs"]["suites"]["numerics"]
    lines = ("".join(err) + rest).splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[numerics] {row['name']}" for row in rows]
    assert all(re.fullmatch(r".*: ok \(worst \S+, tol \S+\) \d+\.\d ms", line)
               for line in lines)


def test_verify_times_checks_on_stderr_only(capsys):
    """Two runs write the same stdout; only their stderr lines carry the
    time of each check."""
    runs = []
    for _ in range(2):
        assert cli.main(["verify", "numerics"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    rows = strict_json(runs[0].out)["outputs"]["suites"]["numerics"]
    assert all(row.keys() == {"name", "passed", "worst", "tol", "note"} for row in rows)
    for _, err in runs:
        lines = err.splitlines()
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert re.fullmatch(rf"\[numerics\] {row['name']}: ok \(worst \S+,"
                                r" tol \S+\) \d+\.\d ms", line)


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



def test_verify_error_envelope_keeps_the_rows_reported(capsys, tmp_path):
    """A check that raises ends verify with exit 3; the error envelope
    carries the rows of the checks reported before it, as the success
    envelope would."""
    path = tmp_path / "wide.ini"
    path.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                    "prior = 1, 1, 1\nhamiltonians = 0, 1, 10\n")
    assert cli.main(["verify", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    env = strict_json(out)
    message = ("Legendre transform did not converge (best value 19.003686234032518,"
               " gradient norm 6.280e-04)")
    assert env["status"] == "error:convergence"
    assert env["diagnostics"] == {"message": message}
    assert env["inputs"] == {"target": "discrete-3letter"}
    rows = env["outputs"]["suites"]["discrete-3letter"]
    assert env["outputs"]["checks"] == len(rows) == 12
    assert [row["name"] for row in rows] == [
        line.split(":")[0].removeprefix("[discrete-3letter] ")
        for line in err.splitlines()[:-1]]
    assert rows[-1]["name"] == "pythagoras-residual-identity"
    failures = [f"discrete-3letter:{row['name']}" for row in rows if not row["passed"]]
    assert env["outputs"]["failures"] == failures
    assert env["outputs"]["failed"] == len(failures)
    assert err.splitlines()[-1] == f"error: {message}"

def test_massieu_at_huge_qubit_parameters(capsys):
    # |theta|^2 overflows here, |theta| and Phi = ln 2cosh|theta| do not
    code = cli.main(["massieu", "--model", "qubit", "--theta", "1e160,0,0"])
    env = strict_json(capsys.readouterr().out)
    assert code == 0 and env["status"] == "ok"
    assert env["outputs"]["massieu"] == 1e160
    assert env["outputs"]["u"] == [-1.0, 0.0, 0.0]
    assert env["diagnostics"]["note"] == "chart saturated"
