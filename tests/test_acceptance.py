"""End-to-end acceptance gates for the library and its command line.

Each test pins a user-visible guarantee: agreement between independent
computation routes, identities that must hold to stated tolerances, and
command-line outputs that must reproduce documented values to seven
significant digits.
"""

import math

import numpy as np
import pytest

from conftest import close7, envelope, run_cli, write_state

from infogeo import canonical_instances, get_model
from infogeo.core import legendre_rows
from infogeo.verify import verify_handle

CANONICAL = ("qubit", "coherent", "coherent2", "discrete2", "discrete3")
DISCRETES = ("discrete2", "discrete3")
COHERENTS = ("coherent", "coherent2")


@pytest.fixture(scope="module")
def reports():
    """Property-check reports for every canonical instance plus the
    regression summary model (computed once; ~5 s)."""
    out = {name: verify_handle(get_model(name)) for name in CANONICAL}
    out["regression"] = verify_handle(get_model("regression"))
    return out


def check(rows, name):
    for row in rows:
        if row.name == name:
            return row
    raise AssertionError(f"check {name!r} not found in "
                         f"{sorted(r.name for r in rows)}")


def assert_green(rows, name, tol=None):
    row = check(rows, name)
    assert row.passed, (f"{name}: worst {row.worst:.3e} exceeds "
                        f"tolerance {row.tol:g} ({row.note})")
    if tol is not None:
        assert row.tol <= tol, (f"{name} ran at tolerance {row.tol:g}, "
                                f"looser than the required {tol:g}")
    return row


# ----------------------------------------------------------------------
# Numeric Legendre transform against the closed qubit form and a
# brute-force grid oracle.


def test_qubit_numeric_legendre_matches_closed_form(reports):
    row = assert_green(reports["qubit"], "legendre-numeric-vs-closed", 1e-6)
    assert "100 points" in row.note
    assert_green(reports["qubit"], "massieu-grid-oracle", 2e-3)


# ----------------------------------------------------------------------
# Dual relations between the two charts on all five instances.


def test_dual_relations_hold_on_every_instance(reports):
    for name in CANONICAL:
        assert_green(reports[name], "dual-relation-massieu-gradient", 1e-5)
        assert_green(reports[name], "dual-relation-entropy-gradient", 1e-5)


# ----------------------------------------------------------------------
# The canonical identity, on closed forms and on numeric-only routes.


def test_canonical_identity_closed_paths(reports):
    for name in CANONICAL:
        assert_green(reports[name], "canonical-identity", 1e-9)
        assert_green(reports[name], "dual-roundtrip", 1e-9)


def test_canonical_identity_numeric_paths():
    rng = np.random.default_rng(41)
    for name in CANONICAL:
        desc = get_model(name).descriptor
        thetas = []
        for _ in range(100):
            if name == "qubit":
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                thetas.append(v * rng.uniform(0.05, 3.0))
            else:
                thetas.append(rng.uniform(-3.0, 3.0, size=desc.n))
        thetas = np.array(thetas)
        phi, u = legendre_rows(desc, thetas, tol=1e-7)
        residuals = np.abs(phi - desc.entropy_u(u) + np.sum(thetas * u, axis=1))
        worst = float(np.max(residuals))
        assert worst <= 1e-6, f"{name}: worst numeric residual {worst:.3e}"


# ----------------------------------------------------------------------
# Metric consistency: positive definiteness plus the two closed
# cross-checks (observable covariance; constant Gaussian metric).


def test_metric_positive_definite_everywhere_sampled(reports):
    for name in CANONICAL:
        assert_green(reports[name], "metric-positive-definite")


def test_metric_agrees_with_observable_covariance(reports):
    for name in DISCRETES:
        assert_green(reports[name], "fisher-metric-agreement", 1e-5)


def test_metric_is_constant_gaussian_for_coherent(reports):
    for name in COHERENTS:
        assert_green(reports[name], "metric-constant-gaussian", 1e-5)


# ----------------------------------------------------------------------
# Pythagorean identities for compliant data triples and for
# constructed orthogonal model triples.


def test_pythagoras_with_compliant_data(reports):
    for name in CANONICAL:
        row = assert_green(reports[name], "pythagoras-with-data", 1e-9)
        assert "210" in row.note  # at least 200 random compliant triples


def test_pythagoras_on_orthogonal_model_triples(reports):
    for name in CANONICAL:
        row = assert_green(reports[name], "pythagoras-orthogonal-models", 1e-9)
        assert "100" in row.note
        assert_green(reports[name], "pythagoras-residual-identity", 1e-9)


# ----------------------------------------------------------------------
# Divergence route agreement: spectral quantum relative entropy,
# direct relative entropy, and the fiber-supremum construction must
# all match the affine form.


def test_quantum_relative_entropy_matches_affine_form(reports):
    assert_green(reports["qubit"], "relative-entropy-agreement", 1e-10)


def test_kl_divergence_matches_affine_form(reports):
    for name in DISCRETES:
        assert_green(reports[name], "kl-affine-agreement", 1e-12)


def test_fiber_supremum_divergence_agreement(reports):
    assert_green(reports["discrete3"], "fiber-sup-divergence-agreement", 1e-4)
    assert_green(reports["qubit"], "fiber-sup-divergence-singleton", 1e-12)


# ----------------------------------------------------------------------
# Coherent-state suite: Gaussian entropy law, nonnegative and
# phase-invariant divergence, and the affine log-map identity.


def test_coherent_state_entropy_and_divergence(reports):
    for name in COHERENTS:
        assert_green(reports[name], "coherent-perfect-data", 1e-10)
        row = assert_green(reports[name], "divergence-nonnegative-states",
                           1e-10)
        assert "500" in row.note
        assert_green(reports[name], "divergence-phase-invariance", 1e-12)
        assert_green(reports[name], "log-map-affine-identity", 1e-9)
        assert_green(reports[name], "annihilation-eigenstate", 1e-8)


# ----------------------------------------------------------------------
# Regression closed forms and the pairwise double-sum oracle.


def test_regression_least_squares_and_entropy(reports):
    rows = reports["regression"]
    row = assert_green(rows, "least-squares-agreement", 1e-10)
    assert "500" in row.note
    assert_green(rows, "perfect-data-entropy", 1e-10)
    assert_green(rows, "moment-vs-pairwise", 1e-9)


# ----------------------------------------------------------------------
# Constrained maximization: no sampled fiber member may beat the
# model point's entropy.


def test_fiber_entropy_never_exceeds_model_entropy(reports):
    assert_green(reports["discrete3"], "fiber-entropy-dominated", 1e-9)
    for name in COHERENTS:
        assert_green(reports[name], "fiber-entropy-dominated", 1e-9)
        assert_green(reports[name], "fiber-coherent-attains", 1e-10)


# ----------------------------------------------------------------------
# Convexity of the Massieu function along random segments.


def test_massieu_convexity_on_random_segments(reports):
    for name in CANONICAL:
        row = assert_green(reports[name], "massieu-convexity", 1e-9)
        assert "500" in row.note


# ----------------------------------------------------------------------
# Command-line contract: the self-check must be green, and every
# documented example must reproduce its value to 7 significant digits.


def test_cli_verify_all_is_green():
    proc = run_cli("verify", "all")
    assert proc.returncode == 0, proc.stderr[-2000:]
    env = envelope(proc)
    assert env["status"] == "ok"
    assert env["outputs"]["failed"] == 0
    assert env["outputs"]["failures"] == []
    assert env["outputs"]["checks"] >= 100


def test_cli_massieu_examples():
    env = envelope(run_cli("massieu", "--model", "qubit", "--theta", "1,0,0"))
    assert close7(env["outputs"]["massieu"], 1.1269280110429725)
    assert close7(env["outputs"]["u"][0], -0.7615941559557649)
    assert close7(env["outputs"]["entropy"], 0.3653338550872076)

    env = envelope(run_cli("massieu", "--model", "qubit", "--theta", "0,0,0"))
    assert close7(env["outputs"]["massieu"], 0.6931471805599453)

    env = envelope(run_cli("massieu", "--model", "coherent", "--theta", "1,1"))
    assert close7(env["outputs"]["massieu"], 1.0)
    assert close7(env["outputs"]["u"][0], -1.0)
    assert close7(env["outputs"]["u"][1], -1.0)
    assert close7(env["outputs"]["entropy"], -1.0)

    env = envelope(run_cli("massieu", "--model", "discrete2",
                           "--theta", "0.6931471805599453"))
    assert close7(env["outputs"]["massieu"], 0.4054651081081644)
    assert close7(env["outputs"]["member_distribution"][0], 2.0 / 3.0)
    assert close7(env["outputs"]["member_distribution"][1], 1.0 / 3.0)


def test_cli_massieu_with_config_file(tmp_path):
    path = tmp_path / "wide-mode.ini"
    path.write_text("[model]\ntype = coherent\n\n[coherent]\nr = 2\nhbar = 1\n")
    env = envelope(run_cli("massieu", "--config", str(path), "--theta", "1,0"))
    assert close7(env["outputs"]["massieu"], 2.0)
    assert close7(env["outputs"]["entropy"], -2.0)
    assert close7(env["outputs"]["u"][0], -4.0)


def test_cli_maxent_examples():
    env = envelope(run_cli("maxent", "--model", "discrete2",
                           "--u", "0.3333333333333333"))
    assert close7(env["outputs"]["theta"][0], 0.6931471805599453)
    assert env["outputs"]["iterations"] > 0

    env = envelope(run_cli("maxent", "--model", "discrete3", "--u", "1"))
    assert abs(env["outputs"]["theta"][0]) <= 1e-9

    env = envelope(run_cli("maxent", "--model", "qubit", "--u", "0.5,0,0"))
    assert close7(env["outputs"]["theta"][0], -0.5493061443340548)
    assert env["outputs"]["iterations"] == 0

    env = envelope(run_cli("maxent", "--model", "coherent", "--u", "2,0"))
    assert close7(env["outputs"]["theta"][0], -2.0)

    # Model entropy at the fitted point for mean coordinates (sqrt(2), 0).
    env = envelope(run_cli("massieu", "--model", "coherent",
                           "--theta", f"{-math.sqrt(2.0)!r},0"))
    assert close7(env["outputs"]["entropy"], -1.0)


def test_cli_divergence_examples(tmp_path):
    env = envelope(run_cli("divergence", "--model", "qubit",
                           "--x", "-0.5,0,0", "--theta", "1,0,0"))
    assert close7(env["outputs"]["value"], 0.06459286642416417)

    env = envelope(run_cli("divergence", "--model", "discrete2",
                           "--x", "0.5,0.5", "--theta", "0.6931471805599453"))
    assert close7(env["outputs"]["value"], 0.05889151782819174)

    env = envelope(run_cli("divergence", "--model", "coherent",
                           "--z", "1,0", "--u", "0,0"))
    assert close7(env["outputs"]["value"], 0.5)
    assert close7(env["outputs"]["answers"][0], 1.0)
    assert close7(env["outputs"]["entropy_term"], -0.5)

    env = envelope(run_cli("divergence", "--model", "coherent",
                           "--z", "0,1", "--u", "0,0"))
    assert close7(env["outputs"]["value"], 0.5)
    assert close7(env["outputs"]["answers"][1], 1.0)

    c = np.zeros(65, dtype=complex)
    c[1] = 1.0
    path = tmp_path / "first-excited.txt"
    write_state(path, c)
    env = envelope(run_cli("divergence", "--model", "coherent",
                           "--x-file", str(path), "--u", "0,0"))
    assert close7(env["outputs"]["value"], 1.0)
    assert close7(env["outputs"]["entropy_term"], -1.0)

    # Pure state against the maximally mixed member.
    env = envelope(run_cli("divergence", "--model", "qubit",
                           "--x", "0,0,1", "--theta", "0,0,0"))
    assert close7(env["outputs"]["value"], 0.6931471805599453)


def test_cli_log_map_identity_through_divergence():
    env = envelope(run_cli("divergence", "--model", "coherent",
                           "--z", "1,0", "--u", "1,0"))
    out = env["outputs"]
    assert abs(out["value"]) <= 1e-9  # self-divergence
    # <x|L(m)> = -(Phi + theta . answers) = |z|^2 / 2 here.
    assert close7(-(out["massieu_term"] + out["linear_term"]), 0.5)


def test_cli_sphere_examples():
    env = envelope(run_cli("maxent", "--model", "sphere", "--x", "0,0,2"))
    assert close7(env["outputs"]["entropy"], -0.3862943611198906)
    assert close7(env["outputs"]["direction"][2], 1.0)

    env = envelope(run_cli("maxent", "--model", "sphere", "--x", "1,0,1"))
    assert close7(env["outputs"]["questions"][0], 1.0)
    assert abs(env["outputs"]["questions"][1]) <= 1e-12
    assert close7(env["outputs"]["reconstruction"][0], 0.7071067811865476)
    assert close7(env["outputs"]["reconstruction"][2], 0.7071067811865476)

    env = envelope(run_cli("maxent", "--model", "sphere", "--x", "2,4,2"))
    assert close7(env["outputs"]["questions"][0], 1.0)
    assert close7(env["outputs"]["questions"][1], 2.0)


def test_cli_regression_examples(tmp_path):
    line = tmp_path / "line.csv"
    line.write_text("x,y\n0,1\n1,3\n2,5\n")
    env = envelope(run_cli("maxent", "--model", "regression",
                           "--data", str(line)))
    assert close7(env["outputs"]["questions"][0], 2.0)
    assert close7(env["outputs"]["questions"][1], 1.0)
    assert close7(env["outputs"]["entropy"], -5.0)
    assert env["outputs"]["perfect"] is True

    two = tmp_path / "two.csv"
    two.write_text("0,0\n1,1\n")
    env = envelope(run_cli("maxent", "--model", "regression",
                           "--data", str(two)))
    assert close7(env["outputs"]["questions"][0], 1.0)
    assert abs(env["outputs"]["questions"][1]) <= 1e-12

    bent = tmp_path / "bent.csv"
    bent.write_text("0,0\n1,1\n2,0\n")
    env = envelope(run_cli("maxent", "--model", "regression",
                           "--data", str(bent)))
    assert abs(env["outputs"]["questions"][0]) <= 1e-12
    assert close7(env["outputs"]["questions"][1], 1.0 / 3.0)
    assert close7(env["outputs"]["entropy"], -1.0)
    assert env["outputs"]["perfect"] is False


def test_cli_sweep_example():
    proc = run_cli("sweep", "--model", "qubit", "--grid", "1=-2:2:41",
                   "--quantities", "unorm")
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 42  # header plus 41 rows
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -2.0
    assert close7(first[3], 0.9640275800758169)  # tanh(2)


def test_cli_pythagoras_example():
    env = envelope(run_cli("pythagoras", "--model", "qubit",
                           "--theta", "0.3,0,0", "--zeta", "-0.2,0.4,0",
                           "--xi", "0.1,-0.3,0.5"))
    out = env["outputs"]
    assert close7(out["residual"], abs(out["orthogonality"])) or (
        abs(out["residual"] - abs(out["orthogonality"])) <= 1e-9)
