"""One boundary per model: the energy domain is the only region test.

Every interior moment point of a minimal family has exactly one theta and
no boundary point has any (the mean map is onto the interior of the
mean-parameter set; Wainwright & Jordan 2008, ch. 3).  So each U -> theta
route asks the same region test, the model's energy domain:

- the qubit domain is the open unit ball ``|U| < 1``, and its chart is
  right to its conditioning up to the largest double below 1;
- a discrete family's domain is ``DiscreteFamily.outside``, which
  ``maxent``, the chart of ``divergence --u`` and ``fit_moments`` all ask,
  so at any target the two commands give one status and one theta.
"""

import math

import mpmath
import numpy as np
import pytest

from infogeo import InfeasibleError, cli, get_model
from infogeo.discrete import DiscreteFamily, maxent_fit_report
from infogeo.qubit import bloch_to_theta

from conftest import strict_json

EPS = np.finfo(float).eps

#: CI's three-letter family with two observables, whose moment region is the
#: triangle with corners (0, 1), (1, 0) and (2, 0).
DISCRETE3X2 = DiscreteFamily(prior=np.array([1.0, 2.0, 3.0]),
                             hamiltonians=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("k", range(1, 16))
def test_the_qubit_chart_is_right_to_its_conditioning_up_to_the_boundary(k):
    # theta = -artanh(r) u / r against mpmath at 60 digits, from the exact
    # doubles u; the relative condition number of the map is
    # kappa = r / ((1 - r^2) artanh r), which grows like 1 / (1 - r)
    d = np.random.default_rng(k).normal(size=(200, 3))
    us = (1.0 - 10.0 ** -k) * d / np.linalg.norm(d, axis=1, keepdims=True)
    thetas = bloch_to_theta(us)
    worst = 0.0
    with mpmath.workdps(60):
        for u, theta in zip(us, thetas):
            exact = [mpmath.mpf(float(v)) for v in u]
            r = mpmath.sqrt(sum(v * v for v in exact))
            reference = [-v / r * mpmath.atanh(r) for v in exact]
            kappa = r / ((1 - r * r) * mpmath.atanh(r))
            error = mpmath.sqrt(sum((mpmath.mpf(float(t)) - v) ** 2
                                    for t, v in zip(theta, reference)))
            worst = max(worst, float(error / mpmath.norm(reference) / kappa))
    assert worst <= 1.0 * EPS, worst / EPS


#: Moment targets on, next to and off the edges of three discrete families
#: and of the qubit's unit ball: the model, then the --u value.
EDGE_TARGETS = (
    [("discrete3", repr(2.0 - d)) for d in (1e-1, 1e-5, 1e-9, 1e-11, 1e-12, 1e-13, 1e-15)]
    + [("discrete3", u) for u in ("2", "0", "1e-13", "2.5")]
    + [("discrete2", u) for u in (repr(1.0 - 1e-13), "1", "0", "1e-11")]
    + [("discrete3x2", u) for u in ("1.5,0", "1,0.1", "0.5,0.5", "1.5,1e-13", "0.25,0.75")]
    + [("qubit", u) for u in ("0.9999999999,0,0", "1,0,0", "0,0.6,0.8")])

#: A data set of each model for divergence --x.
DATA = {"discrete3": "0.2,0.3,0.5", "discrete2": "0.4,0.6", "discrete3x2": "0.2,0.3,0.5",
        "qubit": "0,0,0"}


@pytest.fixture(scope="module")
def triangle_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary") / "discrete3x2.ini"
    path.write_text("[model]\ntype = discrete\n\n[discrete]\n"
                    "prior = 1, 2, 3\nhamiltonians = 0, 1, 2; 1, 0, 0\n")
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    return code, strict_json(capsys.readouterr().out)


@pytest.mark.parametrize("name, u", EDGE_TARGETS)
def test_maxent_and_the_chart_of_divergence_share_one_boundary(capsys, triangle_config,
                                                               name, u):
    # divergence prints the theta its chart gives --u; the data set does not enter it
    model = ["--config", triangle_config] if name == "discrete3x2" else ["--model", name]
    code, maxent = _run(capsys, ["maxent", *model, "--u", u])
    dcode, divergence = _run(capsys, ["divergence", *model, "--x", DATA[name], "--u", u])
    assert (code, maxent["status"]) == (dcode, divergence["status"])
    assert maxent["status"] in ("ok", "error:domain")
    if code == 0:
        assert maxent["outputs"]["theta"] == divergence["outputs"]["theta"]
        assert all(math.isfinite(t) for t in maxent["outputs"]["theta"])
    else:
        assert maxent["diagnostics"]["message"].endswith("is outside the model domain")


@pytest.mark.parametrize("family, target", [(get_model("discrete3").family, [2.0]),
                                            (DISCRETE3X2, [0.5, 0.5]),
                                            (DISCRETE3X2, [1.2, 0.4])])
def test_a_target_on_an_edge_has_no_fit(family, target):
    with pytest.raises(InfeasibleError):
        maxent_fit_report(family, target)


def test_the_qubit_round_trip_saturates_where_tanh_rounds_to_one(capsys):
    # tanh 18 = 1 - 4.6e-16 is still inside the open ball: the round trip
    # reports the chart's conditioning there; tanh 19 rounds to 1
    code, env = _run(capsys, ["massieu", "--model", "qubit", "--theta", "18,0,0"])
    assert code == 0 and 0.0 < env["diagnostics"]["roundtrip_error"] < 0.1
    code, env = _run(capsys, ["massieu", "--model", "qubit", "--theta", "19,0,0"])
    assert code == 0 and env["diagnostics"]["roundtrip_error"] is None
    assert env["diagnostics"]["note"] == "chart saturated"
