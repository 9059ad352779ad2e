"""The closed metric ``g = Hess Phi = Cov`` of each family against a
50-digit mpmath reference, and at saturated members.

Each reference is computed from the float parameters themselves, so it
carries no error of the input; every entry of ``metric_tensor`` must be
within ``8 eps max|g|`` of it on the qubit and the coherent family.  A
discrete member's log-weights ``ln c - theta . H`` are rounded at their
own size, about ``|theta|`` times the observables' range, and an
exponential turns that absolute error into a relative error of the
weights: with two observables the entries reach 19.6 eps max|g| at
|theta| = 40 (12 of 800 random rows above 8 eps, all at |theta| >= 12.9),
so the discrete bound is ``8 eps max|g| max(1, |theta|)``, following the
conditioning of the weights.  At saturated members (a Gibbs state or a
letter weight below the last bit of 1) the metric must stay finite and
raise nothing, with no numpy warning.
"""

import warnings

import mpmath
import numpy as np
import pytest

from infogeo import discrete_instance, get_model, metric_tensor

EPS = np.finfo(float).eps

#: The configured family of discrete3x2.ini: prior = 1, 2, 3 and
#: hamiltonians = 0, 1, 2; 1, 0, 0.
DISCRETE3X2 = ([1.0, 2.0, 3.0], [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def thetas_on_rays(seed, n, lengths):
    """One parameter row per length, each in its own random direction."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(len(lengths), n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs * np.asarray(lengths)[:, None]


def qubit_reference(theta):
    """``(tanh t/t)(I - n n^T) + sech^2 t n n^T`` at 50 digits."""
    th = [mpmath.mpf(float(v)) for v in theta]
    t = mpmath.sqrt(sum(v * v for v in th))
    if t == 0:
        return mpmath.eye(3)
    n = mpmath.matrix([v / t for v in th])
    nn = n * n.T
    return mpmath.tanh(t) / t * (mpmath.eye(3) - nn) + mpmath.sech(t) ** 2 * nn


def discrete_reference(prior, hamiltonians, theta):
    """Covariance of the observables under the member at ``theta``, at 50 digits."""
    h = [[mpmath.mpf(float(v)) for v in row] for row in hamiltonians]
    th = [mpmath.mpf(float(v)) for v in theta]
    m = len(prior)
    w = [mpmath.mpf(float(prior[a]))
         * mpmath.exp(-sum(th[j] * h[j][a] for j in range(len(h)))) for a in range(m)]
    z = sum(w)
    p = [wa / z for wa in w]
    mean = [sum(p[a] * row[a] for a in range(m)) for row in h]
    return mpmath.matrix([[sum(p[a] * (hi[a] - mi) * (hj[a] - mj) for a in range(m))
                           for hj, mj in zip(h, mean)] for hi, mi in zip(h, mean)])


def assert_close(g, reference, condition=1.0):
    """Every entry of ``g`` within ``8 eps max|g| condition`` of the reference."""
    ref = np.array(reference.tolist(), dtype=float)
    scale = float(np.max(np.abs(ref)))
    err = max(abs(mpmath.mpf(float(g[i, j])) - reference[i, j])
              for i in range(ref.shape[0]) for j in range(ref.shape[1]))
    assert float(err) <= 8.0 * EPS * scale * condition, (g, ref)


def test_qubit_metric_matches_the_reference_from_1e_8_to_800():
    model = get_model("qubit").descriptor
    thetas = np.vstack([np.zeros(3),
                        thetas_on_rays(1, 3, np.logspace(-8.0, np.log10(800.0), 60))])
    rows = metric_tensor(model, thetas)
    assert rows[0].tolist() == np.eye(3).tolist()
    for theta, g in zip(thetas, rows):
        assert_close(g, qubit_reference(theta))


def test_qubit_radial_metric_keeps_its_digits_where_tanh_saturates():
    # the FD Hessian of Phi read 9.54e-9 against 8.24e-9 at |theta| = 10
    model = get_model("qubit").descriptor
    for t in (10.0, 25.0):
        g = metric_tensor(model, np.array([0.0, 0.0, t]))
        radial = float(mpmath.sech(t) ** 2)
        assert g[2, 2] == pytest.approx(radial, rel=4 * EPS)


@pytest.mark.parametrize("name", ["discrete3", "discrete3x2"])
def test_discrete_metric_matches_the_reference_up_to_40(name):
    if name == "discrete3x2":
        prior, hamiltonians = DISCRETE3X2
        model = discrete_instance(prior, hamiltonians).descriptor
    else:
        family = get_model(name).family
        prior, hamiltonians = family.prior, family.hamiltonians
        model = get_model(name).descriptor
    n = len(hamiltonians)
    thetas = thetas_on_rays(2, n, np.logspace(-8.0, np.log10(40.0), 40))
    for theta, g in zip(thetas, metric_tensor(model, thetas)):
        assert_close(g, discrete_reference(prior, hamiltonians, theta),
                     max(1.0, float(np.linalg.norm(theta))))


def test_coherent_metric_matches_the_reference():
    handle = get_model("coherent2")
    r, hbar = (mpmath.mpf(v) for v in (handle.constants.r, handle.constants.hbar))
    reference = mpmath.diag([r * r, hbar * hbar / (r * r)])
    thetas = thetas_on_rays(3, 2, np.logspace(-8.0, 2.0, 11))
    for g in metric_tensor(handle.descriptor, thetas):
        assert_close(g, reference)


@pytest.mark.parametrize("name, theta", [
    ("qubit", [400.0, 0.0, 0.0]),
    ("qubit", [1e300, 1e300, 0.0]),
    ("discrete3", [40.0]),
    ("discrete3", [-40.0]),
    ("discrete2", [800.0]),
])
def test_saturated_members_have_a_finite_metric(name, theta):
    model = get_model(name).descriptor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = metric_tensor(model, np.array(theta))
    assert g.shape == (model.n, model.n)
    assert np.isfinite(g).all()
    assert np.linalg.eigvalsh(g)[0] >= -8.0 * EPS * np.abs(g).max()


def test_the_degeneracy_bound_scales_with_the_metric():
    # observables of size 1e5 put max|g| near 7.6e8, so members on an edge
    # of the moment triangle have a smallest eigenvalue of about 3e-19
    # that rounds to -1.5e-8; with an absolute bound of 1e-8, 6 of these
    # 2,000 points raised DegeneracyError
    model = discrete_instance([1.0, 2.0, 3.0], [[0.0, 1e5, 2e5], [1e5, 0.0, 0.0]]).descriptor
    thetas = np.random.default_rng(0).uniform(-1e-3, 1e-3, size=(2000, 2))
    g = metric_tensor(model, thetas)
    assert np.isfinite(g).all()
    for theta in thetas:
        metric_tensor(model, theta)
