"""Property-based verification suites for every model instance.

A suite is an ordered stream of checks, each giving one
:class:`PropertyResult`: a named check, the worst observed violation,
the tolerance it is held to, and the pass flag (``worst <= tol``).
Checks are deterministic (fixed seeds) so a passing build stays passing.
The suite functions return their rows as a list, drawn by one runner
loop from a generator that does each check's work when its row is asked
for; inside ``with reporting(on_result):`` that loop also passes each
row to ``on_result`` as soon as its check completes.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import coherent as coh
from . import core, discrete, numerics, qubit, regression, sphere
from .errors import DegeneracyError
from .registry import (BUILTIN_NAMES, CoherentHandle, DiscreteHandle, ModelHandle,
                       QubitHandle, RegressionHandle, SphereHandle)


@dataclass(frozen=True)
class PropertyResult:
    """One verified property: ``passed`` iff ``worst <= tol``."""

    name: str
    passed: bool
    worst: float
    tol: float
    note: str = ""


def _check(name: str, worst: float, tol: float, note: str = "") -> PropertyResult:
    worst = float(worst)
    return PropertyResult(name, bool(worst <= tol) and math.isfinite(worst),
                          worst, float(tol), note)


#: Suite names in the order ``verify all`` runs them: the numeric kernels,
#: then every built-in model.
SUITES = ("numerics",) + BUILTIN_NAMES

# The callback of the innermost ``reporting`` block.  It is not an
# argument of the suite functions, so a caller that replaces one of them
# by name with a plain ``handle -> list`` function still works.
_on_result = contextvars.ContextVar("on_result", default=lambda row: None)


@contextlib.contextmanager
def reporting(on_result):
    """Pass each row to ``on_result`` as soon as its check completes,
    for every suite run inside the block."""
    token = _on_result.set(on_result)
    try:
        yield
    finally:
        _on_result.reset(token)


def _run(checks) -> list[PropertyResult]:
    """The runner loop: each row of ``checks`` in order, each passed to
    the current ``reporting`` callback as soon as its check completes."""
    on_result = _on_result.get()
    rows = []
    for row in checks:
        rows.append(row)
        on_result(row)
    return rows


# ---------------------------------------------------------------- numerics

def verify_numerics() -> list[PropertyResult]:
    return _run(_numerics_checks())


def _numerics_checks():
    rng = np.random.default_rng(11)

    worst = abs(numerics.grad_fd(lambda v: v[:, 0] ** 2, np.array([3.0]), 1e-4)[0] - 6.0)
    g = numerics.grad_fd(lambda v: v[:, 0] * v[:, 1], np.array([2.0, 5.0]), 1e-5)
    worst = max(worst, float(np.max(np.abs(g - [5.0, 2.0]))))
    yield _check("fd-gradient-quadratic", worst, 1e-7)

    h = numerics.hess_fd(lambda v: v[:, 0] ** 2 + v[:, 1] ** 2, np.array([1.0, 1.0]),
                         1e-4)
    worst = float(np.max(np.abs(h - 2.0 * np.eye(2))))
    h = numerics.hess_fd(lambda v: v[:, 0] * v[:, 1], np.array([0.0, 0.0]), 1e-4)
    worst = max(worst, float(np.max(np.abs(h - np.array([[0.0, 1.0], [1.0, 0.0]])))))
    yield _check("fd-hessian-quadratic", worst, 1e-5)

    a = np.array([[2.0, 0.4, 0.1], [0.4, 1.5, -0.2], [0.1, -0.2, 1.0]])
    target = np.array([0.3, -0.4, 0.2])
    dom = numerics.Domain(3, np.array([[-2.0, 2.0]] * 3),
                          lambda u: np.all(np.abs(u) < 2.0, axis=-1), np.zeros(3))
    quad = lambda us: -np.einsum("ki,ij,kj->k", us - target, a, us - target)
    res = numerics.maximize_concave(quad, dom, tol=1e-12)
    worst = float(np.max(np.abs(res.argmax - target)))
    yield _check("newton-quadratic-argmax", worst, 1e-9,
                 note=f"iterations={res.iterations}")
    yield _check("newton-quadratic-iterations", res.iterations, 3,
                 note="strictly concave quadratic")
    yield _check("newton-quadratic-gradient", res.gradient_norm, 1e-12)

    dom2 = numerics.Domain(2, np.array([[-1.0, 1.0]] * 2),
                           lambda u: np.all(np.abs(u) < 1.0, axis=-1), np.zeros(2))
    a2 = np.array([[2.0, 0.3], [0.3, 1.0]])
    t2 = np.array([0.31, -0.17])  # deliberately off the 41-point grid
    quad2 = lambda us: -np.einsum("ki,ij,kj->k", us - t2, a2, us - t2)
    res2 = numerics.maximize_concave(quad2, dom2, tol=1e-10)
    _, gv = numerics.grid_sup(quad2, dom2, 41)
    yield _check("grid-below-newton", gv - res2.value, 1e-9,
                 note="grid restricted sup cannot exceed the true sup")
    yield _check("grid-matches-newton", abs(gv - res2.value), 5e-3,
                 note="41 points per axis")

    ms = numerics.Matrix2H(*rng.normal(size=(200, 4)).T)
    vals, vecs = numerics.eig_h2(ms)
    adjoint = vecs.conj().transpose(0, 2, 1)
    rec = (vecs * vals[:, None, :]) @ adjoint
    worst_rec = float(np.max(np.abs(rec - ms.to_array())))
    worst_orth = float(np.max(np.abs(adjoint @ vecs - np.eye(2))))
    yield _check("eigh2-reconstruction", worst_rec, 1e-13)
    yield _check("eigh2-orthonormality", worst_orth, 1e-13)

    ms = numerics.Matrix2H(*rng.normal(size=(50, 4)).T)
    ident = numerics.func_h2(ms, lambda v: v)
    worst = float(np.max(np.abs(ident.to_array() - ms.to_array())))
    em = numerics.func_h2(ms, math.exp).to_array()
    eminus = numerics.func_h2(ms.scaled(-1.0), math.exp).to_array()
    worst = max(worst, float(np.max(np.abs(em @ eminus - np.eye(2)))))
    yield _check("spectral-calculus", worst, 1e-12,
                 note="identity function and exp(m) exp(-m) = 1")


# ------------------------------------------------------- canonical engine

def _grid_oracle(model, thetas, tol: float, note: str) -> PropertyResult:
    """Phi at each theta against the brute-force sup over a 61-point-per-axis
    grid of ``S(U) - theta.U``; a grid value above Phi fails outright.
    One grid walk serves every theta: each slab's entropy is taken once,
    and each theta keeps its own ``us @ theta`` column."""
    thetas = np.asarray(thetas, dtype=float)

    def objective(us):
        s = model.entropy_u(us)
        values = np.empty((len(us), len(thetas)))
        for j, th in enumerate(thetas):
            np.subtract(s, us @ th, out=values[:, j])
        return values

    _, gv = numerics.grid_sup(objective, model.energy_domain, 61)
    closed = core.dual_points(model, thetas)[0]
    worst = np.max(np.abs(gv - closed))
    if np.any(gv > closed + 1e-9):
        worst = math.inf
    return _check("massieu-grid-oracle", worst, tol, note)


def _canonical_checks(handle: ModelHandle):
    """Engine-level duality checks shared by every canonical instance."""
    rng = np.random.default_rng(7)
    segments = 500
    model = handle.descriptor

    # Each finite-difference check is one call over all its centres.
    thetas = handle.sample_thetas(rng, 50)
    us = core.dual_points(model, thetas)[1]
    gphi = numerics.grad_fd(lambda ts: core.dual_points(model, ts)[0], thetas)
    yield _check("dual-relation-massieu-gradient", np.max(np.abs(gphi + us)), 1e-5,
                 note="grad Phi = -U at 50 points")
    gs = numerics.grad_fd(model.entropy_u, us)
    yield _check("dual-relation-entropy-gradient", np.max(np.abs(gs - thetas)), 1e-5,
                 note="grad S = theta at 50 points")

    thetas = handle.sample_thetas(rng, 100)
    phi, us, ss = core.dual_points(model, thetas)
    residuals = core.canonical_residuals(thetas, phi, us, ss)
    yield _check("canonical-identity", np.max(residuals, initial=0.0), 1e-9,
                 note="Phi - S(U) + theta.U at 100 points")
    back, refused = core.u_to_theta_rows(model, us)
    # a refused row is a saturated chart, not a failed round trip
    errors = np.abs(back[~refused] - thetas[~refused])
    yield _check("dual-roundtrip", np.max(errors, initial=0.0), 1e-9,
                 note="u_to_theta(theta_to_u(theta)) vs theta")

    try:
        g = core.metric_tensor(model, handle.sample_thetas(rng, 10, radius=2.0))
        worst = -np.min(np.linalg.eigvalsh(g)[:, 0])
    except DegeneracyError:
        worst = math.inf
    yield _check("metric-positive-definite", worst, 0.0,
                 note="worst = -(min eigenvalue of Hess Phi)")

    thetas = handle.sample_thetas(rng, 8, radius=2.0)
    ginv = np.linalg.inv(core.metric_tensor(model, thetas))
    hs = numerics.hess_fd(model.entropy_u, core.dual_points(model, thetas)[1])
    rel = np.abs(hs + ginv).max(axis=(1, 2)) / np.abs(ginv).max(axis=(1, 2))
    yield _check("metric-inverse-duality", np.max(rel), 1e-4,
                 note="Hess S(U) = -(Hess Phi)^-1, relative")

    t1, t2 = handle.sample_thetas(rng, (2, segments))
    worst = float(np.max(core.convexity_probe(model, t1, t2)))
    yield _check("massieu-convexity", worst, 1e-9,
                 note=f"{segments} random segments, 21 blend points each")

    t1, t2 = handle.sample_thetas(rng, (2, 1000))
    d = core.bregman_divergence(model, t1, t2).value
    # the norm of each difference with the bits of the 1-D np.linalg.norm
    separated = np.sqrt(numerics.row_dot(t1 - t2, t1 - t2)) >= 0.1
    yield _check("bregman-nonnegative", np.max(-d), 1e-12,
                 note="worst = -(min divergence) over 1000 pairs")
    yield _check("bregman-separation", -np.min(d[separated], initial=math.inf),
                 -1e-6, note="divergence exceeds 1e-6 when |theta-zeta| >= 0.1")

    # The 70 pairs are drawn first, then their fibers in one sampler call.
    th, ze = handle.sample_thetas(rng, (2, 70), handle.fiber_radius)
    fibers = model.fiber_sampler(core.dual_points(model, th)[1], 3, rng)
    c = fibers.shape[1]
    residual = core.pythagoras_data(model, fibers.reshape(70 * c, -1),
                                    np.repeat(th, c, axis=0),
                                    np.repeat(ze, c, axis=0)).residual
    yield _check("pythagoras-with-data", np.max(residual, initial=0.0), 1e-9,
                 note="210 compliant data-model-model triples")

    th, ze, xi = handle.sample_thetas(rng, (3, 100), 2.0)
    triple = core.pythagoras_models(model, th, ze, xi)
    worst_ident = np.max(np.abs(triple.residual - np.abs(triple.orthogonality)),
                         initial=0.0)
    if model.n >= 2:
        # xi = zeta - w with w orthogonal to U(theta) - U(zeta)
        u = core.dual_points(model, np.concatenate([th, ze]))[1]
        d = u[:100] - u[100:]
        w = rng.normal(size=(100, model.n))
        w -= (numerics.row_dot(w, d) / numerics.row_dot(d, d))[:, None] * d
        triple = core.pythagoras_models(model, th, ze, ze - w)
    else:
        triple = core.pythagoras_models(model, th, th, xi)
    worst_orth = max(np.max(np.abs(triple.orthogonality), initial=0.0),
                     np.max(triple.residual, initial=0.0))
    yield _check("pythagoras-orthogonal-models", worst_orth, 1e-9,
                 note="100 constructed orthogonal triples")
    yield _check("pythagoras-residual-identity", worst_ident, 1e-9,
                 note="residual equals |orthogonality| identically")

    count = handle.legendre_points
    thetas = handle.sample_thetas(rng, count)
    numeric = core.legendre_rows(model, thetas, tol=1e-7)[0]
    worst = np.max(np.abs(numeric - core.dual_points(model, thetas)[0]))
    yield _check("legendre-numeric-vs-closed", worst, 1e-6,
                 note=f"damped-Newton transform at {count} points, |theta| <= 3")

    xs = handle.sample_datasets(rng, 60)
    d = core.divergence_from_data(model, xs, handle.sample_thetas(rng, 60)).value
    yield _check("divergence-nonnegative", np.max(-d), 1e-10,
                 note="random data sets against random model points")


# ------------------------------------------------------------ model extras

def _def5_gap(model, xs, thetas) -> float:
    """Worst ``|D5 - D|`` over data sets ``xs`` and the members at
    ``thetas``: the fiber supremum of Definition 5 at ``U(theta)`` against
    the affine divergence at ``theta``, each with all rows in one call."""
    d5 = core.divergence_def5(model, xs, core.dual_points(model, thetas)[1])
    d = core.divergence_from_data(model, xs, thetas).value
    return float(np.max(np.abs(d5 - d)))


def _fiber_entropies(model, fibers) -> np.ndarray:
    """Entropies ``(k, c)`` of the samples of a fiber stack ``(k, c, m)``."""
    k, c = fibers.shape[:2]
    return model.dataset_answers(fibers.reshape(k * c, -1))[1].reshape(k, c)


def _qubit_checks(handle: QubitHandle):
    rng = np.random.default_rng(13)
    grid_thetas = 5
    model = handle.descriptor

    th = rng.normal(size=(200, 3))
    th *= (rng.uniform(0.0, 20.0, size=200) / np.sqrt(numerics.row_dot(th, th)))[:, None]
    t = np.sqrt(numerics.row_dot(th, th))
    u = qubit.theta_to_bloch(th)
    r = np.sqrt(numerics.row_dot(u, u))
    worst = np.max(np.abs(r - np.array([math.tanh(v) for v in t.tolist()])))
    # the inverse chart amplifies rounding by 1/(1-|u|^2), so test
    # the round trip only where it is well conditioned
    inside = r < 0.999
    back = qubit.bloch_to_theta(u[inside])
    worst = max(worst, np.max(np.abs(back - th[inside]), initial=0.0))
    yield _check("bloch-tanh-duality", worst, 1e-12,
                 note="|U| = tanh|theta| and closed round trip, |theta| <= 20")

    # The spectral oracles evaluate their stacks of states in one call each.
    xs, th = handle.sample_datasets(rng, 200), handle.sample_thetas(rng, 200)
    via_spectral = qubit.quantum_relative_entropy(qubit.bloch_to_rho(xs),
                                                  qubit.gibbs_state(th))
    via_engine = core.divergence_from_data(model, xs, th).value
    worst = np.max(np.abs(via_engine - via_spectral))
    yield _check("relative-entropy-agreement", worst, 1e-10,
                 note="spectral Tr rho(ln rho - ln sigma) vs affine form")

    xs, th = handle.sample_datasets(rng, 1000), handle.sample_thetas(rng, 1000)
    d = qubit.quantum_relative_entropy(qubit.bloch_to_rho(xs), qubit.gibbs_state(th))
    yield _check("relative-entropy-nonnegative", np.max(-d), 1e-12)

    th = handle.sample_thetas(rng, 50)
    lnrho = numerics.func_h2(qubit.gibbs_state(th), math.log)
    t = np.sqrt(numerics.row_dot(th, th))
    phi = np.logaddexp(t, -t)
    affine = numerics.Matrix2H(a=-phi - th[:, 2], d=-phi + th[:, 2], x=-th[:, 0],
                               y=-th[:, 1])
    worst = float(np.max(np.abs(lnrho.to_array() - affine.to_array())))
    yield _check("log-state-affine", worst, 1e-10,
                 note="ln rho = -ln(2 cosh|theta|) - theta . sigma")

    thetas, xs = handle.sample_thetas(rng, 30), rng.normal(size=(30, 3))
    xs *= (rng.uniform(0.0, 0.9, size=30) / np.sqrt(numerics.row_dot(xs, xs)))[:, None]
    yield _check("fiber-sup-divergence-singleton", _def5_gap(model, xs, thetas), 1e-12,
                 note="three answers determine the state: fiber is one point")

    inside = model.energy_domain.membership(np.diag([np.nextafter(1.0, 0.0), 1.0, 1.0]))
    yield _check("domain-boundary", float(inside.tolist() != [True, False, False]), 0.0,
                 note="domain is the open unit ball: |U| < 1 in, |U| = 1 out")

    v = rng.normal(size=(grid_thetas - 1, 3))
    v *= (rng.uniform(0.3, 1.2, size=grid_thetas - 1) / np.linalg.norm(v, axis=1))[:, None]
    gridt = np.vstack([[1.0, 0.0, 0.0], v])
    yield _grid_oracle(model, gridt, 2e-3,
                       f"61^3 brute force at {grid_thetas} points, |theta| <= 1.2")


def _discrete_checks(handle: DiscreteHandle):
    rng = np.random.default_rng(17)
    model, family = handle.descriptor, handle.family

    thetas = handle.sample_thetas(rng, 50)
    back = discrete.maxent_fit_rows(family, core.dual_points(model, thetas)[1],
                                    tol=1e-12)[0]
    yield _check("maxent-roundtrip", np.max(np.abs(back - thetas)), 1e-8,
                 note="theta -> moments -> fitted theta")

    t1, t2 = handle.sample_thetas(rng, (2, 200))
    xs = handle.sample_datasets(rng, 200)
    q = discrete.boltzmann_gibbs(family, t2)
    kl = discrete.kl_divergence(discrete.boltzmann_gibbs(family, t1), q)
    kl_x = discrete.kl_divergence(xs, q)
    worst = max(np.max(np.abs(kl_x - core.divergence_from_data(model, xs, t2).value)),
                np.max(np.abs(kl - core.bregman_divergence(model, t1, t2).value)))
    yield _check("kl-affine-agreement", worst, 1e-12,
                 note="direct relative entropy vs Phi - S + theta.answers")

    thetas = handle.sample_thetas(rng, 10, radius=2.0)
    g = core.metric_tensor(model, thetas)
    hess = numerics.hess_fd(lambda ts: core.dual_points(model, ts)[0], thetas)
    yield _check("fisher-metric-agreement", np.max(np.abs(hess - g)), 1e-5,
                 note="Hess Phi vs observable covariance")

    if family.alphabet_size - 1 - family.n >= 1:  # fibers of dimension one or more
        us = core.dual_points(model, handle.sample_thetas(rng, 5, radius=1.5))[1]
        s_fiber = _fiber_entropies(model, model.fiber_sampler(us, 100, rng))
        yield _check("fiber-entropy-dominated",
                     np.max(s_fiber - model.entropy_u(us)[:, None]), 1e-9,
                     note="no fiber sample beats the moment-matched member")

        thetas = handle.sample_thetas(rng, 20, radius=1.5)
        yield _check("fiber-sup-divergence-agreement",
                     _def5_gap(model, handle.sample_datasets(rng, 20), thetas), 1e-4,
                     note="200-sample fiber supremum vs affine form")

    if family.n == 1:
        yield _grid_oracle(model, handle.sample_thetas(rng, 5, radius=1.5), 1e-3,
                           "61-point brute force on the moment interval")


def _coherent_checks(handle: CoherentHandle):
    rng = np.random.default_rng(19)
    model = handle.descriptor
    constants, nmax = handle.constants, handle.nmax

    # Amplitudes are drawn as real, imaginary part pairs from one
    # distribution, so one call of the total size draws them all.
    parts = rng.uniform(-1.4, 1.4, size=(25, 2))
    zs = parts[:, 0] + 1j * parts[:, 1]
    psi = coh.coherent_state(zs, nmax)
    residual = numerics.complex_row_norm(coh.annihilate(psi) - zs[:, None] * psi)
    yield _check("annihilation-eigenstate", np.max(residual), 1e-8,
                 note="(a - z) psi_z within truncation tail, |z| <= 2")

    parts = rng.uniform(-1.4, 1.4, size=(50, 2))
    zs = (parts[:, 0] + 1j * parts[:, 1]).tolist()
    states = coh.coherent_state(np.array(zs), nmax)
    s = coh.entropy_coherent(states)
    u = coh.mu_map(states, constants)
    worst = max(np.max(np.abs(s + np.array([0.5 * abs(z) ** 2 for z in zs]))),
                np.max(np.abs(coh.model_entropy_u(u, constants) - s)),
                np.max(coh.divergence_coherent(states, u, constants)),
                np.max(np.abs(coh.divergence_coherent(
                    coh.check_state(states * np.exp(1.3j)), u, constants))))
    yield _check("coherent-perfect-data", worst, 1e-10,
                 note="entropy -|z|^2/2, zero self-divergence, phase invariance")

    states = coh.check_state(handle.sample_datasets(rng, 500))
    us = rng.uniform(-2.0, 2.0, size=(500, 2))
    d = coh.divergence_coherent(states, us, constants)
    yield _check("divergence-nonnegative-states", np.max(-d), 1e-10,
                 note="500 random truncated states")
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(500, 1)))
    d2 = coh.divergence_coherent(coh.check_state(states * phases), us, constants)
    yield _check("divergence-phase-invariance", np.max(np.abs(d - d2)), 1e-12)

    us = rng.uniform(-2.0, 2.0, size=(20, 2))
    states = handle.sample_datasets(rng, 20)
    th = coh.u_to_theta_coherent(us, constants)
    lhs = coh.log_weight_coherent(states, us, constants)
    rhs = (-coh.massieu_coherent(th, constants)
           - numerics.row_dot(th, coh.mu_map(states, constants)))
    yield _check("log-map-affine-identity", np.max(np.abs(lhs - rhs)), 1e-9,
                 note="<x|L(m)> = -Phi - theta . answers for any state")

    zs = rng.uniform(-1.5, 1.5, size=(4, 2))
    us = np.stack([constants.r * zs[:, 0], constants.hbar / constants.r * zs[:, 1]],
                  axis=-1)
    s_fiber = _fiber_entropies(model, model.fiber_sampler(us, 50, rng))
    s_model = coh.model_entropy_u(us, constants)
    yield _check("fiber-entropy-dominated", np.max(s_fiber - s_model[:, None]), 1e-9,
                 note="200 pinned fiber samples vs the coherent member")
    # the first sample of each fiber is the coherent state
    yield _check("fiber-coherent-attains", np.max(np.abs(s_fiber[:, 0] - s_model)), 1e-10,
                 note="the coherent state itself attains the model entropy")

    r, hbar = constants.r, constants.hbar
    expected = np.diag([r ** 2, hbar ** 2 / r ** 2])
    thetas = handle.sample_thetas(rng, 5, radius=2.0)
    hess = numerics.hess_fd(lambda ts: core.dual_points(model, ts)[0], thetas)
    worst = np.max(np.abs(np.stack([core.metric_tensor(model, thetas), hess]) - expected))
    yield _check("metric-constant-gaussian", worst, 1e-5,
                 note="Hess Phi = diag(r^2, hbar^2/r^2) everywhere")

    states = coh.check_state(handle.sample_datasets(rng, 20))
    th = handle.sample_thetas(rng, 20, radius=2.0)
    via_closed = coh.divergence_coherent(states, coh.theta_to_u_coherent(th, constants),
                                         constants)
    via_engine = core.divergence_from_data(model, states, th).value
    yield _check("divergence-closed-vs-affine", np.max(np.abs(via_closed - via_engine)),
                 1e-10,
                 note="displacement form vs Phi - S + theta . answers")


# ------------------------------------------------- summary-only instances

def verify_sphere() -> list[PropertyResult]:
    return _run(_sphere_checks())


def _sphere_checks():
    rng = np.random.default_rng(23)

    radii = np.linspace(0.05, 3.0, 60)
    dirs = rng.normal(size=(500, 3))
    dirs /= np.sqrt(numerics.row_dot(dirs, dirs))[:, None]
    values = sphere.sphere_entropy(radii[:, None] * dirs[:, None, :])
    worst = float(np.max(np.abs(radii[np.argmax(values, axis=1)] - 1.0)))
    yield _check("ray-entropy-peak", worst, 0.051,
                 note="entropy along 500 rays peaks at unit length (grid step 0.05)")

    xs = rng.normal(size=(200, 3)) * rng.uniform(0.1, 3.0, size=(200, 1))
    entropies = sphere.sphere_entropy(xs)
    off_sphere = np.abs(numerics.row_norm(xs) - 1.0) > 0.05
    worst = math.inf if np.any(entropies[off_sphere] >= -1e-4) else np.max(entropies)
    yield _check("entropy-nonpositive", worst, 1e-12,
                 note="S <= 0 with equality only on the sphere")

    xs = rng.normal(size=(200, 3))
    xs[:, 2] = np.abs(xs[:, 2]) + 1e-3
    xs *= rng.uniform(0.2, 4.0, size=(200, 1))
    rebuilt = sphere.sphere_from_questions(sphere.sphere_questions(xs))
    yield _check("chart-roundtrip", np.max(np.abs(rebuilt - sphere.sphere_mu(xs))), 1e-12,
                 note="question coordinates reconstruct the direction")


def verify_regression() -> list[PropertyResult]:
    return _run(_regression_checks())


def _least_squares_lines(sets) -> np.ndarray:
    """The least-squares line ``(slope, intercept)`` of each point set, by
    a stacked SVD solve (``np.linalg.pinv``) for each group of one size;
    independent of the moment ratios it checks."""
    lines = np.empty((len(sets), 2))
    for idx, pts in regression.size_groups(sets):
        design = np.stack([pts[..., 0], np.ones(pts.shape[:2])], axis=-1)
        lines[idx] = (np.linalg.pinv(design) @ pts[..., 1:])[..., 0]
    return lines


def _regression_checks():
    rng = np.random.default_rng(29)

    # Each check draws its sets in a loop, builds them after it (here each
    # coordinate scaled by its set's factor, on the stack of all points),
    # and evaluates each quantity on all of them in one call.
    sizes, xs, x_scales, ys, y_scales = [], [], [], [], []
    for _ in range(500):
        sizes.append(int(rng.integers(2, 101)))
        xs.append(rng.normal(size=sizes[-1]))
        x_scales.append(rng.uniform(0.5, 3.0))
        ys.append(rng.normal(size=sizes[-1]))
        y_scales.append(rng.uniform(0.5, 3.0))
    points = np.stack([np.concatenate(xs) * np.repeat(x_scales, sizes),
                       np.concatenate(ys) * np.repeat(y_scales, sizes)], axis=-1)
    sets = np.split(points, np.cumsum(sizes)[:-1])
    worst = np.max(np.abs(regression.regression_questions(sets)
                          - _least_squares_lines(sets)))
    yield _check("least-squares-agreement", worst, 1e-10,
                 note="moment ratios vs normal-equation solution, 500 sets")

    lines, abscissas = [], []
    for _ in range(100):
        lines.append(rng.uniform(-2.0, 2.0, size=2))
        xs = rng.normal(size=int(rng.integers(2, 30)))
        while np.ptp(xs) < 1e-6:
            xs = rng.normal(size=xs.size)
        abscissas.append(xs)
    sets = [np.stack([xs, a * xs + b], axis=-1) for (a, b), xs in zip(lines, abscissas)]
    a, b = np.array(lines).T
    worst = max(np.max(np.abs(regression.regression_questions(sets) - np.array(lines))),
                np.max(np.abs(regression.regression_entropy(sets) + a * a + b * b)))
    if not regression.regression_is_perfect(sets).all():
        worst = math.inf
    yield _check("perfect-data-entropy", worst, 1e-10,
                 note="embedded lines: answers (a, b), entropy -a^2-b^2")

    sets = []
    for _ in range(60):
        n = int(rng.integers(2, 41))
        sets.append(np.stack([rng.normal(size=n), rng.normal(size=n)], axis=-1))
    worst = max(np.max(np.abs(regression.regression_questions(sets)
                              - regression.regression_questions_pairwise(sets))),
                np.max(np.abs(regression.regression_entropy(sets)
                              - regression.regression_entropy_pairwise(sets))))
    yield _check("moment-vs-pairwise", worst, 1e-9,
                 note="O(n) accumulators vs literal double sums")

    sets, deltas = [], []
    for _ in range(100):
        n = int(rng.integers(2, 30))
        sets.append(np.stack([rng.normal(size=n), rng.normal(size=n)], axis=-1))
        deltas.append(rng.uniform(-5.0, 5.0))
    shifted = [pts + np.array([0.0, delta]) for pts, delta in zip(sets, deltas)]
    q0, q1 = np.split(regression.regression_questions(sets + shifted), 2)
    worst = max(np.max(np.abs(q1[:, 0] - q0[:, 0])),
                np.max(np.abs(q1[:, 1] - q0[:, 1] - deltas)))
    yield _check("translation-covariance", worst, 1e-10,
                 note="shifting y by delta shifts only the intercept")

    imperfect = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    qa, qb = regression.regression_questions(imperfect)
    gap = (regression.regression_entropy(imperfect) + qa * qa + qb * qb)
    ok = (not regression.regression_is_perfect(imperfect)) and gap < -1e-6
    yield _check("imperfect-data-strictness", 0.0 if ok else 1.0, 0.0,
                 note="scattered data stays strictly below -a^2-b^2")


# ------------------------------------------------------------- one model

def verify_handle(handle: ModelHandle) -> list[PropertyResult]:
    """Full suite for one model instance: the summary suite of a summary
    model, else the engine checks followed by its family's own checks."""
    if isinstance(handle, RegressionHandle):
        return verify_regression()
    if isinstance(handle, SphereHandle):
        return verify_sphere()
    family = (_qubit_checks if isinstance(handle, QubitHandle)
              else _discrete_checks if isinstance(handle, DiscreteHandle)
              else _coherent_checks)
    return _run(itertools.chain(_canonical_checks(handle), family(handle)))
