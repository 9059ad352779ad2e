"""Property-based verification suites for every model instance.

Each suite returns a list of :class:`PropertyResult` rows: a named
check, the worst observed violation, the tolerance it is held to, and
the pass flag (``worst <= tol``).  Checks are deterministic (fixed seeds)
so a passing build stays passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import coherent as coh
from . import core, discrete, numerics, qubit, regression, sphere
from .errors import CanonicalityError, DegeneracyError
from .registry import (
    BUILTIN_NAMES,
    CoherentHandle,
    DiscreteHandle,
    ModelHandle,
    QubitHandle,
    RegressionHandle,
    SphereHandle,
    get_model,
)


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


# ---------------------------------------------------------------- numerics

def verify_numerics() -> list[PropertyResult]:
    rng = np.random.default_rng(11)
    out = []

    worst = abs(numerics.grad_fd(lambda v: v[:, 0] ** 2, np.array([3.0]), 1e-4)[0] - 6.0)
    g = numerics.grad_fd(lambda v: v[:, 0] * v[:, 1], np.array([2.0, 5.0]), 1e-5)
    worst = max(worst, float(np.max(np.abs(g - [5.0, 2.0]))))
    out.append(_check("fd-gradient-quadratic", worst, 1e-7))

    h = numerics.hess_fd(lambda v: v[:, 0] ** 2 + v[:, 1] ** 2, np.array([1.0, 1.0]),
                         1e-4)
    worst = float(np.max(np.abs(h - 2.0 * np.eye(2))))
    h = numerics.hess_fd(lambda v: v[:, 0] * v[:, 1], np.array([0.0, 0.0]), 1e-4)
    worst = max(worst, float(np.max(np.abs(h - np.array([[0.0, 1.0], [1.0, 0.0]])))))
    out.append(_check("fd-hessian-quadratic", worst, 1e-5))

    a = np.array([[2.0, 0.4, 0.1], [0.4, 1.5, -0.2], [0.1, -0.2, 1.0]])
    target = np.array([0.3, -0.4, 0.2])
    dom = numerics.Domain(3, np.array([[-2.0, 2.0]] * 3),
                          lambda u: np.all(np.abs(u) < 2.0, axis=-1), np.zeros(3))
    quad = lambda us: -np.einsum("ki,ij,kj->k", us - target, a, us - target)
    res = numerics.maximize_concave(quad, dom, tol=1e-12)
    worst = float(np.max(np.abs(res.argmax - target)))
    out.append(_check("newton-quadratic-argmax", worst, 1e-9,
                      note=f"iterations={res.iterations}"))
    out.append(_check("newton-quadratic-iterations", res.iterations, 3,
                      note="strictly concave quadratic"))
    out.append(_check("newton-quadratic-gradient", res.gradient_norm, 1e-12))

    dom2 = numerics.Domain(2, np.array([[-1.0, 1.0]] * 2),
                           lambda u: np.all(np.abs(u) < 1.0, axis=-1), np.zeros(2))
    a2 = np.array([[2.0, 0.3], [0.3, 1.0]])
    t2 = np.array([0.31, -0.17])  # deliberately off the 41-point grid
    quad2 = lambda us: -np.einsum("ki,ij,kj->k", us - t2, a2, us - t2)
    res2 = numerics.maximize_concave(quad2, dom2, tol=1e-10)
    _, gv = numerics.grid_sup(quad2, dom2, 41)
    out.append(_check("grid-below-newton", gv - res2.value, 1e-9,
                      note="grid restricted sup cannot exceed the true sup"))
    out.append(_check("grid-matches-newton", abs(gv - res2.value), 5e-3,
                      note="41 points per axis"))

    worst_rec = worst_orth = 0.0
    for _ in range(200):
        m = numerics.Matrix2H(*rng.normal(size=4))
        vals, vecs = numerics.eig_h2(m)
        rec = (vecs * vals) @ vecs.conj().T
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - m.to_array()))))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            vecs.conj().T @ vecs - np.eye(2)))))
    out.append(_check("eigh2-reconstruction", worst_rec, 1e-13))
    out.append(_check("eigh2-orthonormality", worst_orth, 1e-13))

    worst = 0.0
    for _ in range(50):
        m = numerics.Matrix2H(*rng.normal(size=4))
        ident = numerics.func_h2(m, lambda v: v)
        worst = max(worst, float(np.max(np.abs(ident.to_array() - m.to_array()))))
        em = numerics.func_h2(m, math.exp).to_array()
        eminus = numerics.func_h2(m.scaled(-1.0), math.exp).to_array()
        worst = max(worst, float(np.max(np.abs(em @ eminus - np.eye(2)))))
    out.append(_check("spectral-calculus", worst, 1e-12,
                      note="identity function and exp(m) exp(-m) = 1"))
    return out


# ------------------------------------------------------- canonical engine

def verify_canonical(handle: ModelHandle) -> list[PropertyResult]:
    """Engine-level duality checks shared by every canonical instance."""
    rng = np.random.default_rng(7)
    segments = 500
    model = handle.descriptor
    out = []

    thetas = handle.sample_thetas(rng, 50)
    worst_phi = worst_s = 0.0
    for th in thetas:
        u = core.theta_to_u(model, th)
        gphi = numerics.grad_fd(lambda ts: core.dual_points(model, ts)[0], th)
        worst_phi = max(worst_phi, float(np.max(np.abs(gphi + u))))
        gs = numerics.grad_fd(model.entropy_u, u)
        worst_s = max(worst_s, float(np.max(np.abs(gs - th))))
    out.append(_check("dual-relation-massieu-gradient", worst_phi, 1e-5,
                      note="grad Phi = -U at 50 points"))
    out.append(_check("dual-relation-entropy-gradient", worst_s, 1e-5,
                      note="grad S = theta at 50 points"))

    worst_res = worst_rt = 0.0
    for th in handle.sample_thetas(rng, 100):
        try:
            pair = core.canonical_check(model, th)
        except CanonicalityError as exc:
            pair = exc.pair
        worst_res = max(worst_res, pair.residual)
        if pair.roundtrip_error is not None:  # None: the chart saturated
            worst_rt = max(worst_rt, pair.roundtrip_error)
    out.append(_check("canonical-identity", worst_res, 1e-9,
                      note="Phi - S(U) + theta.U at 100 points"))
    out.append(_check("dual-roundtrip", worst_rt, 1e-9,
                      note="u_to_theta(theta_to_u(theta)) vs theta"))

    worst = -math.inf
    try:
        for th in handle.sample_thetas(rng, 10, radius=2.0):
            g = core.metric_tensor(model, th)
            worst = max(worst, -float(np.linalg.eigvalsh(g)[0]))
    except DegeneracyError:
        worst = math.inf
    out.append(_check("metric-positive-definite", worst, 0.0,
                      note="worst = -(min eigenvalue of Hess Phi)"))

    worst = 0.0
    for th in handle.sample_thetas(rng, 8, radius=2.0):
        g = core.metric_tensor(model, th)
        ginv = np.linalg.inv(g)
        hs = numerics.hess_fd(model.entropy_u, core.theta_to_u(model, th))
        rel = float(np.max(np.abs(hs + ginv)) / np.max(np.abs(ginv)))
        worst = max(worst, rel)
    out.append(_check("metric-inverse-duality", worst, 1e-4,
                      note="Hess S(U) = -(Hess Phi)^-1, relative"))

    worst = -math.inf
    for _ in range(segments):
        t1, t2 = handle.sample_thetas(rng, 2)
        worst = max(worst, core.convexity_probe(model, t1, t2))
    out.append(_check("massieu-convexity", worst, 1e-9,
                      note=f"{segments} random segments, 21 blend points each"))

    worst = -math.inf
    min_separated = math.inf
    for _ in range(1000):
        t1, t2 = handle.sample_thetas(rng, 2)
        d = core.bregman_divergence(model, t1, t2).value
        worst = max(worst, -d)
        if float(np.linalg.norm(t1 - t2)) >= 0.1:
            min_separated = min(min_separated, d)
    out.append(_check("bregman-nonnegative", worst, 1e-12,
                      note="worst = -(min divergence) over 1000 pairs"))
    out.append(_check("bregman-separation", -min_separated, -1e-6,
                      note="divergence exceeds 1e-6 when |theta-zeta| >= 0.1"))

    if model.dataset_answers is not None and model.fiber_sampler is not None:
        worst = 0.0
        for _ in range(70):
            th, ze = handle.sample_thetas(rng, 2, radius=handle.fiber_radius)
            u = core.theta_to_u(model, th)
            for x in model.fiber_sampler(u, 3, rng):
                worst = max(worst, core.pythagoras_data(model, x, th, ze).residual)
        out.append(_check("pythagoras-with-data", worst, 1e-9,
                          note="210 compliant data-model-model triples"))

    worst_orth = 0.0
    worst_ident = 0.0
    for _ in range(100):
        th, ze, xi = handle.sample_thetas(rng, 3, radius=2.0)
        triple = core.pythagoras_models(model, th, ze, xi)
        worst_ident = max(worst_ident, abs(triple.residual - abs(triple.orthogonality)))
        if model.n >= 2:
            d = core.theta_to_u(model, th) - core.theta_to_u(model, ze)
            w = rng.normal(size=model.n)
            w -= (w @ d) / (d @ d) * d
            triple = core.pythagoras_models(model, th, ze, ze - w)
        else:
            triple = core.pythagoras_models(model, th, th, xi)
        worst_orth = max(worst_orth, abs(triple.orthogonality), triple.residual)
    out.append(_check("pythagoras-orthogonal-models", worst_orth, 1e-9,
                      note="100 constructed orthogonal triples"))
    out.append(_check("pythagoras-residual-identity", worst_ident, 1e-9,
                      note="residual equals |orthogonality| identically"))

    numeric = replace(model, closed_massieu=None, closed_theta_to_u=None,
                      closed_u_to_theta=None)
    count = handle.legendre_points
    worst = 0.0
    for th in handle.sample_thetas(rng, count):
        closed = core.massieu(model, th)
        num = core.massieu(numeric, th, tol=1e-7)
        worst = max(worst, abs(num - closed))
    out.append(_check("legendre-numeric-vs-closed", worst, 1e-6,
                      note=f"damped-Newton transform at {count} points, |theta| <= 3"))

    if model.dataset_answers is not None:
        worst = -math.inf
        for _ in range(60):
            x = handle.sample_dataset(rng)
            th = handle.sample_thetas(rng, 1)[0]
            worst = max(worst, -core.divergence_from_data(model, x, th).value)
        out.append(_check("divergence-nonnegative", worst, 1e-10,
                          note="random data sets against random model points"))
    return out


# ------------------------------------------------------------ model extras

def verify_qubit_extras(handle: QubitHandle) -> list[PropertyResult]:
    rng = np.random.default_rng(13)
    grid_thetas = 5
    model = handle.descriptor
    out = []

    worst = 0.0
    for _ in range(200):
        th = rng.normal(size=3)
        th *= rng.uniform(0.0, 20.0) / float(np.linalg.norm(th))
        u = qubit.theta_to_bloch(th)
        worst = max(worst, abs(float(np.linalg.norm(u)) - math.tanh(float(np.linalg.norm(th)))))
        # the inverse chart amplifies rounding by 1/(1-|u|^2), so test
        # the round trip only where it is well conditioned
        if np.linalg.norm(u) < 0.999:
            back = qubit.bloch_to_theta(u)
            worst = max(worst, float(np.max(np.abs(back - th))))
    out.append(_check("bloch-tanh-duality", worst, 1e-12,
                      note="|U| = tanh|theta| and closed round trip, |theta| <= 20"))

    worst = 0.0
    for _ in range(200):
        x = handle.sample_dataset(rng)
        th = handle.sample_thetas(rng, 1)[0]
        via_engine = core.divergence_from_data(model, x, th).value
        via_spectral = qubit.quantum_relative_entropy(
            qubit.bloch_to_rho(x), qubit.gibbs_state(th))
        worst = max(worst, abs(via_engine - via_spectral))
    out.append(_check("relative-entropy-agreement", worst, 1e-10,
                      note="spectral Tr rho(ln rho - ln sigma) vs affine form"))

    worst = -math.inf
    for _ in range(1000):
        rho = qubit.bloch_to_rho(handle.sample_dataset(rng))
        sigma = qubit.gibbs_state(handle.sample_thetas(rng, 1)[0])
        worst = max(worst, -qubit.quantum_relative_entropy(rho, sigma))
    out.append(_check("relative-entropy-nonnegative", worst, 1e-12))

    worst = 0.0
    for _ in range(50):
        th = handle.sample_thetas(rng, 1)[0]
        state = qubit.gibbs_state(th)
        lnrho = numerics.func_h2(state, math.log)
        t = float(np.linalg.norm(th))
        affine = numerics.Matrix2H(
            a=-float(np.logaddexp(t, -t)) - th[2], d=-float(np.logaddexp(t, -t)) + th[2],
            x=-th[0], y=-th[1])
        worst = max(worst, float(np.max(np.abs(lnrho.to_array() - affine.to_array()))))
    out.append(_check("log-state-affine", worst, 1e-10,
                      note="ln rho = -ln(2 cosh|theta|) - theta . sigma"))

    worst = 0.0
    for _ in range(30):
        th = handle.sample_thetas(rng, 1)[0]
        u = core.theta_to_u(model, th)
        x = rng.normal(size=3)
        x *= rng.uniform(0.0, 0.9) / float(np.linalg.norm(x))
        d5 = core.divergence_def5(model, x, u)
        dd = core.divergence_from_data(model, x, core.u_to_theta(model, u)).value
        worst = max(worst, abs(d5 - dd))
    out.append(_check("fiber-sup-divergence-singleton", worst, 1e-12,
                      note="three answers determine the state: fiber is one point"))

    margin_ok = (not model.energy_domain.membership(np.array([1.0 - 1e-13, 0.0, 0.0]))
                 and model.energy_domain.membership(np.array([0.99, 0.0, 0.0])))
    out.append(_check("domain-boundary-margin", 0.0 if margin_ok else 1.0, 0.0,
                      note="chart must exclude a shell at the pure-state boundary"))

    gridt = [np.array([1.0, 0.0, 0.0])]
    for _ in range(grid_thetas - 1):
        v = rng.normal(size=3)
        gridt.append(v * rng.uniform(0.3, 1.2) / float(np.linalg.norm(v)))
    worst = 0.0
    for th in gridt:
        def objective(us, _th=th):
            return qubit.entropy_bloch_rows(us) - us @ _th

        _, gv = numerics.grid_sup(objective, model.energy_domain, 61)
        closed = core.massieu(model, th)
        worst = max(worst, abs(gv - closed))
        if gv > closed + 1e-9:
            worst = math.inf
    out.append(_check("massieu-grid-oracle", worst, 2e-3,
                      note=f"61^3 brute force at {grid_thetas} points, |theta| <= 1.2"))
    return out


def verify_discrete_extras(handle: DiscreteHandle) -> list[PropertyResult]:
    rng = np.random.default_rng(17)
    model = handle.descriptor
    family = handle.family
    out = []

    worst = 0.0
    for th in handle.sample_thetas(rng, 50):
        u = family.hamiltonians @ discrete.boltzmann_gibbs(family, th)
        back = discrete.maxent_fit(family, u, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(back - th))))
    out.append(_check("maxent-roundtrip", worst, 1e-8,
                      note="theta -> moments -> fitted theta"))

    worst = 0.0
    for _ in range(200):
        t1, t2 = handle.sample_thetas(rng, 2)
        p, q = discrete.boltzmann_gibbs(family, t1), discrete.boltzmann_gibbs(family, t2)
        worst = max(worst, abs(discrete.kl_divergence(p, q)
                               - core.bregman_divergence(model, t1, t2).value))
        x = rng.dirichlet(np.ones(family.alphabet_size))
        worst = max(worst, abs(discrete.kl_divergence(x, q)
                               - core.divergence_from_data(model, x, t2).value))
    out.append(_check("kl-affine-agreement", worst, 1e-12,
                      note="direct relative entropy vs Phi - S + theta.answers"))

    worst = 0.0
    for th in handle.sample_thetas(rng, 10, radius=2.0):
        g = core.metric_tensor(model, th)
        cov = discrete.fisher_covariance(family, discrete.boltzmann_gibbs(family, th))
        worst = max(worst, float(np.max(np.abs(g - cov))))
    out.append(_check("fisher-metric-agreement", worst, 1e-5,
                      note="Hess Phi vs observable covariance"))

    fiber_dim = family.alphabet_size - 1 - family.n
    if fiber_dim == 1:
        worst = -math.inf
        for th in handle.sample_thetas(rng, 5, radius=1.5):
            u = core.theta_to_u(model, th)
            s_model = model.entropy_u(u)
            for y in model.fiber_sampler(u, 100, rng):
                worst = max(worst, discrete.bgs_entropy(family, y) - s_model)
        out.append(_check("fiber-entropy-dominated", worst, 1e-9,
                          note="no fiber sample beats the moment-matched member"))

        worst = 0.0
        for _ in range(20):
            th = handle.sample_thetas(rng, 1, radius=1.5)[0]
            u = core.theta_to_u(model, th)
            x = rng.dirichlet(np.ones(family.alphabet_size))
            d5 = core.divergence_def5(model, x, u, fiber_samples=200)
            dd = core.divergence_from_data(model, x, core.u_to_theta(model, u)).value
            worst = max(worst, abs(d5 - dd))
        out.append(_check("fiber-sup-divergence-agreement", worst, 1e-4,
                          note="200-sample fiber supremum vs affine form"))

    if family.n == 1:
        worst = 0.0
        for th in handle.sample_thetas(rng, 5, radius=1.5):
            def objective(us, _th=float(th[0])):
                return model.entropy_u(us) - _th * us[:, 0]
            _, gv = numerics.grid_sup(objective, model.energy_domain, 61)
            closed = core.massieu(model, th)
            worst = max(worst, abs(gv - closed))
            if gv > closed + 1e-9:
                worst = math.inf
        out.append(_check("massieu-grid-oracle", worst, 1e-3,
                          note="61-point brute force on the moment interval"))
    return out


def verify_coherent_extras(handle: CoherentHandle) -> list[PropertyResult]:
    rng = np.random.default_rng(19)
    model = handle.descriptor
    constants = handle.constants
    nmax = handle.nmax
    amat = coh.annihilation_matrix(nmax)
    out = []

    worst = 0.0
    for _ in range(25):
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        psi = coh.coherent_state(z, nmax)
        residual = float(np.linalg.norm(amat @ psi.coeff - z * psi.coeff))
        worst = max(worst, residual)
    out.append(_check("annihilation-eigenstate", worst, 1e-8,
                      note="(a - z) psi_z within truncation tail, |z| <= 2"))

    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        psi = coh.coherent_state(z, nmax)
        worst = max(worst, abs(coh.entropy_coherent(psi) + 0.5 * abs(z) ** 2))
        u = coh.mu_map(psi, constants)
        worst = max(worst, abs(coh.model_entropy_u(u, constants)
                               - coh.entropy_coherent(psi)))
        worst = max(worst, coh.divergence_coherent(psi, u, constants))
        shifted = coh.FockVector(psi.coeff * np.exp(1.3j))
        worst = max(worst, abs(coh.divergence_coherent(shifted, u, constants)))
    out.append(_check("coherent-perfect-data", worst, 1e-10,
                      note="entropy -|z|^2/2, zero self-divergence, phase invariance"))

    worst = -math.inf
    worst_phase = 0.0
    for _ in range(500):
        x = handle.sample_dataset(rng)
        u = rng.uniform(-2.0, 2.0, size=2)
        d = coh.divergence_coherent(x, u, constants)
        worst = max(worst, -d)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        d2 = coh.divergence_coherent(coh.FockVector(x.coeff * np.exp(1j * alpha)),
                                     u, constants)
        worst_phase = max(worst_phase, abs(d - d2))
    out.append(_check("divergence-nonnegative-states", worst, 1e-10,
                      note="500 random truncated states"))
    out.append(_check("divergence-phase-invariance", worst_phase, 1e-12))

    worst = 0.0
    for _ in range(20):
        u = rng.uniform(-2.0, 2.0, size=2)
        th = coh.u_to_theta_coherent(u, constants)
        lmat = coh.log_map_coherent(u, constants, nmax)
        phi_val = coh.massieu_coherent(th, constants)
        x = handle.sample_dataset(rng)
        lhs = coh.expectation_quadratic(x, lmat)
        rhs = -phi_val - float(th @ coh.mu_map(x, constants))
        worst = max(worst, abs(lhs - rhs))
    out.append(_check("log-map-affine-identity", worst, 1e-9,
                      note="<x|L(m)> = -Phi - theta . answers for any state"))

    worst = -math.inf
    worst_base = 0.0
    for _ in range(4):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        u = np.array([constants.r * z.real, constants.hbar / constants.r * z.imag])
        s_model = coh.model_entropy_u(u, constants)
        samples = model.fiber_sampler(u, 50, rng)
        worst_base = max(worst_base, abs(coh.entropy_coherent(samples[0]) - s_model))
        for y in samples:
            worst = max(worst, coh.entropy_coherent(y) - s_model)
    out.append(_check("fiber-entropy-dominated", worst, 1e-9,
                      note="200 pinned fiber samples vs the coherent member"))
    out.append(_check("fiber-coherent-attains", worst_base, 1e-10,
                      note="the coherent state itself attains the model entropy"))

    worst = 0.0
    r, hbar = constants.r, constants.hbar
    expected = np.diag([r ** 2, hbar ** 2 / r ** 2])
    for th in handle.sample_thetas(rng, 5, radius=2.0):
        g = core.metric_tensor(model, th)
        worst = max(worst, float(np.max(np.abs(g - expected))))
    out.append(_check("metric-constant-gaussian", worst, 1e-5,
                      note="Hess Phi = diag(r^2, hbar^2/r^2) everywhere"))

    worst = 0.0
    for _ in range(20):
        x = handle.sample_dataset(rng)
        th = handle.sample_thetas(rng, 1, radius=2.0)[0]
        u = coh.theta_to_u_coherent(th, constants)
        via_closed = coh.divergence_coherent(x, u, constants)
        via_engine = core.divergence_from_data(model, x, th).value
        worst = max(worst, abs(via_closed - via_engine))
    out.append(_check("divergence-closed-vs-affine", worst, 1e-10,
                      note="displacement form vs Phi - S + theta . answers"))
    return out


# ------------------------------------------------- summary-only instances

def verify_sphere() -> list[PropertyResult]:
    rng = np.random.default_rng(23)
    out = []

    radii = np.linspace(0.05, 3.0, 60)
    dirs = rng.normal(size=(500, 3))
    dirs /= np.sqrt(numerics.row_dot(dirs, dirs))[:, None]
    values = sphere.sphere_entropy_rows(radii[:, None] * dirs[:, None, :])
    worst = float(np.max(np.abs(radii[np.argmax(values, axis=1)] - 1.0)))
    out.append(_check("ray-entropy-peak", worst, 0.051,
                      note="entropy along 500 rays peaks at unit length (grid step 0.05)"))

    worst = -math.inf
    for _ in range(200):
        x = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        worst = max(worst, sphere.sphere_entropy(x))
        if abs(float(np.linalg.norm(x)) - 1.0) > 0.05:
            if sphere.sphere_entropy(x) >= -1e-4:
                worst = math.inf
    out.append(_check("entropy-nonpositive", worst, 1e-12,
                      note="S <= 0 with equality only on the sphere"))

    worst = 0.0
    for _ in range(200):
        x = rng.normal(size=3)
        x[2] = abs(x[2]) + 1e-3
        x *= rng.uniform(0.2, 4.0)
        rebuilt = sphere.sphere_from_questions(sphere.sphere_questions(x))
        worst = max(worst, float(np.max(np.abs(rebuilt - sphere.sphere_mu(x)))))
    out.append(_check("chart-roundtrip", worst, 1e-12,
                      note="question coordinates reconstruct the direction"))
    return out


def verify_regression() -> list[PropertyResult]:
    rng = np.random.default_rng(29)
    out = []

    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 101))
        x = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        pts = np.stack([x, y], axis=-1)
        qa, qb = regression.regression_questions(pts)
        design = np.stack([x, np.ones(n)], axis=-1)
        slope, intercept = np.linalg.lstsq(design, y, rcond=None)[0]
        worst = max(worst, abs(qa - slope), abs(qb - intercept))
    out.append(_check("least-squares-agreement", worst, 1e-10,
                      note="moment ratios vs normal-equation solution, 500 sets"))

    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        xs = rng.normal(size=int(rng.integers(2, 30)))
        while np.ptp(xs) < 1e-6:
            xs = rng.normal(size=xs.size)
        pts = regression.regression_embed(a, b, xs)
        qa, qb = regression.regression_questions(pts)
        worst = max(worst, abs(qa - a), abs(qb - b))
        worst = max(worst, abs(regression.regression_entropy(pts) + a * a + b * b))
        if not regression.regression_is_perfect(pts):
            worst = math.inf
    out.append(_check("perfect-data-entropy", worst, 1e-10,
                      note="embedded lines: answers (a, b), entropy -a^2-b^2"))

    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 41))
        pts = np.stack([rng.normal(size=n), rng.normal(size=n)], axis=-1)
        worst = max(worst, float(np.max(np.abs(
            regression.regression_questions(pts)
            - regression.regression_questions_pairwise(pts)))))
        worst = max(worst, abs(regression.regression_entropy(pts)
                               - regression.regression_entropy_pairwise(pts)))
    out.append(_check("moment-vs-pairwise", worst, 1e-9,
                      note="O(n) accumulators vs literal double sums"))

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        pts = np.stack([rng.normal(size=n), rng.normal(size=n)], axis=-1)
        delta = rng.uniform(-5.0, 5.0)
        shifted = pts.copy()
        shifted[:, 1] += delta
        qa0, qb0 = regression.regression_questions(pts)
        qa1, qb1 = regression.regression_questions(shifted)
        worst = max(worst, abs(qa1 - qa0), abs(qb1 - qb0 - delta))
    out.append(_check("translation-covariance", worst, 1e-10,
                      note="shifting y by delta shifts only the intercept"))

    imperfect = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    qa, qb = regression.regression_questions(imperfect)
    gap = (regression.regression_entropy(imperfect) + qa * qa + qb * qb)
    ok = (not regression.regression_is_perfect(imperfect)) and gap < -1e-6
    out.append(_check("imperfect-data-strictness", 0.0 if ok else 1.0, 0.0,
                      note="scattered data stays strictly below -a^2-b^2"))
    return out


# ----------------------------------------------------------- entry points

def verify_handle(handle: ModelHandle) -> list[PropertyResult]:
    """Full suite for one model instance."""
    if handle.descriptor is None:
        summary = {RegressionHandle: verify_regression, SphereHandle: verify_sphere}
        return summary[type(handle)]()
    extras = {QubitHandle: verify_qubit_extras, DiscreteHandle: verify_discrete_extras,
              CoherentHandle: verify_coherent_extras}
    return verify_canonical(handle) + extras[type(handle)](handle)


def verify_suite(name: str) -> list[PropertyResult]:
    """The suite ``name`` of :data:`SUITES` on its shipped instance.

    The suite functions are looked up when called, so a replaced
    ``verify_numerics`` or ``verify_handle`` is the one that runs.
    """
    if name == "numerics":
        return verify_numerics()
    return verify_handle(get_model(name))


def verify_all() -> dict[str, list[PropertyResult]]:
    """Every suite on the shipped default instances."""
    return {name: verify_suite(name) for name in SUITES}
