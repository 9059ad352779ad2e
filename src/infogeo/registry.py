"""Built-in model instances and INI-file configuration loading.

Each family has its own handle type.  A handle carries the family's
objects as typed fields (the engine descriptor, the discrete family, the
oscillator constants) and owns the few things that differ between
families: which command-line flags carry a data set and how a data
vector is sized and validated, how a moment target is matched, and how
the verify suites draw random parameters and data sets.

Each sampler is split in two: its generator calls (``theta_draws``,
``dataset_draws``), which return the raw draws of one call, and one
row-wise finish (``thetas_from``, ``datasets_from``), which turns a list
of such draws into the stack of their points.  A sampling loop makes
only the generator calls, in the order the point calls made them, and
finishes the stack once; each row has the bits of the point call, and
the generator ends in the same state.  ``sample_thetas`` is the one-call
view of the parameter sampler; data sets are drawn only in loops.
"""

from __future__ import annotations

import configparser
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import coherent, core, discrete, qubit, regression, sphere
from .core import ModelDescriptor
from .errors import DomainError
from .numerics import complex_row_norm, row_dot


class _CanonicalHandle:
    """Defaults shared by the handles of canonical families.

    Subclasses are dataclasses with a ``name`` and a ``descriptor``, and
    define the data-set sampler (``dataset_draws``, ``datasets_from``).
    """

    #: Command-line flags that can carry a data set: ``x`` is a vector of
    #: ``x_size`` numbers validated by ``check_x``, ``z`` an amplitude
    #: turned into a state by ``state``, ``x_file`` and ``data`` are files.
    data_flags = ("x",)
    #: Radius of the parameter ball sampled for data-fiber Pythagoras checks.
    fiber_radius = 2.0
    #: Points at which verify compares the numeric Legendre route to the
    #: closed Massieu function.
    legendre_points = 25

    def theta_draws(self, rng, count: int, radius: float = 3.0) -> tuple:
        """The generator calls of ``count`` parameter points: entries
        uniform in ``[-radius, radius]``, already the points."""
        return (rng.uniform(-radius, radius, size=(count, self.descriptor.n)),)

    def thetas_from(self, draws: list) -> np.ndarray:
        """The parameter points ``(k, n)`` of a list of ``theta_draws``, in order."""
        return np.concatenate([d[0] for d in draws])

    def sample_thetas(self, rng, count: int, radius: float = 3.0) -> np.ndarray:
        """``count`` random parameter points ``(count, n)``."""
        return self.thetas_from([self.theta_draws(rng, count, radius)])

    def sample_theta_sets(self, rng, sets: int, count: int,
                          radius: float = 3.0) -> np.ndarray:
        """``sets`` consecutive ``sample_thetas(rng, count, radius)`` calls
        as one array ``(sets, count, n)``.  The entries come from one
        distribution, so one call of the total size draws them all."""
        return self.sample_thetas(rng, sets * count, radius).reshape(sets, count, -1)

    def match_moments(self, u: np.ndarray, tol: float):
        """Parameters matching the moment targets ``u``.

        Returns ``(theta, achieved moments, solver iterations, note)``.
        """
        model = self.descriptor
        theta = core.u_to_theta(model, u)
        return theta, core.theta_to_u(model, theta), 0, "closed-form chart inversion"

    def member_outputs(self, theta: np.ndarray) -> dict:
        """Extra ``massieu`` outputs describing the member at ``theta``."""
        return {}


@dataclass(frozen=True)
class QubitHandle(_CanonicalHandle):
    """The qubit: Bloch vectors as data sets, Gibbs states as members."""

    name: str
    descriptor: ModelDescriptor

    x_size = 3
    legendre_points = 100

    def check_x(self, x: np.ndarray) -> np.ndarray:
        qubit.ball_radius(x, "polarization vector is longer than 1")
        return x

    def theta_draws(self, rng, count: int, radius: float = 3.0) -> tuple:
        """Gaussian vectors for the directions, then lengths uniform in
        ``[0.05, radius]``."""
        return (rng.normal(size=(count, self.descriptor.n)),
                rng.uniform(0.05, radius, size=(count, 1)))

    def thetas_from(self, draws: list) -> np.ndarray:
        v, lengths = (np.concatenate(parts) for parts in zip(*draws))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * lengths

    def sample_theta_sets(self, rng, sets: int, count: int,
                          radius: float = 3.0) -> np.ndarray:
        """``sets`` consecutive ``sample_thetas(rng, count, radius)`` calls
        as one array ``(sets, count, 3)``: the draws alternate between
        two distributions, so each call's draws are made in turn."""
        draws = [self.theta_draws(rng, count, radius) for _ in range(sets)]
        return self.thetas_from(draws).reshape(sets, count, 3)

    def dataset_draws(self, rng) -> tuple:
        """A Gaussian vector for the direction, then a uniform number whose
        cube root is the length, so the Bloch vector is uniform in the ball."""
        return rng.normal(size=(1, 3)), rng.uniform(0.0, 1.0, size=1)

    def datasets_from(self, draws: list) -> np.ndarray:
        v, u = (np.concatenate(parts) for parts in zip(*draws))
        # the norm of the 1-D np.linalg.norm, and the cube root of libm pow
        # (Python's float **), which numpy's power need not match
        v /= np.sqrt(row_dot(v, v))[:, None]
        return v * np.array([x ** (1.0 / 3.0) for x in u.tolist()])[:, None]


@dataclass(frozen=True)
class CoherentHandle(_CanonicalHandle):
    """One oscillator mode: truncated Fock states as data sets."""

    name: str
    descriptor: ModelDescriptor
    constants: coherent.PhaseConstants
    nmax: int

    data_flags = ("z", "x_file")
    # oscillator fibers rebuild a basis state whose mean grows with
    # |theta|; stay where the truncation bound is comfortable
    fiber_radius = 1.2

    def state(self, z: complex, nmax: int | None = None) -> np.ndarray:
        """Coefficients of the coherent state ``|z>``, truncated at ``nmax``
        (default: the model's)."""
        return coherent.coherent_state(z, nmax=self.nmax if nmax is None else nmax)

    def dataset_draws(self, rng) -> tuple:
        """Gaussian real parts, then imaginary parts, of the ``nmax + 1``
        coefficients of a state: one call of both sizes."""
        return (rng.normal(size=(1, 2, self.nmax + 1)),)

    def datasets_from(self, draws: list) -> np.ndarray:
        """The coefficient rows of random states weighted towards the low
        number states."""
        g = np.concatenate([d[0] for d in draws])
        c = g[:, 0] + 1j * g[:, 1]
        # concentrate weight on low modes so the states resemble
        # physical ones rather than white noise
        c *= np.exp(-0.35 * np.arange(self.nmax + 1))
        c /= complex_row_norm(c)[:, None]
        return c


@dataclass(frozen=True)
class DiscreteHandle(_CanonicalHandle):
    """A discrete family: probability vectors as data sets."""

    name: str
    descriptor: ModelDescriptor
    family: discrete.DiscreteFamily

    @property
    def x_size(self) -> int:
        return self.family.alphabet_size

    def check_x(self, x: np.ndarray) -> np.ndarray:
        try:
            return discrete.check_probability(x)
        except ValueError as exc:
            raise DomainError(str(exc)) from None

    def match_moments(self, u: np.ndarray, tol: float):
        family = self.family
        theta, iterations = discrete.maxent_fit_report(family, u, tol=tol)
        achieved = family.hamiltonians @ discrete.boltzmann_gibbs(family, theta)
        return theta, achieved, iterations, "damped Newton on the dual objective"

    def member_outputs(self, theta: np.ndarray) -> dict:
        return {"member_distribution":
                list(discrete.boltzmann_gibbs(self.family, theta))}

    def dataset_draws(self, rng) -> tuple:
        """A probability vector drawn uniformly from the simplex."""
        return (rng.dirichlet(np.ones(self.family.alphabet_size), size=1),)

    def datasets_from(self, draws: list) -> np.ndarray:
        return np.concatenate([d[0] for d in draws])


@dataclass(frozen=True)
class RegressionHandle:
    """Least-squares lines: a summary model with no canonical family."""

    name: str = "regression"
    descriptor = None
    data_flags = ("data",)

    def best_fit(self, pts: np.ndarray) -> tuple[dict, dict]:
        """``maxent`` outputs and diagnostics for the point set ``pts``."""
        outputs = {
            "questions": list(regression.regression_questions(pts)),
            "entropy": regression.regression_entropy(pts),
            "perfect": regression.regression_is_perfect(pts),
        }
        return outputs, {"points": int(pts.shape[0])}


@dataclass(frozen=True)
class SphereHandle:
    """Directions of vectors: a summary model with no canonical family."""

    name: str = "sphere"
    descriptor = None
    data_flags = ("x",)
    x_size = 3

    def check_x(self, x: np.ndarray) -> np.ndarray:
        return x

    def best_fit(self, x: np.ndarray) -> tuple[dict, dict]:
        """``maxent`` outputs and diagnostics for the vector ``x``."""
        mu = sphere.sphere_mu(x)
        outputs = {"direction": list(mu), "entropy": sphere.sphere_entropy(x)}
        if mu[2] > 0.0:
            q = sphere.sphere_questions(x)
            outputs["questions"] = list(q)
            outputs["reconstruction"] = list(sphere.sphere_from_questions(q))
        return outputs, {}


ModelHandle = (QubitHandle | CoherentHandle | DiscreteHandle | RegressionHandle
               | SphereHandle)


def qubit_instance(membership_margin: float = 1e-12,
                   chart_margin: float = 1e-9) -> QubitHandle:
    desc = qubit.as_descriptor(membership_margin=membership_margin,
                               chart_margin=chart_margin)
    return QubitHandle(name="qubit", descriptor=desc)


def coherent_instance(r: float = 1.0, hbar: float = 1.0, nmax: int = 64,
                      box: float | None = None,
                      name: str | None = None) -> CoherentHandle:
    constants = coherent.PhaseConstants(r=r, hbar=hbar)
    desc = coherent.as_descriptor(constants, nmax=nmax, box_halfwidth=box)
    return CoherentHandle(name=name or f"coherent(r={r:g},hbar={hbar:g})",
                          descriptor=desc, constants=constants, nmax=nmax)


def discrete_instance(prior, hamiltonians, name: str | None = None) -> DiscreteHandle:
    family = discrete.DiscreteFamily(prior=np.asarray(prior, dtype=float),
                                     hamiltonians=np.asarray(hamiltonians, dtype=float))
    return DiscreteHandle(name=name or f"discrete-{family.alphabet_size}letter",
                          descriptor=discrete.as_descriptor(family), family=family)


def regression_instance() -> RegressionHandle:
    return RegressionHandle()


def sphere_instance() -> SphereHandle:
    return SphereHandle()


_CANONICAL = {
    "qubit": qubit_instance,
    "coherent": lambda: coherent_instance(r=1.0, hbar=1.0, name="coherent"),
    "coherent2": lambda: coherent_instance(r=2.0, hbar=0.5, name="coherent2"),
    "discrete2": lambda: discrete_instance(np.ones(2), [[0.0, 1.0]], name="discrete2"),
    "discrete3": lambda: discrete_instance(np.ones(3), [[0.0, 1.0, 2.0]],
                                           name="discrete3"),
}
_BUILTINS = {**_CANONICAL, "regression": regression_instance, "sphere": sphere_instance}

BUILTIN_NAMES = tuple(_BUILTINS)


def canonical_instances() -> dict[str, ModelHandle]:
    """The five reference instances used throughout the checks."""
    return {name: get_model(name) for name in _CANONICAL}


@functools.cache
def _built(name: str) -> ModelHandle:
    return _BUILTINS[name]()


def get_model(name: str) -> ModelHandle:
    """The handle of a built-in name.  Raises KeyError for unknown names.

    Each name's handle is built on first use and shared after that: a
    handle is a frozen dataclass whose arrays are read-only, so no caller
    can change what another one sees.
    """
    if name not in _BUILTINS:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return _built(name)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    return np.array([[float(v) for v in row.replace(",", " ").split()]
                     for row in rows])


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


def load_config(path: str) -> ModelHandle:
    """Build a new model handle from an INI file.

    The [model] section names the type; a section of the same name holds
    its settings:

        [model]
        type = discrete

        [discrete]
        prior = 1, 1, 1
        hamiltonians = 0, 1, 2

    Coherent settings are r, hbar, nmax and box (the half-width of the
    numeric search box; see :func:`infogeo.coherent.as_descriptor` for
    its default); qubit settings are membership_margin and chart_margin;
    discrete rows of the observable matrix are separated by ";".  The
    regression and sphere types take no settings.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if not parser.has_section("model") or not parser.has_option("model", "type"):
        raise ValueError("config needs a [model] section with a 'type' key")
    model_type = parser.get("model", "type").strip().lower()

    if model_type == "qubit":
        margin = parser.getfloat("qubit", "membership_margin", fallback=1e-12)
        chart = parser.getfloat("qubit", "chart_margin", fallback=1e-9)
        return qubit_instance(membership_margin=margin, chart_margin=chart)
    if model_type == "coherent":
        r = parser.getfloat("coherent", "r", fallback=1.0)
        hbar = parser.getfloat("coherent", "hbar", fallback=1.0)
        nmax = parser.getint("coherent", "nmax", fallback=64)
        box = (parser.getfloat("coherent", "box")
               if parser.has_option("coherent", "box") else None)
        return coherent_instance(r=r, hbar=hbar, nmax=nmax, box=box)
    if model_type == "discrete":
        if not parser.has_section("discrete"):
            raise ValueError("discrete config needs a [discrete] section")
        prior = _parse_vector(parser.get("discrete", "prior"))
        ham = _parse_matrix(parser.get("discrete", "hamiltonians"))
        return discrete_instance(prior, ham)
    if model_type == "regression":
        return regression_instance()
    if model_type == "sphere":
        return sphere_instance()
    raise ValueError(f"unknown model type {model_type!r}")
