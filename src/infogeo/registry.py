"""Built-in model instances and INI-file configuration loading.

Each family has its own handle type.  A handle carries the family's
objects as typed fields (the engine descriptor, the discrete family, the
oscillator constants) and owns the few things that differ between
families: which command-line flags carry a data set and how long a
data vector is, how a moment target is matched, and how the verify
suites draw random parameters and data sets.

A canonical handle has one sampler per job: ``sample_thetas(rng, shape,
radius)`` gives random parameter points ``shape + (n,)`` and
``sample_datasets(rng, count)`` a stack of ``count`` random data sets.
Each makes one generator call per distribution it draws from, whatever
the shape, so a check draws all its points at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import ModelDescriptor
from .errors import DomainError
from .numerics import complex_row_norm


# The package's module ``name``, loaded on first use: ``from . import name``
# for a name known only at run time.  Unlike importlib.import_module, it takes
# the import statement's path, so -X importtime lists the module.
def _module(name: str):
    return getattr(__import__(__package__, fromlist=[name]), name)


class _CanonicalHandle:
    """Defaults shared by the handles of canonical families.

    Subclasses are dataclasses with a ``name`` and a ``descriptor``, and
    define the data-set sampler ``sample_datasets(rng, count)``.
    """

    #: Command-line flags that can carry a data set: ``x`` is a vector of
    #: ``x_size`` numbers, which the data-set layer checks, ``z`` an
    #: amplitude turned into a state by ``state``, ``x_file`` and ``data``
    #: are files.
    data_flags = ("x",)
    #: Radius of the parameter ball sampled for data-fiber Pythagoras checks.
    fiber_radius = 2.0
    #: Points at which verify compares the numeric Legendre route to the
    #: closed Massieu function.
    legendre_points = 25

    def sample_thetas(self, rng, shape, radius: float = 3.0) -> np.ndarray:
        """Random parameter points ``shape + (n,)``, for an int or tuple
        ``shape``: entries uniform in ``[-radius, radius]``, one uniform
        call."""
        return rng.uniform(-radius, radius, size=np.append(shape, self.descriptor.n))

    def match_moments(self, u: np.ndarray):
        """Parameters matching the moment targets ``u``.

        Returns ``(theta, achieved moments, solver iterations, note)``.
        """
        theta = core.u_to_theta(self.descriptor, u)
        return theta, core.theta_to_u(self.descriptor, theta), 0, "closed-form chart inversion"

    def member_outputs(self, theta: np.ndarray) -> dict:
        """Extra ``massieu`` outputs describing the member at ``theta``."""
        return {}


@dataclass(frozen=True)
class QubitHandle(_CanonicalHandle):
    """The qubit: Bloch vectors as data sets, Gibbs states as members."""

    name: str = "qubit"
    descriptor: ModelDescriptor = field(default_factory=lambda: _module("qubit").as_descriptor())

    x_size = 3
    legendre_points = 100

    def sample_thetas(self, rng, shape, radius: float = 3.0) -> np.ndarray:
        """Random parameter points ``shape + (3,)``: Gaussian directions, then
        lengths uniform in ``[0.05, radius]``, one normal and one uniform
        call."""
        v = rng.normal(size=np.append(shape, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        return v * rng.uniform(0.05, radius, size=np.append(shape, 1))

    def sample_datasets(self, rng, count: int) -> np.ndarray:
        """``count`` Bloch vectors uniform in the unit ball ``(count, 3)``:
        Gaussian directions, then uniform numbers whose cube roots are the
        lengths, one normal and one uniform call."""
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * np.cbrt(rng.uniform(0.0, 1.0, size=(count, 1)))


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

    def state(self, z: complex) -> np.ndarray:
        """Coefficients of the coherent state ``|z>`` on the model's basis,
        truncated at its ``nmax``."""
        return _module("coherent").coherent_state(z, nmax=self.nmax)

    def sample_datasets(self, rng, count: int) -> np.ndarray:
        """The coefficient rows ``(count, nmax + 1)`` of random states
        weighted towards the low number states: Gaussian real parts, then
        imaginary parts, of each state's coefficients, one normal call."""
        g = rng.normal(size=(count, 2, self.nmax + 1))
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

    def match_moments(self, u: np.ndarray):
        # The family's one region test, which the domain and the fit ask too,
        # gives a target outside the error that divergence --u gives it.  The
        # fit is called by name, not through the chart, for the Newton
        # iterations that maxent reports; its theta has the chart's bits.
        if self.family.outside(u):
            raise DomainError(f"energy point {u.tolist()} is outside the model domain")
        theta, iterations = _module("discrete").maxent_fit_report(self.family, u)
        achieved = core.theta_to_u(self.descriptor, theta)
        return theta, achieved, iterations, "damped Newton on the dual objective"

    def member_outputs(self, theta: np.ndarray) -> dict:
        return {"member_distribution":
                list(_module("discrete").boltzmann_gibbs(self.family, theta))}

    def sample_datasets(self, rng, count: int) -> np.ndarray:
        """``count`` probability vectors drawn uniformly from the simplex,
        one Dirichlet call."""
        return rng.dirichlet(np.ones(self.family.alphabet_size), size=count)


@dataclass(frozen=True)
class RegressionHandle:
    """Least-squares lines: a summary model with no canonical family."""

    name: str = "regression"
    descriptor = None
    data_flags = ("data",)

    def best_fit(self, pts: np.ndarray) -> tuple[dict, dict]:
        """``maxent`` outputs and diagnostics for the point set ``pts``."""
        from . import regression  # on first use: no other command needs it

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

    def best_fit(self, x: np.ndarray) -> tuple[dict, dict]:
        """``maxent`` outputs and diagnostics for the vector ``x``."""
        sphere = _module("sphere")
        mu = sphere.sphere_mu(x)
        outputs = {"direction": list(mu), "entropy": sphere.sphere_entropy(x)}
        if mu[2] > 0.0:
            q = sphere.sphere_questions(x)
            outputs["questions"] = list(q)
            outputs["reconstruction"] = list(sphere.sphere_from_questions(q))
        return outputs, {}


ModelHandle = (QubitHandle | CoherentHandle | DiscreteHandle | RegressionHandle
               | SphereHandle)


def coherent_instance(r: float = 1.0, hbar: float = 1.0, nmax: int = 64,
                      name: str | None = None) -> CoherentHandle:
    constants = _module("coherent").PhaseConstants(r=r, hbar=hbar)
    desc = _module("coherent").as_descriptor(constants, nmax)
    return CoherentHandle(name=name or f"coherent(r={r:g},hbar={hbar:g})",
                          descriptor=desc, constants=constants, nmax=nmax)


def discrete_instance(prior, hamiltonians, name: str | None = None) -> DiscreteHandle:
    family = _module("discrete").DiscreteFamily(prior=prior, hamiltonians=hamiltonians)
    return DiscreteHandle(name=name or f"discrete-{family.alphabet_size}letter",
                          descriptor=_module("discrete").as_descriptor(family), family=family)


_CANONICAL = {
    "qubit": QubitHandle,
    "coherent": lambda: coherent_instance(r=1.0, hbar=1.0, name="coherent"),
    "coherent2": lambda: coherent_instance(r=2.0, hbar=0.5, name="coherent2"),
    "discrete2": lambda: discrete_instance(np.ones(2), [[0.0, 1.0]], name="discrete2"),
    "discrete3": lambda: discrete_instance(np.ones(3), [[0.0, 1.0, 2.0]],
                                           name="discrete3"),
}
_BUILTINS = {**_CANONICAL, "regression": RegressionHandle, "sphere": SphereHandle}

BUILTIN_NAMES = tuple(_BUILTINS)


def canonical_instances() -> dict[str, ModelHandle]:
    """The five reference instances used throughout the checks."""
    return {name: get_model(name) for name in _CANONICAL}


@functools.cache
def get_model(name: str) -> ModelHandle:
    """The handle of a built-in name.  Raises KeyError for unknown names.

    Each name's handle is built on first use and shared after that: a
    handle is a frozen dataclass whose arrays are read-only, so no caller
    can change what another one sees.
    """
    if name not in _BUILTINS:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name]()


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([_parse_vector(row) for row in text.split(";") if row.strip()])


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


#: Each config type: its factory, the reader of each setting its section
#: may give, and whether the section and every setting are required.  A
#: setting the file leaves out is not passed, so its default lives in the
#: factory alone.
_CONFIG_TYPES = {
    "qubit": (QubitHandle, {}, False),
    "coherent": (coherent_instance, {"r": float, "hbar": float, "nmax": int}, False),
    "discrete": (discrete_instance, {"prior": _parse_vector, "hamiltonians": _parse_matrix},
                 True),
    "regression": (RegressionHandle, {}, False),
    "sphere": (SphereHandle, {}, False),
}


def load_config(path: str) -> ModelHandle:
    """Build a new model handle from an INI file.

    The [model] section names the type; a section of the same name holds
    its settings:

        [model]
        type = discrete

        [discrete]
        prior = 1, 1, 1
        hamiltonians = 0, 1, 2

    Coherent settings are r, hbar and nmax, each of which takes the
    default of :func:`coherent_instance` when left out.  A discrete
    family needs both prior and hamiltonians; rows of the observable
    matrix are separated by ";".  The qubit, regression and sphere types
    take no settings.  Any other key of [model] or of the type's section
    is refused; [DEFAULT] keys are not.  Malformed files raise ValueError.
    """
    import configparser  # loads with the first config file

    try:
        parser = configparser.ConfigParser()
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        if not parser.has_section("model") or not parser.has_option("model", "type"):
            raise ValueError("config needs a [model] section with a 'type' key")
        model_type = parser.get("model", "type").strip().lower()
        if model_type not in _CONFIG_TYPES:
            raise ValueError(f"unknown model type {model_type!r}")
        factory, readers, required = _CONFIG_TYPES[model_type]
        if required and not parser.has_section(model_type):
            raise ValueError(f"{model_type} config needs a [{model_type}] section")
        # [DEFAULT] keys reach every section, [model] too, so only a section's own are checked
        for section, known in (("model", ["type"]), (model_type, sorted(readers))):
            given = set(parser.options(section)) if parser.has_section(section) else set()
            unknown = sorted(given - set(parser.defaults()) - set(known))
            if unknown:
                raise ValueError(f"unknown {section} setting {unknown[0]!r}; known: {known}")
        # a required setting the file lacks raises configparser's NoOptionError
        return factory(**{key: read(parser.get(model_type, key)) for key, read in readers.items()
                          if required or parser.has_option(model_type, key)})
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc
