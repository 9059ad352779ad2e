"""The start table of the discrete moment fit.

A one-observable ``DiscreteFamily`` tabulates its moment map at
construction, and ``fit_moments`` starts each row inside the box from the
inverse of that table at the row's own target.  Families with two or more
observables keep the start theta = 0.
"""

import hashlib

import numpy as np
import pytest

from infogeo import get_model
from infogeo.discrete import (
    FIT_INFEASIBLE,
    FIT_OK,
    DiscreteFamily,
    boltzmann_gibbs,
    fit_moments,
)


def family(prior, spectrum):
    return DiscreteFamily(prior=np.asarray(prior, dtype=float),
                          hamiltonians=np.asarray([spectrum], dtype=float))


def random_families(count, seed):
    """``count`` one-observable families of 3 to 5 letters with integer
    spectra in 0..10 that are not constant, and integer priors 1..4."""
    rng = np.random.default_rng(seed)
    families = []
    while len(families) < count:
        letters = rng.integers(3, 6)
        prior = rng.integers(1, 5, size=letters)
        spectrum = rng.integers(0, 11, size=letters)
        if np.ptp(spectrum):
            families.append(family(prior, spectrum))
    return families


#: The random families, the wide spectrum 0, 1, 10 and a family of width
#: 100 whose table saturates at its upper end.
ONE_OBSERVABLE = random_families(20, 41) + [family([1, 1, 1], [0, 1, 10]),
                                            family([1, 1, 1, 1], [0, 1, 2, 100])]


@pytest.mark.parametrize("name", ["discrete2", "discrete3"])
def test_builtin_fits_take_at_most_three_iterations(name):
    # The targets of the point commands: the moments of |theta| <= 3 and
    # the middle 95% of the moment interval.
    fam = get_model(name).family
    lo, hi = fam.box[0]
    thetas = np.linspace(-3.0, 3.0, 601)[:, None]
    interval = lo + (hi - lo) * np.linspace(0.025, 0.975, 601)
    targets = np.concatenate([(fam.hamiltonians @ boltzmann_gibbs(fam, thetas).T)[0],
                              interval])[:, None]
    _, iterations, status = fit_moments(fam, targets)
    assert (status == FIT_OK).all()
    assert iterations.max() <= 3


def test_the_table_is_monotone_and_saturates_on_a_wide_family():
    table = ONE_OBSERVABLE[-1].start_table
    assert table.shape[0] == 2
    assert (np.diff(table[0]) >= 0.0).all() and (np.diff(table[1]) < 0.0).all()
    assert table[0, -2] == table[0, -1] == 100.0


@pytest.mark.parametrize("index", range(len(ONE_OBSERVABLE)))
def test_every_target_inside_the_interval_is_fitted(index):
    fam = ONE_OBSERVABLE[index]
    lo, hi = fam.box[0]
    width = hi - lo
    rng = np.random.default_rng(index)
    depth = width * 10.0 ** -rng.uniform(1.0, 12.0, size=20)
    inside = np.concatenate([rng.uniform(lo, hi, size=30), lo + depth, hi - depth])
    outside = np.concatenate([lo - depth[:5], hi + depth[:5], [lo - width, hi + width]])
    targets = np.concatenate([inside, outside])[:, None]
    thetas, iterations, status = fit_moments(fam, targets)
    ok = status[:inside.size] == FIT_OK
    assert ok.all(), targets[:inside.size][~ok]
    moments = fam.hamiltonians @ boltzmann_gibbs(fam, thetas[:inside.size]).T
    assert np.max(np.abs(moments[0] - inside)) <= 1e-12
    assert (status[inside.size:] == FIT_INFEASIBLE).all()
    for i, target in enumerate(targets):
        theta, its, stat = fit_moments(fam, target[None])
        assert thetas[i].tobytes() == theta[0].tobytes()
        assert (iterations[i], status[i]) == (its[0], stat[0])


#: Families with two observables, the number of 400 targets around their
#: moment regions that lie inside, and the digest of those targets' fits,
#: recorded with every fit starting at theta = 0 when the fit still tested
#: targets against the box alone.
TWO_OBSERVABLES = [
    ([1, 2, 3], [[0, 1, 2], [1, 0, 0]], 64, "f7d341e234651d91"),
    ([1, 2, 1, 3, 1], [[0, 1, 2, 3, 4], [1, 0, 0, 1, 0]], 211, "fb32d0fd61359729"),
]


@pytest.mark.parametrize("prior, spectra, fitted, digest", TWO_OBSERVABLES,
                         ids=["3-letter", "5-letter"])
def test_fits_of_two_observables_start_at_zero(prior, spectra, fitted, digest):
    # Targets in the box but outside the polygon used to end singular or
    # stalled; the facet test now finds them infeasible before any step.
    fam = DiscreteFamily(prior=np.asarray(prior, dtype=float),
                         hamiltonians=np.asarray(spectra, dtype=float))
    assert fam.start_table is None
    lo, hi = fam.box.T
    rng = np.random.default_rng(43)
    targets = lo + (hi - lo) * rng.uniform(-0.1, 1.1, size=(400, 2))
    thetas, iterations, status = fit_moments(fam, targets)
    ok = status == FIT_OK
    assert set(status[~ok].tolist()) == {FIT_INFEASIBLE}
    assert np.count_nonzero(ok) == fitted
    fits = thetas[ok].tobytes() + iterations[ok].tobytes()
    assert hashlib.sha256(fits).hexdigest()[:16] == digest
