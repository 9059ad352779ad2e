"""The moment region of a discrete family: one facet test.

A ``DiscreteFamily`` builds the halfspaces ``U A^T < c`` of its open
moment region once: the convex hull of its letters' moments with each
facet inset by 1e-12 of its width.  ``DiscreteFamily.outside`` is the one
test on them: the descriptor's membership is its negation, and
``fit_moments`` finds a target outside infeasible before any Newton step.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from infogeo import DegeneracyError, get_model
from infogeo.discrete import FIT_INFEASIBLE, FIT_OK, DiscreteFamily, as_descriptor, fit_moments


@st.composite
def families(draw):
    """A family of 3 to 6 letters with 1 to 3 observables, integer
    spectra in 0..10 and integer priors 1..4, whose observables are
    independent."""
    m = draw(st.integers(3, 6))
    n = draw(st.integers(1, 3))
    prior = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    spectra = draw(st.lists(st.integers(0, 10), min_size=n * m, max_size=n * m))
    try:
        return DiscreteFamily(prior=np.array(prior, dtype=float),
                              hamiltonians=np.array(spectra, dtype=float).reshape(n, m))
    except DegeneracyError:
        assume(False)


def targets_around(family, rng):
    """Points of the box around the moment region, blends of the letters'
    moments, and blends of two letters (the region's edges) moved a
    little inwards or outwards."""
    h = family.hamiltonians
    lo, hi = family.box.T
    span = hi - lo
    box = rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(60, family.n))
    blends = rng.dirichlet(np.full(family.alphabet_size, 0.3), size=60) @ h.T
    a, b = rng.integers(0, family.alphabet_size, size=(2, 60))
    t = rng.uniform(0.0, 1.0, size=(60, 1))
    edges = t * h.T[a] + (1.0 - t) * h.T[b]
    inward = h @ (family.prior / family.prior.sum()) - edges
    nudged = edges + rng.uniform(-1e-3, 1e-3, size=(60, 1)) * inward
    return np.concatenate([box, blends, nudged])


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(families(), st.integers(0, 2 ** 32 - 1))
def test_membership_is_where_the_fit_converges(family, seed):
    us = targets_around(family, np.random.default_rng(seed))
    normals, b = family.facets[:, :-1], family.facets[:, -1]
    heights = normals @ family.hamiltonians
    width = heights.max(axis=1) - heights.min(axis=1)
    clear = (np.abs(us @ normals.T - b) >= 1e-6 * width).all(axis=1)
    inside = as_descriptor(family).energy_domain.membership(us)
    _, _, status = fit_moments(family, us[clear], tol=1e-8)
    assert inside[clear].tolist() == (status == FIT_OK).tolist()
    assert set(status[~inside[clear]].tolist()) <= {FIT_INFEASIBLE}


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(families(), st.integers(0, 2 ** 32 - 1))
def test_stacked_membership_rows_equal_point_calls(family, seed):
    membership = as_descriptor(family).energy_domain.membership
    us = targets_around(family, np.random.default_rng(seed))
    stacked = membership(us.reshape(3, -1, family.n))
    assert stacked.shape == (3, len(us) // 3) and stacked.dtype == bool
    assert stacked.ravel().tolist() == [bool(membership(u)) for u in us]


@pytest.mark.parametrize("name", ["discrete2", "discrete3"])
def test_one_observable_membership_is_the_interval_with_its_margin(name):
    family = get_model(name).family
    membership = get_model(name).descriptor.energy_domain.membership
    lo, hi = family.box[0]
    m = 1e-12 * (hi - lo)
    edges = [lo, lo + m, hi - m, hi]
    near = [np.nextafter(x, d) for x in edges for d in (-np.inf, np.inf)]
    xs = np.concatenate([edges, near, np.linspace(lo - 1.0, hi + 1.0, 201)])
    assert membership(xs[:, None]).tolist() == ((lo + m < xs) & (xs < hi - m)).tolist()
    assert not membership(np.array([lo + m])) and not membership(np.array([hi - m]))
