"""The exterior route's Plücker readout, against the default route and
against the paper's product-of-blades oracle in ``exterior_algebra``."""

import math

import numpy as np
import pytest

from grassdist import (AngleRoute, Field, Subspace, angle_report,
                       asymmetric_angle, disjointness_angle, random_subspace,
                       supplementation_angle)
from grassdist.exterior import plucker_sums
from grassdist.subspace import complete_basis

from exterior_algebra import blade_from_basis, contraction, regressive, wedge

R = Field.REAL
EXTERIOR = AngleRoute.EXTERIOR
# each default-route angle and the report field that holds it on a route
ANGLES = {asymmetric_angle: "theta_vw", disjointness_angle: "upsilon",
          supplementation_angle: "psi"}


def turned(angles, n):
    """The span of cos(a_k) e_k + sin(a_k) e_{m + k}, m = len(angles), in R^n:
    at principal angles ``angles`` from the span of e_1 .. e_m."""
    m = len(angles)
    cols = np.zeros((n, m))
    for k, a in enumerate(angles):
        cols[k, k], cols[m + k, k] = math.cos(a), math.sin(a)
    return Subspace.from_columns(cols, R)


def coordinate(m, n):
    return Subspace.from_columns(np.eye(n)[:, :m], R)


def test_tiny_principal_angles_keep_their_relative_accuracy():
    # two planes of R^6 at principal angles (1e-8, 2e-8): Theta is
    # sqrt(5) * 1e-8, below the 7.7e-8 floor of an acos of a ratio that
    # clamp_cosine snaps to 1
    v, w = coordinate(2, 6), turned([1e-8, 2e-8], 6)
    want = asymmetric_angle(v, w)
    assert want == pytest.approx(math.sqrt(5) * 1e-8, rel=1e-14)
    assert angle_report(v, w, EXTERIOR).theta_vw == pytest.approx(want, rel=1e-14)


def test_tiny_angle_between_lines():
    v, w = coordinate(1, 3), turned([5e-8], 3)
    want = asymmetric_angle(v, w)
    assert want == pytest.approx(5e-8, rel=1e-14)
    assert angle_report(v, w, EXTERIOR).theta_vw == pytest.approx(want, rel=1e-14)


def test_upsilon_just_short_of_a_right_angle():
    # lines at pi/2 - 1e-8: an asin of a sine snapped to 1 would read pi/2
    v, w = coordinate(1, 3), turned([math.pi / 2 - 1e-8], 3)
    got = angle_report(v, w, EXTERIOR).upsilon
    assert got == disjointness_angle(v, w)
    assert math.pi / 2 - got == pytest.approx(1e-8, rel=1e-7)


def random_pairs(rng, field, count):
    """Random pairs in ambient 1..8 with dimensions 0..n, {0} and the whole
    space included."""
    for _ in range(count):
        n = int(rng.integers(1, 9))
        p, q = (int(d) for d in rng.integers(0, n + 1, size=2))
        yield (random_subspace(n, p, field, int(rng.integers(2 ** 31))),
               random_subspace(n, q, field, int(rng.integers(2 ** 31))))


def test_agrees_with_the_default_route(rng, field):
    for v, w in random_pairs(rng, field, 300):
        for angle, key in ANGLES.items():
            got = getattr(angle_report(v, w, EXTERIOR), key)
            assert abs(got - angle(v, w)) <= 1e-14


def test_sums_are_the_norms_of_the_blade_products(rng, field):
    # cos^2 Theta = |contraction|^2, sin^2 Upsilon = |wedge|^2 and
    # sin^2 Psi = |regressive|^2 for unit blades of V and W; each readout's
    # two sides add up to 1
    for v, w in random_pairs(rng, field, 60):
        a = blade_from_basis(v.basis, field)
        b = blade_from_basis(w.basis, field)
        theta, upsilon, psi = plucker_sums(v, complete_basis(w.basis), w.dim)
        assert theta[1] == pytest.approx(contraction(a, b).norm() ** 2, abs=1e-12)
        assert upsilon[0] == pytest.approx(wedge(a, b).norm() ** 2, abs=1e-12)
        assert psi[0] == pytest.approx(regressive(a, b).norm() ** 2, abs=1e-12)
        for sides in (theta, upsilon, psi):
            assert sum(sides) == pytest.approx(1, abs=1e-12)
