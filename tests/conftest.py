import math

import numpy as np
import pytest

from grassdist.angles import asymmetric_angle
from grassdist.exterior import plucker_sums
from grassdist.metrics import asymmetric_distance
from grassdist.numerics import Field, Tolerance
from grassdist.subspace import complete_basis, project_onto, underlying_real


@pytest.fixture
def tol():
    return Tolerance()


@pytest.fixture(params=[Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def field(request):
    return request.param


def random_matrix(rng, n, k, field):
    g = rng.standard_normal((n, k))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((n, k))
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Both sides of three of the paper's identities, from public calls; each
# test asserts that the sides agree.

def real_complex_sides(v, w):
    """``cos Theta(V_R, W_R)`` and ``cos^2 Theta(V, W)`` for a complex pair."""
    lhs = math.cos(asymmetric_angle(underlying_real(v), underlying_real(w)))
    return lhs, math.cos(asymmetric_angle(v, w)) ** 2


def sine_identity_sides(v, w):
    """The sine identity ``sin^2 Theta(V, W) = sum over p-multi-indices not
    inside 1..q of cos^2 Theta(V, [f_i])``, the f's extending W's basis to
    one of the ambient space: the exterior route's sine sum, then
    Binet-Cauchy squared from the principal angles."""
    (sin2_theta, _), _, _ = plucker_sums(v, complete_basis(w.basis), w.dim)
    return sin2_theta, asymmetric_distance("binet_cauchy", v, w).value ** 2


def spherical_pythagorean_sides(v, w, w_sub):
    """``cos Theta(V, W')`` and ``cos Theta(V, P_W(V)) cos Theta(P_W(V), W')``
    for W' inside W."""
    pv = project_onto(v, w)
    return (math.cos(asymmetric_angle(v, w_sub)),
            math.cos(asymmetric_angle(v, pv)) * math.cos(asymmetric_angle(pv, w_sub)))
