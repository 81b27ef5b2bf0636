"""Distances on Grassmannians and their asymmetric extensions.

Nine equal-dimension metrics, each a function f_p of the principal
angles, extend to asymmetric metrics on the full Grassmannian of
subspaces of every dimension: from V (dim p) to W (dim q) the distance is
f_p(theta_1, .., theta_p) when 0 < p <= q, the diameter of the p-th
Grassmannian when p > q, and 0 when p = 0.  The infimum characterizing the
extension is never searched: the closed form above provably attains it.
Every distance is a plain float; which of the three cases gave it is a
function of (p, q) alone, so nothing else is returned.

The Fubini-Study extension is Theta, atan2(sqrt(1 - prod cos^2), prod cos);
Binet-Cauchy is sin Theta.  No f_p takes arccos or arcsin of a product or
sets a value to zero: only decisions (Martin's infinity) read ``angle_tol``.

Also: containment gap, gap, directional and symmetric distances, the two
non-metric diagnostics (max-correlation and the Martin quantity), and
symmetrization helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError
from .numerics import DEFAULT_TOL, Field, Tolerance, product_and_complement
from .subspace import (Subspace, _check_pair, _count_right, principal_angles,
                       random_unitary)

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class MetricDescriptor:
    """A metric family, named by its ``METRICS`` key: ``f_p`` maps a
    principal-angle array to the distance, ``diam`` gives the supremum over
    p-subspace pairs in every ambient dimension (the value assigned when
    containment is impossible).

    ``f_p`` is nondecreasing in each angle and stable under zero-angle
    prefixes, which is what makes the asymmetric extension a metric.
    """

    f_p: Callable[[np.ndarray], float]
    diam: Callable[[int], float]
    units: str  # "radians" or "dimensionless"


def _fubini_study_of(cos, sin) -> float:
    """The Fubini-Study f_p from the cosines and sines of the angles, for a
    caller that has taken them already; 0 for no angles."""
    cos_theta, sin_theta = product_and_complement(cos, sin)
    return math.atan2(sin_theta, cos_theta)


def _d_geodesic(t): return float(np.sqrt(np.sum(t * t)))
def _d_chordal_frobenius(t): return float(2 * np.sqrt(np.sum(np.sin(t / 2) ** 2)))
def _d_projection_frobenius(t): return float(np.sqrt(np.sum(np.sin(t) ** 2)))
def _d_fubini_study(t): return _fubini_study_of(np.cos(t), np.sin(t))
def _d_chordal_wedge(t): return 2 * math.sin(_d_fubini_study(t) / 2)
def _d_binet_cauchy(t): return math.sin(_d_fubini_study(t))
def _d_asimov(t): return float(t[-1])
def _d_chordal_2norm(t): return float(2 * np.sin(t[-1] / 2))
def _d_projection_2norm(t): return float(np.sin(t[-1]))


METRICS: dict[str, MetricDescriptor] = {}

for _name, _f, _diam, _units in [
    ("geodesic", _d_geodesic, lambda p: _HALF_PI * math.sqrt(p), "radians"),
    ("chordal_frobenius", _d_chordal_frobenius, lambda p: math.sqrt(2 * p), "dimensionless"),
    ("projection_frobenius", _d_projection_frobenius, math.sqrt, "dimensionless"),
    ("fubini_study", _d_fubini_study, lambda p: _HALF_PI, "radians"),
    ("chordal_wedge", _d_chordal_wedge, lambda p: math.sqrt(2), "dimensionless"),
    ("binet_cauchy", _d_binet_cauchy, lambda p: 1.0, "dimensionless"),
    ("asimov", _d_asimov, lambda p: _HALF_PI, "radians"),
    ("chordal_2norm", _d_chordal_2norm, lambda p: math.sqrt(2), "dimensionless"),
    ("projection_2norm", _d_projection_2norm, lambda p: 1.0, "dimensionless"),
]:
    METRICS[_name] = MetricDescriptor(_f, _diam, _units)

# Defense against formula typos: the hardcoded diameters must equal
# f_p(pi/2, .., pi/2).
for _name, _desc in METRICS.items():
    for _p in range(1, 9):
        assert abs(_desc.diam(_p) - _desc.f_p(np.full(_p, _HALF_PI))) < 1e-12, _name

DIAGNOSTICS = ("max_correlation", "martin")


def equal_dim_distance(name: str, v: Subspace, w: Subspace) -> float:
    """One of the nine metrics for subspaces of one common dimension."""
    desc = METRICS[name]
    _check_pair(v, w)
    if v.dim != w.dim or v.dim < 1:
        raise DimensionError("equal_dim_distance requires equal nonzero dimensions; "
                             "use asymmetric_distance otherwise")
    return desc.f_p(principal_angles(v, w))


def extension_from_angles(desc: MetricDescriptor, theta: np.ndarray,
                          dim_from: int, dim_to: int,
                          value: float | None = None) -> float:
    """Asymmetric extension evaluated from precomputed principal angles:
    0 when dim_from = 0, the diameter when dim_from > dim_to, f_p(theta)
    otherwise.

    ``theta`` must hold the min(dim_from, dim_to) principal angles of the
    pair; it is ignored in the zero-source and diameter cases.  ``value``,
    when the caller has it, is f_p(theta), so it is not evaluated again.
    """
    if dim_from == 0:
        return 0.0
    if dim_from > dim_to:
        return desc.diam(dim_from)
    return desc.f_p(np.asarray(theta)) if value is None else value


def asymmetric_distance(desc: MetricDescriptor | str, v: Subspace,
                        w: Subspace) -> float:
    """Asymmetric extension of a metric family from V to W, as a float:
    see :func:`extension_from_angles` for its three cases."""
    if isinstance(desc, str):
        desc = METRICS[desc]
    if not 0 < v.dim <= w.dim:  # 0 or the diameter: no angles read
        _check_pair(v, w)
        return extension_from_angles(desc, np.zeros(0), v.dim, w.dim)
    # the kernel checks the pair
    return extension_from_angles(desc, principal_angles(v, w), v.dim, w.dim)


# ---------------------------------------------------------------------------
# Distances on the full Grassmannian that are not Table-style extensions.
# ---------------------------------------------------------------------------

def containment_gap(v: Subspace, w: Subspace) -> float:
    """How far V is from being contained in W: sin of the largest principal
    angle when dim V <= dim W, 1 otherwise; zero exactly for V inside W.
    This is the asymmetric extension of the projection 2-norm metric."""
    return asymmetric_distance(METRICS["projection_2norm"], v, w)


def gap(v: Subspace, w: Subspace) -> float:
    """Symmetrized containment gap; equals the operator norm of the
    projector difference, and is 1 whenever the dimensions differ.  With
    equal dimensions the kernel is symmetric bit for bit, so one direction
    is the gap."""
    if v.dim == w.dim:
        return containment_gap(v, w)
    _check_pair(v, w)
    return 1.0


def directional_distance(v: Subspace, w: Subspace) -> float:
    """l2 size of the residuals of an orthonormal V-basis projected on W:
    sqrt(max(p - q, 0) + sum sin^2 theta_i), which is 0 for V = {0}."""
    s2 = float(np.sum(np.sin(principal_angles(v, w)) ** 2))
    return math.sqrt(max(v.dim - w.dim, 0) + s2)


def symmetric_distance(v: Subspace, w: Subspace) -> float:
    """max of the two directional distances: sqrt(|p - q| + sum sin^2 theta_i),
    the directional distance from the larger side (0 when both are {0})."""
    return directional_distance(v, w) if v.dim >= w.dim else directional_distance(w, v)


def diagnostic_quantities(v: Subspace, w: Subspace,
                          tol: Tolerance = DEFAULT_TOL) -> dict[str, float]:
    """Non-metric diagnostics: max-correlation ``sin theta_1`` (zero exactly
    when the subspaces intersect) and the Martin quantity
    ``sqrt(-log prod cos^2 theta_i)`` (infinite when some principal angle
    reads as pi/2), summed as ``log1p(tan^2 theta_i)`` so neither end of
    [0, pi/2) cancels.

    Neither satisfies a triangle inequality for general subspaces.
    """
    theta = principal_angles(v, w)  # the kernel checks the pair
    if v.dim == 0 or w.dim == 0:
        raise DimensionError("diagnostics require nonzero subspaces")
    martin = (math.inf if _count_right(theta, tol) > 0
              else math.sqrt(float(np.sum(np.log1p(np.tan(theta) ** 2)))))
    return {"max_correlation": float(np.sin(theta[0])), "martin": martin}


def symmetrize(d_fwd: float | np.ndarray, d_bwd: float | np.ndarray,
               mode: str) -> float | np.ndarray:
    """max or mean symmetrization of forward/backward distances, elementwise:
    two floats, or a distance matrix and its transpose."""
    if np.any(d_fwd < 0) or np.any(d_bwd < 0):
        raise ValueError("distances must be nonnegative")
    if mode == "max":
        return np.maximum(d_fwd, d_bwd)
    if mode == "mean":
        return (d_fwd + d_bwd) / 2
    raise ValueError(f"unknown symmetrization mode {mode!r}")


# ---------------------------------------------------------------------------
# Triangle-equality witness generator.
# ---------------------------------------------------------------------------

def make_equality_triple(r_dim: int, kappa: float, lam: float, seed: int,
                         *, s_dim: int | None = None, t_dim: int | None = None,
                         ambient_dim: int | None = None,
                         field: Field = Field.REAL,
                         perturbation: float = 0.0,
                         ) -> tuple[Subspace, Subspace, Subspace]:
    """Construct (U, V, W) attaining Theta(U, W) = Theta(U, V) + Theta(V, W).

    U = [u] + R, V = [v] + S, W = [w] + T for nested R inside S inside T and
    aligned u, v, w orthogonal to T with v = kappa*u + lam*w; u and w live
    in a plane where the inner product is real, so the triple is exact over
    both fields.  Dimensions default to (r, r+1, r+2) with ambient r + 5.

    ``perturbation`` > 0 rotates v by that angle (radians) out of the
    (u, w)-plane toward a seed-dependent orthogonal direction, breaking the
    equality; the defect grows like the squared perturbation.
    """
    if kappa <= 0 or lam <= 0:
        raise ValueError("kappa and lam must be positive")
    if s_dim is None:
        s_dim = r_dim + 1
    if t_dim is None:
        t_dim = s_dim + 1
    if not 0 <= r_dim <= s_dim <= t_dim:
        raise DimensionError("need r_dim <= s_dim <= t_dim")
    needed = t_dim + (3 if perturbation else 2)
    if ambient_dim is None:
        ambient_dim = t_dim + 3
    if ambient_dim < needed:
        raise DimensionError(f"ambient dimension {ambient_dim} too small; "
                             f"need at least {needed}")
    rng = np.random.default_rng(seed)
    q = random_unitary(ambient_dim, field, int(rng.integers(2 ** 63)))
    # the u-w opening angle stays in [20, 70] degrees: keeps the perturbed
    # defect bounded away from zero (quadratic with constant > 1)
    alpha = rng.uniform(np.deg2rad(20), np.deg2rad(70))
    u = q[:, t_dim]
    z = q[:, t_dim + 1]
    w = math.cos(alpha) * u + math.sin(alpha) * z
    vvec = kappa * u + lam * w
    vvec = vvec / np.linalg.norm(vvec)
    if perturbation:
        out = q[:, t_dim + 2]
        vvec = math.cos(perturbation) * vvec + math.sin(perturbation) * out
    n, f = ambient_dim, field
    u_space = Subspace(n, f, np.concatenate([q[:, :r_dim], u[:, None]], axis=1))
    v_space = Subspace(n, f, np.concatenate([q[:, :s_dim], vvec[:, None]], axis=1))
    w_space = Subspace(n, f, np.concatenate([q[:, :t_dim], w[:, None]], axis=1))
    return u_space, v_space, w_space
