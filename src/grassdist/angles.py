"""The three angles between subspaces and their identities.

* asymmetric angle Theta(V, W): arccos of the norm ratio of a blade of V
  and its projection onto W; pi/2 whenever dim V > dim W, 0 for V = {0}.
* disjointness angle Upsilon(V, W) = pi/2 - Theta(V, W^perp): zero unless
  V and W meet only at the origin; symmetric.
* supplementation angle Psi(V, W) = pi/2 - Theta(V^perp, W): zero unless
  V + W is the whole space; symmetric.

Each angle is computed by three independent routes that cross-validate
each other: products over principal angles (default, robust for any n),
Gram determinants (also available for arbitrary, non-orthonormal bases),
and exterior algebra (contraction / wedge / regressive norms; the test
oracle, capped at small ambient dimension).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, DimensionError, NumericalDegeneracyError
from .exterior import blade_from_basis, contraction, regressive, wedge
from .numerics import (DEFAULT_TOL, Field, Tolerance, as_matrix, clamp_cosine)
from .subspace import (Subspace, _check_pair, complete_basis, intersection_dim,
                       principal_angles, principal_decomposition, project_onto,
                       underlying_real)


class AngleRoute(enum.Enum):
    PRINCIPAL = "principal"
    GRAM = "gram"
    EXTERIOR = "exterior"


# Smallest nonzero principal angle below which the V + W = X decision (and
# with it Eq-(2)-style case analysis) is fragile; reported, not guessed at.
_CONDITION_BAND = 1e-6


# ---------------------------------------------------------------------------
# Gram-determinant formulas on raw (possibly non-orthonormal) bases.
# ---------------------------------------------------------------------------

def _unit_columns(m: np.ndarray, side: str) -> np.ndarray:
    """``m`` with every column scaled to unit 2-norm, each divided by its
    largest absolute entry first so that the norm cannot overflow or
    underflow.  Every Gram ratio below is invariant to column scaling."""
    if not m.size:
        return m
    peak = np.max(np.abs(m), axis=0)
    if np.any(peak == 0):
        raise DegenerateBasisError(f"{side}-columns are not a basis (zero column)")
    m = m / peak
    return m / np.linalg.norm(m, axis=0)


def _gram_blocks(v_columns, w_columns, field: Field):
    v = as_matrix(v_columns, field)
    w = as_matrix(w_columns, field)
    if v.shape[0] != w.shape[0]:
        raise DimensionError("ambient mismatch between basis matrices")
    v, w = _unit_columns(v, "v"), _unit_columns(w, "w")
    a = v.conj().T @ v            # p x p
    b = w.conj().T @ w            # q x q
    c = w.conj().T @ v            # q x p
    det_a = float(np.linalg.det(a).real) if a.size else 1.0
    if v.shape[1] and det_a <= 0:
        raise DegenerateBasisError("v-columns are not a basis (singular Gram matrix)")
    if w.shape[1] and float(np.linalg.det(b).real) <= 0:
        raise DegenerateBasisError("w-columns are not a basis (singular Gram matrix)")
    return v, w, a, b, c, det_a


def _solve_b(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    if b.shape[0] == 0:
        return np.zeros((c.shape[1], c.shape[1]), dtype=c.dtype)
    try:
        return c.conj().T @ np.linalg.solve(b, c)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError("w-columns are not a basis") from exc


def cos2_theta_from_gram(v_columns, w_columns, field: Field) -> float:
    """cos^2 Theta from arbitrary bases:
    ``det(conj(C).T @ inv(B) @ C) / det(A)`` with A, B the Gram matrices of
    the two column sets and C the cross-Gram matrix."""
    v, w, a, b, c, det_a = _gram_blocks(v_columns, w_columns, field)
    if v.shape[1] == 0:
        return 1.0
    if v.shape[1] > w.shape[1]:
        return 0.0  # the determinant is of a rank-deficient matrix: exactly 0
    if w.shape[1] == w.shape[0]:
        return 1.0  # the target is the whole space: containment by fiat
    m = _solve_b(b, c)
    val = float(np.linalg.det(m).real) / det_a
    return clamp_cosine(val)


def sin2_upsilon_from_gram(v_columns, w_columns, field: Field) -> float:
    """sin^2 Upsilon from arbitrary bases: ``det(A - conj(C).T inv(B) C) / det(A)``."""
    v, w, a, b, c, det_a = _gram_blocks(v_columns, w_columns, field)
    if v.shape[1] == 0:
        return 1.0
    if v.shape[1] + w.shape[1] > v.shape[0]:
        return 0.0  # dimensions force a nontrivial intersection
    val = float(np.linalg.det(a - _solve_b(b, c)).real) / det_a
    return clamp_cosine(val)


def sin2_psi_from_gram(v_columns, w_orthonormal_columns, field: Field) -> float:
    """sin^2 Psi via the determinant sum over (n - p)-subsets of the
    orthonormal w-basis:
    ``(1 / det A) * sum_i |det [v_1 .. v_p  w_{i_1} .. w_{i_{n-p}}]|^2``.
    Returns 0 directly when p + q < n.  Columns are scaled to unit norm
    first, so the w-columns need only be mutually orthogonal."""
    v, w, a, b, _, det_a = _gram_blocks(v_columns, w_orthonormal_columns, field)
    n = v.shape[0]
    p, q = v.shape[1], w.shape[1]
    if q and float(np.max(np.abs(b - np.eye(q)))) > 1e-9:
        raise DimensionError("the determinant-sum route needs an orthonormal w-basis")
    if n > 20:
        raise DimensionError("the determinant-sum route enumerates "
                             "binomial(q, n - p) minors; capped at ambient 20")
    if p + q < n:
        return 0.0
    if p == n or q == n:
        return 1.0  # one side is the whole space: supplementary by fiat
    total = 0.0
    for rows in itertools.combinations(range(q), n - p):
        m = np.concatenate([v, w[:, rows]], axis=1)
        total += abs(np.linalg.det(m)) ** 2
    return clamp_cosine(total / det_a)


# ---------------------------------------------------------------------------
# The asymmetric angle Theta.
# ---------------------------------------------------------------------------

def _exterior_norms(v: Subspace, w: Subspace):
    a = blade_from_basis(v.basis, v.field)
    b = blade_from_basis(w.basis, w.field)
    return a, b, a.norm() * b.norm()


def _theta_principal(v: Subspace, w: Subspace, tol: Tolerance,
                     theta: np.ndarray | None = None) -> float:
    """Theta(V, W) from the principal angles ``theta`` of the pair, which
    are computed here only if not given and only if they are read."""
    if v.dim == 0:
        return 0.0
    if w.dim == 0 or v.dim > w.dim:
        return math.pi / 2
    if theta is None:
        theta = principal_angles(v, w, tol)
    return math.acos(clamp_cosine(float(np.prod(np.cos(theta)))))


def asymmetric_angle(v: Subspace, w: Subspace,
                     route: AngleRoute = AngleRoute.PRINCIPAL,
                     tol: Tolerance = DEFAULT_TOL) -> float:
    """Asymmetric angle Theta(V, W) in [0, pi/2].

    Routes: product of principal-angle cosines; Gram determinant; norm of
    the left contraction of representing blades.  All agree; pi/2 whenever
    dim V > dim W, 0 for V = {0}.
    """
    _check_pair(v, w)
    if route is AngleRoute.GRAM:
        return math.acos(math.sqrt(cos2_theta_from_gram(v.basis, w.basis, v.field)))
    if route is AngleRoute.EXTERIOR:
        a, b, denom = _exterior_norms(v, w)
        return math.acos(clamp_cosine(contraction(a, b).norm() / denom))
    return _theta_principal(v, w, tol)


def projection_factor(v: Subspace, w: Subspace,
                      tol: Tolerance = DEFAULT_TOL) -> float:
    """Volume contraction factor under orthogonal projection from V to W:
    cos Theta over the reals, cos^2 Theta over the complexes."""
    c = math.cos(asymmetric_angle(v, w, tol=tol))
    return c if v.field is Field.REAL else c * c


def real_complex_relation_check(v: Subspace, w: Subspace,
                                tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Both sides of ``cos Theta(V_R, W_R) = cos^2 Theta(V, W)`` for a
    complex pair; equality is the assertion target."""
    if v.field is not Field.COMPLEX:
        raise DimensionError("relation check requires complex subspaces")
    _check_pair(v, w)
    lhs = math.cos(asymmetric_angle(underlying_real(v), underlying_real(w), tol=tol))
    rhs = math.cos(asymmetric_angle(v, w, tol=tol)) ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# Disjointness angle Upsilon and supplementation angle Psi.
# ---------------------------------------------------------------------------

def _upsilon_principal(v: Subspace, w: Subspace, tol: Tolerance,
                       theta: np.ndarray | None = None) -> float:
    if v.dim == 0 or w.dim == 0:
        return math.pi / 2
    if theta is None:
        theta = principal_angles(v, w, tol)
    return math.asin(clamp_cosine(float(np.prod(np.sin(theta)))))


def disjointness_angle(v: Subspace, w: Subspace,
                       route: AngleRoute = AngleRoute.PRINCIPAL,
                       tol: Tolerance = DEFAULT_TOL) -> float:
    """Disjointness angle Upsilon(V, W) = pi/2 - Theta(V, W^perp).

    Zero exactly when V and W intersect nontrivially, pi/2 exactly when
    V is orthogonal to W; symmetric in its arguments.  sin Upsilon is the
    product of principal-angle sines / a Gram determinant / the norm of
    the wedge of representing blades, by route.
    """
    _check_pair(v, w)
    if route is AngleRoute.GRAM:
        return math.asin(math.sqrt(sin2_upsilon_from_gram(v.basis, w.basis, v.field)))
    if route is AngleRoute.EXTERIOR:
        a, b, denom = _exterior_norms(v, w)
        return math.asin(clamp_cosine(wedge(a, b).norm() / denom))
    return _upsilon_principal(v, w, tol)


def _psi_principal(v: Subspace, w: Subspace, tol: Tolerance,
                   theta: np.ndarray | None = None) -> float:
    n = v.ambient_dim
    if v.dim == n or w.dim == n:
        return math.pi / 2
    if v.dim == 0 or w.dim == 0:
        return 0.0  # V + W is a proper subspace
    if theta is None:
        theta = principal_angles(v, w, tol)
    r = int(np.count_nonzero(theta < tol.angle_tol))
    r_rank = intersection_dim(v, w, tol)
    if r != r_rank:
        raise NumericalDegeneracyError(
            f"intersection dimension is ambiguous: {r} small principal angles "
            f"vs stacked-basis rank count {r_rank}")
    if v.dim + w.dim - r < n:
        return 0.0
    sines = np.sin(theta[r:])
    return math.asin(clamp_cosine(float(np.prod(sines))))


def supplementation_angle(v: Subspace, w: Subspace,
                          route: AngleRoute = AngleRoute.PRINCIPAL,
                          tol: Tolerance = DEFAULT_TOL) -> float:
    """Supplementation angle Psi(V, W) = pi/2 - Theta(V^perp, W).

    Zero exactly when V + W falls short of the whole space; symmetric.
    The principal route is the case analysis on r = dim(V & W) (sines of
    the nonzero principal angles); the Gram route is the determinant sum
    over coordinate completions; the exterior route is the norm of the
    regressive product of representing blades.
    """
    _check_pair(v, w)
    if route is AngleRoute.GRAM:
        return math.asin(math.sqrt(sin2_psi_from_gram(v.basis, w.basis, v.field)))
    if route is AngleRoute.EXTERIOR:
        a, b, denom = _exterior_norms(v, w)
        return math.asin(clamp_cosine(regressive(a, b).norm() / denom))
    return _psi_principal(v, w, tol)


# ---------------------------------------------------------------------------
# Identities exposed as checkable operations.
# ---------------------------------------------------------------------------

def _cos_theta_orthonormal(e: np.ndarray, f: np.ndarray) -> float:
    """|det(f^H e)| = cos Theta for equal-dimension orthonormal bases."""
    return clamp_cosine(abs(np.linalg.det(f.conj().T @ e)))


def pythagorean_sum(v: Subspace, basis_vectors, tol: Tolerance = DEFAULT_TOL) -> float:
    """Sum of cos^2 Theta(V, [w_i]) over all coordinate p-subspaces of an
    orthonormal basis of the ambient space; the identity target is 1."""
    if v.dim == 0:
        raise DimensionError("pythagorean sum requires a nonzero subspace")
    basis = as_matrix(basis_vectors, v.field)
    n = v.ambient_dim
    if basis.shape != (n, n):
        raise DimensionError(f"expected an ambient basis of shape {(n, n)}")
    if np.max(np.abs(basis.conj().T @ basis - np.eye(n))) > 1e-9:
        raise DimensionError("ambient basis must be orthonormal")
    total = 0.0
    for combo in itertools.combinations(range(n), v.dim):
        total += _cos_theta_orthonormal(v.basis, basis[:, combo]) ** 2
    return total


def sine_identity_sum(v: Subspace, w: Subspace,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Both sides of the sine identity
    ``sin^2 Theta(V, W) = sum over p-multi-indices not inside 1..q of
    cos^2 Theta(V, [f_i])``, the f's extending a principal basis of W to
    an orthonormal basis of the ambient space."""
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        raise DimensionError("sine identity requires nonzero subspaces")
    pd = principal_decomposition(v, w, tol)
    full = complete_basis(pd.right_basis)
    p, q, n = v.dim, w.dim, v.ambient_dim
    total = 0.0
    for combo in itertools.combinations(range(n), p):
        if combo[-1] < q:  # all indices inside the 1..q block: skip
            continue
        total += _cos_theta_orthonormal(v.basis, full[:, combo]) ** 2
    if p > q:
        sin2 = 1.0
    else:
        sin2 = 1.0 - float(np.prod(np.cos(pd.angles)) ** 2)
    return total, sin2


def spherical_pythagorean_check(v: Subspace, w: Subspace, w_sub: Subspace,
                                tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Both sides of ``cos Theta(V, W') = cos Theta(V, P_W(V)) *
    cos Theta(P_W(V), W')`` for W' contained in W."""
    _check_pair(v, w)
    _check_pair(w, w_sub)
    if not w.contains(w_sub, tol):
        raise DimensionError("w_sub is not contained in w")
    pv = project_onto(v, w, tol)
    lhs = math.cos(asymmetric_angle(v, w_sub, tol=tol))
    rhs = (math.cos(asymmetric_angle(v, pv, tol=tol))
           * math.cos(asymmetric_angle(pv, w_sub, tol=tol)))
    return lhs, rhs


def orthogonal_partition_check(v1: Subspace, v2: Subspace, w: Subspace,
                               tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Both sides of ``cos Theta(V, W) = cos Theta(V', W') cos Theta(V'', W'')``
    for the orthogonal partition V = V' + V'', with W' = P_W(V') and W'' its
    orthogonal complement inside W."""
    _check_pair(v1, v2)
    _check_pair(v1, w)
    if v1.dim and v2.dim:
        if float(np.max(np.abs(v1.basis.conj().T @ v2.basis))) > 1e-9:
            raise DimensionError("v1 and v2 must be orthogonal")
    v = Subspace(v1.ambient_dim, v1.field,
                 np.concatenate([v1.basis, v2.basis], axis=1))
    if v1.dim and w.dim:
        # split W along a principal basis of (V', W): the leading right
        # principal vectors span P_W(V'), the rest its complement inside W
        pd = principal_decomposition(v1, w, tol)
        k = int(np.count_nonzero(pd.angles < np.pi / 2 - tol.angle_tol))
        w1 = Subspace(w.ambient_dim, w.field, pd.right_basis[:, :k])
        w2 = Subspace(w.ambient_dim, w.field, pd.right_basis[:, k:])
    else:
        w1 = Subspace.zero(w.ambient_dim, w.field)
        w2 = w
    lhs = math.cos(asymmetric_angle(v, w, tol=tol))
    rhs = (math.cos(asymmetric_angle(v1, w1, tol=tol))
           * math.cos(asymmetric_angle(v2, w2, tol=tol)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Combined report.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleReport:
    """Every angle of a pair in one place (radians).

    ``psi_ill_conditioned`` flags a fragile V + W = X decision: some
    principal angle sits just above the zero cutoff, where the
    supplementation case analysis is discontinuous.
    """

    theta_vw: float
    theta_wv: float
    upsilon: float
    psi: float
    principal_angles: tuple[float, ...]
    dims: tuple[int, int, int]
    psi_ill_conditioned: bool = False


def angle_report(v: Subspace, w: Subspace,
                 route: AngleRoute = AngleRoute.PRINCIPAL,
                 tol: Tolerance = DEFAULT_TOL) -> AngleReport:
    """Compute Theta (both directions), Upsilon, Psi and the principal
    angles of a pair.

    On the principal route the angles are computed once and every value is
    derived from them exactly as the standalone functions derive it, so
    the report equals those functions bit for bit.
    """
    _check_pair(v, w)
    theta = principal_angles(v, w, tol)
    fragile = bool(np.any((theta >= tol.angle_tol) & (theta < _CONDITION_BAND)))
    if route is AngleRoute.PRINCIPAL:
        values = (_theta_principal(v, w, tol, theta),
                  _theta_principal(w, v, tol, theta),
                  _upsilon_principal(v, w, tol, theta),
                  _psi_principal(v, w, tol, theta))
    else:
        values = (asymmetric_angle(v, w, route, tol),
                  asymmetric_angle(w, v, route, tol),
                  disjointness_angle(v, w, route, tol),
                  supplementation_angle(v, w, route, tol))
    return AngleReport(
        *values,
        principal_angles=tuple(float(t) for t in theta),
        dims=(v.dim, w.dim, v.ambient_dim),
        psi_ill_conditioned=fragile,
    )
