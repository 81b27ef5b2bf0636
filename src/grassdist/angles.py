"""The three angles between subspaces and their identities.

* asymmetric angle Theta(V, W): arccos of the norm ratio of a blade of V
  and its projection onto W; pi/2 whenever dim V > dim W, 0 for V = {0}.
* disjointness angle Upsilon(V, W) = pi/2 - Theta(V, W^perp): zero unless
  V and W meet only at the origin; symmetric.
* supplementation angle Psi(V, W) = pi/2 - Theta(V^perp, W): zero unless
  V + W is the whole space; symmetric.

The standalone functions take the default route, products over principal
angles (robust for any n).  Two independent oracles cross-validate it, one
readout of (Theta(V, W), Theta(W, V), Upsilon, Psi) each in ``ORACLES``:
Gram determinants (:func:`gram_angles`), and sums of squared Plücker
coordinates in a basis adapted to W (the exterior route, which reads the
norms of the contraction, wedge and regressive products of blades; capped
at small ambient dimension).  A route is chosen only through
``angle_report(v, w, route)``.

On the principal route Theta *is* the asymmetric Fubini-Study extension.
No derivation takes arccos or arcsin of a product or sets a value to zero;
only decisions read ``angle_tol``: Psi's dim(V & W) and the fragile band.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .exterior import AMBIENT_CAP, _subsets, blade_from_basis, plucker_angles
from .metrics import (METRICS, _fubini_study_of, asymmetric_distance,
                      extension_from_angles)
from .numerics import (DEFAULT_TOL, Field, Tolerance, as_matrix, clamp_cosine,
                       product_and_complement)
from .subspace import (Subspace, _check_pair, _count_right, _count_zero,
                       _larger_first, principal_angles, principal_decomposition)


class AngleRoute(enum.Enum):
    PRINCIPAL = "principal"
    GRAM = "gram"
    EXTERIOR = "exterior"


# Smallest nonzero principal angle below which the V + W = X decision (and
# with it Eq-(2)-style case analysis) is fragile; reported, not guessed at.
_CONDITION_BAND = 1e-6

_FUBINI_STUDY = METRICS["fubini_study"]  # Theta, by the paper's construction

# The Gram route's Psi enumerates C(q, n - p) determinants; at n = 20 that
# is at most C(19, 9) = 92,378.
GRAM_PSI_CAP = 20

# Psi batches its determinants in chunks of at most 64 MB of n x n matrices:
# at GRAM_PSI_CAP all 92,378 complex 20 x 20 would take 591 MB at once, and
# a chunk of 10,485 of them still amortizes the per-call cost of the det.
_PSI_CHUNK_BYTES = 64 << 20


# ---------------------------------------------------------------------------
# Gram-determinant formulas on any bases (Psi's needs W's orthonormal).
# ---------------------------------------------------------------------------

def _gram_blocks(v: np.ndarray, w: np.ndarray):
    a = v.conj().T @ v            # p x p
    b = w.conj().T @ w            # q x q
    c = w.conj().T @ v            # q x p
    det_a = float(np.linalg.det(a).real) if a.size else 1.0
    return v, w, a, b, c, det_a


def _solve_b(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    if b.shape[0] == 0:
        return np.zeros((c.shape[1], c.shape[1]), dtype=c.dtype)
    return c.conj().T @ np.linalg.solve(b, c)


def _cos2_theta(v, w, a, b, c, det_a) -> float:
    # dim V <= dim W: gram_angles gives Theta from the larger side, pi/2
    if v.shape[1] == 0:
        return 1.0
    if w.shape[1] == w.shape[0]:
        return 1.0  # the target is the whole space: containment by fiat
    m = _solve_b(b, c)
    val = float(np.linalg.det(m).real) / det_a
    return clamp_cosine(val)


def _sin2_upsilon(v, w, a, b, c, det_a) -> float:
    if v.shape[1] == 0:
        return 1.0
    if v.shape[1] + w.shape[1] > v.shape[0]:
        return 0.0  # dimensions force a nontrivial intersection
    val = float(np.linalg.det(a - _solve_b(b, c)).real) / det_a
    return clamp_cosine(val)


def _sin2_psi(v, w, a, b, c, det_a) -> float:
    n = v.shape[0]
    p, q = v.shape[1], w.shape[1]
    if n > GRAM_PSI_CAP:
        raise DimensionError("the determinant-sum route enumerates binomial(q, n - p) "
                             f"minors; capped at ambient {GRAM_PSI_CAP}")
    if p + q < n:
        return 0.0
    if p == n or q == n:
        return 1.0  # one side is the whole space: supplementary by fiat
    subsets = _subsets(q, n - p)
    step = max(1, _PSI_CHUNK_BYTES // (n * n * v.itemsize))
    total = 0.0
    for start in range(0, len(subsets), step):
        rows = subsets[start:start + step]
        # [v | w[:, rows]] for every subset of the chunk, stacked
        m = np.concatenate([np.broadcast_to(v, (len(rows), n, p)),
                            w[:, rows].transpose(1, 0, 2)], axis=2)
        for d in np.linalg.det(m):
            total += abs(d) ** 2  # one term at a time, in subset order
    return clamp_cosine(total / det_a)


def gram_angles(v: Subspace, w: Subspace) -> tuple[float, float, float, float]:
    """Theta(V, W), Theta(W, V), Upsilon and Psi on the Gram route, from one
    build of the Gram blocks with the larger side first, as the kernel
    orders it: both argument orders agree bit for bit, and Psi sums the
    fewer minors (it raises above ``GRAM_PSI_CAP``).  Theta from the larger
    side is pi/2, or the same float at equal dimensions.  Theta reads 0
    below about 7.7e-8: it takes acos of a ratio that :func:`clamp_cosine`
    snaps to 1 within 3e-15."""
    _check_pair(v, w)
    larger, smaller = _larger_first(v, w)
    blocks = _gram_blocks(larger, smaller)
    e, f, a, b, c, _ = blocks
    det_b = float(np.linalg.det(b).real) if b.size else 1.0
    up = math.acos(math.sqrt(_cos2_theta(f, e, b, a, c.conj().T, det_b)))
    down = up if e.shape[1] == f.shape[1] else math.pi / 2
    return (*((down, up) if larger is v.basis else (up, down)),
            math.asin(math.sqrt(_sin2_upsilon(*blocks))),
            math.asin(math.sqrt(_sin2_psi(*blocks))))


# Each oracle route: its readout of (Theta(V, W), Theta(W, V), Upsilon, Psi)
# and the ambient cap of the leg that enumerates subsets.
ORACLES = {AngleRoute.GRAM: (gram_angles, GRAM_PSI_CAP),
           AngleRoute.EXTERIOR: (plucker_angles, AMBIENT_CAP)}


# ---------------------------------------------------------------------------
# The asymmetric angle Theta.
# ---------------------------------------------------------------------------

def asymmetric_angle(v: Subspace, w: Subspace) -> float:
    """Asymmetric angle Theta(V, W) in [0, pi/2]: the Fubini-Study
    extension of the principal angles; pi/2 whenever dim V > dim W and 0
    for V = {0}.  The oracle routes are read through :func:`angle_report`.
    """
    return asymmetric_distance(_FUBINI_STUDY, v, w)


def _projection_factor(theta: float, field: Field) -> float:
    """cos Theta over the reals, cos^2 Theta over the complexes."""
    c = math.cos(theta)
    return c if field is Field.REAL else c * c


def projection_factor(v: Subspace, w: Subspace) -> float:
    """Volume contraction factor under orthogonal projection from V to W:
    cos Theta over the reals, cos^2 Theta over the complexes."""
    return _projection_factor(asymmetric_angle(v, w), v.field)


# ---------------------------------------------------------------------------
# Disjointness angle Upsilon and supplementation angle Psi.
# ---------------------------------------------------------------------------

def _sine_product_angle(sin: np.ndarray, cos: np.ndarray) -> float:
    """atan2(prod sin, sqrt(1 - prod sin^2)) from the sines and cosines of
    some angles, not pi/2 minus an angle, so a tiny result keeps its
    relative accuracy.  Upsilon is this over all the angles (pi/2, the
    empty product, when either side is {0})."""
    return math.atan2(*product_and_complement(sin, cos))


def disjointness_angle(v: Subspace, w: Subspace) -> float:
    """Disjointness angle Upsilon(V, W) = pi/2 - Theta(V, W^perp).

    Zero exactly when V and W intersect nontrivially, pi/2 exactly when
    V is orthogonal to W; symmetric in its arguments.  sin Upsilon is the
    product of the principal-angle sines.
    """
    theta = principal_angles(v, w)
    return _sine_product_angle(np.sin(theta), np.cos(theta))


def _psi_principal(p: int, q: int, n: int, r: int, sin: np.ndarray,
                   cos: np.ndarray) -> float:
    """Psi(V, W) for dim V = p, dim W = q in ambient n by the case analysis
    on r = dim(V & W), the count of principal angles at most ``angle_tol``,
    from the sines and cosines of the angles: V + W is the whole space
    exactly when p + q - r = n ({0} never reaches it), and then sin Psi is
    the product of the sines past r.  ``angle_report`` flags a fragile r."""
    if p == n or q == n:
        return math.pi / 2
    if p + q - r < n:
        return 0.0
    return _sine_product_angle(sin[r:], cos[r:])


def supplementation_angle(v: Subspace, w: Subspace,
                          tol: Tolerance = DEFAULT_TOL) -> float:
    """Supplementation angle Psi(V, W) = pi/2 - Theta(V^perp, W).

    Zero exactly when V + W falls short of the whole space; symmetric.
    The case analysis on r = dim(V & W): the sines of the nonzero
    principal angles.
    """
    theta = principal_angles(v, w)
    return _psi_principal(v.dim, w.dim, v.ambient_dim, _count_zero(theta, tol),
                          np.sin(theta), np.cos(theta))


# ---------------------------------------------------------------------------
# Identities exposed as checkable operations.
# ---------------------------------------------------------------------------

def pythagorean_sum(v: Subspace, basis_vectors) -> float:
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
    # cos^2 Theta(V, [w_i]) = |det(w_i^H V)|^2, a squared Plücker coordinate
    # of V in the basis
    plucker = blade_from_basis(basis.conj().T @ v.basis, v.field)
    return float(np.sum(np.abs(plucker) ** 2))


def orthogonal_partition_check(v1: Subspace, v2: Subspace, w: Subspace,
                               tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Both sides of ``cos Theta(V, W) = cos Theta(V', W') cos Theta(V'', W'')``
    for the orthogonal partition V = V' + V'', with W' = P_W(V') and W'' its
    orthogonal complement inside W."""
    _check_pair(v1, v2)
    _check_pair(v1, w)
    # Subspace rejects the joined basis unless v1 and v2 are orthogonal
    v = Subspace(v1.ambient_dim, v1.field,
                 np.concatenate([v1.basis, v2.basis], axis=1))
    if v1.dim and w.dim:
        # split W along a principal basis of (V', W): the leading right
        # principal vectors span P_W(V'), the rest its complement inside W
        pd = principal_decomposition(v1, w)
        k = len(pd.angles) - _count_right(pd.angles, tol)
        w1 = Subspace(w.ambient_dim, w.field, pd.right_basis[:, :k])
        w2 = Subspace(w.ambient_dim, w.field, pd.right_basis[:, k:])
    else:
        w1 = Subspace.zero(w.ambient_dim, w.field)
        w2 = w
    lhs = math.cos(asymmetric_angle(v, w))
    rhs = (math.cos(asymmetric_angle(v1, w1))
           * math.cos(asymmetric_angle(v2, w2)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Combined report.
# ---------------------------------------------------------------------------

def _principal_values(v: Subspace, w: Subspace, theta: np.ndarray,
                      tol: Tolerance, r: int | None = None
                      ) -> tuple[float, float, float, float]:
    """Theta(V, W), Theta(W, V), Upsilon and Psi from the principal angles
    ``theta`` through the helpers the standalone functions call, so the
    values equal theirs bit for bit, from one ``np.cos`` and one ``np.sin``
    of the angles: one Fubini-Study cosine product serves Theta both ways,
    and Upsilon and Psi read the same arrays.  ``r``, when the caller has
    counted it, is ``_count_zero(theta, tol)``."""
    p, q = v.dim, w.dim
    cos, sin = np.cos(theta), np.sin(theta)
    up = _fubini_study_of(cos, sin)
    if r is None:
        r = _count_zero(theta, tol)
    return (extension_from_angles(_FUBINI_STUDY, theta, p, q, up),
            extension_from_angles(_FUBINI_STUDY, theta, q, p, up),
            _sine_product_angle(sin, cos),
            _psi_principal(p, q, v.ambient_dim, r, sin, cos))


@dataclass(frozen=True)
class AngleReport:
    """Every angle of a pair in one place (radians).

    Psi reads dim(V & W) as the number of principal angles at most
    ``angle_tol``.  ``psi_ill_conditioned`` flags a fragile V + W = X
    decision: some principal angle lies in (angle_tol, 1e-6), just above
    that cutoff, where the supplementation case analysis is discontinuous.
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
    the report equals those functions bit for bit.  An oracle route takes
    one ``ORACLES`` readout.
    """
    theta = principal_angles(v, w)  # the kernel checks the pair
    r = _count_zero(theta, tol)
    # the angles ascend: past the r that read as 0, all lie above the cutoff
    fragile = bool((theta[r:] < _CONDITION_BAND).any())
    if route is AngleRoute.PRINCIPAL:
        values = _principal_values(v, w, theta, tol, r)
    else:
        values = ORACLES[route][0](v, w)
    return AngleReport(
        *values,
        principal_angles=tuple(theta.tolist()),
        dims=(v.dim, w.dim, v.ambient_dim),
        psi_ill_conditioned=fragile,
    )
