"""Field-generic dense linear algebra layer.

Gram matrices, orthonormalization, rank decisions and singular value
decomposition, for real and complex data alike.  The inner product is
conjugate linear in the FIRST argument throughout the package:
``<v, w> = sum(conj(v_i) * w_i)``, so ``gram(a) = a^H a``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalDegeneracyError


class Field(enum.Enum):
    """Scalar field selector: drives dtype coercion and conjugation semantics."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64) if self is Field.REAL else np.dtype(np.complex128)


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared across the package.

    Attributes
    ----------
    rank_tol : float
        Relative singular-value cutoff for rank decisions.
    angle_tol : float
        Absolute cutoff in radians for angle decisions.  The rule is
        inclusive at both ends: an angle theta reads as 0 when
        theta <= angle_tol and as pi/2 when theta >= pi/2 - angle_tol, so
        at 0 exactly the angles 0.0 and pi/2 do.  Containment reads the
        same rule: W contains V when dim V <= dim W and every principal
        angle of the pair reads as 0.
    """

    rank_tol: float = 1e-10
    angle_tol: float = 1e-9

    def __post_init__(self) -> None:
        # NaN fails every comparison, so ask for a finite value >= 0 outright
        if not all(0 <= t < np.inf for t in (self.rank_tol, self.angle_tol)):
            raise ValueError("tolerances must be finite and nonnegative")


DEFAULT_TOL = Tolerance()

# Roundoff slack accepted when clamping a cosine/sine into [0, 1]; a larger
# excess indicates a genuine numerical failure upstream.
CLAMP_SLACK = 1e-8

# Ratios this close to 1 (a dozen ulp) are roundoff residue of an exactly-unit
# value; arccos/arcsin amplify them into ~1e-8 of angle, so clamp_cosine snaps
# them on the Gram route.  The kernel only raises through it: the values it
# keeps never come within the snap of 1.  No derivation reads it, nor the
# exterior route, which takes atan2 of two sums.
_UNIT_SNAP = 3e-15


def as_matrix(data, field: Field) -> np.ndarray:
    """Coerce ``data`` to a finite 2-D array with the field's dtype.

    A 1-D input is treated as a single column.  Entries that numpy does not
    read as numbers (strings, None, integers beyond 64 bits) and complex
    data under ``Field.REAL`` are rejected.
    """
    a = np.asarray(data)
    if a.dtype.kind not in "biufc":
        raise DimensionError(f"matrix entries must be numbers, got dtype {a.dtype}")
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite")
    if field is Field.REAL and np.iscomplexobj(a):
        if a.size and np.max(np.abs(a.imag)) > 0:
            raise DimensionError("complex entries are not allowed in a real-field matrix")
        a = a.real
    return a.astype(field.dtype, copy=False)


def gram(columns) -> np.ndarray:
    """Gram matrix ``G[i, j] = <column_i, column_j>``.

    Hermitian positive semidefinite by construction.
    """
    a = np.asarray(columns)
    return a.conj().T @ a


def svd(m):
    """Thin singular value decomposition ``m = U @ diag(s) @ V.conj().T``.

    Returns ``(U, s, V)`` with orthonormal columns in U and V and ``s``
    sorted nonincreasing.  Deterministic for a fixed input.
    """
    try:
        u, s, vh = np.linalg.svd(np.asarray(m), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"SVD did not converge: {exc}") from exc
    return u, s, vh.conj().T


def singular_values(m) -> np.ndarray:
    try:
        return np.linalg.svd(np.asarray(m), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"SVD did not converge: {exc}") from exc


def _rank(s: np.ndarray, rank_tol: float) -> int:
    """Count of the nonincreasing singular values ``s`` at or above
    ``rank_tol * s[0]``; 0 when ``s[0] == 0``.  The cutoff is relative, so
    the rank does not change when the matrix is scaled."""
    if s[0] == 0:
        return 0
    return int(np.count_nonzero(s >= rank_tol * s[0]))


# The Gram route of ``orthonormalize`` runs on sets with n >= 4k and
# n k^2 >= 1e4 and keeps its result when lambda_min >= 0.1 lambda_max
# (kappa^2 <= 10).  Timed on a 2-core x86 VM, numpy 2.4.6, BLAS on one
# thread: at 500 x 60 real the route takes 0.45 ms against 1.28 ms for the
# SVD, at 500 x 20 0.09 against 0.21 ms; below the size gate (SVD under
# about 40 us) it saves at most 10 us, while a set that falls back pays
# about 20 us more.
_GRAM_ASPECT = 4
_GRAM_MIN_WORK = 10_000
_GRAM_MIN_RATIO = 0.1


def _gram_polar(a: np.ndarray, rank_tol: float) -> np.ndarray | None:
    """The polar factor ``A (A^H A)^(-1/2)`` from the eigendecomposition of
    the k x k Gram matrix, or None when A is too ill conditioned for it:
    lambda_min < max(0.1, 4 rank_tol^2) lambda_max, and for a zero A.  A is
    first divided by its largest absolute real or imaginary part, which
    leaves the polar factor unchanged and bounds every Gram entry by 2n, so
    neither the scale nor the Gram matrix can overflow."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    scale = max(np.max(np.abs(x)) for x in parts)
    if scale == 0:
        return None
    # part by part: numpy divides a complex array by way of 1/scale, which
    # overflows for a subnormal scale
    b = parts[0] / scale
    if len(parts) == 2:
        b = b + 1j * (parts[1] / scale)
    try:
        lam, v = np.linalg.eigh(gram(b))
    except np.linalg.LinAlgError:
        return None
    if not lam[0] >= max(_GRAM_MIN_RATIO, 4 * rank_tol * rank_tol) * lam[-1]:
        return None
    return b @ ((v / np.sqrt(lam)) @ v.conj().T)


def orthonormalize(columns, rank_tol: float = DEFAULT_TOL.rank_tol) -> np.ndarray:
    """Orthonormal basis of the column span of ``columns``.

    The number of returned columns is the numerical rank: the count of
    singular values at or above ``rank_tol`` times the largest.  At full
    column rank the result is the polar factor ``U @ V^H``, the orthonormal
    basis closest to the input; otherwise it is the leading left singular
    vectors.  Rank-deficient input is legal: the span is preserved and the
    basis shrinks.

    Two routes give that result.  A tall, large set (n >= 4k and
    n k^2 >= 1e4) first tries :func:`_gram_polar`, the polar factor from
    ``eigh`` of its k x k Gram matrix (Higham, SIAM J. Sci. Stat. Comput.
    7(4), 1986), kept when lambda_min >= max(0.1, 4 rank_tol^2) lambda_max.
    That test implies sigma_min/sigma_max >= 2 rank_tol up to roundoff, so
    the SVD rule would keep all k columns too, and kappa^2 <= 10, so the
    result is the polar factor to roundoff.  Every other set (small, wide,
    zero, rank-deficient or ill conditioned) takes one thin SVD.  So the
    number of columns does not depend on the route, except for entries
    near overflow, where the unscaled SVD overflows.
    """
    a = np.asarray(columns)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    n, k = a.shape
    if k == 0 or n == 0:
        return a[:, :0].copy()
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite")
    if n >= _GRAM_ASPECT * k and n * k * k >= _GRAM_MIN_WORK:
        q = _gram_polar(a, rank_tol)
        if q is not None:
            return q
    u, s, v = svd(a)
    r = _rank(s, rank_tol)
    if r == k:
        return u @ v.conj().T
    return u[:, :r]


def clamp_cosine(x) -> float:
    """Clamp a computed cosine or sine into [0, 1], as a Python float.

    A value exceeding 1 by more than ``CLAMP_SLACK`` raises, since that
    indicates a broken invariant rather than roundoff.  Values within a few
    ulp of 1 snap to exactly 1 and negative values floor at 0, so exact
    zero and right angles stay exact through arccos/arcsin.
    """
    x = float(np.real(x))
    if x > 1.0 + CLAMP_SLACK:
        raise NumericalDegeneracyError(f"cosine/sine exceeds 1 beyond roundoff: {x!r}")
    if x > 1.0 - _UNIT_SNAP:
        return 1.0
    return max(x, 0.0)


def product_and_complement(factors, complements) -> tuple[float, float]:
    """``(prod f_i, sqrt(1 - prod f_i^2))`` for f_i^2 + g_i^2 = 1.  The root
    sums ``x <- x + g_i^2 (1 - x)``, all terms nonnegative, so it does not
    cancel where the product is near 1."""
    prod, x = 1.0, 0.0
    for f, g in zip(factors.tolist(), complements.tolist()):
        prod *= f
        x += g * g * (1.0 - x)
    return prod, math.sqrt(x)

