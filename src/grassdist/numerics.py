"""Field-generic dense linear algebra layer.

Inner products, Gram matrices, orthonormalization, rank decisions and
singular value decomposition, for real and complex data alike.  The inner
product is conjugate linear in the FIRST argument throughout the package:
``inner(v, w) == sum(conj(v_i) * w_i)``.
"""

from __future__ import annotations

import enum
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
        Absolute cutoff in radians for angle comparisons.
    """

    rank_tol: float = 1e-10
    angle_tol: float = 1e-9

    def __post_init__(self) -> None:
        if min(self.rank_tol, self.angle_tol) < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = Tolerance()

# Roundoff slack accepted when clamping a cosine/sine into [0, 1]; a larger
# excess indicates a genuine numerical failure upstream.
CLAMP_SLACK = 1e-8

# Ratios this close to 1 (a dozen ulp) are roundoff residue of an exactly-unit
# value; arccos/arcsin amplify them into ~1e-8 of angle, so snap them first.
_UNIT_SNAP = 3e-15


def as_matrix(data, field: Field) -> np.ndarray:
    """Coerce ``data`` to a finite 2-D array with the field's dtype.

    A 1-D input is treated as a single column.  Complex data under
    ``Field.REAL`` is rejected.
    """
    a = np.asarray(data)
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


def inner(v, w):
    """Inner product, conjugate linear in the first argument."""
    v = np.asarray(v).reshape(-1)
    w = np.asarray(w).reshape(-1)
    if v.shape != w.shape:
        raise DimensionError(f"length mismatch: {v.shape[0]} vs {w.shape[0]}")
    return np.vdot(v, w)


def gram(columns) -> np.ndarray:
    """Gram matrix ``G[i, j] = inner(column_i, column_j)``.

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


def orthonormalize(columns, rank_tol: float = DEFAULT_TOL.rank_tol) -> np.ndarray:
    """Orthonormal basis of the column span of ``columns``, from one SVD.

    The number of returned columns is the numerical rank (the rule of
    :func:`numerical_rank`).  At full column rank the result is the polar
    factor ``U @ V^H``, the orthonormal basis closest to the input;
    otherwise it is the leading left singular vectors.  Rank-deficient
    input is legal: the span is preserved and the basis shrinks.
    """
    a = np.asarray(columns)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    n, k = a.shape
    if k == 0 or n == 0:
        return a[:, :0].copy()
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite")
    u, s, v = svd(a)
    r = _rank(s, rank_tol)
    if r == k:
        return u @ v.conj().T
    return u[:, :r]


def clamp_cosine(x, slack: float = CLAMP_SLACK):
    """Clamp computed cosines/sines into [0, 1], elementwise.

    A scalar gives a Python float, an array gives a float array of the same
    shape.  A value exceeding 1 by more than ``slack`` raises, since that
    indicates a broken invariant rather than roundoff.  Values within a few
    ulp of 1 snap to exactly 1 and negative values floor at 0, so exact
    zero and right angles stay exact through arccos/arcsin.
    """
    if np.ndim(x) == 0:
        x = float(np.real(x))
        if x > 1.0 + slack:
            raise NumericalDegeneracyError(f"cosine/sine exceeds 1 beyond roundoff: {x!r}")
        if x > 1.0 - _UNIT_SNAP:
            return 1.0
        return max(x, 0.0)
    a = np.real(np.asarray(x)).astype(np.float64)
    if np.any(a > 1.0 + slack):
        raise NumericalDegeneracyError(
            f"cosine/sine exceeds 1 beyond roundoff: {float(np.max(a))!r}")
    return np.where(a > 1.0 - _UNIT_SNAP, 1.0, np.maximum(a, 0.0))


def numerical_rank(m, rank_tol: float = DEFAULT_TOL.rank_tol) -> int:
    """Numerical rank of ``m``: the number of singular values at or above
    ``rank_tol * sigma_max`` (0 for an empty or zero matrix).
    ``orthonormalize`` keeps exactly this many columns."""
    a = np.asarray(m)
    if a.size == 0:
        return 0
    return _rank(singular_values(a), rank_tol)
