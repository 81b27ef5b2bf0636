"""Subspaces of F^n and their principal angles.

A :class:`Subspace` holds an orthonormal column basis plus the ambient
dimension; the zero subspace has a basis with zero columns.

Every angle the package reports is a function of the principal angles
alone, and :func:`principal_angles` computes them without principal
vectors, from two singular-value-only SVDs (Knyazev & Argentati, SIAM J.
Sci. Comput. 23(6), 2002): the cosines are the singular values of
``E^H F`` and, where some angle is below pi/4, the sines are those of the
residual ``F - E E^H F``.  The sine route resolves angles far below the
~1e-8 floor of ``arccos``, so counting angles below ``angle_tol`` really
does recover ``dim(V & W)``.  :func:`principal_decomposition` also forms
the principal bases, for the few callers that need vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionError
from .numerics import (DEFAULT_TOL, Field, Tolerance, as_matrix, clamp_cosine,
                       gram, numerical_rank, orthonormalize, singular_values)

# Orthonormality slack accepted on construction; inputs further from
# orthonormal than this are re-orthonormalized.
_ORTHO_TOL = 1e-10

# Cosines above this (angles below pi/4) switch to the sine route.
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F^n held as an orthonormal column basis.

    ``was_reduced`` flags construction from a rank-deficient spanning set.
    """

    ambient_dim: int
    field: Field
    basis: np.ndarray
    was_reduced: bool = dc_field(default=False, compare=False)

    def __post_init__(self) -> None:
        b = self.basis
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionError(f"basis shape {b.shape} does not match ambient "
                                 f"dimension {self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise DimensionError("more basis columns than ambient dimensions")
        if b.shape[1]:
            dev = np.max(np.abs(gram(b) - np.eye(b.shape[1])))
            if dev > _ORTHO_TOL:
                raise DimensionError(f"basis is not orthonormal (deviation {dev:.2e})")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int, field: Field) -> "Subspace":
        return cls(ambient_dim, field, np.zeros((ambient_dim, 0), dtype=field.dtype))

    @classmethod
    def full(cls, ambient_dim: int, field: Field) -> "Subspace":
        return cls(ambient_dim, field, np.eye(ambient_dim, dtype=field.dtype))

    @classmethod
    def from_columns(cls, columns, field: Field,
                     tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Build a subspace from spanning columns, orthonormalizing at the
        boundary.  Rank-deficient input is accepted and reduces the
        dimension, with ``was_reduced`` set on the result."""
        cols = as_matrix(columns, field)
        n, k = cols.shape
        if k == 0:
            return cls.zero(n, field)
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan: not orthonormal
            dev = np.max(np.abs(gram(cols) - np.eye(k)))
        if dev <= _ORTHO_TOL:
            return cls(n, field, cols)
        basis = orthonormalize(cols, tol.rank_tol)
        return cls(n, field, basis.astype(field.dtype, copy=False),
                   was_reduced=basis.shape[1] < k)

    # -- basic structure ----------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when every basis vector of ``other`` lies in this subspace
        (projector residual below angle_tol)."""
        _check_pair(self, other)
        if other.dim == 0:
            return True
        resid = other.basis - self.basis @ (self.basis.conj().T @ other.basis)
        return float(np.linalg.norm(resid)) < tol.angle_tol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, "
                f"field={self.field.value})")


def _check_pair(v: Subspace, w: Subspace) -> None:
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError(f"ambient mismatch: {v.ambient_dim} vs {w.ambient_dim}")
    if v.field != w.field:
        raise DimensionError("field mismatch")


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Principal angles and associated principal bases for a pair (V, W).

    ``angles`` is nondecreasing, of length min(dim V, dim W); the bases are
    full orthonormal bases of V and W with ``<e_i, f_j> = 0`` for i != j and
    ``<e_i, f_i> = cos(angles[i])`` real and nonnegative.
    """

    angles: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def intersection_dim(self, tol: Tolerance = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(self.angles < tol.angle_tol))


def principal_decomposition(v: Subspace, w: Subspace,
                            tol: Tolerance = DEFAULT_TOL) -> PrincipalDecomposition:
    """Principal decomposition via SVD of the cross-Gram matrix.

    Both subspaces must be nonzero; callers apply the {0} conventions
    before calling.  Angles below pi/4 are recomputed from projection
    residual norms (sines), which are accurate where arccos of a singular
    value is not.
    """
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        raise DimensionError("principal decomposition requires nonzero subspaces")
    e, f = v.basis, w.basis
    m = min(v.dim, w.dim)
    u, s, vh = np.linalg.svd(e.conj().T @ f, full_matrices=True)
    left = e @ u
    right = f @ vh.conj().T
    sigma = clamp_cosine(s[:m])
    theta = np.arccos(sigma)
    small = sigma > _SQRT_HALF  # angles below pi/4: switch to sine route
    if np.any(small):
        cols = right[:, :m][:, small]
        resid = cols - e @ (e.conj().T @ cols)
        theta[small] = np.arcsin(clamp_cosine(np.linalg.norm(resid, axis=0)))
    order = np.argsort(theta, kind="stable")
    if not np.array_equal(order, np.arange(m)):
        theta = theta[order]
        left = np.concatenate([left[:, order], left[:, m:]], axis=1)
        right = np.concatenate([right[:, order], right[:, m:]], axis=1)
    return PrincipalDecomposition(theta, left, right)


def _larger_first(v: Subspace, w: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The two bases, the larger subspace's first.  Equal dimensions are
    ordered by the bytes of the bases, so (V, W) and (W, V) feed the same
    matrices to the SVDs and get bit-identical angles."""
    e, f = v.basis, w.basis
    if v.dim < w.dim or (v.dim == w.dim and e.tobytes() > f.tobytes()):
        return f, e
    return e, f


def principal_angles(v: Subspace, w: Subspace,
                     tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The min(dim V, dim W) principal angles, ascending; empty when either
    subspace is {0}.  Symmetric in its arguments, bit for bit.

    Value-only: with E the basis of the larger subspace and F the other,
    the cosines are the singular values of ``C = E^H F``.  Only if some
    cosine exceeds sqrt(1/2) is a second SVD taken, of ``F - E C``, whose
    singular values (ascending) are the sines; those angles below pi/4 are
    ``arcsin`` of their sine, the rest ``arccos`` of their cosine.  Both
    value sets pass through :func:`clamp_cosine`.
    """
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        return np.zeros(0)
    e, f = _larger_first(v, w)
    c = e.conj().T @ f
    cosines = clamp_cosine(singular_values(c))
    theta = np.arccos(cosines)
    small = cosines > _SQRT_HALF
    if np.any(small):
        sines = clamp_cosine(singular_values(f - e @ c))[::-1]
        theta[small] = np.arcsin(sines[small])
    return np.sort(theta)


def is_partially_orthogonal(v: Subspace, w: Subspace,
                            tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when W^perp meets V nontrivially: dim W < dim V or some
    principal angle is (within tolerance) pi/2.

    Conventions: V = {0} is never partially orthogonal; any nonzero V is
    partially orthogonal to {0}.
    """
    _check_pair(v, w)
    if v.dim == 0:
        return False
    if w.dim == 0 or w.dim < v.dim:
        return True
    theta = principal_angles(v, w, tol)
    return bool(theta[-1] > np.pi / 2 - tol.angle_tol)


def projective_split(v: Subspace, w: Subspace,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """Split W = W_P + W_perp along a principal basis with respect to V.

    W_P is spanned by the first min(p, q) principal vectors of W, W_perp by
    the rest; for min(p, q) = 0 the split is ({0}, W).  V and W_P have the
    same principal angles as V and W.
    """
    _check_pair(v, w)
    m = min(v.dim, w.dim)
    if m == 0:
        return Subspace.zero(w.ambient_dim, w.field), w
    pd = principal_decomposition(v, w, tol)
    w_p = Subspace(w.ambient_dim, w.field, pd.right_basis[:, :m])
    w_perp = Subspace(w.ambient_dim, w.field, pd.right_basis[:, m:])
    return w_p, w_perp


def project_onto(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The orthogonal projection P_W(V) as a subspace.

    Its dimension is the number of principal angles away from pi/2, capped
    at min(dim V, dim W).
    """
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        return Subspace.zero(w.ambient_dim, w.field)
    pd = principal_decomposition(v, w, tol)
    k = int(np.count_nonzero(pd.angles < np.pi / 2 - tol.angle_tol))
    return Subspace(w.ambient_dim, w.field, pd.right_basis[:, :k])


def complete_basis(columns: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of the ambient
    space: ``columns`` followed by the trailing columns of their complete
    QR factorization, which span the orthogonal complement
    (deterministic completion)."""
    cols = np.asarray(columns)
    q, _ = np.linalg.qr(cols, mode="complete")
    return np.concatenate([cols, q[:, cols.shape[1]:]], axis=1)


def orthogonal_complement(v: Subspace) -> Subspace:
    """Orthogonal complement, dim = ambient - dim(v)."""
    if v.dim == 0:
        return Subspace.full(v.ambient_dim, v.field)
    full = complete_basis(v.basis)
    return Subspace(v.ambient_dim, v.field, full[:, v.dim:])


def direct_sum(v: Subspace, w: Subspace) -> Subspace:
    """Direct sum of two orthogonal subspaces (bases are concatenated)."""
    _check_pair(v, w)
    return Subspace(v.ambient_dim, v.field,
                    np.concatenate([v.basis, w.basis], axis=1))


def sum_subspace(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The (not necessarily direct) sum V + W."""
    _check_pair(v, w)
    stacked = np.concatenate([v.basis, w.basis], axis=1)
    return Subspace.from_columns(stacked, v.field, tol)


def intersection_dim(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOL) -> int:
    """dim(V & W) by the rank of the stacked bases: p + q - rank[V | W]."""
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        return 0
    stacked = np.concatenate([v.basis, w.basis], axis=1)
    return v.dim + w.dim - numerical_rank(stacked, tol.rank_tol)


def _real_vector(z: np.ndarray) -> np.ndarray:
    """Interleave a complex vector into R^{2n}: coordinate k maps to real
    coordinates (2k-1, 2k) = (Re, Im)."""
    out = np.empty(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def underlying_real(v: Subspace) -> Subspace:
    """The underlying real subspace of a complex one: dim doubles, each
    basis column b contributes the pair (b, i*b)."""
    if v.field is not Field.COMPLEX:
        raise DimensionError("underlying_real requires a complex subspace")
    cols = []
    for j in range(v.dim):
        b = v.basis[:, j]
        cols.append(_real_vector(b))
        cols.append(_real_vector(1j * b))
    basis = (np.column_stack(cols) if cols
             else np.zeros((2 * v.ambient_dim, 0)))
    return Subspace(2 * v.ambient_dim, Field.REAL, basis)


def random_subspace(ambient_dim: int, dim: int, field: Field, seed: int,
                    tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Invariant-distribution random subspace: orthonormalized standard
    Gaussian matrix, deterministic per seed."""
    if not 0 <= dim <= ambient_dim:
        raise DimensionError(f"dimension {dim} outside 0..{ambient_dim}")
    if dim == 0:
        return Subspace.zero(ambient_dim, field)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((ambient_dim, dim))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((ambient_dim, dim))
    return Subspace(ambient_dim, field, orthonormalize(g, tol.rank_tol))


def random_unitary(ambient_dim: int, field: Field, seed: int) -> np.ndarray:
    """Haar-ish random unitary (orthogonal, over the reals) matrix."""
    return random_subspace(ambient_dim, ambient_dim, field, seed).basis
