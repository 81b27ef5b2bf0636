"""Subspaces of F^n and their principal angles.

A :class:`Subspace` holds an orthonormal column basis plus the ambient
dimension; the zero subspace has a basis with zero columns.

Every angle the package reports is a function of the principal angles
alone, and :func:`principal_angles` computes them without principal
vectors, from two singular-value-only SVDs (Knyazev & Argentati, SIAM J.
Sci. Comput. 23(6), 2002): the cosines are the singular values of
``E^H F`` and, where some angle is below pi/4, the sines are those of the
residual ``F - E E^H F``.  The sine route resolves angles far below the
~1e-8 floor of ``arccos``, so counting angles at most ``angle_tol`` really
does recover ``dim(V & W)``.  It is the only code that computes principal
angles: :func:`principal_decomposition` takes its angles from it and adds
the principal bases, for the few callers that need vectors.  Every
decision on the angles reads them through :func:`_count_zero` or
:func:`_count_right`, by the inclusive rule of ``Tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionError
from .numerics import (DEFAULT_TOL, Field, Tolerance, as_matrix, clamp_cosine,
                       gram, orthonormalize, singular_values)

# Orthonormality slack accepted on construction; inputs further from
# orthonormal than this are re-orthonormalized.
_ORTHO_TOL = 1e-10

# Cosines above this (angles below pi/4) switch to the sine route.
_SQRT_HALF = math.sqrt(0.5)


def _ortho_deviation(b: np.ndarray) -> float:
    """max |B^H B - I|; NaN when B has a non-finite entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(gram(b) - np.eye(b.shape[1])))


def _is_orthonormal(b: np.ndarray) -> bool:
    """``_ortho_deviation(b) <= _ORTHO_TOL``, with a cheap O(nk) pre-check
    first: the squared column norms are the Gram diagonal summed another
    way, so a norm off 1 by more than twice the slack (the factor covers
    the roundoff between the two sums) already fails the full check."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->j", b.conj(), b).real
    if not np.all(np.abs(sq - 1.0) <= 2 * _ORTHO_TOL):
        return False
    return _ortho_deviation(b) <= _ORTHO_TOL


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F^n held as an orthonormal column basis.

    ``was_reduced`` flags construction from a rank-deficient spanning set.
    The bare constructor checks its basis: within ``_ORTHO_TOL`` of
    orthonormal, finite, and real under ``Field.REAL``.  Spanning sets go
    through :meth:`from_columns`, which makes one orthonormality decision
    per set and does not check again the basis it builds.
    """

    ambient_dim: int
    field: Field
    basis: np.ndarray
    was_reduced: bool = dc_field(default=False, compare=False)

    def __post_init__(self) -> None:
        b = self.basis
        if not isinstance(b, np.ndarray):
            raise DimensionError(f"basis must be a numpy array, not {type(b).__name__}")
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionError(f"basis shape {b.shape} does not match ambient "
                                 f"dimension {self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise DimensionError("more basis columns than ambient dimensions")
        # as_matrix's rule: a real-field basis holds no imaginary part
        if self.field is Field.REAL and np.iscomplexobj(b) and np.any(b.imag):
            raise DimensionError("complex entries are not allowed in a real-field basis")
        if b.shape[1]:
            dev = _ortho_deviation(b)
            if not dev <= _ORTHO_TOL:  # a NaN deviation fails too
                raise DimensionError(f"basis is not orthonormal (deviation {dev:.2e})")

    # -- constructors -------------------------------------------------

    @classmethod
    def _orthonormal(cls, basis: np.ndarray, field: Field,
                     was_reduced: bool = False) -> "Subspace":
        """A subspace on ``basis`` as it is, without the constructor's
        checks.  Only for a finite basis of the field's dtype that is
        orthonormal to roundoff by construction: one that has just passed
        the check in :meth:`from_columns`, an output of ``orthonormalize``,
        or the identity.  Principal bases, completions, complements, splits
        and ``underlying_real`` are built from a caller's basis, which may
        be up to ``_ORTHO_TOL`` off orthonormal, so they keep the check."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", basis.shape[0])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "was_reduced", was_reduced)
        return self

    @classmethod
    def zero(cls, ambient_dim: int, field: Field) -> "Subspace":
        return cls(ambient_dim, field, np.zeros((ambient_dim, 0), dtype=field.dtype))

    @classmethod
    def full(cls, ambient_dim: int, field: Field) -> "Subspace":
        return cls._orthonormal(np.eye(ambient_dim, dtype=field.dtype), field)

    @classmethod
    def from_columns(cls, columns, field: Field,
                     tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Build a subspace from spanning columns, orthonormalizing at the
        boundary.  Rank-deficient input is accepted and reduces the
        dimension, with ``was_reduced`` set on the result.

        One orthonormality decision per set: columns within ``_ORTHO_TOL``
        of orthonormal are kept verbatim, anything else goes through
        ``orthonormalize``.  Neither basis is checked again."""
        cols = as_matrix(columns, field)
        n, k = cols.shape
        if k == 0:
            return cls.zero(n, field)
        if _is_orthonormal(cols):
            return cls._orthonormal(cols, field)
        basis = orthonormalize(cols, tol.rank_tol)
        return cls._orthonormal(basis.astype(field.dtype, copy=False), field,
                                was_reduced=basis.shape[1] < k)

    # -- basic structure ----------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when ``other`` lies in this subspace: it is no larger and
        every principal angle of the pair reads as 0, the count Psi reads
        as dim(V & W).  {0} lies in every subspace."""
        _check_pair(self, other)
        return (other.dim <= self.dim
                and _count_zero(principal_angles(other, self), tol) == other.dim)

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

    ``angles`` is :func:`principal_angles` of the pair, as Psi reads it; the
    bases are full orthonormal bases of V and W with ``<e_i, f_j> = 0`` for
    i != j and ``<e_i, f_i> = cos(angles[i])`` real and nonnegative.
    """

    angles: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


def principal_decomposition(v: Subspace, w: Subspace) -> PrincipalDecomposition:
    """The angles of :func:`principal_angles` and the principal bases from
    one full SVD of the cross-Gram matrix ``E^H F``, whose singular vectors
    come in descending-cosine, so ascending-angle, order.

    Both subspaces must be nonzero; callers apply the {0} conventions
    before calling.
    """
    theta = principal_angles(v, w)  # the kernel checks the pair
    if v.dim == 0 or w.dim == 0:
        raise DimensionError("principal decomposition requires nonzero subspaces")
    e, f = v.basis, w.basis
    u, _, vh = np.linalg.svd(e.conj().T @ f, full_matrices=True)
    return PrincipalDecomposition(theta, e @ u, f @ vh.conj().T)


def _larger_first(v: Subspace, w: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The two bases, the larger subspace's first.  Equal dimensions are
    ordered by the bytes of the bases, so (V, W) and (W, V) feed the same
    matrices to the SVDs and get bit-identical angles."""
    e, f = v.basis, w.basis
    if v.dim < w.dim or (v.dim == w.dim and e.tobytes() > f.tobytes()):
        return f, e
    return e, f


def principal_angles(v: Subspace, w: Subspace) -> np.ndarray:
    """The min(dim V, dim W) principal angles, ascending; empty when either
    subspace is {0}.  Symmetric in its arguments, bit for bit.

    Value-only: with E the basis of the larger subspace and F the other,
    the cosines are the singular values of ``C = E^H F``.  Only if some
    cosine exceeds sqrt(1/2) is a second SVD taken, of ``F - E C``, whose
    singular values (ascending) are the sines; those angles below pi/4 are
    ``arcsin`` of their sine, the rest ``arccos`` of their cosine.  The
    largest cosine and sine are checked by :func:`clamp_cosine`.  A
    subspace paired with itself (the same object) makes every angle exactly
    0 and takes no SVD.
    """
    if v is w:
        return np.zeros(v.dim)
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        return np.zeros(0)
    e, f = _larger_first(v, w)
    c = e.conj().T @ f
    # Only the largest values are checked; clamping all would change no angle
    # kept.  Singular values are nonnegative, so the floor at 0 never acts; a
    # cosine within the unit snap of 1 is above sqrt(1/2), so the sine branch
    # replaces its angle; and every sine kept is below sqrt(1/2).
    cosines = singular_values(c)
    clamp_cosine(cosines[0])
    theta = np.arccos(np.minimum(cosines, 1.0))
    small = cosines > _SQRT_HALF
    if small[0]:
        sines = singular_values(f - e @ c)[::-1]
        clamp_cosine(sines[-1])
        theta[small] = np.arcsin(sines[small])
    return np.sort(theta)


def _count_zero(theta: np.ndarray, tol: Tolerance) -> int:
    """How many of the angles ``theta`` read as 0: theta <= angle_tol.  Over
    the principal angles of a pair this is r = dim(V & W)."""
    return int(np.count_nonzero(theta <= tol.angle_tol))


def _count_right(theta: np.ndarray, tol: Tolerance) -> int:
    """How many of the angles ``theta`` read as pi/2: >= pi/2 - angle_tol."""
    return int(np.count_nonzero(theta >= np.pi / 2 - tol.angle_tol))


def is_partially_orthogonal(v: Subspace, w: Subspace,
                            tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when W^perp meets V nontrivially: dim W < dim V or some
    principal angle reads as pi/2.

    Conventions: V = {0} is never partially orthogonal; any nonzero V is
    partially orthogonal to {0}.
    """
    _check_pair(v, w)
    if v.dim == 0:
        return False
    if w.dim < v.dim:
        return True
    return _count_right(principal_angles(v, w), tol) > 0


def projective_split(v: Subspace, w: Subspace) -> tuple[Subspace, Subspace]:
    """Split W = W_P + W_perp along a principal basis with respect to V.

    W_P is spanned by the first min(p, q) principal vectors of W, W_perp by
    the rest; for min(p, q) = 0 the split is ({0}, W).  V and W_P have the
    same principal angles as V and W.
    """
    _check_pair(v, w)
    m = min(v.dim, w.dim)
    if m == 0:
        return Subspace.zero(w.ambient_dim, w.field), w
    pd = principal_decomposition(v, w)
    w_p = Subspace(w.ambient_dim, w.field, pd.right_basis[:, :m])
    w_perp = Subspace(w.ambient_dim, w.field, pd.right_basis[:, m:])
    return w_p, w_perp


def project_onto(v: Subspace, w: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The orthogonal projection P_W(V) as a subspace.

    Its dimension is the number of principal angles that do not read as
    pi/2, capped at min(dim V, dim W).
    """
    _check_pair(v, w)
    if v.dim == 0 or w.dim == 0:
        return Subspace.zero(w.ambient_dim, w.field)
    pd = principal_decomposition(v, w)
    k = len(pd.angles) - _count_right(pd.angles, tol)
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
    """Orthogonal complement, dim = ambient - dim(v): the trailing columns
    of :func:`complete_basis` (the identity for {0})."""
    full = complete_basis(v.basis)
    return Subspace(v.ambient_dim, v.field, full[:, v.dim:])


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


def random_subspace(ambient_dim: int, dim: int, field: Field, seed: int) -> Subspace:
    """Invariant-distribution random ``dim``-subspace: orthonormalized
    standard Gaussian matrix, deterministic per seed."""
    if not 0 <= dim <= ambient_dim:
        raise DimensionError(f"dimension {dim} outside 0..{ambient_dim}")
    if dim == 0:
        return Subspace.zero(ambient_dim, field)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((ambient_dim, dim))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((ambient_dim, dim))
    return Subspace._orthonormal(orthonormalize(g), field)


def random_unitary(ambient_dim: int, field: Field, seed: int) -> np.ndarray:
    """Haar-ish random unitary (orthogonal, over the reals) matrix."""
    return random_subspace(ambient_dim, ambient_dim, field, seed).basis
