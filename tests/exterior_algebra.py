"""Dense exterior (Grassmann) algebra over F^n for small n: the paper's
product-of-blades oracle, held in the tests.

A multi-index is a strictly increasing tuple in ``1..n``, () for grade 0.
A multivector is one coefficient array of length 2^n indexed by bitmask
(index i sets bit i - 1); a blade's coefficients are its Plücker
coordinates.  The basis blades ``e_i`` are orthonormal and the inner
product is conjugate linear in its first factor.

Norms of the left contraction, wedge and regressive product of two blades
give the cosines and sines that ``grassdist.exterior.plucker_sums`` reads
off as sums of squared Plücker coordinates.  Products gather and
scatter-add over index and sign tables built on first use per
(n, grade, grade); tables grow as multinomials in n, so the ambient
dimension is capped.
"""

from __future__ import annotations

import functools
import types
from typing import Iterable

import numpy as np

from grassdist.errors import DimensionError
from grassdist.exterior import AMBIENT_CAP, _subsets
from grassdist.exterior import blade_from_basis as plucker_coordinates
from grassdist.numerics import Field, as_matrix

# Coefficients below this magnitude are zeroed after every operation so the
# arrays stay canonical (exact-zero structure drives blade tests).
PRUNE_TOL = 1e-14


def perm_sign(i: tuple[int, ...], j: tuple[int, ...]) -> int:
    """Sign of the permutation sorting the concatenation of ``i`` and ``j``.

    Returns 0 when the indices share an entry.
    """
    if set(i) & set(j):
        return 0
    inversions = sum(1 for x in i for y in j if x > y)
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=64)
def _wedge_table(n: int, a: int, b: int):
    """Every disjoint pair (i, j) of an a-subset and a b-subset, as flat
    arrays (shared by every caller: read only): the masks of i, j and
    i U j, and ``perm_sign(i, j)``.  Each
    (a + b)-subset splits through an a-subset of its slots; slot complements
    reverse combinations order, and a split's inversions are its slot sum
    less a(a - 1)/2."""
    unions, slots = _subsets(n, a + b), _subsets(a + b, a)
    left = (1 << unions[:, slots]).sum(axis=2).ravel()
    right = (1 << unions[:, _subsets(a + b, b)[::-1]]).sum(axis=2).ravel()
    sign = 1.0 - 2.0 * ((slots.sum(axis=1) - a * (a - 1) // 2) % 2)
    return left, right, left | right, np.tile(sign, len(unions))


class Multivector:
    """Multivector over F^n, built from a map of multi-indices to
    coefficients and stored as one array indexed by bitmask."""

    __slots__ = ("ambient_dim", "field", "_coeffs")

    def __init__(self, ambient_dim: int, field: Field, terms: dict | None = None):
        n = ambient_dim
        if not 0 <= n <= AMBIENT_CAP:
            raise DimensionError(f"ambient dimension {n} outside 0..{AMBIENT_CAP}")
        self.ambient_dim, self.field = n, field
        self._coeffs = np.zeros(1 << n, complex if terms else field.dtype)
        for idx, coeff in (terms or {}).items():
            idx = tuple(int(k) for k in idx)
            if list(idx) != sorted(set(idx)) or any(not 1 <= i <= n for i in idx):
                raise DimensionError(f"multi-index {idx} is not increasing in 1..{n}")
            if abs(complex(coeff)) >= PRUNE_TOL:
                self._coeffs[sum(1 << (i - 1) for i in idx)] += complex(coeff)
        self._coeffs = self._like(self._coeffs)._coeffs

    @classmethod
    def zero(cls, ambient_dim: int, field: Field) -> "Multivector":
        return cls(ambient_dim, field, {})

    @classmethod
    def scalar(cls, ambient_dim: int, field: Field, value=1.0) -> "Multivector":
        return cls(ambient_dim, field, {(): value})

    @classmethod
    def basis_blade(cls, ambient_dim: int, field: Field, indices: Iterable[int],
                    coeff=1.0) -> "Multivector":
        return cls(ambient_dim, field, {tuple(indices): coeff})

    @classmethod
    def from_vector(cls, vec, field: Field) -> "Multivector":
        v = as_matrix(vec, field).reshape(-1)
        return cls(len(v), field, {(k + 1,): v[k] for k in range(len(v))})

    @property
    def terms(self) -> types.MappingProxyType:
        """Read-only map from multi-index to coefficient, nonzero terms only."""
        return types.MappingProxyType({
            tuple(i + 1 for i in range(self.ambient_dim) if m >> i & 1):
                self._coeffs[m].item() for m in np.flatnonzero(self._coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs.any()

    def norm(self) -> float:
        return float(np.linalg.norm(self._coeffs))

    def _compatible(self, other: "Multivector") -> None:
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionError("multivectors live in different ambient algebras")

    def _like(self, coeffs: np.ndarray) -> "Multivector":
        """A multivector of this algebra with ``coeffs``, pruned."""
        if coeffs.dtype != self.field.dtype:  # complex values in a real algebra
            if np.any(coeffs.imag):
                raise DimensionError("complex coefficient in a real multivector")
            coeffs = coeffs.real
        out = Multivector.__new__(Multivector)
        out.ambient_dim, out.field = self.ambient_dim, self.field
        out._coeffs = np.where(np.abs(coeffs) >= PRUNE_TOL, coeffs, 0)
        return out

    def _grades(self) -> set[int]:
        return {bin(m).count("1") for m in np.flatnonzero(self._coeffs).tolist()}

    def __add__(self, other: "Multivector") -> "Multivector":
        self._compatible(other)
        return self._like(self._coeffs + other._coeffs)

    def __neg__(self) -> "Multivector":
        return self._like(-self._coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __rmul__(self, scalar) -> "Multivector":
        return self._like(scalar * self._coeffs)


def mv_inner(a: Multivector, b: Multivector):
    """Multivector inner product; conjugate linear in the first argument.

    Distinct grades are orthogonal, and the coordinate blades are an
    orthonormal basis, so this is a plain dot product.
    """
    a._compatible(b)
    total = np.vdot(a._coeffs, b._coeffs)
    return float(total.real) if a.field is Field.REAL else complex(total)


def _bilinear(a: Multivector, b: Multivector, contract: bool) -> Multivector:
    """``wedge(a, b)``, or with ``contract`` the left contraction, which
    reads the (p, q - p) wedge table backwards: e_i _| e_{i U k} =
    perm_sign(i, k) e_k.  Summed over the grade pairs (p, q) of a and b."""
    a._compatible(b)
    n, x, y = a.ambient_dim, a._coeffs, b._coeffs
    out = np.zeros(1 << n, a.field.dtype)
    for p in a._grades():
        for q in b._grades():
            if contract and p <= q:
                left, right, union, sign = _wedge_table(n, p, q - p)
                np.add.at(out, right, sign * x[left].conj() * y[union])
            elif not contract and p + q <= n:
                left, right, union, sign = _wedge_table(n, p, q)
                np.add.at(out, union, sign * x[left] * y[right])
    return a._like(out)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product, the bilinear extension of
    ``e_i ^ e_j = perm_sign(i, j) * e_{i U j}``."""
    return _bilinear(a, b, contract=False)


def contraction(a: Multivector, b: Multivector) -> Multivector:
    """Left contraction ``a _| b``, the adjoint of wedging by ``a``:
    ``mv_inner(c, contraction(a, b)) == mv_inner(wedge(a, c), b)``.

    Conjugate linear in ``a``.  On coordinate blades,
    ``e_i _| e_j = perm_sign(i, j - i) * e_{j - i}`` when i is contained in
    j, else 0; in particular the result vanishes whenever grade(a) exceeds
    grade(b).
    """
    return _bilinear(a, b, contract=True)


def star(a: Multivector) -> Multivector:
    """Hodge star ``a* = a _| e_{1..n}``, the unit top blade of the canonical
    ambient basis; an isometry taking grade p to grade n - p, conjugate
    linear over the complex field."""
    n = a.ambient_dim
    return contraction(a, Multivector.basis_blade(n, a.field, range(1, n + 1)))


def regressive(a: Multivector, b: Multivector) -> Multivector:
    """Regressive product, defined by ``star(a v b) = star(a) ^ star(b)``.

    Bilinear (the two conjugations cancel); on coordinate blades
    ``e_i v e_j = perm_sign(j', i') * e_{i & j}`` when ``i U j`` covers the
    whole index range 1..n, else 0.  With primes for complements, that is
    the wedge ``e_{j'} ^ e_{i'}`` complemented; the complement of mask m is
    2^n - 1 - m, so complementing reverses a coefficient array.
    """
    a._compatible(b)
    out = wedge(b._like(b._coeffs[::-1]), a._like(a._coeffs[::-1]))
    return out._like(out._coeffs[::-1])


def blade_from_basis(columns, field: Field) -> Multivector:
    """Wedge of the columns in order, as a multivector whose coefficients
    are the Plücker coordinates; the zero multivector exactly when the
    columns are linearly dependent."""
    cols = as_matrix(columns, field)
    n, p = cols.shape
    blade = Multivector(n, field)  # raises above the ambient cap
    blade._coeffs[(1 << _subsets(n, p)).sum(axis=1)] = plucker_coordinates(cols, field)
    return blade._like(blade._coeffs)
