"""Sparse exterior (Grassmann) algebra over F^n for small n.

Multivectors are sparse maps from multi-indices to coefficients.  A
multi-index is a strictly increasing tuple of integers in ``1..n``; the
empty tuple is the grade-0 index.  The canonical basis blades ``e_i`` are
orthonormal, so the multivector inner product is the sesquilinear
extension of ``<e_i, e_j> = delta_ij`` (conjugation on the first factor).

This module is the second, independent computational route for every
angle in the package: norms of the left contraction, the wedge and the
regressive product give cosines and sines directly.  Term counts grow as
2^n, so the ambient dimension is capped; this is a correctness oracle and
a small-n engine, not a large-scale path.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DimensionError
from .numerics import Field, as_matrix

AMBIENT_CAP = 20

# Coefficients below this magnitude are pruned after every operation so the
# sparse maps stay canonical (exact-zero structure drives blade tests).
PRUNE_TOL = 1e-14

MultiIndex = tuple[int, ...]


def _check_index(idx: MultiIndex, ambient_dim: int) -> None:
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise DimensionError(f"multi-index must be strictly increasing: {idx}")
    if idx and (idx[0] < 1 or idx[-1] > ambient_dim):
        raise DimensionError(f"multi-index {idx} out of range 1..{ambient_dim}")


def perm_sign(i: MultiIndex, j: MultiIndex) -> int:
    """Sign of the permutation sorting the concatenation of ``i`` and ``j``.

    Returns 0 when the indices share an entry.
    """
    if set(i) & set(j):
        return 0
    inversions = sum(1 for x in i for y in j if x > y)
    return -1 if inversions % 2 else 1


class Multivector:
    """Sparse multivector: ``terms`` maps multi-indices to coefficients."""

    __slots__ = ("ambient_dim", "field", "terms")

    def __init__(self, ambient_dim: int, field: Field, terms: dict | None = None):
        if not 0 <= ambient_dim <= AMBIENT_CAP:
            raise DimensionError(
                f"ambient dimension {ambient_dim} outside 0..{AMBIENT_CAP}"
            )
        clean: dict[MultiIndex, complex] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(int(k) for k in idx)
            _check_index(idx, ambient_dim)
            c = complex(coeff)
            if field is Field.REAL:
                if c.imag != 0:
                    raise DimensionError("complex coefficient in a real multivector")
                c = c.real
            if abs(c) >= PRUNE_TOL:
                clean[idx] = clean.get(idx, 0) + c
        self.ambient_dim = ambient_dim
        self.field = field
        self.terms = {k: v for k, v in clean.items() if abs(v) >= PRUNE_TOL}

    # -- constructors -------------------------------------------------

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

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.terms.values())))

    # -- linear structure ---------------------------------------------

    def _compatible(self, other: "Multivector") -> None:
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionError("multivectors live in different ambient algebras")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Multivector(self.ambient_dim, self.field, out)

    def __neg__(self) -> "Multivector":
        return Multivector(self.ambient_dim, self.field,
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __rmul__(self, scalar) -> "Multivector":
        return Multivector(self.ambient_dim, self.field,
                           {k: scalar * c for k, c in self.terms.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "Multivector(0)"
        parts = [f"{c:+.6g}*e{''.join(map(str, k)) or '_'}"
                 for k, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))]
        return "Multivector(" + " ".join(parts) + ")"


def _conj(c, field: Field):
    return c if field is Field.REAL else np.conj(c)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product, the bilinear extension of
    ``e_i ^ e_j = perm_sign(i, j) * e_{i U j}``."""
    a._compatible(b)
    out: dict[MultiIndex, complex] = {}
    for ki, ci in a.terms.items():
        for kj, cj in b.terms.items():
            s = perm_sign(ki, kj)
            if s == 0:
                continue
            key = tuple(sorted(ki + kj))
            out[key] = out.get(key, 0) + s * ci * cj
    return Multivector(a.ambient_dim, a.field, out)


def mv_inner(a: Multivector, b: Multivector):
    """Multivector inner product; conjugate linear in the first argument.

    Distinct grades are orthogonal, and the coordinate blades are an
    orthonormal basis, so this is a plain sparse dot product.
    """
    a._compatible(b)
    total = 0j
    for k, ca in a.terms.items():
        cb = b.terms.get(k)
        if cb is not None:
            total += np.conj(ca) * cb
    return float(total.real) if a.field is Field.REAL else complex(total)


def contraction(a: Multivector, b: Multivector) -> Multivector:
    """Left contraction ``a _| b``, the adjoint of wedging by ``a``:
    ``mv_inner(c, contraction(a, b)) == mv_inner(wedge(a, c), b)``.

    Conjugate linear in ``a``.  On coordinate blades,
    ``e_i _| e_j = perm_sign(i, j - i) * e_{j - i}`` when i is contained in
    j, else 0; in particular the result vanishes whenever grade(a) exceeds
    grade(b).
    """
    a._compatible(b)
    out: dict[MultiIndex, complex] = {}
    for ki, ca in a.terms.items():
        si = set(ki)
        cca = _conj(ca, a.field)
        for kj, cb in b.terms.items():
            if len(ki) > len(kj) or not si <= set(kj):
                continue
            rest = tuple(x for x in kj if x not in si)
            s = perm_sign(ki, rest)
            out[rest] = out.get(rest, 0) + s * cca * cb
    return Multivector(a.ambient_dim, a.field, out)


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
    whole index range 1..n, else 0.
    """
    a._compatible(b)
    n = a.ambient_dim
    full = set(range(1, n + 1))
    out: dict[MultiIndex, complex] = {}
    for ki, ci in a.terms.items():
        si = set(ki)
        icomp = tuple(x for x in range(1, n + 1) if x not in si)
        for kj, cj in b.terms.items():
            sj = set(kj)
            if si | sj != full:
                continue
            jcomp = tuple(x for x in range(1, n + 1) if x not in sj)
            key = tuple(x for x in ki if x in sj)
            s = perm_sign(jcomp, icomp)
            out[key] = out.get(key, 0) + s * ci * cj
    return Multivector(a.ambient_dim, a.field, out)


def blade_from_basis(columns, field: Field) -> Multivector:
    """Wedge of the columns in order; the zero multivector exactly when the
    columns are linearly dependent."""
    cols = as_matrix(columns, field)
    n = cols.shape[0]
    result = Multivector.scalar(n, field)
    for j in range(cols.shape[1]):
        result = wedge(result, Multivector.from_vector(cols[:, j], field))
    return result
