"""The exterior route: blades as Plücker coordinates, read in a basis
adapted to the target subspace.

A p-blade is its Plücker coordinates, the p x p minors of an n x p basis,
one per p-subset of the rows in combinations order.  With F = [W | W^perp]
orthonormal, the squared coordinates P_S of V in F sum to 1, and the
paper's products of unit blades become sums of them: cos^2 Theta(V, W)
(the left contraction) sums the S inside the first q rows, sin^2 Upsilon
(the wedge) the S inside the last n - q rows, and sin^2 Psi (the
regressive product) the S that contain all of the last n - q rows.  Each
complement sums the other P_S, so every angle is an atan2 of two sums of
nonnegative terms: no arccos near 1, no cancellation.  There is one
determinant per subset, so the ambient dimension is capped.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DimensionError
from .numerics import Field, as_matrix
from .subspace import Subspace, _check_pair, _larger_first, complete_basis

# The largest readout, at n = 14, takes C(14, 7) = 3,432 determinants of
# 7 x 7; at n = 20 it would take C(20, 10) = 184,756 of 10 x 10.
AMBIENT_CAP = 14


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of 0..n-1 in combinations order, one per row."""
    return np.array(list(itertools.combinations(range(n), k)),
                    dtype=np.intp).reshape(math.comb(n, k), k)


def blade_from_basis(columns, field: Field) -> np.ndarray:
    """Wedge of the columns in order, as its Plücker coordinates: the p x p
    minors of the n x p basis, one batched determinant over the row subsets
    of :func:`_subsets`.  Zero, up to roundoff, when the columns are
    linearly dependent."""
    cols = as_matrix(columns, field)
    n, p = cols.shape
    if n > AMBIENT_CAP:
        raise DimensionError(f"ambient dimension {n} outside 0..{AMBIENT_CAP}")
    return np.linalg.det(cols[_subsets(n, p)])


def plucker_sums(v: Subspace, f: np.ndarray, q: int) -> tuple[tuple[float, float], ...]:
    """(sin^2, cos^2) of Theta(V, W), Upsilon(V, W) and Psi(V, W), each as
    two complementary sums of the squared Plücker coordinates of V in the
    orthonormal ambient basis ``f`` whose first ``q`` columns span W, such
    as ``complete_basis(w.basis)``."""
    n, p = v.ambient_dim, v.dim
    x = f.conj().T @ v.basis
    squares = np.abs(blade_from_basis(x, v.field)) ** 2
    outside_w = np.count_nonzero(_subsets(n, p) >= q, axis=1)
    sine_sides = (outside_w > 0, outside_w == p, outside_w == n - q)
    return tuple((float(squares[s].sum()), float(squares[~s].sum()))
                 for s in sine_sides)


def plucker_angles(v: Subspace, w: Subspace) -> tuple[float, float, float, float]:
    """Theta(V, W), Theta(W, V), Upsilon and Psi on the exterior route, each
    ``atan2(sqrt(sin^2), sqrt(cos^2))`` of the one :func:`plucker_sums` of
    the smaller subspace in a basis adapted to the larger (the kernel's
    order), so both argument orders agree bit for bit.  Theta from the
    larger side is pi/2, or the same float at equal dimensions."""
    _check_pair(v, w)
    small, big = (w, v) if _larger_first(v, w)[0] is v.basis else (v, w)
    up, upsilon, psi = _angles_from_sums(
        plucker_sums(small, complete_basis(big.basis), big.dim))
    down = up if small.dim == big.dim else math.pi / 2
    return (*((down, up) if big is v else (up, down)), upsilon, psi)


def _angles_from_sums(sums) -> tuple[float, float, float]:
    """The three angles of a :func:`plucker_sums` readout."""
    return tuple(math.atan2(math.sqrt(s), math.sqrt(c)) for s, c in sums)
