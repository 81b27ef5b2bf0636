"""References held in the tests for the kernel
``grassdist.subspace.principal_angles`` and the decisions read from it.

``reference_angles`` is a second principal-angle route.  It takes the full
SVD of ``E^H F`` with vectors, clamps the cosines into [0, 1], and replaces
every angle below pi/4 by ``arcsin`` of the norm of its principal vector's
residual ``f_i - E E^H f_i``.  The kernel instead reads all sines as
singular values of one residual matrix, so the two agree only to roundoff.

``intersection_dim`` reads dim(V & W) from the rank of the stacked bases,
with no principal angle at all.
"""

from __future__ import annotations

import math

import numpy as np

from grassdist.errors import NumericalDegeneracyError
from grassdist.numerics import _UNIT_SNAP, CLAMP_SLACK, DEFAULT_TOL, _rank
from grassdist.subspace import Subspace


def _clamp(a: np.ndarray) -> np.ndarray:
    if np.any(a > 1.0 + CLAMP_SLACK):
        raise NumericalDegeneracyError(f"cosine/sine exceeds 1: {np.max(a)!r}")
    return np.where(a > 1.0 - _UNIT_SNAP, 1.0, np.maximum(a, 0.0))


def reference_angles(v: Subspace, w: Subspace) -> np.ndarray:
    """Principal angles of (V, W), ascending, of length min(dim V, dim W)."""
    if v.dim == 0 or w.dim == 0:
        return np.zeros(0)
    e, f = v.basis, w.basis
    m = min(v.dim, w.dim)
    _, s, vh = np.linalg.svd(e.conj().T @ f)
    cosines = _clamp(s[:m])
    theta = np.arccos(cosines)
    small = cosines > math.sqrt(0.5)
    cols = (f @ vh.conj().T)[:, :m][:, small]
    resid = cols - e @ (e.conj().T @ cols)
    theta[small] = np.arcsin(_clamp(np.linalg.norm(resid, axis=0)))
    return np.sort(theta)


def intersection_dim(v: Subspace, w: Subspace,
                     rank_tol: float = DEFAULT_TOL.rank_tol) -> int:
    """dim(V & W) = p + q - rank[V | W], the rank counted by the rule of
    ``orthonormalize``."""
    if v.dim == 0 or w.dim == 0:
        return 0
    stacked = np.concatenate([v.basis, w.basis], axis=1)
    return v.dim + w.dim - _rank(np.linalg.svd(stacked, compute_uv=False), rank_tol)
