"""A second principal-angle route, held in the tests as a reference for the
kernel ``grassdist.subspace.principal_angles``.

It takes the full SVD of ``E^H F`` with vectors, clamps the cosines into
[0, 1], and replaces every angle below pi/4 by ``arcsin`` of the norm of
its principal vector's residual ``f_i - E E^H f_i``.  The kernel instead
reads all sines as singular values of one residual matrix, so the two
agree only to roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from grassdist.errors import NumericalDegeneracyError
from grassdist.numerics import _UNIT_SNAP, CLAMP_SLACK
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
