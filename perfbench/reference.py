"""Independent reference for the benchmark's correctness check.

Built on ``scipy.linalg.subspace_angles`` and the generator's construction,
never on grassdist.  The intersection dimension comes from the construction,
``r = max(r_shared, p + q - n)``, so no tolerance decision is shared with the
program: the r smallest angles are exactly zero (``subspace_angles`` returns
them only to about 1e-8, because its sine/cosine mask is aligned with the
reversed cosines), and the remaining ones are taken from scipy.  Every
quantity then follows from the closed forms of the paper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import orth, subspace_angles

TOL = 1e-9

# Generic (non-shared) principal angles of the generated inputs sit far above
# this; a smaller one means the generator did not build what it claims.
_GENERIC_FLOOR = 1e-6
_HALF_PI = math.pi / 2


class GeneratorMismatch(RuntimeError):
    """The generated input does not have the structure it was built with."""


def check_rank(columns: np.ndarray, dim: int) -> None:
    """The spanning set must span exactly ``dim`` dimensions."""
    rank = orth(columns).shape[1] if columns.size else 0
    if rank != dim:
        raise GeneratorMismatch(f"spanning set has rank {rank}, not {dim}")


def principal_angles(a_columns: np.ndarray, b_columns: np.ndarray,
                     p: int, q: int, r: int) -> np.ndarray:
    """Ascending principal angles of span(a) and span(b), of true
    dimensions p and q with a known intersection dimension r."""
    if p == 0 or q == 0:
        return np.zeros(0)
    theta = np.sort(subspace_angles(a_columns, b_columns))
    if len(theta) != min(p, q):
        raise GeneratorMismatch("subspace_angles returned the wrong count")
    if np.any(theta[:r] > _GENERIC_FLOOR) or np.any(theta[r:] < _GENERIC_FLOOR):
        raise GeneratorMismatch(f"intersection dimension is not {r}: {theta}")
    theta[:r] = 0.0
    return theta


def theta(theta_vw: np.ndarray, p: int, q: int) -> float:
    """Theta(V, W): 0 from {0}, pi/2 when p > q, else arccos prod cos."""
    if p == 0:
        return 0.0
    if q == 0 or p > q:
        return _HALF_PI
    return math.acos(min(1.0, float(np.prod(np.cos(theta_vw)))))


def upsilon(angles: np.ndarray, p: int, q: int, r: int) -> float:
    if p == 0 or q == 0:
        return _HALF_PI
    if r > 0:
        return 0.0
    return math.asin(min(1.0, float(np.prod(np.sin(angles)))))


def psi(angles: np.ndarray, p: int, q: int, n: int, r: int) -> float:
    if p == n or q == n:
        return _HALF_PI
    if p == 0 or q == 0 or p + q - r < n:
        return 0.0
    return math.asin(min(1.0, float(np.prod(np.sin(angles[r:])))))


def report(v_columns, w_columns, p: int, q: int, n: int, r: int,
           complex_field: bool) -> dict:
    """Every output of one ``report-pairs`` request."""
    check_rank(v_columns, p)
    check_rank(w_columns, q)
    angles = principal_angles(v_columns, w_columns, p, q, r)
    th_vw = theta(angles, p, q)
    c = math.cos(th_vw)
    return {
        "theta_vw": th_vw,
        "theta_wv": theta(angles, q, p),
        "upsilon": upsilon(angles, p, q, r),
        "psi": psi(angles, p, q, n, r),
        "projection_factor": c * c if complex_field else c,
        "principal_angles": angles,
    }


def compare_report(got: dict, want: dict, tol: float = TOL) -> list[str]:
    """Names of the outputs that differ from the reference by more than tol."""
    bad = []
    for key, ref in want.items():
        val = np.asarray(got[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        if val.shape != ref.shape or np.any(~(np.abs(val - ref) <= tol)):
            bad.append(key)
    return bad


_METRICS = {
    "geodesic": (lambda t: math.sqrt(float(np.sum(t * t))),
                 lambda p: _HALF_PI * math.sqrt(p)),
    "fubini_study": (lambda t: math.acos(min(1.0, float(np.prod(np.cos(t))))),
                     lambda p: _HALF_PI),
}


def extension(metric: str, angles: np.ndarray, dim_from: int, dim_to: int) -> float:
    """Asymmetric extension of a metric: 0 from {0}, the diameter when
    containment is impossible, else the metric on the principal angles."""
    f, diam = _METRICS[metric]
    if dim_from == 0:
        return 0.0
    if dim_from > dim_to:
        return diam(dim_from)
    return f(angles)


def distance_matrix(subs, n: int, metric: str, intersection_dim) -> np.ndarray:
    """Reference k x k matrix, row -> column, for generated subspaces;
    ``intersection_dim(a, b)`` gives the constructed dim(A & B)."""
    k = len(subs)
    for s in subs:
        check_rank(s.rows.T, s.dim)
    out = np.empty((k, k))
    for i, a in enumerate(subs):
        for j in range(i, k):
            b = subs[j]
            angles = (principal_angles(a.rows.T, b.rows.T, a.dim, b.dim,
                                       intersection_dim(a, b))
                      if min(a.dim, b.dim) > 0 else np.zeros(0))
            out[i, j] = extension(metric, angles, a.dim, b.dim)
            out[j, i] = extension(metric, angles, b.dim, a.dim)
    return out


def compare_matrix(got: np.ndarray, want: np.ndarray, tol: float = TOL) -> int:
    """Number of entries that differ from the reference by more than tol."""
    if got.shape != want.shape:
        return want.size
    return int(np.count_nonzero(~(np.abs(got - want) <= tol)))
