"""Seeded input generator for the grassdist benchmark.

Every workload is a pure function of its parameters (``WORKLOADS``) and the
seed: the same seed gives byte-identical files and bit-identical arrays.
Spanning sets are non-orthonormal Gaussian vectors, so the program always
orthonormalizes them itself.  Each generated subspace carries its true
dimension and the structure it was built with (shared columns, a repeated
column), which the reference check uses instead of any rank decision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = {
    "matrix-r30": {
        "kind": "matrix", "field": "real", "ambient_dim": 30, "count": 30,
        "dims": [1, 29], "zero_subspaces": 1, "full_subspaces": 1,
        "shared_plane_share": 0.2, "reduced_share": 0.0,
        "metric": "geodesic", "format": "json",
    },
    "matrix-c400": {
        "kind": "matrix", "field": "complex", "ambient_dim": 400, "count": 12,
        "dims": [10, 60], "zero_subspaces": 0, "full_subspaces": 0,
        "shared_plane_share": 0.2, "reduced_share": 0.2,
        "metric": "fubini_study", "format": "csv",
    },
    "report-pairs": {
        "kind": "report",
        # (share of requests, field, ambient dimension, [min, max] of p and q)
        "shapes": [[0.70, "real", 6, [1, 5]],
                   [0.25, "complex", 50, [5, 30]],
                   [0.05, "real", 500, [10, 60]]],
        "shared_share": 1 / 3,
        # distinct requests; 1% of them (the p99 tail) is 12 requests
        "pool": 1200,
    },
    "verify": {
        "kind": "verify", "field": "real", "ambient_dim": 8, "count": 8,
        "dims": [1, 7],
    },
}


@dataclass(frozen=True)
class GenSubspace:
    """One generated spanning set: ``rows`` are its spanning vectors."""

    sid: str
    rows: np.ndarray        # (k, n), k spanning rows
    dim: int                # dimension of the span, by construction
    reduced: bool           # a row repeats, so the span is smaller than k
    plane: bool             # the span contains the workload's shared 2-plane


def _gaussian(rng, shape, field: str) -> np.ndarray:
    a = rng.standard_normal(shape)
    if field == "complex":
        a = a + 1j * rng.standard_normal(shape)
    return a


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` dimensions evenly spread over [lo, hi].  Only their order
    depends on the seed, so every seed gives the same amount of work and the
    run-to-run spread measures the machine, not the draw."""
    return [int(d) for d in np.round(np.linspace(lo, hi, count))]


def matrix_subspaces(params: dict, seed: int) -> list[GenSubspace]:
    """The subspaces of a ``matrix`` workload, in file order."""
    rng = _rng(seed, 1)
    n, k, field = params["ambient_dim"], params["count"], params["field"]
    n_special = params["zero_subspaces"] + params["full_subspaces"]
    dims = rng.permutation([0] * params["zero_subspaces"]
                           + [n] * params["full_subspaces"]
                           + _spread(*params["dims"], k - n_special)).tolist()
    plain = [i for i in rng.permutation(k).tolist() if 2 <= dims[i] < n]
    n_shared = round(params["shared_plane_share"] * k)
    n_reduced = round(params["reduced_share"] * k)
    shared = set(plain[:n_shared])
    reduced = set(plain[n_shared:n_shared + n_reduced])
    plane = _gaussian(rng, (2, n), field)
    out = []
    for i in range(k):
        d = dims[i]
        if i in shared:
            rows = np.concatenate([plane, _gaussian(rng, (d - 2, n), field)])
        else:
            rows = _gaussian(rng, (d, n), field)
        if i in reduced:
            rows = np.concatenate([rows, rows[int(rng.integers(d))][None, :]])
        out.append(GenSubspace(f"s{i:03d}", rows, d, i in reduced, i in shared))
    return out


def verify_subspaces(params: dict, seed: int) -> list[GenSubspace]:
    rng = _rng(seed, 2)
    n, field = params["ambient_dim"], params["field"]
    dims = rng.permutation(_spread(*params["dims"], params["count"])).tolist()
    return [GenSubspace(f"v{i}", _gaussian(rng, (d, n), field), d, False, False)
            for i, d in enumerate(dims)]


def _encode(x, field: str):
    return [float(x.real), float(x.imag)] if field == "complex" else float(x)


def subspace_file(subs: list[GenSubspace], field: str, n: int) -> str:
    """The JSON subspace file the program reads (floats round-trip exactly)."""
    doc = {
        "field": field,
        "ambient_dim": n,
        "subspaces": [{"id": s.sid,
                       "vectors": [[_encode(x, field) for x in row]
                                   for row in s.rows]}
                      for s in subs],
    }
    return json.dumps(doc)


@dataclass(frozen=True)
class Request:
    """One ``report-pairs`` request: two raw spanning sets (columns)."""

    index: int
    field: str
    ambient_dim: int
    v_columns: np.ndarray
    w_columns: np.ndarray
    p: int
    q: int
    r_shared: int


def report_pool(params: dict, seed: int) -> list[Request]:
    """The requests of ``report-pairs``, in seeded issue order.  Each shape
    class gets exactly its share of the pool, with p and q evenly spread over
    its range, and exactly ``shared_share`` of each class's pairs share
    r >= 1 columns, r spread over 1..min(p, q).  So the set of
    (field, n, p, q, r) is the same for every seed; only the order and the
    vectors depend on it."""
    rng = _rng(seed, 3)
    size = params["pool"]
    shapes = []
    for share, field, n, (lo, hi) in params["shapes"]:
        count = round(share * size)
        # q runs half a cycle behind p: half the pairs have p > q
        spread = _spread(lo, hi, count)
        pairs = list(zip(spread, spread[count // 2:] + spread[:count // 2]))
        shared = _spread(0, count - 1, round(params["shared_share"] * count))
        r = [0] * count
        for k, j in enumerate(shared):
            r[j] = 1 + k % min(pairs[j])
        shapes += [(field, n, p, q, r[j]) for j, (p, q) in enumerate(pairs)]
    out = []
    for index, j in enumerate(rng.permutation(len(shapes))):
        field, n, p, q, r = shapes[j]
        common = _gaussian(rng, (n, r), field)
        v = np.concatenate([common, _gaussian(rng, (n, p - r), field)], axis=1)
        w = np.concatenate([_gaussian(rng, (n, q - r), field), common], axis=1)
        out.append(Request(index, field, n, v, w, p, q, r))
    return out


def matrix_properties(subs: list[GenSubspace], n: int, field: str) -> dict:
    """Measured input property shares over the k*k ordered pairs."""
    k = len(subs)
    inter = pq = 0
    for a in subs:
        for b in subs:
            inter += pair_intersection_dim(a, b, n) > 0
            pq += a.dim > b.dim
    return {
        "pairs": k * k,
        "intersecting_pairs": inter / (k * k),
        "p_gt_q_pairs": pq / (k * k),
        "rank_reduced_sets": sum(s.reduced for s in subs) / k,
        "complex_share": 1.0 if field == "complex" else 0.0,
        "n_histogram": {str(n): k},
    }


def pair_intersection_dim(a: GenSubspace, b: GenSubspace, n: int) -> int:
    """dim(A & B) by construction: the shared plane, or the dimension count
    p + q - n when that is larger (generic otherwise)."""
    if a.dim == 0 or b.dim == 0:
        return 0
    if a is b:
        return a.dim
    return max(2 if a.plane and b.plane else 0, a.dim + b.dim - n)


def request_properties(pool: list[Request]) -> dict:
    """Measured input property shares over the requests of the pool."""
    count = len(pool)
    hist: dict[str, int] = {}
    for req in pool:
        hist[str(req.ambient_dim)] = hist.get(str(req.ambient_dim), 0) + 1
    return {
        "requests": count,
        "intersecting_pairs": sum(max(r.r_shared, r.p + r.q - r.ambient_dim) > 0
                                  for r in pool) / count,
        "p_gt_q_pairs": sum(r.p > r.q for r in pool) / count,
        "rank_reduced_sets": 0.0,
        "complex_share": sum(r.field == "complex" for r in pool) / count,
        "n_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
    }
