"""Identity suites behind the CLI ``verify`` command.

Runs golden-value checks (built-in corpus only), the Pythagorean and sine
identities, three-route agreement, perpendicular duality and oriented
triangle-inequality sampling over a set of subspaces, and reports one
result line per check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from .angles import (AngleRoute, asymmetric_angle, disjointness_angle,
                     pythagorean_sum, sine_identity_sum, supplementation_angle)
from .errors import NumericalDegeneracyError
from .metrics import METRICS, extension_from_angles
from .numerics import DEFAULT_TOL, Field, Tolerance
from .subspace import orthogonal_complement, principal_angles, random_subspace

# Exterior-route cost grows combinatorially; above this ambient dimension
# the route-agreement check falls back to principal vs gram only.
_EXTERIOR_DIM_CAP = 10

# Cap on sampled ordered triples for the triangle check on user files.
_TRIANGLE_CAP = 600


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    worst: float = 0.0


def _angles_by_route(v, w, route, tol):
    return (asymmetric_angle(v, w, route, tol),
            disjointness_angle(v, w, route, tol),
            supplementation_angle(v, w, route, tol))


def _check_golden(tol: Tolerance) -> CheckResult:
    worst = 0.0
    culprit = ""
    for g in corpus_mod.corpus():
        computed = {
            "theta_vw": asymmetric_angle(g.v, g.w, tol=tol),
            "theta_wv": asymmetric_angle(g.w, g.v, tol=tol),
            "upsilon": disjointness_angle(g.v, g.w, tol=tol),
            "psi": supplementation_angle(g.v, g.w, tol=tol),
        }
        for key, got in computed.items():
            want = getattr(g, key)
            if want is None:
                continue
            err = abs(got - want)
            if err > worst:
                worst, culprit = err, f"{g.name}.{key}"
    passed = worst <= tol.angle_tol
    return CheckResult("golden_angles", passed,
                       f"max |error| = {worst:.3e} ({culprit})", worst)


def _check_pythagorean(pairs, tol: Tolerance) -> CheckResult:
    worst = 0.0
    for _, v in pairs:
        if v.dim == 0:
            continue
        basis = np.eye(v.ambient_dim, dtype=v.field.dtype)
        total = pythagorean_sum(v, basis, tol)
        worst = max(worst, abs(total - 1.0))
    return CheckResult("pythagorean_identity", worst <= tol.angle_tol,
                       f"max |sum - 1| = {worst:.3e}", worst)


def _check_sine_identity(pairs, tol: Tolerance) -> CheckResult:
    worst = 0.0
    for (_, v), (_, w) in itertools.permutations(pairs, 2):
        if v.dim == 0 or w.dim == 0:
            continue
        lhs, rhs = sine_identity_sum(v, w, tol)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("sine_identity", worst <= tol.angle_tol,
                       f"max |sum - sin^2| = {worst:.3e}", worst)


def _check_routes(pairs, tol: Tolerance) -> CheckResult:
    routes = [AngleRoute.PRINCIPAL, AngleRoute.GRAM]
    ambient = max((v.ambient_dim for _, v in pairs), default=0)
    if ambient <= _EXTERIOR_DIM_CAP:
        routes.append(AngleRoute.EXTERIOR)
    worst = 0.0
    # compare on the squared cosine/sine scale, which every route produces
    # natively; the angle scale loses half the precision near 0 and pi/2
    for (_, v), (_, w) in itertools.permutations(pairs, 2):
        per_route = []
        for route in routes:
            th, up, ps = _angles_by_route(v, w, route, tol)
            per_route.append((math.cos(th) ** 2, math.sin(up) ** 2,
                              math.sin(ps) ** 2))
        for a, b in itertools.combinations(per_route, 2):
            worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    return CheckResult("route_agreement", worst <= max(tol.angle_tol, 1e-8),
                       f"{len(routes)} routes, max spread = {worst:.3e}", worst)


def _check_perp_duality(pairs, tol: Tolerance) -> CheckResult:
    perps = [orthogonal_complement(v) for _, v in pairs]
    worst = 0.0
    for (i, (_, v)), (j, (_, w)) in itertools.permutations(enumerate(pairs), 2):
        lhs = asymmetric_angle(perps[i], perps[j], tol=tol)
        rhs = asymmetric_angle(w, v, tol=tol)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("perp_duality", worst <= tol.angle_tol,
                       f"max |Theta(Vp,Wp) - Theta(W,V)| = {worst:.3e}", worst)


def _check_triangle(pairs, tol: Tolerance, seed: int) -> CheckResult:
    subs = [s for _, s in pairs]
    triples = list(itertools.product(range(len(subs)), repeat=3))
    rng = np.random.default_rng(seed)
    if len(triples) > _TRIANGLE_CAP:
        picks = rng.choice(len(triples), size=_TRIANGLE_CAP, replace=False)
        triples = [triples[i] for i in picks]
    # the principal angles of each unordered pair, taken once; every
    # metric over every triple is then a lookup plus the extension rule
    angles: dict[tuple[int, int], np.ndarray] = {}

    def dist(desc, a: int, b: int) -> float:
        key = (min(a, b), max(a, b))
        if key not in angles:
            angles[key] = principal_angles(subs[a], subs[b], tol)
        return extension_from_angles(desc, angles[key],
                                     subs[a].dim, subs[b].dim).value

    worst = 0.0
    for name, desc in METRICS.items():
        for i, j, k in triples:
            d_uw = dist(desc, i, k)
            d_uv = dist(desc, i, j)
            d_vw = dist(desc, j, k)
            worst = max(worst, d_uw - d_uv - d_vw)
    return CheckResult("triangle_inequality", worst <= 1e-8,
                       f"{len(triples)} triples x {len(METRICS)} metrics, "
                       f"max violation = {worst:.3e}", worst)


def run_verification(pairs=None, tol: Tolerance = DEFAULT_TOL,
                     seed: int = 0) -> list[CheckResult]:
    """Run every identity suite; ``pairs`` is a list of (id, Subspace), or
    None for the built-in corpus (which adds the golden-value check)."""
    results = []
    if pairs is None:
        results.append(_guarded("golden_angles", _check_golden, tol))
        named = []
        for g in corpus_mod.corpus():
            named.append((f"{g.name}:V", g.v))
            named.append((f"{g.name}:W", g.w))
        # exact corpus values alone cannot exercise the tolerance: add a
        # few seeded generic subspaces, whose identities hold only to
        # ordinary SVD accuracy
        rng = np.random.default_rng(seed)
        for i, (n, field) in enumerate([(5, Field.REAL), (4, Field.COMPLEX)]):
            for j in range(3):
                dim = int(rng.integers(1, n))
                named.append((f"sampled{i}{j}",
                              random_subspace(n, dim, field,
                                              int(rng.integers(2 ** 63)), tol)))
        # identity suites run per ambient dimension and field
        groups: dict[tuple, list] = {}
        for name, sub in named:
            groups.setdefault((sub.ambient_dim, sub.field), []).append((name, sub))
        for group in groups.values():
            _merge(results, _run_identity_checks(group, tol, seed))
    else:
        _merge(results, _run_identity_checks(list(pairs), tol, seed))
    return results


def _guarded(name: str, fn, *args) -> CheckResult:
    """A check that trips numerical degeneracy (e.g. under an absurd
    tolerance) counts as a failed check, not an aborted run."""
    try:
        return fn(*args)
    except NumericalDegeneracyError as exc:
        return CheckResult(name, False, f"numerical degeneracy: {exc}",
                           worst=float("inf"))


def _run_identity_checks(pairs, tol: Tolerance, seed: int) -> list[CheckResult]:
    return [
        _guarded("pythagorean_identity", _check_pythagorean, pairs, tol),
        _guarded("sine_identity", _check_sine_identity, pairs, tol),
        _guarded("route_agreement", _check_routes, pairs, tol),
        _guarded("perp_duality", _check_perp_duality, pairs, tol),
        _guarded("triangle_inequality", _check_triangle, pairs, tol, seed),
    ]


def _merge(results: list[CheckResult], new: list[CheckResult]) -> None:
    """Combine same-named checks across corpus groups; the group with the
    largest residual supplies the detail line."""
    for item in new:
        for idx, existing in enumerate(results):
            if existing.name == item.name:
                keep = existing if existing.worst >= item.worst else item
                results[idx] = CheckResult(item.name,
                                           existing.passed and item.passed,
                                           keep.detail, keep.worst)
                break
        else:
            results.append(item)
