"""Identity suites behind the CLI ``verify`` command.

Runs golden-value checks (built-in corpus only), the Pythagorean and sine
identities, three-route agreement, perpendicular duality and oriented
triangle-inequality sampling over a set of subspaces, and reports one
result line per check.  A leg that enumerates subsets runs only up to its
ambient cap and says in its detail line when it was left out: the two
identities and the exterior route up to ``AMBIENT_CAP``, the Gram route
up to ``GRAM_PSI_CAP``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from .angles import (GRAM_PSI_CAP, _gram_angles, angle_report, asymmetric_angle,
                     disjointness_angle, pythagorean_sum, sine_identity_sum,
                     supplementation_angle)
from .errors import NumericalDegeneracyError
from .exterior import AMBIENT_CAP, plucker_angles
from .metrics import METRICS, extension_from_angles
from .numerics import DEFAULT_TOL, Field, Tolerance
from .subspace import orthogonal_complement, principal_angles, random_subspace

# Cap on sampled ordered triples for the triangle check on user files.
_TRIANGLE_CAP = 600

# What the route check compares, on the scale every route produces natively.
_QUANTITIES = ("cos2_theta", "sin2_upsilon", "sin2_psi")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    worst: float = 0.0


def _ambient(pairs) -> int:
    return max((v.ambient_dim for _, v in pairs), default=0)


def _left_out(name: str, n: int) -> CheckResult:
    """A subset-enumerating identity check taken out above ``AMBIENT_CAP``."""
    return CheckResult(name, True, f"left out at ambient {n}: it enumerates "
                       f"subsets, capped at ambient {AMBIENT_CAP}")


def _check_golden(tol: Tolerance) -> CheckResult:
    worst = 0.0
    culprit = ""
    for g in corpus_mod.corpus():
        computed = {
            "theta_vw": asymmetric_angle(g.v, g.w),
            "theta_wv": asymmetric_angle(g.w, g.v),
            "upsilon": disjointness_angle(g.v, g.w),
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
    if _ambient(pairs) > AMBIENT_CAP:
        return _left_out("pythagorean_identity", _ambient(pairs))
    worst = 0.0
    for _, v in pairs:
        if v.dim == 0:
            continue
        basis = np.eye(v.ambient_dim, dtype=v.field.dtype)
        total = pythagorean_sum(v, basis)
        worst = max(worst, abs(total - 1.0))
    return CheckResult("pythagorean_identity", worst <= tol.angle_tol,
                       f"max |sum - 1| = {worst:.3e}", worst)


def _check_sine_identity(pairs, tol: Tolerance) -> CheckResult:
    if _ambient(pairs) > AMBIENT_CAP:
        return _left_out("sine_identity", _ambient(pairs))
    worst = 0.0
    for (_, v), (_, w) in itertools.permutations(pairs, 2):
        if v.dim == 0 or w.dim == 0:
            continue
        lhs, rhs = sine_identity_sum(v, w)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("sine_identity", worst <= tol.angle_tol,
                       f"max |sum - sin^2| = {worst:.3e}", worst)


def _check_routes(pairs, tol: Tolerance) -> CheckResult:
    # each oracle route has a leg that enumerates subsets, so it runs only
    # up to its cap
    oracles = {"gram": (_gram_angles, GRAM_PSI_CAP),
               "exterior": (plucker_angles, AMBIENT_CAP)}
    n = _ambient(pairs)
    routes = ["principal"] + [r for r, (_, cap) in oracles.items() if n <= cap]
    left_out = "".join(f"; {r} left out above ambient {cap}"
                       for r, (_, cap) in oracles.items() if n > cap)
    worst, culprit = 0.0, "none"
    for (vid, v), (wid, w) in itertools.permutations(pairs, 2):
        report = angle_report(v, w, tol=tol)
        per_route = [(report.theta_vw, report.upsilon, report.psi)]
        per_route += [oracles[r][0](v, w) for r in routes[1:]]
        # compare on the squared cosine/sine scale, which every route
        # produces natively; the angle scale loses half the precision near
        # 0 and pi/2
        squared = [(math.cos(th) ** 2, math.sin(up) ** 2, math.sin(ps) ** 2)
                   for th, up, ps in per_route]
        for (ra, a), (rb, b) in itertools.combinations(zip(routes, squared), 2):
            for quantity, x, y in zip(_QUANTITIES, a, b):
                if abs(x - y) > worst:
                    worst = abs(x - y)
                    culprit = f"{quantity} {vid}->{wid}, {ra} vs {rb}"
    return CheckResult("route_agreement", worst <= max(tol.angle_tol, 1e-8),
                       f"{len(routes)} route{'s' * (len(routes) > 1)}, "
                       f"max spread = {worst:.3e} "
                       f"({culprit}){left_out}", worst)


def _check_perp_duality(pairs, tol: Tolerance) -> CheckResult:
    perps = [orthogonal_complement(v) for _, v in pairs]
    worst = 0.0
    for (i, (_, v)), (j, (_, w)) in itertools.permutations(enumerate(pairs), 2):
        lhs = asymmetric_angle(perps[i], perps[j])
        rhs = asymmetric_angle(w, v)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("perp_duality", worst <= tol.angle_tol,
                       f"max |Theta(Vp,Wp) - Theta(W,V)| = {worst:.3e}", worst)


def _check_triangle(pairs, seed: int) -> CheckResult:
    ids = [name for name, _ in pairs]
    subs = [s for _, s in pairs]
    k = len(subs)
    triples = list(itertools.product(range(k), repeat=3))
    rng = np.random.default_rng(seed)
    if len(triples) > _TRIANGLE_CAP:
        picks = rng.choice(len(triples), size=_TRIANGLE_CAP, replace=False)
        triples = [triples[i] for i in picks]
    u, v, w = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    # the ordered pairs the triples read, with the principal angles of each
    # unordered pair taken once; each metric is then one k x k matrix, and
    # every triple three lookups in it
    needed = {pair for i, j, l in triples for pair in ((i, l), (i, j), (j, l))}
    angles = {}
    for a, b in needed:
        key = (min(a, b), max(a, b))
        if key not in angles:
            angles[key] = principal_angles(subs[key[0]], subs[key[1]])
    worst, culprit = 0.0, "none"
    for name, desc in METRICS.items():
        d = np.zeros((k, k))
        for a, b in needed:
            d[a, b] = extension_from_angles(desc, angles[min(a, b), max(a, b)],
                                            subs[a].dim, subs[b].dim).value
        violation = d[u, w] - d[u, v] - d[v, w]
        if violation.size and violation.max() > worst:
            t = int(np.argmax(violation))
            worst = float(violation[t])
            culprit = f"{name}: {ids[u[t]]}, {ids[v[t]]}, {ids[w[t]]}"
    return CheckResult("triangle_inequality", worst <= 1e-8,
                       f"{len(triples)} triples x {len(METRICS)} metrics, "
                       f"max violation = {worst:.3e} ({culprit})", worst)


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
                                              int(rng.integers(2 ** 63)))))
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
    """A check that trips numerical degeneracy (an SVD that does not
    converge, or a cosine beyond 1 + CLAMP_SLACK) counts as a failed check,
    not an aborted run.  No tolerance setting can raise it."""
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
        _guarded("triangle_inequality", _check_triangle, pairs, seed),
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
