"""Identity suites behind the CLI ``verify`` command.

Runs golden-value checks (built-in corpus only), the Pythagorean and sine
identities, three-route agreement, perpendicular duality and oriented
triangle-inequality sampling over a set of subspaces, and reports one
result line per check, naming the pair (or subspace) behind its worst
residual.  A leg that enumerates subsets runs only up to its ambient cap
and says in its detail line when it was left out: the two identities and
the exterior route up to ``AMBIENT_CAP``, the Gram route up to
``GRAM_PSI_CAP``.

The checks of one call share a pair table (``_PairTable``) of completed
bases, angles, Plücker sums and Gram readouts; nothing outlives the call.
On the corpus a call builds the corpus once and one table per ambient
dimension and field, and the golden check reads its angles from those
tables too, so every pair's angles are computed once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from . import exterior
from .angles import (ORACLES, AngleRoute, _principal_values, gram_angles,
                     pythagorean_sum)
from .errors import NumericalDegeneracyError
from .exterior import AMBIENT_CAP, _angles_from_sums
from .metrics import METRICS, extension_from_angles
from .numerics import DEFAULT_TOL, Field, Tolerance
from .subspace import Subspace, complete_basis, principal_angles, random_subspace

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


class _PairTable(list):
    """The (id, Subspace) pairs of one call and, computed on first use, the
    completed basis per subspace, the principal angles and the Gram readout
    per unordered pair (both are symmetric bit for bit) and the Plücker sums
    per ordered pair.  A computation that raises is not stored, so every
    check that needs that pair fails on it."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self._completions, self._angles, self._sums, self._grams = {}, {}, {}, {}

    def completion(self, i: int) -> np.ndarray:
        """``complete_basis`` of subspace i; its trailing columns span V_i^perp."""
        if i not in self._completions:
            self._completions[i] = complete_basis(self[i][1].basis)
        return self._completions[i]

    def angles(self, i: int, j: int) -> np.ndarray:
        i, j = min(i, j), max(i, j)
        if (i, j) not in self._angles:
            self._angles[i, j] = principal_angles(self[i][1], self[j][1])
        return self._angles[i, j]

    def plucker(self, i: int, j: int) -> tuple:
        if (i, j) not in self._sums:
            self._sums[i, j] = exterior.plucker_sums(self[i][1], self.completion(j),
                                                     self[j][1].dim)
        return self._sums[i, j]

    def gram(self, i: int, j: int) -> tuple[float, float, float]:
        """Theta(V_i, V_j), Upsilon and Psi on the Gram route."""
        key = min(i, j), max(i, j)
        if key not in self._grams:
            self._grams[key] = gram_angles(self[key[0]][1], self[key[1]][1])
        theta_ij, theta_ji, upsilon, psi = self._grams[key]
        return (theta_ij if i < j else theta_ji), upsilon, psi

    def theta(self, i: int, j: int) -> float:
        """Theta(V_i, V_j), as ``asymmetric_angle`` derives it."""
        return extension_from_angles(METRICS["fubini_study"], self.angles(i, j),
                                     self[i][1].dim, self[j][1].dim)


def _ambient(pairs) -> int:
    return max((v.ambient_dim for _, v in pairs), default=0)


def _left_out(name: str, n: int) -> CheckResult:
    """A subset-enumerating identity check taken out above ``AMBIENT_CAP``."""
    return CheckResult(name, True, f"left out at ambient {n}: it enumerates "
                       f"subsets, capped at ambient {AMBIENT_CAP}")


def _check_golden(golden, tables: dict, tol: Tolerance) -> CheckResult:
    """Each golden pair's values from the angles in the pair table that
    holds both sides, derived as ``angle_report`` derives them."""
    worst = 0.0
    culprit = ""
    for g in golden:
        table = tables[g.v.ambient_dim, g.v.field]
        ids = [name for name, _ in table]
        theta = table.angles(ids.index(f"{g.name}:V"), ids.index(f"{g.name}:W"))
        values = _principal_values(g.v, g.w, theta, tol)
        for key, got in zip(("theta_vw", "theta_wv", "upsilon", "psi"), values):
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
    worst, culprit = 0.0, "none"
    for vid, v in pairs:
        if v.dim == 0:
            continue
        basis = np.eye(v.ambient_dim, dtype=v.field.dtype)
        err = abs(pythagorean_sum(v, basis) - 1.0)
        if err > worst:
            worst, culprit = err, vid
    return CheckResult("pythagorean_identity", worst <= tol.angle_tol,
                       f"max |sum - 1| = {worst:.3e} ({culprit})", worst)


def _check_sine_identity(pairs, tol: Tolerance) -> CheckResult:
    if _ambient(pairs) > AMBIENT_CAP:
        return _left_out("sine_identity", _ambient(pairs))
    worst, culprit = 0.0, "none"
    for (i, (vid, v)), (j, (wid, w)) in itertools.permutations(enumerate(pairs), 2):
        if v.dim == 0 or w.dim == 0:
            continue
        lhs = pairs.plucker(i, j)[0][0]
        rhs = extension_from_angles(METRICS["binet_cauchy"], pairs.angles(i, j),
                                    v.dim, w.dim) ** 2
        if abs(lhs - rhs) > worst:
            worst, culprit = abs(lhs - rhs), f"{vid}->{wid}"
    return CheckResult("sine_identity", worst <= tol.angle_tol,
                       f"max |sum - sin^2| = {worst:.3e} ({culprit})", worst)


def _check_routes(pairs, tol: Tolerance) -> CheckResult:
    # each oracle route has a leg that enumerates subsets, so it runs only
    # up to its cap
    n = _ambient(pairs)
    routes = [AngleRoute.PRINCIPAL] + [r for r, (_, cap) in ORACLES.items()
                                       if n <= cap]
    left_out = "".join(f"; {r.value} left out above ambient {cap}"
                       for r, (_, cap) in ORACLES.items() if n > cap)
    worst, culprit = 0.0, "none"
    for (i, (vid, v)), (j, (wid, w)) in itertools.permutations(enumerate(pairs), 2):
        theta_vw, _, upsilon, psi = _principal_values(v, w, pairs.angles(i, j), tol)
        per_route = [(theta_vw, upsilon, psi)]
        per_route += [_angles_from_sums(pairs.plucker(i, j))
                      if r is AngleRoute.EXTERIOR else pairs.gram(i, j)
                      for r in routes[1:]]
        # compare on the squared cosine/sine scale, which every route
        # produces natively; the angle scale loses half the precision near
        # 0 and pi/2
        squared = [(math.cos(th) ** 2, math.sin(up) ** 2, math.sin(ps) ** 2)
                   for th, up, ps in per_route]
        for (ra, a), (rb, b) in itertools.combinations(zip(routes, squared), 2):
            for quantity, x, y in zip(_QUANTITIES, a, b):
                if abs(x - y) > worst:
                    worst = abs(x - y)
                    culprit = f"{quantity} {vid}->{wid}, {ra.value} vs {rb.value}"
    return CheckResult("route_agreement", worst <= max(tol.angle_tol, 1e-8),
                       f"{len(routes)} route{'s' * (len(routes) > 1)}, "
                       f"max spread = {worst:.3e} "
                       f"({culprit}){left_out}", worst)


def _check_perp_duality(pairs, tol: Tolerance) -> CheckResult:
    perps = _PairTable([(vid, Subspace(v.ambient_dim, v.field,
                                       pairs.completion(i)[:, v.dim:]))
                        for i, (vid, v) in enumerate(pairs)])
    worst, culprit = 0.0, "none"
    for (i, (vid, _)), (j, (wid, _)) in itertools.permutations(enumerate(pairs), 2):
        err = abs(perps.theta(i, j) - pairs.theta(j, i))
        if err > worst:
            worst, culprit = err, f"{vid}->{wid}"
    return CheckResult("perp_duality", worst <= tol.angle_tol,
                       f"max |Theta(Vp,Wp) - Theta(W,V)| = {worst:.3e} ({culprit})", worst)


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
    # the ordered pairs the triples read; each metric is then one k x k
    # matrix, and every triple three lookups in it
    needed = {pair for i, j, l in triples for pair in ((i, l), (i, j), (j, l))}
    worst, culprit = 0.0, "none"
    for name, desc in METRICS.items():
        d = np.zeros((k, k))
        for a, b in needed:
            d[a, b] = extension_from_angles(desc, pairs.angles(a, b),
                                            subs[a].dim, subs[b].dim)
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
    if pairs is not None:
        return _run_identity_checks(_PairTable(pairs), tol, seed)
    golden = corpus_mod.corpus()
    named = [(f"{g.name}:{side}", s) for g in golden
             for side, s in (("V", g.v), ("W", g.w))]
    # exact corpus values alone cannot exercise the tolerance: add a few
    # seeded generic subspaces, whose identities hold only to ordinary SVD
    # accuracy
    rng = np.random.default_rng(seed)
    for i, (n, field) in enumerate([(5, Field.REAL), (4, Field.COMPLEX)]):
        for j in range(3):
            dim = int(rng.integers(1, n))
            named.append((f"sampled{i}{j}",
                          random_subspace(n, dim, field,
                                          int(rng.integers(2 ** 63)))))
    # one pair table per ambient dimension and field, shared by the golden
    # check and the identity suites
    tables: dict[tuple, _PairTable] = {}
    for name, sub in named:
        tables.setdefault((sub.ambient_dim, sub.field), _PairTable([])).append(
            (name, sub))
    results = [_guarded("golden_angles", _check_golden, golden, tables, tol)]
    for table in tables.values():
        _merge(results, _run_identity_checks(table, tol, seed))
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


def _run_identity_checks(pairs: _PairTable, tol: Tolerance,
                         seed: int) -> list[CheckResult]:
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
