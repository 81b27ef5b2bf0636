"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with ``pytest -s`` to see the lines as they complete).  Paper-derived
golden values are asserted at 1e-9 on cosines/sines and 1e-7 radians on
angles; random suites are fully seeded.
"""

import itertools
import json
import math

import numpy as np
import pytest

from grassdist import corpus
from grassdist.angles import (AngleRoute, angle_report, asymmetric_angle,
                              disjointness_angle, orthogonal_partition_check,
                              pythagorean_sum, supplementation_angle)
from grassdist.cli import main
from grassdist.metrics import (METRICS, asymmetric_distance, containment_gap,
                               equal_dim_distance, extension_from_angles,
                               make_equality_triple)
from grassdist.numerics import Field
from grassdist.subspace import (Subspace, orthogonal_complement,
                                principal_angles, random_subspace,
                                random_unitary)

from angle_reference import reference_angles
from conftest import (real_complex_sides, sine_identity_sides,
                      spherical_pythagorean_sides)

COS_TOL = 1e-9     # absolute tolerance on cosines and sines
ANGLE_TOL = 1e-7   # absolute tolerance on angles, radians
HALF_PI = math.pi / 2
ROUTES = [AngleRoute.PRINCIPAL, AngleRoute.GRAM, AngleRoute.EXTERIOR]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _angles(v, w):
    theta = reference_angles(v, w)
    assert np.all(np.abs(principal_angles(v, w) - theta) <= 1e-12), (v, w)
    return theta


# ---------------------------------------------------------------------------
# Criterion 1: golden examples.
# ---------------------------------------------------------------------------

def test_criterion_1_golden_examples():
    bad: list[str] = []

    def want(tag, got, expect, tol):
        if abs(got - expect) > tol:
            bad.append(f"{tag}: got {got!r}, want {expect!r}")

    # R^5 pair: theta = (45, 45) deg, Theta = 60 deg, reversed 90 deg
    v, w = corpus.corpus()[0].v, corpus.corpus()[0].w
    th = principal_angles(v, w)
    want("r5.theta1", th[0], math.pi / 4, ANGLE_TOL)
    want("r5.theta2", th[1], math.pi / 4, ANGLE_TOL)
    want("r5.Theta", asymmetric_angle(v, w), math.pi / 3, ANGLE_TOL)
    want("r5.Theta_rev", asymmetric_angle(w, v), HALF_PI, ANGLE_TOL)

    # C^4 pair: theta = (45, 60) deg, Theta ~ 69.295 deg, underlying-real
    # Theta ~ 82.819 deg, and cos Theta_R = cos^2 Theta = 1/8
    g = corpus.corpus()[1]
    th = principal_angles(g.v, g.w)
    want("c4.theta1", th[0], math.pi / 4, ANGLE_TOL)
    want("c4.theta2", th[1], math.pi / 3, ANGLE_TOL)
    theta_c = asymmetric_angle(g.v, g.w)
    want("c4.Theta", theta_c, math.acos(math.sqrt(2) / 4), ANGLE_TOL)
    want("c4.Theta_deg", math.degrees(theta_c), 69.295, 5e-3)
    lhs, rhs = real_complex_sides(g.v, g.w)
    want("c4.cos_thetaR", lhs, 1 / 8, COS_TOL)
    want("c4.cos2_theta", rhs, 1 / 8, COS_TOL)
    want("c4.ThetaR_deg",
         math.degrees(math.acos(lhs)), 82.819, 5e-3)

    # R^5 blades: Theta, Upsilon, Psi for (A,B), (A,C), (C,D)
    blades = {p.name: p for p in corpus.corpus()}
    for name, tth, tup, tps in [
        ("blades_A_B", math.acos(1 / 6), math.asin(math.sqrt(17) / 6), 0.0),
        ("blades_A_C", math.acos(1 / (3 * math.sqrt(2))),
         math.asin(math.sqrt(2) / 3), math.asin(math.sqrt(2) / 3)),
        ("blades_C_D", HALF_PI, 0.0, math.asin(math.sqrt(2) / 2)),
    ]:
        pair = blades[name]
        want(f"{name}.Theta", asymmetric_angle(pair.v, pair.w), tth, ANGLE_TOL)
        want(f"{name}.Upsilon", disjointness_angle(pair.v, pair.w), tup, ANGLE_TOL)
        want(f"{name}.Psi", supplementation_angle(pair.v, pair.w), tps, ANGLE_TOL)

    # R^4 line vs plane: Theta 45 deg, reversed 90 deg, Upsilon 45 deg both
    # directions, Psi = 0
    g = blades["formula_distinct_dim"]
    want("r4.Theta", asymmetric_angle(g.v, g.w), math.pi / 4, ANGLE_TOL)
    want("r4.Theta_rev", asymmetric_angle(g.w, g.v), HALF_PI, ANGLE_TOL)
    want("r4.Upsilon", disjointness_angle(g.v, g.w), math.pi / 4, ANGLE_TOL)
    want("r4.Upsilon_rev", disjointness_angle(g.w, g.v), math.pi / 4, ANGLE_TOL)
    want("r4.Psi", supplementation_angle(g.v, g.w), 0.0, ANGLE_TOL)

    # C^3 pair: Theta = arccos(1/sqrt3), Upsilon = 0, Psi = arcsin sqrt(2/3)
    g = blades["formula_bases"]
    want("c3.Theta", asymmetric_angle(g.v, g.w), math.acos(1 / math.sqrt(3)),
         ANGLE_TOL)
    want("c3.Upsilon", disjointness_angle(g.v, g.w), 0.0, ANGLE_TOL)
    want("c3.Psi", supplementation_angle(g.v, g.w), math.asin(math.sqrt(2 / 3)),
         ANGLE_TOL)

    # R^4 planes: Psi = 0 (the pair fails to span the space)
    g = blades["r4_planes"]
    want("r4planes.Psi", supplementation_angle(g.v, g.w), 0.0, ANGLE_TOL)

    # Pythagorean examples
    vc2 = Subspace.from_columns(corpus.PYTHAGORAS_C2_V, Field.COMPLEX)
    e2 = np.eye(2, dtype=complex)
    want("pyth.c2.w1", asymmetric_angle(vc2, Subspace(2, Field.COMPLEX, e2[:, :1])),
         math.pi / 3, ANGLE_TOL)
    want("pyth.c2.w2", asymmetric_angle(vc2, Subspace(2, Field.COMPLEX, e2[:, 1:])),
         math.pi / 6, ANGLE_TOL)
    want("pyth.c2.sum", pythagorean_sum(vc2, e2), 1.0, COS_TOL)

    from grassdist.subspace import underlying_real
    vr4 = underlying_real(vc2)
    got_deg = sorted(
        math.degrees(asymmetric_angle(
            vr4, Subspace.from_columns(np.eye(4)[:, list(c)], Field.REAL)))
        for c in itertools.combinations(range(4), 2))
    expect_deg = sorted(math.degrees(math.acos(x))
                        for x in (0.25, math.sqrt(3) / 4, math.sqrt(3) / 4,
                                  0.0, 0.0, 0.75))
    for i, (got, exp) in enumerate(zip(got_deg, expect_deg)):
        want(f"pyth.r4.angle{i}", got, exp, 0.05)
    want("pyth.r4.sum", pythagorean_sum(vr4, np.eye(4)), 1.0, COS_TOL)

    vc3 = blades["formula_bases"].v
    xi = np.exp(2j * np.pi / 3)
    basis3 = np.diag([1, xi, xi ** 2]).astype(complex)
    for combo in itertools.combinations(range(3), 2):
        wsub = Subspace.from_columns(basis3[:, list(combo)], Field.COMPLEX)
        want(f"pyth.c3.{combo}", math.cos(asymmetric_angle(vc3, wsub)),
             1 / math.sqrt(3), COS_TOL)

    # Sine identity example: sum = 3/4 = sin^2 Theta
    v, w = blades["real_principal_angles"].v, blades["real_principal_angles"].w
    total, sin2 = sine_identity_sides(v, w)
    want("sine.sum", total, 0.75, COS_TOL)
    want("sine.sin2", sin2, 0.75, COS_TOL)

    report("criterion 1 (golden examples)", not bad,
           "all paper example values reproduced" if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# Criterion 2: asymmetric-metric axiom suite.
# ---------------------------------------------------------------------------

def _sample_subspace(rng, n, field, existing):
    roll = rng.random()
    if existing and roll < 0.10:
        return existing[int(rng.integers(0, len(existing)))]
    if existing and roll < 0.20:
        base = existing[int(rng.integers(0, len(existing)))]
        if base.dim:
            r = int(rng.integers(0, base.dim + 1))
            return Subspace(n, field, base.basis[:, :r])
    dim = int(rng.integers(0, n + 1))
    return random_subspace(n, dim, field, int(rng.integers(2 ** 63)))


def test_criterion_2_asymmetric_metric_axioms():
    total = 10_000
    worst_slack = math.inf
    separation_events = 0
    for n, field, count, seed in [(6, Field.REAL, total // 2, 11),
                                  (4, Field.COMPLEX, total // 2, 12)]:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            subs = []
            for _ in range(3):
                subs.append(_sample_subspace(rng, n, field, subs))
            theta = {}
            for a, b in itertools.combinations(range(3), 2):
                theta[a, b] = theta[b, a] = _angles(subs[a], subs[b])
            dist = {}
            for name, desc in METRICS.items():
                for a, b in itertools.permutations(range(3), 2):
                    dist[name, a, b] = extension_from_angles(
                        desc, theta[a, b], subs[a].dim, subs[b].dim)
            for name in METRICS:
                for a, b, c in itertools.permutations(range(3), 3):
                    slack = (dist[name, a, b] + dist[name, b, c]
                             - dist[name, a, c])
                    worst_slack = min(worst_slack, slack)
                    assert slack >= -1e-8, (name, n, field)
            for a, b in itertools.combinations(range(3), 2):
                both_zero = all(dist[name, a, b] <= 1e-9
                                and dist[name, b, a] <= 1e-9
                                for name in METRICS)
                if both_zero:
                    separation_events += 1
                    pdist = np.linalg.norm(subs[a].projector()
                                           - subs[b].projector())
                    assert pdist < 1e-8, "separation condition violated"
    assert separation_events > 50, "separation condition never exercised"
    report("criterion 2 (asymmetric-metric axioms)", True,
           f"{total} triples x 9 metrics x 6 orderings; worst slack "
           f"{worst_slack:+.2e}; {separation_events} separation events")


# ---------------------------------------------------------------------------
# Criterion 3: triangle equality conditions.
# ---------------------------------------------------------------------------

def test_criterion_3_equality_conditions():
    worst_eq = 0.0
    worst_defect = math.inf
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        field = Field.REAL if seed % 2 else Field.COMPLEX
        r_dim = int(rng.integers(0, 3))
        kappa, lam = rng.uniform(0.5, 2.0, size=2)
        u, v, w = make_equality_triple(r_dim, kappa, lam, seed, field=field)
        defect = abs(asymmetric_angle(u, v) + asymmetric_angle(v, w)
                     - asymmetric_angle(u, w))
        worst_eq = max(worst_eq, defect)
        assert defect <= 1e-8
        u, v, w = make_equality_triple(r_dim, kappa, lam, seed, field=field,
                                       perturbation=1e-2)
        defect = (asymmetric_angle(u, v) + asymmetric_angle(v, w)
                  - asymmetric_angle(u, w))
        worst_defect = min(worst_defect, defect)
        assert defect > 1e-4
    report("criterion 3 (equality conditions)", True,
           f"100 equality triples within {worst_eq:.2e}; 100 perturbed "
           f"triples violate by >= {worst_defect:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: route equivalence.
# ---------------------------------------------------------------------------

def _route_pairs(count, field, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        yield (random_subspace(n, p, field, int(rng.integers(2 ** 63))),
               random_subspace(n, q, field, int(rng.integers(2 ** 63))))


def test_criterion_4_route_equivalence():
    worst = 0.0
    for field, seed in [(Field.REAL, 21), (Field.COMPLEX, 22)]:
        for v, w in _route_pairs(500, field, seed):
            reports = [angle_report(v, w, route) for route in ROUTES]
            for key in ("theta_vw", "upsilon", "psi"):
                vals = [getattr(rep, key) for rep in reports]
                spread = max(vals) - min(vals)
                worst = max(worst, spread)
                assert spread <= 1e-8, key
    report("criterion 4 (route equivalence)", True,
           f"1000 pairs, n <= 7, both fields; max spread {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: identity suites at 1e-9.
# ---------------------------------------------------------------------------

def _suite_setup(seed):
    rng = np.random.default_rng(seed)
    field = Field.REAL if seed % 2 else Field.COMPLEX
    n = 6 if field is Field.REAL else 4
    return rng, field, n


def _random_pair(rng, n, field, min_dim=1):
    p = int(rng.integers(min_dim, n))
    q = int(rng.integers(min_dim, n))
    return (random_subspace(n, p, field, int(rng.integers(2 ** 63))),
            random_subspace(n, q, field, int(rng.integers(2 ** 63))))


def test_criterion_5_identity_suites():
    cases = 500
    worst: dict[str, float] = {}

    def track(key, err):
        worst[key] = max(worst.get(key, 0.0), err)
        assert err <= 1e-9, key

    for seed in range(cases):
        rng, field, n = _suite_setup(seed)
        v, w = _random_pair(rng, n, field)

        # spherical Pythagorean with random W' inside W
        mix = np.linalg.qr(rng.standard_normal((w.dim, max(1, w.dim - 1))))[0]
        w_sub = Subspace(n, field, w.basis @ mix.astype(w.basis.dtype))
        lhs, rhs = spherical_pythagorean_sides(v, w, w_sub)
        track("spherical_pythagorean", abs(lhs - rhs))

        # orthogonal partition
        q = random_unitary(n, field, 50_000 + seed)
        v1 = Subspace(n, field, q[:, :2])
        v2 = Subspace(n, field, q[:, 2:3])
        lhs, rhs = orthogonal_partition_check(v1, v2, w)
        track("orthogonal_partition", abs(lhs - rhs))

        # perpendicular duality
        lhs = asymmetric_angle(orthogonal_complement(v), orthogonal_complement(w))
        track("perp_duality", abs(lhs - asymmetric_angle(w, v)))

        # padding invariance
        vw = Subspace.from_columns(np.concatenate([v.basis, w.basis], axis=1), field)
        comp = orthogonal_complement(vw)
        if comp.dim:
            padded = Subspace(n, field, np.concatenate([w.basis, comp.basis[:, :1]],
                                                       axis=1))
            track("padding", abs(asymmetric_angle(v, padded)
                                 - asymmetric_angle(v, w)))

        # unitary invariance
        t = random_unitary(n, field, 60_000 + seed)
        tv = Subspace(n, field, t @ v.basis)
        tw = Subspace(n, field, t @ w.basis)
        for fn, key in [(asymmetric_angle, "unitary_theta"),
                        (disjointness_angle, "unitary_upsilon"),
                        (supplementation_angle, "unitary_psi")]:
            track(key, abs(fn(tv, tw) - fn(v, w)))

        # symmetry of Upsilon and Psi
        track("upsilon_symmetry", abs(disjointness_angle(v, w)
                                      - disjointness_angle(w, v)))
        track("psi_symmetry", abs(supplementation_angle(v, w)
                                  - supplementation_angle(w, v)))

        # interlacing corollaries (need p <= q)
        a, b = (v, w) if v.dim <= w.dim else (w, v)
        theta = principal_angles(a, b)
        p, q_dim = a.dim, b.dim
        mix = np.linalg.qr(rng.standard_normal((q_dim, p)))[0]
        b_sub = Subspace(n, field, b.basis @ mix.astype(b.basis.dtype))
        theta_sub = principal_angles(a, b_sub)
        track("interlacing_shrink_target",
              max(0.0, float(np.max(theta - theta_sub))))
        r = max(1, p - 1)
        mixv = np.linalg.qr(rng.standard_normal((p, r)))[0]
        a_sub = Subspace(n, field, a.basis @ mixv.astype(a.basis.dtype))
        theta_v = principal_angles(a_sub, b)
        track("interlacing_shrink_source",
              max(0.0, float(np.max(theta_v - theta[p - r:]))))

    detail = "; ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    report("criterion 5 (identity suites)", True,
           f"{cases} cases each: {detail}")


# ---------------------------------------------------------------------------
# Criterion 6: inequality chains.
# ---------------------------------------------------------------------------

_ROW_CHAINS = [("geodesic", "chordal_frobenius", "projection_frobenius"),
               ("fubini_study", "chordal_wedge", "binet_cauchy"),
               ("asimov", "chordal_2norm", "projection_2norm")]
_COLUMN_CHAINS = [("asimov", "geodesic", "fubini_study"),
                  ("chordal_2norm", "chordal_frobenius", "chordal_wedge"),
                  ("projection_2norm", "projection_frobenius", "binet_cauchy")]


def _strictly_greater(x, y):
    # a strict comparison inside the 1e-12 margin is indeterminate, not a
    # failure (near-equality configurations are legal inputs)
    return x > y - 1e-12


def test_criterion_6_inequality_chains():
    checked_equalities = 0
    for seed in range(1000):
        rng = np.random.default_rng(30_000 + seed)
        field = Field.REAL if seed % 2 else Field.COMPLEX
        n = 6
        p = int(rng.integers(2, 5))
        big_intersection = seed % 5 == 0
        if big_intersection:
            q = random_unitary(n, field, int(rng.integers(2 ** 63)))
            shared = q[:, :p - 1]
            v = Subspace(n, field, np.concatenate([shared, q[:, p - 1:p]], axis=1))
            w = Subspace(n, field, np.concatenate([shared, q[:, p:p + 1]], axis=1))
        else:
            v = random_subspace(n, p, field, int(rng.integers(2 ** 63)))
            w = random_subspace(n, p, field, int(rng.integers(2 ** 63)))
        d = {name: equal_dim_distance(name, v, w) for name in METRICS}
        for angular, chordal, gap_name in _ROW_CHAINS:
            assert HALF_PI * d[gap_name] >= d[angular] - 1e-12
            assert _strictly_greater(d[angular], d[chordal])
            assert _strictly_greater(d[chordal], d[gap_name])
        for maxm, l2m, wedgem in _COLUMN_CHAINS:
            assert math.sqrt(p) * d[maxm] >= d[l2m] - 1e-12
            if big_intersection:
                assert d[l2m] == pytest.approx(d[wedgem], abs=1e-9)
                assert d[wedgem] == pytest.approx(d[maxm], abs=1e-9)
            else:
                assert _strictly_greater(d[l2m], d[wedgem])
                assert _strictly_greater(d[wedgem], d[maxm])
        checked_equalities += big_intersection
    report("criterion 6 (inequality chains)", True,
           f"1000 equal-dim pairs; {checked_equalities} in the equality regime")


# ---------------------------------------------------------------------------
# Criterion 7: Table spot values of the extensions.
# ---------------------------------------------------------------------------

def test_criterion_7_extension_spot_values():
    # diameter case is exact, not approximate
    for field in (Field.REAL, Field.COMPLEX):
        for p, q in [(3, 1), (4, 2), (2, 0)]:
            v = random_subspace(6, p, field, 41)
            w = random_subspace(6, q, field, 42)
            got = asymmetric_distance("geodesic", v, w)
            assert got == HALF_PI * math.sqrt(p)
    worst_gap = 0.0
    worst_bc = 0.0
    for field, seed in [(Field.REAL, 43), (Field.COMPLEX, 44)]:
        for v, w in _route_pairs(250, field, seed):
            d_p2 = asymmetric_distance("projection_2norm", v, w)
            worst_gap = max(worst_gap, abs(d_p2 - containment_gap(v, w)))
            d_bc = asymmetric_distance("binet_cauchy", v, w)
            worst_bc = max(worst_bc, abs(d_bc - math.sin(asymmetric_angle(v, w))))
    assert worst_gap <= 1e-9
    assert worst_bc <= 1e-9
    report("criterion 7 (extension spot values)", True,
           f"diameter exact; |p2norm - containment gap| <= {worst_gap:.1e}; "
           f"|binet_cauchy - sin Theta| <= {worst_bc:.1e}")


# ---------------------------------------------------------------------------
# Criterion 8: CLI end to end.
# ---------------------------------------------------------------------------

def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    rc = main(["verify"])
    capsys.readouterr()
    assert rc == 0, "verify on the built-in corpus must exit 0"

    doc = {
        "field": "real",
        "ambient_dim": 5,
        "subspaces": [
            {"id": "line", "vectors": [[1, 0, 1, 0, 0]]},
            {"id": "plane", "vectors": [[1, 0, 1, 0, 0], [0, 1, 0, 0, 0]]},
            {"id": "other", "vectors": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
                                        [0, 0, 1, 0, -1]]},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    checked = []
    for metric in ("fubini_study", "geodesic", "projection_2norm"):
        rc = main(["matrix", str(path), "--metric", metric])
        out = capsys.readouterr().out
        assert rc == 0
        values = np.array(json.loads(out)["values"])
        assert abs(values[0, 1]) <= 1e-9          # line inside plane
        diam = METRICS[metric].diam(2)            # plane cannot fit in line
        assert values[1, 0] == pytest.approx(diam, abs=1e-12)
        assert np.allclose(np.diag(values), 0, atol=1e-9)
        checked.append(metric)
    report("criterion 8 (CLI end to end)", True,
           f"verify exit 0; asymmetric matrix conventions hold for "
           f"{', '.join(checked)}")
