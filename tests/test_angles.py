import itertools
import math

import numpy as np
import pytest

from grassdist import corpus
from grassdist.angles import (AngleRoute, _cos2_theta, _gram_blocks, _sin2_psi,
                              _sin2_upsilon, angle_report, asymmetric_angle,
                              disjointness_angle, orthogonal_partition_check,
                              projection_factor, pythagorean_sum,
                              supplementation_angle)
from grassdist.errors import DegenerateBasisError, DimensionError
from grassdist.metrics import asymmetric_distance
from grassdist.numerics import DEFAULT_TOL, Field, Tolerance, clamp_cosine
from grassdist.subspace import (Subspace, orthogonal_complement,
                                principal_angles, random_subspace,
                                random_unitary, underlying_real)

from conftest import (random_matrix, real_complex_sides, sine_identity_sides,
                      spherical_pythagorean_sides)

R = Field.REAL
C = Field.COMPLEX
ROUTES = [AngleRoute.PRINCIPAL, AngleRoute.GRAM, AngleRoute.EXTERIOR]


def sub(cols, field=R):
    return Subspace.from_columns(cols, field)


class TestGoldenCorpus:
    @pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.value)
    def test_all_golden_values(self, route):
        for g in corpus.corpus():
            rep = angle_report(g.v, g.w, route)
            checks = [
                (g.theta_vw, rep.theta_vw),
                (g.theta_wv, rep.theta_wv),
                (g.upsilon, rep.upsilon),
                (g.psi, rep.psi),
            ]
            for want, got in checks:
                if want is not None:
                    assert got == pytest.approx(want, abs=1e-7), g.name

    def test_gram_route_on_raw_bases(self):
        # the spanning sets of the paper examples, without orthonormalizing
        c2 = _cos2_theta(*_gram_blocks(corpus.DISTINCT_DIM_V,
                                       corpus.DISTINCT_DIM_W, R))
        assert c2 == pytest.approx(0.5, abs=1e-12)
        c2 = _cos2_theta(*_gram_blocks(corpus.DISTINCT_DIM_W,
                                       corpus.DISTINCT_DIM_V, R))
        assert c2 == pytest.approx(0.0, abs=1e-12)
        c2 = _cos2_theta(*_gram_blocks(corpus.FORMULA_BASES_V,
                                       corpus.FORMULA_BASES_W, C))
        assert c2 == pytest.approx(1 / 3, abs=1e-12)
        s2 = _sin2_upsilon(*_gram_blocks(corpus.DISTINCT_DIM_V,
                                         corpus.DISTINCT_DIM_W, R))
        assert s2 == pytest.approx(0.5, abs=1e-12)
        s2 = _sin2_upsilon(*_gram_blocks(corpus.BLADES_A, corpus.BLADES_B, R))
        assert s2 == pytest.approx(17 / 36, abs=1e-12)

    def test_psi_gram_route_on_raw_bases(self):
        # determinant-sum formula needs an orthonormal w-basis
        w = np.eye(3, dtype=complex)[:, :2]
        w[1, 1] = np.exp(2j * np.pi / 3)
        w[:, 1] /= np.linalg.norm(w[:, 1])
        s2 = _sin2_psi(*_gram_blocks(corpus.FORMULA_BASES_V, w, C))
        assert s2 == pytest.approx(2 / 3, abs=1e-12)
        s2 = _sin2_psi(*_gram_blocks(corpus.R4_PLANES_V, corpus.R4_PLANES_W, R))
        assert s2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("chunk_bytes", [1, 3072, None],
                             ids=["one-per-chunk", "few-per-chunk", "default"])
    def test_psi_gram_route_sums_its_minors_in_order_in_any_chunk_size(
            self, monkeypatch, field, chunk_bytes):
        # n = 8, p = 4, q = 7: C(7, 4) = 35 minors, batched in chunks; the
        # sum takes them one at a time in subset order, as a loop would
        import grassdist.angles as angles_mod
        v = random_subspace(8, 4, field, 3).basis
        w = random_subspace(8, 7, field, 4).basis
        unit_v, unit_w, *_, det_a = angles_mod._gram_blocks(v, w, field)
        total = 0.0
        for rows in itertools.combinations(range(7), 4):
            m = np.concatenate([unit_v, unit_w[:, rows]], axis=1)
            total += abs(np.linalg.det(m)) ** 2
        if chunk_bytes is not None:
            monkeypatch.setattr(angles_mod, "_PSI_CHUNK_BYTES", chunk_bytes)
        assert _sin2_psi(*_gram_blocks(v, w, field)) == clamp_cosine(total / det_a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-80, 1e80, 1e300])
    def test_gram_route_is_scale_free(self, rng, scale):
        v = random_matrix(rng, 6, 2, R)
        w = random_matrix(rng, 6, 3, R)
        v3 = random_matrix(rng, 6, 3, R)
        w4 = random_subspace(6, 4, R, 7).basis
        for fn, a, b, scaled in [
            (_cos2_theta, v, w, (v * scale, w * scale)),
            (_sin2_upsilon, v, w, (v * scale, w * scale)),
            (_sin2_psi, v3, w4, (v3 * scale, w4)),
        ]:
            want = fn(*_gram_blocks(a, b, R))
            assert 0.0 < want < 1.0, fn.__name__
            assert fn(*_gram_blocks(*scaled, R)) == pytest.approx(want, abs=1e-12), \
                fn.__name__

    def test_zero_column_rejected(self):
        with pytest.raises(DegenerateBasisError):
            _cos2_theta(*_gram_blocks(np.zeros((3, 1)), np.eye(3)[:, :2], R))
        with pytest.raises(DegenerateBasisError):
            _sin2_upsilon(*_gram_blocks(np.eye(3)[:, :1], np.zeros((3, 2)), R))

    def test_singular_gram_rejected(self):
        dependent = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(DegenerateBasisError):
            _cos2_theta(*_gram_blocks(np.eye(3)[:, :1], dependent, R))
        with pytest.raises(DegenerateBasisError):
            _cos2_theta(*_gram_blocks(dependent, np.eye(3)[:, :1], R))


class TestConventions:
    @pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.value)
    def test_zero_and_dimension_conventions(self, route, field):
        z = Subspace.zero(4, field)
        v = random_subspace(4, 2, field, 1)
        x = Subspace.full(4, field)
        assert angle_report(z, v, route).theta_vw == pytest.approx(0)
        assert angle_report(v, z, route).theta_vw == pytest.approx(math.pi / 2)
        assert angle_report(z, z, route).theta_vw == pytest.approx(0)
        assert angle_report(z, v, route).upsilon == pytest.approx(math.pi / 2)
        assert angle_report(v, z, route).upsilon == pytest.approx(math.pi / 2)
        assert angle_report(v, x, route).psi == pytest.approx(math.pi / 2)
        assert angle_report(z, v, route).psi == pytest.approx(0)

    def test_equal_subspaces(self, field):
        v = random_subspace(5, 3, field, 2)
        assert asymmetric_angle(v, v) < DEFAULT_TOL.angle_tol

    def test_theta_zero_iff_contained(self, rng, field):
        w = random_subspace(6, 4, field, 3)
        v = Subspace(6, field, w.basis[:, :2])
        assert asymmetric_angle(v, w) < DEFAULT_TOL.angle_tol
        assert asymmetric_angle(w, v) == pytest.approx(math.pi / 2)

    def test_theta_right_angle_iff_partially_orthogonal(self, rng, field):
        from grassdist.subspace import is_partially_orthogonal
        for seed in range(5):
            v = random_subspace(5, int(rng.integers(1, 5)), field, seed)
            w = random_subspace(5, int(rng.integers(1, 5)), field, seed + 100)
            right = asymmetric_angle(v, w) > math.pi / 2 - 1e-9
            assert right == is_partially_orthogonal(v, w)


def _line_pair(angle, field):
    """Two lines of the field's 3-space at the given angle, built exactly
    in coordinates; over C the second line carries a phase."""
    u = np.zeros((3, 1), dtype=field.dtype)
    u[0] = 1
    x = np.zeros((3, 1), dtype=field.dtype)
    x[0] = math.cos(angle)
    x[1] = math.sin(angle) * (1j if field is C else 1)
    return Subspace.from_columns(u, field), Subspace.from_columns(x, field)


def _within_ulps(got, want, ulps=4):
    return abs(got - want) <= ulps * math.ulp(want)


class TestSmallAngles:
    """The derivations from the principal angles keep small angles: none
    reads an angle back from a product near 1."""

    @pytest.mark.parametrize("angle", [1e-12, 1e-10, 5e-9, 5e-8, 7e-8, 1e-6, 1e-2])
    def test_line_pair(self, angle, field):
        v, w = _line_pair(angle, field)
        cos = math.cos(angle)
        assert _within_ulps(asymmetric_angle(v, w), angle)
        assert _within_ulps(asymmetric_distance("fubini_study", v, w), angle)
        assert _within_ulps(disjointness_angle(v, w), angle)
        assert _within_ulps(asymmetric_distance("binet_cauchy", v, w),
                            math.sin(angle))
        assert _within_ulps(asymmetric_distance("chordal_wedge", v, w),
                            2 * math.sin(angle / 2))
        assert _within_ulps(projection_factor(v, w),
                            cos if field is R else cos * cos)

    def test_upsilon_near_right_angle(self, field):
        angle = math.pi / 2 - 1e-8
        v, w = _line_pair(angle, field)
        assert _within_ulps(disjointness_angle(v, w), angle)

    def test_two_small_angles(self):
        a, b = 1e-8, 2e-8
        e = np.eye(6)
        v = Subspace.from_columns(e[:, :2], R)
        w = Subspace.from_columns(np.stack(
            [math.cos(a) * e[:, 0] + math.sin(a) * e[:, 2],
             math.cos(b) * e[:, 1] + math.sin(b) * e[:, 3]], axis=1), R)
        sa2, sb2 = math.sin(a) ** 2, math.sin(b) ** 2
        want = math.asin(math.sqrt(sa2 + sb2 - sa2 * sb2))
        assert asymmetric_angle(v, w) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n, field", [(5, R), (4, C)], ids=["R5", "C4"])
    def test_theta_is_the_fubini_study_extension(self, n, field):
        pairs = [(g.v, g.w) for g in corpus.corpus()]
        pairs += [(g.w, g.v) for g in corpus.corpus()]
        for p, q in itertools.product(range(n + 1), repeat=2):
            pairs.append((random_subspace(n, p, field, 40 + p),
                          random_subspace(n, q, field, 50 + q)))
        for v, w in pairs:
            assert asymmetric_angle(v, w) == asymmetric_distance(
                "fubini_study", v, w)


class TestRouteAgreement:
    def test_random_pairs(self, rng, field):
        for seed in range(25):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(0, n + 1))
            q = int(rng.integers(0, n + 1))
            v = random_subspace(n, p, field, 1000 + seed)
            w = random_subspace(n, q, field, 2000 + seed)
            reports = [angle_report(v, w, route) for route in ROUTES]
            for key in ("theta_vw", "upsilon", "psi"):
                vals = [getattr(rep, key) for rep in reports]
                assert max(vals) - min(vals) < 1e-8, (key, n, p, q)


def _order_sweep(n, field):
    """{0}, two lines, two planes, two subspaces of dimension n // 2 (the
    equal dimensions), a hyperplane and the whole space of F^n."""
    dims = [0, 1, 1, 2, 2, n // 2, n // 2, n - 1, n]
    return [random_subspace(n, d, field, 100 * n + k) for k, d in enumerate(dims)]


class TestArgumentOrder:
    # The exterior route is left out: its Upsilon and Psi come from the
    # coordinates of one direction, V's in a basis adapted to W, so the two
    # orders agree only to roundoff.
    @pytest.mark.parametrize("route", [AngleRoute.PRINCIPAL, AngleRoute.GRAM],
                             ids=lambda r: r.value)
    @pytest.mark.parametrize("n, field", [(3, R), (5, R), (8, R), (3, C), (5, C)],
                             ids=["R3", "R5", "R8", "C3", "C5"])
    def test_swapping_the_arguments_swaps_the_thetas_bit_for_bit(self, route, n,
                                                                 field):
        for v, w in itertools.combinations(_order_sweep(n, field), 2):
            vw, wv = angle_report(v, w, route), angle_report(w, v, route)
            assert (wv.theta_vw, wv.theta_wv) == (vw.theta_wv, vw.theta_vw)
            assert (wv.upsilon, wv.psi) == (vw.upsilon, vw.psi)
            assert wv.principal_angles == vw.principal_angles

    def test_gram_psi_sums_the_fewer_minors_in_either_order(self, monkeypatch):
        # dims 10 and 19 in R^20: Psi sums C(10, 1) = 10 minors, not the
        # C(19, 10) = 92,378 of the other order
        import grassdist.angles as angles_mod
        rows = []
        original = angles_mod._subsets

        def counted(n, k):
            subsets = original(n, k)
            rows.append(len(subsets))
            return subsets

        monkeypatch.setattr(angles_mod, "_subsets", counted)
        v = random_subspace(20, 10, R, 1)
        w = random_subspace(20, 19, R, 2)
        for a, b in ((v, w), (w, v)):
            rows.clear()
            rep = angle_report(a, b, AngleRoute.GRAM)
            assert sum(rows) == 10
            assert rep.psi == pytest.approx(supplementation_angle(a, b), abs=1e-8)


class TestProjectionFactor:
    def test_real_paper_pair_area_contraction(self):
        v, w = sub(corpus.REAL_PA_V), sub(corpus.REAL_PA_W)
        assert projection_factor(v, w) == pytest.approx(0.5, abs=1e-12)

    def test_complex_paper_pair(self):
        v, w = sub(corpus.COMPLEX_PA_V, C), sub(corpus.COMPLEX_PA_W, C)
        assert projection_factor(v, w) == pytest.approx(1 / 8, abs=1e-12)

    def test_contained(self, field):
        w = random_subspace(5, 3, field, 4)
        v = Subspace(5, field, w.basis[:, :1])
        assert projection_factor(v, w) == pytest.approx(1, abs=1e-7)


class TestRealComplexRelation:
    def test_paper_pair(self):
        v, w = sub(corpus.COMPLEX_PA_V, C), sub(corpus.COMPLEX_PA_W, C)
        lhs, rhs = real_complex_sides(v, w)
        assert lhs == pytest.approx(1 / 8, abs=1e-9)
        assert rhs == pytest.approx(1 / 8, abs=1e-9)
        theta_r = asymmetric_angle(underlying_real(v), underlying_real(w))
        assert math.degrees(theta_r) == pytest.approx(82.819, abs=5e-3)

    def test_random_pairs_agree(self, rng):
        for seed in range(10):
            v = random_subspace(3, int(rng.integers(1, 3)), C, 300 + seed)
            w = random_subspace(3, int(rng.integers(1, 4)), C, 400 + seed)
            lhs, rhs = real_complex_sides(v, w)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_contained(self):
        w = random_subspace(4, 3, C, 5)
        v = Subspace(4, C, w.basis[:, :2])
        lhs, rhs = real_complex_sides(v, w)
        assert lhs == pytest.approx(1, abs=1e-9)
        assert rhs == pytest.approx(1, abs=1e-9)

    def test_real_rejected(self):
        # the relation reads the underlying real space of a complex one
        v = random_subspace(3, 1, R, 6)
        with pytest.raises(DimensionError):
            underlying_real(v)


class TestUpsilonPsiStructure:
    def test_symmetry(self, rng, field):
        for seed in range(8):
            v = random_subspace(6, int(rng.integers(1, 6)), field, 500 + seed)
            w = random_subspace(6, int(rng.integers(1, 6)), field, 600 + seed)
            assert disjointness_angle(v, w) == pytest.approx(
                disjointness_angle(w, v), abs=1e-9)
            assert supplementation_angle(v, w) == pytest.approx(
                supplementation_angle(w, v), abs=1e-9)

    def test_upsilon_zero_iff_intersecting(self, rng, field):
        q = random_unitary(6, field, 7)
        v = Subspace(6, field, q[:, :3])
        w = Subspace(6, field, q[:, 2:5])
        assert disjointness_angle(v, w) < 1e-7
        v2 = random_subspace(6, 2, field, 8)
        w2 = random_subspace(6, 3, field, 9)
        assert disjointness_angle(v2, w2) > 1e-3  # generic pair is disjoint

    def test_psi_zero_iff_not_supplementary(self, field):
        v = random_subspace(6, 2, field, 10)
        w = random_subspace(6, 3, field, 11)
        assert supplementation_angle(v, w) == 0.0  # p + q < n
        v3 = random_subspace(6, 3, field, 12)
        w3 = random_subspace(6, 4, field, 13)
        assert supplementation_angle(v3, w3) > 1e-3

    def test_psi_equals_upsilon_when_dims_complementary(self, rng, field):
        v = random_subspace(6, 2, field, 14)
        w = random_subspace(6, 4, field, 15)
        assert supplementation_angle(v, w) == pytest.approx(
            disjointness_angle(v, w), abs=1e-9)

    def test_intersection_counted_from_angles(self):
        # a plane V and a 4-space W of R^6 with principal angles eps and 0.7:
        # dim(V & W) counts the angles below angle_tol, so psi is
        # asin(sin eps sin 0.7) to within angle_tol on both sides of the
        # cutoff, and the fragile band [angle_tol, 1e-6) is flagged
        tol = Tolerance()
        q = random_unitary(6, R, 1)
        w = Subspace(6, R, q[:, :4])
        for eps in np.logspace(-12, -5, 50):
            v = Subspace(6, R, np.stack(
                [math.cos(eps) * q[:, 0] + math.sin(eps) * q[:, 4],
                 math.cos(0.7) * q[:, 1] + math.sin(0.7) * q[:, 5]], axis=1))
            report = angle_report(v, w)
            exact = math.asin(math.sin(eps) * math.sin(0.7))
            assert abs(report.psi - exact) <= tol.angle_tol, eps
            theta_1 = report.principal_angles[0]
            assert report.psi_ill_conditioned == (
                tol.angle_tol <= theta_1 < 1e-6), eps
            assert supplementation_angle(v, w) == report.psi

    def test_definitions_via_complements(self, rng, field):
        # Upsilon = pi/2 - Theta(V, W-perp), Psi = pi/2 - Theta(V-perp, W)
        for seed in range(6):
            v = random_subspace(6, int(rng.integers(1, 6)), field, 700 + seed)
            w = random_subspace(6, int(rng.integers(1, 6)), field, 800 + seed)
            assert disjointness_angle(v, w) == pytest.approx(
                math.pi / 2 - asymmetric_angle(v, orthogonal_complement(w)),
                abs=1e-9)
            assert supplementation_angle(v, w) == pytest.approx(
                math.pi / 2 - asymmetric_angle(orthogonal_complement(v), w),
                abs=1e-9)

    def test_ordering_bounds(self, rng, field):
        for seed in range(8):
            v = random_subspace(5, int(rng.integers(1, 5)), field, 900 + seed)
            w = random_subspace(5, int(rng.integers(1, 5)), field, 950 + seed)
            theta = principal_angles(v, w)
            nonzero = theta[theta > 1e-9]
            if len(nonzero) == 0:
                continue
            bound = max(disjointness_angle(v, w), supplementation_angle(v, w))
            assert bound <= nonzero.min() + 1e-9
            assert nonzero.max() <= asymmetric_angle(v, w) + 1e-9


class TestThetaProperties:
    def test_perp_duality(self, rng, field):
        for seed in range(8):
            v = random_subspace(6, int(rng.integers(1, 6)), field, 1100 + seed)
            w = random_subspace(6, int(rng.integers(1, 6)), field, 1200 + seed)
            lhs = asymmetric_angle(orthogonal_complement(v),
                                   orthogonal_complement(w))
            assert lhs == pytest.approx(asymmetric_angle(w, v), abs=1e-9)

    def test_padding_invariance(self, rng, field):
        v = random_subspace(8, 2, field, 16)
        w = random_subspace(8, 3, field, 17)
        vw = Subspace.from_columns(np.concatenate([v.basis, w.basis], axis=1), field)
        comp = orthogonal_complement(vw)
        u = Subspace(8, field, comp.basis[:, :2])
        padded = Subspace(8, field, np.concatenate([w.basis, u.basis], axis=1))
        assert asymmetric_angle(v, padded) == pytest.approx(
            asymmetric_angle(v, w), abs=1e-9)

    def test_unitary_invariance(self, rng, field):
        v = random_subspace(6, 3, field, 18)
        w = random_subspace(6, 2, field, 19)
        t = random_unitary(6, field, 20)
        tv, tw = Subspace(6, field, t @ v.basis), Subspace(6, field, t @ w.basis)
        for fn in (asymmetric_angle, disjointness_angle, supplementation_angle):
            assert fn(tv, tw) == pytest.approx(fn(v, w), abs=1e-9)

    def test_monotonicity(self, rng, field):
        n, p, q = 7, 3, 5
        v = random_subspace(n, p, field, 21)
        w = random_subspace(n, q, field, 22)
        mix = np.linalg.qr(random_matrix(rng, q, 4, field))[0]
        w_sub = Subspace(n, field, w.basis @ mix)
        assert asymmetric_angle(v, w_sub) >= asymmetric_angle(v, w) - 1e-9
        mixv = np.linalg.qr(random_matrix(rng, p, 2, field))[0]
        v_sub = Subspace(n, field, v.basis @ mixv)
        assert asymmetric_angle(v_sub, w) <= asymmetric_angle(v, w) + 1e-9

    def test_extrema_via_projective_split(self, rng, field):
        from grassdist.subspace import projective_split
        v = random_subspace(7, 2, field, 23)
        w = random_subspace(7, 4, field, 24)
        w_p, w_perp = projective_split(v, w)
        assert asymmetric_angle(v, w_p) == pytest.approx(
            asymmetric_angle(v, w), abs=1e-9)
        v_plus = Subspace(7, field, np.concatenate([v.basis, w_perp.basis], axis=1))
        assert asymmetric_angle(v_plus, w) == pytest.approx(
            asymmetric_angle(v, w), abs=1e-9)

    def test_line_triangle_equality_witness(self, rng, field):
        # aligned u, v, w with v = kappa*u + lambda*w attain equality
        for seed in range(6):
            r2 = np.random.default_rng(seed)
            n = 5
            q = random_unitary(n, field, 3000 + seed)
            alpha = r2.uniform(0.2, 1.3)
            u = q[:, 0]
            w = math.cos(alpha) * q[:, 0] + math.sin(alpha) * q[:, 1]
            kappa, lam = r2.uniform(0.3, 2, size=2)
            v = kappa * u + lam * w
            ju = Subspace.from_columns(u.reshape(-1, 1), field)
            jv = Subspace.from_columns(v.reshape(-1, 1), field)
            jw = Subspace.from_columns(w.reshape(-1, 1), field)
            lhs = asymmetric_angle(ju, jw)
            rhs = asymmetric_angle(ju, jv) + asymmetric_angle(jv, jw)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPythagoreanSum:
    def test_complex_plane_example(self):
        v = sub(corpus.PYTHAGORAS_C2_V, C)
        w1 = Subspace.from_columns(np.eye(2, dtype=complex)[:, :1], C)
        w2 = Subspace.from_columns(np.eye(2, dtype=complex)[:, 1:], C)
        assert asymmetric_angle(v, w1) == pytest.approx(math.pi / 3, abs=1e-12)
        assert asymmetric_angle(v, w2) == pytest.approx(math.pi / 6, abs=1e-12)
        total = pythagorean_sum(v, np.eye(2, dtype=complex))
        assert total == pytest.approx(1, abs=1e-9)

    def test_underlying_real_version(self):
        from grassdist.subspace import underlying_real
        v = underlying_real(sub(corpus.PYTHAGORAS_C2_V, C))
        total = pythagorean_sum(v, np.eye(4))
        assert total == pytest.approx(1, abs=1e-9)
        want = sorted([math.degrees(math.acos(x))
                       for x in (0.25, math.sqrt(3) / 4, math.sqrt(3) / 4,
                                 0.0, 0.0, 0.75)])
        got = sorted(
            math.degrees(asymmetric_angle(
                v, Subspace.from_columns(np.eye(4)[:, list(c)], R)))
            for c in itertools.combinations(range(4), 2))
        np.testing.assert_allclose(got, want, atol=0.05)

    def test_symmetric_c3_example(self):
        v = sub(corpus.FORMULA_BASES_V, C)
        xi = np.exp(2j * np.pi / 3)
        basis = np.diag([1, xi, xi ** 2]).astype(complex)
        for combo in itertools.combinations(range(3), 2):
            w = Subspace.from_columns(basis[:, list(combo)], C)
            assert math.cos(asymmetric_angle(v, w)) == pytest.approx(
                1 / math.sqrt(3), abs=1e-9)
        assert pythagorean_sum(v, basis) == pytest.approx(1, abs=1e-9)

    def test_coordinate_subspace(self):
        v = Subspace.from_columns(np.eye(4)[:, :2], R)
        assert pythagorean_sum(v, np.eye(4)) == pytest.approx(1, abs=1e-12)

    def test_random(self, rng, field):
        v = random_subspace(6, 3, field, 25)
        basis = random_unitary(6, field, 26)
        assert pythagorean_sum(v, basis) == pytest.approx(1, abs=1e-9)

    def test_rejects_non_orthonormal_basis(self):
        v = random_subspace(3, 1, R, 27)
        with pytest.raises(DimensionError):
            pythagorean_sum(v, np.full((3, 3), 0.5))


class TestSineIdentity:
    def test_paper_example(self):
        v, w = sub(corpus.REAL_PA_V), sub(corpus.REAL_PA_W)
        total, sin2 = sine_identity_sides(v, w)
        assert total == pytest.approx(0.75, abs=1e-9)
        assert sin2 == pytest.approx(0.75, abs=1e-9)

    def test_contained(self, field):
        w = random_subspace(5, 3, field, 28)
        v = Subspace(5, field, w.basis[:, :2])
        total, sin2 = sine_identity_sides(v, w)
        assert total == pytest.approx(0, abs=1e-9)
        assert sin2 == pytest.approx(0, abs=1e-9)

    def test_random(self, rng, field):
        v = random_subspace(5, 2, field, 29)
        w = random_subspace(5, 3, field, 30)
        total, sin2 = sine_identity_sides(v, w)
        assert total == pytest.approx(sin2, abs=1e-9)


class TestSphericalPythagorean:
    def test_w_sub_equals_w(self, rng, field):
        v = random_subspace(6, 2, field, 31)
        w = random_subspace(6, 4, field, 32)
        lhs, rhs = spherical_pythagorean_sides(v, w, w)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_random_subspace_of_w(self, rng, field):
        for seed in range(6):
            v = random_subspace(6, 2, field, 3300 + seed)
            w = random_subspace(6, 4, field, 3400 + seed)
            mix = np.linalg.qr(random_matrix(rng, 4, 2, field))[0]
            w_sub = Subspace(6, field, w.basis @ mix)
            lhs, rhs = spherical_pythagorean_sides(v, w, w_sub)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_containment_enforced(self):
        # the identity holds for W' inside W; a random plane is not
        w = random_subspace(6, 3, R, 34)
        other = random_subspace(6, 2, R, 35)
        assert not w.contains(other)
        assert w.contains(Subspace(6, R, w.basis[:, 1:]))


class TestOrthogonalPartition:
    def test_random(self, rng, field):
        for seed in range(6):
            q = random_unitary(6, field, 3600 + seed)
            v1 = Subspace(6, field, q[:, :2])
            v2 = Subspace(6, field, q[:, 2:3])
            w = random_subspace(6, 4, field, 3700 + seed)
            lhs, rhs = orthogonal_partition_check(v1, v2, w)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_v1_orthogonal_to_w_gives_zero(self):
        v1 = Subspace.from_columns(np.eye(5)[:, :1], R)
        v2 = Subspace.from_columns(np.eye(5)[:, 1:2], R)
        w = Subspace.from_columns(np.eye(5)[:, 2:4], R)
        lhs, rhs = orthogonal_partition_check(v1, v2, w)
        assert lhs == pytest.approx(0, abs=1e-12)
        assert rhs == pytest.approx(0, abs=1e-12)

    def test_non_orthogonal_rejected(self):
        v = random_subspace(5, 2, R, 36)
        with pytest.raises(DimensionError):
            orthogonal_partition_check(v, v, random_subspace(5, 2, R, 37))


class TestAngleReport:
    def test_report_contents(self):
        v, w = sub(corpus.BLADES_A), sub(corpus.BLADES_B)
        rep = angle_report(v, w)
        assert rep.dims == (2, 2, 5)
        assert rep.theta_vw == pytest.approx(math.acos(1 / 6), abs=1e-9)
        assert rep.upsilon == pytest.approx(math.asin(math.sqrt(17) / 6), abs=1e-9)
        assert rep.psi == 0.0
        assert len(rep.principal_angles) == 2
        assert not rep.psi_ill_conditioned

    def test_invariant_ordering(self, rng, field):
        v = random_subspace(5, 2, field, 38)
        w = random_subspace(5, 3, field, 39)
        rep = angle_report(v, w)
        nz = [t for t in rep.principal_angles if t > 1e-9]
        assert max(rep.upsilon, rep.psi) <= min(nz) + 1e-9
        assert max(nz) <= rep.theta_vw + 1e-9

    def test_fields_equal_standalone_functions(self, field):
        # {0}, the full space, p > q, p = q and p < q, in both orders
        subs = [random_subspace(5, d, field, 60 + d) for d in range(6)]
        subs.append(random_subspace(5, 2, field, 70))
        for v, w in itertools.product(subs, repeat=2):
            rep = angle_report(v, w)
            assert rep.theta_vw == asymmetric_angle(v, w)
            assert rep.theta_wv == asymmetric_angle(w, v)
            assert rep.upsilon == disjointness_angle(v, w)
            assert rep.psi == supplementation_angle(v, w)
