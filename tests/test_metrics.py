import math

import numpy as np
import pytest

from grassdist import corpus
from grassdist.angles import asymmetric_angle
from grassdist.errors import DimensionError
from grassdist.metrics import (DIAGNOSTICS, METRICS,
                               asymmetric_distance, containment_gap,
                               diagnostic_quantities, directional_distance,
                               equal_dim_distance, gap, make_equality_triple,
                               symmetric_distance, symmetrize)
from grassdist.numerics import Field
from grassdist.subspace import (Subspace, principal_angles, random_subspace,
                                random_unitary)

R = Field.REAL
C = Field.COMPLEX
HALF_PI = math.pi / 2


def sub(cols, field=R):
    return Subspace.from_columns(cols, field)


class TestDescriptors:
    def test_prefix_zero_consistency(self, rng):
        theta = rng.uniform(0, HALF_PI, size=3)
        theta.sort()
        padded = np.concatenate([np.zeros(2), theta])
        for desc in METRICS.values():
            assert desc.f_p(padded) == pytest.approx(desc.f_p(theta), abs=1e-12)

    def test_monotone_in_each_angle(self, rng):
        theta = np.sort(rng.uniform(0.1, HALF_PI - 0.1, size=4))
        for desc in METRICS.values():
            base = desc.f_p(theta)
            for i in range(4):
                bumped = theta.copy()
                bumped[i] += 0.05
                assert desc.f_p(np.sort(bumped)) >= base - 1e-12

    def test_diam_monotone_in_p(self):
        for desc in METRICS.values():
            diams = [desc.diam(p) for p in range(1, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(diams, diams[1:]))


class TestEqualDimDistance:
    def test_derived_45_45_values(self):
        # the 45/45-degree pair, target truncated to its first two
        # principal directions so dimensions match
        v = sub(corpus.REAL_PA_V)
        w = sub(np.eye(5)[:, :2])
        theta = principal_angles(v, w)
        np.testing.assert_allclose(theta, [math.pi / 4, math.pi / 4], atol=1e-12)
        expect = {
            "geodesic": math.sqrt(2) * math.pi / 4,
            "chordal_frobenius": 2 * math.sqrt(2) * math.sin(math.pi / 8),
            "projection_frobenius": 1.0,
            "fubini_study": math.pi / 3,
            "chordal_wedge": 1.0,
            "binet_cauchy": math.sqrt(3) / 2,
            "asimov": math.pi / 4,
            "chordal_2norm": 2 * math.sin(math.pi / 8),
            "projection_2norm": math.sqrt(2) / 2,
        }
        for name, want in expect.items():
            assert equal_dim_distance(name, v, w) == pytest.approx(want, abs=1e-12)

    def test_identical_subspaces_all_zero(self, field):
        v = random_subspace(5, 3, field, 1)
        for name in METRICS:
            assert equal_dim_distance(name, v, v) == pytest.approx(0, abs=1e-7)

    def test_wedge_family_vs_theta(self, rng, field):
        for seed in range(5):
            v = random_subspace(6, 3, field, 100 + seed)
            w = random_subspace(6, 3, field, 200 + seed)
            th = asymmetric_angle(v, w)
            assert equal_dim_distance("binet_cauchy", v, w) == pytest.approx(
                math.sin(th), abs=1e-9)
            assert equal_dim_distance("chordal_wedge", v, w) == pytest.approx(
                2 * math.sin(th / 2), abs=1e-9)
            assert equal_dim_distance("fubini_study", v, w) == pytest.approx(
                th, abs=1e-9)

    def test_dim_mismatch_rejected(self):
        v = random_subspace(4, 1, R, 2)
        w = random_subspace(4, 2, R, 3)
        with pytest.raises(DimensionError):
            equal_dim_distance("geodesic", v, w)


class TestAsymmetricExtension:
    def test_fubini_study_on_paper_pair(self):
        v, w = sub(corpus.REAL_PA_V), sub(corpus.REAL_PA_W)
        assert asymmetric_distance("fubini_study", v, w) == pytest.approx(
            math.pi / 3, abs=1e-9)
        # dim V > dim W: the diameter
        assert asymmetric_distance("fubini_study", w, v) == HALF_PI

    def test_containment_and_zero_cases(self, field):
        w = random_subspace(5, 3, field, 4)
        v = Subspace(5, field, w.basis[:, :2])
        z = Subspace.zero(5, field)
        assert asymmetric_distance("projection_2norm", v, w) == pytest.approx(
            0, abs=1e-8)
        assert asymmetric_distance("geodesic", z, w) == 0.0
        assert asymmetric_distance("geodesic", w, z) == pytest.approx(
            HALF_PI * math.sqrt(3))

    @pytest.mark.parametrize("name", sorted(METRICS))
    @pytest.mark.parametrize("p, q", [(0, 0), (0, 3), (3, 1), (4, 0), (2, 2),
                                      (4, 4), (1, 3), (2, 4)])
    def test_each_dimension_case_is_a_plain_float(self, name, p, q, field):
        # 0 from {0}, the diameter when p > q, f_p of the angles otherwise:
        # each the exact float that formula gives, with nothing around it
        desc = METRICS[name]
        v = random_subspace(4, p, field, 10 + p)
        w = random_subspace(4, q, field, 20 + q)
        got = asymmetric_distance(name, v, w)
        assert type(got) is float
        if p == 0:
            assert got == 0.0
        elif p > q:
            assert got == desc.diam(p)
        else:
            assert got == desc.f_p(principal_angles(v, w))

    def test_geodesic_diameter_exact(self, field):
        v = random_subspace(6, 4, field, 5)
        w = random_subspace(6, 2, field, 6)
        assert asymmetric_distance("geodesic", v, w) == HALF_PI * math.sqrt(4)

    def test_extension_consistency_identities(self, rng, field):
        for seed in range(8):
            p = int(rng.integers(0, 6))
            q = int(rng.integers(0, 6))
            v = random_subspace(6, p, field, 300 + seed)
            w = random_subspace(6, q, field, 400 + seed)
            th = asymmetric_angle(v, w)
            assert asymmetric_distance("fubini_study", v, w) == \
                pytest.approx(th, abs=1e-9)
            assert asymmetric_distance("binet_cauchy", v, w) == \
                pytest.approx(math.sin(th), abs=1e-9)
            assert asymmetric_distance("projection_2norm", v, w) == \
                pytest.approx(containment_gap(v, w), abs=1e-9)


class TestFullGrassmannianDistances:
    def test_containment_gap_cases(self, rng, field):
        w = random_subspace(5, 3, field, 7)
        v = Subspace(5, field, w.basis[:, 1:3])
        assert containment_gap(v, w) == pytest.approx(0, abs=1e-8)
        assert containment_gap(w, v) == 1.0
        line = sub(corpus.DISTINCT_DIM_V)
        plane = sub(corpus.DISTINCT_DIM_W)
        assert containment_gap(line, plane) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-12)

    def test_gap_operator_norm_oracle(self, rng, field):
        for seed in range(6):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, 5))
            v = random_subspace(5, p, field, 500 + seed)
            w = random_subspace(5, q, field, 600 + seed)
            opnorm = np.linalg.norm(v.projector() - w.projector(), 2)
            assert gap(v, w) == pytest.approx(opnorm, abs=1e-9)
            if p != q:
                assert gap(v, w) == pytest.approx(1, abs=1e-9)
        v = random_subspace(5, 2, field, 8)
        assert gap(v, v) == pytest.approx(0, abs=1e-8)

    def test_gap_takes_one_kernel_call(self, monkeypatch, field):
        import grassdist.metrics as metrics_mod
        kernel = metrics_mod.principal_angles
        calls = []
        monkeypatch.setattr(metrics_mod, "principal_angles",
                            lambda v, w: calls.append(1) or kernel(v, w))
        subs = [random_subspace(5, d, field, 60 + d) for d in range(6)]
        subs.append(random_subspace(5, 2, field, 70))
        for v in subs:
            for w in subs:
                want = max(containment_gap(v, w), containment_gap(w, v))
                calls.clear()
                assert gap(v, w) == want
                assert len(calls) == (0 < v.dim == w.dim)
        with pytest.raises(DimensionError):
            gap(subs[1], random_subspace(4, 2, field, 1))

    def test_directional_distance(self, rng, field):
        w = random_subspace(6, 4, field, 9)
        v = Subspace(6, field, w.basis[:, :2])
        assert directional_distance(v, w) == pytest.approx(0, abs=1e-8)
        assert directional_distance(w, v) == pytest.approx(math.sqrt(2), abs=1e-8)
        plane = sub(np.eye(3)[:, :2])
        line = sub(np.eye(3)[:, 2:])
        assert directional_distance(plane, line) == pytest.approx(math.sqrt(2))

    def test_directional_matches_projector_arithmetic(self, rng, field):
        for seed in range(5):
            v = random_subspace(6, 3, field, 700 + seed)
            w = random_subspace(6, 4, field, 800 + seed)
            resid = v.basis - w.projector() @ v.basis
            want = np.linalg.norm(resid)
            assert directional_distance(v, w) == pytest.approx(want, abs=1e-9)

    def test_symmetric_distance(self, rng, field):
        w = random_subspace(5, 2, field, 10)
        v = Subspace(5, field, w.basis[:, :1])
        assert symmetric_distance(v, w) == pytest.approx(1.0, abs=1e-8)
        assert symmetric_distance(v, v) == pytest.approx(0, abs=1e-8)

    def test_symmetric_distance_oracles(self, rng, field):
        # equals max of the directional distances; the projector Frobenius
        # norm enters through |p - q| + 2 * sum(sin^2).  {0} and the whole
        # space go with every random pair, on both sides.
        zero, full = Subspace.zero(6, field), Subspace.full(6, field)
        pairs = []
        for seed in range(6):
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, 6))
            pairs.append((random_subspace(6, p, field, 900 + seed),
                          random_subspace(6, q, field, 950 + seed)))
        subs = [zero, full] + [s for pair in pairs for s in pair]
        pairs += [(a, b) for a in (zero, full) for b in subs]
        pairs += [(b, a) for a in (zero, full) for b in subs[2:]]
        for w in subs:
            assert directional_distance(zero, w) == 0.0
        for v, w in pairs:
            p, q = v.dim, w.dim
            ds = symmetric_distance(v, w)
            assert ds == pytest.approx(
                max(directional_distance(v, w), directional_distance(w, v)),
                abs=1e-9)
            fro2 = np.linalg.norm(v.projector() - w.projector()) ** 2
            assert ds == pytest.approx(
                math.sqrt((abs(p - q) + fro2) / 2), abs=1e-9)
            if p == q:
                assert ds == pytest.approx(math.sqrt(fro2 / 2), abs=1e-9)


class TestDiagnostics:
    def test_intersecting_pair(self, field):
        q = random_unitary(5, field, 11)
        v = Subspace(5, field, q[:, :2])
        w = Subspace(5, field, q[:, 1:4])
        d = diagnostic_quantities(v, w)
        assert d["max_correlation"] == pytest.approx(0, abs=1e-8)

    def test_partially_orthogonal_martin_infinite(self):
        v = sub(np.eye(4)[:, :2])
        w = sub(np.eye(4)[:, 2:3])
        d = diagnostic_quantities(v, w)
        assert math.isinf(d["martin"])

    def test_equal_subspaces(self, field):
        v = random_subspace(4, 2, field, 12)
        d = diagnostic_quantities(v, v)
        assert d["max_correlation"] == pytest.approx(0, abs=1e-8)
        assert d["martin"] == pytest.approx(0, abs=1e-7)

    @pytest.mark.parametrize("angle, want, rel", [
        (1e-9, 1e-9, 4 * 2.0 ** -52),
        # d(martin)/d(angle) ~ 1e8 / 6 here: one ulp of angle is ~6e-10 rel
        (HALF_PI - 1e-8, math.sqrt(-2 * math.log(math.cos(HALF_PI - 1e-8))), 1e-9)])
    def test_martin_at_both_ends(self, angle, want, rel):
        # a line pair at ``angle``: sqrt(-log cos^2) keeps a tiny angle
        # (positive, not -0.0) and stays finite just below the right angle
        v = sub(np.eye(3)[:, :1])
        w = sub(np.array([[math.cos(angle)], [math.sin(angle)], [0.0]]))
        martin = diagnostic_quantities(v, w)["martin"]
        assert math.copysign(1.0, martin) == 1.0
        assert martin == pytest.approx(want, rel=rel, abs=0)

    def test_names_exported(self):
        assert set(DIAGNOSTICS) == {"max_correlation", "martin"}


class TestSymmetrize:
    def test_max(self):
        assert symmetrize(math.pi / 3, HALF_PI, "max") == HALF_PI

    def test_mean(self):
        assert symmetrize(math.pi / 3, HALF_PI, "mean") == pytest.approx(
            math.radians(75))

    def test_equal_inputs(self):
        assert symmetrize(0.7, 0.7, "max") == 0.7
        assert symmetrize(0.7, 0.7, "mean") == 0.7

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            symmetrize(1, 1, "min")

    def test_matrix_and_its_transpose(self):
        d = np.array([[0.0, 0.3, 1.0], [0.5, 0.0, math.inf], [0.2, 0.4, 0.0]])
        for mode in ("max", "mean"):
            want = [[symmetrize(d[i, j], d[j, i], mode) for j in range(3)]
                    for i in range(3)]
            assert symmetrize(d, d.T, mode).tolist() == want
        d[0, 2] = -0.1
        with pytest.raises(ValueError):
            symmetrize(d, d.T, "max")


class TestEqualityTriple:
    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_equality_holds(self, field):
        for seed in range(10):
            u, v, w = make_equality_triple(2, 0.8, 1.5, seed, field=field)
            lhs = asymmetric_angle(u, w)
            rhs = asymmetric_angle(u, v) + asymmetric_angle(v, w)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_aligned_lines_case(self):
        u, v, w = make_equality_triple(0, 1.0, 1.0, 3, s_dim=0, t_dim=0)
        assert (u.dim, v.dim, w.dim) == (1, 1, 1)
        lhs = asymmetric_angle(u, w)
        rhs = asymmetric_angle(u, v) + asymmetric_angle(v, w)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_perturbation_breaks_equality(self):
        for seed in range(10):
            u, v, w = make_equality_triple(1, 1.0, 1.0, seed, perturbation=1e-2)
            defect = (asymmetric_angle(u, v) + asymmetric_angle(v, w)
                      - asymmetric_angle(u, w))
            assert defect > 1e-4

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_equality_triple(1, 0.0, 1.0, 0)
        with pytest.raises(DimensionError):
            make_equality_triple(2, 1.0, 1.0, 0, ambient_dim=3)

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_degenerate_equality_case_contained_target(self, field):
        # V inside W with P_W(U) inside V: the middle leg contributes 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q = random_unitary(7, field, seed)
            w = Subspace(7, field, q[:, :4])
            v = Subspace(7, field, q[:, :2])
            # U spanned by (v_i + z_i) with z_i orthogonal to W
            mix = (v.basis + q[:, 4:6] * rng.uniform(0.3, 1.5, size=2))
            u = Subspace.from_columns(mix, field)
            lhs = asymmetric_angle(u, w)
            rhs = asymmetric_angle(u, v) + asymmetric_angle(v, w)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_degenerate_equality_case_contained_source(self, field):
        # U inside V with the complement of U in V lying inside W
        for seed in range(5):
            q = random_unitary(7, field, 100 + seed)
            w = Subspace(7, field, q[:, :4])
            s = Subspace(7, field, q[:, :2])       # S inside W
            u = random_subspace(7, 1, field, 200 + seed)
            resid = u.basis - s.basis @ (s.basis.conj().T @ u.basis)
            u = Subspace.from_columns(resid, field)  # make U orthogonal to S
            v = Subspace(7, field, np.concatenate([u.basis, s.basis], axis=1))
            lhs = asymmetric_angle(u, w)
            rhs = asymmetric_angle(u, v) + asymmetric_angle(v, w)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestTriangleSampling:
    def test_small_axiom_sweep(self, rng, field):
        # the heavyweight sweep lives in the acceptance suite
        for seed in range(40):
            n = 5
            dims = rng.integers(0, n + 1, size=3)
            subs = [random_subspace(n, int(d), field, 1000 * seed + i)
                    for i, d in enumerate(dims)]
            for name, desc in METRICS.items():
                d_uw = asymmetric_distance(desc, subs[0], subs[2])
                d_uv = asymmetric_distance(desc, subs[0], subs[1])
                d_vw = asymmetric_distance(desc, subs[1], subs[2])
                assert d_uw <= d_uv + d_vw + 1e-8, name


class TestInequalityChains:
    def test_chains_on_random_pairs(self, rng, field):
        for seed in range(15):
            p = int(rng.integers(2, 4))
            v = random_subspace(6, p, field, 1100 + seed)
            w = random_subspace(6, p, field, 1200 + seed)
            d = {name: equal_dim_distance(name, v, w) for name in METRICS}
            # row chains
            assert HALF_PI * d["projection_frobenius"] >= d["geodesic"] - 1e-12
            assert d["geodesic"] > d["chordal_frobenius"] > d["projection_frobenius"]
            assert HALF_PI * d["binet_cauchy"] >= d["fubini_study"] - 1e-12
            assert d["fubini_study"] > d["chordal_wedge"] > d["binet_cauchy"]
            assert HALF_PI * d["projection_2norm"] >= d["asimov"] - 1e-12
            assert d["asimov"] > d["chordal_2norm"] > d["projection_2norm"]
            # column chains (generic pairs have dim(V & W) = 0 < p - 1)
            rootp = math.sqrt(p)
            assert rootp * d["asimov"] >= d["geodesic"] - 1e-12
            assert d["geodesic"] > d["fubini_study"] > d["asimov"]
            assert rootp * d["chordal_2norm"] >= d["chordal_frobenius"] - 1e-12
            assert d["chordal_frobenius"] > d["chordal_wedge"] > d["chordal_2norm"]
            assert rootp * d["projection_2norm"] >= d["projection_frobenius"] - 1e-12
            assert d["projection_frobenius"] > d["binet_cauchy"] > d["projection_2norm"]

    def test_column_equalities_with_large_intersection(self, rng, field):
        # dim(V & W) = p - 1 collapses the strict column comparisons
        for seed in range(5):
            q = random_unitary(6, field, 1300 + seed)
            shared = q[:, :2]
            v = Subspace(6, field, np.concatenate([shared, q[:, 2:3]], axis=1))
            w = Subspace(6, field, np.concatenate([shared, q[:, 3:4]], axis=1))
            d = {name: equal_dim_distance(name, v, w) for name in METRICS}
            assert d["geodesic"] == pytest.approx(d["fubini_study"], abs=1e-9)
            assert d["fubini_study"] == pytest.approx(d["asimov"], abs=1e-9)
            assert d["chordal_frobenius"] == pytest.approx(d["chordal_wedge"],
                                                           abs=1e-9)
            assert d["projection_frobenius"] == pytest.approx(d["binet_cauchy"],
                                                              abs=1e-9)
