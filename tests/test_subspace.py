import math

import numpy as np
import pytest

from grassdist import corpus
from grassdist.errors import DimensionError
from grassdist.numerics import Field, Tolerance, gram
from grassdist.subspace import (Subspace, complete_basis, direct_sum,
                                intersection_dim, is_partially_orthogonal,
                                orthogonal_complement, principal_angles,
                                principal_decomposition, project_onto,
                                projective_split, random_subspace,
                                random_unitary, underlying_real)

from conftest import random_matrix

R = Field.REAL
C = Field.COMPLEX
S2 = math.sqrt(2) / 2


def projectors_equal(a: Subspace, b: Subspace, tol=1e-9):
    return np.max(np.abs(a.projector() - b.projector())) < tol


class TestSubspaceConstruction:
    def test_orthonormal_input_kept_verbatim(self):
        v = Subspace.from_columns(corpus.REAL_PA_V, R)
        assert np.array_equal(v.basis, corpus.REAL_PA_V)

    def test_raw_input_orthonormalized(self):
        v = Subspace.from_columns(corpus.BLADES_A, R)
        np.testing.assert_allclose(gram(v.basis), np.eye(2), atol=1e-12)
        assert not v.was_reduced

    def test_rank_deficient_flagged(self, rng):
        base = random_matrix(rng, 5, 2, R)
        v = Subspace.from_columns(np.concatenate([base, base], axis=1), R)
        assert v.dim == 2 and v.was_reduced

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e300])
    def test_rank_is_scale_free(self, rng, scale):
        cols = random_matrix(rng, 6, 3, R)
        v = Subspace.from_columns(cols, R)
        scaled = Subspace.from_columns(cols * scale, R)
        assert scaled.dim == 3 and not scaled.was_reduced
        np.testing.assert_allclose(principal_angles(scaled, v), 0, atol=1e-12)

    def test_zero_and_full(self):
        assert Subspace.zero(4, R).dim == 0
        assert Subspace.full(4, C).dim == 4

    def test_rejects_nonorthonormal_direct_construction(self):
        with pytest.raises(DimensionError):
            Subspace(3, R, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


class TestPrincipalDecomposition:
    def test_real_paper_pair(self):
        v = Subspace.from_columns(corpus.REAL_PA_V, R)
        w = Subspace.from_columns(corpus.REAL_PA_W, R)
        pd = principal_decomposition(v, w)
        np.testing.assert_allclose(pd.angles, [math.pi / 4, math.pi / 4],
                                   atol=1e-12)

    def test_identical_subspaces(self, rng, field):
        v = random_subspace(6, 3, field, 5)
        np.testing.assert_allclose(principal_angles(v, v), 0, atol=1e-9)

    def test_complex_paper_pair(self):
        v = Subspace.from_columns(corpus.COMPLEX_PA_V, C)
        w = Subspace.from_columns(corpus.COMPLEX_PA_W, C)
        pd = principal_decomposition(v, w)
        np.testing.assert_allclose(pd.angles, [math.pi / 4, math.pi / 3],
                                   atol=1e-12)

    def test_basis_pairing_invariants(self, rng, field):
        v = random_subspace(7, 3, field, 11)
        w = random_subspace(7, 5, field, 12)
        pd = principal_decomposition(v, w)
        cross = pd.left_basis.conj().T @ pd.right_basis
        m = len(pd.angles)
        for i in range(pd.left_basis.shape[1]):
            for j in range(pd.right_basis.shape[1]):
                want = math.cos(pd.angles[i]) if i == j and i < m else 0.0
                assert abs(cross[i, j] - want) < 1e-9
        np.testing.assert_allclose(gram(pd.left_basis), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(gram(pd.right_basis), np.eye(5), atol=1e-12)

    def test_small_angles_resolved(self, rng, field):
        # shared columns must produce principal angles far below 1e-9
        q = random_unitary(8, field, 3)
        v = Subspace(8, field, q[:, :3])
        w = Subspace(8, field, np.concatenate([q[:, :2], q[:, 4:6]], axis=1))
        pd = principal_decomposition(v, w)
        assert pd.intersection_dim(Tolerance()) == 2
        assert pd.angles[0] < 1e-12 and pd.angles[1] < 1e-12
        assert intersection_dim(v, w) == 2
        for theta in (principal_angles(v, w), principal_angles(w, v)):
            assert theta[0] < 1e-12 and theta[1] < 1e-12

    def test_zero_subspace_rejected(self):
        v = Subspace.zero(3, R)
        w = Subspace.full(3, R)
        with pytest.raises(DimensionError):
            principal_decomposition(v, w)

    def test_unitary_invariance(self, rng, field):
        v = random_subspace(6, 2, field, 21)
        w = random_subspace(6, 4, field, 22)
        t = random_unitary(6, field, 23)
        tv = Subspace(6, field, t @ v.basis)
        tw = Subspace(6, field, t @ w.basis)
        np.testing.assert_allclose(principal_angles(tv, tw),
                                   principal_angles(v, w), atol=1e-9)

    def test_complement_duality(self, rng, field):
        v = random_subspace(6, 2, field, 31)
        w = random_subspace(6, 3, field, 32)
        a = principal_angles(v, w)
        b = principal_angles(orthogonal_complement(v), orthogonal_complement(w))
        nz_a = np.sort(a[a > 1e-9])
        nz_b = np.sort(b[b > 1e-9])
        np.testing.assert_allclose(nz_a, nz_b, atol=1e-9)

    def test_interlacing(self, rng, field):
        n, p, q = 7, 3, 5
        v = random_subspace(n, p, field, 41)
        w = random_subspace(n, q, field, 42)
        theta = principal_angles(v, w)
        # W' inside W of dim p: angles can only grow, index by index
        mix = np.linalg.qr(random_matrix(rng, q, p, field))[0]
        w_sub = Subspace(n, field, w.basis @ mix)
        theta_sub = principal_angles(v, w_sub)
        assert np.all(theta_sub >= theta - 1e-9)
        # V' inside V of dim r: theta'_i <= theta_{i + p - r}
        r = 2
        mixv = np.linalg.qr(random_matrix(rng, p, r, field))[0]
        v_sub = Subspace(n, field, v.basis @ mixv)
        theta_v = principal_angles(v_sub, w)
        assert np.all(theta_v <= theta[p - r:] + 1e-9)


def _kernel_pair(field, n, p, q, shared, seed):
    """A pair of subspaces of F^n of dims p and q sharing ``shared``
    basis columns, the rest random."""
    t = random_unitary(n, field, seed)
    g = random_matrix(np.random.default_rng(seed), n, p + q - 2 * shared, field)
    v = Subspace.from_columns(np.concatenate(
        [t[:, :shared], g[:, :p - shared]], axis=1), field)
    w = Subspace.from_columns(np.concatenate(
        [t[:, :shared], g[:, p - shared:]], axis=1), field)
    return v, w


class TestPrincipalAnglesKernel:
    @pytest.mark.parametrize("n, p, q, shared", [
        (7, 2, 4, 0), (7, 3, 3, 0), (7, 5, 2, 0),
        (8, 3, 5, 2), (8, 4, 4, 1), (8, 5, 3, 3),
        (12, 6, 6, 0), (6, 1, 5, 0),
    ], ids=lambda x: str(x))
    def test_matches_decomposition_and_scipy(self, field, n, p, q, shared):
        v, w = _kernel_pair(field, n, p, q, shared, 100 * n + 10 * p + q)
        theta = principal_angles(v, w)
        assert theta.shape == (min(p, q),)
        assert np.all(np.diff(theta) >= 0)
        np.testing.assert_allclose(principal_angles(w, v), theta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(principal_decomposition(v, w).angles, theta,
                                   rtol=0, atol=1e-12)
        assert np.count_nonzero(theta < 1e-12) == shared
        if shared == 0:
            linalg = pytest.importorskip("scipy.linalg")
            want = np.sort(linalg.subspace_angles(v.basis, w.basis))
            assert want[0] > 1e-6
            np.testing.assert_allclose(theta, want, rtol=0, atol=1e-12)

    def test_zero_subspace_gives_no_angles(self, field):
        v = random_subspace(4, 2, field, 5)
        z = Subspace.zero(4, field)
        assert principal_angles(v, z).shape == (0,)
        assert principal_angles(z, v).shape == (0,)


class TestPartialOrthogonality:
    def test_dimension_drop(self):
        plane = Subspace.from_columns(np.eye(3)[:, :2], R)
        line = Subspace.from_columns(np.eye(3)[:, :1], R)
        assert is_partially_orthogonal(plane, line)

    def test_paper_blades(self):
        c = Subspace.from_columns(corpus.BLADES_C, R)
        d = Subspace.from_columns(corpus.BLADES_D, R)
        assert is_partially_orthogonal(c, d)

    def test_contained_is_not(self, rng, field):
        w = random_subspace(5, 3, field, 51)
        v = Subspace(5, field, w.basis[:, :2])
        assert not is_partially_orthogonal(v, w)

    def test_zero_conventions(self):
        z = Subspace.zero(3, R)
        line = Subspace.from_columns(np.eye(3)[:, :1], R)
        assert not is_partially_orthogonal(z, line)
        assert is_partially_orthogonal(line, z)


class TestProjectiveSplit:
    def test_contained_line(self):
        v = Subspace.from_columns(np.eye(3)[:, :1], R)
        w = Subspace.full(3, R)
        w_p, w_perp = projective_split(v, w)
        assert projectors_equal(w_p, v)
        assert projectors_equal(w_perp, Subspace.from_columns(np.eye(3)[:, 1:], R))

    def test_real_paper_pair(self):
        v = Subspace.from_columns(corpus.REAL_PA_V, R)
        w = Subspace.from_columns(corpus.REAL_PA_W, R)
        w_p, w_perp = projective_split(v, w)
        f12 = Subspace.from_columns(np.eye(5)[:, :2], R)
        f5 = Subspace.from_columns(np.eye(5)[:, 4:5], R)
        assert projectors_equal(w_p, f12)
        assert projectors_equal(w_perp, f5)

    def test_zero_subspace_convention(self):
        z = Subspace.zero(4, R)
        w = Subspace.from_columns(np.eye(4)[:, :2], R)
        w_p, w_perp = projective_split(z, w)
        assert w_p.dim == 0 and projectors_equal(w_perp, w)

    def test_angle_preservation(self, rng, field):
        v = random_subspace(7, 3, field, 61)
        w = random_subspace(7, 5, field, 62)
        w_p, w_perp = projective_split(v, w)
        np.testing.assert_allclose(principal_angles(v, w_p),
                                   principal_angles(v, w), atol=1e-9)
        # V + W_perp vs W keeps the nonzero principal angles
        if intersection_dim(v, w_perp) == 0:
            big = direct_sum(v, w_perp)
            a = principal_angles(big, w)
            b = principal_angles(v, w)
            np.testing.assert_allclose(np.sort(a[a > 1e-8]),
                                       np.sort(b[b > 1e-8]), atol=1e-9)


class TestProjectOnto:
    def test_orthogonal_gives_zero(self):
        v = Subspace.from_columns(np.eye(4)[:, :2], R)
        w = Subspace.from_columns(np.eye(4)[:, 2:], R)
        assert project_onto(v, w).dim == 0

    def test_contained_gives_self(self, rng, field):
        w = random_subspace(6, 4, field, 71)
        v = Subspace(6, field, w.basis[:, 1:3])
        assert projectors_equal(project_onto(v, w), v)

    def test_line_projection_matches_least_squares(self):
        v = Subspace.from_columns(corpus.DISTINCT_DIM_V, R)
        w = Subspace.from_columns(corpus.DISTINCT_DIM_W, R)
        got = project_onto(v, w)
        # independent oracle: least-squares projection of the spanning vector
        coef, *_ = np.linalg.lstsq(corpus.DISTINCT_DIM_W,
                                   corpus.DISTINCT_DIM_V[:, 0], rcond=None)
        proj = corpus.DISTINCT_DIM_W @ coef
        want = Subspace.from_columns(proj.reshape(-1, 1), R)
        assert got.dim == 1 and projectors_equal(got, want)


class TestComplement:
    def test_zero_gives_full(self):
        assert orthogonal_complement(Subspace.zero(4, C)).dim == 4

    def test_line_in_r3(self):
        line = Subspace.from_columns(np.eye(3)[:, :1], R)
        rest = Subspace.from_columns(np.eye(3)[:, 1:], R)
        assert projectors_equal(orthogonal_complement(line), rest)

    def test_paper_complement(self):
        w = Subspace.from_columns(corpus.REAL_PA_W, R)
        f34 = Subspace.from_columns(np.eye(5)[:, 2:4], R)
        assert projectors_equal(orthogonal_complement(w), f34)

    def test_orthogonality(self, rng, field):
        v = random_subspace(6, 4, field, 81)
        c = orthogonal_complement(v)
        assert c.dim == 2
        assert np.max(np.abs(v.basis.conj().T @ c.basis)) < 1e-10


class TestUnderlyingReal:
    def test_interleaved_layout(self):
        v = Subspace.from_columns(corpus.COMPLEX_PA_V, C)
        vr = underlying_real(v)
        np.testing.assert_allclose(vr.basis[:, 0],
                                   [S2, 0, S2, 0, 0, 0, 0, 0], atol=1e-15)

    def test_angles_doubled(self):
        v = Subspace.from_columns(corpus.COMPLEX_PA_V, C)
        w = Subspace.from_columns(corpus.COMPLEX_PA_W, C)
        theta = principal_angles(underlying_real(v), underlying_real(w))
        np.testing.assert_allclose(
            theta, [math.pi / 4, math.pi / 4, math.pi / 3, math.pi / 3],
            atol=1e-9)

    def test_dimension_doubles(self):
        line = random_subspace(2, 1, C, 91)
        assert underlying_real(line).dim == 2
        assert underlying_real(line).ambient_dim == 4

    def test_real_field_rejected(self):
        with pytest.raises(DimensionError):
            underlying_real(Subspace.full(2, R))


class TestRandomSubspace:
    def test_extreme_dims(self, field):
        assert random_subspace(5, 0, field, 1).dim == 0
        assert random_subspace(5, 5, field, 1).dim == 5

    def test_deterministic(self, field):
        a = random_subspace(6, 3, field, 77)
        b = random_subspace(6, 3, field, 77)
        assert np.array_equal(a.basis, b.basis)

    def test_dim_bounds(self):
        with pytest.raises(DimensionError):
            random_subspace(3, 4, R, 0)


def test_complete_basis_is_orthonormal(rng, field):
    for k in (2, 0, 6):  # 0 and n: nothing to keep, nothing to add
        v = random_subspace(6, k, field, 13)
        full = complete_basis(v.basis)
        np.testing.assert_allclose(gram(full), np.eye(6), atol=1e-12)
        np.testing.assert_allclose(full[:, :k], v.basis)


def test_intersection_count_matches_rank(rng, field):
    q = random_unitary(7, field, 17)
    v = Subspace(7, field, q[:, :4])
    w = Subspace(7, field, np.concatenate([q[:, 2:4], q[:, 5:6]], axis=1))
    pd = principal_decomposition(v, w)
    assert pd.intersection_dim(Tolerance()) == intersection_dim(v, w) == 2
