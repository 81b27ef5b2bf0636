import dataclasses
import math
import warnings

import numpy as np
import pytest

from grassdist import corpus, subspace
from grassdist.errors import DimensionError, NumericalDegeneracyError
from grassdist.numerics import Field, Tolerance, gram, orthonormalize
from grassdist.angles import angle_report, supplementation_angle
from grassdist.metrics import diagnostic_quantities
from grassdist.subspace import (Subspace, complete_basis,
                                is_partially_orthogonal,
                                orthogonal_complement, principal_angles,
                                principal_decomposition, project_onto,
                                projective_split, random_subspace,
                                random_unitary, underlying_real)

from angle_reference import intersection_dim, reference_angles
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

    @pytest.mark.parametrize("scale", [1e300, 1e308, 1.1e308])
    def test_sets_near_overflow_keep_their_rank(self, field, scale):
        # parts up to 1.65e308: the SVD of the set itself returns inf (real)
        # or NaN (complex) singular values, so it would count too few
        rng = np.random.default_rng(2521)
        for _ in range(20):
            cols = np.clip(random_matrix(rng, 6, 3, field).real, -1.5, 1.5)
            if field is C:
                cols = cols + 1j * np.clip(rng.standard_normal((6, 3)), -1.5, 1.5)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = Subspace.from_columns(scale * cols, field)
            assert scaled.dim == 3 and not scaled.was_reduced
            np.testing.assert_allclose(
                principal_angles(scaled, Subspace.from_columns(cols, field)), 0,
                atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-310])
    def test_tall_sets_keep_the_svd_rank_decision(self, field, scale):
        # the well-conditioned sets take orthonormalize's Gram route, the
        # repeated column and the 1e-12 column its SVD; each keeps the count
        # of singular values at or above rank_tol times the largest
        rng = np.random.default_rng(2520)
        eps = np.finfo(float).eps
        for n, k in [(100, 10), (200, 40), (500, 60)]:
            base = random_matrix(rng, n, k, field)
            tiny = base.copy()
            tiny[:, 0] *= 1e-12
            for cols in (base, np.concatenate([base, base[:, :1]], axis=1), tiny):
                cols = cols * scale
                v = Subspace.from_columns(cols, field)
                s = np.linalg.svd(cols, compute_uv=False)
                rank = int(np.count_nonzero(s >= 1e-10 * s[0]))
                assert v.dim == rank and v.was_reduced == (rank < cols.shape[1])
                assert subspace._ortho_deviation(v.basis) <= 10 * n * eps

    def test_zero_tall_set_has_dimension_zero(self, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = Subspace.from_columns(np.zeros((500, 20)), field)
        assert v.dim == 0 and v.was_reduced

    def test_zero_and_full(self):
        assert Subspace.zero(4, R).dim == 0
        assert Subspace.full(4, C).dim == 4

    def test_rejects_nonorthonormal_direct_construction(self):
        with pytest.raises(DimensionError):
            Subspace(3, R, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
        # a non-finite basis has a NaN deviation, which no cutoff accepts
        for basis in ([[math.nan], [0.0], [0.0]],
                      [[math.inf, 0.0], [0.0, 1.0], [0.0, 0.0]]):
            with pytest.raises(DimensionError):
                Subspace(3, R, np.array(basis))

    def test_real_field_rejects_an_imaginary_basis(self):
        # 1j * e1 is orthonormal over C; under REAL its vector would be
        # written out as its real part, the zero vector
        e1 = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(DimensionError):
            Subspace(3, R, 1j * e1)
        assert Subspace(3, C, 1j * e1).dim == 1

    @pytest.mark.parametrize("basis", [[[1.0], [0.0], [0.0]], ((1.0,), (0.0,), (0.0,)),
                                       None, 1.0, np.array([1.0, 0.0, 0.0]),
                                       np.eye(3)[None], np.eye(4)[:, :1]])
    def test_a_basis_not_a_2d_array_of_n_rows_is_a_dimension_error(self, basis):
        # a nested list is rejected as a wrong shape is, not with an
        # AttributeError from reading its shape
        with pytest.raises(DimensionError):
            Subspace(3, R, basis)


@pytest.fixture
def deviation_calls(monkeypatch):
    """The shape of each basis ``subspace._ortho_deviation`` checks, in
    call order."""
    calls = []
    real = subspace._ortho_deviation

    def counting(b):
        calls.append(b.shape)
        return real(b)

    monkeypatch.setattr(subspace, "_ortho_deviation", counting)
    return calls


class TestOneOrthonormalityDecision:
    """``from_columns`` decides once per spanning set whether to keep it,
    and the package does not check again a basis it built itself."""

    def test_gaussian_sets_take_no_gram_check(self, rng, field, deviation_calls):
        base = random_matrix(rng, 6, 3, field)
        for cols in (base, np.concatenate([base, base[:, :1]], axis=1),
                     base * 1e300, base * 1e-300):
            Subspace.from_columns(cols, field)
        assert deviation_calls == []

    def test_an_orthonormal_set_takes_one(self, field, deviation_calls):
        q = random_subspace(6, 3, field, 5).basis
        deviation_calls.clear()
        Subspace.from_columns(q, field)
        assert deviation_calls == [(6, 3)]

    def test_built_bases_take_none(self, field, deviation_calls):
        random_subspace(6, 3, field, 5)
        random_unitary(4, field, 5)
        Subspace.full(5, field)
        assert deviation_calls == []

    # column 0's norm is read alone first, then every norm: a squared norm
    # off 1 by more than 2e-10 fails before the Gram check
    @pytest.mark.parametrize("delta", [0.5e-10, 0.99e-10, 1.01e-10, 1.5e-10, 2.5e-10,
                                       3.9e-10, -3.9e-10, 4.1e-10, -4.1e-10,
                                       1e-6, -1e-6])
    @pytest.mark.parametrize("way", ["diagonal", "diagonal_2", "off_diagonal"])
    def test_kept_verbatim_exactly_by_the_rule(self, field, deviation_calls, way,
                                               delta):
        cols = random_subspace(6, 3, field, 11).basis.copy()
        if way == "diagonal":  # column 0's squared norm moves by delta
            cols[:, 0] *= math.sqrt(1 + delta)
        elif way == "diagonal_2":  # column 0 exact, column 2 moves
            cols[:, 2] *= math.sqrt(1 + delta)
        else:  # shear: <col 0, col 1> becomes delta, every norm stays 1
            cols[:, 1] += delta * cols[:, 0]
            cols[:, 1] /= np.linalg.norm(cols[:, 1])
        deviation_calls.clear()
        kept = np.max(np.abs(cols.conj().T @ cols - np.eye(3))) <= 1e-10
        assert kept == (abs(delta) < 1e-10)
        v = Subspace.from_columns(cols, field)
        expected = cols if kept else orthonormalize(cols)
        assert np.array_equal(v.basis, expected) and not v.was_reduced
        gram_checks = int(way == "off_diagonal" or abs(delta) <= 2e-10)
        assert len(deviation_calls) == gram_checks

    def test_built_bases_are_orthonormal_to_roundoff(self, field):
        # Bound: a backward-stable SVD returns U and V orthonormal to a small
        # multiple of n * eps, and the polar factor U V^H adds a few more
        # roundings per entry; over these sets the worst deviation seen was
        # 3.5 n * eps, so 10 n * eps leaves room without admitting 1e-10.
        rng = np.random.default_rng(2208)
        eps = np.finfo(float).eps
        for _ in range(150):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, n + 1))
            rank = int(rng.integers(1, k + 1))  # a set with rank < k is reduced
            cols = random_matrix(rng, n, rank, field) @ rng.standard_normal((rank, k))
            cols = cols * 10.0 ** rng.uniform(-2, 2, k) * 10.0 ** rng.uniform(-300, 300)
            built = ((Subspace.from_columns(cols, field), rank, rank < k),
                     (random_subspace(n, k, field, int(rng.integers(2**31))), k, False))
            for v, dim, reduced in built:
                assert v.basis.dtype == field.dtype and v.basis.shape == (n, dim)
                assert v.was_reduced == reduced
                assert subspace._ortho_deviation(v.basis) <= 10 * n * eps
                with pytest.raises(dataclasses.FrozenInstanceError):
                    v.basis = np.eye(n)


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
        assert np.count_nonzero(pd.angles <= Tolerance().angle_tol) == 2
        ref = reference_angles(v, w)
        assert ref[0] < 1e-12 and ref[1] < 1e-12
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
        np.testing.assert_allclose(reference_angles(v, w), theta,
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


class TestOneAngleSource:
    """``principal_decomposition`` takes its angles from the kernel, and
    every decision reads them by one inclusive rule: an angle reads as 0
    when it is at most ``angle_tol`` and as pi/2 when it is at least
    pi/2 - ``angle_tol``."""

    @staticmethod
    def pairs(field):
        rng = np.random.default_rng(77)
        for seed in range(80):
            n = int(rng.integers(2, 10))
            p, q = (int(x) for x in rng.integers(1, n + 1, 2))
            shared = int(rng.integers(0, min(p, q) + 1))
            v, w = _kernel_pair(field, n, p, q, shared, seed)
            yield v, w
            yield w, v

    def test_decomposition_angles_are_the_kernel_angles(self, field):
        for v, w in self.pairs(field):
            want = principal_angles(v, w).tobytes()
            assert principal_decomposition(v, w).angles.tobytes() == want

    def test_every_decision_site_reads_the_inclusive_rule(self, field):
        for v, w in self.pairs(field):
            theta = principal_angles(v, w)
            p, q, n = v.dim, w.dim, v.ambient_dim
            # 0, the default, and a cutoff placed exactly at each angle, from
            # either end
            cutoffs = [0.0, Tolerance().angle_tol, *theta.tolist(),
                       *(math.pi / 2 - theta).tolist()]
            for cutoff in cutoffs:
                tol = Tolerance(angle_tol=cutoff)
                r = int(np.count_nonzero(theta <= cutoff))
                right = int(np.count_nonzero(theta >= math.pi / 2 - cutoff))
                if p == n or q == n:
                    sin_psi = 1.0
                elif p + q - r < n:
                    sin_psi = 0.0
                else:  # the sines of the angles that do not read as 0
                    sin_psi = float(np.prod(np.sin(theta[r:])))
                psi = supplementation_angle(v, w, tol)
                assert math.sin(psi) == pytest.approx(sin_psi, rel=1e-12, abs=0)
                fragile = bool(np.any((theta > cutoff) & (theta < 1e-6)))
                assert angle_report(v, w, tol=tol).psi_ill_conditioned == fragile
                assert is_partially_orthogonal(v, w, tol) == (q < p or right > 0)
                assert project_onto(v, w, tol).dim == len(theta) - right
                martin = diagnostic_quantities(v, w, tol)["martin"]
                assert (martin == math.inf) == (right > 0)
                # V lies in W: no larger, and every angle reads as 0
                contained = p <= q and bool(np.all(theta <= cutoff))
                assert w.contains(v, tol) == contained


class TestContainment:
    def test_each_angle_below_the_cutoff_is_containment(self):
        # both angles are 8e-10 and read as 0, so Psi's r = dim V, though
        # their root sum of squares, 1.13e-9, is above the cutoff
        v = Subspace.from_columns([[1, 0], [0, 1], [0, 0], [8e-10, 0], [0, 8e-10]], R)
        w = Subspace.from_columns(np.eye(5)[:, :3], R)
        assert np.all(principal_angles(v, w) <= Tolerance().angle_tol)
        assert w.contains(v)
        assert not v.contains(w)

    def test_zero_and_larger_subspaces(self, field):
        zero, line, full = (random_subspace(3, d, field, 3) for d in (0, 1, 3))
        for sub in (zero, line, full):
            assert sub.contains(zero)
        # at a cutoff of pi/2 every angle reads as 0, yet a larger subspace
        # never lies in a smaller one
        wide = Tolerance(angle_tol=math.pi / 2)
        assert full.contains(line, wide)
        assert not zero.contains(line, wide)
        assert not line.contains(full, wide)


class TestZeroCutoff:
    """At angle_tol = 0 an exact shared axis (angle 0.0) reads as 0 and an
    exact right angle (arccos(0) = pi/2) reads as pi/2, at every site.
    V = span(e1, e2) and W = span(e2, e3) in R^3 meet in e2 at angle 0, and
    e1 is at pi/2 to W."""

    TOL = Tolerance(angle_tol=0.0)

    @staticmethod
    def span(*axes):
        return Subspace.from_columns(np.eye(3)[:, list(axes)], R)

    def test_psi_counts_the_shared_axis(self):
        v, w = self.span(0, 1), self.span(1, 2)
        assert principal_angles(v, w).tolist() == [0.0, math.pi / 2]
        report = angle_report(v, w, tol=self.TOL)
        assert report.psi == supplementation_angle(v, w, self.TOL) == math.pi / 2
        assert not report.psi_ill_conditioned

    def test_right_angle_is_partial_orthogonality(self):
        e1, e2 = self.span(0), self.span(1)
        assert is_partially_orthogonal(e1, e2, self.TOL)
        assert project_onto(e1, e2, self.TOL).dim == 0
        assert diagnostic_quantities(e2, e1, self.TOL)["martin"] == math.inf
        v, w = self.span(0, 1), self.span(1, 2)
        assert diagnostic_quantities(v, w, self.TOL)["martin"] == math.inf

    def test_exact_containment(self):
        assert self.span(0, 1).contains(self.span(1), self.TOL)

def scripted_singular_values(monkeypatch, *scripted):
    """Make the kernel's ``singular_values`` return the scripted values in
    order (None keeps the true ones), then the true values."""
    true_values = subspace.singular_values
    queue = list(scripted)

    def fake(m):
        value = queue.pop(0) if queue else None
        return true_values(m) if value is None else np.array(value)

    monkeypatch.setattr(subspace, "singular_values", fake)


class TestKernelDegeneracy:
    """The kernel raises on a cosine or sine beyond 1 + CLAMP_SLACK, and
    takes one within it as 1 without a warning."""

    @staticmethod
    def turned_planes():
        # cosines 1 and cos 0.3, both above sqrt(1/2): the sine branch runs
        a = 0.3
        v = Subspace.from_columns(np.eye(3)[:, :2], R)
        w = Subspace.from_columns([[1, 0], [0, math.cos(a)], [0, math.sin(a)]], R)
        return v, w

    def test_a_cosine_beyond_roundoff_raises(self, monkeypatch):
        v, w = self.turned_planes()
        scripted_singular_values(monkeypatch, [1 + 1e-7, 0.5])
        with pytest.raises(NumericalDegeneracyError):
            principal_angles(v, w)

    def test_a_sine_beyond_roundoff_raises(self, monkeypatch):
        v, w = self.turned_planes()
        # the true cosines, then sines (descending) whose largest is bad
        scripted_singular_values(monkeypatch, None, [1 + 1e-7, 0.1])
        with pytest.raises(NumericalDegeneracyError):
            principal_angles(v, w)

    def test_a_cosine_within_roundoff_gives_angle_zero(self, monkeypatch):
        line = Subspace.from_columns(np.eye(3)[:, :1], R)
        scripted_singular_values(monkeypatch, [1 + 1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = principal_angles(line, line)
        assert theta.tolist() == [0.0]


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
            big = Subspace(7, field, np.concatenate([v.basis, w_perp.basis], axis=1))
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
    assert np.count_nonzero(pd.angles <= Tolerance().angle_tol) == 2
    assert intersection_dim(v, w) == 2
