import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassdist import numerics
from grassdist.errors import DimensionError, NumericalDegeneracyError
from grassdist.numerics import (Field, Tolerance, _rank, as_matrix, clamp_cosine,
                                gram, orthonormalize, singular_values, svd)
from grassdist.subspace import Subspace

from conftest import random_matrix

S2 = math.sqrt(2) / 2
EPS = np.finfo(float).eps


def inner(v, w):
    """The package's inner product, as ``gram`` forms it between two
    columns: conjugate linear in the first argument."""
    return gram(np.column_stack([v, w]))[0, 1]


class TestInner:
    def test_orthogonal_canonical(self):
        assert inner([1, 0], [0, 1]) == 0

    def test_complex_unit(self):
        assert inner([1j, 0], [1j, 0]) == pytest.approx(1)

    def test_hand_summed(self):
        # sum of conj(v_i) * w_i computed by hand: 0 - 1 + 0 - 1
        assert inner([1, -1, 0, 1], [0, 1, 1, -1]) == pytest.approx(-2)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        v = random_matrix(rng, 6, 1, Field.COMPLEX).ravel()
        w = random_matrix(rng, 6, 1, Field.COMPLEX).ravel()
        assert inner(v, w) == pytest.approx(np.conj(inner(w, v)))


class TestGram:
    def test_paper_plane_basis(self):
        cols = np.array([[0, 1, 1, 0], [1, 2, 2, -1]], dtype=float).T
        np.testing.assert_allclose(gram(cols), [[2, 4], [4, 10]])

    def test_identity_columns(self):
        np.testing.assert_allclose(gram(np.eye(4)), np.eye(4))

    def test_complex_xi_basis(self):
        xi = np.exp(2j * np.pi / 3)
        cols = np.array([[1, -xi, 0], [0, xi, -xi ** 2]]).T
        np.testing.assert_allclose(gram(cols), [[2, -1], [-1, 2]], atol=1e-14)

    def test_hermitian_psd(self, rng, field):
        m = random_matrix(rng, 5, 3, field)
        g = gram(m)
        np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(g) > -1e-12)


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3, 1])

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0)

    def test_projection_between_principal_bases(self):
        # cross-Gram of the 45/45-degree pair: both singular values sqrt2/2
        e = np.array([[S2, 0, S2, 0, 0], [0, S2, 0, S2, 0]]).T
        f = np.eye(5)[:, [0, 1, 4]]
        _, s, _ = svd(e.conj().T @ f)
        np.testing.assert_allclose(s, [S2, S2])

    def test_reconstruction(self, rng, field):
        for shape in [(4, 4), (6, 3), (3, 6)]:
            m = random_matrix(rng, *shape, field)
            u, s, v = svd(m)
            np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, m,
                                       atol=1e-12 * s[0])

    def test_unitary_invariance_of_singular_values(self, rng, field):
        m = random_matrix(rng, 5, 4, field)
        q1 = orthonormalize(random_matrix(rng, 5, 5, field))
        q2 = orthonormalize(random_matrix(rng, 4, 4, field))
        np.testing.assert_allclose(singular_values(q1 @ m @ q2),
                                   singular_values(m), atol=1e-10)


class TestOrthonormalize:
    def test_scaled_canonical(self):
        out = orthonormalize(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-15)

    def test_duplicated_column(self):
        cols = np.array([[1.0, 1.0], [0.0, 0.0]])
        out = orthonormalize(cols)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out[:, 0], [1, 0])

    def test_normalizes(self):
        out = orthonormalize(np.array([[1.0, 0, 1, 0]]).T)
        np.testing.assert_allclose(out[:, 0], [S2, 0, S2, 0])

    def test_gram_is_identity(self, rng, field):
        m = random_matrix(rng, 7, 4, field)
        out = orthonormalize(m)
        np.testing.assert_allclose(gram(out), np.eye(4), atol=1e-12)

    def test_span_preserved_when_rank_deficient(self, rng, field):
        base = random_matrix(rng, 6, 2, field)
        dependent = np.concatenate([base, base @ random_matrix(rng, 2, 2, field)],
                                   axis=1)
        # more columns than rows (k > n) led by a repeated column, and a zero
        # column between two independent ones: a QR without pivoting keeps
        # the wrong columns of its Q
        wide = np.concatenate([base[:, :1], base[:, :1],
                               base @ random_matrix(rng, 2, 6, field)], axis=1)
        e = np.eye(6, dtype=field.dtype)
        zero_between = np.column_stack([e[:, 0], np.zeros(6), e[:, 1]])
        for cols in (dependent, wide, zero_between):
            out = orthonormalize(cols)
            assert out.shape[1] == 2
            resid = cols - out @ (out.conj().T @ cols)
            assert np.linalg.norm(resid) < 1e-10

    def test_deterministic(self, field):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        a = orthonormalize(random_matrix(rng1, 5, 3, field))
        b = orthonormalize(random_matrix(rng2, 5, 3, field))
        assert np.array_equal(a, b)

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionError):
            orthonormalize(np.array([[np.nan, 0.0]]).T)


def svd_route(a, rank_tol=1e-10):
    """What ``orthonormalize`` returns from its SVD: the polar factor at
    full rank, else the leading left singular vectors."""
    u, s, v = svd(a)
    r = _rank(s, rank_tol)
    return u @ v.conj().T if r == a.shape[1] else u[:, :r]


def with_spectrum(rng, n, sigmas, field):
    """An n x k set with singular values ``sigmas`` and random singular
    vectors."""
    k = len(sigmas)
    u = svd(random_matrix(rng, n, k, field))[0]
    v = svd(random_matrix(rng, k, k, field))[0]
    return (u * sigmas) @ v.conj().T


@pytest.fixture
def svd_calls(monkeypatch):
    """The shape of each matrix ``orthonormalize`` hands to the SVD."""
    calls = []
    real = numerics.svd

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(numerics, "svd", counting)
    return calls


class TestGramRoute:
    """Tall, large, well-conditioned sets take the polar factor from the
    eigendecomposition of their Gram matrix; every other set takes the SVD,
    and both give the SVD rule's dimension."""

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-310])
    def test_tall_sets_give_the_svd_polar_factor(self, field, scale, svd_calls):
        # Bounds: the Gram route's basis is orthonormal to the existing
        # 10 n eps, and with kappa^2 <= 10 it differs from the SVD's U V^H by
        # a few roundings per entry; over these sets the worst seen was
        # 0.9 k eps, so 10 k eps.
        rng = np.random.default_rng(2510)
        for n, k in [(100, 10), (120, 30), (200, 40), (500, 20), (500, 60)]:
            a = random_matrix(rng, n, k, field) * scale
            out = orthonormalize(a)
            assert svd_calls == []
            assert out.shape == (n, k) == svd_route(a).shape
            assert out.dtype == field.dtype
            assert np.max(np.abs(gram(out) - np.eye(k))) <= 10 * n * EPS
            assert np.max(np.abs(out - svd_route(a))) <= 10 * k * EPS

    def test_a_tall_set_near_overflow_keeps_every_column(self, field, svd_calls):
        # entries up to 1.5e308: |z| of a complex entry, the SVD's norms and
        # an unscaled Gram matrix all overflow (numpy's SVD then returns NaN
        # or inf singular values), but the scaled Gram matrix does not
        rng = np.random.default_rng(2516)
        a = np.clip(random_matrix(rng, 200, 20, field).real, -1.5, 1.5) * 1e308
        if field is Field.COMPLEX:
            a = a + 1j * a[::-1]
        out = orthonormalize(a)
        assert svd_calls == [] and out.shape == (200, 20)
        assert np.max(np.abs(gram(out) - np.eye(20))) <= 10 * 200 * EPS

    @pytest.mark.parametrize("ratio, gram_route", [(0.11, True), (0.09, False)])
    def test_either_side_of_the_eigenvalue_gate(self, field, ratio, gram_route,
                                                svd_calls):
        # lambda_min / lambda_max = sigma_min^2 / sigma_max^2 = ratio
        rng = np.random.default_rng(2511)
        a = with_spectrum(rng, 200, np.geomspace(1.0, math.sqrt(ratio), 20), field)
        out = orthonormalize(a)
        assert len(svd_calls) == (0 if gram_route else 1)
        if gram_route:
            assert np.max(np.abs(out - svd_route(a))) <= 10 * 20 * EPS
        else:
            assert np.array_equal(out, svd_route(a))

    @pytest.mark.parametrize("rank_tol, ratio, gram_route", [
        (0.3, 0.5, True),    # lambda ratio 0.5 >= 4 * 0.3^2
        (0.3, 0.3, False),   # 0.3 < 0.36, though the SVD keeps every column
        (0.6, 0.9, False),   # 4 * 0.6^2 > 1: no set passes
        (0.6, 0.3, False),   # sigma ratio 0.55 < 0.6: the SVD drops a column
    ])
    def test_a_large_rank_tol_moves_the_gate(self, field, rank_tol, ratio,
                                             gram_route, svd_calls):
        rng = np.random.default_rng(2512)
        a = with_spectrum(rng, 200, np.geomspace(1.0, math.sqrt(ratio), 20), field)
        out = orthonormalize(a, rank_tol)
        assert len(svd_calls) == (0 if gram_route else 1)
        assert out.shape == svd_route(a, rank_tol).shape
        if not gram_route:
            assert np.array_equal(out, svd_route(a, rank_tol))

    @pytest.mark.parametrize("n, k", [(100, 30), (39, 10), (90, 10), (40, 5)])
    def test_sets_below_the_size_gate_keep_the_svd_output(self, field, n, k,
                                                          svd_calls):
        # n < 4k, or n k^2 < 1e4
        a = random_matrix(np.random.default_rng(2514), n, k, field)
        assert np.array_equal(orthonormalize(a), svd_route(a))
        assert svd_calls == [(n, k)]

    def test_zero_tall_sets_do_not_warn(self, field, svd_calls):
        # an all-zero set has rank 0; one zero column falls back to the SVD,
        # which drops it
        zero = np.zeros((500, 20), dtype=field.dtype)
        one_zero = random_matrix(np.random.default_rng(2515), 500, 20, field)
        one_zero[:, 7] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert orthonormalize(zero).shape == (500, 0)
            out = orthonormalize(one_zero)
        assert out.shape == (500, 19)
        assert np.array_equal(out, svd_route(one_zero))
        assert len(svd_calls) == 2


def test_clamp_cosine():
    assert clamp_cosine(1.0 + 1e-12) == 1.0
    assert clamp_cosine(-1e-12) == 0.0
    assert clamp_cosine(0.5) == 0.5
    with pytest.raises(NumericalDegeneracyError):
        clamp_cosine(1.1)
    assert type(clamp_cosine(np.float64(0.5))) is float


def test_numerical_rank(rng):
    # orthonormalize keeps one column per singular value at or above
    # rank_tol times the largest
    m = random_matrix(rng, 5, 3, Field.REAL)
    assert orthonormalize(m).shape[1] == 3
    assert orthonormalize(np.zeros((4, 2))).shape[1] == 0
    assert orthonormalize(np.concatenate([m, m], axis=1)).shape[1] == 3


def test_as_matrix_rejects_complex_in_real_field():
    with pytest.raises(DimensionError):
        as_matrix(np.array([[1j, 0]]).T, Field.REAL)


@pytest.mark.parametrize("entry", ["a", None, 10 ** 30])
def test_as_matrix_rejects_non_numbers(entry, field):
    # numpy reads these as a string or object array, on which isfinite fails
    with pytest.raises(DimensionError):
        as_matrix([[entry]], field)
    with pytest.raises(DimensionError):
        Subspace.from_columns([[entry]], field)


@pytest.mark.parametrize("name", ["rank_tol", "angle_tol"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_tolerance_rejects_negative_and_nonfinite(name, value):
    with pytest.raises(ValueError):
        Tolerance(**{name: value})
    assert getattr(Tolerance(**{name: 0.0}), name) == 0.0
