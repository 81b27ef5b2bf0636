import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassdist.errors import DimensionError, NumericalDegeneracyError
from grassdist.numerics import (Field, Tolerance, as_matrix, clamp_cosine,
                                gram, orthonormalize, singular_values, svd)
from grassdist.subspace import Subspace

from conftest import random_matrix

S2 = math.sqrt(2) / 2


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
