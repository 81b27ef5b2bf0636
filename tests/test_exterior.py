import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassdist import corpus
from grassdist.errors import DimensionError
from grassdist.exterior import AMBIENT_CAP
from grassdist.numerics import Field

from exterior_algebra import (Multivector, blade_from_basis, contraction,
                              mv_inner, perm_sign, regressive, star, wedge)

R = Field.REAL
C = Field.COMPLEX


def mv(n, terms, field=R):
    return Multivector(n, field, terms)


@pytest.fixture(scope="module")
def blades():
    a = blade_from_basis(corpus.BLADES_A, R)
    b = blade_from_basis(corpus.BLADES_B, R)
    c = blade_from_basis(corpus.BLADES_C, R)
    d = blade_from_basis(corpus.BLADES_D, R)
    return a, b, c, d


class TestPermSign:
    def test_sorted(self):
        assert perm_sign((1, 2), (3,)) == 1

    def test_single_transposition(self):
        assert perm_sign((2,), (1, 3)) == -1

    def test_shared_index(self):
        assert perm_sign((1, 3), (3, 4)) == 0

    @given(st.permutations(range(1, 7)), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_matches_inversion_parity(self, perm, cut):
        i, j = tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:]))
        inversions = sum(1 for x in i for y in j if x > y)
        assert perm_sign(i, j) == (-1) ** inversions


class TestWedge:
    def test_paper_two_blade(self, blades):
        a, _, _, _ = blades
        assert a.terms == {(1, 2): 2, (1, 3): 2, (2, 3): -1}

    def test_paper_four_blade_product(self, blades):
        a, b, _, _ = blades
        got = wedge(a, b)
        assert got.terms == {(1, 2, 3, 5): -2, (1, 2, 4, 5): 2, (1, 2, 3, 4): 2,
                             (1, 3, 4, 5): 2, (2, 3, 4, 5): -1}

    def test_alternation(self, rng):
        x = Multivector.from_vector(rng.standard_normal(6), R)
        assert wedge(x, x).is_zero

    def test_graded_anticommutativity(self, rng, field):
        n = 6
        for p, q in [(1, 2), (2, 2), (2, 3), (1, 3)]:
            a = _random_mv(rng, n, p, field)
            b = _random_mv(rng, n, q, field)
            lhs = wedge(a, b)
            rhs = (-1) ** (p * q) * wedge(b, a)
            assert _close(lhs, rhs)

    def test_norm_multiplicative_for_orthogonal_spans(self, rng, field):
        from grassdist.subspace import random_subspace
        full = random_subspace(7, 5, field, 99).basis
        a = blade_from_basis(full[:, :2], field)
        b = blade_from_basis(full[:, 2:], field)
        assert wedge(a, b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-10)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            wedge(mv(3, {(1,): 1}), mv(4, {(1,): 1}))


class TestInnerProduct:
    def test_paper_value(self, blades):
        a, b, _, _ = blades
        assert mv_inner(a, b) == pytest.approx(-1)

    def test_distinct_blades_orthogonal(self):
        assert mv_inner(mv(3, {(1, 2): 1}), mv(3, {(1, 3): 1})) == 0

    def test_norm_paper_value(self, blades):
        _, _, c, _ = blades
        assert c.norm() == pytest.approx(math.sqrt(2))

    def test_conjugation_on_first_argument(self):
        a = mv(2, {(1,): 1j}, C)
        b = mv(2, {(1,): 1}, C)
        assert mv_inner(a, b) == pytest.approx(-1j)
        assert mv_inner(b, a) == pytest.approx(1j)


class TestContraction:
    def test_paper_value(self, blades):
        a, _, c, _ = blades
        assert contraction(a, c).terms == {(4,): -1}

    def test_coordinate_identity(self):
        got = contraction(mv(2, {(1,): 1}), mv(2, {(1, 2): 1}))
        assert got.terms == {(2,): 1}

    def test_higher_grade_vanishes(self):
        got = contraction(mv(4, {(1, 2, 3): 1}), mv(4, {(1, 2): 1}))
        assert got.is_zero

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_adjunction_exhaustive_small(self, n):
        # <C, A _| B> == <A ^ C, B> over all coordinate blades
        idxs = [tuple(c) for p in range(n + 1)
                for c in itertools.combinations(range(1, n + 1), p)]
        for ia, ib, ic in itertools.product(idxs, repeat=3):
            a, b, c = (Multivector.basis_blade(n, R, k) for k in (ia, ib, ic))
            lhs = mv_inner(c, contraction(a, b))
            rhs = mv_inner(wedge(a, c), b)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjunction_random(self, rng, field):
        for _ in range(20):
            n = int(rng.integers(4, 9))
            a = _random_mv(rng, n, int(rng.integers(0, 3)), field)
            b = _random_mv(rng, n, int(rng.integers(0, 5)), field)
            c = _random_mv(rng, n, int(rng.integers(0, 4)), field)
            lhs = mv_inner(c, contraction(a, b))
            rhs = mv_inner(wedge(a, c), b)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestStar:
    def test_coordinate_blade(self):
        got = star(mv(5, {(1, 2): 1}))
        assert got.terms == {(3, 4, 5): 1}

    def test_scalar_to_top(self):
        got = star(Multivector.scalar(3, R))
        assert got.terms == {(1, 2, 3): 1}

    def test_isometry(self, rng, field):
        a = _random_mv(rng, 5, 3, field)
        assert star(a).norm() == pytest.approx(a.norm(), abs=1e-12)
        assert star(2 * mv(5, {(1, 2, 3): 1.0})).norm() == pytest.approx(2)

    def test_double_star_sign_exhaustive(self):
        for n in range(1, 6):
            for p in range(n + 1):
                for idx in itertools.combinations(range(1, n + 1), p):
                    a = Multivector.basis_blade(n, R, idx)
                    twice = star(star(a))
                    sign = (-1) ** (p * (n - p))
                    assert _close(twice, sign * a)


class TestRegressive:
    def test_paper_values(self, blades):
        a, b, c, d = blades
        assert regressive(c, d).terms == {(3,): 2}
        assert regressive(a, c).terms == {(): 2}
        assert regressive(a, b).is_zero

    def test_defining_identity(self, rng, field):
        for _ in range(15):
            n = 5
            a = _random_mv(rng, n, int(rng.integers(1, 4)), field)
            b = _random_mv(rng, n, int(rng.integers(1, 4)), field)
            lhs = star(regressive(a, b))
            rhs = wedge(star(a), star(b))
            assert _close(lhs, rhs, 1e-10)

    def test_sign_swap(self, rng):
        n = 5
        for p, q in [(2, 3), (3, 3), (2, 4)]:
            a = _random_mv(rng, n, p, R)
            b = _random_mv(rng, n, q, R)
            lhs = regressive(a, b)
            rhs = (-1) ** ((n - p) * (n - q)) * regressive(b, a)
            assert _close(lhs, rhs)


class TestBladeFromBasis:
    def test_canonical(self):
        assert blade_from_basis(np.eye(3)[:, :2], R).terms == {(1, 2): 1}

    def test_dependent_columns_vanish(self):
        v = np.array([[1.0, 2], [2, 4], [0, 0]])
        assert blade_from_basis(v, R).is_zero

    def test_paper_blade(self, blades):
        _, b, _, _ = blades
        assert b.terms == {(2, 3): 1, (2, 4): -1, (3, 5): -1, (4, 5): 1}

    def test_ambient_cap(self, rng):
        with pytest.raises(DimensionError):
            blade_from_basis(rng.standard_normal((AMBIENT_CAP + 1, 1)), R)


def test_pruning_keeps_terms_canonical():
    a = mv(3, {(1,): 1.0, (2,): 1e-15})
    assert (2,) not in a.terms
    diff = mv(3, {(1, 2): 1.0}) - mv(3, {(1, 2): 1.0})
    assert diff.is_zero


def _random_mv(rng, n, grade, field):
    terms = {}
    for idx in itertools.combinations(range(1, n + 1), grade):
        c = rng.standard_normal()
        if field is C:
            c = c + 1j * rng.standard_normal()
        terms[idx] = c
    return Multivector(n, field, terms)


def _close(a, b, tol=1e-12):
    return (a - b).norm() <= tol
