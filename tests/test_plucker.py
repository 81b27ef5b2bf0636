import itertools

import numpy as np
import pytest

from grassdist.errors import DimensionError
from grassdist.numerics import Field

from conftest import random_matrix
from exterior_algebra import (Multivector, blade_from_basis, contraction,
                              perm_sign, regressive, wedge)

R = Field.REAL


@pytest.mark.parametrize("n", range(1, 9))
def test_cauchy_binet(rng, field, n):
    # the squared norm of the Pluecker coordinates is the Gram determinant;
    # unit columns that are not orthogonal keep it in (0, 1]
    for p in range(n + 1):
        b = random_matrix(rng, n, p, field)
        b = b / np.linalg.norm(b, axis=0)
        gram = float(np.linalg.det(b.conj().T @ b).real)
        got = blade_from_basis(b, field).norm() ** 2
        assert got == pytest.approx(gram, rel=1e-12, abs=1e-12)


def test_ambient_cap_is_14(rng):
    assert blade_from_basis(rng.standard_normal((14, 1)), R).norm() > 0
    with pytest.raises(DimensionError):
        blade_from_basis(np.ones((15, 1)), R)


def test_coordinate_products_follow_the_sign_rules():
    n = 5
    full = set(range(1, n + 1))
    idxs = [c for p in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), p)]
    for i, j in itertools.product(idxs, repeat=2):
        a = Multivector.basis_blade(n, R, i)
        b = Multivector.basis_blade(n, R, j)
        want = {tuple(sorted(i + j)): perm_sign(i, j)} if perm_sign(i, j) else {}
        assert wedge(a, b).terms == want
        if set(i) | set(j) == full:
            ic = tuple(sorted(full - set(i)))
            jc = tuple(sorted(full - set(j)))
            want = {tuple(x for x in i if x in j): perm_sign(jc, ic)}
        else:
            want = {}
        assert regressive(a, b).terms == want


def loop_product(kind, a, b):
    """The product as a loop over term pairs, by the coordinate rules in
    the docstrings of ``wedge``, ``contraction`` and ``regressive``."""
    full = set(range(1, a.ambient_dim + 1))
    out = {}
    for i, x in a.terms.items():
        for j, y in b.terms.items():
            if kind is wedge:
                sign, key, c = perm_sign(i, j), tuple(sorted(i + j)), x * y
            elif kind is contraction:
                key = tuple(e for e in j if e not in i)
                sign = perm_sign(i, key) if set(i) <= set(j) else 0
                c = np.conj(x) * y
            else:
                ic, jc = tuple(sorted(full - set(i))), tuple(sorted(full - set(j)))
                sign = perm_sign(jc, ic) if set(i) | set(j) == full else 0
                key, c = tuple(e for e in i if e in j), x * y
            if sign:
                out[key] = out.get(key, 0) + sign * c
    return out


@pytest.mark.parametrize("kind", [wedge, contraction, regressive],
                         ids=["wedge", "contraction", "regressive"])
def test_tables_match_the_term_pair_loop(rng, field, kind):
    # mixed-grade multivectors with O(1) coefficients; the tables sum in
    # another order, so agreement is to a few ulp of the largest sum
    for _ in range(30):
        n = int(rng.integers(0, 7))
        a, b = (Multivector(n, field, {
            idx: complex(*rng.standard_normal(2)) if field is Field.COMPLEX
            else rng.standard_normal()
            for g in rng.choice(n + 1, size=min(n + 1, 2), replace=False)
            for idx in itertools.combinations(range(1, n + 1), int(g))})
            for _ in range(2))
        got, want = kind(a, b).terms, loop_product(kind, a, b)
        for key in set(got) | set(want):
            assert abs(got.get(key, 0) - want.get(key, 0)) <= 1e-12
