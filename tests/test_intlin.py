"""Exact integer linear algebra: SNF laws, determinants, invariant factors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidkit.intlin import (
    IntMatrix,
    abelian_invariants,
    identity,
    inv_unimodular,
    lattice_restrict,
    mat_mul,
    mat_pow,
    matrix,
    parse_matrix,
    serialize_matrix,
    smith_normal_form,
)
from oracles import det

small_int = st.integers(-9, 9)


def matrices_3x3():
    return st.lists(st.lists(small_int, min_size=3, max_size=3),
                    min_size=3, max_size=3).map(matrix)


@settings(max_examples=60)
@given(matrices_3x3())
def test_snf_transforms(a):
    r = smith_normal_form(a)
    assert mat_mul(r.p, a, r.q) == r.d
    assert abs(det(r.p)) == 1
    assert abs(det(r.q)) == 1
    diag = [r.d.rows[i][i] for i in range(3)]
    assert all(r.d.rows[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    for x, y in zip(diag, diag[1:]):
        if y != 0:
            assert x != 0 and y % x == 0


@settings(max_examples=60)
@given(matrices_3x3())
def test_snf_preserves_absolute_determinant(a):
    r = smith_normal_form(a)
    assert abs(det(a)) == abs(r.d.rows[0][0] * r.d.rows[1][1] * r.d.rows[2][2])


@settings(max_examples=60)
@given(matrices_3x3())
def test_unimodular_inverse(a):
    p = smith_normal_form(a).p
    assert mat_mul(p, inv_unimodular(p)) == identity(3)


def test_det_examples():
    assert det(matrix([[1, 2], [3, 4]])) == -2
    assert det(identity(4)) == 1
    assert det(matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30


def test_mat_pow():
    m = matrix([[1, 1], [0, 1]])
    assert mat_pow(m, 5) == matrix([[1, 5], [0, 1]])
    assert mat_pow(m, 0) == identity(2)


def test_abelian_invariants_basic():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    assert abelian_invariants(matrix([[2, 0], [0, 3]]), 2) == (0, (6,))
    # no relators: free
    assert abelian_invariants(matrix([[0, 0]]), 2) == (2, ())
    # unit invariant factors are dropped
    assert abelian_invariants(matrix([[1, 0], [0, 4]]), 2) == (0, (4,))
    # columns no relation touches are free
    assert abelian_invariants([[0, 1, 0, 0]], 4) == (3, ())
    # a unit pivot fills in: Z^3 / <(1,2,0), (3,0,4), (0,2,2)> = Z/2 x Z/10
    assert abelian_invariants([[1, 2, 0], [3, 0, 4], [0, 2, 2]], 3) == (0, (2, 10))
    with pytest.raises(ValueError):
        abelian_invariants([[1, 2]], 3)


def test_lattice_restrict_identity():
    basis = ((1, 0, 1), (0, 1, 1))
    # the identity acts as the identity on any invariant sublattice
    assert lattice_restrict(identity(3), basis) == identity(2)


def test_serialize_round_trip():
    m = matrix([[0, -7], [123456789123456789, 1]])
    assert parse_matrix(serialize_matrix(m)) == m


def test_snf_rectangular():
    a = matrix([[2, 4, 6], [4, 8, 12]])
    r = smith_normal_form(a)
    assert mat_mul(r.p, a, r.q) == r.d
    assert r.d.rows[0][0] == 2
    assert r.d.rows[1][1] == 0


def dense_invariants(rows, num_generators):
    """(free_rank, torsion) straight from the dense Smith form: the oracle."""
    factors = smith_normal_form(matrix(rows)).invariant_factors() if rows else ()
    return (num_generators - sum(1 for d in factors if d != 0),
            tuple(d for d in factors if d > 1))


# The dense oracle's entries can grow without bound on matrices with few
# units (a 10x9 matrix of entries 0, +/-2, 3, 4 did not finish in 25 s), so
# the pools keep zeros common and units frequent, and matrices without a
# unit entry stay within 6x6.
MIXED = (0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3)
NO_UNIT = (0, 0, 0, 2, -2, 3, 4)


@st.composite
def relation_matrices(draw):
    pool = draw(st.sampled_from((MIXED, NO_UNIT)))
    size = 10 if pool is MIXED else 6
    ncols = draw(st.integers(1, size))
    nrows = draw(st.integers(0, size))
    empty = draw(st.sets(st.integers(0, ncols - 1)))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    rows = [[0 if i in zero_rows or j in empty else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)]
    return rows, ncols


@settings(max_examples=300, derandomize=True, deadline=None)
@given(relation_matrices())
def test_abelian_invariants_match_dense_oracle(case):
    rows, ncols = case
    assert abelian_invariants(rows, ncols) == dense_invariants(rows, ncols)


def test_abelian_invariants_match_dense_oracle_on_presentations():
    from braidkit.presentations import gamma2_annulus, punctured_sphere, sphere_braid
    from braidkit.reidschreier import rs_finite_cyclic
    from braidkit.words import Gen, exponent_vector

    cases = [sphere_braid(n) for n in range(3, 9)]
    cases += [punctured_sphere(m, n) for m in range(1, 5) for n in range(1, 5)]
    cases += [gamma2_annulus(m).instantiate(k) for m in (3, 4, 5) for k in (2, 3, 5)]
    cases += [rs_finite_cyclic(sphere_braid(n), 2 * (n - 1), Gen("s", (1,))).presentation
              for n in (4, 5, 6)]
    for p in cases:
        rows = [exponent_vector(r, p.generators) for r in p.relators]
        n = len(p.generators)
        assert abelian_invariants(rows, n) == dense_invariants(rows, n), p.name
