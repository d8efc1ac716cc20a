"""Exact integer linear algebra: SNF laws, determinants, invariant factors,
and lattice solves against slow oracles."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from braidkit import intlin
from braidkit.intlin import (
    IntMatrix,
    abelian_invariants,
    identity,
    lattice_restrict,
    mat_mul,
    mat_pow,
    matrix,
    parse_matrix,
    serialize_matrix,
    smith_normal_form,
    solve_in_lattice,
)
from braidkit.words import relation_rows
from oracles import (det, pure_sphere_kernel, smith_normal_form_dense,
                     solve_in_lattice_rational)

small_int = st.integers(-9, 9)


def matrices_3x3():
    return st.lists(st.lists(small_int, min_size=3, max_size=3),
                    min_size=3, max_size=3).map(matrix)


def sparse(rows):
    """The sparse {column: entry} rows of dense rows."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def dense_invariants(rows, num_generators):
    """(free_rank, torsion) straight from the dense Smith form: the oracle."""
    factors = smith_normal_form_dense(matrix(rows)).invariant_factors() if rows else ()
    return (num_generators - sum(1 for d in factors if d != 0),
            tuple(d for d in factors if d > 1))


def sympy_factors(rows):
    """Invariant factors from sympy over ZZ: the oracle where the dense
    Smith form's entries explode."""
    return tuple(int(d) for d in invariant_factors(Matrix(rows), domain=ZZ)) if rows else ()


def sympy_invariants(rows, num_generators):
    """(free_rank, torsion) from `sympy_factors`."""
    factors = sympy_factors(rows)
    return (num_generators - sum(1 for d in factors if d != 0),
            tuple(d for d in factors if d > 1))


# Matrices without a unit entry are where the dense Smith form's entries can
# grow without bound (see test_smith_normal_form_finishes_on_a_unitless_7x7);
# beyond 6x6 they are checked against sympy instead.
MIXED = (0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3)
NO_UNIT = (0, 0, 0, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6)
DENSE_ORACLE_MAX = 6


@st.composite
def relation_matrices(draw, min_rows=0):
    pool = draw(st.sampled_from((MIXED, NO_UNIT)))
    ncols = draw(st.integers(1, 10))
    nrows = draw(st.integers(min_rows, 10))
    empty = draw(st.sets(st.integers(0, ncols - 1)))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    rows = [[0 if i in zero_rows or j in empty else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)]
    dense = pool is MIXED or max(nrows, ncols) <= DENSE_ORACLE_MAX
    return rows, ncols, dense


@settings(max_examples=300, derandomize=True, deadline=500)
@given(relation_matrices(min_rows=1))
def test_snf_transforms(case):
    rows, _, dense = case
    a = matrix(rows)
    r = smith_normal_form(a)
    assert mat_mul(r.p, a, r.q) == r.d
    assert abs(det(r.p)) == 1
    assert abs(det(r.q)) == 1
    assert all(x == 0 for i, row in enumerate(r.d.rows) for j, x in enumerate(row) if i != j)
    factors = r.invariant_factors()
    assert all(x >= 0 for x in factors)
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0 if x else y == 0
    if dense:
        assert factors == smith_normal_form_dense(a).invariant_factors()
    else:
        assert factors == sympy_factors(rows)


@settings(max_examples=60)
@given(matrices_3x3())
def test_snf_preserves_absolute_determinant(a):
    r = smith_normal_form(a)
    assert abs(det(a)) == abs(r.d.rows[0][0] * r.d.rows[1][1] * r.d.rows[2][2])


def test_det_examples():
    assert det(matrix([[1, 2], [3, 4]])) == -2
    assert det(identity(4)) == 1
    assert det(matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30


def test_mat_pow():
    m = matrix([[1, 1], [0, 1]])
    assert mat_pow(m, 5) == matrix([[1, 5], [0, 1]])
    assert mat_pow(m, 0) == identity(2)
    with pytest.raises(ValueError, match="negative power -1 of a matrix"):
        mat_pow(m, -1)


def test_abelian_invariants_basic():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    assert abelian_invariants(sparse([[2, 0], [0, 3]]), 2) == (0, (6,))
    # no relators: free
    assert abelian_invariants(sparse([[0, 0]]), 2) == (2, ())
    # unit invariant factors are dropped
    assert abelian_invariants(sparse([[1, 0], [0, 4]]), 2) == (0, (4,))
    # columns no relation touches are free
    assert abelian_invariants(sparse([[0, 1, 0, 0]]), 4) == (3, ())
    # a unit pivot fills in: Z^3 / <(1,2,0), (3,0,4), (0,2,2)> = Z/2 x Z/10
    assert abelian_invariants(sparse([[1, 2, 0], [3, 0, 4], [0, 2, 2]]), 3) == (0, (2, 10))
    # a column outside the generators; a zero entry names no column
    for row in ({3: 1}, {-1: 1}, {0: 1, 7: -2}):
        with pytest.raises(ValueError, match="relation 1 has a column outside 0..2"):
            abelian_invariants([{0: 2}, row], 3)
    assert abelian_invariants([{0: 2}, {5: 0}], 3) == (2, (2,))


def test_abelian_invariants_leave_the_callers_rows_untouched():
    # unit pivots fill in and clear rows in the eliminator's own copies;
    # the zero entry is dropped from the copy only
    rows = [{0: 1, 1: 2}, {0: 3, 2: 4}, {1: 2, 2: 2, 3: 0}]
    before = [dict(r) for r in rows]
    assert abelian_invariants(rows, 4) == (1, (2, 10))
    assert rows == before


def test_lattice_restrict_identity():
    basis = ((1, 0, 1), (0, 1, 1))
    # the identity acts as the identity on any invariant sublattice
    assert lattice_restrict(identity(3), basis) == identity(2)


def test_lattice_restrict_names_the_vector_that_leaves():
    swap = matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError) as e:
        lattice_restrict(swap, [(1, 0)])
    assert str(e.value) == "sublattice not invariant: image of (1, 0) is not in the span"
    assert lattice_restrict(swap, [(1, 1)]) == matrix([[1]])


def test_lattice_restrict_rejects_a_dependent_basis():
    # the identity keeps every lattice, but (2,) and (1,) give no coordinates
    with pytest.raises(ValueError) as e:
        lattice_restrict(identity(1), [(2,), (1,)])
    assert str(e.value) == "basis vectors are linearly dependent: rank 1 of 2 vectors"
    with pytest.raises(ValueError) as e:
        lattice_restrict(identity(3), [(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert str(e.value) == "basis vectors are linearly dependent: rank 2 of 3 vectors"


@st.composite
def lattice_cases(draw):
    """A basis B (n x k, possibly of lower rank) and targets: members B c,
    members moved by a small vector, arbitrary vectors and zero."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(small_int, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        # make the last column an integer combination of the others
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        cols[-1] = [sum(c * col[i] for c, col in zip(coeffs, cols[:-1]))
                    for i in range(n)]
    vec = st.lists(small_int, min_size=n, max_size=n)
    targets = [[0] * n]
    for c in draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                           max_size=3)):
        member = [sum(x * col[i] for x, col in zip(c, cols)) for i in range(n)]
        nudge = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        targets += [member, [a + b for a, b in zip(member, nudge)]]
    targets += draw(st.lists(vec, max_size=3))
    return matrix([list(r) for r in zip(*cols)]), targets


@settings(max_examples=300, derandomize=True)
@given(lattice_cases())
def test_solve_in_lattice_matches_the_rational_oracle(case):
    b, targets = case
    got = solve_in_lattice(b, targets)
    assert got == [solve_in_lattice_rational(b, y) for y in targets]
    for x, y in zip(got, targets):
        if x is not None:
            assert tuple(r[0] for r in mat_mul(b, matrix([[v] for v in x])).rows) \
                == tuple(y)


def test_solve_in_lattice_full_rank_membership():
    b = matrix([[2, 0], [0, 3], [1, 1]])
    assert solve_in_lattice(b, [(4, 3, 3), (2, 0, 0), (0, 0, 0), (1, 0, 0)]) == [
        (2, 1), None, (0, 0), None]
    with pytest.raises(ValueError) as e:
        solve_in_lattice(b, [(1, 2)])
    assert str(e.value) == "target length 2 != basis vector length 3"


def test_serialize_round_trip():
    m = matrix([[0, -7], [123456789123456789, 1]])
    assert parse_matrix(serialize_matrix(m)) == m


@pytest.mark.parametrize("rows", [((1, 2), (3,)), ((1,), (2,), ()),
                                  ((), (1,)), ((1, 2), (3, 4), (5, 6, 7))])
def test_ragged_rows_are_refused(rows):
    with pytest.raises(ValueError, match="ragged matrix"):
        IntMatrix(rows)


@pytest.mark.parametrize("header", ["0 3", "3 0", "-1 2", "2 -1"])
def test_parse_matrix_rejects_shapes_it_cannot_keep(header):
    # a 0x3 matrix would come back as 0x0, and a negative size is no shape
    with pytest.raises(ValueError, match="bad matrix header '%s'" % header):
        parse_matrix(header + "\n")
    assert parse_matrix("0 0\n") == matrix([])


def test_snf_rectangular():
    a = matrix([[2, 4, 6], [4, 8, 12]])
    r = smith_normal_form(a)
    assert mat_mul(r.p, a, r.q) == r.d
    assert r.d.rows[0][0] == 2
    assert r.d.rows[1][1] == 0


@settings(max_examples=300, derandomize=True, deadline=500)
@given(relation_matrices())
def test_abelian_invariants_match_dense_oracle(case):
    rows, ncols, dense = case
    oracle = dense_invariants if dense else sympy_invariants
    assert abelian_invariants(sparse(rows), ncols) == oracle(rows, ncols)


def test_abelian_invariants_finish_on_a_unitless_block():
    # no +/-1 entry, so the whole matrix is the leftover block; the dense
    # Smith form's entries grow without bound here (over 25 s)
    rows = [[3, 2, 2, 4, 0, 0, 2, 0, -2], [0, 0, 0, 0, 0, 4, 4, 4, 4],
            [4, 0, 0, 3, 0, 2, 0, 2, 2], [0, 0, 2, 0, 4, 0, 0, 0, 4],
            [-2, -2, 0, 4, 0, 4, -2, 2, 2], [-2, 4, 2, 3, -2, 0, 0, 0, 0],
            [2, 2, 2, 0, 0, 3, 3, 0, 0], [3, -2, 0, 0, 3, 0, 0, 4, 4],
            [0, -2, 0, 3, 4, -2, 0, -2, 0], [0, 0, 0, 0, 2, -2, -2, 4, 0]]
    start = time.perf_counter()
    got = abelian_invariants(sparse(rows), 9)
    assert time.perf_counter() - start < 0.5
    assert got == (0, (2, 2, 2, 2, 4)) == sympy_invariants(rows, 9)


def test_smith_normal_form_finishes_on_a_unitless_7x7():
    # no +/-1 entry; the dense Smith form's entries explode here (about 7 s)
    a = matrix([[2, -3, 0, 4, 3, 5, -4], [2, -4, -3, 4, 3, -3, 3],
                [0, -4, -4, 5, -6, 5, 3], [4, 5, 0, -6, 2, -5, 0],
                [-4, 5, 0, 0, -6, -4, -6], [-2, 0, -5, 0, 0, 0, 4],
                [0, -6, -6, -2, 2, -2, 0]])
    start = time.perf_counter()
    r = smith_normal_form(a)
    assert time.perf_counter() - start < 0.5
    assert mat_mul(r.p, a, r.q) == r.d
    assert r.invariant_factors() == (1, 1, 1, 1, 1, 1, 1189892) == sympy_factors(a.rows)


def test_abelian_invariants_match_dense_oracle_on_presentations():
    from braidkit.presentations import gamma2_annulus, punctured_sphere, sphere_braid
    from braidkit.reidschreier import rs_finite_cyclic
    from braidkit.words import Gen, exponent_vector, relation_rows

    cases = [sphere_braid(n) for n in range(3, 9)]
    cases += [punctured_sphere(m, n) for m in range(1, 5) for n in range(1, 5)]
    cases += [gamma2_annulus(m).instantiate(k) for m in (3, 4, 5) for k in (2, 3, 5)]
    cases += [rs_finite_cyclic(sphere_braid(n), 2 * (n - 1), Gen("s", (1,))).presentation
              for n in (4, 5, 6)]
    for p in cases:
        rows = [exponent_vector(r, p.generators) for r in p.relators]
        sparse_rows = relation_rows(p.relators, p.generators)
        # each sparse row is the nonzero entries of the dense one
        assert sparse_rows == sparse(rows), p.name
        n = len(p.generators)
        assert abelian_invariants(sparse_rows, n) == dense_invariants(rows, n), p.name


def _pure_sphere_rows(n):
    p = pure_sphere_kernel(n).presentation
    return relation_rows(p.relators, p.generators), len(p.generators)


# (n, seed of the relator shuffle, invariants, block bound)
@pytest.mark.parametrize("n, seed, invariants, block", [
    pytest.param(5, None, (5, (2,)), (24, 6), id="5-invariants0-block0"),
    pytest.param(6, None, (9, (2,)), (120, 7), id="6-invariants1-block1"),
    pytest.param(6, 1, (9, (2,)), (120, 7), id="6-shuffled1"),
    pytest.param(6, 2, (9, (2,)), (120, 7), id="6-shuffled2"),
])
def test_unit_pivots_leave_no_larger_block(monkeypatch, n, seed, invariants, block):
    # the pivot order sets the fill-in: taken in row-id order, shuffled
    # relators leave thousands of rows, and longest rows first a larger
    # block at P_5; shortest rows first must keep the block within the
    # bounds whatever the relator order
    rows, ngens = _pure_sphere_rows(n)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    shapes = []
    smith = intlin._smith
    monkeypatch.setattr(intlin, "_smith",
                        lambda m, *rest: shapes.append((len(m), len(m[0]))) or smith(m, *rest))
    assert abelian_invariants(rows, ngens) == invariants
    (nrows, ncols), = shapes
    assert nrows <= block[0] and ncols <= block[1]


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_least_filled_pivot_column_bounds_the_fill_in(seed):
    # pivoting each row on its least-filled unit column keeps the fill-in
    # of raw P_6(S^2) near 34 000 entries; its first unit entry instead
    # gives over 40 000, whatever the relator order
    rows, _ = _pure_sphere_rows(6)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    fill = [0]

    class Row(dict):
        def __setitem__(self, k, x):
            fill[0] += k not in self
            super().__setitem__(k, x)

    intlin._eliminate_unit_pivots({i: Row(r) for i, r in enumerate(rows) if r})
    assert fill[0] <= 37_000
