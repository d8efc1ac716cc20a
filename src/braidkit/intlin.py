"""Exact integer matrices: Hermite and Smith forms, lattices.

One row Hermite form, U * A = H by extended-gcd row operations with the
entries above each pivot reduced, serves two routines: integer solves
against a lattice basis (`solve_in_lattice`, factoring the basis once for
any number of targets) and the Smith form, from Hermite forms of the
matrix and of its transpose in turn (`_smith`), with the transforms P, Q
or without them.

Rewritten presentations have thousands of relations, a few percent dense and
almost all +/-1: `abelian_invariants` takes them as sparse rows {column:
entry} (`words.relation_rows`), eliminates unit pivots and hands `_smith`
only the block left without a unit entry.  No floating point, no fractions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import mul
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(map(len, self.rows))) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.rows, other.rows)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else IntMatrix(())

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)


def matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mat_mul(a: IntMatrix, b: IntMatrix, *rest: IntMatrix) -> IntMatrix:
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch: %dx%d * %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols))
    bt = b.transpose().rows
    product = IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in bt)
                              for row in a.rows))
    return mat_mul(product, *rest) if rest else product


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if a.nrows != a.ncols:
        raise ValueError("power of non-square matrix")
    if k < 0:
        raise ValueError("negative power %d of a matrix" % k)
    result = identity(a.nrows)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


@dataclass(frozen=True)
class SnfResult:
    """P * A * Q = D with P, Q unimodular and D diagonal, d_i >= 0, d_i | d_{i+1}."""

    p: IntMatrix
    d: IntMatrix
    q: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.nrows, self.d.ncols)))


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """P * A * Q = D, with P and Q built up alongside `_smith`."""
    nr, nc = a.nrows, a.ncols
    p = [list(r) for r in identity(nr).rows]
    qt = [list(r) for r in identity(nc).rows]
    d = [[0] * nc for _ in range(nr)]
    for i, x in enumerate(_smith([list(r) for r in a.rows], p, qt)):
        d[i][i] = x
    return SnfResult(matrix(p), matrix(d), IntMatrix(tuple(zip(*qt))))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite(m: list[list[int]], u: list[list[int]] | None = None) -> list[int]:
    """Bring the rows of m to Hermite form in place; return the pivot columns.

    Every row operation is unimodular and is also done on u when given, so
    u becomes U * u with U * m = H.  H is in row echelon form, its first
    len(pivots) rows are nonzero, each pivot is positive and the entries
    above it lie in [0, pivot).  A row is combined into the pivot row by
    the extended gcd of their entries (Kannan-Bachem, SIAM J. Comput. 1979),
    or simply subtracted when the pivot divides it.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    both = (m,) if u is None else (m, u)
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        for i in range(r + 1, nr):
            b = m[i][c]
            if not b:
                continue
            a = m[r][c]
            if not a:
                for w in both:
                    w[r], w[i] = w[i], w[r]
            elif b % a == 0:
                q = b // a
                for w in both:
                    w[i] = [y - q * x for x, y in zip(w[r], w[i])]
            else:
                # [[s, t], [-b/g, a/g]] has determinant 1 and clears m[i][c]
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                for w in both:
                    top, low = w[r], w[i]
                    w[r] = [s * x + t * y for x, y in zip(top, low)]
                    w[i] = [a * y - b * x for x, y in zip(top, low)]
        p = m[r][c]
        if not p:
            continue
        if p < 0:
            p = -p
            for w in both:
                w[r] = [-x for x in w[r]]
        for i in range(r):
            q = m[i][c] // p
            if q:
                for w in both:
                    w[i] = [y - q * x for x, y in zip(w[r], w[i])]
        pivots.append(c)
        r += 1
    return pivots


def _smith(m: list[list[int]], p: list[list[int]] | None = None,
           qt: list[list[int]] | None = None) -> list[int]:
    """The nonzero invariant factors of m, in divisibility order.

    Row Hermite forms of m and of its transpose alternate, each keeping only
    the nonzero rows, until the matrix is diagonal (Kannan-Bachem); pairwise
    (gcd, lcm) steps then put the diagonal in divisibility order.  m is
    overwritten.  When p and qt (Q transposed) are given, the row operations
    are also done on p and the column operations on qt, so that P * A * Q is
    diagonal with these factors first: `_hermite` only touches the rows of
    p or qt that the kept rows of m still index.
    """
    transforms = (p, qt)
    side = 0
    while True:
        rank = len(_hermite(m, transforms[side]))
        m = m[:rank]
        if all(not x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
            break
        m = [list(col) for col in zip(*m)]
        side = 1 - side
    d = [m[i][i] for i in range(len(m))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i] == 0:
                continue
            g, s, t = _xgcd(d[i], d[j])
            a, b = d[i] // g, d[j] // g
            d[i], d[j] = g, a * d[j]
            if p is not None:
                # [[s, t], [-b, a]] diag(a g, b g) [[1, -t b], [1, s a]] = diag(g, a b g)
                p[i], p[j] = ([s * x + t * y for x, y in zip(p[i], p[j])],
                              [a * y - b * x for x, y in zip(p[i], p[j])])
                qt[i], qt[j] = ([x + y for x, y in zip(qt[i], qt[j])],
                                [s * a * y - t * b * x for x, y in zip(qt[i], qt[j])])
    return d


def abelian_invariants(relations: Sequence[dict[int, int]],
                       num_generators: int) -> tuple[int, tuple[int, ...]]:
    """Invariants (free_rank, torsion) of Z^n modulo the span of `relations`.

    Each relation is a sparse row {column: entry} over `num_generators`
    generators; it is copied, zero entries dropped, and left untouched.
    Torsion factors are the invariant factors > 1, in divisibility order.

    A +/-1 entry splits off an invariant factor 1: clear its column with row
    operations, then its row with column operations, and drop both.  Pivots
    are taken shortest row first, each on its unit entry in the column that
    holds the fewest rows, to keep fill-in low (after Havas-Holt-Rees,
    "Recognizing badly presented Z-modules", 1993): a pivot row of weight w
    adds at most w - 1 entries to each other row of its column, and the
    least-filled column touches the fewest rows.  Any order of unit pivots
    leaves the same module.  The block that has no unit entry left goes to
    `_smith`; columns no row touches are free.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, r in enumerate(relations):
        row = {j: x for j, x in r.items() if x}
        if any(not 0 <= j < num_generators for j in row):
            raise ValueError("relation %d has a column outside 0..%d" % (i, num_generators - 1))
        if row:
            rows[i] = row
    pivots = _eliminate_unit_pivots(rows)
    factors: list[int] = []
    if rows:
        cols = sorted({j for row in rows.values() for j in row})
        factors = _smith([[row.get(j, 0) for j in cols]
                          for _, row in sorted(rows.items())])
    rank = num_generators - pivots - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return rank, torsion


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> int:
    """Eliminate +/-1 pivots from sparse `rows` in place; return their number.

    `rows` maps row ids to {column: nonzero entry}; rows that become zero are
    removed.  Each pass visits the live rows shortest first, by their length
    when the pass starts, and pivots each row that still has a unit entry on
    the one whose column holds the fewest rows; passes repeat until one
    pivots nothing.  Without the sort, fill-in follows the relator order:
    raw P_6(S^2) with shuffled relators then leaves thousands of rows.
    """
    cols: dict[int, set[int]] = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    pivots, before = 0, -1
    while pivots > before:
        before = pivots
        for i in sorted(rows, key=lambda i: len(rows[i])):
            pivot_row = rows.get(i, {})
            units = [j for j, x in pivot_row.items() if x in (1, -1)]
            if not units:
                continue
            j = min(units, key=lambda j: len(cols[j]))
            u = pivot_row.pop(j)
            del rows[i]
            for k in pivot_row:
                cols[k].discard(i)
            # row s -= (a_sj / u) * row i; u = +/-1 is its own inverse
            for s in cols.pop(j):
                if s == i:
                    continue
                row = rows[s]
                f = row.pop(j) * u
                for k, x in pivot_row.items():
                    y = row.get(k, 0) - f * x
                    if y:
                        if k not in row:
                            cols[k].add(s)
                        row[k] = y
                    else:
                        del row[k]
                        cols[k].discard(s)
                if not row:
                    del rows[s]
            pivots += 1
    return pivots


def lattice_restrict(m: IntMatrix, basis: Sequence[Sequence[int]]) -> IntMatrix:
    """Matrix of m restricted to the sublattice spanned by the given column vectors.

    Columns of the result express m·b_j in the basis (b_1..b_k).  Raises if the
    basis vectors are linearly dependent, so that coordinates are not unique,
    or if the sublattice is not invariant, naming the offending vector.
    """
    cols = [tuple(int(x) for x in b) for b in basis]
    n = m.nrows
    if any(len(c) != n for c in cols):
        raise ValueError("basis vector length mismatch")
    rank = len(_hermite([list(c) for c in cols]))
    if rank < len(cols):
        raise ValueError("basis vectors are linearly dependent: rank %d of %d vectors"
                         % (rank, len(cols)))
    b = IntMatrix(tuple(zip(*cols)))  # n x k, columns are basis vectors
    images = [tuple(sum(map(mul, row, c)) for row in m.rows) for c in cols]
    coords = solve_in_lattice(b, images)
    for c, x in zip(cols, coords):
        if x is None:
            raise ValueError("sublattice not invariant: image of %s is not in the span" % (c,))
    return IntMatrix(tuple(zip(*coords)))


def solve_in_lattice(b: IntMatrix,
                     targets: Sequence[Sequence[int]]) -> list[tuple[int, ...] | None]:
    """For each target y, an integer x with B x = y, or None.

    B's Hermite form U * B = H is computed once.  Then B x = y holds exactly
    when H x = z = U * y, so z must vanish below the rank, and x follows by
    back-substitution with exact division, every non-pivot coordinate 0.
    That is the rational solution with those coordinates 0; None means it is
    not integral, which for B of full column rank means y is not in the
    lattice spanned by B's columns.
    """
    n, k = b.nrows, b.ncols
    h = [list(r) for r in b.rows]
    u = [list(r) for r in identity(n).rows]
    pivots = _hermite(h, u)
    rank = len(pivots)

    def back_substitute(z: list[int]) -> tuple[int, ...] | None:
        x = [0] * k
        for i in reversed(range(rank)):
            row = h[i]
            x[pivots[i]], rem = divmod(z[i] - sum(row[p] * x[p] for p in pivots[i + 1:]),
                                       row[pivots[i]])
            if rem:
                return None
        return tuple(x)

    out = []
    for y in targets:
        if len(y) != n:
            raise ValueError("target length %d != basis vector length %d" % (len(y), n))
        z = [sum(map(mul, row, y)) for row in u]
        out.append(None if any(z[rank:]) else back_substitute(z))
    return out


def parse_matrix(text: str) -> IntMatrix:
    """Matrix file format: first line ``ROWS COLS``, then rows of signed ints."""
    lines = [ln for ln in (l.strip() for l in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        nr, nc = (int(x) for x in lines[0].split())
    except ValueError:
        raise ValueError("bad matrix header %r; expected 'ROWS COLS'" % lines[0])
    if min(nr, nc) < 0 or (nr == 0) != (nc == 0):   # IntMatrix keeps no 0xN shape
        raise ValueError("bad matrix header %r; ROWS and COLS must both be "
                         "positive, or both 0" % lines[0])
    if len(lines) - 1 != nr:
        raise ValueError("expected %d rows, got %d" % (nr, len(lines) - 1))
    rows = []
    for ln in lines[1:]:
        row = []
        for x in ln.split():
            try:
                row.append(int(x))
            except ValueError:
                raise ValueError("row %r has entry %r, expected an integer" % (ln, x)) from None
        if len(row) != nc:
            raise ValueError("row %r has %d entries, expected %d" % (ln, len(row), nc))
        rows.append(row)
    return matrix(rows)


def serialize_matrix(m: IntMatrix) -> str:
    head = "%d %d" % (m.nrows, m.ncols)
    return "\n".join([head] + [" ".join(str(x) for x in r) for r in m.rows]) + "\n"
