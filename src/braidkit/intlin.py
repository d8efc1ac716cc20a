"""Exact integer matrices: Smith normal form, unimodular inverses, lattices.

Matrices are dense and the dense routines favour clarity over asymptotics;
they serve small matrices and every caller that needs the transforms P, Q.
The one sparse routine is `abelian_invariants`: relation matrices of
rewritten presentations are large (hundreds of rows), a few percent dense
and almost all +/-1, so it eliminates unit pivots on sparse rows first and
gives the dense Smith form only the block left without a unit entry.
No floating point anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
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

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return mat_mul(self, other)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.rows, other.rows)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

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
    product = IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                              for row in a.rows))
    return mat_mul(product, *rest) if rest else product


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if a.nrows != a.ncols:
        raise ValueError("power of non-square matrix")
    if k < 0:
        return mat_pow(inv_unimodular(a), -k)
    result = identity(a.nrows)
    base = a
    while k:
        if k & 1:
            result = result * base
        base = base * base
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
    nr, nc = a.nrows, a.ncols
    m = [list(r) for r in a.rows]
    p = [list(r) for r in identity(nr).rows]
    q = [list(r) for r in identity(nc).rows]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row dst += c * row src
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        p[dst] = [x + c * y for x, y in zip(p[dst], p[src])]

    def add_col(dst, src, c):
        for row in m:
            row[dst] += c * row[src]
        for row in q:
            row[dst] += c * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        p[i] = [-x for x in p[i]]

    t = 0
    while t < min(nr, nc):
        # find pivot of minimal absolute value in the trailing submatrix
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] % m[t][t] != 0:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    swap_rows(t, i)
                    dirty = True
                elif m[i][t] != 0:
                    add_row(i, t, -(m[i][t] // m[t][t]))
            for j in range(t + 1, nc):
                if m[t][j] % m[t][t] != 0:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    swap_cols(t, j)
                    dirty = True
                elif m[t][j] != 0:
                    add_col(j, t, -(m[t][j] // m[t][t]))
        # enforce divisibility into the rest of the matrix
        fixed = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    add_row(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    d = [[0] * nc for _ in range(nr)]
    for i in range(min(nr, nc)):
        d[i][i] = m[i][i]
    return SnfResult(matrix(p), matrix(d), matrix(q))


def inv_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant ±1 (error otherwise)."""
    if a.nrows != a.ncols:
        raise ValueError("inverse of non-square matrix")
    snf = smith_normal_form(a)
    if any(snf.d[i, i] != 1 for i in range(a.nrows)):
        raise ValueError("matrix is not unimodular; invariant factors %s"
                         % (snf.invariant_factors(),))
    # P A Q = I  =>  A^-1 = Q P
    return snf.q * snf.p


def abelian_invariants(relations: IntMatrix | Sequence[Sequence[int]],
                       num_generators: int) -> tuple[int, tuple[int, ...]]:
    """Invariants (free_rank, torsion) of Z^n modulo the row span of `relations`.

    Rows are relation vectors over `num_generators` generators.  Torsion
    factors are the invariant factors > 1, in divisibility order.

    A +/-1 entry splits off an invariant factor 1: clear its column with row
    operations, then its row with column operations, and drop both.  Pivots
    are taken in Markowitz order, least (row weight - 1) * (column count - 1)
    first, to keep fill-in low (Havas-Holt-Rees, "Recognizing badly
    presented Z-modules", 1993).  The dense Smith form then runs on the
    block that has no unit entry left; columns no row touches are free.
    """
    dense = relations.rows if isinstance(relations, IntMatrix) else relations
    rows: dict[int, dict[int, int]] = {}
    for i, r in enumerate(dense):
        if len(r) != num_generators:
            raise ValueError("relation width %d != generator count %d"
                             % (len(r), num_generators))
        row = {j: int(x) for j, x in enumerate(r) if x}
        if row:
            rows[i] = row
    pivots = _eliminate_unit_pivots(rows)
    factors: tuple[int, ...] = ()
    if rows:
        cols = sorted({j for row in rows.values() for j in row})
        block = IntMatrix(tuple(tuple(row.get(j, 0) for j in cols)
                                for _, row in sorted(rows.items())))
        factors = smith_normal_form(block).invariant_factors()
    rank = num_generators - pivots - sum(1 for d in factors if d != 0)
    torsion = tuple(d for d in factors if d > 1)
    return rank, torsion


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> int:
    """Eliminate +/-1 pivots from sparse `rows` in place; return their number.

    `rows` maps row ids to {column: nonzero entry}; rows that become zero are
    removed.  A heap holds candidate pivots by Markowitz cost; a popped entry
    whose cost has grown is pushed back, one that no longer exists is skipped.
    """
    cols: dict[int, set[int]] = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in rows.items()
            for j, x in row.items() if x in (1, -1)]
    heapify(heap)
    pivots = 0
    while heap:
        c, i, j = heappop(heap)
        pivot_row = rows.get(i)
        if pivot_row is None or pivot_row.get(j) not in (1, -1):
            continue
        actual = cost(i, j)
        if actual > c:
            heappush(heap, (actual, i, j))
            continue
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
                continue
            for k, x in row.items():
                if x in (1, -1):
                    heappush(heap, (cost(s, k), s, k))
        pivots += 1
    return pivots


def lattice_restrict(m: IntMatrix, basis: Sequence[Sequence[int]]) -> IntMatrix:
    """Matrix of m restricted to the sublattice spanned by the given column vectors.

    Columns of the result express m·b_j in the basis (b_1..b_k).  Raises if the
    sublattice is not invariant, naming the offending vector.
    """
    cols = [tuple(int(x) for x in b) for b in basis]
    n = m.nrows
    if any(len(c) != n for c in cols):
        raise ValueError("basis vector length mismatch")
    b = IntMatrix(tuple(zip(*cols)))  # n x k, columns are basis vectors
    out_cols = []
    for c in cols:
        image = [sum(m[i, j] * c[j] for j in range(n)) for i in range(n)]
        coords = _solve_in_lattice(b, image)
        if coords is None:
            raise ValueError("sublattice not invariant: image of %s is not in the span" % (c,))
        out_cols.append(coords)
    return IntMatrix(tuple(zip(*out_cols)))


def _solve_in_lattice(b: IntMatrix, target: Sequence[int]):
    """Integer solution x of B x = target, or None."""
    nr, k = b.nrows, b.ncols
    aug = [[Fraction(b[i, j]) for j in range(k)] + [Fraction(target[i])] for i in range(nr)]
    # rational row reduction
    row = 0
    pivots = []
    for col in range(k):
        piv = next((r for r in range(row, nr) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nr):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nr):
        if aug[r][k] != 0:
            return None
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        x[col] = aug[r][k]
    if any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


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
    if len(lines) - 1 != nr:
        raise ValueError("expected %d rows, got %d" % (nr, len(lines) - 1))
    rows = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != nc:
            raise ValueError("row %r has %d entries, expected %d" % (ln, len(row), nc))
        rows.append(row)
    return matrix(rows)


def serialize_matrix(m: IntMatrix) -> str:
    head = "%d %d" % (m.nrows, m.ncols)
    return "\n".join([head] + [" ".join(str(x) for x in r) for r in m.rows]) + "\n"
