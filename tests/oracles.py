"""Slow, independent implementations that the tests check the package
against, and the free-group actions only the tests use.

- Word kernels as they were before `braidkit.words` worked on runs: free
  reduction by cancelling single letters on a stack, substitution by
  repeated image letters and cyclic reduction by stripping letters, both
  reduced on that stack, and a canonical relator key that scans every
  rotation.
- Free-group automorphisms (`FreeAutomorphism`, a pair of generator-image
  dicts applied by `substitute`): composition, inverse check, the action of a
  word, the Artin action of braid generators and its relatives, and the
  abelianized action on the z-basis of N = ker(F2 -> Z2 x Z2).
- A Bareiss determinant and a class-2 nilpotent collector for the second
  lower central quotient.
- Integer linear algebra as it was before `intlin` had a Hermite form: the
  dense minimal-pivot Smith form, lattice solves by rational row reduction
  with `Fraction`, and the inverse Q * P read off the dense Smith form
  P * A * Q = I.
- The left meet of two permutation braids by search over all permutations.
- A subgroup word expanded to an ambient word through a Reidemeister-Schreier
  dictionary.  The strand permutation action of braid generators, and
  P_n(S^2) as the kernel of B_n(S^2) onto it, Reidemeister-Schreier
  rewritten.
- Small finite groups as tables (the Klein four-group, Z/m, and S_3 listed
  with its identity last), and a table read by position: products by
  `tuple.index`, the identity and inverses by scanning rows, as
  `FiniteTable` read them before it derived its lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from braidkit.freesub import express, fold
from braidkit.garside import permutation
from braidkit.intlin import (IntMatrix, SnfResult, abelian_invariants, identity, mat_mul,
                             matrix)
from braidkit.models import FiniteTable
from braidkit.presentations import Presentation, sphere_braid
from braidkit.reidschreier import RsOutput, rs_coset_table
from braidkit.series import AbelianInvariants
from braidkit.verify import Z_BASIS
from braidkit.words import Gen, Word, exponent_vector, invert, letter, multiply, substitute

# ---------------------------------------------------------------------------
# word kernels


def free_reduce_letters(runs: Iterable[tuple]) -> tuple:
    """Free reduction letter by letter: expand every run into +-1 letters,
    cancel them on a stack, and pack what is left into runs."""
    stack = []
    for g, e in runs:
        s = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if stack and stack[-1] == (g, -s):
                stack.pop()
            else:
                stack.append((g, s))
    packed = []
    for g, s in stack:   # neighbours of one letter left on the stack agree in sign
        if packed and packed[-1][0] == g:
            packed[-1][1] += s
        else:
            packed.append([g, s])
    return tuple((g, e) for g, e in packed)


def substitute_by_powers(w: Word, images: dict) -> Word:
    """Replace each generator that has an image word by it: a run g^e
    becomes |e| copies of the image's letters, reversed and inverted letter
    by letter when e < 0, and the letter stack reduces the result."""
    letters = []
    for g, e in w.runs:
        img = images.get(g)
        if img is None:
            letters.append((g, e))
            continue
        piece = list(img.letters())
        if e < 0:
            piece = [(x, -s) for x, s in reversed(piece)]
        letters.extend(piece * abs(e))
    return Word(free_reduce_letters(letters))


def cyclic_reduce_letters(w: Word) -> Word:
    """Strip matching first/last letters until the word is cyclically reduced."""
    letters = list(w.letters())
    while (len(letters) >= 2 and letters[0][0] == letters[-1][0]
           and letters[0][1] == -letters[-1][1]):
        letters = letters[1:-1]
    return Word(free_reduce_letters(letters))


def canonical_relator_all_rotations(w: Word) -> tuple:
    """Least representative among cyclic rotations of w and of its inverse,
    found by comparing every rotation."""
    w = cyclic_reduce_letters(w)
    seq = [(g.name, g.indices, s) for g, s in w.letters()]
    if not seq:
        return ()
    best = None
    for cand_seq in (seq, [(n, i, -s) for n, i, s in reversed(seq)]):
        for r in range(len(cand_seq)):
            rot = tuple(cand_seq[r:] + cand_seq[:r])
            if best is None or rot < best:
                best = rot
    return best


# ---------------------------------------------------------------------------
# braid words


def perm_braid_word_by_restarts(p) -> list:
    """A positive word for a permutation braid by bubble sort, restarting
    the scan after every swap: each letter s_(i+1) swaps the leftmost pair
    i, i+1 out of order."""
    n = len(p)
    q = list(p)
    word = []
    while q != sorted(q):
        for i in range(n - 1):
            if q[i] > q[i + 1]:
                word.append((Gen("s", (i + 1,)), 1))
                q[i], q[i + 1] = q[i + 1], q[i]
                break
    return word


def _crossings(p) -> int:
    """Inversion set as a bitmask: bit i*n + j for each pair i < j of
    starting positions whose strands cross, p[i] > p[j]."""
    n = len(p)
    return sum(1 << (i * n + j) for i, j in combinations(range(n), 2)
               if p[i] > p[j])


@lru_cache(maxsize=None)
def _all_crossings(n: int) -> tuple:
    return tuple((_crossings(p), p) for p in permutations(range(n)))


def perm_braid_meet_by_search(a, b) -> tuple:
    """Left meet of permutation braids a and b: X left-divides a iff the
    inversion set of X lies in that of a, so the meet is the permutation
    with the most inversions among those whose inversion set lies in
    Inv(a) ∩ Inv(b)."""
    common = _crossings(a) & _crossings(b)
    return max((c for c in _all_crossings(len(a)) if not c[0] & ~common),
               key=lambda c: c[0].bit_count())[1]


# ---------------------------------------------------------------------------
# free-group automorphisms


@dataclass(frozen=True)
class FreeAutomorphism:
    """A free-group automorphism, by its generator images and its inverse's."""

    images: dict[Gen, Word]
    inverse_images: dict[Gen, Word]

    def apply(self, w: Word) -> Word:
        return substitute(w, self.images)

    def inverse(self) -> FreeAutomorphism:
        return FreeAutomorphism(self.inverse_images, self.images)


def compose(a: FreeAutomorphism, b: FreeAutomorphism) -> FreeAutomorphism:
    """a after b: x -> a(b(x))."""
    gens = set(a.images) | set(b.images)
    images = {g: a.apply(b.images.get(g, letter(g))) for g in gens}
    inv = {g: substitute(a.inverse_images.get(g, letter(g)), b.inverse_images)
           for g in gens}
    return FreeAutomorphism(images, inv)


def check_inverse(a: FreeAutomorphism) -> bool:
    return all(a.apply(substitute(letter(g), a.inverse_images)) == letter(g)
               for g in a.images)


def identity_automorphism(gens: Iterable[Gen]) -> FreeAutomorphism:
    images = {g: letter(g) for g in gens}
    return FreeAutomorphism(dict(images), dict(images))


def action_of_word(actions: dict, w: Word) -> FreeAutomorphism:
    """Compose the per-generator automorphisms along a word, covariantly:
    the result of w1*w2 is action(w1) after action(w2)."""
    gens = next(iter(actions.values())).images.keys()
    out = identity_automorphism(gens)
    for g, sign in w.letters():
        out = compose(out, actions[g] if sign > 0 else actions[g].inverse())
    return out


def half_twist_action() -> FreeAutomorphism:
    """Half-twist conjugation on the rank-2 free kernel F2(g1, g2):
    g1 -> g2, g2 -> g2^-1 g1 g2."""
    g1, g2 = Gen("g", (1,)), Gen("g", (2,))
    return FreeAutomorphism(
        {g1: letter(g2), g2: multiply(invert(letter(g2)), letter(g1), letter(g2))},
        {g1: multiply(letter(g1), letter(g2), invert(letter(g1))),
         g2: letter(g1)})


def artin_action(i: int, n: int, name: str = "x") -> FreeAutomorphism:
    """Artin action of the i-th braid generator on F_n(x_1..x_n):
    x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i."""
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    x = [Gen(name, (j,)) for j in range(1, n + 1)]
    xi, xj = x[i - 1], x[i]
    images = {g: letter(g) for g in x}
    inverse = {g: letter(g) for g in x}
    images[xi] = multiply(letter(xi), letter(xj), invert(letter(xi)))
    images[xj] = letter(xi)
    inverse[xi] = letter(xj)
    inverse[xj] = multiply(invert(letter(xj)), letter(xi), letter(xj))
    return FreeAutomorphism(images, inverse)


def puncture_strand_action(i: int, n: int, name: str = "x") -> FreeAutomorphism:
    """Conjugation by the i-th braid generator on the puncture loops:
    x_j -> x_{j+1} if j = i; x_j -> x_j^-1 x_{j-1} x_j if j = i + 1;
    fixed otherwise."""
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    x = [Gen(name, (j,)) for j in range(1, n + 1)]
    xi, xj = x[i - 1], x[i]
    images = {g: letter(g) for g in x}
    inverse = {g: letter(g) for g in x}
    images[xi] = letter(xj)
    images[xj] = multiply(invert(letter(xj)), letter(xi), letter(xj))
    inverse[xj] = letter(xi)
    inverse[xi] = multiply(letter(xi), letter(xj), invert(letter(xi)))
    return FreeAutomorphism(images, inverse)


def z_action(aut: FreeAutomorphism) -> FreeAutomorphism:
    """Restrict an automorphism of F2(a,b) preserving N to the z-basis."""
    graph = fold(Z_BASIS)

    def restrict(inner: FreeAutomorphism) -> dict:
        return {Gen("z", (i + 1,)): express(graph, Z_BASIS, inner.apply(bw))
                for i, bw in enumerate(Z_BASIS)}

    return FreeAutomorphism(restrict(aut), restrict(aut.inverse()))


def action_matrix(aut_z: FreeAutomorphism, rank: int = 5) -> IntMatrix:
    """Abelianized action matrix: column j is the exponent vector of the
    image of z_j."""
    zs = [Gen("z", (i + 1,)) for i in range(rank)]
    cols = [exponent_vector(aut_z.images[z], zs) for z in zs]
    return matrix([[cols[j][i] for j in range(rank)] for i in range(rank)])


# ---------------------------------------------------------------------------
# integer linear algebra and the class-2 collector


def det(a: IntMatrix) -> int:
    """Exact determinant (fraction-free Bareiss elimination)."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form_dense(a: IntMatrix) -> SnfResult:
    """P * A * Q = D by the dense minimal-pivot method: move the least
    nonzero entry of the trailing block to the corner, clear its row and
    column, and add a row whose entry it does not divide until it divides
    them all.  Entries can grow without bound on unit-free matrices."""
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


def solve_in_lattice_rational(b: IntMatrix, target: Sequence[int]):
    """Integer solution x of B x = target by rational row reduction, free
    variables 0, or None when that solution is not integral."""
    nr, k = b.nrows, b.ncols
    aug = [[Fraction(b[i, j]) for j in range(k)] + [Fraction(target[i])] for i in range(nr)]
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


def inv_unimodular_snf(a: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant ±1 from its dense Smith form:
    P A Q = I gives A^-1 = Q P."""
    if a.nrows != a.ncols:
        raise ValueError("inverse of non-square matrix")
    snf = smith_normal_form_dense(a)
    if any(snf.d[i, i] != 1 for i in range(a.nrows)):
        raise ValueError("matrix is not unimodular; invariant factors %s"
                         % (snf.invariant_factors(),))
    return mat_mul(snf.q, snf.p)


def nilpotent_class2_gamma2(p: Presentation) -> AbelianInvariants:
    """Second lower central quotient computed by collection in the free
    class-2 nilpotent group: basic commutators [g_i, g_j] (i < j) modulo the
    relator images, their brackets with generators, and commutator parts of
    relator combinations that die in the abelianization."""
    gens = list(p.generators)
    g = len(gens)
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    pair_index = {pq: n for n, pq in enumerate(pairs)}

    def collect(w: Word):
        a = [0] * g
        c = [0] * len(pairs)
        for x, s in w.letters():
            k = gens.index(x)
            for j in range(k + 1, g):
                c[pair_index[(k, j)]] -= a[j] * s
            a[k] += s
        return a, c

    images = [collect(r) for r in p.relators]
    rows = []
    # brackets of relator abelianizations with each generator
    for a, _c in images:
        for k in range(g):
            row = [0] * len(pairs)
            for i in range(k):
                row[pair_index[(i, k)]] += a[i]
            for j in range(k + 1, g):
                row[pair_index[(k, j)]] -= a[j]
            rows.append(row)
    # commutator parts of relator products with trivial exponent sum
    if images:
        a_mat = matrix([a for a, _ in images])
        snf = smith_normal_form_dense(a_mat)
        rank = sum(1 for i in range(min(snf.d.nrows, snf.d.ncols))
                   if snf.d[i, i] != 0)
        for i in range(rank, len(images)):
            combo = [snf.p[i, r] for r in range(len(images))]
            row = [sum(m * images[r][1][n] for r, m in enumerate(combo))
                   for n in range(len(pairs))]
            rows.append(row)
    return AbelianInvariants(*abelian_invariants(
        [{n: x for n, x in enumerate(row) if x} for row in rows], len(pairs)))


# ---------------------------------------------------------------------------
# subgroup presentations and pure sphere braid groups


def expand(out: RsOutput, w: Word) -> Word:
    """Rewrite a word in the subgroup generators of `out` as an ambient word
    via its dictionary.  Raises ValueError for a generator the dictionary
    has no entry for."""
    for g, _ in w.runs:
        if g not in out.dictionary:
            raise ValueError("no dictionary entry for generator %s" % g)
    return substitute(w, out.dictionary)


def strand_permutation_act(n: int):
    """Strand permutations of n-strand braids, composed left to right."""
    perms = {Gen("s", (i,)): permutation(letter(Gen("s", (i,))), n)
             for i in range(1, n)}
    return lambda c, x: tuple(perms[x][v - 1] for v in c)


def pure_sphere_kernel(n: int) -> RsOutput:
    """P_n(S^2), the kernel of B_n(S^2) -> S_n (index n!), presented by
    rs_coset_table with no Tietze elimination: the raw kernel."""
    return rs_coset_table(sphere_braid(n), tuple(range(1, n + 1)),
                          strand_permutation_act(n))


# ---------------------------------------------------------------------------
# finite groups by table


def klein_four():
    elems = ("e", "p", "q", "pq")

    def prod(x, y):
        sx = set(x.replace("e", "")) ^ set(y.replace("e", ""))
        return "".join(c for c in "pq" if c in sx) or "e"

    return FiniteTable(elems, tuple(tuple(prod(x, y) for y in elems) for x in elems))


def cyclic_table(m: int) -> FiniteTable:
    """Z/m on the names "0" .. "m-1"."""
    elems = tuple(map(str, range(m)))
    return FiniteTable(elems, tuple(tuple(str((i + j) % m) for j in range(m))
                                    for i in range(m)))


def s3_table() -> FiniteTable:
    """S_3 by composing permutations of 0, 1, 2, named by their images and
    listed in reverse lexicographic order, so the identity "012" is last."""
    perms = sorted(permutations(range(3)), reverse=True)
    name = {p: "".join(map(str, p)) for p in perms}
    return FiniteTable(tuple(name[p] for p in perms),
                       tuple(tuple(name[tuple(p[i] for i in q)] for q in perms)
                             for p in perms))


def q8_by_unit_products() -> FiniteTable:
    """Q8 from the sixteen products of the units 1, i, j, k written out by
    hand, with x = i, y = j, xy = k; elements listed as 1, -1, x, -x, y, -y,
    xy, -xy."""
    units = {"1": (1, "1"), "x": (1, "i"), "y": (1, "j"), "xy": (1, "k")}
    names = {}
    for nm, (sg, u) in units.items():
        names[(sg, u)] = nm
        names[(-sg, u)] = "-" + nm if nm != "1" else "-1"
    quat = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}

    def mul(a, b):
        sa, ua = a
        sb, ub = b
        sc, uc = quat[(ua, ub)]
        return (sa * sb * sc, uc)

    elements = tuple(names[key] for key in sorted(names, key=lambda k: (k[1], -k[0])))
    inv_names = {v: k for k, v in names.items()}
    table = tuple(tuple(names[mul(inv_names[a], inv_names[b])] for b in elements)
                  for a in elements)
    return FiniteTable(elements, table)


def table_by_position(t: FiniteTable):
    """(mul, identity, inv) of `t` read from its table by position."""
    def mul(a, b):
        return t.table[t.elements.index(a)][t.elements.index(b)]
    identity = next(e for i, e in enumerate(t.elements)
                    if t.table[i] == t.elements)
    inverse = {a: t.elements[t.table[i].index(identity)]
               for i, a in enumerate(t.elements)}
    return mul, identity, inverse.__getitem__
