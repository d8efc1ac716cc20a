"""Concrete free-group actions and subgroup bases.

Fixtures shared by the series computations and their tests: the two
automorphisms of F2(a, b) describing how the rank-2 free quotient of the
4-strand disc braid group acts on its commutator data, the rank-5 normal
subgroup N = ker(F2 -> Z2 x Z2) with its preferred z-basis, the half-twist
action on a rank-2 free kernel, and the Artin action of braid generators on
a free group.
"""

from __future__ import annotations

from typing import Optional

from .freesub import SubgroupGraph, express, fold
from .intlin import IntMatrix, matrix
from .models import FreeAutomorphism
from .words import Gen, Word, exponent_vector, invert, letter, multiply, parse_word

A = Gen("a")
B = Gen("b")


def disc_u() -> FreeAutomorphism:
    """u-action on F2(a, b): a -> b, b -> b^2 a^-1 b."""
    return FreeAutomorphism(
        {A: parse_word("b"), B: parse_word("b^2 a^-1 b")},
        {A: parse_word("a b^-1 a^2"), B: parse_word("a")})


def disc_v() -> FreeAutomorphism:
    """v-action on F2(a, b): a -> a^-1 b, b -> (a^-1 b)^3 a^-2 b."""
    return FreeAutomorphism(
        {A: parse_word("a^-1 b"),
         B: parse_word("a^-1 b a^-1 b a^-1 b a^-2 b")},
        {A: parse_word("a b^-1 a^3"), B: parse_word("a b^-1 a^4")})


def z_basis_words() -> tuple[Word, ...]:
    """Preferred free basis of N = ker(F2(a,b) -> Z2 x Z2):
    z1=a^2, z2=b^2, z3=(ab)^2, z4=b a^2 b^-1, z5=a b^2 a^-1."""
    return (parse_word("a^2"), parse_word("b^2"), parse_word("a b a b"),
            parse_word("b a^2 b^-1"), parse_word("a b^2 a^-1"))


_N_GRAPH: Optional[SubgroupGraph] = None


def n_graph() -> SubgroupGraph:
    global _N_GRAPH
    if _N_GRAPH is None:
        _N_GRAPH = fold(z_basis_words())
    return _N_GRAPH


def z_weights() -> dict[Gen, int]:
    """Weights of the z-basis under the degree map rho (z4, z5 negative)."""
    return {Gen("z", (1,)): 1, Gen("z", (2,)): 1, Gen("z", (3,)): 1,
            Gen("z", (4,)): -1, Gen("z", (5,)): -1}


def z_action(aut: FreeAutomorphism) -> FreeAutomorphism:
    """Restrict an automorphism of F2(a,b) preserving N to the z-basis."""
    graph = n_graph()
    basis = z_basis_words()

    def restrict(inner: FreeAutomorphism) -> dict:
        images = {}
        for i, bw in enumerate(basis):
            images[Gen("z", (i + 1,))] = express(graph, basis, inner.apply(bw))
        return images

    return FreeAutomorphism(restrict(aut), restrict(aut.inverse()))


def action_matrix(aut_z: FreeAutomorphism, rank: int = 5) -> IntMatrix:
    """Abelianized action matrix: column j is the exponent vector of the
    image of z_j."""
    zs = [Gen("z", (i + 1,)) for i in range(rank)]
    cols = [exponent_vector(aut_z.images[z], zs) for z in zs]
    return matrix([[cols[j][i] for j in range(rank)] for i in range(rank)])


def conjugation_template(m: int, n: int, p: int) -> IntMatrix:
    """The 5x5 matrix shape taken by conjugating automorphisms of N in the
    z-basis; valid parameters satisfy n p = m^2."""
    return matrix([
        [3 * m, 3 * n, 3 * m + 3 * n - 1, 3 * m - 1, 3 * n],
        [-3 * p, -3 * m, -3 * m - 3 * p - 1, -3 * p, -3 * m - 1],
        [0, 0, 1, 0, 0],
        [3 * m - 1, 3 * n, 3 * m + 3 * n - 1, 3 * m, 3 * n],
        [-3 * p, -3 * m - 1, -3 * m - 3 * p - 1, -3 * p, -3 * m]])


def template_parameters(mat: IntMatrix) -> Optional[tuple[int, int, int]]:
    """Recover (m, n, p) if the matrix fits the conjugation template."""
    if mat[0, 0] % 3 or mat[0, 1] % 3 or mat[1, 0] % 3:
        return None
    m, n, p = mat[0, 0] // 3, mat[0, 1] // 3, -mat[1, 0] // 3
    if conjugation_template(m, n, p) == mat and n * p == m * m:
        return (m, n, p)
    return None


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
