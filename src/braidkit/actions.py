"""Concrete free-group actions and subgroup bases.

Fixtures of the verification suite: the two automorphisms of F2(a, b)
describing how the rank-2 free quotient of the 4-strand disc braid group
acts on its commutator data, the rank-5 normal subgroup
N = ker(F2 -> Z2 x Z2) with its preferred z-basis, and the template of the
conjugating automorphisms of N.
"""

from __future__ import annotations

from typing import Optional

from .freesub import SubgroupGraph, fold
from .intlin import IntMatrix, matrix
from .models import FreeAutomorphism
from .words import Gen, Word, parse_word

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


def n_graph() -> SubgroupGraph:
    """The Stallings graph of N, folded from the z-basis."""
    return fold(z_basis_words())


def z_weights() -> dict[Gen, int]:
    """Weights of the z-basis under the degree map rho (z4, z5 negative)."""
    return {Gen("z", (1,)): 1, Gen("z", (2,)): 1, Gen("z", (3,)): 1,
            Gen("z", (4,)): -1, Gen("z", (5,)): -1}


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
