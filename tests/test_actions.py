"""Concrete automorphisms and their matrices on subgroup bases."""

import random

from hypothesis import given, settings, strategies as st

from braidkit.garside import braid_equal
from braidkit.intlin import identity, mat_mul
from braidkit.verify import (DISC_U, DISC_U_INV, DISC_V, DISC_V_INV, Z_BASIS,
                             conjugation_template, template_parameters)
from braidkit.words import Gen, free_reduce, letter, multiply, parse_word
from oracles import (FreeAutomorphism, action_matrix, action_of_word, artin_action,
                     check_inverse, compose, half_twist_action,
                     puncture_strand_action, z_action)

DISC_U_AUT = FreeAutomorphism(DISC_U, DISC_U_INV)
DISC_V_AUT = FreeAutomorphism(DISC_V, DISC_V_INV)


def test_disc_automorphisms_invertible():
    for aut in (DISC_U_AUT, DISC_V_AUT, half_twist_action()):
        assert check_inverse(aut)


def test_z_action_matrices_mutually_inverse():
    u = z_action(DISC_U_AUT)
    ui = z_action(DISC_U_AUT.inverse())
    assert mat_mul(action_matrix(u), action_matrix(ui)) == identity(5)


def test_template_parameters_round_trip():
    mat = conjugation_template(5, 5, 5)
    assert template_parameters(mat) == (5, 5, 5)
    mat2 = conjugation_template(7, 49, 1)
    assert template_parameters(mat2) == (7, 49, 1)


def test_artin_action_respects_braid_relation():
    acts = {Gen("s", (i,)): artin_action(i, 3) for i in (1, 2)}
    a = action_of_word(acts, parse_word("s[1] s[2] s[1]"))
    b = action_of_word(acts, parse_word("s[2] s[1] s[2]"))
    assert a.images == b.images


def test_artin_action_preserves_boundary_word():
    # the product x1 x2 x3 is fixed by every braid generator
    boundary = parse_word("x[1] x[2] x[3]")
    for i in (1, 2):
        assert artin_action(i, 3).apply(boundary) == boundary


def _random_braid_word(rng, n, size):
    runs = [(Gen("s", (rng.randint(1, n - 1),)), rng.choice([-1, 1]))
            for _ in range(size)]
    return free_reduce(runs)


def test_artin_representation_well_defined(seed=0):
    """Equal braid words must induce equal automorphisms."""
    rng = random.Random(seed)
    n = 4
    acts = {Gen("s", (i,)): artin_action(i, n) for i in range(1, n)}
    rels = [parse_word("s[1] s[2] s[1] s[2]^-1 s[1]^-1 s[2]^-1"),
            parse_word("s[2] s[3] s[2] s[3]^-1 s[2]^-1 s[3]^-1"),
            parse_word("s[1] s[3] s[1]^-1 s[3]^-1")]
    for _ in range(25):
        w = _random_braid_word(rng, n, rng.randint(0, 6))
        r = rng.choice(rels)
        cut = rng.randint(0, 1)
        w2 = multiply(w, r) if cut else multiply(r, w)
        assert braid_equal(w, w2, n)
        assert action_of_word(acts, w).images == action_of_word(acts, w2).images


def test_puncture_strand_action_inverse():
    phi = puncture_strand_action(1, 3)
    assert check_inverse(phi)
    comp = compose(phi, phi.inverse())
    for j in (1, 2, 3):
        g = letter(Gen("x", (j,)))
        assert comp.apply(g) == g


def test_z_basis_words_fold_to_index_four_subgroup():
    from braidkit.freesub import contains, fold, rank

    g = fold(Z_BASIS)
    assert rank(g) == 5
    assert contains(g, parse_word("a^2 b^2"))
    assert not contains(g, parse_word("a"))
