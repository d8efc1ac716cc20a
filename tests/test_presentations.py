"""Presentation builders and the text format."""

import pytest

from braidkit.presentations import (
    IndexedPresentation,
    ParseError,
    Presentation,
    affine_A,
    affine_C,
    artin_braid,
    b22_two_generator,
    b3_punctured_gamma2_ab,
    fullpres,
    gamma2_annulus,
    gamma2_b4,
    gamma2_b5,
    gamma2_b6plus,
    kent_peifer,
    parse_presentation,
    punctured_sphere,
    s,
    serialize,
    sphere_braid,
    surface_relator,
)
from braidkit.series import abelianization
from braidkit.words import Gen, exponent_sum, parse_word
from oracles import pure_sphere_kernel


def test_artin_braid_counts():
    for n in range(2, 7):
        p = artin_braid(n)
        assert len(p.generators) == n - 1
        # (n-2) braid relators plus C(n-2, 2)... commuting pairs |i-j| >= 2
        commuting = (n - 2) * (n - 3) // 2
        assert len(p.relators) == (n - 2) + commuting


def test_sphere_braid_adds_surface_relator():
    p = sphere_braid(4)
    assert p.relators[-1] == surface_relator(4)
    assert surface_relator(3) == parse_word("s[1] s[2]^2 s[1]")
    assert surface_relator(4) == parse_word("s[1] s[2] s[3]^2 s[2] s[1]")


def test_punctured_sphere_small():
    p = punctured_sphere(2, 1)
    assert Gen("A", (1, 2)) in p.generators
    assert s(1) in p.generators
    # every relator has zero total exponent sum in the sigma generators mod
    # nothing in particular, but the presentation must at least parse back
    assert parse_presentation(serialize(p)) == p


def test_punctured_sphere_abelianization_rank():
    # rank n free abelian for m >= 2
    for m in (2, 3):
        for n in (1, 2, 3):
            assert abelianization(punctured_sphere(m, n)).free_rank == n


def test_b22_two_generator():
    p = b22_two_generator()
    assert len(p.generators) == 2
    assert p.relators == (parse_word("s D^2 s^-1 D^-2"),)
    inv = abelianization(p)
    assert (inv.free_rank, inv.torsion) == (2, ())


def test_kent_peifer_and_affine():
    kp = kent_peifer(4)
    assert Gen("t") in kp.generators
    assert len(kp.generators) == 5
    a3 = affine_A(4)
    assert len(a3.generators) == 4
    c3 = affine_C(3)
    assert len(c3.generators) >= 3


def test_gamma2_family_generator_counts():
    assert len(gamma2_b4().generators) == 3
    g5 = gamma2_b5()
    assert len(g5.generators) == 11
    assert len(fullpres(4).generators) == 8
    g6 = gamma2_b6plus(6)
    assert len(g6.generators) > 0


def test_indexed_presentations_instantiate():
    ip = gamma2_annulus(3)
    assert isinstance(ip, IndexedPresentation)
    p = ip.instantiate(2)
    assert len(p.generators) > 0 and len(p.relators) > 0
    ip2 = b3_punctured_gamma2_ab()
    assert isinstance(ip2, IndexedPresentation)


def test_instantiate_keeps_every_instance_of_a_far_offset_family():
    # p[k+9] p[k+10]^-1 lies in the window [-2, 2] for k = -11, ..., -8
    far = parse_word("p[9] p[10]^-1")
    ip = IndexedPresentation("far", (), ("p",), (), (far,))

    def at(k):
        return parse_word("p[%d] p[%d]^-1" % (k + 9, k + 10))
    assert ip.instantiate(2).relators == tuple(at(k) for k in range(-11, -7))
    assert ip.instantiate(12).relators == tuple(at(k) for k in range(-21, 3))


def test_duplicate_generator_is_named():
    a, b = Gen("a"), Gen("b")
    with pytest.raises(ValueError) as exc:
        Presentation("dup", (a, b, Gen("c"), b, a), ())
    assert str(exc.value) == "duplicate generator a in dup"
    ip = IndexedPresentation("clash", (Gen("p", (3,)),), ("p",), (),
                             (parse_word("p[0] p[1]^-1"),))
    ip.instantiate(2)
    with pytest.raises(ValueError) as exc:
        ip.instantiate(3)
    assert str(exc.value) == "duplicate generator p[3] in clash[K=3]"


def test_relator_families_must_be_words():
    with pytest.raises(TypeError, match="not a Word"):
        IndexedPresentation("closure", (), ("p",), (),
                            (lambda k: parse_word("p[%d]" % k),))


def test_fixed_relators_must_be_words():
    # a relator given as text was refused only when its rows were read
    with pytest.raises(TypeError, match="fixed relator 1 of text is a str, not a Word"):
        IndexedPresentation("text", (Gen("q"),), ("p",), (parse_word("q^2"), "p[0]"), ())


def test_family_letters_must_be_singly_indexed():
    for bad in ("p[1,2] p[0]^-1", "p q"):
        with pytest.raises(ValueError, match="not a singly indexed family generator"):
            IndexedPresentation("bad", (Gen("q"),), ("p",), (), (parse_word(bad),))


def test_instantiate_gives_a_family_without_family_letters_once():
    ip = IndexedPresentation("fixed", (Gen("q"),), ("p",), (), (parse_word("q^2"),))
    assert ip.instantiate(3).relators == (parse_word("q^2"),)


def test_gamma2_annulus_rejects_small_m():
    with pytest.raises(ValueError):
        gamma2_annulus(2)


def test_group_keyword_is_the_whole_first_token():
    with pytest.raises(ParseError, match="line 1, column 1: unrecognized line 'groupies G'"):
        parse_presentation("groupies G\ngens: a\nrel: a^2\n")
    assert parse_presentation("group\tG\ngens: a\nrel: a^2\n").name == "G"


def test_second_group_header_is_a_parse_error():
    # two presentations pasted into one file, not one group named B on a, b, c
    with pytest.raises(ParseError, match="line 4, column 1: second 'group' header; "
                                         "this file already presents A"):
        parse_presentation("group A\ngens: a b\nrel: a^2\n"
                           "group B\ngens: c\nrel: c^3\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("gens: a b\nrel: a b\n")  # missing header
    with pytest.raises(ParseError):
        parse_presentation("group X\ngens: a\nrel: a b\n")  # undeclared gen
    with pytest.raises(ParseError, match="line 2, column 1: duplicate generator a"):
        parse_presentation("group X\ngens: a b a\n")
    # the generator list is read token by token: free reduction would
    # declare b alone for "a a^-1 b" and report a^2 for "a a"
    for gens, message in (("a a^-1 b", "exponent not allowed in generator list"),
                          ("b a a^-1", "exponent not allowed in generator list"),
                          ("a a", "duplicate generator a")):
        with pytest.raises(ParseError, match="line 2, column 1: " + message):
            parse_presentation("group X\ngens: %s\nrel: b^2\n" % gens)


def test_serialize_round_trip_families():
    for p in (artin_braid(4), sphere_braid(5), gamma2_b4(), kent_peifer(3)):
        assert parse_presentation(serialize(p)) == p


def test_serialize_round_trip_with_thousands_of_generators():
    # the raw kernel P_6(S^2): 2 881 generators and 7 920 relators, each
    # letter checked against the declared generators
    p = pure_sphere_kernel(6).presentation
    assert len(p.generators) >= 2000
    assert parse_presentation(serialize(p)) == p


def test_gamma2_presentations_are_perfect_from_six_strands():
    # the abstract: Gamma_2 of B_n(S^2) is perfect for n >= 5.  n = 6..12
    # reaches every residue of 2n - 3 mod 6 in gamma2_b6plus and the chain
    # commutators of both builders
    for n in range(6, 13):
        assert str(abelianization(fullpres(n))) == "1", n
        assert str(abelianization(gamma2_b6plus(n))) == "1", n


def test_abelianizations_agree_across_families():
    # affine C~ is B_m(S^2 - 3 pts), the annular group B_m(S^2 - 2 pts),
    # the classical braid group B_m(S^2 - 1 pt), and b22 is B_2(S^2 - 2 pts)
    pairs = [(affine_C(m), punctured_sphere(m, 3)) for m in range(2, 7)]
    pairs += [(kent_peifer(m), punctured_sphere(m, 2)) for m in range(3, 7)]
    pairs += [(artin_braid(m), punctured_sphere(m, 1)) for m in range(2, 7)]
    pairs.append((b22_two_generator(), punctured_sphere(2, 2)))
    for a, b in pairs:
        assert abelianization(a) == abelianization(b), (a.name, b.name)
