"""Group models: word-problem backends used by the homomorphism checker."""

import pytest
from hypothesis import given, settings, strategies as st

from braidkit.models import (
    FreeAutomorphism,
    GarsideBraidGroup,
    automorphism_from_images,
    finite_closure,
    q8,
    q8_semidirect_f2,
    z2z6_model,
)
from braidkit.words import Gen, Word, letter, parse_word
from oracles import action_of_word, check_inverse, compose


def test_q8_table():
    t = q8()
    assert len(finite_closure(t, ["x", "y"])) == 8
    # x^2 = y^2 is the unique central involution
    xx = t.mul("x", "x")
    assert xx == t.mul("y", "y")
    assert t.mul(xx, xx) == t.identity()
    # x y x^-1 = y^-1
    assert t.mul(t.mul("x", "y"), t.inv("x")) == t.inv("y")


def test_q8_subgroup_closure():
    t = q8()
    centre = finite_closure(t, [t.mul("x", "x")])
    assert sorted(centre) == ["-1", "1"]


def test_z2z6_model_order_six_quotient():
    m = z2z6_model()
    g = ((0, 0), 1)
    acc = m.identity()
    for _ in range(6):
        acc = m.mul(acc, g)
    assert acc == m.identity()


def test_z2z6_action_matrix_order():
    # the cyclic part acts with order 6 on Z^2
    m = z2z6_model()
    e1 = ((1, 0), 0)
    g = ((0, 0), 1)
    conj = m.mul(m.mul(g, e1), m.inv(g))
    assert conj != e1
    acc = e1
    for _ in range(6):
        acc = m.mul(m.mul(g, acc), m.inv(g))
    assert acc == e1


def test_garside_model_eval():
    b3 = GarsideBraidGroup(3)
    assign = {Gen("x"): b3.from_word(parse_word("s[1]")),
              Gen("y"): b3.from_word(parse_word("s[2]"))}
    lhs = b3.eval_word(assign, parse_word("x y x"))
    rhs = b3.eval_word(assign, parse_word("y x y"))
    assert lhs == rhs


def test_garside_model_needs_two_strands():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="need n >= 2"):
            GarsideBraidGroup(n)


def test_automorphism_compose_and_inverse():
    a, b = Gen("a"), Gen("b")
    u = FreeAutomorphism({a: parse_word("b"), b: parse_word("b^2 a^-1 b")},
                         {a: parse_word("a b^-1 a^2"), b: parse_word("a")})
    assert check_inverse(u)
    v = compose(u, u.inverse())
    for g in (a, b):
        assert v.apply(letter(g)) == letter(g)


def test_action_of_word_is_covariant():
    a, b = Gen("a"), Gen("b")
    phi = FreeAutomorphism({a: parse_word("a b"), b: parse_word("b")},
                           {a: parse_word("a b^-1"), b: parse_word("b")})
    acts = {Gen("g"): phi}
    squared = action_of_word(acts, parse_word("g^2"))
    assert squared.apply(letter(a)) == parse_word("a b^2")
    assert action_of_word(acts, parse_word("g g^-1")).apply(letter(a)) == letter(a)


def test_automorphism_from_images_on_finite_table():
    t = q8()
    phi = automorphism_from_images(t, {"x": "y", "y": "xy"})
    assert phi["x"] == "y"
    # an automorphism permutes the whole table
    assert sorted(phi.values()) == sorted(phi.keys())


def test_semidirect_finite_by_free():
    qf = q8_semidirect_f2()
    a = Gen("a")
    x = ("x", Word(()))
    ga = ("1", letter(a))
    conj = qf.mul(qf.mul(ga, x), qf.inv(ga))
    assert conj == ("y", Word(()))  # the declared action of a sends x to y
