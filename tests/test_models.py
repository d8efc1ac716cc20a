"""Group models: word-problem backends used by the homomorphism checker."""

import pytest
from hypothesis import given, settings, strategies as st

from braidkit import models
from braidkit.models import (
    CyclicZ,
    FiniteTable,
    GarsideBraidGroup,
    automorphism_from_images,
    finite_closure,
    q8,
    q8_semidirect_f2,
    z2z6_model,
)
from braidkit.words import Gen, Word, free_reduce, letter, parse_word
from oracles import (FreeAutomorphism, action_of_word, check_inverse, compose, klein_four,
                     q8_by_unit_products, s3_table, table_by_position)


def test_q8_table():
    t = q8()
    assert len(finite_closure(t, ["x", "y"])) == 8
    # x^2 = y^2 is the unique central involution
    xx = t.mul("x", "x")
    assert xx == t.mul("y", "y")
    assert t.mul(xx, xx) == t.identity()
    # x y x^-1 = y^-1
    assert t.mul(t.mul("x", "y"), t.inv("x")) == t.inv("y")


_AFFINE_25 = (tuple(map(str, range(25))),
              tuple(tuple(str((2 * a + b) % 25) for b in range(25)) for a in range(25)))


@pytest.mark.parametrize("elements, table, message", [
    (("e", "e"), (("e", "e"), ("e", "e")), "duplicate element names"),
    (("e", "a"), (("e", "a"),), "table is not 2 x 2"),
    (("e", "a"), (("e", "a"), ("a",)), "table is not 2 x 2"),
    (("e", "a"), (("e", "a"), ("a", "b")), "table entry 'b' not an element"),
    # x y = y: associative, every element a left identity, none two-sided
    (("e", "a"), (("e", "a"), ("e", "a")), "no identity element"),
    # {1, 0} under multiplication: a monoid in which 0 has no inverse
    (("1", "0"), (("1", "0"), ("0", "0")), "no inverse for 0"),
    (("e", "a"), (("a", "e"), ("e", "e")), r"non-associative at \(e,e,a\)"),
    # a b = 2a + b mod 25: a left identity 0 and right inverses -2a
    (*_AFFINE_25, r"non-associative at \(1,0,0\)"),
])
def test_finite_table_rejects_what_is_not_a_group(elements, table, message):
    with pytest.raises(ValueError, match=message):
        FiniteTable(elements, table)


@pytest.mark.parametrize("table", [q8(), klein_four(), s3_table()])
def test_finite_table_lookups_match_the_table_read_by_position(table):
    mul, identity, inv = table_by_position(table)
    assert table.identity() == identity
    for a in table.elements:
        assert table.inv(a) == inv(a)
        for b in table.elements:
            assert table.mul(a, b) == mul(a, b)


def test_q8_subgroup_closure():
    t = q8()
    centre = finite_closure(t, [t.mul("x", "x")])
    assert sorted(centre) == ["-1", "1"]
    whole = finite_closure(t, ["x", t.mul("x", "y")])
    assert whole[0] == t.identity()
    assert sorted(whole) == sorted(t.elements)


def test_q8_by_its_rule_is_the_table_of_the_unit_products():
    t, oracle = q8(), q8_by_unit_products()
    assert t.elements == oracle.elements
    assert t.table == oracle.table


def test_finite_closure_of_an_infinite_group_raises_at_the_budget():
    with pytest.raises(ValueError, match="closure exceeded budget 20000"):
        finite_closure(CyclicZ(0), [1])


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
    assert len(phi) == 8


@pytest.mark.parametrize("images, message", [
    ({"x": "x"}, "images do not generate the group"),
    ({"x": "-1", "y": "x"}, "do not define a homomorphism"),  # x^2 -> 1, y^2 -> -1
    ({"x": "-1", "y": "-1"}, "do not define a bijection"),    # onto {1, -1}
])
def test_automorphism_from_images_rejections(images, message):
    with pytest.raises(ValueError, match=message):
        automorphism_from_images(q8(), images)


def test_semidirect_finite_by_free():
    qf = q8_semidirect_f2()
    a = Gen("a")
    x = ("x", Word(()))
    ga = ("1", letter(a))
    conj = qf.mul(qf.mul(ga, x), qf.inv(ga))
    assert conj == ("y", Word(()))  # the declared action of a sends x to y


# generator images, in the --assign syntax, of each hom-check target
TARGET_GENERATORS = {
    "z2-z6": ("(1, 0);0", "(0, 1);0", "(0, 0);1"),
    "q8-f2": ("x;1", "y;1", "1;a", "1;b"),
    "braid:N": ("s[1]", "s[2]", "s[3]"),
    "braid:N-x-z": ("s[1];0", "s[2];0", "s[3];0", "1;1"),
}


def test_every_target_has_generator_images():
    assert set(TARGET_GENERATORS) == set(models.TARGETS)


@pytest.mark.parametrize("target", models.TARGETS)
@settings(max_examples=40)
@given(st.data())
def test_element_text_parses_back(target, data):
    model = models.target(target.replace("N", "4"))
    gens = [model.parse(g) for g in TARGET_GENERATORS[target]]
    runs = data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1),
                                        st.integers(-3, 3).filter(bool)),
                              max_size=8))
    x = model.eval_word({Gen("g", (i,)): g for i, g in enumerate(gens)},
                        free_reduce((Gen("g", (i,)), e) for i, e in runs))
    assert model.parse(model.text(x)) == x


@pytest.mark.parametrize("target, make, text", [
    ("z2-z6", lambda m: ((-3, 5), 4), "(-3, 5);4"),
    ("q8-f2", lambda m: ("-xy", parse_word("a^3 b^-2 a")), "-xy;a^3 b^-2 a"),
    ("braid:4", lambda m: m.from_word(parse_word("s[1]^-3 s[2]")), None),
    ("braid:4-x-z", lambda m: (m.normal.from_word(parse_word("s[3]^-1 s[1]^-1")), -7),
     None)])
def test_negative_entries_and_delta_powers_parse_back(target, make, text):
    model = models.target(target)
    x = make(model)
    if text is not None:
        assert model.text(x) == text
    else:
        braid = x[0] if isinstance(x, tuple) else x
        assert braid.power < 0
    assert model.parse(model.text(x)) == x
