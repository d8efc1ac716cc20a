"""Free-group word algebra: algebraic laws plus parser round trips."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from braidkit.words import (
    IDENTITY,
    Gen,
    Word,
    commutator,
    conjugate,
    cyclic_reduce,
    exponent_sum,
    exponent_vector,
    free_reduce,
    invert,
    invert_runs,
    letter,
    multiply,
    parse_gen,
    parse_runs,
    parse_word,
    power,
    reduce_runs,
    relation_rows,
    substitute,
    substitute_runs,
    word_to_text,
)
from oracles import cyclic_reduce_letters, free_reduce_letters, substitute_by_powers

A, B, C = Gen("a"), Gen("b"), Gen("c")
ALPHABET = (A, B, C)


def words(max_runs=6):
    run = st.tuples(st.sampled_from(ALPHABET),
                    st.integers(-3, 3).filter(lambda e: e != 0))
    return st.lists(run, max_size=max_runs).map(free_reduce)


def raw_runs(letters):
    """Unreduced run lists: zero exponents, adjacent repeats of a letter,
    and chains u v ... v^-1 u^-1 that cancel from the inside out."""
    run = st.tuples(letters, st.integers(-3, 3))

    def grow(inner):
        sandwich = st.tuples(st.lists(run, max_size=3), inner).map(
            lambda p: p[0] + p[1] + [(g, -e) for g, e in reversed(p[0])])
        return st.one_of(sandwich, st.tuples(inner, inner).map(lambda p: p[0] + p[1]))

    return st.recursive(st.lists(run, max_size=4), grow, max_leaves=8)


@given(st.lists(st.tuples(st.text(min_size=1, max_size=3),
                          st.lists(st.integers(-3, 3), max_size=3).map(tuple)),
                min_size=1, max_size=8))
def test_gen_is_interned_and_ordered_as_its_fields(pairs):
    gens = [Gen(n, i) for n, i in pairs]
    for (n, i), g in zip(pairs, gens):
        assert Gen(n, i) is g and Gen(name=n, indices=i) is g
        assert (g.name, g.indices) == (n, i)
        assert pickle.loads(pickle.dumps(g)) is g and copy.deepcopy(g) is g
    for (p, g), (q, h) in itertools.product(zip(pairs, gens), repeat=2):
        assert (g == h, g < h, g <= h, g > h, g >= h) == (p == q, p < q, p <= q,
                                                          p > q, p >= q)
        assert (g == h) is (g is h)
    assert [(g.name, g.indices) for g in sorted(gens)] == sorted(pairs)


def test_gen_prints_and_freezes_like_a_frozen_dataclass():
    assert [repr(g) for g in (Gen("s", (1,)), Gen("A", (1, 3)), Gen("t"))] == [
        "Gen(name='s', indices=(1,))", "Gen(name='A', indices=(1, 3))",
        "Gen(name='t', indices=())"]
    assert [str(g) for g in (Gen("s", (1,)), Gen("A", (1, 3)), Gen("t"))] == [
        "s[1]", "A[1,3]", "t"]
    g = Gen("s", (1,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.name = "x"
    with pytest.raises(TypeError):
        g < (g.name, g.indices)


@given(words())
def test_inverse_cancels(w):
    assert multiply(w, invert(w)) == IDENTITY
    assert invert(invert(w)) == w


@given(words(), words(), words())
def test_multiply_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(words(), words())
def test_invert_antihomomorphism(u, v):
    assert invert(multiply(u, v)) == multiply(invert(v), invert(u))


@given(words())
def test_parse_round_trip(w):
    assert parse_word(word_to_text(w)) == w


@given(words(), words())
def test_exponent_sum_additive(u, v):
    for g in ALPHABET:
        assert exponent_sum(multiply(u, v), g) == exponent_sum(u, g) + exponent_sum(v, g)


@given(words(), words())
def test_commutator_has_zero_exponents(u, v):
    assert exponent_vector(commutator(u, v), ALPHABET) == (0,) * 3


@given(words(), words())
def test_conjugate_cyclically_reduces_alike(u, v):
    # conjugation never changes the cyclic reduction up to rotation, so at
    # minimum the exponent vectors agree
    assert exponent_vector(conjugate(u, v), ALPHABET) == exponent_vector(u, ALPHABET)


def test_relation_rows_sum_repeats_and_drop_zero_sums():
    # a b a^-1: the two a runs are not adjacent, and they cancel in the row
    assert relation_rows([parse_word("a b a^-1"), parse_word("c^2 a c^-3 a^2"),
                          IDENTITY], ALPHABET) == [{1: 1}, {0: 3, 2: -1}, {}]
    with pytest.raises(ValueError, match="outside the given basis"):
        relation_rows([parse_word("a d")], ALPHABET)


def test_power():
    w = parse_word("a b")
    assert power(w, 3) == parse_word("a b a b a b")
    assert power(w, -2) == invert(power(w, 2))
    assert power(w, 0) == IDENTITY


@settings(max_examples=300)
@pytest.mark.parametrize("letters", [st.sampled_from(ALPHABET), st.integers(0, 2)],
                         ids=["gen", "int"])
@given(data=st.data())
def test_reduce_runs_matches_the_letter_stack_oracle(letters, data):
    runs = data.draw(raw_runs(letters))
    assert reduce_runs(runs) == free_reduce_letters(runs)


@given(words(8))
def test_invert_runs_reverses_the_letters(w):
    assert invert_runs(()) == ()
    assert list(Word(invert_runs(w.runs)).letters()) == [
        (g, -s) for g, s in reversed(list(w.letters()))]


@pytest.mark.parametrize("runs, message", [
    (((A, 0),), "zero exponent in word run for a"),
    (((A, 1), (A, 2)), "adjacent runs share generator a"),
])
def test_word_rejects_unreduced_runs(runs, message):
    with pytest.raises(ValueError, match=message):
        Word(runs)


def test_free_reduction_collapses():
    assert free_reduce([(A, 2), (A, -2), (B, 1)]) == letter(B)
    assert parse_word("a b b^-1 a^-1") == IDENTITY


def test_cyclic_reduce():
    w = parse_word("a b c b^-1 a^-1")
    assert cyclic_reduce(w) == letter(C)


def test_commutator_of_equal_words_trivial():
    w = parse_word("a b^2")
    assert commutator(w, w) == IDENTITY


def test_substitute():
    m = {A: parse_word("b c"), B: letter(A)}
    assert substitute(parse_word("a b^-1"), m) == parse_word("b c a^-1")


def test_parse_identity_and_indices():
    assert parse_word("1") == IDENTITY
    w = parse_word("A[2,3]^-1 s[1]")
    assert w == multiply(invert(letter(Gen("A", (2, 3)))), letter(Gen("s", (1,))))


def test_parse_runs_keeps_every_token_before_reduction():
    a, b = Gen("a"), Gen("b")
    assert parse_runs("a a^-1 b") == [(a, 1), (a, -1), (b, 1)]
    assert parse_runs(" 1 ") == []
    assert parse_word("a a^-1 b") == letter(b)


@pytest.mark.parametrize("text", ["a a^-1 b", "b a a^-1", "a^2 a^-1"])
def test_parse_gen_needs_one_token(text):
    # a word that only reduces to one generator is not a single generator
    with pytest.raises(ValueError, match="is not a single generator"):
        parse_gen(text)
    assert parse_gen(" s[1] ") == Gen("s", (1,))


@pytest.mark.parametrize("text, message", [
    ("s[1]^0", r"zero exponent for s\[1\] at position 0"),
    ("A[1,3]^0", r"zero exponent for A\[1,3\] at position 0"),
    ("t^0", "zero exponent for t at position 0"),
    # the token's own position, not that of the whitespace before it
    ("a A[1,3]^0", r"zero exponent for A\[1,3\] at position 2"),
])
def test_zero_exponent_names_the_whole_generator(text, message):
    with pytest.raises(ValueError, match=message):
        parse_word(text)


@settings(max_examples=300)
@given(words(8), words(4))
def test_cyclic_reduce_matches_the_letter_oracle(w, c):
    # conjugating by c gives long chains of cancelling end runs
    for u in (w, multiply(c, w, invert(c)), multiply(c, w, c)):
        assert cyclic_reduce(u) == cyclic_reduce_letters(u)


@settings(max_examples=300)
@given(words(8), st.dictionaries(st.sampled_from(ALPHABET), words(4)))
def test_substitute_matches_the_power_oracle(w, images):
    # images may be trivial, may hold their own generator, may be missing
    assert substitute(w, images) == substitute_by_powers(w, images)


@settings(max_examples=100)
@given(words(8), st.dictionaries(st.sampled_from(ALPHABET), words(4)))
def test_substitute_runs_on_interned_letters(w, images):
    code = {g: i for i, g in enumerate(ALPHABET)}

    def intern(u):
        return tuple((code[g], e) for g, e in u.runs)

    got = substitute_runs(intern(w), {code[g]: intern(u) for g, u in images.items()})
    assert got == intern(substitute_by_powers(w, images))
