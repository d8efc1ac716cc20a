"""Abelianization, central-series quotients and rank formulas."""

import dataclasses
import random
import re
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from braidkit.intlin import abelian_invariants, matrix
from braidkit.models import (FreeGroup, Product, act_on_finite, hat_subgroup,
                             q8_semidirect_f2)
from braidkit.presentations import (
    IndexedPresentation,
    Presentation,
    artin_braid,
    b3_punctured_gamma2_ab,
    gamma2_annulus,
    gamma2_b4,
    gamma2_b5,
    kent_peifer,
    parse_presentation,
    sphere_braid,
)
from braidkit.series import (
    AbelianInvariants,
    _mobius,
    abelianization,
    alpha_k,
    gamma2_mod_gamma3,
    lcs_rank_torus,
    lcs_rank_z2_free,
    windowed_coinvariants,
)
from braidkit.verify import shifted_z
from braidkit import models, presentations, reidschreier, series
from braidkit.reidschreier import rs_finite_cyclic, rs_z_window, tietze_eliminate
from braidkit.words import (Gen, Word, commutator, conjugate, exponent_vector,
                            free_reduce, invert, letter, multiply, parse_word,
                            relation_rows)
from oracles import (cyclic_table, klein_four, nilpotent_class2_gamma2,
                     smith_normal_form_dense)


def test_invariants_str():
    assert str(AbelianInvariants(0, ())) == "1"
    assert str(AbelianInvariants(2, ())) == "Z^2"
    assert str(AbelianInvariants(0, (6,))) == "Z/6"
    assert str(AbelianInvariants(1, (2, 4))) == "Z x Z/2 x Z/4"


def test_sphere_abelianization_cyclic():
    for n in range(3, 9):
        assert abelianization(sphere_braid(n)) == AbelianInvariants(0, (2 * (n - 1),))


def test_abelianization_of_free_and_finite():
    assert abelianization(parse_presentation("group F2\ngens: a b\n")) == \
        AbelianInvariants(2, ())
    assert abelianization(parse_presentation("group C4\ngens: a\nrel: a^4\n")) == \
        AbelianInvariants(0, (4,))


def _reordered(p, rng):
    """p with its relators shuffled, each rotated and possibly inverted."""
    order = list(range(len(p.relators)))
    rng.shuffle(order)
    rels = []
    for i in order:
        runs = list(p.relators[i].runs)
        k = rng.randrange(64)
        if len(runs) > 1 and runs[0][0] != runs[-1][0]:
            k %= len(runs)
            runs = runs[k:] + runs[:k]
        if rng.random() < 0.5:
            runs = [(g, -e) for g, e in reversed(runs)]
        rels.append(Word(tuple(runs)))
    return dataclasses.replace(p, relators=tuple(rels))


def test_shuffled_sphere_kernel_is_perfect():
    # Gamma_2 of B_9(S^2) is perfect whatever the order, rotation and
    # orientation of the ambient relators.  With the dense Smith form alone,
    # the fifth of these orderings ran for minutes while its entries grew
    # without bound.
    p = sphere_braid(9)
    rng = random.Random("kernel-ab:14:kernel_raw_ab_s")
    for draw in range(6):
        q = _reordered(p, rng)
        rs = rs_finite_cyclic(q, 16, Gen("s", (1,)))
        assert str(abelianization(rs.presentation)) == "1", draw


def test_gamma2_mod_gamma3_of_sphere4():
    # B_4(S^2) has abelianization Z/6, so Gamma_2 = Gamma_3; the class-2
    # nilpotent quotient agrees
    inv = gamma2_mod_gamma3(sphere_braid(4), Gen("s", (1,)))
    assert inv == AbelianInvariants(0, ()) and str(inv) == "1"
    assert nilpotent_class2_gamma2(sphere_braid(4)) == inv


def test_gamma2_mod_gamma3_of_perfect_groups():
    # Z/1 is cyclic: a perfect group has Gamma_2 = G = Gamma_3
    kernel = tietze_eliminate(rs_finite_cyclic(
        sphere_braid(6), 10, Gen("s", (1,)))).presentation
    assert (len(kernel.generators), len(kernel.relators)) == (14, 61)
    for p, t in ((gamma2_b5(), Gen("u", (1,))), (kernel, kernel.generators[0])):
        got = gamma2_mod_gamma3(p, t)
        assert got == AbelianInvariants(0, ()) and str(got) == "1"
        assert nilpotent_class2_gamma2(p) == got
    with pytest.raises(ValueError, match=r"transversal x is not a generator of G2B5\(S2\)"):
        gamma2_mod_gamma3(gamma2_b5(), Gen("x"))


@pytest.mark.parametrize("text, ab", [
    ("gens: a b\nrel: a^2\n", "Z x Z/2"),
    ("gens: a b\nrel: a^2\nrel: b^2\nrel: a b a^-1 b^-1\n", "Z/2 x Z/2"),
])
def test_gamma2_mod_gamma3_rejects_abelianizations_that_are_not_cyclic(text, ab):
    p = parse_presentation("group g\n" + text)
    with pytest.raises(ValueError, match="abelianization %s is not cyclic" % ab):
        gamma2_mod_gamma3(p, Gen("a"))


def _rewriter_coinvariance_rows(p, modulus, t, weights):
    """The former coinvariance construction, kept as the oracle: rewrite
    t s t^-1 from coset 0 for every Schreier generator s and divide by s."""
    rs = rs_finite_cyclic(p, modulus, t, weights)
    relators = []
    for s in rs.presentation.generators:
        conj = multiply(letter(t), rs.dictionary[s], invert(letter(t)))
        image = reidschreier._rewrite(conj, 0, reidschreier._weight_moves(
            t, weights, modulus,
            lambda x, c: Gen(x.name, x.indices + (c,))))[0]
        relators.append(multiply(image, invert(letter(s))))
    return relation_rows(relators, rs.presentation.generators)


_G2G3_INPUTS = [(sphere_braid(n), Gen("s", (1,)), None) for n in range(3, 10)]
_G2G3_INPUTS.append(
    (parse_presentation("group q\ngens: a b\nrel: a^6\nrel: b a^-2\n"),
     Gen("a"), {Gen("a"): 1, Gen("b"): 2}))


def _index_shift_rows(sub, modulus):
    """The coinvariance rows of the former g2g3 route: t x_c t^-1 is
    x_(c+1), or w x_0 w^-1 when c + 1 = m, and t w t^-1 is w, so abelianized
    conjugation by t shifts the last index c of every Schreier generator but
    w mod m; one row x_(c+1) x_c^-1 per such generator."""
    shifts = []
    for s in sub.generators:
        if s.indices:
            *head, c = s.indices
            shifts.append(free_reduce([(Gen(s.name, (*head, (c + 1) % modulus)), 1),
                                       (s, -1)]))
    return relation_rows(shifts, sub.generators)


@pytest.mark.parametrize("p, t, weights", _G2G3_INPUTS,
                         ids=[p.name for p, _, _ in _G2G3_INPUTS])
def test_gamma2_mod_gamma3_index_shift_rows_match_the_rewriter(p, t, weights):
    # the former route, kept as an oracle: rewrite the kernel of the weight
    # map and abelianize it with the t-coinvariance rows.  The index shifts
    # are the rows the rewriter gives (and a zero row for w), also where
    # weights are not all 1
    args = (p, abelianization(p).torsion[0], t,
            weights or {g: 1 for g in p.generators})
    sub = rs_finite_cyclic(*args).presentation
    oracle = [r for r in _rewriter_coinvariance_rows(*args) if r]
    assert (sorted(tuple(sorted(r.items())) for r in _index_shift_rows(sub, args[1]))
            == sorted(tuple(sorted(r.items())) for r in oracle))
    rewritten = AbelianInvariants(*abelian_invariants(
        relation_rows(sub.relators, sub.generators) + oracle, len(sub.generators)))
    # Lambda^2 of a cyclic group is 0, so Gamma_2 = Gamma_3 all three ways
    got = gamma2_mod_gamma3(p, t)
    assert got == rewritten == nilpotent_class2_gamma2(p) == AbelianInvariants(0, ())
    assert str(got) == "1"


_GENS = (Gen("a"), Gen("b"), Gen("c"))


@st.composite
def _small_presentations(draw):
    """Presentations on 2 or 3 generators with as many relators, or up to
    two more, each freely reduced, nonempty and at most 6 letters long."""
    gens = _GENS[:draw(st.integers(2, 3))]
    word = st.lists(st.tuples(st.sampled_from(gens), st.integers(-4, 4).filter(bool)),
                    min_size=1, max_size=6).map(free_reduce).filter(bool)
    relators = draw(st.lists(word, min_size=len(gens), max_size=len(gens) + 2))
    return Presentation("h", gens, tuple(relators))


def _cyclic(p):
    ab = abelianization(p)
    return ab.free_rank + len(ab.torsion) <= 1


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_small_presentations().filter(_cyclic))
def test_gamma2_mod_gamma3_matches_the_oracles_on_random_cyclic_groups(p):
    # g2g3 is 1, as the class-2 nilpotent quotient is.  A generator t that
    # does not generate G^ab = Z/m (m = 0 for Z) is refused, naming
    # gcd(q_t, m) mod m, where q_t is t's coordinate on the Z/m factor read
    # from the column transform Q of the dense Smith form (the factor whose
    # diagonal entry is m); for Z that number is |q_t|
    assert nilpotent_class2_gamma2(p) == AbelianInvariants(0, ())
    ab = abelianization(p)
    if ab.free_rank + len(ab.torsion) == 0:
        for t in p.generators:
            assert gamma2_mod_gamma3(p, t) == AbelianInvariants(0, ())
        return
    m = ab.torsion[0] if ab.torsion else 0
    snf = smith_normal_form_dense(matrix([exponent_vector(r, p.generators)
                                          for r in p.relators]))
    diagonal = [snf.d[j, j] for j in range(len(p.generators))]
    for i, t in enumerate(p.generators):
        q = snf.q[i, diagonal.index(m)]
        if gcd(q, m) != 1:
            with pytest.raises(ValueError, match=re.escape(
                    "transversal %s maps to %d in %s and does not generate it"
                    % (t, gcd(q, m) % m if m else abs(q), ab))):
                gamma2_mod_gamma3(p, t)
        else:
            assert gamma2_mod_gamma3(p, t) == AbelianInvariants(0, ())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gamma2_mod_gamma3_of_artin_braid_groups_with_abelianization_z(n):
    # B_n has G^ab = Z, and Lambda^2(Z) = 0: Gamma_2 = Gamma_3 both ways
    p = artin_braid(n)
    assert abelianization(p) == AbelianInvariants(1, ())
    assert gamma2_mod_gamma3(p, Gen("s", (1,))) == AbelianInvariants(0, ())
    assert nilpotent_class2_gamma2(p) == AbelianInvariants(0, ())


def test_alpha_values():
    assert alpha_k(2) == 1
    assert alpha_k(3) == 1
    assert alpha_k(4) == Fraction(3, 2)
    assert alpha_k(5) == 2


def test_mobius_matches_sympy():
    from sympy import mobius

    assert ([_mobius(n) for n in range(1, 2001)]
            == [int(mobius(n)) for n in range(1, 2001)])
    with pytest.raises(ValueError):
        _mobius(0)


def test_mobius_increments_are_integral():
    # the per-class increments of the rank formula are integers even though
    # the alpha values themselves need not be
    from sympy import mobius

    for i in range(2, 21):
        inc = sum(Fraction(mobius(i // k)) * k * alpha_k(k) / i
                  for k in range(2, i + 1) if i % k == 0)
        assert inc.denominator == 1


def test_z2_free_ranks():
    assert [lcs_rank_z2_free(i) for i in range(2, 7)] == [1, 2, 3, 5, 7]


def test_torus_ranks():
    r = [lcs_rank_torus(i) for i in (2, 3)]
    assert r == [0, 3]


def test_rank2_nilpotent_quotient_of_gamma2_b4():
    inv = abelianization(gamma2_b4())
    assert inv == AbelianInvariants(2, ())
    n2 = nilpotent_class2_gamma2(gamma2_b4())
    assert isinstance(n2, AbelianInvariants)


def test_windowed_coinvariants_stability():
    res = windowed_coinvariants(gamma2_annulus(3), window=4)
    assert res.stable
    assert res.invariants == AbelianInvariants(4, ())
    res = windowed_coinvariants(b3_punctured_gamma2_ab(), window=4)
    assert res.stable
    assert res.invariants == AbelianInvariants(4, ())


def test_annulus_commutator_subgroup_is_perfect_from_six_strands():
    # the q chain's commutators first appear at m = 6
    for m in (6, 7):
        res = windowed_coinvariants(gamma2_annulus(m), window=4)
        assert (str(res.invariants), res.stable) == ("1", True), m


def test_shifted_z_system_gives_order_two():
    res = windowed_coinvariants(shifted_z(), window=4)
    assert res.stable
    assert res.invariants == AbelianInvariants(0, (2,))


def _instantiated_rows(ip, window):
    """The oracle of `series._window_rows`: the relation rows of the
    instantiated presentation."""
    inst = ip.instantiate(window)
    return relation_rows(inst.relators, inst.generators), len(inst.generators)


_BUILT_IN_INDEXED = (
    [gamma2_annulus(m) for m in range(3, 8)] + [b3_punctured_gamma2_ab(), shifted_z()]
    + [tietze_eliminate(rs_z_window(kent_peifer(m), Gen("t"))).presentation
       for m in range(3, 6)]
    + [tietze_eliminate(rs_z_window(artin_braid(n), Gen("s", (1,)))).presentation
       for n in range(3, 6)])


@pytest.mark.parametrize("ip", _BUILT_IN_INDEXED, ids=lambda ip: ip.name)
def test_window_rows_match_the_instantiated_rows(ip):
    for window in range(1, 14):
        assert series._window_rows(ip, window) == _instantiated_rows(ip, window), window


_FIXED = (Gen("q", (1,)), Gen("q", (2,)))


@st.composite
def _indexed_presentations(draw):
    """Indexed presentations on one or two families and up to two fixed
    generators.  Family words mix family letters at offsets near 0 or up
    to 20, so some have no instance in small windows, with fixed letters
    and an undeclared x now and then; some are conjugates or commutators,
    whose letters cancel in the exponent sums, and some have no family
    letter or are empty.  Fixed relators may name family letters near 0."""
    families = draw(st.sampled_from((("p",), ("p", "r"))))
    fixed = _FIXED[:draw(st.integers(0, 2))]

    def words(offsets, extra=()):
        letters = st.builds(lambda f, j: Gen(f, (j,)), st.sampled_from(families), offsets)
        if fixed + extra:
            letters |= st.sampled_from(fixed + extra)
        return st.lists(st.tuples(letters, st.integers(-3, 3).filter(bool)),
                        max_size=5).map(free_reduce)
    family_word = words(st.integers(-2, 2) | st.integers(-20, 20), (Gen("x"),))
    family_words = st.one_of(
        family_word, st.builds(conjugate, family_word, family_word),
        st.builds(commutator, family_word, family_word),
        st.lists(st.tuples(st.sampled_from(fixed + (Gen("x"),)),
                           st.integers(-2, 2).filter(bool)), max_size=3).map(free_reduce))
    return IndexedPresentation(
        "random", fixed, families,
        tuple(draw(st.lists(words(st.integers(-4, 4)).filter(bool), max_size=2))),
        tuple(draw(st.lists(family_words, max_size=4))))


@settings(max_examples=200, deadline=None)
@given(_indexed_presentations())
def test_window_rows_match_the_instantiated_rows_on_random_systems(ip):
    for window in (1, 2, 3, 5):
        try:
            want = _instantiated_rows(ip, window)
        except ValueError:
            with pytest.raises(ValueError):
                series._window_rows(ip, window)
            continue
        assert series._window_rows(ip, window) == want, window


_PAIR = parse_word("p[0] p[1]^-1")


@pytest.mark.parametrize("ip, window, named, instantiated", [
    (IndexedPresentation("undeclared", (), ("p",), (), (parse_word("p[0] x p[1]^-1"),)),
     4, "x", "relator uses undeclared generator x in undeclared[K=4]"),
    (IndexedPresentation("outside", (), ("p",), (parse_word("p[5]"),), (_PAIR,)),
     4, "p[5]", "relator uses undeclared generator p[5] in outside[K=4]"),
    # p[3] is a family instance from window 3 on, so window 2 fails at K + 1
    (IndexedPresentation("clash", (Gen("p", (3,)),), ("p",), (), (_PAIR,)),
     2, "p[3]", "duplicate generator p[3] in clash[K=3]"),
    (IndexedPresentation("twice", (), ("p", "p"), (), (_PAIR,)),
     4, "p[-4]", "duplicate generator p[-4] in twice[K=4]"),
    (IndexedPresentation("empty", (), ("p",), (Word(),), (_PAIR,)),
     4, None, "empty relator in empty[K=4]"),
], ids=["undeclared", "outside", "clash", "twice", "empty"])
def test_windowed_coinvariants_fails_where_instantiate_fails(ip, window, named,
                                                             instantiated):
    for k in (window, window + 1):
        try:
            ip.instantiate(k)
        except ValueError as exc:
            assert str(exc) == instantiated
            break
    else:
        pytest.fail("instantiate accepted windows %d and %d" % (window, window + 1))
    with pytest.raises(ValueError) as exc:
        windowed_coinvariants(ip, window)
    if named is None:
        assert str(exc.value) == instantiated
    else:
        assert named in str(exc.value).split()


def test_windowed_coinvariants_builds_no_instance(monkeypatch):
    systems = [(gamma2_annulus(3), "Z^4"), (gamma2_annulus(4), "Z^2"),
               (gamma2_annulus(5), "1"), (b3_punctured_gamma2_ab(), "Z^4")]
    half_twist = shifted_z()

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was built")
    monkeypatch.setattr(IndexedPresentation, "instantiate", refuse)
    monkeypatch.setattr(presentations, "shift_families", refuse)
    monkeypatch.setattr(Presentation, "__post_init__", refuse)
    monkeypatch.setattr(Word, "__post_init__", refuse)
    # the values `verify` checks at K = 4 and the benchmark's at K = 12
    for window, checked in ((4, systems + [(half_twist, "Z/2")]), (12, systems)):
        for ip, want in checked:
            res = windowed_coinvariants(ip, window)
            assert (str(res.invariants), res.stable) == (want, True), (ip.name, window)


def test_hat_subgroup_of_q8():
    qf = q8_semidirect_f2()
    full = hat_subgroup(qf, [parse_word("a"), parse_word("b")])
    assert len(full) == 8
    centre = hat_subgroup(qf, [parse_word("a b a^-1 b^-1")])
    assert sorted(centre) == ["-1", "1"]
    # the same closure over other products H x| F_1: a swaps p and q in the
    # Klein four-group, and inverts Z/3
    inverting = {"0": "0", "1": "2", "2": "1"}
    for table, action, word, closure in (
            (klein_four(), {"e": "e", "p": "q", "q": "p", "pq": "pq"}, "a", ("e", "pq")),
            (cyclic_table(3), inverting, "a", ("0", "1", "2")),
            (cyclic_table(3), inverting, "a^2", ("0",))):
        model = Product(table, FreeGroup(), partial(act_on_finite, {Gen("a"): action}))
        assert hat_subgroup(model, [parse_word(word)]) == closure, (table, word)


def test_hat_subgroup_budget_bounds_the_closure_size(monkeypatch):
    qf = q8_semidirect_f2()
    monkeypatch.setattr(models, "_CLOSURE_BUDGET", 8)
    assert len(hat_subgroup(qf, [parse_word("a")])) == 8
    monkeypatch.setattr(models, "_CLOSURE_BUDGET", 4)
    with pytest.raises(ValueError, match="closure exceeded budget 4"):
        hat_subgroup(qf, [parse_word("a")])
