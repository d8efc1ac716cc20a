"""Abelianization, central-series quotients and rank formulas."""

import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from braidkit.models import (FreeGroup, Product, act_on_finite, hat_subgroup,
                             q8_semidirect_f2)
from braidkit.presentations import (
    b3_punctured_gamma2_ab,
    gamma2_annulus,
    gamma2_b4,
    gamma2_b5,
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
from braidkit.verify import SHIFTED_Z
from braidkit import models, reidschreier, series
from braidkit.reidschreier import rs_finite_cyclic, tietze_eliminate
from braidkit.words import (Gen, Word, invert, letter, multiply, parse_word,
                            relation_rows)
from oracles import cyclic_table, klein_four, nilpotent_class2_gamma2


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
    # central quotient of the commutator subgroup of the 4-strand sphere
    # braid group, computed through the finite-cyclic rewriting
    inv = gamma2_mod_gamma3(sphere_braid(4), Gen("s", (1,)))
    assert isinstance(inv, AbelianInvariants)


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
    with pytest.raises(ValueError, match="abelianization %s is not finite cyclic" % ab):
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
            lambda x, c: Gen(x.name, x.indices + (c,)), Gen("w")))[0]
        relators.append(multiply(image, invert(letter(s))))
    return relation_rows(relators, rs.presentation.generators)


_G2G3_INPUTS = [(sphere_braid(n), Gen("s", (1,)), None) for n in range(3, 10)]
_G2G3_INPUTS.append(
    (parse_presentation("group q\ngens: a b\nrel: a^6\nrel: b a^-2\n"),
     Gen("a"), {Gen("a"): 1, Gen("b"): 2}))


@pytest.mark.parametrize("p, t, weights", _G2G3_INPUTS,
                         ids=[p.name for p, _, _ in _G2G3_INPUTS])
def test_gamma2_mod_gamma3_index_shift_rows_match_the_rewriter(monkeypatch, p, t,
                                                               weights):
    # the coinvariance rows are index shifts; the rewriter gives the same
    # rows (and a zero row for w), also where weights are not all 1
    calls, matrices = [], []
    real_rs = series.rs_finite_cyclic
    monkeypatch.setattr(series, "rs_finite_cyclic",
                        lambda *args: calls.append(args) or real_rs(*args))
    real_invariants = series.abelian_invariants
    monkeypatch.setattr(series, "abelian_invariants", lambda rows, n: (
        matrices.append(rows) or real_invariants(rows, n)))
    got = gamma2_mod_gamma3(p, t)
    (args,) = calls
    assert args[2:] == (t, weights or {g: 1 for g in p.generators})
    rows = matrices[-1]
    sub = real_rs(*args).presentation
    shift_rows = rows[len(sub.relators):]
    oracle = [r for r in _rewriter_coinvariance_rows(*args) if r]
    assert (sorted(tuple(sorted(r.items())) for r in shift_rows)
            == sorted(tuple(sorted(r.items())) for r in oracle))
    assert got == AbelianInvariants(*real_invariants(
        rows[:len(sub.relators)] + oracle, len(sub.generators)))
    # Lambda^2 of a cyclic group is 0, so Gamma_2 = Gamma_3 both ways
    assert str(got) == "1"
    assert nilpotent_class2_gamma2(p) == got


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
    assert [lcs_rank_z2_free(i).rank for i in range(2, 7)] == [1, 2, 3, 5, 7]


def test_torus_ranks():
    r = [lcs_rank_torus(i).rank for i in (2, 3)]
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
    res = windowed_coinvariants(SHIFTED_Z, window=4)
    assert res.stable
    assert res.invariants == AbelianInvariants(0, (2,))


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
